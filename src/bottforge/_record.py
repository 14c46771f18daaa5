"""Value records on ``__slots__``: :mod:`dataclasses` imports :mod:`inspect`,
which costs a one-shot command more than its work.  A record's fields are
its class's ``__slots__``, which its constructor takes in order; it equals
a record of the same class with equal fields, hashes by value, pickles
through its constructor, and shows in its repr its fields, or the
attributes that its class names in ``_shown``."""


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return (self._values() == other._values()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name
                          in getattr(self, "_shown", self.__slots__))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """Refuses assignment, so its constructor uses object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"field {name!r} of a frozen record is read-only")

    __delattr__ = __setattr__
