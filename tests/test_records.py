"""Value records: the seven slotted classes keep the behaviour of the
dataclasses they replace (constructor, equality, hash, repr, pickle,
frozen assignment)."""

import copy
import inspect
import pickle

import pytest

from bottforge.abelian import (FgAbGroup, IntMatrix, StationarySystem,
                               smith_normal_form)
from bottforge.charclass import SwReport, counterexample_criterion
from bottforge.gf2ring import BottMatrix, Gf2Poly
from bottforge.odometer import LevelPoint, OdometerTower
from bottforge.search import REFERENCE_D9


def _system():
    group = FgAbGroup(IntMatrix.from_rows([[0], [4]]))
    return StationarySystem(group, IntMatrix.from_rows([[5, 0], [0, 5]]), 5,
                            IntMatrix.identity(2))


def _records():
    m = IntMatrix.from_rows([[2, 1], [0, 2]])
    return {
        "BottMatrix": BottMatrix(9, REFERENCE_D9.rows),
        "Gf2Poly": Gf2Poly.from_monomial_strings(["x1x2", "x3"]),
        "SwReport": counterexample_criterion(REFERENCE_D9),
        "IntMatrix": m,
        "SmithDecomposition": smith_normal_form(m),
        "StationarySystem": _system(),
        "LevelPoint": OdometerTower(m).reduce(3, [5, -7]),
    }


FROZEN = ["BottMatrix", "Gf2Poly", "IntMatrix", "SmithDecomposition",
          "LevelPoint"]


def _fields(record) -> dict:
    return {name: getattr(record, name) for name in type(record).__slots__}


@pytest.mark.parametrize("name", list(_records()))
def test_constructor_takes_the_fields_in_slot_order(name):
    """The constructor's parameters are the slots, in order, so a record
    rebuilt positionally or by keyword from its fields equals it."""
    record = _records()[name]
    cls = type(record)
    assert cls.__name__ == name
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__)
    values = _fields(record)
    assert cls(*values.values()) == record
    assert cls(**values) == record
    assert not hasattr(record, "__dict__")


def test_constructor_defaults():
    assert Gf2Poly() == Gf2Poly(frozenset()) == Gf2Poly(terms=frozenset())
    assert Gf2Poly() == Gf2Poly.zero()
    system = _system()
    assert StationarySystem(system.group, system.beta, 5).alpha is None


@pytest.mark.parametrize("name", list(_records()))
def test_equality_is_by_value_within_one_class(name):
    record = _records()[name]
    again = _records()[name]
    if name == "StationarySystem":
        # FgAbGroup compares by identity, as it did under the dataclass
        again.group = record.group
    assert record == again and record is not again
    assert not record != again
    assert record != tuple(_fields(record).values())
    assert record != object()


def test_records_of_two_classes_with_equal_fields_differ():
    bott, point = BottMatrix(2, (2, 0)), LevelPoint(2, (2, 0))
    assert tuple(_fields(bott).values()) == tuple(_fields(point).values())
    assert bott != point and point != bott


@pytest.mark.parametrize("name", [n for n in _records()
                                  if n != "StationarySystem"])
def test_hash_is_by_value(name):
    record, again = _records()[name], _records()[name]
    assert hash(record) == hash(again)
    assert len({record, again}) == 1


def test_stationary_system_is_unhashable():
    """It is mutable and compared by value, as an eq-only dataclass."""
    system = _system()
    assert StationarySystem.__hash__ is None
    with pytest.raises(TypeError, match="unhashable"):
        hash(system)
    system.multiplier = 9
    assert system.multiplier == 9


@pytest.mark.parametrize("name", list(_records()))
def test_pickle_and_copy_round_trip(name):
    record = _records()[name]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record)
        if name == "StationarySystem":
            # its FgAbGroup has no value equality; its relations do
            assert back.group.relations == record.group.relations
            back.group = record.group
        assert back == record
    assert copy.copy(record) == record
    if name != "StationarySystem":
        assert copy.deepcopy(record) == record


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment(name):
    record = _records()[name]
    before = _fields(record)
    for field in before:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert _fields(record) == before


def test_reprs_name_the_public_fields():
    m = IntMatrix.from_rows([[2, 1], [0, 2]])
    assert repr(m) == "IntMatrix(rows=((2, 1), (0, 2)))"
    assert repr(BottMatrix(2, (2, 0))) == "BottMatrix(dim=2, rows=(2, 0))"
    assert repr(Gf2Poly(frozenset({3}))) == "Gf2Poly(terms=frozenset({3}))"
    assert repr(LevelPoint(1, (0, 1))) == "LevelPoint(level=1, coords=(0, 1))"
    snf = smith_normal_form(m)
    assert repr(snf) == (f"SmithDecomposition(U={snf.U!r}, D={snf.D!r}, "
                         f"V={snf.V!r})")
    system = _system()
    assert repr(system) == (f"StationarySystem(group={system.group!r}, "
                            f"beta={system.beta!r}, multiplier=5, "
                            f"alpha={system.alpha!r})")
    # a report shows its flags, read off its classes, and not the classes
    report = SwReport(9, 0, 1 << 7, 1 << 0b1111011 | 1 << 0b1111110)
    assert repr(report) == ("SwReport(dim=9, orientable=True, verdict=True, "
                            "witness=123)")
    odd = SwReport(13, frozenset({1}), frozenset(), frozenset({0b111111}))
    assert repr(odd) == ("SwReport(dim=13, orientable=False, verdict=False, "
                         "witness=63)")
