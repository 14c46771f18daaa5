"""Mod-2 cohomology rings of real Bott manifolds.

The ring attached to a strictly upper triangular binary d x d matrix A is

    (Z/2)[x_1, ..., x_d] / (x_j^2 = x_j * y_j),   y_j = sum_{k < j} A[k][j] x_k.

Every element has a unique expansion in the squarefree monomials x_S with
S a subset of the generators, and all arithmetic here works on that basis.

Monomials are d-bit masks: bit i (counting from 0) stands for the generator
x_{i+1}.  Polynomials are finite sets of masks and addition is symmetric
difference.  Code is 0-based throughout; 1-based names appear only in
rendered strings such as ``"x1x2x4"`` and in diagnostics.

Internally a ring context keeps rewrite tables in one of two equivalent
forms: for dim <= 12 a polynomial is a single int whose bit at position
``mask`` marks the monomial (dense, used by the search hot path), and for
larger dim a frozenset of masks.  Both serialize through the same canonical
(degree, mask) order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

MAX_DIM = 64
DENSE_DIM_LIMIT = 12


class InvalidMatrixError(ValueError):
    """Raised when a matrix is not strictly upper triangular binary."""


def _bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class BottMatrix:
    """Strictly upper triangular binary matrix, rows stored as bit masks.

    ``rows[i]`` has bit j set iff entry (i, j) is 1 (0-based).  Use
    :meth:`from_entries` or :meth:`from_row_strings` for validated
    construction; the raw constructor trusts its input.
    """

    dim: int
    rows: tuple[int, ...]

    @classmethod
    def from_entries(cls, entries) -> "BottMatrix":
        d = len(entries)
        if not 1 <= d <= MAX_DIM:
            raise InvalidMatrixError(f"dimension {d} outside 1..{MAX_DIM}")
        rows = []
        for i, row in enumerate(entries):
            row = list(row)
            if len(row) != d:
                raise InvalidMatrixError(
                    f"row {i + 1} has {len(row)} entries, expected {d}")
            mask = 0
            for j, e in enumerate(row):
                if e not in (0, 1):
                    raise InvalidMatrixError(
                        f"entry ({i + 1}, {j + 1}) is {e!r}, expected 0 or 1")
                if e:
                    if j <= i:
                        raise InvalidMatrixError(
                            f"nonzero entry ({i + 1}, {j + 1}) on or below the diagonal")
                    mask |= 1 << j
            rows.append(mask)
        return cls(d, tuple(rows))

    @classmethod
    def from_row_strings(cls, rows) -> "BottMatrix":
        """Build from strings of 0/1 characters, one per row."""
        return cls.from_entries([[int(ch) for ch in r] for r in rows])

    @classmethod
    def zero(cls, dim: int) -> "BottMatrix":
        if not 1 <= dim <= MAX_DIM:
            raise InvalidMatrixError(f"dimension {dim} outside 1..{MAX_DIM}")
        return cls(dim, (0,) * dim)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def column_support(self, j: int) -> int:
        """Mask of row indices i with entry (i, j) = 1; these satisfy i < j."""
        out = 0
        for i in range(j):
            if (self.rows[i] >> j) & 1:
                out |= 1 << i
        return out

    def to_lists(self) -> list[list[int]]:
        return [[self.entry(i, j) for j in range(self.dim)] for i in range(self.dim)]

    def to_row_strings(self) -> list[str]:
        # format() puts bit 0 last; reversing puts column 0 first
        spec = f"0{self.dim}b"
        return [format(row, spec)[::-1] for row in self.rows]


@dataclass(frozen=True)
class Gf2Poly:
    """Polynomial over GF(2) in the squarefree monomial basis.

    ``terms`` is a frozenset of monomial masks; the zero polynomial has no
    terms and the unit is the empty monomial, mask 0.  Addition is symmetric
    difference; multiplication needs a :class:`RingContext` (see
    :func:`multiply`).
    """

    terms: frozenset = frozenset()

    @classmethod
    def zero(cls) -> "Gf2Poly":
        return cls(frozenset())

    @classmethod
    def one(cls) -> "Gf2Poly":
        return cls(frozenset((0,)))

    @classmethod
    def variable(cls, i: int) -> "Gf2Poly":
        """The generator with 0-based index i, that is x_{i+1}."""
        return cls(frozenset((1 << i,)))

    @classmethod
    def from_masks(cls, masks) -> "Gf2Poly":
        acc: set = set()
        for m in masks:
            if m in acc:
                acc.remove(m)
            else:
                acc.add(m)
        return cls(frozenset(acc))

    @classmethod
    def from_monomial_strings(cls, strings) -> "Gf2Poly":
        return cls.from_masks(parse_monomial(s) for s in strings)

    def __add__(self, other: "Gf2Poly") -> "Gf2Poly":
        if not isinstance(other, Gf2Poly):
            return NotImplemented
        return Gf2Poly(self.terms ^ other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        """Largest monomial degree, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.bit_count() for m in self.terms)

    def component(self, k: int) -> "Gf2Poly":
        """Homogeneous degree-k part."""
        return Gf2Poly(frozenset(m for m in self.terms if m.bit_count() == k))

    def sorted_masks(self) -> list[int]:
        """Masks in canonical order: by degree, then numerically."""
        return sorted(self.terms, key=lambda m: (m.bit_count(), m))

    def monomial_strings(self) -> list[str]:
        return [format_monomial(m) for m in self.sorted_masks()]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(self.monomial_strings())


def format_monomial(mask: int) -> str:
    """Render a monomial mask as ``"x1x2x4"``; the empty monomial is ``"1"``."""
    if mask == 0:
        return "1"
    return "".join(f"x{i + 1}" for i in _bits(mask))


_MONOMIAL_RE = re.compile(r"1|(?:x[1-9][0-9]*)+")


def parse_monomial(s: str) -> int:
    """Inverse of :func:`format_monomial`; rejects repeated or bad factors."""
    if not _MONOMIAL_RE.fullmatch(s):
        raise ValueError(f"bad monomial string {s!r}")
    if s == "1":
        return 0
    mask = 0
    for part in re.findall(r"x([0-9]+)", s):
        i = int(part) - 1
        if not 0 <= i < MAX_DIM:
            raise ValueError(f"variable index {part} outside 1..{MAX_DIM} in {s!r}")
        bit = 1 << i
        if mask & bit:
            raise ValueError(f"repeated variable x{part} in {s!r}")
        mask |= bit
    return mask


class RingContext:
    """Reduction data for one matrix: y classes plus memoized rewrite tables.

    The context chooses a dense int-bitset polynomial kernel for
    dim <= ``DENSE_DIM_LIMIT`` and a frozenset kernel above it; the public
    API is identical either way.  ``y_support`` is the source of truth;
    ``matrix`` and ``yclass`` are derived from it on first use.
    """

    __slots__ = ("dim", "y_support", "_matrix", "_yclass", "_dense",
                 "_free", "_mulvar", "_monomul")

    def __init__(self, matrix: BottMatrix):
        supports = [0] * matrix.dim
        for i, row in enumerate(matrix.rows):
            for j in _bits(row):
                supports[j] |= 1 << i
        self._setup(matrix.dim, tuple(supports))
        self._matrix = matrix

    @classmethod
    def from_column_supports(cls, dim: int, supports) -> "RingContext":
        """Build directly from per-column support masks (search hot path).

        The supports are trusted: support j must only use bits below j.
        """
        ctx = cls.__new__(cls)
        ctx._setup(dim, tuple(supports))
        return ctx

    def _setup(self, dim: int, supports: tuple) -> None:
        self.dim = dim
        self.y_support = supports
        self._matrix = self._yclass = None
        self._dense = dim <= DENSE_DIM_LIMIT
        self._free = _free_slots(dim) if self._dense else None
        # _mulvar[k] memoizes x_mask * x_k by mask; it depends on y_0..y_k
        self._mulvar = [{} for _ in range(dim)]
        self._monomul: dict = {}

    @property
    def matrix(self) -> BottMatrix:
        if self._matrix is None:
            rows = [0] * self.dim
            for j, sup in enumerate(self.y_support):
                for i in _bits(sup):
                    rows[i] |= 1 << j
            self._matrix = BottMatrix(self.dim, tuple(rows))
        return self._matrix

    @property
    def yclass(self) -> tuple:
        if self._yclass is None:
            self._yclass = tuple(
                Gf2Poly(frozenset(1 << k for k in _bits(sup)))
                for sup in self.y_support)
        return self._yclass

    # kernel primitives: a kernel value is an int bitset over monomial slots
    # when dense, otherwise a frozenset of masks; both support ^.

    def _kzero(self):
        return 0 if self._dense else frozenset()

    def _unit(self, mask: int):
        return 1 << mask if self._dense else frozenset((mask,))

    def _kmasks(self, rep):
        if self._dense:
            while rep:
                low = rep & -rep
                yield low.bit_length() - 1
                rep ^= low
        else:
            yield from rep

    def _wrap(self, rep) -> Gf2Poly:
        return Gf2Poly(frozenset(self._kmasks(rep)))

    def _mul_y(self, rep, k: int):
        """Reduced product of a kernel value and the linear form y_k.

        Dense: the terms t without x_l, for l in the support of y_k, move
        to slot t | 2^l all at once, one shift of the bitset; only the
        terms holding x_l rewrite.
        """
        form = self.y_support[k]
        if self._dense:
            acc = 0
            free = self._free
            while form:
                bit = form & -form
                form ^= bit
                l = bit.bit_length() - 1
                part = rep & free[l]
                acc ^= part << bit
                held = rep ^ part
                while held:
                    low = held & -held
                    acc ^= self._mul_var(low.bit_length() - 1, l)
                    held ^= low
            return acc
        acc = set()
        for l in _bits(form):
            for t in rep:
                acc ^= self._mul_var(t, l)
        return frozenset(acc)

    def _mul_var(self, mask: int, k: int):
        """Reduced product x_mask * x_k as a kernel value.

        When k already occurs in mask the product is x_mask * y_k, and y_k
        only involves smaller indices, so the recursion terminates.
        """
        memo = self._mulvar[k]
        cached = memo.get(mask)
        if cached is not None:
            return cached
        if mask >> k & 1:
            out = self._mul_y(self._unit(mask), k)
        else:
            out = self._unit(mask | 1 << k)
        memo[mask] = out
        return out

    def _mono_mul(self, a: int, b: int):
        """Reduced product of two squarefree monomials as a kernel value.

        x_a * x_b is x_{a|b} times x_k for each k in a & b.  Every term of
        the reduced form of a multiple of x_{a|b} holds each such x_k, and
        there x_k acts as y_k since x_k^2 = x_k * y_k.
        """
        common = a & b
        if not common:
            return self._unit(a | b)
        key = (a | b, common)
        cached = self._monomul.get(key)
        if cached is not None:
            return cached
        rep = self._unit(a | b)
        for k in _bits(common):
            rep = self._mul_y(rep, k)
        self._monomul[key] = rep
        return rep


@lru_cache(maxsize=None)
def _free_slots(dim: int) -> tuple:
    """Per generator l, the dense bitset of the monomial slots without x_l."""
    out = []
    for l in range(dim):
        period = 1 << (l + 1)
        # the repunit of base 2^period, times the low half of one period
        reps = ((1 << (1 << dim)) - 1) // ((1 << period) - 1)
        out.append(reps * ((1 << (1 << l)) - 1))
    return tuple(out)


def make_context(matrix: BottMatrix) -> RingContext:
    """Prepare reduction tables for the ring of ``matrix``."""
    if not isinstance(matrix, BottMatrix):
        raise TypeError("make_context expects a BottMatrix")
    return RingContext(matrix)


def multiply(ctx: RingContext, p: Gf2Poly, q: Gf2Poly) -> Gf2Poly:
    """Reduced product of two normal-form polynomials."""
    rep = ctx._kzero()
    for a in p.terms:
        for b in q.terms:
            rep ^= ctx._mono_mul(a, b)
    return ctx._wrap(rep)


def square(ctx: RingContext, p: Gf2Poly) -> Gf2Poly:
    """Frobenius square: (sum m_i)^2 = sum m_i^2 in characteristic 2."""
    rep = ctx._kzero()
    for a in p.terms:
        rep ^= ctx._mono_mul(a, a)
    return ctx._wrap(rep)


def reduce_exponents(ctx: RingContext, exponents, strategy: str = "highest") -> Gf2Poly:
    """Expand a power product ``prod x_i^{e_i}`` in the squarefree basis.

    ``exponents`` is a length-dim vector of non-negative integers.  Each step
    rewrites one squared variable through x_j^2 = x_j y_j; ``strategy``
    selects the highest or lowest squared index first.  The two strategies
    agree on the result (the rewrite system is confluent); both are exposed
    so that tests can check exactly that.  Termination: a rewrite trades
    exponent weight at index j for weight at indices below j, which strictly
    decreases the sum of e_i * 2^i.
    """
    exps = tuple(int(e) for e in exponents)
    if len(exps) != ctx.dim:
        raise ValueError(f"expected {ctx.dim} exponents, got {len(exps)}")
    if any(e < 0 for e in exps):
        raise ValueError("exponents must be non-negative")
    if strategy not in ("highest", "lowest"):
        raise ValueError(f"unknown strategy {strategy!r}")
    pick = max if strategy == "highest" else min
    pending = {exps}
    out: set[int] = set()
    while pending:
        term = pending.pop()
        squared = [i for i, e in enumerate(term) if e >= 2]
        if not squared:
            mask = 0
            for i, e in enumerate(term):
                if e:
                    mask |= 1 << i
            out ^= {mask}
            continue
        j = pick(squared)
        for l in _bits(ctx.y_support[j]):
            child = list(term)
            child[j] -= 1
            child[l] += 1
            child_t = tuple(child)
            if child_t in pending:
                pending.remove(child_t)
            else:
                pending.add(child_t)
    return Gf2Poly(frozenset(out))


def basis_masks(d: int, k: int) -> list[int]:
    """Degree-k squarefree monomial masks in increasing numeric order."""
    if not 0 <= k <= d:
        raise ValueError(f"degree {k} outside 0..{d}")
    return sorted(sum(1 << i for i in c) for c in combinations(range(d), k))


def pairing_matrix(ctx: RingContext, k: int) -> list[list[int]]:
    """Multiplication pairing into the top degree.

    Entry [S][T] is the coefficient of the full monomial x_1...x_d in the
    reduced product x_S * x_T, with rows over degree-k masks and columns
    over degree-(d-k) masks, both in :func:`basis_masks` order.
    """
    d = ctx.dim
    row_masks = basis_masks(d, k)
    col_masks = basis_masks(d, d - k)
    top = (1 << d) - 1
    out = []
    for s in row_masks:
        row = []
        for t in col_masks:
            rep = ctx._mono_mul(s, t)
            if ctx._dense:
                row.append((rep >> top) & 1)
            else:
                row.append(1 if top in rep else 0)
        out.append(row)
    return out


def relation_strings(ctx: RingContext) -> list[str]:
    """Canonical rendering of the defining relations, one per generator."""
    out = []
    for j in range(ctx.dim):
        exps = [0] * ctx.dim
        exps[j] = 2
        rhs = reduce_exponents(ctx, exps)
        out.append(f"x{j + 1}^2 = {rhs}")
    return out
