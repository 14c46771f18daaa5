"""Mod-2 cohomology rings of real Bott manifolds.

The ring attached to a strictly upper triangular binary d x d matrix A is

    (Z/2)[x_1, ..., x_d] / (x_j^2 = x_j * y_j),   y_j = sum_{k < j} A[k][j] x_k.

Every element has a unique expansion in the squarefree monomials x_S with
S a subset of the generators, and all arithmetic here works on that basis.

Monomials are d-bit masks: bit i (counting from 0) stands for the generator
x_{i+1}.  Polynomials are finite sets of masks and addition is symmetric
difference.  Code is 0-based throughout; 1-based names appear only in
rendered strings such as ``"x1x2x4"`` and in diagnostics.

A ring context is built from the counter of one matrix, its packed
free entries, and holds a polynomial in one of two equivalent forms:
for dim <= 12 a single int whose bit at position ``mask`` marks the
monomial (dense), and for larger dim a frozenset of masks; products
rewrite whole sets of terms at once, with no tables, and the Frobenius
square is one ladder over the indices.  Both serialize through the same
canonical (degree, mask) order.  Only the search's re-check stacks
matrices: :meth:`RingContext._top_left_blocks` packs up to RECHECK_STACK
counters of one dimension, each into its own slot of whole 64-bit words
of one int, through one array of machine words, so that one big-int
operation acts on all of them in the dense ring of their top-left
(d-2) x (d-2) blocks.  Slots of one word are split back into per-slot
ints by a cast of the value's bytes to machine words, the low word
first on any host, and wider slots by byte slices.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from itertools import combinations

from ._record import FrozenRecord

MAX_DIM = 64
DENSE_DIM_LIMIT = 12
# Matrices in one block context at most.  Re-checking search hits in
# the rings of their (d-2)-blocks, per hit on one Xeon core: at d = 8,
# 2^8/2^9/2^10 slots take 1.96/1.72/1.61 us; at d=9 2.64/2.42/2.37;
# at d=10 4.28/4.24/4.54, and 2^9 is within 2% of the best at d = 11, 12.
# A d=12 value of 2^9 slots is 256 KB.
RECHECK_STACK = 1 << 9


class InvalidMatrixError(ValueError):
    """Raised when a matrix is not strictly upper triangular binary."""


def _bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BottMatrix(FrozenRecord):
    """Strictly upper triangular binary matrix, rows stored as bit masks.

    ``rows[i]`` has bit j set iff entry (i, j) is 1 (0-based).  Use
    :meth:`from_entries` or :meth:`from_row_strings` for validated
    construction; the raw constructor trusts its input.
    """

    __slots__ = ("dim", "rows")

    def __init__(self, dim: int, rows: tuple[int, ...]):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rows", rows)

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
                # True, 1.0 and 1+0j equal 1, but are not bits
                if type(e) is not int or e not in (0, 1):
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
        """Build from strings of 0/1 characters, one per row; any other
        character is refused as an entry, even a digit that int() reads
        as 0 or 1."""
        return cls.from_entries(
            [[int(ch) if ch in ("0", "1") else ch for ch in r] for r in rows])

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

    def to_row_strings(self) -> list[str]:
        return [_row_string(self.dim, row) for row in self.rows]


# A counter packs the d(d-1)/2 free entries of a d x d matrix row-major:
# row i's entries (i, i+1) .. (i, d-1) are its chunk, from bit off_i on.

@lru_cache(maxsize=None)
def _row_chunks(d: int) -> tuple:
    """(offset, width) of each row's chunk of the counter, top row first."""
    return tuple((i * (2 * d - i - 1) // 2, d - 1 - i) for i in range(d - 1))


def _counter_rows(d: int, counter: int) -> list:
    """Row masks of the matrix of ``counter``: chunk i shifted by i + 1,
    then the empty last row."""
    return [(counter >> off & ((1 << width) - 1)) << d - width
            for off, width in _row_chunks(d)] + [0]


def matrix_from_counter(d: int, counter: int) -> BottMatrix:
    return BottMatrix(d, tuple(_counter_rows(d, counter)))


def counter_from_matrix(matrix: BottMatrix) -> int:
    counter = 0
    for i, (off, width) in enumerate(_row_chunks(matrix.dim)):
        counter |= (matrix.rows[i] >> i + 1 & ((1 << width) - 1)) << off
    return counter


class Gf2Poly(FrozenRecord):
    """Polynomial over GF(2) in the squarefree monomial basis.

    ``terms`` is a frozenset of monomial masks; the zero polynomial has no
    terms and the unit is the empty monomial, mask 0.  Addition is symmetric
    difference; multiplication needs a :class:`RingContext` (see
    :func:`multiply`).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: frozenset = frozenset()):
        object.__setattr__(self, "terms", terms)

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
            acc ^= {m}
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


# Wire strings of rows and monomials repeat across the hits of a search,
# so both are cached, with a bound: a large dimension has too many to keep.

@lru_cache(maxsize=1 << 12)
def _row_string(dim: int, row: int) -> str:
    """Render a matrix row mask as 0/1 characters, column 0 first."""
    # format() puts bit 0 last; reversing puts column 0 first
    return format(row, f"0{dim}b")[::-1]


@lru_cache(maxsize=1 << 12)
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
    """Reduction data for one matrix, from its counter (see
    :func:`matrix_from_counter`): its y classes as linear forms, and no
    memo or tables.

    ``RingContext(dim, counter)`` takes one int counter, and holds the
    matrix in a dense int-bitset polynomial kernel up to
    ``DENSE_DIM_LIMIT`` and in a frozenset kernel above it; the public API
    is identical either way (see :func:`make_context`).  The search's
    re-check alone stacks matrices: :meth:`_top_left_blocks` builds the
    dense context of the top-left blocks of up to :meth:`stack_limit`
    larger matrices, where counter k owns the k-th run of ``_width`` bits,
    whole 64-bit words, of ``entries``, the packed counters, and of every
    value, its slot; a context of one matrix is one slot, and ``entries``
    is its counter.  How values are stored stays in this class, whose
    primitives answer the questions of other modules about them.  A
    linear form is a tuple of pairs (m, sel): in the slots that the mask
    ``sel`` covers, it holds x_m (the frozenset kernel ignores ``sel``).
    ``y_form[l]`` is y_l of every slot's matrix.  ``y_support[l]`` is the
    mask of rows with a 1 in column l and ``yclass`` the y classes, both
    derived from ``y_form`` when read.
    """

    __slots__ = ("dim", "y_form", "slots", "entries",
                 "_dense", "_free", "_width")

    def __init__(self, dim: int, counter: int):
        """The matrix has entry (m, l) where ``counter`` has that entry's
        bit, which is the selector of x_m in y_l."""
        if type(counter) is not int:
            raise TypeError("RingContext expects a single int counter, "
                            f"not {type(counter).__name__}")
        self._load(dim, (counter,), dim)

    def _load(self, dim: int, counters, d: int) -> None:
        """Set up the context of the top-left dim x dim blocks of the
        d x d matrices of ``counters``, each packed whole into its slot:
        the slots whose matrix has entry (m, l) are one shift and AND
        away, at the counter's bit for that entry, and spread over their
        slots they are the selector of x_m in y_l."""
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension {dim} outside 1..{MAX_DIM}")
        bits = d * (d - 1) // 2
        if min(counters) < 0 or max(counters) >> bits:
            raise ValueError(
                f"matrix counter outside 0..2^{bits}-1 at dimension {d}")
        dense = dim <= DENSE_DIM_LIMIT
        self.dim, self.slots, self._dense = dim, len(counters), dense
        # whole words with room for the counter, and for the monomials when
        # dense: 64 >= d(d-1)/2 up to d = 11, 2^(d-2) >= d(d-1)/2 from 6 on
        width = self._width = max(1 << dim, 64) if dense else bits + 63 & ~63
        self._free = (tuple(map(self._repeat, _free_slots(dim))) if dense
                      else None)
        self.entries = (counters[0] if len(counters) == 1 else
                        _pack_words(counters, width >> 6, bits))
        self.y_form = tuple(self._column_form(d, l) for l in range(dim))

    @classmethod
    def _top_left_blocks(cls, d: int, counters) -> tuple:
        """(context, forms, odd) for the d x d matrices A of ``counters``:
        the context of their top-left (d-2) x (d-2) blocks B, the forms of
        y_{d-2} and y_{d-1} of each A on the generators of B, and
        :meth:`_odd_row_slots` of the A.  Every counter sits whole in its
        slot, read at A's chunk offsets, so no counter is split; from
        d = 8 on a slot of B's ring is a quarter of A's."""
        ctx = cls.__new__(cls)
        ctx._load(d - 2, counters, d)
        return (ctx, (ctx._column_form(d, d - 2), ctx._column_form(d, d - 1)),
                ctx._odd_row_slots(d))

    def _column_form(self, d: int, l: int) -> tuple:
        """Column l of the d x d matrices of the slots, rows below
        ``dim`` only, as a linear form: bit 0 of the slots with entry
        (m, l), spread over those slots, selects x_m."""
        chunks, width, ones = _row_chunks(d), self._width, self._repeat(1)
        form = []
        for m in range(min(l, self.dim)):
            if starts := self.entries >> chunks[m][0] + l - m - 1 & ones:
                form.append((m, (starts << width) - starts))
        return tuple(form)

    @classmethod
    def from_column_supports(cls, dim: int, supports) -> "RingContext":
        """Build from per-column support masks, one per column: support j
        must only use bits below j."""
        if len(supports) != dim or any(
                sup < 0 or sup >> j for j, sup in enumerate(supports)):
            raise InvalidMatrixError(f"expected {dim} column supports, each "
                                     "with no bit on or below the diagonal")
        chunks = _row_chunks(dim)
        return cls(dim, sum(1 << chunks[i][0] + j - i - 1
                            for j, sup in enumerate(supports)
                            for i in _bits(sup)))

    @staticmethod
    def stack_limit(dim: int) -> int:
        """How many counters one block context of dimension ``dim``
        stacks at most: RECHECK_STACK in the dense kernel, one in the
        sparse one."""
        return RECHECK_STACK if dim <= DENSE_DIM_LIMIT else 1

    @property
    def y_support(self) -> tuple:
        return tuple(sum(1 << m for m, _ in form) for form in self.y_form)

    @property
    def yclass(self) -> tuple:
        return tuple(Gf2Poly(frozenset(1 << m for m, _ in form))
                     for form in self.y_form)

    # kernel primitives: a kernel value is an int bitset over monomial masks
    # when dense, one run of bits per slot, otherwise a frozenset of masks;
    # both support ^.

    def _repeat(self, mask: int) -> int:
        """A one-slot dense mask copied into every slot: the low slots of
        its copy into RECHECK_STACK slots, which is kept per dimension."""
        if self.slots == 1:
            return mask
        copies = _SLOT_COPIES.setdefault(self.dim, {})
        if mask not in copies:
            copies[mask] = int.from_bytes(mask.to_bytes(
                self._width // 8, "little") * RECHECK_STACK, "little")
        full = copies[mask]
        if self.slots == RECHECK_STACK:
            return full
        return full & (1 << self.slots * self._width) - 1

    def _unit(self, mask: int):
        """The monomial x_mask, in every slot."""
        return self._repeat(1 << mask) if self._dense else frozenset((mask,))

    def _rep(self, masks):
        return sum(1 << m for m in masks) if self._dense else frozenset(masks)

    @staticmethod
    def _wrap(rep) -> Gf2Poly:
        """The polynomial of a one-slot kernel value, dense (an int) or
        sparse (a frozenset)."""
        return Gf2Poly(rep if isinstance(rep, frozenset)
                       else frozenset(_bits(rep)))

    @staticmethod
    def _lowest(rep) -> int | None:
        """The smallest monomial mask of a one-slot kernel value, or None;
        it tests for the dense kernel first, which every search hit uses."""
        if rep.__class__ is int:
            return (rep & -rep).bit_length() - 1 if rep else None
        return min(rep, default=None)

    @staticmethod
    def _coefficient(rep, mask: int) -> int:
        """The coefficient, 0 or 1, of x_mask in a one-slot kernel value."""
        return (int(mask in rep) if isinstance(rep, frozenset)
                else rep >> mask & 1)

    def _odd_row_slots(self, d: int | None = None) -> int:
        """Nonzero in exactly the slots whose d x d matrix (d = ``dim`` by
        default) has a row of odd sum: a parity fold within rows leaves
        each row's sum at its last entry, and each slot keeps its own
        row-end bits, set where the row is odd."""
        stages, ends = _row_fold(d or self.dim)
        fold = self.entries
        for k, keep in stages:
            fold ^= fold << k & self._repeat(keep)
        return fold & self._repeat(ends)

    def _unstack(self, rep, dim: int | None = None) -> list:
        """The one-slot kernel values of the slots of ``rep``, in order,
        in the kernel of dimension ``dim`` (the context's own by
        default); a zero value is zero in every slot."""
        if self.slots == 1:
            values = [rep]
        elif not rep:
            values = [0] * self.slots
        elif self._width == 64:
            # machine words, low word first on any host
            raw = rep.to_bytes(8 * self.slots, sys.byteorder)
            values = memoryview(raw).cast("Q").tolist()
            if sys.byteorder == "big":
                values.reverse()
        else:
            n = self._width // 8
            raw = rep.to_bytes(n * self.slots, "little")
            values = [int.from_bytes(raw[at:at + n], "little")
                      for at in range(0, len(raw), n)]
        if self._dense and (dim or self.dim) > DENSE_DIM_LIMIT:
            return [frozenset(_bits(v)) for v in values]
        return values

    def _cut(self, rep, lo: int, hi: int):
        """The terms of ``rep`` of degree lo..hi."""
        if not self._dense:
            return frozenset(t for t in rep if lo <= t.bit_count() <= hi)
        return rep & self._repeat(_degree_mask(self.dim, lo, hi))

    def _square(self, rep):
        """The Frobenius square of a kernel value in every slot: the sum
        of x_S^2 = x_S * prod_{k in S} y_k over its terms x_S, by a ladder
        from x_0 up.  Step k replaces the terms that hold x_k by their
        product with y_k, and drops them where y_k = 0 (x_k^2 = 0).  A
        product by y_k only rewrites indices below k, so step k sees
        exactly the terms whose S held k; the order is load-bearing."""
        for k, form in enumerate(self.y_form):
            if held := (rep & ~self._free[k] if self._dense else
                        frozenset(t for t in rep if t >> k & 1)):
                rep ^= held ^ self._mul_form(held, form) if form else held
        return rep

    def _mul_form(self, rep, form):
        """Reduced product of a kernel value and a linear form, in each
        slot the sum of the x_m that the form selects there; y_k has the
        form ``y_form[k]`` and x_k the form ``((k, -1),)``.

        A term x_S without x_m moves to x_{S+m}; in the dense kernel they
        all move at once, in every slot, one shift of the bitset.  A term
        holding x_m owes x_S * y_m instead, since x_m^2 = x_m * y_m, and
        y_m only involves x_i, i < m.  The owed terms are settled from the
        top index down, each index's whole set at once: a term owed twice
        at one index cancels, so each term is rewritten at most once per
        index however many paths lead there.
        """
        dense, free, y_form = self._dense, self._free, self.y_form
        acc = 0 if dense else set()
        owed = [0 if dense else frozenset()] * self.dim
        due = 0
        held = rep
        while True:
            if dense:
                for m, sel in form:
                    sub = held & sel
                    part = sub & free[m]
                    acc ^= part << (1 << m)
                    if new := sub ^ part:
                        owed[m] ^= new
                        due |= 1 << m
            else:
                for m, _ in form:
                    bit = 1 << m
                    acc ^= {t | bit for t in held if not t & bit}
                    if new := frozenset(t for t in held if t & bit):
                        owed[m] ^= new
                        due |= bit
            if not due:
                return acc if dense else frozenset(acc)
            l = due.bit_length() - 1
            due ^= 1 << l
            held = owed[l]
            form = y_form[l] if held else ()


@lru_cache(maxsize=None)
def _free_slots(dim: int) -> tuple:
    """Per generator l, the dense bitset of the monomials without x_l."""
    out = []
    for l in range(dim):
        period = 1 << (l + 1)
        # the repunit of base 2^period, times the low half of one period
        reps = ((1 << (1 << dim)) - 1) // ((1 << period) - 1)
        out.append(reps * ((1 << (1 << l)) - 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _degree_mask(dim: int, lo: int, hi: int) -> int:
    """The dense bitset of the monomials of degree lo..hi."""
    return sum(1 << s for s in range(1 << dim) if lo <= s.bit_count() <= hi)


@lru_cache(maxsize=None)
def _row_fold(d: int) -> tuple:
    """The stages (k, keep) of a parity fold within the rows of a d x d
    counter, and the mask of the rows' last entries.  Stage k, for
    k = 1, 2, 4, ... below the widest row, XORs the bit k below into each
    bit at least k entries into its row, so no stage crosses a row."""
    chunks = _row_chunks(d)
    stages = tuple(
        (k, sum(((1 << width) - (1 << k)) << off
                for off, width in chunks if width > k))
        for k in (1 << i for i in range(max(d - 2, 0).bit_length())))
    return stages, sum(1 << off + width - 1 for off, width in chunks)


_WORD = (1 << 64) - 1


def _pack_words(counters, words: int, bits: int) -> int:
    """Counter k of ``counters``, each below 2^bits, in slot k of an int
    of slots of ``words`` 64-bit words: word j of every counter is one
    strided store into an array of machine words."""
    from array import array  # here: only the search's re-check needs it
    packed = array("Q", bytes(len(counters) * words << 3))
    for at in range(0, bits, 64):
        packed[at >> 6::words] = array("Q", counters if bits <= 64 else
                                       [c >> at & _WORD for c in counters])
    if sys.byteorder == "big":
        packed.byteswap()
    return int.from_bytes(packed, "little")


# Per dimension, the copies into RECHECK_STACK slots of the one-slot masks
# that block contexts spread (free generators, unit, degree cuts, row
# ends, row-fold stages), by mask
_SLOT_COPIES: dict = {}


def make_context(matrix: BottMatrix) -> RingContext:
    """The ring context of ``matrix``, checked to be a BottMatrix."""
    if not isinstance(matrix, BottMatrix):
        raise TypeError("make_context expects a BottMatrix")
    return RingContext(matrix.dim, counter_from_matrix(matrix))


def _in_ring(ctx: RingContext, name: str, *polys: Gf2Poly) -> None:
    """Refuse a monomial of ``polys`` on a generator that the ring lacks."""
    for p in polys:
        if foreign := [m for m in p.terms if m >> ctx.dim]:
            raise ValueError(f"{name}: monomial {format_monomial(min(foreign))}"
                             f" lies outside the ring of x1..x{ctx.dim}")


def _times_y(ctx: RingContext, rep, ks):
    """``rep`` times y_k for each k of ``ks`` in turn: the step of
    x_S * x_T = x_{S|T} * prod_{j in S&T} y_j and of x_j^e = x_j * y_j^(e-1)."""
    for k in ks:
        rep = ctx._mul_form(rep, ctx.y_form[k])
    return rep


def multiply(ctx: RingContext, p: Gf2Poly, q: Gf2Poly) -> Gf2Poly:
    """Reduced product of two normal-form polynomials: all of q times x_a
    for each term a of p, one generator of a at a time."""
    _in_ring(ctx, "multiply", p, q)
    qrep = ctx._rep(q.terms)
    rep = ctx._rep(())
    for a in p.terms:
        part = qrep
        for k in _bits(a):
            part = ctx._mul_form(part, ((k, -1),))
        rep ^= part
    return ctx._wrap(rep)


def square(ctx: RingContext, p: Gf2Poly) -> Gf2Poly:
    """Frobenius square: (sum m_i)^2 = sum m_i^2 in characteristic 2, by
    the ladder of :meth:`RingContext._square`."""
    _in_ring(ctx, "square", p)
    return ctx._wrap(ctx._square(ctx._rep(p.terms)))


def reduce_exponents(ctx: RingContext, exponents) -> Gf2Poly:
    """Expand a power product ``prod x_i^{e_i}`` in the squarefree basis.

    ``exponents`` is a length-dim vector of non-negative integers.  By
    induction on x_j^2 = x_j y_j, x_j^e = x_j y_j^(e-1) for e >= 1, so the
    product is x_S * prod_i y_i^(e_i - 1), with S the indices of nonzero
    exponent.  The y factors are taken from the highest index down; the
    ring is commutative and the basis unique, so any order gives the
    same answer.
    """
    exps = tuple(int(e) for e in exponents)
    if len(exps) != ctx.dim:
        raise ValueError(f"expected {ctx.dim} exponents, got {len(exps)}")
    if any(e < 0 for e in exps):
        raise ValueError("exponents must be non-negative")
    support = sum(1 << i for i, e in enumerate(exps) if e)
    # x_i y_i^dim is 0, above the top degree: more factors change nothing
    return ctx._wrap(_times_y(ctx, ctx._unit(support),
                              [i for i in reversed(range(ctx.dim))
                               for _ in range(min(exps[i] - 1, ctx.dim))]))


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
    # x_s * x_t is x_{s|t} times y_j for each j in s & t (x_j^2 = x_j y_j),
    # and many pairs share s | t and s & t
    memo: dict = {}
    out = []
    for s in row_masks:
        row = []
        for t in col_masks:
            key = (s | t, s & t)
            rep = memo.get(key)
            if rep is None:
                rep = memo[key] = _times_y(ctx, ctx._unit(s | t),
                                           _bits(s & t))
            row.append(ctx._coefficient(rep, top))
        out.append(row)
    return out


def relation_strings(ctx: RingContext) -> list[str]:
    """Canonical rendering of x_j^2 = x_j y_j, one relation per generator."""
    return [f"x{j + 1}^2 = {ctx._wrap(_times_y(ctx, ctx._unit(1 << j), (j,)))}"
            for j in range(ctx.dim)]
