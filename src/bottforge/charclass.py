"""Stiefel-Whitney classes, Steenrod squares, and the w3-square test.

For the ring of a Bott matrix the total Stiefel-Whitney class factors as a
product of line-bundle classes (1 + y_i), so w_m is the m-th elementary
symmetric polynomial in the y classes.  In particular w_1 = sum y_i and the
manifold is orientable exactly when every row of the matrix has even sum.
The product is formed as one kernel value, truncated above the highest
degree asked for, one product by y_i per column; the graded parts are cut
out of it by degree masks.

The total Steenrod square is determined by Sq(x_i) = x_i + x_i^2 together
with multiplicativity, which on a squarefree monomial x_S expands to the
sum of x_S * x_T over subsets T of S.

A matrix passes the counterexample criterion when its manifold is
orientable and w_3^2 is nonzero; dimensions below 6 never pass because
w_3^2 lives in degree 6.  Squaring is a ring map in characteristic 2, so
w_3^2 sums x_S^2 = x_S * prod_{k in S} y_k over the terms x_S of w3, by
the ring context's ladder over the indices k, the one that
:func:`~bottforge.gf2ring.square` runs.  The criterion evaluates one
matrix in its own ring context and cross-checks w1 against the row sums
of that matrix.  A report keeps w1, w3 and w3^2 of the matrix and reads
every flag off them.

The search re-checks its hits, which are orientable, by a second route,
:func:`criteria_by_blocks`, with the same reports.  For a d x d matrix A
with all rows even, whose top-left (d-2) x (d-2) block is B, the last two
y classes are linear forms on the generators of B, so every term of w3
and of w3^2 lies in the smaller ring of B.  The hits are stacked there,
one per slot, and the row sums of every counter are checked in place of
w1.  The stacks are the re-check's alone: the checks and reproductions
of single matrices keep the criterion above, which the tests hold the
second route against.

The search decides many candidates at once with a bit-sliced kernel of
its own, :func:`w3_square_lanes`.  It rests on the same identity but
shares no code with the ring context: it squares w3 on per-term lane
dicts, and its products by y_l keep no memo, settling owed terms from the
top index down, one whole set per index.
"""

from __future__ import annotations

from ._record import Record
from .gf2ring import (
    BottMatrix,
    Gf2Poly,
    RingContext,
    _bits,
    _in_ring,
    make_context,
)


class SwReport(Record):
    """Outcome of the criterion evaluation for one matrix: its dimension
    and the kernel values of w1, w3 and w3sq in its ring context.
    ``w1``, ``w3`` and ``w3sq`` build the :class:`Gf2Poly` when read, and
    every flag is read off the classes: ``orientable`` is w1 = 0,
    ``verdict`` is orientable with w3sq nonzero, and ``witness`` the
    smallest monomial of w3sq in canonical order, None for w3sq = 0.
    Read-only by convention: hashed by value and not frozen, as a frozen
    record costs a call per field and the search builds one per hit.
    """

    __slots__ = ("dim", "_w1", "_w3", "_w3sq")
    _shown = ("dim", "orientable", "verdict", "witness")

    def __init__(self, dim: int, _w1, _w3, _w3sq):
        self.dim, self._w1, self._w3, self._w3sq = dim, _w1, _w3, _w3sq

    @property
    def w1(self) -> Gf2Poly:
        return RingContext._wrap(self._w1)

    @property
    def w3(self) -> Gf2Poly:
        return RingContext._wrap(self._w3)

    @property
    def w3sq(self) -> Gf2Poly:
        return RingContext._wrap(self._w3sq)

    @property
    def orientable(self) -> bool:
        return not self._w1

    @property
    def w3sq_nonzero(self) -> bool:
        return bool(self._w3sq)

    @property
    def verdict(self) -> bool:
        return not self._w1 and bool(self._w3sq)

    @property
    def witness(self) -> int | None:
        # w3sq is homogeneous, so its smallest mask comes first
        return RingContext._lowest(self._w3sq)


def _total_class(ctx: RingContext, top: int, extra: tuple = ()):
    """Kernel value of prod (1 + y_i) in every slot, times (1 + f) for
    each linear form f of ``extra``, without the terms of degree above
    ``top``: each factor adds its form times the part below ``top``."""
    g = ctx._unit(0)
    for form in ctx.y_form + extra:
        if form:
            g ^= ctx._mul_form(ctx._cut(g, 0, top - 1), form)
    return g


def _add_times_y(entries, p: dict, l: int, acc: dict) -> dict:
    """Add p * y_l to ``acc`` and return it, lane polynomials both.

    A term x_S without x_m moves to x_{S+m} on the lanes of entry (m, l).
    A term holding x_m owes x_S * y_m on those lanes instead, since
    x_m^2 = x_m * y_m, and y_m only involves x_i, i < m.  The owed terms
    are settled from the top index down, each index's whole set at once,
    ANDed with the entry lanes of its column: an index only owes to lower
    ones, so its set is complete when the pass reaches it.
    """
    owed = {l: p}
    for top in range(l, -1, -1):
        if not (held := owed.get(top)):
            continue
        for m, e in enumerate(entries[top]):
            if not e:
                continue
            bit = 1 << m
            for s, c in held.items():
                if s & bit:
                    into = owed.setdefault(m, {})
                    into[s] = into.get(s, 0) ^ c & e
                else:
                    acc[s | bit] = acc.get(s | bit, 0) ^ c & e
    return acc


def w3_square_lanes(dim: int, entries, lanes: int) -> int:
    """Mask of the lanes whose matrix has w3^2 != 0, many matrices at once.

    Bit-sliced (Biham, FSE 1997): ``entries[j][i]``, for i < j, is an int
    whose bit n is entry (i, j) of the matrix in lane n, for ``lanes``
    lanes.  A polynomial is a dict from a monomial mask to the lane int of
    its coefficient, so every int operation below acts on all lanes.  The
    rewrite x_S * y_l is :func:`_add_times_y`, with no memo: owed terms
    are settled from the top index down, one whole set per index.  w3 =
    e_3(y) is formed truncated at degree 3, then squared term by term,
    x_S^2 = x_S * prod_{k in S} y_k.  This is a separate route from the
    ring context, which re-checks every hit.
    """
    g = [{0: (1 << lanes) - 1}, {}, {}, {}]
    for i in range(dim):
        if any(entries[i]):
            for k in (3, 2, 1):
                _add_times_y(entries, g[k - 1], i, g[k])
    w3sq: dict = {}
    for s, c in g[3].items():
        if c:
            a, b, top = _bits(s)
            p = _add_times_y(entries, {s: c}, a, {})
            _add_times_y(entries, _add_times_y(entries, p, b, {}), top, w3sq)
    out = 0
    for v in w3sq.values():
        out |= v
    return out


def stiefel_whitney(ctx: RingContext, m: int) -> Gf2Poly:
    """w_m of the manifold of ``ctx``: e_m(y_1, ..., y_d), reduced."""
    if not 0 <= m <= ctx.dim:
        raise ValueError(f"degree {m} outside 0..{ctx.dim}")
    return ctx._wrap(ctx._cut(_total_class(ctx, m), m, m))


def total_stiefel_whitney(ctx: RingContext) -> list[Gf2Poly]:
    """All graded parts [w_0, w_1, ..., w_d]."""
    total = _total_class(ctx, ctx.dim)
    return [ctx._wrap(ctx._cut(total, k, k)) for k in range(ctx.dim + 1)]


def total_steenrod_square(ctx: RingContext, p: Gf2Poly) -> list[Gf2Poly]:
    """Graded list [Sq^0 p, Sq^1 p, ..., Sq^dim p], applied term by term.

    Sq^m of a monomial x_S is the sum of x_S * x_T over the size-m subsets
    T of S; consequently Sq^0 = id, Sq^{deg} is the Frobenius square and
    Sq^m vanishes for m above the degree.  x_S * x_T is x_S times y_k for
    each k in T, so the products are built up one index of S at a time.
    """
    _in_ring(ctx, "total_steenrod_square", p)
    comps = [ctx._rep(()) for _ in range(ctx.dim + 1)]
    for s in p.terms:
        parts = {0: ctx._unit(s)}
        for k in _bits(s):
            parts.update({t | 1 << k: ctx._mul_form(part, ctx.y_form[k])
                          for t, part in parts.items()})
        for t, part in parts.items():
            comps[t.bit_count()] ^= part
    return [ctx._wrap(c) for c in comps]


def counterexample_criterion(matrix: BottMatrix) -> SwReport:
    """Evaluate orientability and w_3^2 for one matrix.

    The verdict is true exactly when w_1 = 0 and w_3^2 != 0.  The w_1
    computation is cross-checked against the row-sum test.
    """
    if not isinstance(matrix, BottMatrix):
        raise TypeError("counterexample_criterion expects a BottMatrix")
    return _report(make_context(matrix))


# Reference matrices with known verdicts: the 9 x 9 witness and the two
# 10 x 10 variants (zero-padded, and the longer chain with a full last
# column).  Rows are 0/1 strings, top row first.

REFERENCE_D9 = BottMatrix.from_row_strings((
    "010000001",
    "001000001",
    "000100001",
    "000010001",
    "000001001",
    "000000101",
    "000000011",
    "000000000",
    "000000000",
))

REFERENCE_D10_PADDED = BottMatrix.from_row_strings((
    "0100000010",
    "0010000010",
    "0001000010",
    "0000100010",
    "0000010010",
    "0000001010",
    "0000000110",
    "0000000000",
    "0000000000",
    "0000000000",
))

REFERENCE_D10_CHAIN = BottMatrix.from_row_strings((
    "0100000001",
    "0010000001",
    "0001000001",
    "0000100001",
    "0000010001",
    "0000001001",
    "0000000101",
    "0000000011",
    "0000000000",
    "0000000000",
))

REFERENCE_MATRICES = (REFERENCE_D9, REFERENCE_D10_PADDED, REFERENCE_D10_CHAIN)

# coefficient target for the 9 x 9 check: x1x2x4x5x6x7
REFERENCE_D9_WITNESS_MASK = 0b1111011


def reproduce_reference() -> list[SwReport]:
    """Criterion reports for the three bundled reference matrices."""
    return [counterexample_criterion(m) for m in REFERENCE_MATRICES]


def _report(ctx: RingContext) -> SwReport:
    """The report of the matrix of ``ctx``, once w1 vanishes exactly when
    its rows all have even sum: the x_m term of w1 = y_1 + ... + y_d is
    the sum of row m."""
    g = _total_class(ctx, 3)
    w1, w3 = ctx._cut(g, 1, 1), ctx._cut(g, 3, 3)
    if bool(w1) != bool(ctx._odd_row_slots()):
        raise AssertionError("w1 vanishing disagrees with row sums")
    return SwReport(ctx.dim, w1, w3, ctx._square(w3))


def criteria_by_blocks(dim: int, counters: list) -> list[SwReport]:
    """:func:`counterexample_criterion` of the matrices A of orientable
    counters, in input order, computed in the ring of their top-left
    (dim-2) x (dim-2) blocks B, as many at a time as one block context
    stacks (:meth:`RingContext.stack_limit`), one slot each.

    With every row of A even, column dim-2 of A is a linear form U on the
    generators of B and column dim-1 is w1(B) + U, so the total class of
    A is w(B) (1 + U) (1 + w1 + U): w1(A) = 0 and
    w3(A) = w3 + w1 w2 + w1 U (w1 + U), classes of B, which the ring of
    A holds on the same monomials.  So does w3(A)^2, squared by B's
    ladder, as every term of w3(A) lies on the generators of B.  Each
    block takes products by linear forms only.  A counter with a row of
    odd sum raises AssertionError: the row-sum check of every counter
    stands in for the w1 cross-check.  No matrix below dimension 6
    passes the criterion, and a non-empty list there raises ValueError.
    """
    if not counters:
        return []
    if dim < 6:
        raise ValueError(
            f"block re-check needs dimension 6 or more, not {dim}")
    step = RingContext.stack_limit(dim - 2)
    reports = []
    for at in range(0, len(counters), step):
        ctx, last, odd = RingContext._top_left_blocks(
            dim, counters[at:at + step])
        if odd:
            raise AssertionError("a re-checked counter has a row of odd sum")
        g = _total_class(ctx, 3, last)
        w3 = ctx._cut(g, 3, 3)
        reports += [SwReport(dim, w1, w3, w3sq) for w1, w3, w3sq in zip(
            ctx._unstack(ctx._cut(g, 1, 1), dim), ctx._unstack(w3, dim),
            ctx._unstack(ctx._square(w3), dim))]
    return reports
