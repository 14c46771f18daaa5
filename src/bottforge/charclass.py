"""Stiefel-Whitney classes, Steenrod squares, and the w3-square test.

For the ring of a Bott matrix the total Stiefel-Whitney class factors as a
product of line-bundle classes (1 + y_i), so w_m is the m-th elementary
symmetric polynomial in the y classes.  In particular w_1 = sum y_i and the
manifold is orientable exactly when every row of the matrix has even sum.

The total Steenrod square is determined by Sq(x_i) = x_i + x_i^2 together
with multiplicativity, which on a squarefree monomial x_S expands to the
sum of x_S * x_T over subsets T of S.

A matrix passes the counterexample criterion when its manifold is
orientable and w_3^2 is nonzero; dimensions below 6 never pass because
w_3^2 lives in degree 6.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2ring import (
    BottMatrix,
    Gf2Poly,
    RingContext,
    _bits,
    make_context,
    square,
)


@dataclass(frozen=True)
class SwReport:
    """Outcome of the criterion evaluation for one matrix.

    ``witness`` is the smallest monomial of w3sq in canonical order, present
    exactly when w3sq is nonzero (even if the verdict fails on
    orientability).
    """

    dim: int
    orientable: bool
    w1: Gf2Poly
    w3: Gf2Poly
    w3sq: Gf2Poly
    verdict: bool
    witness: int | None


def _esym_reps(ctx: RingContext, m: int) -> list:
    """Kernel values of e_0(y)..e_m(y) via the product of (1 + y_i).

    Degrees above m are never formed, which keeps the w_1 / w_3 path of
    the criterion cheap.
    """
    g = [ctx._unit(0)] + [ctx._kzero()] * m
    for form in ctx.y_support:
        if form:
            for k in range(m, 0, -1):
                g[k] ^= ctx._mul_form(g[k - 1], form)
    return g


def _lane_times_y(entries, memo: dict, s: int, l: int) -> dict:
    """x_s * y_l as a lane polynomial with coefficient 1 on every lane."""
    out = memo.get((s, l))
    if out is None:
        out = {}
        for k, e in enumerate(entries[l]):
            if not e:
                continue
            if s >> k & 1:
                # x_s * x_k = x_s * y_k, and y_k only involves x_i, i < k
                for t, v in _lane_times_y(entries, memo, s, k).items():
                    out[t] = out.get(t, 0) ^ v & e
            else:
                t = s | 1 << k
                out[t] = out.get(t, 0) ^ e
        memo[s, l] = out
    return out


def w3_square_lanes(dim: int, entries, lanes: int) -> int:
    """Mask of the lanes whose matrix has w3^2 != 0, many matrices at once.

    Bit-sliced (Biham, FSE 1997): ``entries[j][i]``, for i < j, is an int
    whose bit n is entry (i, j) of the matrix in lane n, for ``lanes``
    lanes.  A polynomial is a dict from a monomial mask to the lane int of
    its coefficient, so every int operation below acts on all lanes.  The
    rewrite x_S * y_l is that of the ring context, each coefficient ANDed
    with the entry lanes of column l, and is memoised per (S, l) for the
    call.  w3 = e_3(y) is formed truncated at degree 3, then squared term
    by term, x_S^2 = x_S * prod_{k in S} y_k.  This is a separate route
    from the ring context, which re-checks every hit.
    """
    memo: dict = {}

    def mul_y(p: dict, l: int, acc: dict) -> dict:
        for s, c in p.items():
            for t, v in _lane_times_y(entries, memo, s, l).items():
                acc[t] = acc.get(t, 0) ^ c & v
        return acc

    g = [{0: (1 << lanes) - 1}, {}, {}, {}]
    for i in range(dim):
        if any(entries[i]):
            for k in (3, 2, 1):
                mul_y(g[k - 1], i, g[k])
    w3sq: dict = {}
    for s, c in g[3].items():
        if c:
            p = {s: c}
            for k in _bits(s):
                p = mul_y(p, k, {})
            for t, v in p.items():
                w3sq[t] = w3sq.get(t, 0) ^ v
    out = 0
    for v in w3sq.values():
        out |= v
    return out


def stiefel_whitney(ctx: RingContext, m: int) -> Gf2Poly:
    """w_m of the manifold of ``ctx``: e_m(y_1, ..., y_d), reduced."""
    if not 0 <= m <= ctx.dim:
        raise ValueError(f"degree {m} outside 0..{ctx.dim}")
    return ctx._wrap(_esym_reps(ctx, m)[m])


def total_stiefel_whitney(ctx: RingContext) -> list[Gf2Poly]:
    """All graded parts [w_0, w_1, ..., w_d]."""
    reps = _esym_reps(ctx, ctx.dim)
    return [ctx._wrap(r) for r in reps]


def total_steenrod_square(ctx: RingContext, p: Gf2Poly) -> list[Gf2Poly]:
    """Graded list [Sq^0 p, Sq^1 p, ..., Sq^dim p], applied term by term.

    Sq^m of a monomial x_S is the sum of x_S * x_T over the size-m subsets
    T of S; consequently Sq^0 = id, Sq^{deg} is the Frobenius square and
    Sq^m vanishes for m above the degree.  x_S * x_T is x_S times y_k for
    each k in T, so the products are built up one index of S at a time.
    """
    comps = [ctx._kzero() for _ in range(ctx.dim + 1)]
    for s in p.terms:
        parts = {0: ctx._unit(s)}
        for k in _bits(s):
            parts.update({t | 1 << k: ctx._mul_form(part, ctx.y_support[k])
                          for t, part in parts.items()})
        for t, part in parts.items():
            comps[t.bit_count()] ^= part
    return [ctx._wrap(c) for c in comps]


def orientable_by_rowsums(matrix: BottMatrix) -> bool:
    """Orientability test straight off the matrix: every row sum even."""
    return all(r.bit_count() % 2 == 0 for r in matrix.rows)


def counterexample_criterion(matrix: BottMatrix) -> SwReport:
    """Evaluate orientability and w_3^2 for one matrix.

    The verdict is true exactly when w_1 = 0 and w_3^2 != 0.  The w_1
    computation is cross-checked against the row-sum test.
    """
    ctx = make_context(matrix)
    reps = _esym_reps(ctx, 3)
    w1 = ctx._wrap(reps[1])
    w3 = ctx._wrap(reps[3])
    w3sq = square(ctx, w3)
    orientable = not w1
    if orientable != orientable_by_rowsums(matrix):
        raise AssertionError("w1 vanishing disagrees with row sums")
    witness = None
    if w3sq:
        witness = min(w3sq.terms, key=lambda m: (m.bit_count(), m))
    return SwReport(
        dim=matrix.dim,
        orientable=orientable,
        w1=w1,
        w3=w3,
        w3sq=w3sq,
        verdict=orientable and bool(w3sq),
        witness=witness,
    )
