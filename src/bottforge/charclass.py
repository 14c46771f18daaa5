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

    Degrees above m are never formed, which keeps the w_1 / w_3 path cheap
    inside the search loop.  The context keeps the partial product after
    each column, so a retargeted context resumes at its first changed
    column.
    """
    rows = ctx._esym.get(m)
    if rows is None:
        rows = ctx._esym[m] = [(ctx._unit(0),) + (ctx._kzero(),) * m]
    g = list(rows[-1])
    for i in range(len(rows) - 1, ctx.dim):
        if ctx.y_support[i]:
            for k in range(m, 0, -1):
                g[k] ^= ctx._mul_y(g[k - 1], i)
        rows.append(tuple(g))
    return g


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
    Sq^m vanishes for m above the degree.
    """
    comps = [ctx._kzero() for _ in range(ctx.dim + 1)]
    for t in p.terms:
        sub = t
        while True:
            comps[sub.bit_count()] ^= ctx._mono_mul(t, sub)
            if sub == 0:
                break
            sub = (sub - 1) & t
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
