"""Polynomial layer: matrix validation, ring axioms, reduction, pairing."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottforge.charclass import stiefel_whitney, total_stiefel_whitney
from bottforge.gf2ring import (
    DENSE_DIM_LIMIT,
    BottMatrix,
    Gf2Poly,
    InvalidMatrixError,
    RingContext,
    basis_masks,
    format_monomial,
    make_context,
    multiply,
    pairing_matrix,
    parse_monomial,
    reduce_exponents,
    relation_strings,
    square,
)

from helpers import (
    gf2_rank,
    naive_multiply,
    naive_reduce,
    pairing_rows_to_bits,
    random_bott_matrix,
)

D9_ROWS = [
    "010000001",
    "001000001",
    "000100001",
    "000010001",
    "000001001",
    "000000101",
    "000000011",
    "000000000",
    "000000000",
]


def d9_context():
    return make_context(BottMatrix.from_row_strings(D9_ROWS))


# ---------------------------------------------------------------- matrices

def test_from_entries_accepts_strict_upper_triangular():
    m = BottMatrix.from_entries([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert m.dim == 3
    assert m.entry(0, 1) == 1 and m.entry(1, 2) == 1 and m.entry(0, 2) == 0


def test_from_entries_rejects_nonbinary_entry():
    with pytest.raises(InvalidMatrixError, match=r"entry \(1, 3\) is 2"):
        BottMatrix.from_entries([[0, 0, 2], [0, 0, 0], [0, 0, 0]])


def test_from_entries_rejects_lower_triangle():
    with pytest.raises(InvalidMatrixError, match=r"\(3, 1\)"):
        BottMatrix.from_entries([[0, 0, 0], [0, 0, 0], [1, 0, 0]])


def test_from_entries_rejects_diagonal():
    with pytest.raises(InvalidMatrixError, match=r"\(2, 2\)"):
        BottMatrix.from_entries([[0, 1], [0, 1]])


def test_from_entries_rejects_ragged_and_empty():
    with pytest.raises(InvalidMatrixError):
        BottMatrix.from_entries([[0, 1], [0]])
    with pytest.raises(InvalidMatrixError):
        BottMatrix.from_entries([])


def test_dimension_bounds():
    assert BottMatrix.zero(1).dim == 1
    assert BottMatrix.zero(64).dim == 64
    with pytest.raises(InvalidMatrixError):
        BottMatrix.zero(0)
    with pytest.raises(InvalidMatrixError):
        BottMatrix.zero(65)


def test_row_strings_roundtrip():
    m = BottMatrix.from_row_strings(D9_ROWS)
    assert m.to_row_strings() == D9_ROWS
    assert BottMatrix.from_row_strings(m.to_row_strings()) == m


def test_column_support_matches_entries():
    m = BottMatrix.from_row_strings(D9_ROWS)
    for j in range(9):
        sup = m.column_support(j)
        for i in range(9):
            assert bool(sup >> i & 1) == (m.entry(i, j) == 1)


# ------------------------------------------------------------- monomial io

def test_format_monomial():
    assert format_monomial(0) == "1"
    assert format_monomial(0b1) == "x1"
    assert format_monomial(0b1011) == "x1x2x4"


def test_parse_monomial_roundtrip():
    for mask in (0, 1, 0b1011, 0b1111011, 1 << 63):
        assert parse_monomial(format_monomial(mask)) == mask


def test_parse_monomial_rejects_garbage():
    for bad in ("", "x0", "y1", "x1x1", "x1 x2", "2"):
        with pytest.raises(ValueError):
            parse_monomial(bad)


def test_poly_string_canonical_order():
    p = Gf2Poly.from_masks([0b110, 0b1, 0b11])
    assert str(p) == "x1 + x1x2 + x2x3"
    assert str(Gf2Poly.zero()) == "0"


# ------------------------------------------------------------- ring axioms

masks9 = st.integers(min_value=0, max_value=(1 << 9) - 1)
polys9 = st.frozensets(masks9, max_size=6).map(Gf2Poly)


@given(polys9, polys9)
def test_add_commutes(p, q):
    assert p + q == q + p


@given(polys9)
def test_add_self_cancels(p):
    assert p + p == Gf2Poly.zero()
    assert p + Gf2Poly.zero() == p


def test_add_cancellation_example():
    x1 = Gf2Poly.variable(0)
    x2 = Gf2Poly.variable(1)
    assert x1 + (x1 + x2) == x2


@settings(max_examples=50, deadline=None)
@given(polys9, polys9, polys9, st.randoms(use_true_random=False))
def test_multiply_ring_axioms(p, q, r, hyp_random):
    ctx = make_context(random_bott_matrix(hyp_random, 9))
    assert multiply(ctx, p, q) == multiply(ctx, q, p)
    assert multiply(ctx, multiply(ctx, p, q), r) == multiply(ctx, p, multiply(ctx, q, r))
    assert multiply(ctx, p, q + r) == \
        multiply(ctx, p, q) + multiply(ctx, p, r)


@settings(max_examples=50, deadline=None)
@given(polys9, polys9, st.randoms(use_true_random=False))
def test_frobenius_additivity(p, q, hyp_random):
    ctx = make_context(random_bott_matrix(hyp_random, 9))
    assert square(ctx, p + q) == square(ctx, p) + square(ctx, q)
    assert square(ctx, p) == multiply(ctx, p, p)


def test_squarefree_monomials_fixed_points():
    ctx = d9_context()
    rng = random.Random(11)
    one = Gf2Poly.one()
    for _ in range(50):
        mask = rng.randrange(1 << 9)
        assert multiply(ctx, Gf2Poly.from_masks([mask]), one) == Gf2Poly.from_masks([mask])


def test_disjoint_monomials_multiply_to_union():
    ctx = d9_context()
    rng = random.Random(12)
    for _ in range(100):
        a = rng.randrange(1 << 9)
        b = rng.randrange(1 << 9) & ~a
        prod = multiply(ctx, Gf2Poly.from_masks([a]), Gf2Poly.from_masks([b]))
        assert prod == Gf2Poly.from_masks([a | b])


# ------------------------------------------------------- reduction oracle

def test_reduce_against_naive_rewriter():
    rng = random.Random(13)
    for _ in range(60):
        d = rng.randint(1, 7)
        m = random_bott_matrix(rng, d)
        ctx = make_context(m)
        supports = tuple(m.column_support(j) for j in range(d))
        exps = tuple(rng.randint(0, 3) for _ in range(d))
        got = reduce_exponents(ctx, exps)
        want = naive_reduce(supports, exps)
        assert got.terms == want, (m.to_row_strings(), exps)


def test_multiply_against_naive_rewriter():
    rng = random.Random(14)
    for _ in range(40):
        d = rng.randint(1, 6)
        m = random_bott_matrix(rng, d)
        ctx = make_context(m)
        supports = tuple(m.column_support(j) for j in range(d))
        pa = frozenset(rng.randrange(1 << d) for _ in range(3))
        pb = frozenset(rng.randrange(1 << d) for _ in range(3))
        got = multiply(ctx, Gf2Poly(pa), Gf2Poly(pb))
        assert got.terms == naive_multiply(supports, pa, pb)


def test_reduce_confluence_both_strategies():
    rng = random.Random(15)
    ctx = d9_context()
    for _ in range(1000):
        exps = tuple(rng.randint(0, 3) for _ in range(9))
        hi = reduce_exponents(ctx, exps, strategy="highest")
        lo = reduce_exponents(ctx, exps, strategy="lowest")
        assert hi == lo


def test_reduce_rejects_unknown_strategy():
    ctx = d9_context()
    with pytest.raises(ValueError):
        reduce_exponents(ctx, (0,) * 9, strategy="sideways")


def test_d9_square_reductions():
    ctx = d9_context()
    assert reduce_exponents(ctx, (2, 0, 0, 0, 0, 0, 0, 0, 0)) == Gf2Poly.zero()
    x9sq = reduce_exponents(ctx, (0, 0, 0, 0, 0, 0, 0, 0, 2))
    assert x9sq.monomial_strings() == [
        "x1x9", "x2x9", "x3x9", "x4x9", "x5x9", "x6x9", "x7x9"]


def test_d9_relation_strings():
    ctx = d9_context()
    assert relation_strings(ctx) == [
        "x1^2 = 0",
        "x2^2 = x1x2",
        "x3^2 = x2x3",
        "x4^2 = x3x4",
        "x5^2 = x4x5",
        "x6^2 = x5x6",
        "x7^2 = x6x7",
        "x8^2 = x7x8",
        "x9^2 = x1x9 + x2x9 + x3x9 + x4x9 + x5x9 + x6x9 + x7x9",
    ]


def test_d9_y_classes():
    ctx = d9_context()
    assert [str(y) for y in ctx.yclass] == [
        "0", "x1", "x2", "x3", "x4", "x5", "x6", "x7",
        "x1 + x2 + x3 + x4 + x5 + x6 + x7"]


def _supports(m: BottMatrix) -> list[int]:
    return [m.column_support(j) for j in range(m.dim)]


@pytest.mark.parametrize("d", [6, 9, DENSE_DIM_LIMIT + 1, DENSE_DIM_LIMIT + 2])
def test_context_constructors_agree(d):
    """The matrix constructor's one-pass column supports against
    column_support, and a context built from those supports against it."""
    rng = random.Random(1000 + d)
    for _ in range(8):
        m = random_bott_matrix(rng, d, rng.random())
        ctx = make_context(m)
        other = RingContext.from_column_supports(d, _supports(m))
        assert ctx.y_support == other.y_support == tuple(_supports(m))
        assert ctx.yclass == other.yclass
        assert other.matrix == m
        w3 = stiefel_whitney(ctx, 3)
        assert w3 == stiefel_whitney(other, 3)
        assert square(ctx, w3) == square(other, w3)
        p = Gf2Poly.from_masks(rng.getrandbits(d) for _ in range(4))
        q = Gf2Poly.from_masks(rng.getrandbits(d) for _ in range(4))
        assert multiply(ctx, p, q) == multiply(other, p, q)
        assert total_stiefel_whitney(ctx) == total_stiefel_whitney(other)


@pytest.mark.parametrize("d", [9, DENSE_DIM_LIMIT + 1])
def test_mul_y_matches_multiply(d):
    """The kernel's product by y_k against multiply on a fresh context, on
    both kernels."""
    rng = random.Random(77 + d)
    for _ in range(4):
        m = random_bott_matrix(rng, d)
        ctx = make_context(m)
        for k in range(d):
            p = Gf2Poly.from_masks(rng.getrandbits(d) for _ in range(5))
            rep = ctx._kzero()
            for t in p.terms:
                rep ^= ctx._unit(t)
            assert ctx._wrap(ctx._mul_form(rep, ctx.y_support[k])) == \
                multiply(make_context(m), p, ctx.yclass[k])


def _full_matrix(d: int) -> BottMatrix:
    """Every entry above the diagonal is 1: y_l involves every x_m, m < l,
    so the terms owed by a held set chain deepest."""
    return BottMatrix(d, tuple(((1 << d) - 1) & -(2 << i) for i in range(d)))


def _low_degree_poly(rng, d: int, size: int) -> Gf2Poly:
    """Terms of degree up to d/3, so that products and squares rarely
    vanish."""
    return Gf2Poly.from_masks(
        sum(1 << i for i in rng.sample(range(d), rng.randint(1, d // 3)))
        for _ in range(size))


@pytest.mark.parametrize("d", [6, DENSE_DIM_LIMIT, DENSE_DIM_LIMIT + 1,
                               DENSE_DIM_LIMIT + 2])
def test_whole_set_rewrite_against_naive_rewriter(d):
    """Products by y_k and by x_k, multiply and square against the
    exponent-vector rewriter on the last dense and the first sparse sizes."""
    rng = random.Random(400 + d)
    matrices = [_full_matrix(d)] + [random_bott_matrix(rng, d, rng.random())
                                    for _ in range(3)]
    for m in matrices:
        ctx = make_context(m)
        assert ctx._dense == (d <= DENSE_DIM_LIMIT)
        supports = tuple(_supports(m))
        p, q = _low_degree_poly(rng, d, 3), _low_degree_poly(rng, d, 3)
        rep = ctx._rep(p.terms)
        for k in rng.sample(range(d), 4):
            y_k = {1 << i for i in range(d) if supports[k] >> i & 1}
            assert ctx._wrap(ctx._mul_form(rep, ctx.y_support[k])).terms == \
                naive_multiply(supports, p.terms, y_k)
            assert ctx._wrap(ctx._mul_form(rep, 1 << k)).terms == \
                naive_multiply(supports, p.terms, {1 << k})
        assert multiply(ctx, p, q).terms == \
            naive_multiply(supports, p.terms, q.terms)
        assert square(ctx, p).terms == naive_multiply(supports, p.terms, p.terms)


@pytest.mark.parametrize("d", [DENSE_DIM_LIMIT, DENSE_DIM_LIMIT + 1, 40])
def test_high_degree_terms_on_the_full_matrix(d):
    """x_0...x_{n-1} * y_n vanishes on the full matrix: each x_l, l < n, is
    held and owes x_S * y_l, whose generators are all held again, down to
    y_0 = 0, along 2^(n-1) chains.  Settled one index at a time this is
    n^2 steps, even at n = 39; followed chain by chain it would be 2^38.
    Terms missing at most two generators against the exponent-vector
    rewriter where it is quick."""
    m = _full_matrix(d)
    ctx = make_context(m)
    for n in range(1, d):
        low = (1 << n) - 1
        assert ctx._mul_form(ctx._unit(low >> 1), ctx.y_support[n]) == \
            ctx._unit(low)
        assert not ctx._mul_form(ctx._unit(low), ctx.y_support[n])
    if d > DENSE_DIM_LIMIT + 1:
        return
    rng = random.Random(600 + d)
    supports = tuple(_supports(m))
    p = Gf2Poly.from_masks(((1 << d) - 1) ^ (1 << rng.randrange(d)) ^
                           (1 << rng.randrange(d)) for _ in range(4))
    rep = ctx._rep(p.terms)
    for k in range(d):
        for form, q in [(ctx.y_support[k], ctx.yclass[k].terms),
                        (1 << k, {1 << k})]:
            assert ctx._wrap(ctx._mul_form(rep, form)).terms == \
                naive_multiply(supports, p.terms, q)


@pytest.mark.parametrize("d", [9, DENSE_DIM_LIMIT + 2])
def test_square_is_self_product(d):
    rng = random.Random(500 + d)
    for m in [_full_matrix(d), random_bott_matrix(rng, d)]:
        ctx = make_context(m)
        for size in (1, 5, 20):
            p = _low_degree_poly(rng, d, size)
            assert square(ctx, p) == multiply(ctx, p, p)


def test_zero_matrix_y_classes_vanish():
    for d in (1, 3, 8):
        ctx = make_context(BottMatrix.zero(d))
        assert all(not y for y in ctx.yclass)
        assert reduce_exponents(ctx, (2,) + (0,) * (d - 1)) == Gf2Poly.zero()


def test_d9_product_example():
    ctx = d9_context()
    x2x7 = Gf2Poly.from_monomial_strings(["x2x7"])
    s = Gf2Poly.from_monomial_strings(["x1", "x2", "x3", "x4", "x5"])
    prod = multiply(ctx, x2x7, s)
    assert prod.monomial_strings() == ["x2x3x7", "x2x4x7", "x2x5x7"]


# --------------------------------------------------- dense/sparse agreement

def test_kernel_switchover_consistency():
    """d=12 uses the dense kernel, d=13 the sparse one; embedding a d=12
    matrix into 13 variables must not change any product."""
    rng = random.Random(16)
    for _ in range(10):
        m12 = random_bott_matrix(rng, 12)
        m13 = BottMatrix(13, tuple(r << 0 for r in m12.rows) + (0,))
        c12, c13 = make_context(m12), make_context(m13)
        assert c12._dense and not c13._dense
        for _ in range(5):
            a = rng.randrange(1 << 12)
            b = rng.randrange(1 << 12)
            pa, pb = Gf2Poly.from_masks([a]), Gf2Poly.from_masks([b])
            assert multiply(c12, pa, pb) == multiply(c13, pa, pb)


# ----------------------------------------------------------------- pairing

def test_basis_masks_counts_and_order():
    for d in range(1, 9):
        total = 0
        for k in range(d + 1):
            masks = basis_masks(d, k)
            assert len(masks) == comb(d, k)
            assert all(m.bit_count() == k for m in masks)
            assert masks == sorted(masks)
            total += len(masks)
        assert total == 1 << d


def test_pairing_complementary_entries_are_one():
    rng = random.Random(17)
    for _ in range(20):
        d = rng.randint(1, 7)
        ctx = make_context(random_bott_matrix(rng, d))
        k = rng.randint(0, d)
        rowm = basis_masks(d, k)
        colm = basis_masks(d, d - k)
        table = pairing_matrix(ctx, k)
        top = (1 << d) - 1
        for i, s in enumerate(rowm):
            j = colm.index(top ^ s)
            assert table[i][j] == 1


def test_pairing_zero_matrix_is_permutation():
    for d in (2, 4, 6):
        ctx = make_context(BottMatrix.zero(d))
        for k in range(d + 1):
            table = pairing_matrix(ctx, k)
            for row in table:
                assert sum(row) == 1
            for col in zip(*table):
                assert sum(col) == 1


def test_pairing_full_rank_random():
    rng = random.Random(18)
    for _ in range(60):
        d = rng.randint(1, 8)
        ctx = make_context(random_bott_matrix(rng, d))
        for k in range(d + 1):
            table = pairing_matrix(ctx, k)
            n = len(table)
            assert gf2_rank(pairing_rows_to_bits(table), n) == n


def test_products_preserve_grading():
    """The rewrite x_k^2 -> x_k y_k keeps total degree, so a product of
    degree-p and degree-q monomials reduces to degree-(p+q) terms (or to
    zero past the top degree).  With full pairing rank this pins the
    squarefree monomials as a graded basis."""
    rng = random.Random(19)
    for _ in range(100):
        d = rng.randint(2, 8)
        ctx = make_context(random_bott_matrix(rng, d))
        a = rng.randrange(1 << d)
        b = rng.randrange(1 << d)
        deg = a.bit_count() + b.bit_count()
        prod = multiply(ctx, Gf2Poly.from_masks([a]), Gf2Poly.from_masks([b]))
        if deg > d:
            assert prod == Gf2Poly.zero()
        else:
            assert all(t.bit_count() == deg for t in prod.terms)
