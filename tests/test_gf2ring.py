"""Polynomial layer: matrix validation, ring axioms, reduction, pairing."""

import random
import re
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottforge.charclass import (criteria_by_blocks, stiefel_whitney,
                                 total_steenrod_square, total_stiefel_whitney)
from bottforge.gf2ring import (
    DENSE_DIM_LIMIT,
    RECHECK_STACK,
    BottMatrix,
    Gf2Poly,
    InvalidMatrixError,
    RingContext,
    basis_masks,
    counter_from_matrix,
    format_monomial,
    make_context,
    matrix_from_counter,
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
    orientable_by_rowsums,
    pairing_rows_to_bits,
    power_by_multiply,
    random_bott_matrix,
    unstack_by_bytes,
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


@pytest.mark.parametrize("entry", [True, False, 1.0, 1 + 0j])
def test_from_entries_rejects_entries_equal_to_a_bit(entry):
    # each compares equal to 0 or 1, but only the ints 0 and 1 are bits
    with pytest.raises(InvalidMatrixError,
                       match=rf"entry \(1, 2\) is {re.escape(repr(entry))}"):
        BottMatrix.from_entries([[0, entry], [0, 0]])


@pytest.mark.parametrize("row", ["0\u0661", "0 ", "0+"])
def test_from_row_strings_takes_only_0_and_1(row):
    # U+0661, ARABIC-INDIC DIGIT ONE, is a digit that int() reads as 1
    with pytest.raises(InvalidMatrixError):
        BottMatrix.from_row_strings([row, "00"])


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


def test_refusal_messages():
    ctx = d9_context()
    for call, error, message in (
            (lambda: parse_monomial("x65"), ValueError,
             "variable index 65 outside 1..64 in 'x65'"),
            (lambda: reduce_exponents(ctx, (1,) * 8), ValueError,
             "expected 9 exponents, got 8"),
            (lambda: reduce_exponents(ctx, (1,) * 8 + (-1,)), ValueError,
             "exponents must be non-negative"),
            (lambda: basis_masks(9, 10), ValueError, "degree 10 outside 0..9"),
            (lambda: make_context([[0]]), TypeError,
             "make_context expects a BottMatrix")):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


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
    """The closed form against the exponent-vector rewriter, up to d=14,
    past DENSE_DIM_LIMIT into the frozenset kernel.  A total degree of at
    most d + 2 makes about half the products nonzero."""
    rng = random.Random(13)
    nonzero = set()
    for _ in range(400):
        d = rng.randint(1, 14)
        m = random_bott_matrix(rng, d)
        ctx = make_context(m)
        supports = tuple(m.column_support(j) for j in range(d))
        exps = [0] * d
        for _ in range(rng.randint(0, d + 2)):
            i = rng.randrange(d)
            exps[i] = min(exps[i] + 1, 3)
        want = naive_reduce(supports, exps)
        got = reduce_exponents(ctx, exps)
        assert got.terms == want, (m.to_row_strings(), exps)
        if want:
            nonzero.add(d > DENSE_DIM_LIMIT)
    assert nonzero == {False, True}


def test_all_cubes_vanish_at_d14():
    """prod x_i^3 has degree 42, above the top degree 14, so it is 0 in
    every ring of dimension 14; the product of the x_i alone is not."""
    full = RingContext(14, (1 << 91) - 1)
    assert reduce_exponents(full, (3,) * 14) == Gf2Poly.zero()
    top = Gf2Poly.from_masks([(1 << 14) - 1])
    assert reduce_exponents(full, (1,) * 14) == top


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


def test_reduce_confluence_with_multiply_chains():
    """The closed form agrees with chains of single-generator products in
    ascending and in descending order, and with the naive rewriter."""
    rng = random.Random(15)
    m = BottMatrix.from_row_strings(D9_ROWS)
    ctx = make_context(m)
    supports = tuple(m.column_support(j) for j in range(9))
    nonzero = 0
    for _ in range(1000):
        exps = tuple(rng.randint(0, 3) for _ in range(9))
        power = reduce_exponents(ctx, exps)
        assert power == power_by_multiply(ctx, exps)
        assert power == power_by_multiply(ctx, exps, descending=True)
        assert power.terms == naive_reduce(supports, exps)
        nonzero += bool(power)
    # 48 at this seed: most draws have degree above 9, where all are 0
    assert nonzero >= 40


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
    """The column supports of a context from a matrix's counter against
    column_support, and a context built from those supports against it."""
    rng = random.Random(1000 + d)
    for _ in range(8):
        m = random_bott_matrix(rng, d, rng.random())
        ctx = make_context(m)
        other = RingContext.from_column_supports(d, _supports(m))
        assert ctx.y_support == other.y_support == tuple(_supports(m))
        assert ctx.yclass == other.yclass
        assert other.entries == counter_from_matrix(m)
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
            rep = ctx._rep(())
            for t in p.terms:
                rep ^= ctx._unit(t)
            assert ctx._wrap(ctx._mul_form(rep, ctx.y_form[k])) == \
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
            assert ctx._wrap(ctx._mul_form(rep, ctx.y_form[k])).terms == \
                naive_multiply(supports, p.terms, y_k)
            assert ctx._wrap(ctx._mul_form(rep, ((k, -1),))).terms == \
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
        assert ctx._mul_form(ctx._unit(low >> 1), ctx.y_form[n]) == \
            ctx._unit(low)
        assert not ctx._mul_form(ctx._unit(low), ctx.y_form[n])
    if d > DENSE_DIM_LIMIT + 1:
        return
    rng = random.Random(600 + d)
    supports = tuple(_supports(m))
    p = Gf2Poly.from_masks(((1 << d) - 1) ^ (1 << rng.randrange(d)) ^
                           (1 << rng.randrange(d)) for _ in range(4))
    rep = ctx._rep(p.terms)
    for k in range(d):
        for form, q in [(ctx.y_form[k], ctx.yclass[k].terms),
                        (((k, -1),), {1 << k})]:
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


def test_stacked_rejects_an_empty_stack():
    """A ring context holds one matrix: the constructor takes one int
    counter and refuses a stack of any size, the empty one and the one of
    a single counter included, and a value that only equals an int."""
    for counter in ([], [0], (5,), [0, 1], 0.0, True, None, "0"):
        with pytest.raises(TypeError, match="single int counter"):
            RingContext(8, counter)
    assert RingContext(8, 5).slots == 1


def test_stacked_takes_at_most_a_full_dense_stack(monkeypatch):
    """Only the block re-check stacks matrices, RECHECK_STACK at most in
    the dense kernel and one in the frozenset kernel, block dimension by
    block dimension: a list one longer than a full stack is re-checked in
    a full stack and a stack of one."""
    for dim in (0, 65):
        with pytest.raises(ValueError, match="outside"):
            RingContext(dim, 0)
    sizes = []
    real = RingContext._top_left_blocks.__func__

    def spy(cls, d, counters):
        sizes.append(len(counters))
        return real(cls, d, counters)
    monkeypatch.setattr(RingContext, "_top_left_blocks", classmethod(spy))
    for dim in (4, 8, DENSE_DIM_LIMIT, DENSE_DIM_LIMIT + 1):
        most = RingContext.stack_limit(dim)
        assert most == (RECHECK_STACK if dim <= DENSE_DIM_LIMIT else 1)
        sizes.clear()
        assert len(criteria_by_blocks(dim + 2, [0] * (most + 1))) == most + 1
        assert sizes == [most, 1]
    assert RingContext.stack_limit(64) == 1


@pytest.mark.parametrize("d", [1, 4, 8, DENSE_DIM_LIMIT + 1, 64])
def test_context_rejects_out_of_range_counters(d):
    """Counters outside 0..2^(d(d-1)/2)-1 are refused, not truncated;
    both ends of the range are accepted."""
    top = (1 << d * (d - 1) // 2) - 1
    assert RingContext(d, 0).entries == 0
    assert RingContext(d, top).entries == top
    for bad in (top + 1, -1, -top - 1, top + 1 << 3):
        with pytest.raises(ValueError, match="outside"):
            RingContext(d, bad)
        if 3 <= d <= DENSE_DIM_LIMIT:
            with pytest.raises(ValueError, match="outside"):
                RingContext._top_left_blocks(d, [0, bad, top])


def _mixed_counters(rng, d, count):
    """Seeded counters of random density: the zero matrix first, then
    every other one with all rows even by its entry (i, i+1)."""
    out = [0]
    for n in range(1, count):
        rows = list(random_bott_matrix(rng, d, rng.random()).rows)
        for i in range(d - 1):
            if n % 2 and rows[i].bit_count() & 1:
                rows[i] ^= 1 << i + 1
        out.append(counter_from_matrix(BottMatrix(d, tuple(rows))))
    return out


def _slot_values(ctx):
    """w1 = y_1 + ... + y_d, its square and its products by y_d and by
    x_d, whose terms sit in the upper half of each slot, in every slot of
    ``ctx``."""
    w1 = ctx._rep(())
    for form in ctx.y_form:
        w1 ^= ctx._mul_form(ctx._unit(0), form)
    return [w1, ctx._square(w1), ctx._mul_form(w1, ctx.y_form[-1]),
            ctx._mul_form(w1, ((ctx.dim - 1, -1),))]


@pytest.mark.parametrize("size", [1, 2, RECHECK_STACK - 1, RECHECK_STACK])
@pytest.mark.parametrize("d", range(6, 15))
def test_slots_round_trip(d, size):
    """The block contexts of d = 6..14, of dimension 4..12: the packed
    counters unstack to the counters, the widest and, from d = 12 on,
    those of 2^64 and more included; seeded stacked values unstack as
    per-slot byte slices do, in slots of 2^(d-2) bits and at least one
    64-bit word: one word up to d = 8, two at d = 9, 2^(d-8) from
    d = 10 on."""
    rng = random.Random(2500 + d + size)
    bits = d * (d - 1) // 2
    counters = [(1 << bits) - 1] + [rng.getrandbits(bits)
                                    for _ in range(size - 1)]
    if size > 1:
        counters[1] = 0
    ctx = RingContext._top_left_blocks(d, counters)[0]
    assert ctx._unstack(ctx.entries) == counters
    if bits > 64:
        assert max(counters) >> 64
    width = max(1 << d - 2, 64)
    assert ctx._width == width
    full = width * size
    values = [rng.getrandbits(full) for _ in range(3)] + [
        1 << full - 1, sum(1 << width * k for k in range(size)),
        (1 << full) - 1]
    for value in values:
        assert ctx._unstack(value) == unstack_by_bytes(value, width, size)


@pytest.mark.parametrize("d,size", [(6, 1), (6, RECHECK_STACK), (9, 37),
                                    (DENSE_DIM_LIMIT + 2, RECHECK_STACK),
                                    (DENSE_DIM_LIMIT + 3, 1), (40, 1)])
def test_top_left_blocks_read_whole_counters(d, size):
    """The block context of d x d counters: per slot, its y supports are
    those of the top-left (d-2) x (d-2) block's own context, the two
    forms are columns d-2 and d-1 above row d-2, and the odd-row slots
    are the matrices failing the row-sum test, the last two rows
    included."""
    rng = random.Random(2700 + d + size)
    counters = _mixed_counters(rng, d, size)
    counters[-1] |= 1 << d * (d - 1) // 2 - 1  # entry (d-2, d-1) alone odd
    ctx, last, odd = RingContext._top_left_blocks(d, counters)
    assert (ctx.dim, ctx.slots) == (d - 2, size)
    matrices = [matrix_from_counter(d, c) for c in counters]
    n = d - 2
    blocks = [counter_from_matrix(BottMatrix(n, tuple(
        row & (1 << n) - 1 for row in m.rows[:n]))) for m in matrices]

    def slot_supports(form):
        out = [0] * size
        for m, sel in form:
            for k, v in enumerate(ctx._unstack(sel)):
                out[k] |= bool(v) << m
        return out
    assert [tuple(s) for s in zip(*map(slot_supports, ctx.y_form))] == \
        [RingContext(n, b).y_support for b in blocks]
    for form, col in zip(last, (n, d - 1)):
        assert slot_supports(form) == [
            m.column_support(col) & (1 << n) - 1 for m in matrices]
    assert [bool(v) for v in ctx._unstack(odd)] == \
        [not orientable_by_rowsums(m) for m in matrices]


@pytest.mark.parametrize("d,size", [(9, 1), (9, 2), (9, 255), (9, 256),
                                    (DENSE_DIM_LIMIT, 256), (13, 1),
                                    (40, 1), (64, 1)])
def test_slot_primitives_match_one_matrix_contexts(d, size):
    """The slot primitives on block stacks of ``size`` d x d counters, in
    slots of one, two and sixteen words, and on blocks alone in a stack of
    one, from the sparse kernel's on, each slot against the one-matrix
    context of its block and the row-sum test: the slots whose matrix has
    an odd row, then w1, w1^2, w1 * y_{d-2} and w1 * x_{d-2} of the block
    (w1 is nonzero exactly where a row of the block is odd), and the
    lowest term and some coefficients of each slot's values, against
    their polynomials."""
    rng = random.Random(1900 + d + size)
    if d <= DENSE_DIM_LIMIT:
        stacks = [_mixed_counters(rng, d, size)]
    else:
        stacks = [[c] for c in _mixed_counters(rng, d, 6)]
    seen = set()
    n = d - 2
    for part in stacks:
        ctx, _, odd = RingContext._top_left_blocks(d, part)
        assert ctx.slots == size <= RingContext.stack_limit(n)
        assert [bool(v) for v in ctx._unstack(odd)] == [
            not orientable_by_rowsums(matrix_from_counter(d, c))
            for c in part]
        blocks = [BottMatrix(n, tuple(row & (1 << n) - 1 for row in
                                      matrix_from_counter(d, c).rows[:n]))
                  for c in part]
        alone = [_slot_values(make_context(b)) for b in blocks]
        values = _slot_values(ctx)
        assert [bool(v) for v in ctx._unstack(values[0])] == \
            [not orientable_by_rowsums(b) for b in blocks]
        for k, value in enumerate(values):
            slots = ctx._unstack(value)
            assert slots == [own[k] for own in alone]
            for v in slots:
                terms = RingContext._wrap(v).terms
                seen.add((k, bool(terms)))
                assert RingContext._lowest(v) == min(terms, default=None)
                probes = sorted(terms)[:6] + [rng.getrandbits(n)
                                              for _ in range(6)]
                assert [RingContext._coefficient(v, m) for m in probes] == \
                    [int(m in terms) for m in probes]
    if size > 2 or d > DENSE_DIM_LIMIT:
        assert {(0, True), (0, False), (1, True), (2, True),
                (3, True)} <= seen


def test_foreign_monomials_are_refused():
    """A caller's polynomial with a monomial on a generator beyond the
    ring's is refused with a ValueError that names that monomial, where it
    would otherwise be read as 0 or index past the y classes."""
    ctx = RingContext(3, 0b111)
    x1 = Gf2Poly.variable(0)
    calls = (("square", lambda p: square(ctx, p)),
             ("multiply", lambda p: multiply(ctx, p, x1)),
             ("multiply", lambda p: multiply(ctx, x1, p)),
             ("total_steenrod_square",
              lambda p: total_steenrod_square(ctx, p)))
    for name, call in calls:
        for foreign in ("x6", "x5", "x4", "x2x7"):
            p = Gf2Poly.from_monomial_strings(["x1x2", foreign])
            with pytest.raises(ValueError,
                               match=f"^{name}: monomial {foreign} "):
                call(p)
    # the ring's own top monomial passes
    x123 = Gf2Poly.from_monomial_strings(["x1x2x3"])
    assert square(ctx, x123) == Gf2Poly.zero()
    assert multiply(ctx, x123, Gf2Poly.one()) == x123


def test_column_supports_reject_bits_on_or_below_the_diagonal():
    """Support j may only use rows below j; a bit at or above j is no
    Bott matrix, and neither is a wrong number of supports."""
    for dim, supports in ((3, [0b100, 0, 0]), (3, [0, 0b10, 0]),
                          (3, [0, 1, 0b100]), (14, [0] * 13 + [1 << 13]),
                          (3, [0, -1, 0])):
        with pytest.raises(InvalidMatrixError, match="diagonal"):
            RingContext.from_column_supports(dim, supports)
    for supports in ([0, 1], [0, 1, 3, 0]):
        with pytest.raises(InvalidMatrixError, match="expected 3"):
            RingContext.from_column_supports(3, supports)
    ctx = RingContext.from_column_supports(3, [0, 1, 0b11])
    assert ctx.y_support == (0, 1, 0b11)


def test_row_strings_match_the_entries():
    """Row strings, from the cached helper that the NDJSON records share,
    against the entries read one by one; the caches are bounded."""
    from bottforge import gf2ring
    rng = random.Random(23)
    for d in (1, 2, 8, 13, 40, 64):
        m = random_bott_matrix(rng, d)
        assert m.to_row_strings() == [
            "".join(str(m.entry(i, j)) for j in range(d)) for i in range(d)]
    assert gf2ring._row_string.cache_info().maxsize is not None
    assert format_monomial.cache_info().maxsize is not None
