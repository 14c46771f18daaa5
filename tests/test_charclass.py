"""Characteristic classes, Steenrod squares, and the criterion."""

import inspect
import pickle
import random
from itertools import combinations

import pytest

from bottforge import charclass
from bottforge.charclass import (
    SwReport,
    _report,
    _total_class,
    counterexample_criterion,
    criteria_by_blocks,
    stiefel_whitney,
    total_steenrod_square,
    total_stiefel_whitney,
    w3_square_lanes,
)
from bottforge.gf2ring import (
    DENSE_DIM_LIMIT,
    RECHECK_STACK,
    BottMatrix,
    Gf2Poly,
    RingContext,
    _degree_mask,
    _free_slots,
    counter_from_matrix,
    format_monomial,
    make_context,
    matrix_from_counter,
    multiply,
    parse_monomial,
    square,
)

from bottforge.charclass import REFERENCE_MATRICES

from helpers import orientable_by_rowsums, random_bott_matrix

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
D9_WITNESS = parse_monomial("x1x2x4x5x6x7")


def d9_context():
    return make_context(BottMatrix.from_row_strings(D9_ROWS))


def poly_sum(polys):
    out = Gf2Poly.zero()
    for p in polys:
        out = out + p
    return out


# -------------------------------------------------------- Stiefel-Whitney

def test_w_bounds():
    ctx = d9_context()
    with pytest.raises(ValueError):
        stiefel_whitney(ctx, -1)
    with pytest.raises(ValueError):
        stiefel_whitney(ctx, 10)
    assert stiefel_whitney(ctx, 0) == Gf2Poly.one()


def test_zero_matrix_classes_vanish():
    for d in (1, 4, 9):
        ctx = make_context(BottMatrix.zero(d))
        for m in range(1, d + 1):
            assert stiefel_whitney(ctx, m) == Gf2Poly.zero()


def test_d9_w1_vanishes():
    assert stiefel_whitney(d9_context(), 1) == Gf2Poly.zero()


def test_total_class_agrees_with_product_expansion():
    """Direct product of (1 + y_i), fully expanded, graded by degree, up to
    the last dense and the first sparse sizes."""
    rng = random.Random(21)
    dims = [rng.randint(1, 7) for _ in range(30)] + [
        DENSE_DIM_LIMIT, DENSE_DIM_LIMIT + 1, DENSE_DIM_LIMIT + 2]
    for d in dims:
        ctx = make_context(random_bott_matrix(rng, d))
        prod = Gf2Poly.one()
        for y in ctx.yclass:
            prod = multiply(ctx, prod, Gf2Poly.one() + y)
        total = total_stiefel_whitney(ctx)
        assert poly_sum(total) == prod
        for m in range(d + 1):
            assert total[m] == prod.component(m)
            assert total[m] == stiefel_whitney(ctx, m)


def test_d9_intermediate_product_identities():
    """The collected triple products in terms of the x generators."""
    ctx = d9_context()
    y = ctx.yclass
    x = [Gf2Poly.variable(i) for i in range(9)]
    for i in range(2, 8):
        for j in range(i + 1, 8):
            lhs = multiply(ctx, multiply(ctx, y[i - 1], y[j - 1]),
                           poly_sum(y[j:9]))
            rhs = multiply(ctx, multiply(ctx, x[i - 2], x[j - 2]),
                           poly_sum(x[0:j - 1]))
            assert lhs == rhs
            assert all(not t >> 6 & 1 for t in lhs.terms)  # no x7 factor
    for i in range(2, 8):
        lhs = multiply(ctx, multiply(ctx, y[i - 1], y[7]), y[8])
        rhs = multiply(ctx, multiply(ctx, x[i - 2], x[6]), poly_sum(x[0:5]))
        assert lhs == rhs


def test_w3_square_equals_triple_square_sum():
    """Cross terms of (sum y_i y_j y_k)^2 cancel in characteristic 2."""
    rng = random.Random(22)
    for _ in range(15):
        d = rng.randint(3, 7)
        ctx = make_context(random_bott_matrix(rng, d))
        w3 = stiefel_whitney(ctx, 3)
        acc = Gf2Poly.zero()
        for i, j, k in combinations(range(d), 3):
            t = multiply(ctx, multiply(ctx, ctx.yclass[i], ctx.yclass[j]),
                         ctx.yclass[k])
            acc = acc + square(ctx, t)
        assert acc == square(ctx, w3)


def test_d9_witness_coefficient_by_triple_expansion():
    """Independent count of triples contributing the witness monomial.

    Frozen from the brute-force expansion over all C(9,3) = 84 triple
    products: seven triples contribute, so the coefficient is 1.
    """
    ctx = d9_context()
    y = ctx.yclass
    contributing = []
    for t in combinations(range(9), 3):
        prod = multiply(ctx, multiply(ctx, y[t[0]], y[t[1]]), y[t[2]])
        if D9_WITNESS in square(ctx, prod).terms:
            contributing.append(tuple(i + 1 for i in t))
    assert contributing == [
        (3, 6, 8), (3, 6, 9), (3, 7, 8), (3, 7, 9), (3, 8, 9),
        (6, 8, 9), (7, 8, 9)]
    assert len(contributing) % 2 == 1
    w3sq = square(ctx, stiefel_whitney(ctx, 3))
    assert D9_WITNESS in w3sq.terms


def test_d9_w3_square_frozen_value():
    ctx = d9_context()
    w3 = stiefel_whitney(ctx, 3)
    assert len(w3) == 25
    w3sq = square(ctx, w3)
    assert w3sq.monomial_strings() == ["x1x2x3x4x6x7", "x1x2x4x5x6x7"]


# ---------------------------------------------------------------- Steenrod

def test_sq_zero_is_identity_and_top_is_square():
    rng = random.Random(23)
    for _ in range(30):
        d = rng.randint(1, 8)
        ctx = make_context(random_bott_matrix(rng, d))
        mask = rng.randrange(1, 1 << d)
        p = Gf2Poly.from_masks([mask])
        comps = total_steenrod_square(ctx, p)
        k = mask.bit_count()
        assert comps[0] == p
        assert comps[k] == square(ctx, p)
        for m in range(k + 1, d + 1):
            assert comps[m] == Gf2Poly.zero()


def test_sq1_x1_vanishes_on_d9():
    ctx = d9_context()
    comps = total_steenrod_square(ctx, Gf2Poly.variable(0))
    assert comps[1] == Gf2Poly.zero()


def test_sq_is_multiplicative():
    """Total square of a product is the product of total squares."""
    rng = random.Random(24)
    for _ in range(25):
        d = rng.randint(2, 7)
        ctx = make_context(random_bott_matrix(rng, d))
        p = Gf2Poly(frozenset(rng.randrange(1 << d) for _ in range(2)))
        q = Gf2Poly(frozenset(rng.randrange(1 << d) for _ in range(2)))
        left = total_steenrod_square(ctx, multiply(ctx, p, q))
        sp = total_steenrod_square(ctx, p)
        sq_ = total_steenrod_square(ctx, q)
        for m in range(d + 1):
            acc = Gf2Poly.zero()
            for a in range(m + 1):
                acc = acc + multiply(ctx, sp[a], sq_[m - a])
            assert left[m] == acc


def test_sq3_w3_is_w3_squared():
    rng = random.Random(25)
    checked = 0
    while checked < 100:
        d = rng.randint(3, 9)
        ctx = make_context(random_bott_matrix(rng, d))
        w3 = stiefel_whitney(ctx, 3)
        comps = total_steenrod_square(ctx, w3)
        assert comps[3] == square(ctx, w3)
        checked += 1


# --------------------------------------------------------------- criterion

def test_orientability_examples():
    assert orientable_by_rowsums(BottMatrix.from_row_strings(D9_ROWS))
    single = BottMatrix.from_entries([[0, 1], [0, 0]])
    assert not orientable_by_rowsums(single)


def test_orientability_agrees_with_w1():
    rng = random.Random(26)
    for _ in range(2000):
        d = rng.randint(1, 10)
        m = random_bott_matrix(rng, d)
        ctx = make_context(m)
        assert orientable_by_rowsums(m) == (not stiefel_whitney(ctx, 1))


def test_criterion_d9_report():
    report = counterexample_criterion(BottMatrix.from_row_strings(D9_ROWS))
    assert report.dim == 9
    assert report.orientable
    assert not report.w1
    assert len(report.w3) == 25
    assert bool(report.w3sq)
    assert report.verdict
    assert report.witness == parse_monomial("x1x2x3x4x6x7")
    assert format_monomial(report.witness) == min(
        report.w3sq.monomial_strings(), key=lambda s: (len(s), s))


def test_criterion_zero_matrix_false():
    for d in (1, 2, 5, 9):
        report = counterexample_criterion(BottMatrix.zero(d))
        assert not report.verdict
        assert report.orientable
        assert report.w3sq == Gf2Poly.zero()
        assert report.witness is None


def test_criterion_false_below_dimension_six():
    rng = random.Random(27)
    for _ in range(300):
        d = rng.randint(1, 5)
        report = counterexample_criterion(random_bott_matrix(rng, d))
        assert not report.verdict


def test_criterion_records_w3sq_when_non_orientable():
    """Reports still carry w3sq for non-orientable matrices, with a false
    verdict."""
    rng = random.Random(28)
    seen = False
    for _ in range(200):
        m = random_bott_matrix(rng, 8)
        report = counterexample_criterion(m)
        if not report.orientable:
            assert not report.verdict
            if report.w3sq:
                assert report.witness in report.w3sq.terms
                seen = True
    assert seen


def test_witness_is_smallest_term_and_coefficient_one():
    rng = random.Random(29)
    found = 0
    while found < 10:
        m = random_bott_matrix(rng, 8)
        report = counterexample_criterion(m)
        if not report.verdict:
            continue
        found += 1
        terms = sorted(report.w3sq.terms, key=lambda t: (t.bit_count(), t))
        assert report.witness == terms[0]
        # re-extract the coefficient through an independent product
        w3 = stiefel_whitney(make_context(m), 3)
        assert report.witness in multiply(make_context(m), w3, w3).terms


# ------------------------------------------------------- stacked criterion

def _criterion_by_square(m):
    """The criterion on a fresh context of m alone, w3^2 by
    :func:`square` on the polynomial w3."""
    ctx = make_context(m)
    w1, w3 = stiefel_whitney(ctx, 1), stiefel_whitney(ctx, 3)
    w3sq = square(ctx, w3)
    witness = min(w3sq.terms, key=lambda t: (t.bit_count(), t), default=None)
    return (not w1, w1, w3, w3sq, not w1 and bool(w3sq), witness)


def _report_tuple(r):
    return (r.orientable, r.w1, r.w3, r.w3sq, r.verdict, r.witness)


def _mixed_stack(rng, d, count):
    """Matrices of random density, every other one made orientable, with
    some zero columns and the zero matrix."""
    stack = [BottMatrix.zero(d)]
    for n in range(1, count):
        m = random_bott_matrix(rng, d, rng.random())
        if n % 2:
            m = _even_rows(m)
        if n % 3 == 0:
            j = rng.randrange(d)
            m = BottMatrix(d, tuple(r & ~(1 << j) for r in m.rows))
        stack.append(m)
    return stack


def _blocks(matrices):
    """The block re-check of ``matrices``, which share one dimension."""
    return criteria_by_blocks(matrices[0].dim,
                              [counter_from_matrix(m) for m in matrices])


@pytest.mark.parametrize("d", range(6, DENSE_DIM_LIMIT + 3))
def test_stacked_criteria_match_square_route(d):
    """Each matrix of a mixed list against gf2ring.square on its own
    context, and each slot of a block stack of its orientable matrices, in
    input order: the whole stack, a permutation of it, a stack of one;
    from d=13 on, one sparse context per matrix."""
    rng = random.Random(700 + d)
    stack = _mixed_stack(rng, d, 40 if d <= DENSE_DIM_LIMIT else 6)
    expected = [_criterion_by_square(m) for m in stack]
    assert [_report_tuple(counterexample_criterion(m)) for m in stack] == \
        expected
    even = [n for n, m in enumerate(stack) if orientable_by_rowsums(m)]
    rng.shuffle(order := list(even))
    for part in (even, order, even[:1], even[-1:]):
        assert [_report_tuple(r) for r in _blocks(
            [stack[n] for n in part])] == [expected[n] for n in part]
    if d >= 8:
        assert any(e[4] for e in expected) and not all(e[0] for e in expected)


def test_stacked_criteria_reference_matrices():
    """The reference matrices, alone and in a block stack with copies of
    themselves and the zero matrix, against gf2ring.square."""
    for m in REFERENCE_MATRICES:
        expected = _criterion_by_square(m)
        assert expected[4]
        assert _report_tuple(counterexample_criterion(m)) == expected
        stack = [m, BottMatrix.zero(m.dim), m]
        got = [_report_tuple(r) for r in _blocks(stack)]
        assert got[0] == got[2] == expected
        assert got[1] == _criterion_by_square(BottMatrix.zero(m.dim))


@pytest.mark.parametrize("d", [6, 9, DENSE_DIM_LIMIT, DENSE_DIM_LIMIT + 1,
                               DENSE_DIM_LIMIT + 2])
def test_stacked_reports_build_polynomials_when_read(d):
    """A report keeps the kernel values of its matrix, ints in the dense
    kernel and frozensets in the sparse one, and builds w1, w3 and w3sq
    as polynomials when they are read; they, the witness and
    ``w3sq_nonzero`` agree with gf2ring.square.  The block re-check keeps
    the kernel of the whole matrix, whatever the kernel of its blocks."""
    rng = random.Random(800 + d)
    stack = _mixed_stack(rng, d, 40 if d <= DENSE_DIM_LIMIT else 6)
    kind = int if d <= DENSE_DIM_LIMIT else frozenset
    even = [m for m in stack if orientable_by_rowsums(m)]
    for m, r in [(m, counterexample_criterion(m)) for m in stack] + \
            list(zip(even, _blocks(even))):
        assert {type(r._w1), type(r._w3), type(r._w3sq)} == {kind}
        assert all(isinstance(p, Gf2Poly) for p in (r.w1, r.w3, r.w3sq))
        expected = _criterion_by_square(m)
        assert _report_tuple(r) == expected
        assert r.w3sq_nonzero is bool(expected[3])
        assert r.orientable is orientable_by_rowsums(m)


def _with_classes(report, **classes):
    """A copy of ``report`` with some classes replaced, built by keyword."""
    fields = {"dim": report.dim, "_w1": report._w1, "_w3": report._w3,
              "_w3sq": report._w3sq}
    return SwReport(**{**fields, **classes})


def test_report_replace_keeps_the_classes():
    """A report rebuilt with one class changed keeps the others, and its
    flags follow the classes it holds, so it cannot contradict them: a
    zero w3sq takes the verdict and the witness, an odd w1 the
    orientability and the verdict."""
    report = counterexample_criterion(REFERENCE_MATRICES[0])
    flat = _with_classes(report, _w3sq=0)
    assert report.verdict and not flat.verdict
    assert (flat.orientable, flat.w3sq_nonzero, flat.witness) == \
        (True, False, None)
    assert (flat.w1, flat.w3) == (report.w1, report.w3)
    assert flat != report
    assert _with_classes(flat, _w3sq=report._w3sq) == report
    odd_w1 = counterexample_criterion(BottMatrix(9, (2,) + (0,) * 8))._w1
    odd = _with_classes(report, _w1=odd_w1)
    assert odd.w1 == Gf2Poly.variable(0)
    assert (odd.orientable, odd.verdict) == (False, False)
    assert (odd.w3sq, odd.witness) == (report.w3sq, report.witness)


def test_report_record_semantics():
    """Reports are compared and hashed by value, so equal reports built
    apart dedupe in a set; the fields are the dimension and the three
    classes, in the slots and the constructor alike, the repr names the
    flags and not the kernel values, and a copy built by keyword and a
    pickle round trip give equal reports of the same class."""
    m = REFERENCE_MATRICES[0]
    first, second = counterexample_criterion(m), counterexample_criterion(m)
    assert first == second and first is not second
    assert hash(first) == hash(second)
    zero = counterexample_criterion(BottMatrix.zero(9))
    assert len({first, second, zero}) == 2
    order = ["dim", "_w1", "_w3", "_w3sq"]
    assert SwReport.__slots__ == tuple(order)
    assert list(inspect.signature(SwReport).parameters) == order
    assert repr(first) == (f"SwReport(dim=9, orientable=True, verdict=True, "
                           f"witness={first.witness!r})")
    assert repr(zero) == ("SwReport(dim=9, orientable=True, verdict=False, "
                          "witness=None)")
    assert SwReport(*(getattr(first, name) for name in order)) == first
    flat = _with_classes(first, _w3sq=0)
    assert type(flat) is SwReport and flat != first
    for r in (first, flat, zero):
        back = pickle.loads(pickle.dumps(r))
        assert type(back) is SwReport
        assert back == r and hash(back) == hash(r)


@pytest.mark.parametrize("d", [6, 9, DENSE_DIM_LIMIT, DENSE_DIM_LIMIT + 1,
                               16])
def test_report_flags_follow_their_definitions(d):
    """On dense and sparse reports, every flag is its definition in the
    classes: ``orientable`` is w1 = 0 and the row-sum test, ``verdict``
    is orientable with w3sq nonzero, and ``witness`` the first term of
    w3sq in canonical order; the full strictly upper triangular matrix
    and its even-row version join the mixed stack."""
    rng = random.Random(1700 + d)
    full = BottMatrix(d, tuple((1 << d) - (2 << i) for i in range(d)))
    stack = _mixed_stack(rng, d, 40 if d <= DENSE_DIM_LIMIT else 8)
    stack += [full, _even_rows(full)]
    reports = [counterexample_criterion(m) for m in stack]
    for m, r in zip(stack, reports):
        assert r.orientable is (not r.w1) is orientable_by_rowsums(m)
        assert r.w3sq_nonzero is bool(r.w3sq)
        assert r.verdict is (r.orientable and r.w3sq_nonzero)
        masks = r.w3sq.sorted_masks()
        assert r.witness == (masks[0] if masks else None)
    assert any(r.verdict for r in reports) or d < 8
    assert not all(r.orientable for r in reports)


@pytest.mark.parametrize("d", [4, 9, DENSE_DIM_LIMIT + 1])
def test_criteria_of_counters_reject_out_of_range_counters(d):
    """A counter with a bit above the d(d-1)/2 entries, or a negative one,
    is refused where a criterion is taken from counters, by the ring
    context and, from d = 6 on, by the block re-check, where it was
    truncated to another matrix's report or overflowed; a stack with one
    such counter is refused whole.  The widest orientable counter
    passes."""
    bits = d * (d - 1) // 2
    top = counter_from_matrix(_even_rows(BottMatrix(d, tuple(
        (1 << d) - (2 << i) for i in range(d)))))
    for bad in (1 << bits, -1, (1 << bits) | 5):
        with pytest.raises(ValueError, match="outside"):
            RingContext(d, bad)
        stacks = ([bad], [0, bad], [5, 0, bad, 3]) if d >= 6 else ()
        for counters in stacks:
            with pytest.raises(ValueError, match="outside"):
                criteria_by_blocks(d, counters)
    assert _report(RingContext(d, top)) == \
        counterexample_criterion(matrix_from_counter(d, top))
    if d >= 6:
        assert criteria_by_blocks(d, [top]) == \
            [counterexample_criterion(matrix_from_counter(d, top))]


def test_criteria_reject_a_non_matrix():
    for value in ([[0]], None, counter_from_matrix(BottMatrix.zero(8))):
        with pytest.raises(TypeError) as info:
            counterexample_criterion(value)
        assert str(info.value) == \
            "counterexample_criterion expects a BottMatrix"


# ------------------------------------------ square ladder against (1 + y_i)^2

def _w3sq_by_square_product(ctx, extra=(), dim=None):
    """w3^2 in each slot of ``ctx`` by the route before the index ladder:
    the degree-6 part of prod (1 + z^2) over the y forms and the linear
    forms z of ``extra``, built up to degree 4 and then times z twice, in
    the kernel of dimension ``dim`` (the context's own by default)."""
    h = ctx._unit(0)
    for form in ctx.y_form + extra:
        if form:
            h ^= ctx._mul_form(ctx._mul_form(ctx._cut(h, 0, 4), form), form)
    return ctx._unstack(ctx._cut(h, 6, 6), dim)


@pytest.mark.parametrize("d", range(6, DENSE_DIM_LIMIT + 1))
def test_square_ladder_matches_square_product_stacked(d):
    """Slot by slot in block stacks, the ladder's square of w3 of the d x d
    matrices, from the block's y forms and the two forms of the last
    columns: stacks of 1, 2, 37, RECHECK_STACK - 1 and RECHECK_STACK
    seeded counters from both ends of a mixed stack (the zero matrix,
    non-orientable slots, zero columns), and a stack whose column j is
    zero in every slot.  On the orientable stacks the block re-check
    reports the same squares."""
    rng = random.Random(1000 + d)
    stack = _mixed_stack(rng, d, RECHECK_STACK)
    counters = [counter_from_matrix(m) for m in stack]
    stacks = [part for size in (1, 2, 37, RECHECK_STACK - 1, RECHECK_STACK)
              for part in (counters[:size], counters[-size:])]
    j = rng.randrange(1, d - 2)
    stacks.append([counter_from_matrix(BottMatrix(
        d, tuple(r & ~(1 << j) for r in m.rows))) for m in stack[:37]])
    nonzero = orientable = 0
    for part in stacks:
        ctx, last, odd = RingContext._top_left_blocks(d, part)
        w3 = ctx._cut(_total_class(ctx, 3, last), 3, 3)
        got = ctx._unstack(ctx._square(w3), d)
        assert got == _w3sq_by_square_product(ctx, last, d)
        if not odd:
            orientable += 1
            assert [r._w3sq for r in criteria_by_blocks(d, part)] == got
        nonzero += sum(map(bool, got))
    assert not ctx.y_form[j]
    assert orientable and (nonzero or d < 8)


@pytest.mark.parametrize("d", range(DENSE_DIM_LIMIT + 1, 17))
def test_square_ladder_matches_square_product_sparse(d):
    """One sparse context per matrix: a mixed seeded stack, the full
    strictly upper triangular matrix and its even-row version."""
    rng = random.Random(1100 + d)
    full = BottMatrix(d, tuple((1 << d) - (2 << i) for i in range(d)))
    nonzero = 0
    for m in _mixed_stack(rng, d, 6) + [full, _even_rows(full)]:
        ctx = make_context(m)
        got = [_report(ctx)._w3sq]
        assert type(got[0]) is frozenset
        assert got == _w3sq_by_square_product(ctx)
        nonzero += bool(got[0])
    assert nonzero


def test_criterion_d16_matches_square_route():
    """A seeded orientable d=16 matrix, a hit, against gf2ring.square on
    its own sparse context."""
    m = _even_rows(random_bott_matrix(random.Random(1216), 16))
    expected = _criterion_by_square(m)
    assert expected[4]
    assert _report_tuple(counterexample_criterion(m)) == expected


# ------------------------------------------- relabelling the generators

def _linear_extension(rng, m):
    """A random order pi of the generators with pi[i] < pi[j] wherever m
    has entry (i, j): a random topological sort of m's graph."""
    d = m.dim
    below = [m.column_support(j) for j in range(d)]
    placed, pi = 0, [0] * d
    for at in range(d):
        j = rng.choice([j for j in range(d)
                        if not (placed >> j & 1 or below[j] & ~placed)])
        pi[j] = at
        placed |= 1 << j
    return pi


def _image(pi, mask):
    return sum(1 << pi[i] for i in range(len(pi)) if mask >> i & 1)


@pytest.mark.parametrize("d", range(6, DENSE_DIM_LIMIT + 3))
def test_relabelled_matrices_keep_the_criterion(d):
    """Relabel the generators of seeded matrices by a random linear
    extension pi, A'[pi(i)][pi(j)] = A[i][j] (Choi-Masuda-Oum, Op1): an
    isomorphism of the rings, x_i -> x_pi(i), that takes y_j to
    y_pi(j).  The orientability and the verdict stay, w3 and w3sq of A'
    are the images of those of A term by term, and the lane kernel,
    which shares no code with the ring's square, agrees on A'."""
    rng = random.Random(1300 + d)
    count = 48 if d <= DENSE_DIM_LIMIT else 8
    pairs, moved = [], 0
    for n in range(count):
        m = random_bott_matrix(rng, d, rng.uniform(0.2, 0.6))
        if n % 4:
            m = _even_rows(m)
        pi = _linear_extension(rng, m)
        moved += pi != list(range(d))
        rows = [0] * d
        for i, row in enumerate(m.rows):
            rows[pi[i]] = _image(pi, row)
        # validated: A' is strictly upper triangular again
        pairs.append((m, pi, BottMatrix.from_row_strings(
            BottMatrix(d, tuple(rows)).to_row_strings())))
    reports = [counterexample_criterion(m) for m, _, _ in pairs]
    images = [counterexample_criterion(r) for _, _, r in pairs]
    for (m, pi, _), report, image in zip(pairs, reports, images):
        assert (image.orientable, image.verdict) == \
            (report.orientable, report.verdict)
        assert image.w3.terms == {_image(pi, t) for t in report.w3.terms}
        assert image.w3sq.terms == {_image(pi, t) for t in report.w3sq.terms}
    lanes = w3_square_lanes(d, _entry_lanes([r for _, _, r in pairs]), count)
    assert lanes == sum(r.w3sq_nonzero << n for n, r in enumerate(reports))
    assert moved > count // 2
    assert any(r.verdict for r in reports) or d < 8


# -------------------------------------------- block stacks built from counters

def _kernel_fields(r):
    return (r.dim, r.orientable, r._w1, r._w3, r._w3sq, r.verdict, r.witness)


def _slot_windows(ctx, value):
    """The bytes of each slot of a dense value of ``ctx``, in slot order."""
    n = ctx._width // 8
    raw = value.to_bytes(n * ctx.slots, "little")
    return [raw[at:at + n] for at in range(0, len(raw), n)]


@pytest.mark.parametrize("d", range(6, DENSE_DIM_LIMIT + 1))
def test_counter_stacks_match_one_matrix_contexts(d):
    """Block stacks of 1, 2, 37, RECHECK_STACK - 1 and RECHECK_STACK
    seeded d x d counters, every other one with all rows even, in slots of
    one word up to d = 8, two at d = 9 and more above: each selector
    covers whole slots, the slots' supports are the y supports of the
    counters' top-left (d-2) x (d-2) blocks, the block's classes in each
    slot are the report of the block's own one-matrix context, the block
    re-check of the orientable counters gives the reports of their
    matrices' one-matrix contexts, and the slot-repeated masks, sliced
    from the copies kept per dimension, are those repeated afresh."""
    rng = random.Random(900 + d)
    n = d - 2
    matrices = [random_bott_matrix(rng, d, rng.random())
                for _ in range(RECHECK_STACK)]
    matrices[1::2] = [_even_rows(m) for m in matrices[1::2]]
    counters = [counter_from_matrix(m) for m in matrices]
    assert [matrix_from_counter(d, c) for c in counters] == matrices
    blocks = [BottMatrix(n, tuple(r & (1 << n) - 1 for r in m.rows[:n]))
              for m in matrices]
    alone = [_kernel_fields(_report(make_context(b))) for b in blocks]
    assert any(f[1] for f in alone) and not all(f[1] for f in alone)
    whole = [_kernel_fields(counterexample_criterion(m)) for m in matrices]
    assert any(f[5] for f in whole) is (d >= 8)
    for size in (1, 2, 37, RECHECK_STACK - 1, RECHECK_STACK):
        ctx = RingContext._top_left_blocks(d, counters[:size])[0]
        assert ctx.slots == size
        assert ctx._width == max(1 << n, 64)
        full, empty = b"\xff" * (ctx._width // 8), bytes(ctx._width // 8)
        supports = [[0] * n for _ in range(size)]
        for l, form in enumerate(ctx.y_form):
            for m, sel in form:
                for k, window in enumerate(_slot_windows(ctx, sel)):
                    assert window in (full, empty)
                    supports[k][l] |= (window == full) << m
        assert [tuple(s) for s in supports] == \
            [make_context(b).y_support for b in blocks[:size]]
        g = _total_class(ctx, 3)
        w3 = ctx._cut(g, 3, 3)
        assert [(n, not w1, w1, w3, w3sq) for w1, w3, w3sq in zip(
            ctx._unstack(ctx._cut(g, 1, 1)), ctx._unstack(w3),
            ctx._unstack(ctx._square(w3)))] == [f[:5] for f in alone[:size]]
        even = counters[1:size:2]
        assert [_kernel_fields(r) for r in criteria_by_blocks(d, even)] == \
            whole[1:size:2]

        def fresh(mask):
            return int.from_bytes(
                mask.to_bytes(ctx._width // 8, "little") * size, "little")
        assert ctx._free == tuple(fresh(f) for f in _free_slots(n))
        assert ctx._repeat(1) == fresh(1)
        for lo, hi in ((0, 2), (0, 4), (1, 1), (3, 3), (4, 4)):
            assert ctx._cut(-1, lo, hi) == fresh(_degree_mask(n, lo, hi))


@pytest.mark.parametrize("d", [2, 3, 6, 9, DENSE_DIM_LIMIT,
                               DENSE_DIM_LIMIT + 1])
def test_rowsum_cross_check_sees_every_row(d):
    """A matrix whose only odd row is row m, for every m, with its one
    entry next to the diagonal or in the last column: its w1 is x_m, and
    the cross-check of its criterion agrees that it is not orientable,
    as the zero matrix is, in the dense kernel and the sparse one."""
    assert counterexample_criterion(BottMatrix.zero(d)).orientable
    for m in range(d - 1):
        for l in {m + 1, d - 1}:
            report = counterexample_criterion(
                BottMatrix(d, tuple((i == m) << l for i in range(d))))
            assert not report.orientable
            assert report.w1 == Gf2Poly.variable(m)


@pytest.mark.parametrize("d", [8, DENSE_DIM_LIMIT + 1])
def test_disagreeing_w1_fails_the_rowsum_cross_check(monkeypatch, d):
    """A w1 that gains an x_1 term disagrees with the even rows of the
    zero matrix, and the criterion's cross-check raises, in the dense
    kernel and the sparse one."""
    real = charclass._total_class

    def corrupt(ctx, top):
        g = real(ctx, top)
        return g ^ (frozenset((1,)) if isinstance(g, frozenset) else 2)
    monkeypatch.setattr(charclass, "_total_class", corrupt)
    with pytest.raises(AssertionError, match="row sums"):
        counterexample_criterion(BottMatrix.zero(d))


# ------------------------------------------------------------ lane kernel

def _entry_lanes(matrices):
    """entries[j][i] with bit n = entry (i, j) of matrices[n]."""
    d = matrices[0].dim
    return [[sum((m.rows[i] >> j & 1) << n for n, m in enumerate(matrices))
             for i in range(j)] for j in range(d)]


def _even_rows(m):
    """m with entry (i, i+1) set to make every row even."""
    rows = list(m.rows)
    for i in range(m.dim - 1):
        if rows[i].bit_count() & 1:
            rows[i] ^= 1 << (i + 1)
    return BottMatrix(m.dim, tuple(rows))


def _w3sq_mask(matrices):
    return sum(bool(counterexample_criterion(m).w3sq) << n
               for n, m in enumerate(matrices))


@pytest.mark.parametrize("d", list(range(6, 17)) + [20])
def test_w3_square_lanes_matches_criterion(d):
    """Every lane, hit or not, against the ring context's w3^2, on a mix
    of orientable and non-orientable matrices of random density.  The
    full strictly upper triangular matrix and its even-row version owe
    the longest chains of terms, every index down to x_0."""
    rng = random.Random(600 + d)
    count = 48 if d <= 16 else 10
    # lane 0 holds the zero matrix, which is never a hit
    matrices = [BottMatrix.zero(d)]
    for n in range(1, count):
        m = random_bott_matrix(rng, d, rng.random())
        matrices.append(_even_rows(m) if n % 2 else m)
    full = BottMatrix(d, tuple((1 << d) - (2 << i) for i in range(d)))
    matrices += [full, _even_rows(full)]
    expected = _w3sq_mask(matrices)
    assert w3_square_lanes(d, _entry_lanes(matrices), count + 2) == expected
    if d >= 8:
        assert expected


def test_w3_square_lanes_single_lane():
    rng = random.Random(61)
    for m in [BottMatrix.from_row_strings(D9_ROWS), BottMatrix.zero(9)] + [
            _even_rows(random_bott_matrix(rng, 9)) for _ in range(6)]:
        assert w3_square_lanes(9, _entry_lanes([m]), 1) == _w3sq_mask([m])


def test_w3_square_lanes_zero_column():
    """A column that is zero on every lane: y_j = 0 throughout."""
    rng = random.Random(62)
    for d, j in [(8, 3), (10, 9), (11, 1)]:
        matrices = []
        for _ in range(40):
            rows = list(_even_rows(random_bott_matrix(rng, d)).rows)
            matrices.append(BottMatrix(d, tuple(r & ~(1 << j) for r in rows)))
        entries = _entry_lanes(matrices)
        assert not any(entries[j])
        assert w3_square_lanes(d, entries, 40) == _w3sq_mask(matrices)


# ------------------------------------------------ re-check by (d-2)-blocks

def _typed_fields(r):
    """The classes of a report with their kernel types, and its flags."""
    return (r.dim, type(r._w1), r._w1, type(r._w3), r._w3, type(r._w3sq),
            r._w3sq, r.verdict, r.witness)


def _orientable_counters(rng, d, count):
    """The zero matrix, the full matrix made even, then seeded even-row
    matrices of random density, as counters."""
    full = BottMatrix(d, tuple((1 << d) - (2 << i) for i in range(d)))
    matrices = [BottMatrix.zero(d), _even_rows(full)] + [
        _even_rows(random_bott_matrix(rng, d, rng.random()))
        for _ in range(count - 2)]
    return [counter_from_matrix(m) for m in matrices]


@pytest.mark.parametrize("d", range(6, 17))
def test_block_recheck_matches_stacked_criterion(d):
    """Seeded orientable counters, field for field with kernel types,
    against the criterion of each whole matrix: across the dense limit of
    A (d = 13, 14) and of B (d = 15, 16), in a full block stack followed
    by a short one, and in short stacks alone."""
    rng = random.Random(2400 + d)
    step = RingContext.stack_limit(d - 2)
    counters = _orientable_counters(rng, d, step + 37 if step > 1 else 12)
    expected = [_typed_fields(counterexample_criterion(
        matrix_from_counter(d, c))) for c in counters]
    assert [_typed_fields(r) for r in criteria_by_blocks(d, counters)] == \
        expected
    for size in (1, 2, 37):
        assert [_typed_fields(r) for r in
                criteria_by_blocks(d, counters[-size:])] == expected[-size:]
    assert any(f[7] for f in expected) is (d >= 8)


def test_block_recheck_matches_every_d8_shard_hit():
    """Every hit of d=8 shard 870/2048, whose reports the search builds
    by blocks, against the criterion of its matrix."""
    from bottforge.search import SearchSpec, enumerate_space
    hits = []
    enumerate_space(SearchSpec(dim=8, partition=(870, 2048)), hits.append)
    assert len(hits) == 6208
    assert [_typed_fields(h.report) for h in hits] == \
        [_typed_fields(counterexample_criterion(h.matrix)) for h in hits]


@pytest.mark.parametrize("d", [6, 8, 9, DENSE_DIM_LIMIT, DENSE_DIM_LIMIT + 2,
                               DENSE_DIM_LIMIT + 3])
def test_block_recheck_refuses_each_odd_row(d):
    """A counter whose only odd row is row m, for every m, the last row
    of the block's ring (whose one entry lies outside it) included, in
    the middle of a list of even counters that spans two block stacks
    where the block ring stacks: the row-sum check of every counter
    raises."""
    rng = random.Random(2500 + d)
    step = RingContext.stack_limit(d - 2)
    even = _orientable_counters(rng, d, min(step + 5, 40))
    criteria_by_blocks(d, even)
    for m in range(d - 1):
        for l in {m + 1, d - 1}:
            odd = counter_from_matrix(
                BottMatrix(d, tuple((i == m) << l for i in range(d))))
            where = rng.randrange(len(even) + 1)
            with pytest.raises(AssertionError, match="odd sum"):
                criteria_by_blocks(d, even[:where] + [odd] + even[where:])


def test_block_recheck_below_dimension_six():
    """An empty list gives no report at any dimension; a non-empty one
    below d = 6, where no matrix passes, is refused."""
    for d in range(1, 65):
        assert criteria_by_blocks(d, []) == []
    for d in range(1, 6):
        with pytest.raises(ValueError, match="dimension 6"):
            criteria_by_blocks(d, [0])
    assert not criteria_by_blocks(6, [0])[0].verdict


def test_block_recheck_rejects_out_of_range_counters():
    for d in (6, 9, DENSE_DIM_LIMIT + 3):
        for bad in (-1, 1 << d * (d - 1) // 2):
            with pytest.raises(ValueError, match="outside"):
                criteria_by_blocks(d, [0, bad])


def test_d8_block_hits_are_0_32_or_64():
    """ROADMAP item 1's anchor: for a 6 x 6 block B, w3(A)^2 of A = (B, u)
    is affine in u with values in the one-dimensional H^6(M_B), so the
    hits among the 64 orientable d=8 completions of B number 0, 32 or 64.
    The lane kernel and the criterion count them alike, for 64 seeded
    blocks, of which some have hits and some none."""
    rng = random.Random(2600)
    seen = set()
    for _ in range(64):
        b = random_bott_matrix(rng, 6, rng.uniform(0.3, 0.9))
        completions = []
        for u in range(64):
            rows = [row | (u >> i & 1) << 6 for i, row in enumerate(b.rows)]
            completions.append(BottMatrix(8, tuple(
                row | (row.bit_count() & 1) << 7 for row in rows) + (0, 0)))
        assert all(orientable_by_rowsums(m) for m in completions)
        by_lanes = w3_square_lanes(8, _entry_lanes(completions), 64)
        by_criterion = sum(counterexample_criterion(m).verdict << n
                           for n, m in enumerate(completions))
        assert by_lanes == by_criterion
        assert by_lanes.bit_count() in (0, 32, 64)
        seen.add(by_lanes.bit_count())
    assert {0, 32} <= seen
