"""Integer matrices, Smith normal form, group presentations, limits."""

import random
from math import lcm, prod

import pytest

from bottforge.abelian import (
    BudgetExceeded,
    FgAbGroup,
    HypothesisViolation,
    IntMatrix,
    StationarySystem,
    beta_on_coords,
    check_beta_torsion_iso,
    direct_limit_torsion,
    exponent_plus_one_identity,
    kernel_columns,
    limit_torsion_bound,
    smith_normal_form,
    torsion_subgroup,
    _snf_full,
)

from helpers import (
    beta_torsion_bijective_scan,
    det_fraction,
    minors_invariant_factors,
    random_stationary_system,
    torsion_order_by_minors,
)


def random_int_matrix(rng, nr, nc, lo=-20, hi=20):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)])


# --------------------------------------------------------------- IntMatrix

def test_int_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1.5]])


def test_int_matrix_algebra():
    rng = random.Random(41)
    for _ in range(50):
        n, m, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = random_int_matrix(rng, n, m, -9, 9)
        b = random_int_matrix(rng, m, k, -9, 9)
        prod = a @ b
        for i in range(n):
            for j in range(k):
                assert prod.entry(i, j) == sum(
                    a.entry(i, t) * b.entry(t, j) for t in range(m))
        v = [rng.randint(-9, 9) for _ in range(m)]
        assert a.mul_vec(v) == tuple(
            sum(a.entry(i, t) * v[t] for t in range(m)) for i in range(n))


def test_det_against_fraction_elimination():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = random_int_matrix(rng, n, n)
        assert m.det() == det_fraction(m.rows)


def test_det_identity_and_diagonal():
    assert IntMatrix.identity(4).det() == 1
    assert IntMatrix.diagonal([2, 3, -5], 3, 3).det() == -30


def test_hstack():
    a = IntMatrix.from_rows([[1], [2]])
    b = IntMatrix.from_rows([[3, 4], [5, 6]])
    assert a.hstack(b).rows == ((1, 3, 4), (2, 5, 6))


# --------------------------------------------------------------------- SNF

def test_snf_identity():
    dec = smith_normal_form(IntMatrix.identity(3))
    assert dec.D == IntMatrix.identity(3)


def test_snf_already_diagonal():
    dec = smith_normal_form(IntMatrix.diagonal([2, 4], 2, 2))
    assert dec.diagonal() == (2, 4)


def test_snf_random_suite():
    rng = random.Random(43)
    for _ in range(1000):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = random_int_matrix(rng, nr, nc)
        u, d, v, uinv = _snf_full(m)
        assert u @ m @ v == d
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        assert u @ uinv == IntMatrix.identity(nr)
        diag = [d.entry(i, i) for i in range(min(nr, nc))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        for i in range(nr):
            for j in range(nc):
                if i != j:
                    assert d.entry(i, j) == 0


def test_snf_matches_minors_oracle():
    """Invariant factors recomputed as quotients of minor gcds."""
    rng = random.Random(44)
    for _ in range(150):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = random_int_matrix(rng, nr, nc, -10, 10)
        dec = smith_normal_form(m)
        got = [x for x in dec.diagonal() if x != 0]
        assert got == minors_invariant_factors(m.rows)


def test_kernel_columns():
    rng = random.Random(45)
    for _ in range(100):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = random_int_matrix(rng, nr, nc, -6, 6)
        kern = kernel_columns(m)
        for j in range(kern.ncols):
            assert all(x == 0 for x in m.mul_vec(kern.col(j)))
        # completeness: kernel dimension over Q equals nc - rank
        rank = len(minors_invariant_factors(m.rows))
        assert kern.ncols == nc - rank


# ------------------------------------------------------------------ groups

def test_free_group():
    g = FgAbGroup.free(3)
    assert g.invariant_factors() == (0, 0, 0)
    assert g.torsion_order() == 1
    assert g.free_rank() == 3
    assert torsion_subgroup(g) == []


def test_z_plus_z4():
    g = FgAbGroup(IntMatrix.from_rows([[0], [4]]))
    assert g.free_rank() == 1
    assert torsion_subgroup(g) == [4]
    assert g.exponent() == 4


def test_from_invariant_factors():
    g = FgAbGroup.from_invariant_factors([2, 6], free_rank=1)
    assert g.invariant_factors() == (2, 6, 0)
    assert g.torsion_order() == 12
    assert g.exponent() == 6


def test_torsion_against_minors_oracle():
    rng = random.Random(46)
    for _ in range(150):
        n = rng.randint(1, 4)
        cols = rng.randint(0, 4)
        m = random_int_matrix(rng, n, max(cols, 1), -8, 8) if cols else \
            IntMatrix.from_rows([[0] * 1 for _ in range(n)])
        g = FgAbGroup(m)
        assert g.torsion_order() == torsion_order_by_minors(m.rows)


def test_torsion_elements_enumeration():
    g = FgAbGroup(IntMatrix.from_rows([[2, 0], [0, 6], [0, 0]]))
    elements = list(g.torsion_elements())
    assert len(elements) == 12
    assert len(set(elements)) == 12
    with pytest.raises(BudgetExceeded):
        big = FgAbGroup.from_invariant_factors([101, 101])
        list(big.torsion_elements(budget=100))


def test_coords_kill_relations():
    rng = random.Random(47)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, rng.randint(1, 4), -8, 8)
        g = FgAbGroup(m)
        for j in range(m.ncols):
            col = m.col(j)
            assert g.contains_in_relations(col)
            assert all(c == 0 for c in g.coords(col))


def test_element_from_coords_roundtrip():
    rng = random.Random(48)
    g = FgAbGroup(IntMatrix.from_rows([[4, 0], [0, 6], [0, 0]]))
    for _ in range(50):
        v = [rng.randint(-30, 30) for _ in range(3)]
        c = g.coords(v)
        w = g.element_from_coords(c)
        assert g.coords(w) == c


# -------------------------------------------------------------- hypotheses

def z_z4_times5():
    group = FgAbGroup(IntMatrix.from_rows([[0], [4]]))
    beta = IntMatrix.from_rows([[5, 0], [0, 5]])
    alpha = IntMatrix.identity(2)
    return StationarySystem(group=group, beta=beta, multiplier=5, alpha=alpha)


def test_hypotheses_pass_on_times5():
    sys_ = z_z4_times5()
    assert sys_.hypothesis_failures(require_alpha=True) == []
    sys_.validate(require_alpha=True)


def test_hypothesis_failure_messages():
    group = FgAbGroup(IntMatrix.from_rows([[0], [4]]))
    bad_mult = StationarySystem(
        group=group, beta=IntMatrix.from_rows([[5, 0], [0, 5]]),
        multiplier=6, alpha=IntMatrix.identity(2))
    msgs = bad_mult.hypothesis_failures(require_alpha=True)
    assert any("not 1 mod" in m for m in msgs)
    with pytest.raises(HypothesisViolation):
        bad_mult.validate(require_alpha=True)

    not_endo = StationarySystem(
        group=FgAbGroup(IntMatrix.from_rows([[2], [0]])),
        beta=IntMatrix.from_rows([[1, 1], [1, 0]]),
        multiplier=3, alpha=None)
    msgs = not_endo.hypothesis_failures(require_alpha=False)
    assert any("lattice" in m for m in msgs)

    wrong_alpha = StationarySystem(
        group=group, beta=IntMatrix.from_rows([[5, 0], [0, 5]]),
        multiplier=5, alpha=IntMatrix.from_rows([[2, 0], [0, 1]]))
    msgs = wrong_alpha.hypothesis_failures(require_alpha=True)
    assert any("differs from multiplication" in m for m in msgs)

    missing_alpha = StationarySystem(
        group=group, beta=IntMatrix.from_rows([[5, 0], [0, 5]]),
        multiplier=5, alpha=None)
    assert any("alpha" in m for m in
               missing_alpha.hypothesis_failures(require_alpha=True))
    assert missing_alpha.hypothesis_failures(require_alpha=False) == []


def test_beta_torsion_bijective_times5():
    assert check_beta_torsion_iso(z_z4_times5()) is True


def test_beta_torsion_trivial_on_free_group():
    group = FgAbGroup.free(2)
    sys_ = StationarySystem(
        group=group, beta=IntMatrix.from_rows([[2, 1], [1, 1]]),
        multiplier=3, alpha=IntMatrix.from_rows([[3, -3], [-3, 6]]))
    assert sys_.hypothesis_failures(require_alpha=True) == []
    assert check_beta_torsion_iso(sys_) is True  # empty torsion, vacuous
    assert direct_limit_torsion(sys_) == []


def test_beta_torsion_theorem_matches_scan():
    rng = random.Random(91)
    for _ in range(60):
        rel, beta, alpha, n, _factors = random_stationary_system(rng)
        system = StationarySystem(group=FgAbGroup(IntMatrix.from_rows(rel)),
                                  beta=IntMatrix.from_rows(beta),
                                  multiplier=n,
                                  alpha=IntMatrix.from_rows(alpha))
        assert beta_torsion_bijective_scan(system) is True
        assert check_beta_torsion_iso(system) is True
    # the scan does see a non-bijection: x2 on Z/4, where n = 2 is not
    # 1 mod 4, so the theorem's hypotheses fail
    doubling = StationarySystem(group=FgAbGroup(IntMatrix.from_rows([[4]])),
                                beta=IntMatrix.from_rows([[2]]),
                                multiplier=2, alpha=IntMatrix.identity(1))
    assert beta_torsion_bijective_scan(doubling) is False
    with pytest.raises(HypothesisViolation):
        check_beta_torsion_iso(doubling)


def test_z2_identity_multiplier3():
    group = FgAbGroup(IntMatrix.from_rows([[2]]))
    sys_ = StationarySystem(group=group, beta=IntMatrix.identity(1),
                            multiplier=3, alpha=IntMatrix.identity(1))
    assert check_beta_torsion_iso(sys_) is True
    assert direct_limit_torsion(sys_) == [2]


def test_direct_limit_torsion_times5():
    assert direct_limit_torsion(z_z4_times5()) == [4]


def test_direct_limit_requires_alpha():
    group = FgAbGroup(IntMatrix.from_rows([[0], [4]]))
    sys_ = StationarySystem(group=group,
                            beta=IntMatrix.from_rows([[5, 0], [0, 5]]),
                            multiplier=5, alpha=None)
    with pytest.raises(HypothesisViolation):
        direct_limit_torsion(sys_)


# ------------------------------------------------------- limit stage bound

def test_stage_bound_identity_betas():
    g = FgAbGroup(IntMatrix.from_rows([[2, 0], [0, 6], [0, 0]]))
    bound, orders = limit_torsion_bound(g, [IntMatrix.identity(3)], 6)
    assert bound == 12
    assert orders == [12] * 7


def test_stage_bound_collapsing_z4():
    g = FgAbGroup(IntMatrix.from_rows([[4]]))
    beta = IntMatrix.from_rows([[2]])
    bound, orders = limit_torsion_bound(g, [beta], 3)
    # each stage composite is x8, and 8x is divisible by 4 for every x,
    # so every class dies at every stage
    assert bound == 4
    assert orders == [1, 1, 1, 1]


def test_stage_bound_never_exceeded_random():
    rng = random.Random(49)
    for _ in range(100):
        n = rng.randint(1, 3)
        m = random_int_matrix(rng, n, rng.randint(1, 3), -6, 6)
        g = FgAbGroup(m)
        if g.torsion_order() > 1000:
            continue
        betas = [random_int_matrix(rng, n, n, -3, 3)
                 for _ in range(rng.randint(1, 3))]
        betas = [b for b in betas if g.is_endomorphism(b)]
        if not betas:
            continue
        bound, orders = limit_torsion_bound(g, betas, 6)
        assert bound == g.torsion_order()
        assert all(o <= bound for o in orders)


def test_stage_bound_cyclic_beta_indexing():
    g = FgAbGroup(IntMatrix.from_rows([[8]]))
    double = IntMatrix.from_rows([[2]])
    ident = IntMatrix.identity(1)
    bound, orders = limit_torsion_bound(g, [double, ident], 4)
    # any window of four consecutive maps in the 2-cycle composes to x4,
    # and {x : 4x in 8Z} = 2Z, so each stage leaves Z/2
    assert bound == 8
    assert orders == [2] * 5


# -------------------------------------------------------- exponent identity

def test_exponent_identity_examples():
    assert exponent_plus_one_identity([2], 2) is True
    assert exponent_plus_one_identity([2, 3], 6) is True
    assert exponent_plus_one_identity([4], 2) is False


def test_exponent_identity_validation():
    with pytest.raises(ValueError):
        exponent_plus_one_identity([0], 2)
    with pytest.raises(ValueError):
        exponent_plus_one_identity([2], 0)


def test_exponent_identity_random_groups():
    rng = random.Random(50)
    for _ in range(100):
        factors = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
        factors = [f for f in factors if f > 1] or [2]
        e = lcm(*factors)
        if e > 100 or prod(factors) > 2000:
            continue
        assert exponent_plus_one_identity(factors, e) is True
        # verify on the actual group: (e+1) * x == x for every torsion
        # element
        g = FgAbGroup.from_invariant_factors(sorted(factors))
        for coords in g.torsion_elements(budget=2000):
            elem = g.element_from_coords(coords)
            scaled = [(e + 1) * c for c in elem]
            assert g.coords(scaled) == g.coords(elem)


# ----------------------------------------------------- coordinate transport

def test_beta_on_coords_times5():
    sys_ = z_z4_times5()
    mat = beta_on_coords(sys_.group, sys_.beta)
    # in coordinates the torsion generator must map to 5x itself
    g = sys_.group
    for coords in g.torsion_elements():
        vec = g.element_from_coords(coords)
        image = sys_.beta.mul_vec(vec)
        assert g.coords(image) == g.coords(
            [5 * x for x in vec])
