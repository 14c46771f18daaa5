"""Towers of finite quotients, translation actions, expanding checks."""

import itertools
import random
import threading

import pytest

from bottforge.abelian import BudgetExceeded, FgAbGroup, IntMatrix
from bottforge.odometer import (
    LevelPoint,
    OdometerTower,
    SingularMatrixError,
    act,
    escape_level,
    expanding_check,
    is_transitive,
    level_order,
    project,
)

from helpers import (
    det_fraction,
    mat_mul,
    orbit_size,
    random_unimodular,
    solve_integer,
)


def tower1(m: int) -> OdometerTower:
    return OdometerTower(IntMatrix.from_rows([[m]]))


def scaled_identity(d: int, m: int) -> OdometerTower:
    return OdometerTower(IntMatrix.diagonal([m] * d))


def random_expanding(rng, d_max: int) -> IntMatrix:
    while True:
        d = rng.randint(1, d_max)
        m = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)])
        if m.det() != 0 and expanding_check(m):
            return m


# ------------------------------------------------------------ construction

def test_rejects_bad_matrices():
    with pytest.raises(ValueError):
        OdometerTower(IntMatrix.from_rows([[2, 0]]))  # not square
    with pytest.raises(SingularMatrixError):
        OdometerTower(IntMatrix.from_rows([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        OdometerTower(IntMatrix.identity(3))  # |det| = 1
    with pytest.raises(ValueError):
        OdometerTower(IntMatrix.from_rows([[1, 5], [0, -1]]))


def test_level_validation():
    t = tower1(2)
    with pytest.raises(ValueError):
        t.reduce(-1, (0,))
    with pytest.raises(ValueError):
        t.reduce(1, (0, 0))
    with pytest.raises(ValueError, match="^vector length mismatch$"):
        act(t, (1, 1), t.zero_point(1))
    with pytest.raises(ValueError):
        level_order(t, -1)


def test_contains_validation():
    t = tower1(2)
    for call, message in ((lambda: t.contains(-1, (0,)),
                           "level must be non-negative"),
                          (lambda: t.contains(1, (0, 0)),
                           "vector length mismatch")):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


# ------------------------------------------------------------ level orders

def test_orders_doubling():
    t = tower1(2)
    for i in range(13):
        assert level_order(t, i) == 2 ** i
    assert level_order(t, 10) == 1024


def test_orders_scaled_identity():
    for d, m in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        t = scaled_identity(d, m)
        for i in range(5):
            assert level_order(t, i) == m ** (d * i)


def test_orders_generic_matrix():
    t = OdometerTower(IntMatrix.from_rows([[2, 1], [0, 3]]))
    for i in range(6):
        assert level_order(t, i) == 6 ** i


def test_level_order_matches_smith_residue_count():
    # level_order takes |det M|^i by theorem; the Smith form of M^i, built
    # here, counts the residues of Z^d / M^i Z^d independently
    rng = random.Random(16)
    for _ in range(40):
        m = random_expanding(rng, 3)
        t = OdometerTower(m)
        power = IntMatrix.identity(t.dim)
        for i in range(5):
            assert level_order(t, i) == FgAbGroup(power).torsion_order()
            power = m.mul(power)


# ------------------------------------------------------------------ action

def test_zero_translation_is_identity():
    t = OdometerTower(IntMatrix.from_rows([[2, 1], [1, 3]]))
    rng = random.Random(7)
    for _ in range(50):
        i = rng.randint(0, 4)
        p = t.reduce(i, [rng.randint(-20, 20), rng.randint(-20, 20)])
        assert act(t, (0, 0), p) == p


def test_translation_wraps_at_level_order():
    t = tower1(2)
    p = t.reduce(3, [7])
    assert p.coords == (7,)
    assert act(t, (1,), p) == t.zero_point(3)


def test_action_is_additive():
    t = OdometerTower(IntMatrix.from_rows([[3, 1], [0, 2]]))
    rng = random.Random(8)
    for _ in range(100):
        i = rng.randint(0, 4)
        p = t.reduce(i, [rng.randint(-30, 30) for _ in range(2)])
        g = tuple(rng.randint(-30, 30) for _ in range(2))
        h = tuple(rng.randint(-30, 30) for _ in range(2))
        combined = tuple(a + b for a, b in zip(g, h))
        assert act(t, g, act(t, h, p)) == act(t, combined, p)


def test_action_matches_ambient_translation():
    t = OdometerTower(IntMatrix.from_rows([[2, 1], [1, 3]]))
    rng = random.Random(9)
    for _ in range(100):
        i = rng.randint(0, 4)
        v = [rng.randint(-30, 30) for _ in range(2)]
        g = tuple(rng.randint(-30, 30) for _ in range(2))
        shifted = [a + b for a, b in zip(v, g)]
        assert act(t, g, t.reduce(i, v)) == t.reduce(i, shifted)


# -------------------------------------------------------------- projection

def test_project_compatible_with_reduce():
    t = OdometerTower(IntMatrix.from_rows([[2, 0], [1, 2]]))
    rng = random.Random(10)
    for _ in range(100):
        i = rng.randint(1, 5)
        v = [rng.randint(-40, 40) for _ in range(2)]
        assert project(t, t.reduce(i, v)) == t.reduce(i - 1, v)


def test_project_commutes_with_action():
    t = OdometerTower(IntMatrix.from_rows([[3, 1], [1, 2]]))
    rng = random.Random(11)
    for _ in range(100):
        i = rng.randint(1, 4)
        p = t.reduce(i, [rng.randint(-30, 30) for _ in range(2)])
        g = tuple(rng.randint(-30, 30) for _ in range(2))
        assert project(t, act(t, g, p)) == act(t, g, project(t, p))


def test_project_bottom_level_rejected():
    t = tower1(3)
    with pytest.raises(ValueError):
        project(t, t.zero_point(0))


def test_projection_fibers_have_det_size():
    # det^i Z^d lies in M^i Z^d, so the box [0, |det|^i)^d meets every coset
    for rows in ([[2]], [[2, 0], [0, 2]], [[2, 1], [0, 3]]):
        t = OdometerTower(IntMatrix.from_rows(rows))
        for i in (1, 2, 3):
            box = range(abs(t.det) ** i)
            points = {t.reduce(i, v)
                      for v in itertools.product(box, repeat=t.dim)}
            assert len(points) == level_order(t, i)
            fibers = {}
            for point in points:
                down = project(t, point)
                fibers.setdefault(down.coords, 0)
                fibers[down.coords] += 1
            assert len(fibers) == level_order(t, i - 1)
            assert set(fibers.values()) == {abs(t.det)}


def test_labels_agree_with_smith_coordinates():
    # adj(M)^i v mod |det|^i against the Smith form of M^i built here: two
    # vectors share a label exactly when their Smith coordinates agree
    rng = random.Random(17)
    for _ in range(60):
        m = random_expanding(rng, 3)
        t = OdometerTower(m)
        power = IntMatrix.identity(t.dim)
        for i in range(4):
            group = FgAbGroup(power)
            vecs = [tuple(rng.randint(-30, 30) for _ in range(t.dim))
                    for _ in range(12)]
            # pairs that differ by a lattice vector share a coset
            vecs += [tuple(a + b for a, b in zip(v, power.mul_vec(x)))
                     for v, x in zip(vecs, vecs[::-1])]
            points = [t.reduce(i, v) for v in vecs]
            coords = [group.coords(v) for v in vecs]
            for a, b in itertools.product(range(len(vecs)), repeat=2):
                assert ((points[a] == points[b])
                        == (coords[a] == coords[b]))
            for p in points:
                assert all(0 <= x < level_order(t, i) for x in p.coords)
                g = vecs[rng.randrange(len(vecs))]
                if i:
                    assert project(t, act(t, g, p)) == act(t, g, project(t, p))
            power = m.mul(power)


def test_project_rejects_a_tuple_that_labels_no_coset():
    t = OdometerTower(IntMatrix.from_rows([[2, 1], [0, 2]]))  # det 4
    with pytest.raises(ValueError, match="labels no coset"):
        project(t, LevelPoint(1, (1, 0)))  # M w = (2, 0)
    assert project(t, LevelPoint(1, (2, 0))) == t.zero_point(0)


def test_act_and_project_accept_exactly_the_labels():
    # the labels of a level are the images of reduce over the box
    # [0, |det|^i)^d, which meets every coset; every other tuple of the box
    # labels no coset and is refused by both
    for rows in ([[2, 1], [0, 2]], [[0, 2], [1, 0]], [[3, 1], [1, -2]],
                 [[1, 1, 0], [0, 1, 1], [1, 0, 2]]):
        t = OdometerTower(IntMatrix.from_rows(rows))
        gamma = (1,) * t.dim
        for i in (1, 2):
            box = list(itertools.product(range(abs(t.det) ** i),
                                         repeat=t.dim))
            labels = {}
            for v in box:
                labels.setdefault(t.reduce(i, v).coords, v)
            assert len(labels) == level_order(t, i)
            for w in box:
                point = LevelPoint(i, w)
                if w in labels:
                    v = labels[w]
                    assert act(t, gamma, point) == t.reduce(
                        i, [a + b for a, b in zip(v, gamma)])
                    assert project(t, point) == t.reduce(i - 1, v)
                    continue
                with pytest.raises(ValueError, match="labels no coset"):
                    act(t, gamma, point)
                with pytest.raises(ValueError, match="labels no coset"):
                    project(t, point)


# -------------------------------------------------------------- stabilizer

def test_stabilizer_is_the_sublattice():
    t = scaled_identity(2, 2)
    i = 2  # M^2 = 4I
    p = t.reduce(i, [1, 2])
    for g in itertools.product(range(-4, 5), repeat=2):
        fixes = act(t, g, p) == p
        assert fixes == t.contains(i, g)
        assert fixes == (g[0] % 4 == 0 and g[1] % 4 == 0)


# ------------------------------------------------------------ transitivity

def test_translation_action_transitive():
    assert is_transitive(scaled_identity(2, 2), 3) is True  # 64 cosets
    assert is_transitive(tower1(3), 4) is True  # 81 cosets
    assert is_transitive(OdometerTower(IntMatrix.from_rows([[2, 1], [0, 3]])),
                         2) is True


def test_transitivity_matches_orbit_search():
    # the non-expanding [[2, 0], [0, 1]] still has one orbit per level
    for rows in ([[2]], [[2, 0], [0, 2]], [[2, 1], [0, 3]], [[2, 0], [0, 1]]):
        t = OdometerTower(IntMatrix.from_rows(rows))
        for i in range(4):
            assert orbit_size(t, i) == level_order(t, i)
            assert is_transitive(t, i) is True


def test_transitivity_budget():
    with pytest.raises(BudgetExceeded):
        is_transitive(scaled_identity(2, 2), 3, budget=10)


# ------------------------------------------------------------------ escape

def test_escape_examples():
    t = tower1(2)
    assert escape_level(t, (4,), 10) == 3  # 4 in 4Z but not 8Z
    assert escape_level(t, (1,), 10) == 1
    t2 = scaled_identity(2, 2)
    assert escape_level(t2, (1, 0), 10) == 1
    assert escape_level(t2, (4, 8), 10) == 3


def test_escape_validation():
    t = tower1(2)
    with pytest.raises(ValueError):
        escape_level(t, (0,), 10)
    with pytest.raises(ValueError):
        escape_level(t, (1,), 0)


@pytest.mark.parametrize("bad", [1.5, 0.5, True, "3"])
def test_vectors_refuse_non_integers(bad):
    """Every entry point that reads a vector refuses an entry that is not
    an int, and names it, instead of truncating or passing it through."""
    t = OdometerTower(IntMatrix.from_rows([[2, 1], [0, 2]]))
    point = t.reduce(2, (1, 0))
    for call in (lambda: escape_level(t, [bad, 0], 5),
                 lambda: t.contains(3, [bad, 0]),
                 lambda: t.reduce(2, [bad, 0]),
                 lambda: act(t, [bad, 0], point),
                 lambda: act(t, (1, 0), LevelPoint(2, (bad, 0))),
                 lambda: project(t, LevelPoint(2, (bad, 0)))):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"entry {bad!r} is not an integer"


def test_unit_vector_escapes_immediately():
    # gamma = e_1 never lies in M Z^d once |det| >= 2 ... not in general,
    # but it always escapes by the level where the smallest invariant
    # factor of M^i exceeds 1; check the documented d = 1 case exhaustively
    for m in (2, 3, 5, -2):
        t = tower1(m)
        assert escape_level(t, (1,), 5) == 1


def test_escape_cross_checked_by_rational_solve():
    rng = random.Random(12)
    trials = 0
    while trials < 60:
        d = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        m = IntMatrix.from_rows(rows)
        if abs(m.det()) < 2:
            continue
        trials += 1
        t = OdometerTower(m)
        gamma = tuple(rng.randint(-50, 50) for _ in range(d))
        if all(x == 0 for x in gamma):
            gamma = (1,) + (0,) * (d - 1)
        e = escape_level(t, gamma, 64)
        assert e is not None and 1 <= e <= 64
        # the adjugate walk must agree with the Smith-form membership test,
        # and both with solving M^i x = gamma over the rationals
        power = IntMatrix.identity(d)
        for i in range(1, e + 1):
            power = m.mul(power)
            inside = FgAbGroup(power).contains_in_relations(gamma)
            assert t.contains(i, gamma) == inside
            assert inside == solve_integer(power.rows, gamma)
        assert not t.contains(e, gamma)
        if e > 1:
            assert t.contains(e - 1, gamma)


# -------------------------------------------------------- expanding check

def test_expanding_check_frozen_cases():
    assert expanding_check(IntMatrix.diagonal([2, 2])) is True
    assert expanding_check(IntMatrix.from_rows([[2, 1], [0, 3]])) is True
    assert expanding_check(IntMatrix.from_rows([[0, 2], [1, 0]])) is True
    assert expanding_check(IntMatrix.from_rows([[1]])) is False
    assert expanding_check(IntMatrix.from_rows([[0, -1], [1, 0]])) is False
    # eigenvalue exactly on the unit circle with |det| >= 2
    assert expanding_check(IntMatrix.from_rows([[2, 0], [0, 1]])) is False
    assert expanding_check(IntMatrix.from_rows([[1, 1], [0, 2]])) is False


def test_expanding_check_errors():
    with pytest.raises(SingularMatrixError):
        expanding_check(IntMatrix.from_rows([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        expanding_check(IntMatrix.from_rows([[1, 2, 3]]))


def test_expanding_check_random_diagonal():
    rng = random.Random(13)
    for _ in range(50):
        d = rng.randint(1, 3)
        entries = [rng.choice([-5, -3, -2, 2, 3, 4, 5]) for _ in range(d)]
        assert expanding_check(IntMatrix.diagonal(entries)) is True


def test_expanding_check_conjugated_triangular():
    # P T P^-1 has the diagonal of T as its eigenvalues, so the expected
    # answer needs no eigenvalue solver
    rng = random.Random(14)
    for _ in range(300):
        d = rng.randint(1, 5)
        diag = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(d)]
        tri = [[diag[i] if i == j else rng.randint(-3, 3) if j > i else 0
                for j in range(d)] for i in range(d)]
        p, pinv = random_unimodular(rng, d)
        m = IntMatrix.from_rows(mat_mul(p, mat_mul(tri, pinv)))
        assert expanding_check(m) is all(abs(x) > 1 for x in diag)


def test_charpoly_adjugate_identities():
    rng = random.Random(15)
    for _ in range(100):
        d = rng.randint(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)])
        coeffs, adj = m.charpoly_adjugate()
        # an independent route: det() reads this same pass
        det = det_fraction(m.rows)
        assert len(coeffs) == d + 1 and coeffs[0] == 1
        assert coeffs[-1] == (-1) ** d * det
        acc = [[0] * d for _ in range(d)]
        for c in coeffs:  # Horner: chi_M(M) = 0 by Cayley-Hamilton
            acc = mat_mul(acc, m.rows)
            for t in range(d):
                acc[t][t] += c
        assert acc == [[0] * d for _ in range(d)]
        assert m.mul(adj) == adj.mul(m) == IntMatrix.diagonal([det] * d)


# ------------------------------------------------------------- concurrency

def test_concurrent_labels_match_serial():
    # a tower keeps no per-level state, so threads share it freely
    t = OdometerTower(IntMatrix.from_rows([[2, 1], [0, 2]]))

    def answers(seed):
        rng = random.Random(seed)
        out = []
        for _ in range(30):
            i = rng.randint(1, 8)
            p = t.reduce(i, [rng.randint(-99, 99) for _ in range(2)])
            g = [rng.randint(-99, 99) for _ in range(2)]
            out.append((p, act(t, g, p), project(t, p)))
        return out

    serial = [answers(s) for s in range(8)]
    results, errors = [None] * 8, []

    def worker(seed):
        try:
            results[seed] = answers(seed)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert errors == []
    assert results == serial
