"""Shared oracles for the test suite.

Everything here recomputes results by a route independent of the package:
Gaussian elimination over exact fractions, gcd-of-minors invariant factors,
and a dict-based polynomial rewriter working on exponent vectors.  Power
products as chains of single-generator ``multiply`` calls are a route apart
from the package's closed form.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from bottforge.abelian import IntMatrix
from bottforge.gf2ring import BottMatrix, Gf2Poly, multiply
from bottforge.odometer import act


def random_bott_matrix(rng: random.Random, d: int, density: float = 0.5) -> BottMatrix:
    rows = []
    for i in range(d):
        r = 0
        for j in range(i + 1, d):
            if rng.random() < density:
                r |= 1 << j
        rows.append(r)
    return BottMatrix(d, tuple(rows))


def even_parity_counters_scan(d: int, lo: int, hi: int):
    """Search counters whose rows all have even weight, in [lo, hi), by a
    scan from counter 0 over the product of each row's even patterns.

    The top row owns the least significant bits of a counter, so taking
    the later rows as the outer loops gives increasing counters.
    """
    widths = [d - 1 - i for i in range(d - 1)]
    offsets = [sum(widths[:i]) for i in range(d - 1)]
    choices = [[v for v in range(1 << w) if v.bit_count() % 2 == 0]
               for w in widths]
    for combo in product(*reversed(choices)):
        counter = 0
        for chunk, off in zip(reversed(combo), offsets):
            counter |= chunk << off
        if counter >= hi:
            return
        if counter >= lo:
            yield counter


XS_MASK = (1 << 64) - 1


def xorshift_stream(seed: int):
    """xorshift64* outputs, one state step at a time, from the state
    ``seed`` (zero replaced by the fixed odd constant of random mode)."""
    state = seed & XS_MASK or 0x9E3779B97F4A7C15
    while True:
        state ^= state >> 12
        state = (state ^ (state << 25)) & XS_MASK
        state ^= state >> 27
        yield (state * 0x2545F4914F6CDD1D) & XS_MASK


def draw_counter(stream, bits: int) -> int:
    """One random-mode draw: enough 64-bit outputs for ``bits`` bits, the
    first in the least significant bits, masked to ``bits``."""
    value = 0
    taken = 0
    while taken < bits:
        value |= next(stream) << taken
        taken += 64
    return value & ((1 << bits) - 1)


def gf2_rank(rows: list[int], width: int) -> int:
    """Rank of a GF(2) matrix given as row bitmasks."""
    rows = list(rows)
    rank = 0
    for bit in range(width - 1, -1, -1):
        piv = next((i for i in range(rank, len(rows)) if rows[i] >> bit & 1), None)
        if piv is None:
            continue
        rows[piv], rows[rank] = rows[rank], rows[piv]
        for i in range(len(rows)):
            if i != rank and rows[i] >> bit & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def pairing_rows_to_bits(table: list[list[int]]) -> list[int]:
    return [int("".join(str(b) for b in row), 2) if row else 0 for row in table]


def det_fraction(rows) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def minors_invariant_factors(rows) -> list[int]:
    """Invariant factors via gcds of k x k minors (classical definition).

    Only practical for small matrices; this is the independent cross-check
    for the elimination-based Smith normal form.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0

    def minor_det(ris, cis):
        sub = [[rows[r][c] for c in cis] for r in ris]
        d = det_fraction(sub)
        assert d.denominator == 1
        return int(d)

    gcds = [1]
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ris in combinations(range(nr), k):
            for cis in combinations(range(nc), k):
                g = gcd(g, minor_det(ris, cis))
        gcds.append(g)
        if g == 0:
            break
    factors = []
    for k in range(1, len(gcds)):
        if gcds[k] == 0:
            break
        factors.append(gcds[k] // gcds[k - 1])
    return factors


def torsion_order_by_minors(rows) -> int:
    order = 1
    for f in minors_invariant_factors(rows):
        order *= f
    return order


def solve_integer(rows, rhs) -> bool:
    """Whether the integer system rows * x = rhs has an integer solution.

    Solved over the rationals by elimination, then the solution (unique
    when the matrix is invertible) is checked for integrality.
    """
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return False
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return all(a[r][n].denominator == 1 for r in range(n))


def naive_reduce(y_support: tuple[int, ...], exponents) -> frozenset[int]:
    """Dict-based rewriter over exponent vectors, independent of the package.

    Repeatedly replaces the lowest-index square using x_k^2 = x_k * y_k and
    accumulates squarefree exponent vectors as masks.
    """
    d = len(y_support)
    work: dict[tuple[int, ...], int] = {tuple(exponents): 1}
    done: set[int] = set()
    while work:
        vec, coeff = work.popitem()
        if coeff % 2 == 0:
            continue
        k = next((i for i, e in enumerate(vec) if e >= 2), None)
        if k is None:
            mask = 0
            for i, e in enumerate(vec):
                if e:
                    mask |= 1 << i
            done ^= {mask}
            continue
        base = list(vec)
        base[k] -= 2
        sup = y_support[k]
        if sup == 0:
            continue
        for l in range(d):
            if sup >> l & 1:
                child = list(base)
                child[k] += 1
                child[l] += 1
                key = tuple(child)
                work[key] = work.get(key, 0) + 1
    return frozenset(done)


def power_by_multiply(ctx, exponents, descending: bool = False) -> Gf2Poly:
    """The power product prod x_i^{e_i} as a chain of ``multiply`` calls by
    one generator at a time, in ascending or descending index order: a
    route that does not pass through the closed form of
    ``reduce_exponents``."""
    power = Gf2Poly.from_masks([0])
    order = range(len(exponents))
    for i in reversed(order) if descending else order:
        for _ in range(exponents[i]):
            power = multiply(ctx, power, Gf2Poly.from_masks([1 << i]))
    return power


def naive_multiply(y_support, terms_a, terms_b) -> frozenset[int]:
    """Product of two squarefree-mask polynomials via the naive rewriter."""
    out: set[int] = set()
    d = len(y_support)
    for a in terms_a:
        for b in terms_b:
            exps = tuple((a >> i & 1) + (b >> i & 1) for i in range(d))
            out ^= naive_reduce(y_support, exps)
    return frozenset(out)


def fraction_inverse(rows: list[list[int]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination over fractions."""
    n = len(rows)
    a = [[Fraction(x) for x in row] +
         [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def random_unimodular(rng: random.Random, n: int, ops: int | None = None):
    """A random determinant +-1 matrix and its exact integer inverse."""
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n if ops is None else ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.choice((-1, 1))
        # row op on p, mirrored inverse column op on pinv
        p[i] = [x + q * y for x, y in zip(p[i], p[j])]
        for row in pinv:
            row[j] -= q * row[i]
    return p, pinv


def orbit_size(tower, i: int) -> int:
    """Size of the orbit of 0 at level i, by breadth-first search along the
    unit translations: the transitivity oracle, built on the package's
    ``act`` rather than on ``is_transitive``."""
    d = tower.dim
    units = [tuple(1 if k == j else 0 for k in range(d)) for j in range(d)]
    start = tower.zero_point(i)
    seen = {start.coords}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for e in units:
                q = act(tower, e, p)
                if q.coords not in seen:
                    seen.add(q.coords)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def orientable_by_rowsums(matrix: BottMatrix) -> bool:
    """Orientability test straight off the matrix: every row sum even."""
    return all(r.bit_count() % 2 == 0 for r in matrix.rows)


def exponent_plus_one_identity(factors, e: int) -> bool:
    """Whether multiplication by e + 1 is the identity on the group with the
    given invariant factors; true exactly when every factor divides e."""
    if e < 1:
        raise ValueError("e must be a positive integer")
    factors = [int(f) for f in factors]
    if any(f < 1 for f in factors):
        raise ValueError("invariant factors must be positive")
    return all(e % f == 0 for f in factors)


def beta_on_coords(group, beta):
    """The matrix of ``beta`` in canonical coordinates: U . beta . U^-1,
    with U inverted over the fractions (U is unimodular, so U^-1 is
    integral)."""
    uinv = fraction_inverse([list(row) for row in group._u.rows])
    if any(x.denominator != 1 for row in uinv for x in row):
        raise AssertionError("U^-1 is not integral")
    return group._u.mul(beta).mul(
        IntMatrix(tuple(tuple(int(x) for x in row) for row in uinv)))


def beta_torsion_bijective_scan(system) -> bool:
    """Whether beta maps the torsion subgroup onto itself, by enumerating
    it: the oracle for the theorem behind ``check_beta_torsion_iso``.
    Onto a finite set from itself is one to one."""
    g = system.group
    bc = beta_on_coords(g, system.beta)
    elements = set(g.torsion_elements())
    images = {g.coords(g.element_from_coords(bc.mul_vec(c)))
              for c in elements}
    return images == elements


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def random_stationary_system(rng: random.Random):
    """A random system satisfying all the stationary hypotheses by design.

    The construction works in a split basis (torsion block with a
    divisibility chain, then free block) and conjugates by a random
    unimodular change of basis.  beta is built as a product of unit-triangular factors so that
    alpha = n * beta^-1 is integral, giving alpha . beta = n exactly.
    Returns (relation_rows, beta_rows, alpha_rows, n, factors).
    """
    # invariant factor chain, product capped at 1000
    factors = [rng.choice((2, 2, 3, 4, 5))]
    while len(factors) < 3 and rng.random() < 0.5:
        step = rng.choice((1, 1, 2, 3))
        nxt = factors[-1] * step
        if nxt * prod_int(factors) > 1000:
            break
        factors.append(nxt)
    k = len(factors)
    r = rng.randint(0, 2)
    g = k + r
    e = factors[-1]
    n = 1 + e * rng.randint(1, 3)

    # torsion block: unit triangulars with the below-diagonal entries
    # forced to multiples of f_i / f_j so the relation lattice is preserved
    lower = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(i):
            lower[i][j] = (factors[i] // factors[j]) * rng.randint(-2, 2)
    upper = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            upper[i][j] = rng.randint(-2, 2)
    b_t = mat_mul(lower, upper)

    # free block: unit triangulars around a diagonal of divisors of n
    if r:
        u1 = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        for i in range(r):
            for j in range(i):
                u1[i][j] = rng.randint(-2, 2)
        u2 = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                u2[i][j] = rng.randint(-2, 2)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        diag = [[rng.choice(divisors) if i == j else 0 for j in range(r)]
                for i in range(r)]
        b_f = mat_mul(u1, mat_mul(diag, u2))
    else:
        b_f = []

    beta0 = [[0] * g for _ in range(g)]
    for i in range(k):
        for j in range(k):
            beta0[i][j] = b_t[i][j]
        for j in range(r):
            beta0[i][k + j] = rng.randint(-2, 2)  # torsion <- free mixing
    for i in range(r):
        for j in range(r):
            beta0[k + i][k + j] = b_f[i][j]

    alpha0_frac = fraction_inverse(beta0)
    alpha0 = [[n * x for x in row] for row in alpha0_frac]
    assert all(x.denominator == 1 for row in alpha0 for x in row)
    alpha0 = [[int(x) for x in row] for row in alpha0]

    relations0 = [[factors[j] if i == j else 0 for j in range(k)]
                  for i in range(g)]

    p, pinv = random_unimodular(rng, g)
    relations = mat_mul(p, relations0)
    beta = mat_mul(p, mat_mul(beta0, pinv))
    alpha = mat_mul(p, mat_mul(alpha0, pinv))
    return relations, beta, alpha, n, factors


def prod_int(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def unstack_by_bytes(rep: int, width: int, slots: int) -> list[int]:
    """The ``slots`` runs of ``width`` bits of ``rep``, lowest first, each
    read from its own little-endian byte slice (``width`` a multiple of 8)."""
    n = width // 8
    raw = rep.to_bytes(n * slots, "little")
    return [int.from_bytes(raw[k * n:(k + 1) * n], "little")
            for k in range(slots)]
