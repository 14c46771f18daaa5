"""Odometer towers: Z^d translation on the finite quotients Z^d / M^i Z^d.

An expanding integer matrix M (all eigenvalues outside the unit circle,
which forces |det M| >= 2) defines a tower of finite coset spaces
Omega_i = Z^d / M^i Z^d of order |det M|^i.  Z^d acts on each level by
translation, levels are connected by the canonical projections, and a
nonzero vector leaves M^i Z^d at some finite level (the escape level).

Each level stores a Smith decomposition of M^i, so cosets get canonical
residue coordinates.  One Faddeev-LeVerrier pass gives the characteristic
polynomial and the adjugate of M in exact integers: the polynomial decides
expansion by a Schur-Cohn reduction, and the adjugate finds escape levels
without a Smith form per level.  Every level is one orbit by theorem.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .abelian import BudgetExceeded, IntMatrix, _snf_full


class SingularMatrixError(ValueError):
    """Raised when a tower or check needs an invertible matrix."""


def _charpoly_adjugate(matrix: IntMatrix) -> tuple[list[int], IntMatrix]:
    """Characteristic polynomial and adjugate of a square integer matrix.

    Faddeev-LeVerrier: N_0 = 0, N_k = M N_{k-1} + c_{n-k+1} I and
    c_{n-k} = -tr(M N_k) / k, where the c_j are the coefficients of
    det(zI - M).  They are integers, so every division is exact.  Returns
    ``[1, c_{n-1}, ..., c_0]`` (c_0 = (-1)^n det M) and adj M = (-1)^(n-1) N_n.
    """
    n = matrix.nrows
    coeffs = [1]
    prod = IntMatrix.zero(n, n)
    for k in range(1, n + 1):
        nk = IntMatrix(tuple(
            tuple(x + coeffs[-1] if r == c else x for c, x in enumerate(row))
            for r, row in enumerate(prod.rows)))
        prod = matrix.mul(nk)
        coeffs.append(-sum(prod.entry(t, t) for t in range(n)) // k)
    return coeffs, nk.scale((-1) ** (n - 1))


@dataclass(frozen=True)
class LevelPoint:
    """A coset of M^level Z^d in canonical residue coordinates."""

    level: int
    coords: tuple[int, ...]


@dataclass(frozen=True)
class _Level:
    power: IntMatrix          # M^level
    diag: tuple[int, ...]     # invariant factors of M^level, all positive
    u: IntMatrix
    uinv: IntMatrix
    order: int


class OdometerTower:
    """Lazy tower of quotients Z^d / M^i Z^d for one matrix M.

    Levels are computed on demand and cached; access is serialized by a
    lock so towers can be shared between threads.
    """

    def __init__(self, matrix: IntMatrix):
        if matrix.nrows != matrix.ncols or matrix.nrows < 1:
            raise ValueError("tower matrix must be square and nonempty")
        coeffs, adjugate = _charpoly_adjugate(matrix)
        det = (-1) ** matrix.nrows * coeffs[-1]
        if det == 0:
            raise SingularMatrixError("tower matrix is singular")
        if abs(det) < 2:
            raise ValueError(
                f"|det| = {abs(det)} < 2, quotients would not grow")
        self.dim = matrix.nrows
        self.matrix = matrix
        self.det = det
        self.adjugate = adjugate  # det * M^-1
        self._levels: dict[int, _Level] = {}
        self._powers: dict[int, IntMatrix] = {0: IntMatrix.identity(self.dim)}
        self._lock = threading.Lock()

    def _power(self, i: int) -> IntMatrix:
        top = max(self._powers)
        while top < i:
            self._powers[top + 1] = self.matrix.mul(self._powers[top])
            top += 1
        return self._powers[i]

    def level(self, i: int) -> _Level:
        if i < 0:
            raise ValueError("level must be non-negative")
        with self._lock:
            cached = self._levels.get(i)
            if cached is not None:
                return cached
            power = self._power(i)
            u, d, _, uinv = _snf_full(power)
            diag = tuple(d.entry(t, t) for t in range(self.dim))
            if any(x <= 0 for x in diag):
                raise SingularMatrixError(f"M^{i} lost rank")
            order = 1
            for x in diag:
                order *= x
            lvl = _Level(power=power, diag=diag, u=u, uinv=uinv, order=order)
            self._levels[i] = lvl
            return lvl

    def reduce(self, i: int, vec) -> LevelPoint:
        """Canonical coordinates of the coset of ``vec`` at level i."""
        lvl = self.level(i)
        w = lvl.u.mul_vec(vec)
        return LevelPoint(i, tuple(x % dd for x, dd in zip(w, lvl.diag)))

    def zero_point(self, i: int) -> LevelPoint:
        return LevelPoint(i, (0,) * self.dim)

    def contains(self, i: int, vec) -> bool:
        """Whether ``vec`` lies in M^i Z^d."""
        lvl = self.level(i)
        w = lvl.u.mul_vec(vec)
        return all(x % dd == 0 for x, dd in zip(w, lvl.diag))


def level_order(tower: OdometerTower, i: int) -> int:
    """|det M|^i, verified against the residue count from the level data."""
    lvl = tower.level(i)
    expected = abs(tower.det) ** i
    if lvl.order != expected:
        raise AssertionError(
            f"level {i} order {lvl.order} != |det|^i = {expected}")
    return lvl.order


def act(tower: OdometerTower, gamma, point: LevelPoint) -> LevelPoint:
    """Translate a level point by the ambient vector ``gamma``."""
    lvl = tower.level(point.level)
    shift = lvl.u.mul_vec(gamma)
    coords = tuple((c + s) % dd
                   for c, s, dd in zip(point.coords, shift, lvl.diag))
    return LevelPoint(point.level, coords)


def project(tower: OdometerTower, point: LevelPoint) -> LevelPoint:
    """The canonical map from level i + 1 to level i (i >= 0)."""
    if point.level < 1:
        raise ValueError("already at the bottom level")
    lvl = tower.level(point.level)
    vec = lvl.uinv.mul_vec(point.coords)
    return tower.reduce(point.level - 1, vec)


def is_transitive(tower: OdometerTower, i: int, budget: int = 1_000_000) -> bool:
    """Whether the translation action reaches every coset at level i.

    Always true: Z^d acts on its own quotient Z^d / M^i Z^d by translation,
    so the orbit of 0 is the whole level.  The level order is still checked
    against |det M|^i, and :class:`BudgetExceeded` is raised if the level
    has more cosets than ``budget``.
    """
    order = level_order(tower, i)
    if order > budget:
        raise BudgetExceeded(f"level {i} has {order} cosets, budget {budget}")
    return True


def escape_level(tower: OdometerTower, gamma, max_i: int) -> int | None:
    """Smallest i <= max_i with gamma outside M^i Z^d, or None if not found.

    gamma lies in M^i Z^d exactly when M^-1 gamma = adj(M) gamma / det is
    integral and lies in M^(i-1) Z^d, so the first inexact division by det
    marks the escape level.
    """
    gamma = tuple(int(x) for x in gamma)
    if all(x == 0 for x in gamma):
        raise ValueError("gamma must be nonzero")
    if max_i < 1:
        raise ValueError("max_i must be positive")
    vec = gamma
    for i in range(1, max_i + 1):
        scaled = tower.adjugate.mul_vec(vec)
        if any(x % tower.det for x in scaled):
            return i
        vec = tuple(x // tower.det for x in scaled)
    return None


def expanding_check(matrix: IntMatrix) -> bool:
    """Whether every eigenvalue of ``matrix`` lies outside the unit circle.

    Exact Schur-Cohn reduction: the roots of q(z) = z^n chi_M(1/z) are the
    inverse eigenvalues.  With q = a_0 + ... + a_m z^m, all of them lie in
    the open unit disc iff |a_m| > |a_0| and they all do for the degree
    m - 1 polynomial (a_m q(z) - a_0 z^m q(1/z)) / z.
    """
    if matrix.nrows != matrix.ncols or matrix.nrows < 1:
        raise ValueError("matrix must be square and nonempty")
    # chi_M read leading coefficient first is q read constant term first
    q, _ = _charpoly_adjugate(matrix)
    if q[-1] == 0:
        raise SingularMatrixError("matrix is singular")
    while len(q) > 1:
        low, high = q[0], q[-1]
        if abs(high) <= abs(low):
            return False
        q = [high * x - low * y for x, y in zip(q[1:], reversed(q[:-1]))]
    return True
