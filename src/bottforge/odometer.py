"""Odometer towers: Z^d translation on the finite quotients Z^d / M^i Z^d.

An expanding integer matrix M (all eigenvalues outside the unit circle,
which forces |det M| >= 2) defines a tower of finite coset spaces
Omega_i = Z^d / M^i Z^d.  Z^d acts on each level by translation, levels
are connected by the canonical projections, and a nonzero vector leaves
M^i Z^d at some finite level (the escape level).

Each level is the abelian group Z^d / M^i Z^d, an :class:`FgAbGroup` with
relation matrix M^i, whose coordinates give cosets canonical residues; its
order is |det M|^i by theorem.  The characteristic polynomial and the
adjugate of M come from :meth:`IntMatrix.charpoly_adjugate` in exact
integers: the polynomial decides expansion by a Schur-Cohn reduction, and
the adjugate finds escape levels, and so membership in M^i Z^d, without a
Smith form per level.  Every level is one orbit by theorem.
"""

from __future__ import annotations

import threading

from ._record import FrozenRecord
from .abelian import BudgetExceeded, FgAbGroup, IntMatrix
# importable from here for the benchmark's trace hooks, which patch it by
# name; the tower itself no longer calls it
from .abelian import _snf_full  # noqa: F401


class SingularMatrixError(ValueError):
    """Raised when a tower or check needs an invertible matrix."""


class LevelPoint(FrozenRecord):
    """A coset of M^level Z^d in canonical residue coordinates."""

    __slots__ = ("level", "coords")

    def __init__(self, level: int, coords: tuple[int, ...]):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coords", coords)


class OdometerTower:
    """Lazy tower of quotients Z^d / M^i Z^d for one matrix M.

    Levels are computed on demand and cached; access is serialized by a
    lock so towers can be shared between threads.
    """

    def __init__(self, matrix: IntMatrix):
        if matrix.nrows != matrix.ncols or matrix.nrows < 1:
            raise ValueError("tower matrix must be square and nonempty")
        coeffs, adjugate = matrix.charpoly_adjugate()
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
        self._levels: dict[int, FgAbGroup] = {}
        self._powers: dict[int, IntMatrix] = {0: IntMatrix.identity(self.dim)}
        self._lock = threading.Lock()

    def _power(self, i: int) -> IntMatrix:
        top = max(self._powers)
        while top < i:
            self._powers[top + 1] = self.matrix.mul(self._powers[top])
            top += 1
        return self._powers[i]

    def level(self, i: int) -> FgAbGroup:
        """The level group Z^d / M^i Z^d, relation matrix M^i."""
        if i < 0:
            raise ValueError("level must be non-negative")
        with self._lock:
            group = self._levels.get(i)
            if group is None:
                group = self._levels[i] = FgAbGroup(self._power(i))
            return group

    def reduce(self, i: int, vec) -> LevelPoint:
        """Canonical coordinates of the coset of ``vec`` at level i."""
        return LevelPoint(i, self.level(i).coords(vec))

    def zero_point(self, i: int) -> LevelPoint:
        return LevelPoint(i, (0,) * self.dim)

    def contains(self, i: int, vec) -> bool:
        """Whether ``vec`` lies in M^i Z^d: always at level 0 and for 0,
        otherwise when it has not escaped by level i (:func:`escape_level`)."""
        if i < 0:
            raise ValueError("level must be non-negative")
        if len(vec := tuple(vec)) != self.dim:
            raise ValueError("vector length mismatch")
        return i == 0 or not any(vec) or escape_level(self, vec, i) is None


def level_order(tower: OdometerTower, i: int) -> int:
    """|Z^d / M^i Z^d| = |det M^i| = |det M|^i."""
    if i < 0:
        raise ValueError("level must be non-negative")
    return abs(tower.det) ** i


def act(tower: OdometerTower, gamma, point: LevelPoint) -> LevelPoint:
    """Translate a level point by the ambient vector ``gamma``."""
    vec = tower.level(point.level).element_from_coords(point.coords)
    return tower.reduce(point.level,
                        [x + g for x, g in zip(vec, gamma, strict=True)])


def project(tower: OdometerTower, point: LevelPoint) -> LevelPoint:
    """The canonical map from level i + 1 to level i (i >= 0)."""
    if point.level < 1:
        raise ValueError("already at the bottom level")
    vec = tower.level(point.level).element_from_coords(point.coords)
    return tower.reduce(point.level - 1, vec)


def is_transitive(tower: OdometerTower, i: int, budget: int = 1_000_000) -> bool:
    """Whether the translation action reaches every coset at level i.

    Always true: Z^d acts on its own quotient Z^d / M^i Z^d by translation,
    so the orbit of 0 is the whole level.  :class:`BudgetExceeded` is
    raised if the level has more than ``budget`` cosets.
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
    q, _ = matrix.charpoly_adjugate()
    if q[-1] == 0:
        raise SingularMatrixError("matrix is singular")
    while len(q) > 1:
        low, high = q[0], q[-1]
        if abs(high) <= abs(low):
            return False
        q = [high * x - low * y for x, y in zip(q[1:], reversed(q[:-1]))]
    return True
