"""Odometer towers: Z^d translation on the finite quotients Z^d / M^i Z^d.

An expanding integer matrix M (all eigenvalues outside the unit circle,
which forces |det M| >= 2) defines a tower of finite coset spaces
Omega_i = Z^d / M^i Z^d.  Z^d acts on each level by translation, levels
are connected by the canonical projections, and a nonzero vector leaves
M^i Z^d at some finite level (the escape level).

A tower keeps M, det M and adj M = det M * M^-1 from one exact pass of
:meth:`IntMatrix.charpoly_adjugate`, whose polynomial also decides
expansion by a Schur-Cohn reduction.  As M^i adj(M)^i = det^i I, v lies in
M^i Z^d exactly when adj(M)^i v = 0 mod det^i: the label adj(M)^i v mod
|det|^i names the coset of v, and the labels of a level form a group
isomorphic to it, of order |det|^i.  A tuple w is a label exactly when
det^i divides M^i w, and M^i w / det^i is then a representative of its
coset; translation and projection label that representative, which adds
labels and maps w to M w / det.  The first inexact division by det is the
escape level.  Every level is one orbit by theorem.

Vectors, translations and labels have ``int`` entries; any other entry,
a bool included, raises ``ValueError`` naming it.
"""

from __future__ import annotations

from ._record import FrozenRecord
from .abelian import BudgetExceeded, IntMatrix, _int_vector
# importable from here for the benchmark's trace hooks, which patch it by
# name; the tower itself builds no Smith form
from .abelian import _snf_full  # noqa: F401


class SingularMatrixError(ValueError):
    """Raised when a tower or check needs an invertible matrix."""


class LevelPoint(FrozenRecord):
    """A coset of M^level Z^d by its label adj(M)^level v mod |det M|^level."""

    __slots__ = ("level", "coords")

    def __init__(self, level: int, coords: tuple[int, ...]):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coords", coords)


class OdometerTower:
    """The tower of quotients Z^d / M^i Z^d for one matrix M, labelling
    the coset of v at level i by adj(M)^i v mod |det|^i; it keeps nothing
    per level, so threads may share it."""

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

    def reduce(self, i: int, vec) -> LevelPoint:
        """The label adj(M)^i vec mod |det|^i of the coset of ``vec``."""
        if i < 0:
            raise ValueError("level must be non-negative")
        vec = _int_vector(vec, self.dim)
        modulus = abs(self.det) ** i
        for _ in range(i):
            vec = tuple(x % modulus for x in self.adjugate.mul_vec(vec))
        return LevelPoint(i, tuple(x % modulus for x in vec))

    def zero_point(self, i: int) -> LevelPoint:
        return LevelPoint(i, (0,) * self.dim)

    def contains(self, i: int, vec) -> bool:
        """Whether ``vec`` lies in M^i Z^d: always at level 0 and for 0,
        otherwise when it has not escaped by level i (:func:`escape_level`)."""
        if i < 0:
            raise ValueError("level must be non-negative")
        vec = _int_vector(vec, self.dim)
        return i == 0 or not any(vec) or escape_level(self, vec, i) is None


def level_order(tower: OdometerTower, i: int) -> int:
    """|Z^d / M^i Z^d| = |det M^i| = |det M|^i."""
    if i < 0:
        raise ValueError("level must be non-negative")
    return abs(tower.det) ** i


def _representative(tower: OdometerTower, point: LevelPoint) -> tuple[int, ...]:
    """A vector v whose coset has the label w = ``point.coords``: v =
    M^i w / det^i, as adj(M)^i M^i = det^i I.  Such a v exists exactly when
    det^i divides M^i w; any other tuple labels no coset."""
    vec = _int_vector(point.coords, tower.dim)
    for _ in range(point.level):
        vec = tower.matrix.mul_vec(vec)
    scale = tower.det ** point.level
    if any(x % scale for x in vec):
        raise ValueError(f"{point.coords} labels no coset at level "
                         f"{point.level}")
    return tuple(x // scale for x in vec)


def act(tower: OdometerTower, gamma, point: LevelPoint) -> LevelPoint:
    """Translate a level point by the ambient vector ``gamma``: the label
    of v + gamma for the representative v of the point (labels add); a
    tuple that labels no coset raises ``ValueError``."""
    vec = _representative(tower, point)
    gamma = _int_vector(gamma, tower.dim)
    return tower.reduce(point.level, [x + g for x, g in zip(vec, gamma)])


def project(tower: OdometerTower, point: LevelPoint) -> LevelPoint:
    """The canonical map from level i + 1 to level i (i >= 0): the label at
    level i of the representative of the point, which is M w / det mod
    |det|^i for the label w; a tuple that labels no coset raises
    ``ValueError``."""
    if point.level < 1:
        raise ValueError("already at the bottom level")
    return tower.reduce(point.level - 1, _representative(tower, point))


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
    gamma = _int_vector(gamma, tower.dim)
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
