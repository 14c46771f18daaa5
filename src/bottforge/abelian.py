"""Finitely generated abelian groups, Smith normal form, direct-limit torsion.

A group is presented as Z^n modulo the column span of an integer relation
matrix.  Smith normal form U * M * V = D (U, V unimodular, D diagonal with
non-negative entries in a divisibility chain, zeros last) supplies invariant
factors, canonical coordinates, lattice membership and kernels; everything
runs on exact Python integers.

Stationary systems model a constant-shape sequence G -> G -> ... with an
endomorphism beta, optionally a left companion alpha with
alpha . beta = multiplication by n.  When additionally n acts as the
identity on the torsion subgroup, beta restricts to a bijection of the
torsion and the torsion of the direct limit is a copy of T(G) through
gamma |-> [gamma, 0].  The depth-bounded helpers realize those statements
as finite computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iterproduct
from math import prod


class HypothesisViolation(ValueError):
    """Raised when a stationary system fails a required hypothesis."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures))


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would exceed its element budget."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        checked = []
        for r in rows:
            row = []
            for x in r:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError(f"entry {x!r} is not an integer")
                row.append(int(x))
            checked.append(tuple(row))
        if not checked:
            raise ValueError("matrix needs at least one row")
        width = len(checked[0])
        if any(len(r) != width for r in checked):
            raise ValueError("ragged rows")
        return cls(tuple(checked))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n))
                         for i in range(n)))

    @classmethod
    def zero(cls, r: int, c: int) -> "IntMatrix":
        return cls(tuple((0,) * c for _ in range(r)))

    @classmethod
    def diagonal(cls, entries, r: int | None = None, c: int | None = None) -> "IntMatrix":
        entries = [int(x) for x in entries]
        n = len(entries)
        r = n if r is None else r
        c = n if c is None else c
        return cls(tuple(tuple(entries[i] if i == j and i < n else 0
                               for j in range(c)) for i in range(r)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ "
                             f"{other.nrows}x{other.ncols}")
        cols = list(zip(*other.rows)) if other.rows else []
        return IntMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.rows))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return self.mul(other)

    def mul_vec(self, vec) -> tuple[int, ...]:
        vec = tuple(vec)
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def scale(self, s: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(s * x for x in row) for row in self.rows))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return IntMatrix(tuple(a + b for a, b in zip(self.rows, other.rows)))

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            return 1
        a = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in r) for r in self.rows)


@dataclass(frozen=True)
class SmithDecomposition:
    """U * M * V = D with U, V unimodular and D in Smith normal form."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        n = min(self.D.nrows, self.D.ncols)
        return tuple(self.D.entry(i, i) for i in range(n))


def _snf_full(m: IntMatrix):
    """Return (U, D, V, Uinv) with U m V = D in Smith normal form.

    Pivoting picks the smallest nonzero absolute value in the remaining
    block; a divisibility fix-up folds offending rows into the pivot row
    until the diagonal forms a chain.  All four matrices are tracked through
    the same elementary operations, so the inverse comes out exact.
    """
    r, c = m.nrows, m.ncols
    d = [list(row) for row in m.rows]
    u = [list(row) for row in IntMatrix.identity(r).rows]
    uinv = [list(row) for row in IntMatrix.identity(r).rows]
    v = [list(row) for row in IntMatrix.identity(c).rows]

    def row_swap(a, b):
        d[a], d[b] = d[b], d[a]
        u[a], u[b] = u[b], u[a]
        for row in uinv:
            row[a], row[b] = row[b], row[a]

    def row_addmul(dst, src, q):
        # row dst += q * row src; inverse op adjusts column src of uinv
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]
        for row in uinv:
            row[src] -= q * row[dst]

    def row_negate(a):
        d[a] = [-x for x in d[a]]
        u[a] = [-x for x in u[a]]
        for row in uinv:
            row[a] = -row[a]

    def col_swap(a, b):
        for row in d:
            row[a], row[b] = row[b], row[a]
        for row in v:
            row[a], row[b] = row[b], row[a]

    def col_addmul(dst, src, q):
        # column dst += q * column src
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    steps = min(r, c)
    for t in range(steps):
        while True:
            # smallest nonzero absolute value in the trailing block
            best = None
            for i in range(t, r):
                for j in range(t, c):
                    x = d[i][j]
                    if x and (best is None or abs(x) < abs(d[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != t:
                row_swap(t, best[0])
            if best[1] != t:
                col_swap(t, best[1])
            if d[t][t] < 0:
                row_negate(t)
            pivot = d[t][t]
            dirty = False
            for i in range(t + 1, r):
                if d[i][t]:
                    row_addmul(i, t, -(d[i][t] // pivot))
                    if d[i][t]:
                        dirty = True
            for j in range(t + 1, c):
                if d[t][j]:
                    col_addmul(j, t, -(d[t][j] // pivot))
                    if d[t][j]:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if d[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(t, offender, 1)
        if t < steps and d[t][t] < 0:
            row_negate(t)

    def freeze(rows):
        # direct construction: a zero-column factor is a legal 0 x 0 matrix
        return IntMatrix(tuple(tuple(row) for row in rows))

    return freeze(u), freeze(d), freeze(v), freeze(uinv)


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforming matrices, exact over Z."""
    u, d, v, _ = _snf_full(m)
    return SmithDecomposition(U=u, D=d, V=v)


def kernel_columns(m: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel of ``m``, returned as matrix columns."""
    _, d, v, _ = _snf_full(m)
    steps = min(m.nrows, m.ncols)
    keep = [j for j in range(m.ncols)
            if j >= steps or d.entry(j, j) == 0]
    return IntMatrix(tuple(tuple(v.entry(i, j) for j in keep)
                           for i in range(m.ncols)))


class FgAbGroup:
    """Z^n modulo the column span of a relation matrix."""

    def __init__(self, relations: IntMatrix):
        if relations.nrows < 1:
            raise ValueError("need at least one generator")
        self.relations = relations
        self.generators = relations.nrows
        u, d, _, uinv = _snf_full(relations)
        self._u = u
        self._uinv = uinv
        steps = min(relations.nrows, relations.ncols)
        diag = [d.entry(i, i) for i in range(steps)]
        # pad with zeros: generators beyond the diagonal are free
        self._diag = tuple(diag + [0] * (self.generators - steps))

    @classmethod
    def free(cls, n: int) -> "FgAbGroup":
        return cls(IntMatrix.zero(n, 0))

    @classmethod
    def from_invariant_factors(cls, factors, free_rank: int = 0) -> "FgAbGroup":
        factors = [int(f) for f in factors]
        n = len(factors) + free_rank
        if n < 1:
            raise ValueError("trivial presentation needs at least one generator")
        return cls(IntMatrix.diagonal(factors, r=n, c=len(factors)))

    def invariant_factors(self) -> tuple[int, ...]:
        """Non-unit torsion factors in chain order, then one 0 per free rank."""
        torsion = tuple(d for d in self._diag if d > 1)
        zeros = tuple(0 for d in self._diag if d == 0)
        return torsion + zeros

    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self._diag if d > 1)

    def torsion_order(self) -> int:
        return prod(self.torsion(), start=1)

    def exponent(self) -> int:
        t = self.torsion()
        return t[-1] if t else 1

    def free_rank(self) -> int:
        return sum(1 for d in self._diag if d == 0)

    def contains_in_relations(self, vec) -> bool:
        """Whether an ambient vector lies in the relation lattice."""
        w = self._u.mul_vec(vec)
        for x, dd in zip(w, self._diag):
            if dd == 0:
                if x != 0:
                    return False
            elif x % dd:
                return False
        return True

    def coords(self, vec) -> tuple[int, ...]:
        """Canonical coordinates of the class of ``vec``.

        Entry i is taken mod the i-th diagonal invariant (exact for free
        positions), so equal classes get equal tuples.
        """
        w = self._u.mul_vec(vec)
        return tuple(x % dd if dd else x for x, dd in zip(w, self._diag))

    def is_endomorphism(self, b: IntMatrix) -> bool:
        """Whether the generator matrix ``b`` preserves the relation lattice."""
        n = self.generators
        if b.nrows != n or b.ncols != n:
            return False
        for j in range(self.relations.ncols):
            if not self.contains_in_relations(b.mul_vec(self.relations.col(j))):
                return False
        return True

    def torsion_positions(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self._diag) if d > 1)

    def torsion_elements(self, budget: int = 10_000):
        """Yield canonical coordinate tuples of all torsion elements."""
        order = self.torsion_order()
        if order > budget:
            raise BudgetExceeded(f"torsion order {order} exceeds budget {budget}")
        positions = self.torsion_positions()
        n = self.generators
        for combo in _iterproduct(*(range(self._diag[p]) for p in positions)):
            full = [0] * n
            for p, val in zip(positions, combo):
                full[p] = val
            yield tuple(full)

    def element_from_coords(self, coords) -> tuple[int, ...]:
        """An ambient representative of the class with given coordinates."""
        return self._uinv.mul_vec(coords)


def torsion_subgroup(group: FgAbGroup) -> list[int]:
    """Invariant factors of the torsion subgroup, in divisibility order."""
    return list(group.torsion())


@dataclass
class StationarySystem:
    """Constant-shape directed system over one group.

    ``beta`` maps each stage into the next; ``alpha`` (optional) comes back
    so that alpha . beta is multiplication by ``multiplier``.  In JSON form
    the multiplier is the field "n".
    """

    group: FgAbGroup
    beta: IntMatrix
    multiplier: int
    alpha: IntMatrix | None = None

    def hypothesis_failures(self, require_alpha: bool = False) -> list[str]:
        g = self.group
        n = g.generators
        fails = []
        if self.beta.nrows != n or self.beta.ncols != n:
            fails.append(f"beta is {self.beta.nrows}x{self.beta.ncols}, "
                         f"expected {n}x{n}")
            return fails
        if not g.is_endomorphism(self.beta):
            fails.append("beta does not preserve the relation lattice")
        if self.multiplier < 1:
            fails.append(f"multiplier {self.multiplier} is not positive")
        if self.alpha is None:
            if require_alpha:
                fails.append("alpha is required but missing")
        else:
            if self.alpha.nrows != n or self.alpha.ncols != n:
                fails.append(f"alpha is {self.alpha.nrows}x{self.alpha.ncols}, "
                             f"expected {n}x{n}")
                return fails
            if not g.is_endomorphism(self.alpha):
                fails.append("alpha does not preserve the relation lattice")
            else:
                ab = self.alpha.mul(self.beta)
                scaled = IntMatrix.identity(n).scale(self.multiplier)
                for j in range(n):
                    diff = tuple(a - b for a, b in zip(ab.col(j), scaled.col(j)))
                    if not g.contains_in_relations(diff):
                        fails.append(
                            f"alpha.beta differs from multiplication by "
                            f"{self.multiplier} on generator {j + 1}")
                        break
        e = g.exponent()
        if self.multiplier >= 1 and (self.multiplier - 1) % e:
            fails.append(
                f"multiplier {self.multiplier} is not 1 mod torsion exponent {e}")
        return fails

    def validate(self, require_alpha: bool = False) -> None:
        fails = self.hypothesis_failures(require_alpha=require_alpha)
        if fails:
            raise HypothesisViolation(fails)


def beta_on_coords(group: FgAbGroup, beta: IntMatrix) -> IntMatrix:
    """The matrix of ``beta`` in canonical coordinates: U . beta . U^-1."""
    return group._u.mul(beta).mul(group._uinv)


def check_beta_torsion_iso(system: StationarySystem) -> bool:
    """Whether beta restricts to a bijection of the torsion subgroup.

    Always true once the hypotheses hold: beta, an endomorphism, maps T(G)
    into itself, and alpha . beta = n is the identity on T(G) because n is
    1 modulo the torsion exponent, so beta is injective on the finite group
    T(G), hence bijective.  The hypotheses (alpha present, alpha . beta =
    x n, n = 1 on torsion) are verified first; violations raise
    :class:`HypothesisViolation`.
    """
    system.validate(require_alpha=True)
    return True


def direct_limit_torsion(system: StationarySystem) -> list[int]:
    """Invariant factors of the torsion of the direct limit.

    Under the validated hypotheses the limit torsion is a copy of T(G),
    embedded by gamma |-> [gamma, 0], so the factors coincide with
    :func:`torsion_subgroup` of the stage group.
    """
    system.validate(require_alpha=True)
    return torsion_subgroup(system.group)


def _stage_composite(betas: list[IntMatrix], start: int, depth: int, n: int) -> IntMatrix:
    """Product of ``depth`` maps leaving stage ``start``, first map applied first.

    The list is read cyclically, so a singleton list models a constant
    system with composite beta^depth.
    """
    comp = IntMatrix.identity(n)
    for j in range(depth):
        comp = betas[(start + j) % len(betas)].mul(comp)
    return comp


def limit_torsion_bound(group: FgAbGroup, betas, depth: int) -> tuple[int, list[int]]:
    """Torsion bound check along finite stages of a directed system.

    For stage k the elements killed on the way into the limit form the
    lattice { x : C x in relations } with C the composite of the next
    ``depth`` maps; the stage image is Z^n modulo relations plus that
    lattice.  Returns (|T(G)|, stage torsion orders for k = 0..depth) and
    raises AssertionError if any stage exceeded the bound, which the
    embedding [x] |-> [C x] of stage torsion into T(G) rules out.
    """
    betas = list(betas)
    if not betas:
        raise ValueError("need at least one beta")
    if depth < 1:
        raise ValueError("depth must be positive")
    n = group.generators
    for i, b in enumerate(betas):
        if not group.is_endomorphism(b):
            raise HypothesisViolation(
                [f"beta[{i}] does not preserve the relation lattice"])
    bound = group.torsion_order()
    m = group.relations
    orders = []
    for k in range(depth + 1):
        comp = _stage_composite(betas, k, depth, n)
        # kernel of [comp | -relations], x block: { x : comp x in relations }
        stacked = comp.hstack(m.scale(-1))
        kern = kernel_columns(stacked)
        killed = IntMatrix(tuple(kern.rows[i] for i in range(n)))
        quotient = FgAbGroup(m.hstack(killed))
        order = quotient.torsion_order()
        if order > bound:
            raise AssertionError(
                f"stage {k} torsion order {order} exceeds bound {bound}")
        orders.append(order)
    return bound, orders


def exponent_plus_one_identity(factors, e: int) -> bool:
    """Whether multiplication by e + 1 is the identity on the group with the
    given invariant factors; true exactly when every factor divides e."""
    if e < 1:
        raise ValueError("e must be a positive integer")
    factors = [int(f) for f in factors]
    if any(f < 1 for f in factors):
        raise ValueError("invariant factors must be positive")
    return all(e % f == 0 for f in factors)
