"""Finitely generated abelian groups, Smith normal form, direct-limit torsion.

A group is presented as Z^n modulo the column span of an integer relation
matrix.  Smith normal form U * M * V = D (U, V unimodular, D diagonal with
non-negative entries in a divisibility chain, zeros last) supplies invariant
factors, canonical coordinates, lattice membership and kernels; one
Faddeev-LeVerrier pass, :meth:`IntMatrix.charpoly_adjugate`, gives the
characteristic polynomial, adjugate and determinant, in exact integers.

Stationary systems model a constant-shape sequence G -> G -> ... with an
endomorphism beta, optionally a left companion alpha with
alpha . beta = multiplication by n.  When additionally n acts as the
identity on the torsion subgroup, beta restricts to a bijection of the
torsion and the torsion of the direct limit is a copy of T(G) through
gamma |-> [gamma, 0].  The depth-bounded helpers realize those statements
as finite computations.
"""

from __future__ import annotations

from itertools import product as _iterproduct
from math import prod

from ._record import FrozenRecord, Record


class HypothesisViolation(ValueError):
    """Raised when a stationary system fails a required hypothesis."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures))


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would exceed its element budget."""


def _int_vector(vec, n: int | None = None) -> tuple[int, ...]:
    """``vec`` as a tuple of ints, of length ``n`` when given; an entry
    that is not an int (a bool is not) raises ``ValueError`` naming it."""
    vec = tuple(vec)
    if n is not None and len(vec) != n:
        raise ValueError("vector length mismatch")
    for x in vec:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"entry {x!r} is not an integer")
    return tuple(map(int, vec))


class IntMatrix(FrozenRecord):
    """Immutable integer matrix stored as a tuple of row tuples."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        checked = [_int_vector(r) for r in rows]
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

    def charpoly_adjugate(self) -> tuple[list[int], "IntMatrix"]:
        """Characteristic polynomial and adjugate by Faddeev-LeVerrier.

        N_0 = 0, N_k = M N_{k-1} + c_{n-k+1} I and c_{n-k} = -tr(M N_k) / k,
        where the c_j are the coefficients of det(zI - M).  They are
        integers, so every division is exact.  Returns
        ``[1, c_{n-1}, ..., c_0]`` (c_0 = (-1)^n det M) and
        adj M = (-1)^(n-1) N_n.
        """
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        coeffs = [1]
        nk = mn = IntMatrix.zero(n, n)
        for k in range(1, n + 1):
            nk = IntMatrix(tuple(
                tuple(x + coeffs[-1] if r == c else x for c, x in enumerate(row))
                for r, row in enumerate(mn.rows)))
            mn = self.mul(nk)
            coeffs.append(-sum(mn.entry(t, t) for t in range(n)) // k)
        return coeffs, nk.scale((-1) ** (n - 1))

    def det(self) -> int:
        """Exact determinant, (-1)^n times the constant term of
        :meth:`charpoly_adjugate`; 1 for a 0 x 0 matrix."""
        return (-1) ** self.nrows * self.charpoly_adjugate()[0][-1]


class SmithDecomposition(FrozenRecord):
    """U * M * V = D with U, V unimodular and D in Smith normal form."""

    __slots__ = ("U", "D", "V")

    def __init__(self, U: IntMatrix, D: IntMatrix, V: IntMatrix):
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "V", V)

    def diagonal(self) -> tuple[int, ...]:
        n = min(self.D.nrows, self.D.ncols)
        return tuple(self.D.entry(i, i) for i in range(n))


def _snf_full(m: IntMatrix):
    """Return (U, D, V) with U m V = D in Smith normal form.

    Pivoting picks the smallest nonzero absolute value in the remaining
    block; a divisibility fix-up folds offending rows into the pivot row
    until the diagonal forms a chain.  Every elementary operation is one
    row operation on each tracked object: D and U share their rows as
    ``[D | U]``, and V is kept transposed, so a column operation on V acts
    on a row too.  U^-1 is not tracked; :meth:`FgAbGroup.element_from_coords`
    forms it where it is read.
    """
    r, c = m.nrows, m.ncols
    d = [list(row + e)  # [D | U]
         for row, e in zip(m.rows, IntMatrix.identity(r).rows)]
    v_t = [list(row) for row in IntMatrix.identity(c).rows]

    def row_addmul(dst, src, q):
        # row dst += q * row src
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]

    def col_swap(a, b):
        for row in d:
            row[a], row[b] = row[b], row[a]
        v_t[a], v_t[b] = v_t[b], v_t[a]

    def col_addmul(dst, src, q):
        # column dst += q * column src
        for row in d:
            row[dst] += q * row[src]
        v_t[dst] = [x + q * y for x, y in zip(v_t[dst], v_t[src])]

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
                d[t], d[best[0]] = d[best[0]], d[t]
            if best[1] != t:
                col_swap(t, best[1])
            if d[t][t] < 0:
                d[t] = [-x for x in d[t]]
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

    # direct construction: a zero-column factor is a legal 0 x 0 matrix
    return (IntMatrix(tuple(tuple(row[c:]) for row in d)),
            IntMatrix(tuple(tuple(row[:c]) for row in d)),
            IntMatrix(tuple(zip(*v_t))))


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforming matrices, exact over Z."""
    return SmithDecomposition(*_snf_full(m))


def kernel_columns(m: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel of ``m``, returned as matrix columns."""
    _, d, v = _snf_full(m)
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
        u, d, _ = _snf_full(relations)
        self._u = u
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
        return self.torsion() + (0,) * self.free_rank()

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
        """Whether ``vec`` lies in the relation lattice: coordinates all 0."""
        return not any(self.coords(vec))

    def coords(self, vec) -> tuple[int, ...]:
        """Canonical coordinates of the class of ``vec``.

        Entry i is taken mod the i-th diagonal invariant (exact for free
        positions), so equal classes get equal tuples.
        """
        w = self._u.mul_vec(_int_vector(vec, self.generators))
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

    def torsion_elements(self, budget: int = 10_000):
        """Yield canonical coordinate tuples of all torsion elements."""
        order = self.torsion_order()
        if order > budget:
            raise BudgetExceeded(f"torsion order {order} exceeds budget {budget}")
        positions = [i for i, d in enumerate(self._diag) if d > 1]
        n = self.generators
        for combo in _iterproduct(*(range(self._diag[p]) for p in positions)):
            full = [0] * n
            for p, val in zip(positions, combo):
                full[p] = val
            yield tuple(full)

    def element_from_coords(self, coords) -> tuple[int, ...]:
        """An ambient representative of the class with given coordinates:
        U^-1 coords, for the U of :meth:`coords`.  As det U = +-1, U^-1 is
        det(U) adj(U), and each call forms it by one Faddeev-LeVerrier
        pass over U (:meth:`IntMatrix.charpoly_adjugate`)."""
        coords = _int_vector(coords, self.generators)
        poly, adj = self._u.charpoly_adjugate()
        det = (-1) ** self.generators * poly[-1]
        return tuple(det * x for x in adj.mul_vec(coords))


def torsion_subgroup(group: FgAbGroup) -> list[int]:
    """Invariant factors of the torsion subgroup, in divisibility order."""
    return list(group.torsion())


class StationarySystem(Record):
    """Constant-shape directed system over one group.

    ``beta`` maps each stage into the next; ``alpha`` comes back so that
    alpha . beta is multiplication by ``multiplier``.  In JSON form the
    multiplier is the field "n".  A system may be built without alpha, as
    a file may lack it, but it then fails :meth:`validate`: the limit
    torsion results rest on alpha.
    """

    __slots__ = ("group", "beta", "multiplier", "alpha")
    __hash__ = None  # mutable

    def __init__(self, group: FgAbGroup, beta: IntMatrix, multiplier: int,
                 alpha: IntMatrix | None = None):
        self.group = group
        self.beta = beta
        self.multiplier = multiplier
        self.alpha = alpha

    def hypothesis_failures(self) -> list[str]:
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

    def validate(self) -> None:
        fails = self.hypothesis_failures()
        if fails:
            raise HypothesisViolation(fails)


def check_beta_torsion_iso(system: StationarySystem) -> bool:
    """Whether beta restricts to a bijection of the torsion subgroup.

    Always true once the hypotheses hold: beta, an endomorphism, maps T(G)
    into itself, and alpha . beta = n is the identity on T(G) because n is
    1 modulo the torsion exponent, so beta is injective on the finite group
    T(G), hence bijective.  The hypotheses (alpha present, alpha . beta =
    x n, n = 1 on torsion) are verified first; violations raise
    :class:`HypothesisViolation`.
    """
    system.validate()
    return True


def direct_limit_torsion(system: StationarySystem) -> list[int]:
    """Invariant factors of the torsion of the direct limit.

    Under the validated hypotheses the limit torsion is a copy of T(G),
    embedded by gamma |-> [gamma, 0], so the factors coincide with
    :func:`torsion_subgroup` of the stage group.
    """
    system.validate()
    return torsion_subgroup(system.group)


def limit_torsion_bound(group: FgAbGroup, beta: IntMatrix,
                        depth: int) -> tuple[int, list[int]]:
    """Torsion bound check along the first stages of the stationary system
    of ``beta`` over ``group``.

    For stage k the elements killed on the way into the limit form the
    lattice { x : C x in relations } with C = beta^depth, the composite of
    the next ``depth`` maps; the stage image is Z^n modulo relations plus
    that lattice.  Every stage composes the same maps, so all have one
    torsion order.  Returns (|T(G)|, stage torsion orders for
    k = 0..depth) and raises AssertionError if the stages exceed the
    bound, which the embedding [x] |-> [C x] of stage torsion into T(G)
    rules out.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if not group.is_endomorphism(beta):
        raise HypothesisViolation(["beta does not preserve the relation lattice"])
    n = group.generators
    comp = beta  # beta^depth, squaring along the bits of depth
    for bit in bin(depth)[3:]:
        comp = beta.mul(comp.mul(comp)) if bit == "1" else comp.mul(comp)
    bound = group.torsion_order()
    m = group.relations
    # kernel of [comp | -relations], x block: { x : comp x in relations }
    kern = kernel_columns(comp.hstack(m.scale(-1)))
    killed = IntMatrix(tuple(kern.rows[i] for i in range(n)))
    order = FgAbGroup(m.hstack(killed)).torsion_order()
    if order > bound:
        raise AssertionError(
            f"stage torsion order {order} exceeds bound {bound}")
    return bound, [order] * (depth + 1)
