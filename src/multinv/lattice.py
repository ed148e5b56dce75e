"""Exact integer and rational linear algebra for lattice computations.

Conventions used throughout the package:

* vectors are rows, and matrices act on the right: ``v -> v * m``;
* all arithmetic is exact, floats never appear;
* sublattices are stored in a canonical Hermite form (lower triangular,
  positive pivots) so that equal sublattices have identical bases.

Everything rests on two integer primitives: `_echelon`, a fraction-free
(Bareiss) Gauss-Jordan elimination behind determinants, ranks, unimodular
inverses and linear solves, and `_row_step`, a unimodular two-row step
behind the Smith and Hermite forms.  Fractions appear only in rational
answers: solutions, coordinates and weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .errors import NotContained


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b) and g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class IntMatrix:
    """Immutable matrix of arbitrary-precision integers.

    >>> m = IntMatrix([[2, 0], [0, 3]])
    >>> (m * m).entries
    ((4, 0), (0, 9))
    >>> m.det()
    6
    """

    __slots__ = ("entries", "nrows", "ncols")

    def __init__(self, entries, ncols: int | None = None):
        rows = tuple(tuple(row) for row in entries)
        if rows:
            width = len(rows[0])
            if ncols is not None and ncols != width:
                raise ValueError("ncols does not match row length")
            ncols = width
            for row in rows:
                if len(row) != ncols:
                    raise ValueError("ragged matrix")
                for x in row:
                    if not isinstance(x, int):
                        raise TypeError(f"integer entry expected, got {x!r}")
        elif ncols is None:
            raise ValueError("a matrix with no rows needs an explicit ncols")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls([[0] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def hstack(cls, mats) -> "IntMatrix":
        mats = list(mats)
        nrows = mats[0].nrows
        rows = [sum((m.entries[i] for m in mats), ()) for i in range(nrows)]
        return cls(rows, ncols=sum(m.ncols for m in mats))

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ot = tuple(zip(*other.entries)) if other.entries else ()
        rows = [
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.entries
        ]
        return IntMatrix(rows, ncols=other.ncols)

    def __add__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        rows = [
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        ]
        return IntMatrix(rows, ncols=self.ncols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return IntMatrix(
            [tuple(-x for x in row) for row in self.entries], ncols=self.ncols
        )

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self.entries == other.entries

    def __hash__(self):
        return hash((self.ncols, self.entries))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]!r})"

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)) if self.entries else (),
                         ncols=self.nrows)

    def apply(self, v):
        """Row vector v times this matrix; entries of v may be Fractions."""
        if len(v) != self.nrows:
            raise ValueError("vector length mismatch")
        return tuple(
            sum(v[i] * self.entries[i][j] for i in range(self.nrows))
            for j in range(self.ncols)
        )

    def is_identity(self) -> bool:
        return self.nrows == self.ncols and self == IntMatrix.identity(self.nrows)

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        _, pivots, scale, sign = _echelon(self.entries, self.ncols)
        return sign * scale if len(pivots) == self.nrows else 0

    def rank(self) -> int:
        """Rank over the rationals."""
        return len(_echelon(self.entries, self.ncols)[1])

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse; requires det = +-1 so the inverse is integral."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        aug = [row + tuple(int(i == j) for j in range(n))
               for i, row in enumerate(self.entries)]
        rows, pivots, scale, _ = _echelon(aug, n)
        if len(pivots) < n:
            raise ValueError("singular matrix")
        if scale not in (1, -1):
            raise ValueError("matrix is not unimodular")
        return IntMatrix([[scale * x for x in row[n:]] for row in rows],
                         ncols=n)


def _echelon(rows, ncols: int):
    """Fraction-free Gauss-Jordan elimination (Bareiss exact division) on
    the first `ncols` columns of integer `rows`; further columns (an
    augmented part) ride along.

    Returns (rows, pivots, scale, sign): the eliminated integer rows,
    pivot rows first; the list of pivot columns; the last pivot, which
    every pivot row carries in its pivot column; and the sign of the row
    permutation.  Divided by `scale`, the rows are the unique reduced
    row echelon form, and for a square matrix of full rank
    sign * scale is the determinant.
    """
    rows = [list(row) for row in rows]
    pivots = []
    scale, sign = 1, 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        pivot_row = rows[r]
        p = pivot_row[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i == r or (not f and p == scale):
                continue
            rows[i] = [(p * a - f * b) // scale
                       for a, b in zip(row, pivot_row)]
        scale = p
        pivots.append(c)
    return rows, pivots, scale, sign


def _row_step(i: int, k: int, col: int, rows, *companions) -> None:
    """Unimodular step on rows i and k that clears rows[k][col] and
    leaves a gcd of the two old entries in rows[i][col]; the same step
    is applied to the companion matrices (lists of rows)."""
    a, b = rows[i][col], rows[k][col]
    if b == 0:
        return
    if a != 0 and b % a == 0:
        q = b // a
        for m in (rows, *companions):
            m[k] = [x - q * y for x, y in zip(m[k], m[i])]
        return
    x, y, g = xgcd(a, b)
    aa, bb = a // g, b // g
    for m in (rows, *companions):
        mi, mk = m[i], m[k]
        m[i] = [x * p + y * q for p, q in zip(mi, mk)]
        m[k] = [-bb * p + aa * q for p, q in zip(mi, mk)]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (u, d, v) with u*m*v == d, u and v unimodular, and d diagonal
    with nonnegative entries forming a divisibility chain d1 | d2 | ...

    >>> u, d, v = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    >>> [d.entries[i][i] for i in range(2)]
    [1, 6]
    """
    nr, nc = m.nrows, m.ncols
    d = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    # column operations are row steps on the transposes, so v is kept
    # transposed
    vt = [[int(i == j) for j in range(nc)] for i in range(nc)]
    t = 0
    while t < min(nr, nc):
        pivot = min(
            (
                (abs(d[i][j]), i, j)
                for i in range(t, nr)
                for j in range(t, nc)
                if d[i][j]
            ),
            default=None,
        )
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for rr in d:
                rr[t], rr[pj] = rr[pj], rr[t]
            vt[t], vt[pj] = vt[pj], vt[t]
        while True:
            for i in range(t + 1, nr):
                _row_step(t, i, t, d, u)
            dt = [list(col) for col in zip(*d)]
            for j in range(t + 1, nc):
                _row_step(t, j, t, dt, vt)
            d = [list(row) for row in zip(*dt)]
            if any(d[i][t] for i in range(t + 1, nr)):
                continue
            if any(d[t][j] for j in range(t + 1, nc)):
                continue
            p = d[t][t]
            bad = next(
                (
                    i
                    for i in range(t + 1, nr)
                    for j in range(t + 1, nc)
                    if d[i][j] % p
                ),
                None,
            )
            if bad is None:
                break
            # fold the offending row into the pivot row; the pivot gcd shrinks
            d[t] = [x + y for x, y in zip(d[t], d[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
        t += 1
    for i in range(min(nr, nc)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
    return (
        IntMatrix(u, ncols=nr),
        IntMatrix(d, ncols=nc),
        IntMatrix(zip(*vt), ncols=nc),
    )


def hermite_basis(ambient_rank: int, vectors) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the integer row span of the given vectors.

    The result is in lower-triangular Hermite form: pivot columns strictly
    increase with the row index, each pivot is the last nonzero entry of its
    row and is positive, and entries below a pivot (in its column) are
    reduced into [0, pivot).
    """
    work = []
    for vec in vectors:
        row = list(vec)
        if len(row) != ambient_rank:
            raise ValueError("vector length does not match ambient rank")
        for x in row:
            if not isinstance(x, int):
                raise TypeError("integer vector expected")
        if any(row):
            work.append(row)
    picked: list[tuple[int, list[int]]] = []
    for col in range(ambient_rank - 1, -1, -1):
        idxs = [i for i, row in enumerate(work) if row[col]]
        if not idxs:
            continue
        base = idxs[0]
        for i in idxs[1:]:
            _row_step(base, i, col, work)
        row = work.pop(base)
        if row[col] < 0:
            row = [-x for x in row]
        picked.append((col, row))
        work = [w for w in work if any(w)]
    picked.reverse()
    pivots = [col for col, _ in picked]
    rows = [row for _, row in picked]
    for k in range(len(rows)):
        for i in range(k - 1, -1, -1):
            p = pivots[i]
            q = rows[k][p] // rows[i][p]
            if q:
                rows[k] = [a - q * b for a, b in zip(rows[k], rows[i])]
    return tuple(tuple(r) for r in rows)


class Sublattice:
    """Sublattice of Z^n given by a canonical (Hermite form) row basis."""

    __slots__ = ("ambient_rank", "basis", "_pivots")

    def __init__(self, ambient_rank: int, vectors=()):
        basis = hermite_basis(ambient_rank, vectors)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(
            self,
            "_pivots",
            tuple(max(j for j, x in enumerate(row) if x) for row in basis),
        )

    def __setattr__(self, name, value):
        raise AttributeError("Sublattice is immutable")

    @classmethod
    def full(cls, n: int) -> "Sublattice":
        return cls(n, IntMatrix.identity(n).entries)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, Sublattice):
            return NotImplemented
        return (self.ambient_rank, self.basis) == (other.ambient_rank, other.basis)

    def __hash__(self):
        return hash((self.ambient_rank, self.basis))

    def __repr__(self):
        return f"Sublattice({self.ambient_rank}, {[list(r) for r in self.basis]!r})"

    def coefficients(self, v):
        """Rational coordinates of v in this basis, or None if v lies
        outside the Q-span.  v may have Fraction entries."""
        if len(v) != self.ambient_rank:
            raise ValueError("vector length does not match ambient rank")
        rem = [Fraction(x) for x in v]
        coeffs = [Fraction(0)] * len(self.basis)
        for i in reversed(range(len(self.basis))):
            p = self._pivots[i]
            c = rem[p] / self.basis[i][p]
            if c:
                coeffs[i] = c
                rem = [a - c * b for a, b in zip(rem, self.basis[i])]
        if any(rem):
            return None
        return tuple(coeffs)

    def contains(self, v) -> bool:
        """Integral membership: is v an integer combination of the basis?
        Decided in integers, back-substituting down the triangular basis."""
        if len(v) != self.ambient_rank:
            raise ValueError("vector length does not match ambient rank")
        rem = list(v)
        for row, p in zip(reversed(self.basis), reversed(self._pivots)):
            q, r = divmod(rem[p], row[p])
            if r:
                return False
            if q:
                rem = [a - q * b for a, b in zip(rem, row)]
        return not any(rem)


def kernel_lattice(m: IntMatrix) -> Sublattice:
    """The saturated sublattice {x in Z^nrows : x * m == 0}."""
    u, d, _ = smith_normal_form(m)
    rows = [
        u.entries[i]
        for i in range(m.nrows)
        if i >= m.ncols or d.entries[i][i] == 0
    ]
    return Sublattice(m.nrows, rows)


@dataclass(frozen=True)
class ElementaryDivisors:
    """Invariants d1 | d2 | ... of a finitely generated abelian group;
    trailing zeros denote free summands."""

    divisors: tuple[int, ...]

    def __post_init__(self):
        seen_zero = False
        prev = None
        for d in self.divisors:
            if d < 0:
                raise ValueError("negative divisor")
            if d == 0:
                seen_zero = True
                continue
            if seen_zero:
                raise ValueError("nonzero divisor after a free summand")
            if prev is not None and d % prev:
                raise ValueError("divisibility chain violated")
            prev = d

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.divisors if d == 0)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.divisors if d > 1)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self) -> int | None:
        """Group order, or None when there is a free summand."""
        return None if self.free_rank else prod(self.divisors)

    def annihilated_by(self, n: int) -> bool:
        return self.free_rank == 0 and all(n % d == 0 for d in self.torsion)

    def __str__(self):
        if self.is_trivial:
            return "trivial"
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts)


def quotient_invariants(sub: Sublattice, amb: Sublattice) -> ElementaryDivisors:
    """Elementary divisors of amb/sub; requires sub to be contained in amb."""
    if sub.ambient_rank != amb.ambient_rank:
        raise NotContained("lattices live in different ambient spaces")
    rows = []
    for vec in sub.basis:
        cs = amb.coefficients(vec)
        if cs is None or any(c.denominator != 1 for c in cs):
            raise NotContained(f"{vec} is not in the ambient lattice")
        rows.append([int(c) for c in cs])
    rel = IntMatrix(rows, ncols=amb.rank)
    _, d, _ = smith_normal_form(rel)
    divs = [d.entries[i][i] for i in range(min(rel.nrows, rel.ncols))]
    if 0 in divs:
        raise NotContained("sublattice basis is not independent")
    divs += [0] * (amb.rank - len(divs))
    return ElementaryDivisors(tuple(divs))


def solve_linear(equations, rhs):
    """Solve the system A*x = rhs exactly over the rationals.

    `equations` is a list of coefficient rows.  Free variables are set to
    zero; returns None when the system is inconsistent.
    """
    if not equations:
        return ()
    ncols = len(equations[0])
    aug = []
    for row, b in zip(equations, rhs):
        den = common_denominator([*row, b])
        aug.append([int(x * den) for x in (*row, b)])
    rows, pivots, scale, _ = _echelon(aug, ncols)
    if any(row[ncols] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(rows, pivots):
        x[c] = Fraction(row[ncols], scale)
    return tuple(x)


def solve_integer(m: IntMatrix, b):
    """Any integer x with x * m == b, or None if none exists."""
    u, d, v = smith_normal_form(m)
    t = [0] * m.nrows
    for j, c in enumerate(v.apply(b)):  # b * v
        dj = d.entries[j][j] if j < m.nrows else 0
        if dj:
            t[j], c = divmod(c, dj)
        if c:
            return None
    return u.apply(t)


def common_denominator(v) -> int:
    """Least common multiple of the denominators of a rational vector."""
    return lcm(*(Fraction(x).denominator for x in v)) if len(v) else 1


__all__ = [
    "IntMatrix",
    "Sublattice",
    "ElementaryDivisors",
    "smith_normal_form",
    "hermite_basis",
    "kernel_lattice",
    "quotient_invariants",
    "solve_linear",
    "solve_integer",
    "common_denominator",
    "xgcd",
]
