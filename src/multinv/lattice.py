"""Exact integer and rational linear algebra for lattice computations.

Conventions used throughout the package:

* vectors are rows, and matrices act on the right: ``v -> v * m``;
* all arithmetic is exact, floats never appear;
* sublattices are stored in a canonical Hermite form (upper triangular,
  positive pivots) so that equal sublattices have identical bases.

Everything rests on two integer eliminations.  `_echelon` is one
fraction-free (Bareiss) pass: forward-only behind determinants and
ranks, and Gauss-Jordan (`reduced`) behind the root layer's coordinates
and weights.  `_unimodular_echelon` brings rows to echelon form by
unimodular two-row steps (`_row_step`), with companion matrices riding
along: it gives the Hermite form, and the kernel lattices as the rows of
the transform past the pivots.  The Smith form, also built from
`_row_step`, is taken only where its diagonal or both transforms are
wanted: elementary divisors and `solve_integer`.  Fractions appear only
in rational answers: solutions, coordinates and weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul


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

    __slots__ = ("entries", "nrows", "ncols", "_columns")

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
        object.__setattr__(self, "_columns", None)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __reduce__(self):
        return IntMatrix, (self.entries, self.ncols)

    @classmethod
    def _from_checked_rows(cls, rows: tuple, ncols: int) -> "IntMatrix":
        """The matrix on `rows`, a tuple of tuples of `ncols` ints each,
        without checking them again: for callers whose rows were checked
        once when they were made."""
        m = object.__new__(cls)
        _set_entries(m, rows)
        _set_nrows(m, len(rows))
        _set_ncols(m, ncols)
        _set_columns(m, None)
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], ncols=n)

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        columns = other.transpose().entries
        return IntMatrix([tuple(sum(map(mul, row, col)) for col in columns)
                          for row in self.entries], ncols=other.ncols)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self.entries == other.entries

    def __hash__(self):
        return hash((self.ncols, self.entries))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]!r})"

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self.entries) if self.entries
                         else [()] * self.ncols, ncols=self.nrows)

    def apply(self, v):
        """Row vector v times this matrix; entries of v may be Fractions.
        The columns are taken on first use and kept on the matrix."""
        if len(v) != self.nrows:
            raise ValueError("vector length mismatch")
        if self._columns is None:
            _set_columns(self, tuple(zip(*self.entries)) if self.entries
                         else ((),) * self.ncols)
        return tuple(sum(map(mul, v, col)) for col in self._columns)

    def det(self) -> int:
        """Determinant by one forward fraction-free (Bareiss) pass."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        _, pivots, last, sign = _echelon(self.entries, self.ncols)
        return sign * last if len(pivots) == self.nrows else 0

    def rank(self) -> int:
        """Rank over the rationals."""
        return len(_echelon(self.entries, self.ncols)[1])


# the slot setters, which `IntMatrix.__setattr__` blocks
_set_entries = IntMatrix.entries.__set__
_set_nrows = IntMatrix.nrows.__set__
_set_ncols = IntMatrix.ncols.__set__
_set_columns = IntMatrix._columns.__set__


def _echelon(rows, ncols: int, reduced: bool = False):
    """One fraction-free (Bareiss) pass on the first `ncols` columns of
    integer `rows`; further columns (an augmented part) ride along.

    Forward, the default, only rows below the pivot row are eliminated:
    enough for ranks and determinants.  `reduced` eliminates above it
    too (Gauss-Jordan).  Only rows nonzero in the pivot column are
    touched.  Each row keeps in `tags` the pivot current when it was last
    written; Bareiss's row is the stored one times (last pivot / tag), a
    minor, so every division is exact.

    Returns (rows, pivots, last, sign): the eliminated rows, pivot rows
    first; the list of pivot columns; the last pivot; and the sign of the
    row permutation.  For a square matrix of full rank sign * last is the
    determinant.  When `reduced`, every row is brought to `last`, so the
    rows divided by `last` are the unique reduced row echelon form.
    """
    rows = list(rows)
    tags = [1] * len(rows)
    pivots = []
    last, sign = 1, 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            tags[r], tags[piv] = tags[piv], tags[r]
            sign = -sign
        top = rows[r]
        if tags[r] != last:
            top = rows[r] = [x * last // tags[r] for x in top]
        p = top[c]
        for i in range(0 if reduced else r + 1, len(rows)):
            row = rows[i]
            f = row[c]
            if f and i != r:
                rows[i] = [(p * a - f * b) // tags[i]
                           for a, b in zip(row, top)]
                tags[i] = p
        tags[r] = last = p
        pivots.append(c)
    if reduced:
        rows = [row if t == last else [x * last // t for x in row]
                for row, t in zip(rows, tags)]
    return rows, pivots, last, sign


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
            # the column steps clear row t, but may refill column t
            if any(d[i][t] for i in range(t + 1, nr)):
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


def _unimodular_echelon(rows, ncols: int, *companions) -> int:
    """Bring `rows`, a list of integer lists, to echelon form in place by
    unimodular `_row_step`s, left to right, the companion matrices riding
    along; return the number of nonzero rows, which come first."""
    top = 0
    for col in range(ncols):
        if top == len(rows):
            break
        for k in range(top + 1, len(rows)):
            _row_step(top, k, col, rows, *companions)
        if rows[top][col]:
            top += 1
    return top


def hermite_basis(ambient_rank: int, vectors) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the integer row span of the given vectors.

    The result is in upper-triangular Hermite form: pivot columns strictly
    increase with the row index, each pivot is the first nonzero entry of
    its row and is positive, and entries above a pivot (in its column) are
    reduced into [0, pivot).
    """
    rows = [list(vec) for vec in vectors]
    for row in rows:
        if len(row) != ambient_rank:
            raise ValueError("vector length does not match ambient rank")
        if not all(isinstance(x, int) for x in row):
            raise TypeError("integer vector expected")
    del rows[_unimodular_echelon(rows, ambient_rank):]
    for k, row in enumerate(rows):
        p = next(j for j, x in enumerate(row) if x)
        if row[p] < 0:
            row = rows[k] = [-x for x in row]
        for i in range(k):
            q = rows[i][p] // row[p]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], row)]
    return tuple(tuple(r) for r in rows)


class Sublattice:
    """Sublattice of Z^n given by a canonical row basis, in the upper
    triangular Hermite form of `hermite_basis`."""

    __slots__ = ("ambient_rank", "basis", "_pivots")

    def __init__(self, ambient_rank: int, vectors=()):
        basis = hermite_basis(ambient_rank, vectors)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_pivots", tuple(
            next(j for j, x in enumerate(row) if x) for row in basis))

    def __setattr__(self, name, value):
        raise AttributeError("Sublattice is immutable")

    def __reduce__(self):
        return Sublattice, (self.ambient_rank, self.basis)

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
        for i, p in enumerate(self._pivots):
            c = rem[p] / self.basis[i][p]
            if c:
                coeffs[i] = c
                rem = [a - c * b for a, b in zip(rem, self.basis[i])]
        if any(rem):
            return None
        return tuple(coeffs)

    def contains(self, v) -> bool:
        """Integral membership: is v an integer combination of the basis?
        Decided in integers, substituting down the triangular basis from
        its top row."""
        if len(v) != self.ambient_rank:
            raise ValueError("vector length does not match ambient rank")
        rem = list(v)
        for row, p in zip(self.basis, self._pivots):
            q, r = divmod(rem[p], row[p])
            if r:
                return False
            if q:
                rem = [a - q * b for a, b in zip(rem, row)]
        return not any(rem)


def kernel_lattice(m: IntMatrix) -> Sublattice:
    """The saturated sublattice {x in Z^nrows : x * m == 0}.

    `_unimodular_echelon` brings m to echelon form, with the identity
    riding along as u, so u * m is the echelon form.  Its rows past the
    pivots vanish, and u is invertible over Z, so the matching rows of u
    are a basis of the kernel."""
    rows = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(m.nrows)] for i in range(m.nrows)]
    return Sublattice(m.nrows, u[_unimodular_echelon(rows, m.ncols, u):])


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

    def __str__(self):
        if self.is_trivial:
            return "trivial"
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts)


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
    return lcm(*(Fraction(x).denominator for x in v))


__all__ = [
    "IntMatrix",
    "Sublattice",
    "ElementaryDivisors",
    "smith_normal_form",
    "hermite_basis",
    "kernel_lattice",
    "solve_integer",
    "common_denominator",
    "xgcd",
]
