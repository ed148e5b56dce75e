"""Sparse exact Laurent polynomials over a refined lattice, orbit sums,
and explicit fundamental invariants for reflection actions.

Exponent vectors are stored as integer tuples measured in 1/N units of
the lattice, with N canonicalized to the smallest denominator carrying
the support; coefficients are exact: an `int` when integral, else a
`Fraction`.

The fundamental invariants are products of orbit sums of fundamental
weights.  They are multiplied in the orbit-sum basis, on
{dominant weight: coefficient} dicts in integer weight coordinates, and
each dominant term's Weyl orbit is expanded and mapped to the lattice
once, at the end; `orbit_sum` and `orbit_sum_decomposition` search each
orbit over the group's generators and serve any finite group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul

from .errors import AxiomFailure, NotInvariant, SupportEscape
from .groups import GroupAction, _search
from .lattice import IntMatrix, common_denominator, solve_integer
from .monoid import WeightMonoid
from .roots import (RootDatum, _dominant, _dot, _orbit_sizes, _sparse,
                    _walk_down, weight_orbit)


class LaurentPolynomial:
    """Finitely supported map from exponent vectors to rational
    coefficients, kept as `int` when integral.

    >>> p = LaurentPolynomial(1, 2, {(1,): 1, (-1,): 1})  # x^(1/2) + x^(-1/2)
    >>> print((p * p).render())
    a + 2 + a^-1
    """

    __slots__ = ("rank", "denominator", "terms")

    def __init__(self, rank: int, denominator: int, terms):
        if denominator < 1:
            raise ValueError("denominator must be positive")
        clean = {}
        for e, c in dict(terms).items():
            if type(c) is not int:
                c = Fraction(c)
                if c.denominator == 1:
                    c = c.numerator
            if not c:
                continue
            e = tuple(e)
            if len(e) != rank:
                raise ValueError("exponent length does not match rank")
            clean[e] = c
        if not clean:
            denominator = 1
        else:
            g = denominator
            for e in clean:
                g = gcd(g, *e)
                if g == 1:
                    break
            if g > 1:
                clean = {
                    tuple(x // g for x in e): c for e, c in clean.items()
                }
                denominator //= g
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    @classmethod
    def zero(cls, rank: int) -> "LaurentPolynomial":
        return cls(rank, 1, {})

    @classmethod
    def constant(cls, rank: int, value) -> "LaurentPolynomial":
        return cls(rank, 1, {(0,) * rank: value})

    @classmethod
    def monomial(cls, point, coeff=1) -> "LaurentPolynomial":
        """Single term with a rational exponent vector."""
        point = tuple(Fraction(x) for x in point)
        den = common_denominator(point)
        exps = tuple(int(x * den) for x in point)
        return cls(len(point), den, {exps: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> frozenset:
        """Exponent vectors as rational tuples."""
        n = self.denominator
        return frozenset(
            tuple(Fraction(x, n) for x in e) for e in self.terms
        )

    @property
    def has_integer_support(self) -> bool:
        return self.denominator == 1

    def _aligned(self, other):
        den = lcm(self.denominator, other.denominator)
        a = den // self.denominator
        b = den // other.denominator
        ta = {tuple(x * a for x in e): c for e, c in self.terms.items()}
        tb = {tuple(x * b for x in e): c for e, c in other.terms.items()}
        return den, ta, tb

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        den, ta, tb = self._aligned(other)
        for e, c in tb.items():
            ta[e] = ta.get(e, 0) + c
        return LaurentPolynomial(self.rank, den, ta)

    def __neg__(self):
        return LaurentPolynomial(
            self.rank, self.denominator, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        den, ta, tb = self._aligned(other)
        out: dict = {}
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return LaurentPolynomial(self.rank, den, out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not supported")
        result = LaurentPolynomial.constant(self.rank, 1)
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.denominator == other.denominator
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, self.denominator, frozenset(self.terms.items())))

    def transform(self, g: IntMatrix) -> "LaurentPolynomial":
        """Apply a lattice automorphism to every exponent vector."""
        return LaurentPolynomial(
            self.rank,
            self.denominator,
            {g.apply(e): c for e, c in self.terms.items()},
        )

    def sorted_terms(self):
        """Terms in canonical display order: graded lexicographic,
        leading term first."""
        # exponents are distinct, so no two keys tie
        return sorted(self.terms.items(),
                      key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)

    def render(self, labels=None) -> str:
        if not self.terms:
            return "0"
        labels = variable_labels(self.rank) if labels is None else labels
        factor = _Factors(labels, self.denominator).__getitem__
        out = []
        for e, c in self.sorted_terms():
            body = "*".join(filter(None, map(factor, enumerate(e))))
            mag = abs(c)
            if mag != 1:
                body = f"{mag}*{body}" if body else str(mag)
            out += (" - " if c < 0 else " + "), body or "1"
        out[0] = "-" if out[0] == " - " else ""
        return "".join(out)

    def __repr__(self):
        return f"LaurentPolynomial({self.render()!r})"


class _Factors(dict):
    """(coordinate, exponent) -> the factor a rendered term shows for
    it, "" for exponent zero; each is formatted on first use."""

    __slots__ = ("labels", "denominator")

    def __init__(self, labels, denominator):
        super().__init__()
        self.labels, self.denominator = labels, denominator

    def __missing__(self, key):
        k, x = key
        name = self.labels[k]
        # integer support (denominator 1) needs no Fraction
        power = x if self.denominator == 1 else Fraction(x, self.denominator)
        if not x:
            text = ""
        elif power == 1:
            text = name
        elif power.denominator == 1:
            text = f"{name}^{power}"
        else:
            text = f"{name}^({power})"
        self[key] = text
        return text


def variable_labels(rank: int):
    if rank <= 26:
        return tuple(chr(ord("a") + i) for i in range(rank))
    return tuple(f"x{i + 1}" for i in range(rank))


def orbit_sum(action: GroupAction, point) -> LaurentPolynomial:
    """Sum of the distinct group images of a lattice point, each with
    coefficient one; g^-1 is integral, so they share its denominator."""
    den = common_denominator(point)
    scaled = tuple(int(Fraction(x) * den) for x in point)
    orb = _search(scaled, [g.apply for g in action.generators])
    return LaurentPolynomial(action.rank, den, dict.fromkeys(orb, 1))


def is_invariant(action: GroupAction, p: LaurentPolynomial) -> bool:
    """True when every generator g fixes p, that is, as e -> e.g is
    injective, maps each term onto a term with the same coefficient; the
    action is a right action, p.(gh) = (p.g).h, so generators suffice.

    Coordinate k of e.g is e . (column k of g), so e.g differs from e
    only in the coordinates whose column of g differs from the
    identity's.  The exponents are held coordinate by coordinate, and
    each such coordinate of every image is a combination of them by the
    column's nonzero entries."""
    coefficients = list(p.terms.values())
    coords = list(zip(*p.terms)) if p.terms else [()] * p.rank
    for g in action.generators:
        moved = _moved_columns(g)
        if not moved:  # g fixes every exponent
            continue
        images = list(coords)
        for k, column in moved:
            images[k] = _combination(coords, column)
        if list(map(p.terms.get, zip(*images))) != coefficients:
            return False
    return True


def _moved_columns(g: IntMatrix):
    """(k, ((i, g[i][k]) for the nonzero entries)) for each column k of g
    that differs from the identity's."""
    return [(k, tuple((i, a) for i, a in enumerate(column) if a))
            for k, column in enumerate(zip(*g.entries))
            if any(a != (i == k) for i, a in enumerate(column))]


def _combination(coords, column) -> list:
    """The sum of a * coords[i] over the (i, a) of `column`, entry by
    entry."""
    total = None
    for i, a in column:
        term = coords[i] if a == 1 else map(mul, coords[i], repeat(a))
        total = term if total is None else map(add, total, term)
    return list(total)


def orbit_sum_decomposition(action: GroupAction, p: LaurentPolynomial) -> dict:
    """Expand an invariant polynomial in the orbit-sum basis.

    Returns a map from the lexicographically maximal representative of
    each orbit (as a rational tuple) to its coefficient.  Raises
    NotInvariant when the coefficients are not constant on some orbit.
    """
    remaining = dict(p.terms)
    den = p.denominator
    moves = [g.apply for g in action.generators]
    out = {}
    while remaining:
        e = max(remaining)
        c = remaining[e]
        rep = tuple(Fraction(x, den) for x in e)
        for key in _search(e, moves):
            if remaining.pop(key, None) != c:
                raise NotInvariant(
                    "coefficients are not constant on the orbit of "
                    f"{rep}"
                )
        out[rep] = c
    return out


@dataclass(frozen=True)
class FundamentalInvariant:
    """One generator of the invariant algebra.

    `powers` are the exponents applied to the orbit sums of the
    fundamental weights; `unit_prefix` is the fixed-lattice monomial
    needed to land the support in the lattice (zero for effective
    actions); `polynomial` is the expanded result.
    """

    powers: tuple[int, ...]
    unit_prefix: tuple[Fraction, ...]
    polynomial: LaurentPolynomial

    @property
    def has_unit_prefix(self) -> bool:
        return any(self.unit_prefix)


def fundamental_invariants_detailed(action: GroupAction, rd: RootDatum,
                                    wm: WeightMonoid) -> list[FundamentalInvariant]:
    """Products of powers of the weight orbit sums, one per Hilbert basis
    element, each verified invariant with support inside the lattice.

    The products are taken in the orbit-sum basis
    (`_orbit_sum_products`).  Each dominant term lambda is mapped to the
    lattice by lambda -> lambda . (N * fundamental weights) in 1/N units,
    N the common denominator of the weights; the rest of its orbit is
    walked down from there as `weight_orbit` walks it, in lattice
    coordinates, since s_i moves the exponent of mu by -mu_i * alpha_i.

    For non-effective actions the bare product lives in a refinement of
    the lattice; multiplying by the fixed-lattice monomial of a lattice
    preimage of the basis element moves the support into the lattice
    without breaking invariance.
    """
    n = action.rank
    cartan, simple_roots = _sparse(rd.cartan.entries), _sparse(rd.base)
    den = lcm(*(common_denominator(w) for w in rd.fundamental_weights))
    # column k of N * fundamental weights: mu . column is the k-th
    # ambient exponent of the weight mu, in 1/N units
    columns = tuple(zip(*(tuple(int(x * den) for x in w)
                          for w in rd.fundamental_weights)))
    out = []
    for row, terms in zip(wm.hilbert_basis,
                          _orbit_sum_products(rd, wm.hilbert_basis)):
        target = tuple(_dot(row, col) for col in columns)
        shift = (0,) * n  # the unit prefix, in 1/N units
        if any(t % den for t in target):
            preimage = solve_integer(rd.coroots, row)
            if preimage is None:
                raise SupportEscape(
                    f"basis element {row} has no lattice preimage"
                )
            shift = tuple(a * den - t for a, t in zip(preimage, target))
        prefix = tuple(Fraction(s, den) for s in shift)
        # distinct dominant weights have disjoint orbits, and the weights
        # map to the lattice injectively: no two terms share an exponent
        exponents = {}
        for lam, c in terms.items():
            point = [s + _dot(lam, col) for s, col in zip(shift, columns)]
            if any(x % den for x in point):
                raise SupportEscape(
                    f"invariant for {row} has support outside the lattice"
                )
            for _, e in _walk_down(cartan, simple_roots, lam,
                                   [x // den for x in point]):
                exponents[e] = c
        poly = LaurentPolynomial(n, 1, exponents)
        if not is_invariant(action, poly):
            raise AxiomFailure("fundamental invariant is not invariant")
        out.append(FundamentalInvariant(tuple(row), prefix, poly))
    return out


def _orbit_sum_products(rd: RootDatum, rows) -> list[dict]:
    """prod_j m_j ** row_j for each row, m_j the orbit sum of the j-th
    fundamental weight, as {dominant weight: coefficient}.

    With m_kappa the orbit sum of a dominant weight kappa,
    m_kappa * m_mu = sum over nu in W mu of
    (|W kappa| / |W dom(kappa + nu)|) * m_dom(kappa + nu):
    the pairs (kappa', nu) in W kappa x W mu with kappa' + nu in W lambda
    number c_lambda * |W lambda|, and |W kappa| times as many as those
    with kappa' = kappa.  The sum runs over the smaller of the two
    orbits, and the counts for each lambda are added up before dividing
    (as LiE does; van Leeuwen, Cohen and Lisser, CAN 1992).  Partial
    products are shared between rows."""
    r = rd.rank
    cartan = _sparse(rd.cartan.entries)
    size = _orbit_sizes(rd)
    units = [tuple(int(i == j) for i in range(r)) for j in range(r)]
    orbits = {}  # dominant weight -> its orbit, listed on first use

    def times(terms: dict, unit) -> dict:
        out: dict = {}
        for kappa, c in terms.items():
            # m_kappa * m_unit, summed over the smaller orbit, W mu
            kappa, mu = ((unit, kappa) if size(kappa) < size(unit)
                         else (kappa, unit))
            if mu not in orbits:
                orbits[mu] = weight_orbit(rd, mu)
            counts: dict = {}
            for nu in orbits[mu]:
                lam = _dominant(cartan, [a + b for a, b in zip(kappa, nu)])
                counts[lam] = counts.get(lam, 0) + 1
            k = size(kappa)
            for lam, m in counts.items():
                q, rem = divmod(k * m, size(lam))
                if rem:
                    raise AxiomFailure(
                        f"orbit-sum product coefficient {k * m}/{size(lam)}"
                        " is not an integer")
                out[lam] = out.get(lam, 0) + c * q
        return out

    zero = (0,) * r
    products = {zero: {zero: 1}}  # powers -> their product
    out = []
    for row in rows:
        key = zero
        for j, power in enumerate(row):
            for _ in range(power):
                prev, key = key, key[:j] + (key[j] + 1,) + key[j + 1:]
                if key not in products:
                    products[key] = times(products[prev], units[j])
        out.append(products[key])
    return out


__all__ = [
    "LaurentPolynomial",
    "FundamentalInvariant",
    "variable_labels",
    "orbit_sum",
    "is_invariant",
    "orbit_sum_decomposition",
    "fundamental_invariants_detailed",
]
