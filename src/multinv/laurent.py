"""Sparse Laurent polynomials on the lattice, and explicit fundamental
invariants for reflection actions.

A polynomial maps integer exponent vectors to nonzero `int`
coefficients.  The fundamental invariants are products of orbit sums of
fundamental weights.  They are multiplied in the orbit-sum basis, on
{dominant weight: coefficient} dicts in integer weight coordinates, and
each dominant term's Weyl orbit is expanded and mapped to the lattice
once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, mul

from .errors import AxiomFailure, SupportEscape
from .groups import GroupAction
from .lattice import IntMatrix, common_denominator, solve_integer
from .monoid import WeightMonoid
from .roots import (RootDatum, _dominant, _dot, _orbit_sizes, _sparse,
                    _walk_down, weight_orbit)


class LaurentPolynomial:
    """Finitely supported map from integer exponent vectors to nonzero
    `int` coefficients.

    >>> p = LaurentPolynomial(1, {(1,): 1, (-1,): 1})  # a + a^-1
    >>> print((p * p).render())
    a^2 + 2 + a^-2
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict):
        clean = {}
        for e, c in terms.items():
            if type(c) is not int:
                raise TypeError(f"coefficient {c!r} is not an int")
            e = tuple(e)
            if len(e) != rank:
                raise ValueError("exponent length does not match rank")
            if c:
                clean[e] = c
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _from_checked_terms(cls, rank: int, terms: dict):
        """The polynomial on `terms`, a dict from `rank`-tuples of ints to
        nonzero ints, taken as it is, unchecked."""
        p = object.__new__(cls)
        object.__setattr__(p, "rank", rank)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    def __reduce__(self):
        return LaurentPolynomial, (self.rank, self.terms)

    def __mul__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(map(add, ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return LaurentPolynomial(self.rank, out)

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def transform(self, g: IntMatrix) -> "LaurentPolynomial":
        """Apply a lattice automorphism to every exponent vector."""
        return LaurentPolynomial(
            self.rank, {g.apply(e): c for e, c in self.terms.items()})

    def sorted_terms(self):
        """Terms in canonical display order: graded lexicographic,
        leading term first."""
        # exponents are distinct, and the sort by sum is stable
        exponents = sorted(self.terms, reverse=True)
        exponents.sort(key=sum, reverse=True)
        return list(zip(exponents, map(self.terms.__getitem__, exponents)))

    def render(self, labels=None) -> str:
        if not self.terms:
            return "0"
        labels = variable_labels(self.rank) if labels is None else labels
        factor = _Factors(labels).__getitem__
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

    __slots__ = ("labels",)

    def __init__(self, labels):
        super().__init__()
        self.labels = labels

    def __missing__(self, key):
        k, x = key
        name = self.labels[k]
        text = "" if not x else name if x == 1 else f"{name}^{x}"
        self[key] = text
        return text


def variable_labels(rank: int):
    if rank <= 26:
        return tuple(chr(ord("a") + i) for i in range(rank))
    return tuple(f"x{i + 1}" for i in range(rank))


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
        images = list(coords)
        for k, column in _moved_columns(g):
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
        # int coefficients from the products, exponent tuples of ints
        poly = LaurentPolynomial._from_checked_terms(n, exponents)
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
    "is_invariant",
    "fundamental_invariants_detailed",
]
