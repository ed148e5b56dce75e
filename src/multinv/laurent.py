"""Sparse Laurent polynomials on the lattice, and explicit fundamental
invariants for reflection actions.

A polynomial maps integer exponent vectors to nonzero `int`
coefficients.  The fundamental invariants are products of orbit sums of
fundamental weights.  They are multiplied in the orbit-sum basis, on
{dominant weight: coefficient} dicts in integer weight coordinates, and
each dominant term's Weyl orbit is expanded and mapped to the lattice at
the end.  Within one call each repeated piece is computed once: the
product of an orbit sum by a fundamental one, a dominant weight's orbit
under a given unit prefix, however many invariants hold it, and, in
`render_polynomials`, the text of each exponent's term.  Invariance is
proved once per distinct orbit, not once per invariant: a sum of
disjoint stable orbits with constant coefficients is invariant.  The
columns each generator moves, which `is_invariant` reads, are a fact of
the action (`groups.memoised`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import repeat
from math import lcm
from operator import add, getitem, mul

from .errors import AxiomFailure, ExpansionTooLarge, SupportEscape
from .groups import GroupAction, _Table, memoised
from .lattice import IntMatrix, common_denominator, solve_integer
from .monoid import WeightMonoid
from .roots import (RootDatum, _dominant, _dot, _orbit_sizes, _sparse,
                    _walk_down, weight_orbit)

MAX_INVARIANT_TERMS = 10_000_000


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
        labels = variable_labels(self.rank) if labels is None else labels
        return render_polynomials([self], labels)[0]

    def __repr__(self):
        return f"LaurentPolynomial({self.render()!r})"


def render_polynomials(polys, labels) -> list[str]:
    """Each polynomial as text, "0" for the zero polynomial, its terms in
    `sorted_terms` order, the coordinates named by `labels`.  A term's
    body, its factors joined by "*", is built once for each exponent
    over all the polynomials, from one table of factors per coordinate,
    each factor formatted on first use (`_factor`)."""
    factors = [_Table(partial(_factor, name)) for name in labels]
    bodies = {}  # exponent -> its term's body, "" for the zero exponent
    texts = []
    for p in polys:
        out = []
        for e, c in p.sorted_terms():
            body = bodies.get(e)
            if body is None:
                body = bodies[e] = "*".join(
                    filter(None, map(getitem, factors, e)))
            mag = abs(c)
            if mag != 1:
                body = f"{mag}*{body}" if body else str(mag)
            out += (" - " if c < 0 else " + "), body or "1"
        if out:
            out[0] = "-" if out[0] == " - " else ""
        texts.append("".join(out) or "0")
    return texts


def _factor(name, x) -> str:
    """The factor a rendered term shows for exponent x in the coordinate
    `name`, "" for exponent zero."""
    return "" if not x else name if x == 1 else f"{name}^{x}"


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
    identity's, which are read once per action (`_moved_columns`).  The
    exponents are held coordinate by coordinate, and each such
    coordinate of every image is a combination of them by the column's
    nonzero entries."""
    coefficients = list(p.terms.values())
    coords = list(zip(*p.terms)) if p.terms else [()] * p.rank
    for moved in _moved_columns(action):
        images = list(coords)
        for k, column in moved:
            images[k] = _combination(coords, column)
        if list(map(p.terms.get, zip(*images))) != coefficients:
            return False
    return True


@memoised
def _moved_columns(action: GroupAction) -> tuple:
    """For each generator g, (k, ((i, g[i][k]) for the nonzero entries))
    for each column k of g that differs from the identity's."""
    return tuple(tuple((k, tuple((i, a) for i, a in enumerate(column) if a))
                       for k, column in enumerate(zip(*g.entries))
                       if any(a != (i == k) for i, a in enumerate(column)))
                 for g in action.generators)


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
    element, each with support inside the lattice and verified
    invariant orbit by orbit.

    The products are taken in the orbit-sum basis (`_orbit_sum_products`).
    Their terms, |W lambda| over each row's dominant terms lambda, are
    counted from root heights (`_orbit_sizes`) before any orbit is expanded,
    and the sum of |W row| before any is listed: a row is a term of its own,
    and each orbit listed is at most |W w_j| <= |W row| for some row_j > 0
    (ExpansionTooLarge past MAX_INVARIANT_TERMS).  Each lambda is mapped to
    the lattice by lambda -> lambda . (N * fundamental weights) in 1/N
    units, N the common denominator of the weights; the rest of its orbit is
    walked down from there as `weight_orbit` walks it, in lattice
    coordinates, since s_i moves the exponent of mu by -mu_i * alpha_i.  A
    dominant weight that recurs under the same unit prefix is walked and
    checked once: its orbit, every coefficient 1, must be invariant.
    Distinct dominant weights have disjoint orbits, so each invariant, a sum
    of such orbits with one coefficient each, is invariant too.

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
    size = _orbit_sizes(rd)
    products, total = None, sum(map(size, wm.hilbert_basis))
    if total <= MAX_INVARIANT_TERMS:
        products = _orbit_sum_products(rd, wm.hilbert_basis, size)
        total = sum(size(lam) for terms in products for lam in terms)
    if total > MAX_INVARIANT_TERMS:
        raise ExpansionTooLarge(
            f"the invariants expand to {'' if products else 'at least '}"
            f"{total} terms, more than the {MAX_INVARIANT_TERMS} that can "
            "be listed")
    orbits = {}  # (dominant weight, shift) -> its orbit's exponents
    out = []
    for row, terms in zip(wm.hilbert_basis, products):
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
            key = lam, shift
            if key not in orbits:
                point = [s + _dot(lam, col) for s, col in zip(shift, columns)]
                if any(x % den for x in point):
                    raise SupportEscape(
                        f"invariant for {row} has support outside the lattice"
                    )
                orbit = orbits[key] = [e for _, e in _walk_down(
                    cartan, simple_roots, lam, [x // den for x in point])]
                stable = LaurentPolynomial._from_checked_terms(
                    n, dict.fromkeys(orbit, 1))
                if not is_invariant(action, stable):
                    raise AxiomFailure("fundamental invariant is not invariant")
            exponents.update(zip(orbits[key], repeat(c)))
        # int coefficients from the products, exponent tuples of ints
        poly = LaurentPolynomial._from_checked_terms(n, exponents)
        out.append(FundamentalInvariant(tuple(row), prefix, poly))
    return out


def _orbit_sum_products(rd: RootDatum, rows, size) -> list[dict]:
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
    products are shared between rows, and each m_kappa * m_j is taken
    once."""
    r = rd.rank
    cartan = _sparse(rd.cartan.entries)
    units = [tuple(int(i == j) for i in range(r)) for j in range(r)]
    orbits = _Table(partial(weight_orbit, rd))  # dominant weight -> orbit

    def pair(key) -> dict:
        kappa, j = key  # m_kappa * m_j, summed over the smaller orbit, W mu
        kappa, mu = ((units[j], kappa) if size(kappa) < size(units[j])
                     else (kappa, units[j]))
        counts: dict = {}
        for nu in orbits[mu]:
            lam = _dominant(cartan, [a + b for a, b in zip(kappa, nu)])
            counts[lam] = counts.get(lam, 0) + 1
        k = size(kappa)
        out = {}
        for lam, m in counts.items():
            q, rem = divmod(k * m, size(lam))
            if rem:
                raise AxiomFailure(
                    f"orbit-sum product coefficient {k * m}/{size(lam)}"
                    " is not an integer")
            out[lam] = q
        return out

    pairs = _Table(pair)  # (kappa, j) -> m_kappa * m_j, taken on first use

    def times(terms: dict, j: int) -> dict:
        out: dict = {}
        for kappa, c in terms.items():
            for lam, q in pairs[kappa, j].items():
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
                    products[key] = times(products[prev], j)
        out.append(products[key])
    return out


__all__ = [
    "MAX_INVARIANT_TERMS",
    "LaurentPolynomial",
    "FundamentalInvariant",
    "variable_labels",
    "render_polynomials",
    "is_invariant",
    "fundamental_invariants_detailed",
]
