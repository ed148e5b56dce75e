"""Sparse exact Laurent polynomials over a refined lattice, orbit sums,
and explicit fundamental invariants for reflection actions.

Exponent vectors are stored as integer tuples measured in 1/N units of
the lattice, with N canonicalized to the smallest denominator carrying
the support; coefficients are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import AxiomFailure, NotInvariant, SupportEscape
from .groups import GroupAction, orbit
from .lattice import IntMatrix, common_denominator, solve_integer
from .monoid import WeightMonoid
from .roots import RootDatum


class LaurentPolynomial:
    """Finitely supported map from exponent vectors to rational
    coefficients.

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
            c = Fraction(c)
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
                for x in e:
                    g = gcd(g, x)
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
        return cls(rank, 1, {(0,) * rank: Fraction(value)})

    @classmethod
    def monomial(cls, point, coeff=1) -> "LaurentPolynomial":
        """Single term with a rational exponent vector."""
        point = tuple(Fraction(x) for x in point)
        den = common_denominator(point)
        exps = tuple(int(x * den) for x in point)
        return cls(len(point), den, {exps: Fraction(coeff)})

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
            ta[e] = ta.get(e, Fraction(0)) + c
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
                out[key] = out.get(key, Fraction(0)) + ca * cb
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
        return sorted(
            self.terms.items(),
            key=lambda ec: (-sum(ec[0]), tuple(-x for x in ec[0])),
        )

    def render(self, labels=None) -> str:
        if not self.terms:
            return "0"
        labels = variable_labels(self.rank) if labels is None else labels
        pieces = []
        for e, c in self.sorted_terms():
            factors = []
            for x, name in zip(e, labels):
                if not x:
                    continue
                power = Fraction(x, self.denominator)
                if power == 1:
                    factors.append(name)
                elif power.denominator == 1:
                    factors.append(f"{name}^{power}")
                else:
                    factors.append(f"{name}^({power})")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            pieces.append((c < 0, body))
        first_neg, first_body = pieces[0]
        out = ("-" if first_neg else "") + first_body
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self):
        return f"LaurentPolynomial({self.render()!r})"


def variable_labels(rank: int):
    if rank <= 26:
        return tuple(chr(ord("a") + i) for i in range(rank))
    return tuple(f"x{i + 1}" for i in range(rank))


def orbit_sum(action: GroupAction, point) -> LaurentPolynomial:
    """Sum of the distinct group images of a lattice point, all with
    coefficient one."""
    pts = orbit(action, point)
    den = 1
    for p in pts:
        den = lcm(den, common_denominator(p))
    terms = {tuple(int(x * den) for x in p): Fraction(1) for p in pts}
    return LaurentPolynomial(action.rank, den, terms)


def is_invariant(action: GroupAction, p: LaurentPolynomial) -> bool:
    """True when every generator fixes p; the action is a right action,
    p.(gh) = (p.g).h, so the generators suffice."""
    return all(p.transform(g) == p for g in action.generators)


def orbit_sum_decomposition(action: GroupAction, p: LaurentPolynomial) -> dict:
    """Expand an invariant polynomial in the orbit-sum basis.

    Returns a map from the lexicographically maximal representative of
    each orbit (as a rational tuple) to its coefficient.  Raises
    NotInvariant when the coefficients are not constant on some orbit.
    """
    remaining = dict(p.terms)
    den = p.denominator
    out = {}
    while remaining:
        e = max(remaining)
        c = remaining[e]
        rep = tuple(Fraction(x, den) for x in e)
        for q in orbit(action, rep):
            key = tuple(int(x * den) for x in q)
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

    For non-effective actions the bare product lives in a refinement of
    the lattice; multiplying by the fixed-lattice monomial of a lattice
    preimage of the basis element moves the support into the lattice
    without breaking invariance.
    """
    n = action.rank
    orbit_sums = [orbit_sum(action, w) for w in rd.fundamental_weights]
    out = []
    for row in wm.hilbert_basis:
        poly = LaurentPolynomial.constant(n, 1)
        for j, power in enumerate(row):
            if power:
                poly = poly * orbit_sums[j] ** power
        target = tuple(
            sum((Fraction(row[j]) * rd.fundamental_weights[j][k]
                 for j in range(rd.rank)), Fraction(0))
            for k in range(n)
        )
        prefix = (Fraction(0),) * n
        if any(x.denominator != 1 for x in target):
            preimage = solve_integer(rd.coroots, row)
            if preimage is None:
                raise SupportEscape(
                    f"basis element {row} has no lattice preimage"
                )
            prefix = tuple(Fraction(a) - t for a, t in zip(preimage, target))
            poly = LaurentPolynomial.monomial(prefix) * poly
        if not poly.has_integer_support:
            raise SupportEscape(
                f"invariant for {row} has support outside the lattice"
            )
        if not is_invariant(action, poly):
            raise AxiomFailure("fundamental invariant is not invariant")
        out.append(FundamentalInvariant(tuple(row), prefix, poly))
    return out


def fundamental_invariants(action: GroupAction, rd: RootDatum,
                           wm: WeightMonoid) -> list[LaurentPolynomial]:
    """The expanded fundamental invariants, one per Hilbert basis element."""
    return [f.polynomial for f in
            fundamental_invariants_detailed(action, rd, wm)]


__all__ = [
    "LaurentPolynomial",
    "FundamentalInvariant",
    "variable_labels",
    "orbit_sum",
    "is_invariant",
    "orbit_sum_decomposition",
    "fundamental_invariants",
    "fundamental_invariants_detailed",
]
