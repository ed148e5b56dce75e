"""The monoid of dominant lattice weights and its Hilbert basis.

All enumeration happens in weight coordinates, where the dominant cone is
the nonnegative orthant and the bounding zonotope is literally the integer
box prod([0, z_i]); membership of a box point in the monoid is an exact
lattice test against the projected lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm

from .errors import AxiomFailure, GenerationFailure
from .lattice import Sublattice
from .roots import RootDatum


def minimal_multipliers(rd: RootDatum, pi_lattice: Sublattice) -> tuple[int, ...]:
    """For each fundamental weight, the least positive integer multiple
    that lands in the projected lattice."""
    if pi_lattice.rank != rd.rank:
        raise AxiomFailure("projected lattice must have full weight rank")
    out = []
    for i in range(rd.rank):
        unit = tuple(int(j == i) for j in range(rd.rank))
        coeffs = pi_lattice.coefficients(unit)
        if coeffs is None:
            raise AxiomFailure("weight outside the span of the projected "
                               "lattice")
        out.append(lcm(*(c.denominator for c in coeffs)) if coeffs else 1)
    return tuple(out)


def enumerate_box(rd: RootDatum, pi_lattice: Sublattice,
                  multipliers) -> tuple[tuple[int, ...], ...]:
    """All monoid points inside the box prod([0, z_i]), in weight
    coordinates, listed lexicographically (the origin included)."""
    return tuple(
        c
        for c in product(*(range(z + 1) for z in multipliers))
        if pi_lattice.contains(c)
    )


def hilbert_basis(points) -> tuple[tuple[int, ...], ...]:
    """The indecomposable elements among the box points: the unique
    minimal generating set of the monoid.

    Ordered with the single-axis generators first (one per coordinate),
    then the rest lexicographically.  Raises GenerationFailure if the
    selected elements fail to generate every box point, which would
    indicate a bug.
    """
    point_set = set(points)
    nonzero = [p for p in points if any(p)]
    basis = []
    for m in nonzero:
        decomposable = any(
            n != m
            and all(a <= b for a, b in zip(n, m))
            and tuple(b - a for a, b in zip(n, m)) in point_set
            for n in nonzero
        )
        if not decomposable:
            basis.append(m)
    axis = [m for m in basis if sum(1 for x in m if x) == 1]
    axis.sort(key=lambda m: next(i for i, x in enumerate(m) if x))
    rest = sorted(m for m in basis if sum(1 for x in m if x) != 1)
    ordered = axis + rest
    _check_generation(points, ordered)
    return tuple(ordered)


def _check_generation(points, basis) -> None:
    reachable = set()
    for p in sorted(points, key=lambda q: (sum(q), q)):
        if not any(p):
            reachable.add(p)
            continue
        if not any(
            all(h <= x for h, x in zip(b, p))
            and tuple(x - h for h, x in zip(b, p)) in reachable
            for b in basis
        ):
            raise GenerationFailure(f"box point {p} is not generated")
        reachable.add(p)


@dataclass(frozen=True)
class WeightMonoid:
    """The positive part of the invariant monoid, in weight coordinates.

    The cone rays are the scaled fundamental weights; every Hilbert basis
    element is a nonnegative rational combination of them, so the monoid
    cone is simplicial.
    """

    multipliers: tuple[int, ...]
    box_points: tuple[tuple[int, ...], ...]
    hilbert_basis: tuple[tuple[int, ...], ...]
    cone_rays: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.multipliers)


def build_weight_monoid(rd: RootDatum, pi_lattice: Sublattice) -> WeightMonoid:
    multipliers = minimal_multipliers(rd, pi_lattice)
    points = enumerate_box(rd, pi_lattice, multipliers)
    basis = hilbert_basis(points)
    if len(basis) < rd.rank:
        raise AxiomFailure("fewer generators than the weight rank")
    rays = tuple(
        tuple(z if j == i else 0 for j in range(rd.rank))
        for i, z in enumerate(multipliers)
    )
    for i, ray in enumerate(rays):
        if basis[i] != ray:
            raise AxiomFailure("scaled weights must head the Hilbert basis")
    return WeightMonoid(multipliers, points, basis, rays)


@dataclass(frozen=True)
class MonoidDescription:
    """The full invariant monoid: a free unit group times a positive part."""

    units_rank: int
    positive: WeightMonoid

    @property
    def is_group(self) -> bool:
        return not self.positive.hilbert_basis

    @property
    def generator_count(self) -> int:
        return len(self.positive.hilbert_basis)

    def __str__(self):
        unit = f"Z^{self.units_rank}" if self.units_rank else None
        if self.is_group:
            return unit or "trivial"
        pos = f"positive monoid with {self.generator_count} generators"
        return f"{unit} x {pos}" if unit else pos


__all__ = [
    "WeightMonoid",
    "MonoidDescription",
    "minimal_multipliers",
    "enumerate_box",
    "hilbert_basis",
    "build_weight_monoid",
]
