"""The monoid of dominant lattice weights and its Hilbert basis.

All enumeration happens in weight coordinates, where the dominant cone is
the nonnegative orthant.  Its rays are z_i e_i, z_i the least multiple of
the i-th fundamental weight in the projected lattice, so the cone is
simplicial and the monoid is generated by the rays and the points of the
half-open box prod([0, z_i)), its fundamental parallelepiped (Bruns and
Ichim, "Normaliz: algorithms for affine monoids and rational cones",
J. Algebra 324, 2010): a point m with m_i >= z_i is the ray z_i e_i plus
the monoid point m - z_i e_i, so subtracting rays brings every point into
the box, and every Hilbert basis element other than a ray lies in it.

The box points are listed, in lexicographic order, by a walk along the
projected lattice's Hermite basis, which is upper triangular.  The minimal
nonzero points, and the check that they generate every listed point, read
"which points lie below m" off one bitmask per coordinate and value
instead of comparing pairs of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import add, and_, getitem, sub

from .errors import AxiomFailure, BoxTooLarge, GenerationFailure
from .groups import _Table
from .lattice import Sublattice, common_denominator
from .roots import RootDatum

# The most lattice points a weight box may hold before it is listed.
MAX_BOX_POINTS = 4_000_000


def minimal_multipliers(rd: RootDatum, pi_lattice: Sublattice) -> tuple[int, ...]:
    """For each fundamental weight, the least positive integer multiple
    that lands in the projected lattice."""
    if (pi_lattice.rank, pi_lattice.ambient_rank) != (rd.rank, rd.rank):
        raise AxiomFailure("projected lattice must have full weight rank")
    out = []
    for i in range(rd.rank):
        unit = tuple(int(j == i) for j in range(rd.rank))
        coeffs = pi_lattice.coefficients(unit)
        if coeffs is None:
            raise AxiomFailure("weight outside the span of the projected "
                               "lattice")
        out.append(common_denominator(coeffs))
    return tuple(out)


def enumerate_box(rd: RootDatum, pi_lattice: Sublattice,
                  bounds) -> tuple[tuple[int, ...], ...]:
    """All monoid points inside the box prod([0, b_k]), in weight
    coordinates, listed lexicographically (the origin included).  The
    lattice's Hermite basis is upper triangular with positive diagonal
    p_k, so a point is fixed from its first coordinate up: coordinate k
    runs over s[k] + p_k Z in [0, b_k], s the chosen multiples of rows
    ..k-1 summed.  Taking each coordinate in increasing order lists the
    points lexicographically; each lattice point of the box comes out
    once, and no other is visited.

    Coordinate k takes at most floor(b_k / p_k) + 1 values, so the box
    holds at most their product of points: exactly prod(z_k / p_k) for
    the half-open box b_k = z_k - 1, since p_k divides z_k.  Raises
    BoxTooLarge, before listing any point, when that count is over
    MAX_BOX_POINTS.
    """
    if (pi_lattice.rank, pi_lattice.ambient_rank) != (rd.rank, rd.rank):
        raise AxiomFailure("projected lattice must have full weight rank")
    basis = pi_lattice.basis
    size = prod(b // basis[k][k] + 1 for k, b in enumerate(bounds))
    if size > MAX_BOX_POINTS:
        raise BoxTooLarge(
            f"the weight box holds up to {size} lattice points, more than "
            f"the {MAX_BOX_POINTS} that can be listed"
        )
    points = [(0,) * rd.rank]
    for k, row in enumerate(basis):
        p, b = row[k], bounds[k]
        # the multiples t * row that keep coordinate k = c + t * p in
        # [0, b], for each value c it has before row k is added
        steps = {c: [tuple(t * x for x in row)
                     for t in range(-(c // p), (b - c) // p + 1)]
                 for c in {s[k] for s in points}}
        points = [tuple(map(add, s, m)) for s in points for m in steps[s[k]]]
    return tuple(points)


def _below(elements, k) -> _Table:
    """One coordinate k of the dominance masks of `elements`: bit j of
    its value at v is set when elements[j][k] <= v.  A value is filled in
    when first looked up, and `_mark` keeps the filled ones up to date."""
    return _Table(lambda v: sum(1 << j for j, e in enumerate(elements)
                                if e[k] <= v))


def _mark(masks, elements, m) -> None:
    """Append m to `elements`, the list the masks were made over, and set
    its bit in every value v >= m_k filled in so far."""
    bit = 1 << len(elements)
    elements.append(m)
    for column, x in zip(masks, m):
        for v in column:
            if v >= x:
                column[v] |= bit


def hilbert_basis(points) -> tuple[tuple[int, ...], ...]:
    """The indecomposable elements among `points`, the points of a
    lattice monoid in the orthant that lie in a box, or in a half-open
    box plus the rays (as `build_weight_monoid` lists them): the minimal
    nonzero points, since m - n lies in the monoid when n <= m do.
    n <= m, n != m puts n first lexicographically, so one sorted pass
    keeps each nonzero point with no kept point below it.  Ordered with
    the single-axis generators first (one per coordinate), then the rest
    lexicographically.  Raises GenerationFailure if they do not generate
    every point, which only input breaking the contract can cause.
    """
    points = sorted(points)
    basis = []
    masks = [_below(basis, k) for k in range(len(points[0]) if points else 0)]
    for m in points:
        # bit j of the AND is set when basis[j] <= m
        if any(m) and not reduce(and_, map(getitem, masks, m), -1):
            _mark(masks, basis, m)
    axis = [m for m in basis if sum(1 for x in m if x) == 1]
    axis.sort(key=lambda m: next(i for i, x in enumerate(m) if x))
    rest = [m for m in basis if sum(1 for x in m if x) != 1]
    ordered = axis + rest
    _check_generation(points, ordered)
    return tuple(ordered)


def _check_generation(points, basis) -> None:
    """Raise GenerationFailure naming the first nonzero point p, in order
    of (coordinate sum, point), that is no element b of `basis` plus a
    point p - b listed before it.  Only a b with (sum(b), b) above
    (0, 0) can put p - b before p in that order, and for such a b every
    listed p - b comes before p.  So p - b is looked up among all the
    listed points, for the b <= p that the masks pick, and by induction
    on that order the first point to fail is the same.  The basis is not
    trusted to be minimal, or even positive.
    """
    listed = set(points)
    steps = [b for b in basis if (sum(b), tuple(b)) > (0, (0,) * len(b))]
    masks = [_below(steps, k) for k in range(len(points[0]) if points else 0)]
    failed = []
    for p in points:
        if not any(p):
            continue
        below = reduce(and_, map(getitem, masks, p), -1)
        while below:
            low = below & -below
            if tuple(map(sub, p, steps[low.bit_length() - 1])) in listed:
                break
            below ^= low
        else:
            failed.append(p)
    if failed:
        p = min(failed, key=lambda q: (sum(q), q))
        raise GenerationFailure(f"box point {p} is not generated")


@dataclass(frozen=True)
class WeightMonoid:
    """The positive part of the invariant monoid, in weight coordinates.

    The cone rays are the scaled fundamental weights; every Hilbert basis
    element is a nonnegative rational combination of them, so the monoid
    cone is simplicial.
    """

    multipliers: tuple[int, ...]
    hilbert_basis: tuple[tuple[int, ...], ...]
    cone_rays: tuple[tuple[int, ...], ...]


def build_weight_monoid(rd: RootDatum, pi_lattice: Sublattice) -> WeightMonoid:
    """The Hilbert basis from the half-open box prod([0, z_i)) plus the
    rays z_i e_i: the basis is the same as over the closed box, and its
    generating them proves it generates the whole monoid."""
    multipliers = minimal_multipliers(rd, pi_lattice)
    rays = tuple(
        tuple(z if j == i else 0 for j in range(rd.rank))
        for i, z in enumerate(multipliers)
    )
    points = enumerate_box(rd, pi_lattice, tuple(z - 1 for z in multipliers))
    basis = hilbert_basis(points + rays)
    if basis[:len(rays)] != rays:
        raise AxiomFailure("scaled weights must head the Hilbert basis")
    return WeightMonoid(multipliers, basis, rays)


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
    "MAX_BOX_POINTS",
    "WeightMonoid",
    "MonoidDescription",
    "minimal_multipliers",
    "enumerate_box",
    "hilbert_basis",
    "build_weight_monoid",
]
