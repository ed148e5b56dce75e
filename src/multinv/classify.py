"""Class groups, fixed-point-free tests, the sign-group singular-locus
analyzer, and the semigroup-algebra verdict.

The verdict logic: invariants of a reflection group (or of a trivial
action) form a semigroup algebra, with an explicit monoid; a fixed point
free action on an effective quotient of rank at least 2 never does, and
neither does a diagonal sign group whose singular locus pins down at
least two torus-fixed candidate points.  Everything else is honestly
reported as unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import (
    AmbiguousFormula,
    HasReflections,
    LocusTooLarge,
    NotReflectionGroup,
    NotSignGroup,
    TrivialGroup,
)
from .groups import (
    GroupAction,
    close_group,
    displacement_ranks,
    effective_quotient,
    fixed_sublattice,
)
from .lattice import (
    ElementaryDivisors,
    IntMatrix,
    Sublattice,
    kernel_lattice,
    quotient_invariants,
)
from .monoid import MonoidDescription, WeightMonoid, build_weight_monoid
from .roots import (
    RootDatum,
    build_root_system,
    find_reflections,
    is_reflection_group,
)

SEMIGROUP_ALGEBRA = "SemigroupAlgebra"
NOT_SEMIGROUP_ALGEBRA = "NotSemigroupAlgebra"
UNKNOWN = "Unknown"

# Most singular-locus components `sign_group_singular_locus` lists: the
# 2^16 sign patterns of -I on Z^16.
MAX_SIGN_COMPONENTS = 2 ** 16


def min_displacement_rank(action: GroupAction) -> int:
    """Minimum over nonidentity elements of rank(1 - g); this equals the
    height of the ideal cutting out the non-free locus."""
    if action.order == 1:
        raise TrivialGroup("displacement rank needs a nontrivial group")
    return min(r for r in displacement_ranks(action) if r)


def is_fixed_point_free(action: GroupAction) -> bool:
    """True when every nonidentity element fixes only the origin."""
    if action.order == 1:
        return True
    return min_displacement_rank(action) == action.rank


def _restrict_to_sublattice(action: GroupAction, sub: Sublattice) -> GroupAction:
    """The image of the action on a saturated invariant sublattice,
    written in the coordinates of its basis."""
    images = []
    for g in action.generators:
        rows = []
        for vec in sub.basis:
            moved = g.apply(vec)
            coeffs = sub.coefficients(moved)
            if coeffs is None or any(c.denominator != 1 for c in coeffs):
                raise AmbiguousFormula("sublattice is not invariant")
            rows.append([int(c) for c in coeffs])
        images.append(IntMatrix(rows, ncols=sub.rank))
    return close_group(images, cap=action.order, rank=sub.rank)


def class_group(action: GroupAction) -> ElementaryDivisors:
    """Divisor class group of the invariant algebra of a reflection group.

    Computed as a weight-lattice quotient on the part of the effective
    quotient fixed by the diagonalizable reflections.  Raises
    NotReflectionGroup when the hypothesis fails and AmbiguousFormula if
    the residual action is not generated by reflections (a degenerate
    case the formula does not cover).
    """
    if not is_reflection_group(action):
        raise NotReflectionGroup("class group formula needs a reflection group")
    bar = effective_quotient(action).induced
    if bar.order == 1:
        return ElementaryDivisors(())
    diagonalizable = [
        r.matrix for r in find_reflections(bar) if r.diagonalizable
    ]
    if diagonalizable:
        identity = IntMatrix.identity(bar.rank)
        stacked = IntMatrix.hstack([g - identity for g in diagonalizable])
        residual = kernel_lattice(stacked)
    else:
        residual = Sublattice.full(bar.rank)
    if residual.rank == 0:
        return ElementaryDivisors(())
    image = _restrict_to_sublattice(bar, residual)
    if image.order == 1:
        return ElementaryDivisors(())
    if not is_reflection_group(image):
        raise AmbiguousFormula(
            "residual action is not generated by reflections"
        )
    rd = build_root_system(image)
    return quotient_invariants(rd.pi_lattice, Sublattice.full(rd.rank))


@dataclass(frozen=True)
class ReflectionPipeline:
    """Everything the reflection-group branch of the verdict produces."""

    root_datum: RootDatum
    weight_monoid: WeightMonoid
    monoid: MonoidDescription


def reflection_monoid(action: GroupAction, base=None) -> ReflectionPipeline:
    """Run the full reflection pipeline: root system, weight monoid on
    the projected lattice, monoid description (units from the fixed
    sublattice, the dominant weight monoid as positive part)."""
    rd = build_root_system(action, base=base)
    wm = build_weight_monoid(rd, rd.pi_lattice)
    units_rank = fixed_sublattice(action).rank
    return ReflectionPipeline(rd, wm, MonoidDescription(units_rank, wm))


@dataclass(frozen=True)
class Verdict:
    """Answer to: is the invariant algebra a semigroup algebra?"""

    status: str
    rule: str
    detail: str
    monoid: MonoidDescription | None = None


def _is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _is_sign_group(action: GroupAction) -> bool:
    for g in action.elements:
        for i, row in enumerate(g.entries):
            for j, x in enumerate(row):
                if i == j:
                    if x not in (1, -1):
                        return False
                elif x != 0:
                    return False
    return True


def verdict(action: GroupAction, base=None) -> Verdict:
    """Decide (or honestly refuse to decide) whether the invariant
    algebra is a semigroup algebra."""
    if action.order == 1:
        empty = WeightMonoid((), ((),), (), ())
        return Verdict(
            SEMIGROUP_ALGEBRA,
            "group-algebra",
            "the action is trivial, so the invariants form the group "
            "algebra of the full lattice",
            MonoidDescription(action.rank, empty),
        )
    if is_reflection_group(action):
        pipe = reflection_monoid(action, base=base)
        md = pipe.monoid
        return Verdict(
            SEMIGROUP_ALGEBRA,
            "reflection-invariants",
            "the group is generated by reflections; the invariants are the "
            f"semigroup algebra of {md}",
            md,
        )
    quotient_rank = action.rank - fixed_sublattice(action).rank
    # over Q the lattice is the fixed space plus a G-stable complement,
    # and g is the identity on the fixed space: rank(1 - g) is the same
    # on the quotient, so the ranks known for G decide fixed-point-freeness
    if quotient_rank >= 2 and min_displacement_rank(action) == quotient_rank:
        if _is_odd_prime(action.order):
            return Verdict(
                NOT_SEMIGROUP_ALGEBRA,
                "odd-prime-order",
                f"a faithful action of a group of odd prime order "
                f"{action.order} is fixed point free on its effective "
                f"quotient (rank {quotient_rank}), so the invariants are not "
                "a semigroup algebra",
            )
        return Verdict(
            NOT_SEMIGROUP_ALGEBRA,
            "fixed-point-free",
            f"the action on the effective quotient (rank {quotient_rank}) is "
            "fixed point free, so the invariants are not a semigroup "
            "algebra",
        )
    if _is_sign_group(action) and not find_reflections(action):
        _, component_count, _, points = _sign_locus(action)
        if points >= 2:
            return Verdict(
                NOT_SEMIGROUP_ALGEBRA,
                "sign-group-singularities",
                f"the singular locus has {component_count} components "
                f"meeting in {points} points, all "
                "of which would have to be fixed by the one-fixed-point "
                "torus action, so the invariants are not a semigroup "
                "algebra",
            )
    return Verdict(
        UNKNOWN,
        "unclassified",
        "the group is not generated by reflections and none of the "
        "implemented obstructions applies; this tool cannot decide "
        "whether the invariants form a semigroup algebra",
    )


@dataclass(frozen=True)
class SignGroupReport:
    """Singular-locus combinatorics of a diagonal sign group.

    Each minimal prime is a pair (coordinates, signs): the component
    where the listed coordinates are frozen at the listed signs.
    `component_dimension` is the dimension of the largest components
    (all of them, in the uniform case).
    """

    minimal_primes: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    component_count: int
    component_dimension: int
    intersection_point_count: int


def _sign_locus(action: GroupAction):
    """The minimal coordinate sets of a diagonal sign group without
    reflections, and the component count, component dimension and
    intersection point count of its singular locus (see SignGroupReport),
    all without listing a component."""
    if not _is_sign_group(action):
        raise NotSignGroup("every element must be diagonal with +-1 entries")
    n = action.rank
    inversion_sets = set()
    for g in action.elements:
        inv = frozenset(i for i in range(n) if g.entries[i][i] == -1)
        if inv:
            inversion_sets.add(inv)
    if any(len(s) == 1 for s in inversion_sets):
        raise HasReflections("sign group contains a reflection")
    if not inversion_sets:
        raise TrivialGroup("sign-group analysis needs a nontrivial group")
    minimal = [
        s
        for s in inversion_sets
        if not any(t < s for t in inversion_sets)
    ]
    minimal = sorted(tuple(sorted(s)) for s in minimal)
    component_count = sum(2 ** len(c) for c in minimal)
    component_dimension = n - min(len(c) for c in minimal)
    # a sign point lies on exactly one component per minimal coordinate
    # set (the one with its own signs there), so either every sign point
    # counts or none does
    covers = len(minimal) >= 2 and set().union(*minimal) == set(range(n))
    points = 2 ** n if covers else 0
    return minimal, component_count, component_dimension, points


def sign_group_singular_locus(action: GroupAction) -> SignGroupReport:
    """Minimal primes over the non-free-locus ideal of a diagonal sign
    group without reflections, plus the count of candidate torus-fixed
    intersection points (sign points lying on at least two components
    that jointly freeze every coordinate).

    Raises LocusTooLarge, before listing any component, when there are
    more than MAX_SIGN_COMPONENTS of them.
    """
    minimal, component_count, component_dimension, points = _sign_locus(action)
    if component_count > MAX_SIGN_COMPONENTS:
        raise LocusTooLarge(
            f"the singular locus has {component_count} components, more "
            f"than the {MAX_SIGN_COMPONENTS} that can be listed"
        )
    primes = tuple(
        (coords, signs)
        for coords in minimal
        for signs in product((1, -1), repeat=len(coords))
    )
    return SignGroupReport(
        primes, component_count, component_dimension, points
    )


__all__ = [
    "Verdict",
    "SignGroupReport",
    "ReflectionPipeline",
    "SEMIGROUP_ALGEBRA",
    "NOT_SEMIGROUP_ALGEBRA",
    "UNKNOWN",
    "MAX_SIGN_COMPONENTS",
    "min_displacement_rank",
    "is_fixed_point_free",
    "class_group",
    "reflection_monoid",
    "verdict",
    "sign_group_singular_locus",
]
