"""Class groups, fixed-point-free tests, the sign-group singular-locus
analyzer, and the semigroup-algebra verdict.

The verdict logic: invariants of a reflection group (the trivial group,
with no roots, included) form a semigroup algebra, with an explicit
monoid; a fixed point free action on an effective quotient of rank at
least 2 never does, and neither does a diagonal sign group whose
singular locus pins down at least two torus-fixed candidate points.
Everything else is honestly reported as unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import sub

from .errors import (
    HasReflections,
    LocusTooLarge,
    NotReflectionGroup,
    NotSignGroup,
    TrivialGroup,
)
from .groups import GroupAction, _one_minus_rows, fixed_sublattice, memoised
from .lattice import (
    ElementaryDivisors,
    IntMatrix,
    kernel_lattice,
    smith_normal_form,
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


@memoised
def min_displacement_rank(action: GroupAction) -> int:
    """Minimum over nonidentity elements of rank(1 - g); this equals the
    height of the ideal cutting out the non-free locus.  A reflection s
    has rank(1 - s) = 1, the least there is, so a group with reflections
    lists no element here.  Otherwise the elements are ranked in the
    order of the bound ceil((n - tr g) / 2) <= rank(1 - g), until it
    reaches the least rank found: g is diagonalisable over C with roots
    of unity l as eigenvalues, and n - tr g is the sum over the l != 1
    of 1 - Re l, each at most 2.  The bound is 0 only for the identity."""
    if find_reflections(action):
        return 1
    if action.order == 1:
        raise TrivialGroup("displacement rank needs a nontrivial group")
    n = action.rank
    bounds = sorted(((n + 1 - sum(g.entries[i][i] for i in range(n))) // 2, k)
                    for k, g in enumerate(action.elements))
    best = n
    for bound, k in bounds[1:]:  # bounds[0] is the identity's, 0
        if bound >= best:
            break
        rows = _one_minus_rows(action.elements[k])
        best = min(best, IntMatrix._from_checked_rows(rows, n).rank())
    return best


def class_group(action: GroupAction) -> ElementaryDivisors:
    """Divisor class group of the invariant algebra of a reflection group.

    Lorenz's formula (*Multiplicative Invariant Theory*, Springer 2005,
    class-group chapter) gives Cl(k[L]^G) = H^1(G/D, L^D), where D is
    generated by the diagonalizable reflections.  By inflation-restriction
    this is H^1(G, L^D), as Hom(D, L^D) = 0.  A reflection r moves x by
    x (1 - r) = (x . coroot) root, so L^D is the kernel of the matrix
    whose columns are the coroots of the diagonalizable reflections.
    With B the basis rows of L^D, the coboundaries are the row space of
    the rows b - b h, side by side over the generators h, and the
    cocycles are its saturation, so H^1 is the torsion of one Smith form:
    its nonzero diagonal, leading 1s included, is returned.  Raises
    NotReflectionGroup when the group is not generated by reflections.
    """
    if not is_reflection_group(action):
        raise NotReflectionGroup("class group formula needs a reflection group")
    n = action.rank
    coroots = [r.coroot for r in find_reflections(action) if r.diagonalizable]
    residual = kernel_lattice(IntMatrix(coroots, ncols=n).transpose())
    coboundaries = [
        sum((tuple(map(sub, b, h.apply(b))) for h in action.generators), ())
        for b in residual.basis]
    _, d, _ = smith_normal_form(IntMatrix._from_checked_rows(
        tuple(coboundaries), n * len(action.generators)))
    diagonal = (d.entries[i][i] for i in range(min(d.nrows, d.ncols)))
    return ElementaryDivisors(tuple(x for x in diagonal if x))


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
    """Whether every element is diagonal with +-1 entries; the diagonal
    sign matrices form a group, so it is enough that the generators are."""
    for g in action.generators:
        for i, row in enumerate(g.entries):
            for j, x in enumerate(row):
                if i == j:
                    if x not in (1, -1):
                        return False
                elif x != 0:
                    return False
    return True


def _fixed_point_free(action: GroupAction) -> bool:
    """Whether the action is fixed point free on its effective quotient,
    as the trivial group is.  Over Q the lattice is the fixed space plus
    a G-stable complement, and g is the identity on the fixed space:
    rank(1 - g) is the same on the quotient, so the ranks known for G
    decide it."""
    return (action.order == 1 or min_displacement_rank(action)
            == action.rank - fixed_sublattice(action).rank)


def verdict(action: GroupAction, base=None) -> Verdict:
    """Decide (or honestly refuse to decide) whether the invariant
    algebra is a semigroup algebra.  A given `base` is checked on every
    branch: by the root datum of a reflection group (the trivial group
    is the one with no roots), and elsewhere on its own."""
    if is_reflection_group(action):
        md = reflection_monoid(action, base=base).monoid
        if action.order == 1:
            rule, detail = ("group-algebra", "the action is trivial, so the "
                            "invariants form the group algebra of the full "
                            "lattice")
        else:
            rule, detail = ("reflection-invariants", "the group is generated "
                            "by reflections; the invariants are the "
                            f"semigroup algebra of {md}")
        return Verdict(SEMIGROUP_ALGEBRA, rule, detail, md)
    if base is not None:  # only the override reads a root datum here
        try:
            build_root_system(action, base=base)
        except NotReflectionGroup as exc:
            raise NotReflectionGroup(f"base override refused: {exc}") from None
    quotient_rank = action.rank - fixed_sublattice(action).rank
    if quotient_rank >= 2 and _fixed_point_free(action):
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
    if find_reflections(action):
        raise HasReflections("sign group contains a reflection")
    n = action.rank
    inversion_sets = set()
    for g in action.elements:
        inv = frozenset(i for i in range(n) if g.entries[i][i] == -1)
        if inv:
            inversion_sets.add(inv)
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
    "class_group",
    "reflection_monoid",
    "verdict",
    "sign_group_singular_locus",
]
