"""Reflections, crystallographic root systems, and fundamental weights.

A reflection here is a group element g with rank(1 - g) = 1 over the
rationals; on a unimodular lattice this forces g^2 = 1.  The negated
eigenvector lines of the reflections form a reduced crystallographic root
system inside the moving subspace (the image of 1 - averaging projection),
and the group restricted to that subspace is the Weyl group.  From a base
of simple roots we compute the fundamental dominant weights, the root and
weight lattices, and their quotient.

Everything is verified at runtime: the construction raises AxiomFailure
if any root-system axiom fails, which would indicate a bug rather than
bad input.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .errors import AxiomFailure, InvalidBase, NotMultiple, NotReflectionGroup
from .groups import (
    GroupAction,
    close_group,
    displacement_ranks,
    fixed_sublattice,
    memoised,
    reynolds,
)
from .lattice import (
    ElementaryDivisors,
    IntMatrix,
    Sublattice,
    kernel_lattice,
    quotient_invariants,
    rapply,
    solve_linear,
)


@dataclass(frozen=True)
class Reflection:
    """A group element of order 2 whose moved subspace has rank 1.

    `root` generates the rank-1 sublattice negated by the element, with
    the sign normalized so the first nonzero coordinate is positive.
    `diagonalizable` records whether the lattice splits as fixed part
    plus root line, i.e. whether the element equals diag(-1, 1, ..., 1)
    in a suitable lattice basis.
    """

    element_index: int
    matrix: IntMatrix
    root: tuple[int, ...]
    diagonalizable: bool


@memoised
def find_reflections(action: GroupAction) -> tuple[Reflection, ...]:
    """All reflections of the action, in element order."""
    n = action.rank
    identity = IntMatrix.identity(n)
    out = []
    for idx, moved_rank in enumerate(displacement_ranks(action)):
        if moved_rank != 1:
            continue
        g = action.elements[idx]
        if g * g != identity:
            raise AxiomFailure("rank-1 moved space but g^2 != 1")
        negated = kernel_lattice(g + identity)
        if negated.rank != 1:
            raise AxiomFailure("negated line of a reflection must be rank 1")
        root = negated.basis[0]
        lead = next(x for x in root if x)
        if lead < 0:
            root = tuple(-x for x in root)
        fixed = kernel_lattice(g - identity)
        split = IntMatrix(list(fixed.basis) + [root], ncols=n)
        diagonalizable = abs(split.det()) == 1
        out.append(Reflection(idx, g, tuple(root), diagonalizable))
    return tuple(out)


@memoised
def _root_span(action: GroupAction) -> tuple[frozenset, int]:
    """The roots of the action's reflections, both signs of each, and the
    rank of their span."""
    refls = find_reflections(action)
    roots = frozenset(r.root for r in refls) | frozenset(
        tuple(-x for x in r.root) for r in refls
    )
    if len(roots) != 2 * len(refls):
        raise AxiomFailure("reflections do not have distinct root lines")
    return roots, IntMatrix(sorted(roots), ncols=action.rank).rank()


@memoised
def is_reflection_group(action: GroupAction) -> bool:
    """True when the reflections generate the whole group (vacuously true
    for the trivial group).

    G permutes its reflections by conjugation and maps primitive roots to
    primitive roots, so the roots form a reduced crystallographic root
    system of the subgroup W' the reflections generate, and the simple
    reflections of any base generate W' (Humphreys, Reflection Groups and
    Coxeter Groups, Thm 1.5).  Only those r reflections are closed.
    """
    refls = find_reflections(action)
    if not refls:
        return action.order == 1
    roots, rank = _root_span(action)
    simple = _base_reflections(refls, _generic_base(roots, rank))
    sub = close_group([r.matrix for r in simple], cap=action.order)
    return sub.order == action.order


def _base_reflections(refls, base) -> tuple[Reflection, ...]:
    """The reflection of each base root, in base order."""
    by_line = {r.root: r for r in refls}
    return tuple(
        by_line[alpha if alpha in by_line else tuple(-x for x in alpha)]
        for alpha in base
    )


def coroot_pairing(v, refl: Reflection, root=None) -> Fraction:
    """The scalar c with v - v*g == c * root.

    `root` defaults to the reflection's normalized root; pass the negated
    root to pair against the other generator of the root line.  Raises
    NotMultiple if the difference is not proportional to the root.
    """
    if root is None:
        root = refl.root
    moved = refl.matrix.apply(v)
    diff = tuple(a - b for a, b in zip(v, moved))
    k = next(i for i, x in enumerate(root) if x)
    c = Fraction(diff[k], root[k]) if isinstance(diff[k], int) else diff[k] / root[k]
    if any(d != c * r for d, r in zip(diff, root)):
        raise NotMultiple("difference is not a multiple of the root")
    return c


@dataclass(frozen=True)
class RootDatum:
    """Root system data for a reflection group action.

    Roots live in the ambient lattice; fundamental weights are rational
    row vectors spanning the weight lattice.  `fundamental_group` holds
    the elementary divisors of weight lattice / root lattice.
    """

    rank: int
    ambient_rank: int
    roots: frozenset
    base: tuple[tuple[int, ...], ...]
    base_reflections: tuple[Reflection, ...]
    fundamental_weights: tuple[tuple[Fraction, ...], ...]
    root_lattice: Sublattice
    fundamental_group: ElementaryDivisors


def _generic_base(roots: frozenset, rank: int) -> tuple[tuple[int, ...], ...]:
    """Positive system from a generic linear functional, then the
    indecomposable positive roots."""
    n = len(next(iter(roots)))
    for t in count(1):
        functional = tuple(t**k for k in range(n))
        values = {r: sum(f * x for f, x in zip(functional, r)) for r in roots}
        if any(v == 0 for v in values.values()):
            continue
        positive = {r for r, v in values.items() if v > 0}
        base = [
            r
            for r in positive
            if not any(
                tuple(a - b for a, b in zip(r, s)) in positive for s in positive
            )
        ]
        if len(base) != rank:
            raise AxiomFailure("indecomposable positive roots do not form a base")
        return tuple(sorted(base))


def _check_base(roots: frozenset, base, rank: int, strict: bool) -> None:
    exc = InvalidBase if strict else AxiomFailure
    if len(base) != rank:
        raise exc(f"base must have {rank} roots, got {len(base)}")
    for b in base:
        if b not in roots:
            raise exc(f"base vector {b} is not a root")
    if IntMatrix(base, ncols=len(base[0])).rank() != rank:
        raise exc("base vectors are linearly dependent")
    equations = [[b[j] for b in base] for j in range(len(base[0]))]
    for r in roots:
        coeffs = solve_linear(equations, r)
        if coeffs is None or any(c.denominator != 1 for c in coeffs):
            raise exc(f"root {r} is not an integer combination of the base")
        if any(c > 0 for c in coeffs) and any(c < 0 for c in coeffs):
            raise exc(f"root {r} has mixed signs over the base")


def build_root_system(action: GroupAction, base=None) -> RootDatum:
    """Assemble the root system of a reflection group, select (or accept)
    a base, and solve for the fundamental dominant weights.

    Raises NotReflectionGroup when the reflections generate a proper
    subgroup, InvalidBase for a bad user-supplied base, and AxiomFailure
    if an internal consistency check fails.
    """
    n = action.rank
    refls = find_reflections(action)
    if not is_reflection_group(action):
        raise NotReflectionGroup(
            "the reflections generate a proper subgroup" if refls
            else "the group contains no reflections"
        )

    roots, root_rank = _root_span(action)
    projections = reynolds(action)
    rank = n - fixed_sublattice(action).rank
    if root_rank != rank:
        raise AxiomFailure("roots do not span the moving subspace")

    if rank == 0:
        return RootDatum(
            rank=0,
            ambient_rank=n,
            roots=frozenset(),
            base=(),
            base_reflections=(),
            fundamental_weights=(),
            root_lattice=Sublattice(n),
            fundamental_group=ElementaryDivisors(()),
        )

    if base is None:
        base = _generic_base(roots, rank)
        _check_base(roots, base, rank, strict=False)
    else:
        try:
            base = tuple(
                tuple(operator.index(x) for x in b) for b in base
            )
        except TypeError as exc:
            raise InvalidBase("base vectors must be integral") from exc
        _check_base(roots, base, rank, strict=True)

    base_reflections = _base_reflections(refls, base)

    weights = _solve_weights(action, projections.fixed_projection, base,
                             base_reflections)
    _verify_axioms(action, refls, roots, base, base_reflections, weights,
                   projections.fixed_projection)

    cartan_rows = [
        [
            int(coroot_pairing(alpha, refl, root=beta))
            for beta, refl in zip(base, base_reflections)
        ]
        for alpha in base
    ]
    fundamental_group = quotient_invariants(
        Sublattice(rank, cartan_rows), Sublattice.full(rank)
    )
    return RootDatum(
        rank=rank,
        ambient_rank=n,
        roots=roots,
        base=base,
        base_reflections=base_reflections,
        fundamental_weights=weights,
        root_lattice=Sublattice(n, sorted(roots)),
        fundamental_group=fundamental_group,
    )


def _solve_weights(action, rho, base, base_reflections):
    """Fundamental weights: the unique vectors in the moving subspace
    pairing to the Kronecker delta against the base coroots."""
    n = action.rank
    r = len(base)
    identity = IntMatrix.identity(n)
    equations = []
    for j in range(n):  # membership in the moving subspace: v * rho = 0
        equations.append([rho[i][j] for i in range(n)])
    anchors = []
    for alpha, refl in zip(base, base_reflections):
        k = next(i for i, x in enumerate(alpha) if x)
        moved = identity - refl.matrix
        equations.append([moved.entries[i][k] for i in range(n)])
        anchors.append(alpha[k])
    weights = []
    for i in range(r):
        rhs = [0] * n + [anchors[j] if j == i else 0 for j in range(r)]
        sol = solve_linear(equations, rhs)
        if sol is None:
            raise AxiomFailure("fundamental weight system is inconsistent")
        weights.append(tuple(sol))
    return tuple(weights)


def _verify_axioms(action, refls, roots, base, base_reflections, weights, rho):
    # reduced: the only roots proportional to a root are itself and its
    # negative
    root_list = sorted(roots)
    for i, a in enumerate(root_list):
        for b in root_list[i + 1 :]:
            if b == tuple(-x for x in a):
                continue
            k = next(j for j, x in enumerate(a) if x)
            if b[k] == 0:
                continue
            q = Fraction(b[k], a[k])
            if all(Fraction(x) == q * y for x, y in zip(b, a)):
                raise AxiomFailure(f"roots {a} and {b} are proportional")
    # each reflection permutes the root set, and pairings are integers
    for refl in refls:
        for beta in roots:
            if refl.matrix.apply(beta) not in roots:
                raise AxiomFailure("a reflection does not permute the roots")
            if coroot_pairing(beta, refl).denominator != 1:
                raise AxiomFailure("non-integral coroot pairing between roots")
    # defining property of the weights, as an exact vector identity
    for i, w in enumerate(weights):
        if any(x != 0 for x in rapply(w, rho)):
            raise AxiomFailure("fundamental weight has a fixed component")
        for j, (alpha, refl) in enumerate(zip(base, base_reflections)):
            moved = refl.matrix.apply(w)
            diff = tuple(a - b for a, b in zip(w, moved))
            expect = tuple(Fraction(x) if i == j else Fraction(0) for x in alpha)
            if diff != expect:
                raise AxiomFailure("weight pairing identity failed")
    # lattice sandwich: root lattice inside the projected lattice inside
    # the weight lattice
    pi_coords = pi_image_weight_coords_rows(action.rank, base, base_reflections)
    pi_lattice = Sublattice(len(base), pi_coords)
    for alpha in base:
        coords = [
            coroot_pairing(alpha, refl, root=beta)
            for beta, refl in zip(base, base_reflections)
        ]
        if not pi_lattice.contains([int(c) for c in coords]):
            raise AxiomFailure("root lattice escapes the projected lattice")


def pi_image_weight_coords_rows(ambient_rank, base, base_reflections):
    """Rows: the weight-basis coordinates of the projections of the
    standard basis vectors.  Integrality is the statement that the
    lattice sits inside the preimage of the weight lattice."""
    rows = []
    for k in range(ambient_rank):
        e = tuple(int(i == k) for i in range(ambient_rank))
        row = []
        for alpha, refl in zip(base, base_reflections):
            c = coroot_pairing(e, refl, root=alpha)
            if c.denominator != 1:
                raise AxiomFailure("lattice point with non-integral weight "
                                   "coordinates")
            row.append(int(c))
        rows.append(row)
    return rows


def pi_image_weight_coords(rd: RootDatum) -> Sublattice:
    """The projected lattice, written in coordinates over the fundamental
    weights; a full-rank sublattice of Z^rank."""
    rows = pi_image_weight_coords_rows(rd.ambient_rank, rd.base,
                                       rd.base_reflections)
    lat = Sublattice(rd.rank, rows)
    if lat.rank != rd.rank:
        raise AxiomFailure("projected lattice does not span the weight space")
    return lat


__all__ = [
    "Reflection",
    "RootDatum",
    "find_reflections",
    "is_reflection_group",
    "coroot_pairing",
    "build_root_system",
    "pi_image_weight_coords",
]
