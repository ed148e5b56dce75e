"""Reflections, crystallographic root systems, and fundamental weights.

An element g of a finite group is a reflection when g^2 = 1 and
trace(g) = n - 2: it negates exactly one line and fixes a hyperplane.
Then 1 - g factors over the integers as a column times a row,
1 - g = coroot (x) root, so v - v*g = (v . coroot) * root, with the root
primitive and root . coroot = 2.  The roots form a reduced
crystallographic root system spanning the moving subspace (the subspace
the invariant functionals annihilate), and the group restricted to that
subspace is the Weyl group.

Whether the reflections generate the group is decided without listing
the subgroup W' they generate.  W' acts simply transitively on its
positive systems (Humphreys, Reflection Groups and Coxeter Groups,
Sections 1.6-1.8), so an element h lies in W' exactly when a descent
ends at the identity: replace h by s_i * h while h sends some simple
root alpha_i to a negative root.  Each step sends one positive root
fewer to a negative root, so the descent takes at most |positive roots|
steps.  The positive roots are those with nonnegative coordinates over
the base, and the coordinates of all roots come from one fraction-free
elimination.

A base of simple roots fixes the rest through the coroots of its
reflections, the columns of the n x r coroot matrix.  A vector v has
weight coordinates v . coroots, so the rows of the coroot matrix span the
projected lattice in weight coordinates; the Cartan matrix is
base . coroots; and the fundamental weights, the basis of the moving
subspace dual to the simple coroots, are Cartan^-1 . base, from one
elimination of [Cartan | base].  The root and weight lattices follow, and
the Smith form of the Cartan matrix gives their quotient.  In weight
coordinates the simple reflection s_i subtracts mu_i times row i of the
Cartan matrix, so `weight_orbit` walks a Weyl orbit in integers.

Everything is verified at runtime: the construction raises AxiomFailure
if any root-system axiom fails, which would indicate a bug rather than
bad input.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd

from .errors import AxiomFailure, InvalidBase, NotMultiple, NotReflectionGroup
from .groups import (GroupAction, _one_minus_rows, _search,
                     fixed_sublattice, memoised)
from .lattice import (
    ElementaryDivisors,
    IntMatrix,
    Sublattice,
    _echelon,
    kernel_lattice,
    smith_normal_form,
)


@dataclass(frozen=True)
class Reflection:
    """A group element g of order 2 that negates exactly one line.

    1 - g is the column `coroot` times the row `root`, so
    v - v*g = (v . coroot) * root.  `root` is primitive, with its first
    nonzero coordinate positive.  `diagonalizable` records whether the
    lattice splits as fixed part plus root line, i.e. whether the element
    equals diag(-1, 1, ..., 1) in a suitable lattice basis; that holds
    exactly when the coroot is even.
    """

    matrix: IntMatrix
    root: tuple[int, ...]
    coroot: tuple[int, ...]
    diagonalizable: bool


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _negated(v) -> tuple:
    return tuple(-x for x in v)


@memoised
def find_reflections(action: GroupAction) -> tuple[Reflection, ...]:
    """All reflections of the action, in element order."""
    n = action.rank
    identity = IntMatrix.identity(n)
    out = []
    for g in action.elements:
        trace = sum(g.entries[i][i] for i in range(n))
        if trace != n - 2 or g * g != identity:
            continue
        root, coroot = _root_and_coroot(g)
        out.append(Reflection(g, root, coroot,
                              all(c % 2 == 0 for c in coroot)))
    return tuple(out)


def _root_and_coroot(g: IntMatrix):
    """The primitive root (first nonzero coordinate positive) and the
    coroot with 1 - g == coroot (x) root, read off the rows of 1 - g."""
    moved = _one_minus_rows(g)
    row = next(r for r in moved if any(r))
    k = next(j for j, x in enumerate(row) if x)
    scale = gcd(*row) if row[k] > 0 else -gcd(*row)
    root = tuple(x // scale for x in row)
    coroot = tuple(r[k] // root[k] for r in moved)
    if any(r != tuple(c * x for x in root) for r, c in zip(moved, coroot)):
        raise AxiomFailure("1 - g of a reflection is not coroot times root")
    return root, coroot


@memoised
def _root_span(action: GroupAction) -> tuple[frozenset, int]:
    """The roots of the action's reflections, both signs of each, and the
    rank of their span."""
    refls = find_reflections(action)
    roots = frozenset(r.root for r in refls) | frozenset(
        _negated(r.root) for r in refls
    )
    if len(roots) != 2 * len(refls):
        raise AxiomFailure("reflections do not have distinct root lines")
    return roots, IntMatrix(sorted(roots), ncols=action.rank).rank()


@memoised
def _positive_system(action: GroupAction) -> tuple[tuple, frozenset]:
    """The base `_generic_base` picks from the roots, checked by
    `_check_base`, and the positive roots over it: those whose base
    coordinates are all nonnegative."""
    roots, rank = _root_span(action)
    base = _generic_base(roots, rank)
    coordinates = _check_base(roots, base, rank, strict=False)
    return base, frozenset(r for r, c in coordinates.items() if min(c) >= 0)


@memoised
def is_reflection_group(action: GroupAction) -> bool:
    """True when the reflections generate the whole group (vacuously true
    for the trivial group).

    G permutes its reflections by conjugation and maps primitive roots to
    primitive roots, so the roots form a reduced crystallographic root
    system of the subgroup W' the reflections generate, and W' acts
    simply transitively on its positive systems (Humphreys, Reflection
    Groups and Coxeter Groups, Sections 1.6-1.8).  Each generator is
    tested for membership in W' by descent (see `_descend`): it lies in
    W' exactly when the descent ends at the identity, and G = W' exactly
    when every generator does.  No group is closed.
    """
    refls = find_reflections(action)
    if not refls:
        return action.order == 1
    base, positive = _positive_system(action)
    simple = tuple(zip(base, _base_coroots(
        base, _base_reflections(refls, base))))
    identity = IntMatrix.identity(action.rank).entries
    return all(_descend(g.entries, simple, positive) == identity
               for g in action.generators)


def _descend(h, simple, positive):
    """Descend the group element with rows `h` by steps h -> s_i * h to
    an element that keeps the positive system, and return its rows.

    A step is taken while some simple root alpha_i has alpha_i * h
    outside `positive`; with 1 - s_i = coroot_i (x) alpha_i the step is
    h - coroot_i (x) (alpha_i * h).  When h sends alpha_i to a negative
    root, s_i * h sends one positive root fewer to a negative root than
    h does (s_i permutes the other positive roots), so at most
    |positive| steps are taken; more raise AxiomFailure.  An element of
    the reflection subgroup W' that keeps the positive system is the
    identity, so the result is the identity exactly when h lies in W'.
    """
    for _ in range(len(positive) + 1):
        for alpha, coroot in simple:
            image = tuple(_dot(alpha, column) for column in zip(*h))
            if image not in positive:
                break
        else:
            return h
        h = tuple(tuple(x - c * y for x, y in zip(row, image)) if c else row
                  for c, row in zip(coroot, h))
    raise AxiomFailure("descent to the positive system did not end")


def _base_coroots(base, base_reflections) -> tuple[tuple[int, ...], ...]:
    """The coroot of each base root: the coroot of its reflection,
    negated when the base root is the negated root."""
    return tuple(
        refl.coroot if alpha == refl.root else _negated(refl.coroot)
        for alpha, refl in zip(base, base_reflections)
    )


def _base_reflections(refls, base) -> tuple[Reflection, ...]:
    """The reflection of each base root, in base order."""
    by_line = {r.root: r for r in refls}
    return tuple(
        by_line[alpha if alpha in by_line else _negated(alpha)]
        for alpha in base
    )


def coroot_pairing(v, refl: Reflection, root=None) -> Fraction:
    """The scalar c with v - v*g == c * root.

    `root` defaults to the reflection's normalized root; pass the negated
    root to pair against the other generator of the root line.  Raises
    NotMultiple for any other root.
    """
    if root is None or tuple(root) == refl.root:
        return Fraction(_dot(v, refl.coroot))
    if tuple(root) == _negated(refl.root):
        return -Fraction(_dot(v, refl.coroot))
    raise NotMultiple("difference is not a multiple of the root")


@dataclass(frozen=True)
class RootDatum:
    """Root system data for a reflection group action.

    Roots live in the ambient lattice.  Column j of the n x r integer
    matrix `coroots` is the coroot of base root j, so v . coroots are the
    weight coordinates of v, and `pi_lattice`, the span of its rows, is
    the projected lattice in weight coordinates (a full-rank sublattice
    of Z^rank).  `cartan` is base . coroots: row i holds the weight
    coordinates of base root i.  Fundamental weights are rational row
    vectors spanning the weight lattice, with weights . coroots = I.
    `fundamental_group` holds the elementary divisors of weight lattice /
    root lattice.
    """

    rank: int
    ambient_rank: int
    roots: frozenset
    base: tuple[tuple[int, ...], ...]
    base_reflections: tuple[Reflection, ...]
    coroots: IntMatrix
    cartan: IntMatrix
    fundamental_weights: tuple[tuple[Fraction, ...], ...]
    pi_lattice: Sublattice
    fundamental_group: ElementaryDivisors


def _generic_base(roots: frozenset, rank: int) -> tuple[tuple[int, ...], ...]:
    """Positive system from a generic linear functional, then the
    indecomposable positive roots."""
    n = len(next(iter(roots)))
    for t in count(1):
        functional = tuple(t**k for k in range(n))
        values = {r: _dot(functional, r) for r in roots}
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


def _check_base(roots: frozenset, base, rank: int, strict: bool) -> dict:
    """Check that `base` is a base of the roots: `rank` independent roots
    over which every root has integer coordinates of one sign.  Returns
    {root: its coordinates over the base}.

    The coordinates of all roots come from one fraction-free elimination
    of [base^T | roots^T] on the base columns: divided by the last pivot,
    the first `rank` rows hold them.
    """
    exc = InvalidBase if strict else AxiomFailure
    if len(base) != rank:
        raise exc(f"base must have {rank} roots, got {len(base)}")
    for b in base:
        if b not in roots:
            raise exc(f"base vector {b} is not a root")
    order = list(roots)
    columns = [*base, *order]
    rows, pivots, scale, _ = _echelon(
        [[v[k] for v in columns] for k in range(len(base[0]))], rank)
    if len(pivots) != rank:
        raise exc("base vectors are linearly dependent")
    coordinates = {}
    for j, r in enumerate(order, rank):
        split = [divmod(row[j], scale) for row in rows[:rank]]
        if any(row[j] for row in rows[rank:]) or any(m for _, m in split):
            raise exc(f"root {r} is not an integer combination of the base")
        coeffs = tuple(q for q, _ in split)
        if max(coeffs) > 0 and min(coeffs) < 0:
            raise exc(f"root {r} has mixed signs over the base")
        coordinates[r] = coeffs
    return coordinates


def build_root_system(action: GroupAction, base=None) -> RootDatum:
    """Assemble the root system of a reflection group, select (or accept)
    a base, and derive the coroots, the fundamental dominant weights and
    the projected lattice from it.

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
            coroots=IntMatrix([()] * n, ncols=0),
            cartan=IntMatrix([], ncols=0),
            fundamental_weights=(),
            pi_lattice=Sublattice(0),
            fundamental_group=ElementaryDivisors(()),
        )

    if base is None:
        base, _ = _positive_system(action)
    else:
        try:
            base = tuple(
                tuple(operator.index(x) for x in b) for b in base
            )
        except TypeError as exc:
            raise InvalidBase("base vectors must be integral") from exc
        _check_base(roots, base, rank, strict=True)

    base_reflections = _base_reflections(refls, base)
    coroots = IntMatrix(zip(*_base_coroots(base, base_reflections)),
                        ncols=rank)
    cartan = IntMatrix(base, ncols=n) * coroots
    # Cartan^-1 . base: Gauss-Jordan on the rows [Cartan | base] leaves
    # scale * [1 | Cartan^-1 . base]
    rows, pivots, scale, _ = _echelon(
        [c + b for c, b in zip(cartan.entries, base)], rank)
    if len(pivots) < rank:
        raise AxiomFailure("the Cartan matrix is singular")
    weights = tuple(tuple(Fraction(x, scale) for x in row[rank:])
                    for row in rows)
    pi_lattice = Sublattice(rank, coroots.entries)
    _verify_axioms(action, refls, roots, base, coroots, weights, pi_lattice)

    # weight lattice / root lattice is Z^r / (rows of the Cartan matrix)
    _, d, _ = smith_normal_form(cartan)
    fundamental_group = ElementaryDivisors(
        tuple(d.entries[i][i] for i in range(rank)))
    return RootDatum(
        rank=rank,
        ambient_rank=n,
        roots=roots,
        base=base,
        base_reflections=base_reflections,
        coroots=coroots,
        cartan=cartan,
        fundamental_weights=weights,
        pi_lattice=pi_lattice,
        fundamental_group=fundamental_group,
    )


def weight_orbit(rd: RootDatum, weight) -> tuple[tuple[int, ...], ...]:
    """The Weyl group orbit of an integral weight, in weight coordinates,
    in breadth-first order from `weight`.

    The simple reflection s_i maps mu to mu - mu_i * (row i of the Cartan
    matrix) and fixes mu when mu_i == 0; the simple reflections generate
    the Weyl group, so `groups._search` over them reaches the whole orbit
    (Snow, "Weyl group orbits", ACM TOMS 16, 1990).
    """
    moves = [lambda mu, i=i, row=row:
             tuple(m - mu[i] * a for m, a in zip(mu, row)) if mu[i] else mu
             for i, row in enumerate(rd.cartan.entries)]
    return tuple(_search(tuple(weight), moves))


def _verify_axioms(action, refls, roots, base, coroots, weights, pi_lattice):
    # reduced: the only roots proportional to a root are itself and its
    # negative.  `_root_span` found one root line per reflection, and two
    # proportional primitive integer vectors are equal or opposite, so
    # this is the same as every root being primitive
    for a in roots:
        if gcd(*a) != 1:
            raise AxiomFailure(f"root {a} is not primitive")
    # each reflection permutes the root set
    for refl in refls:
        for beta in roots:
            c = _dot(beta, refl.coroot)
            if tuple(b - c * a for a, b in zip(refl.root, beta)) not in roots:
                raise AxiomFailure("a reflection does not permute the roots")
    # defining property of the weights, as exact identities: they pair to
    # the Kronecker delta against the base coroots, and they lie in the
    # moving subspace, which every invariant functional f (g f = f for
    # all g) annihilates
    for i, w in enumerate(weights):
        if coroots.apply(w) != tuple(int(i == j) for j in range(len(base))):
            raise AxiomFailure("weight pairing identity failed")
    identity = IntMatrix.identity(action.rank)
    invariant = kernel_lattice(
        IntMatrix.hstack([g.transpose() - identity for g in action.generators])
    )
    for w in weights:
        if any(_dot(w, f) for f in invariant.basis):
            raise AxiomFailure("fundamental weight has a fixed component")
    # lattice sandwich: root lattice inside the projected lattice inside
    # the weight lattice
    for alpha in base:
        if not pi_lattice.contains(coroots.apply(alpha)):
            raise AxiomFailure("root lattice escapes the projected lattice")


__all__ = [
    "Reflection",
    "RootDatum",
    "find_reflections",
    "is_reflection_group",
    "coroot_pairing",
    "build_root_system",
    "weight_orbit",
]
