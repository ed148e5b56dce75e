"""Reflections, crystallographic root systems, and fundamental weights.

An element g of a finite group is a reflection when g^2 = 1 and
trace(g) = n - 2: it negates exactly one line and fixes a hyperplane.
Then 1 - g factors over the integers as a column times a row,
1 - g = coroot (x) root, so v - v*g = (v . coroot) * root, with the root
primitive and root . coroot = 2.  The roots form a reduced
crystallographic root system spanning the moving subspace (the subspace
the invariant functionals annihilate), and the group restricted to that
subspace is the Weyl group.

A base of simple roots fixes the rest through the coroots of its
reflections, the columns of the n x r coroot matrix.  A vector v has
weight coordinates v . coroots, so the rows of the coroot matrix span the
projected lattice in weight coordinates; the Cartan matrix is
base . coroots; and the fundamental weights, the basis of the moving
subspace dual to the simple coroots, are Cartan^-1 . base.  The root and
weight lattices and their quotient follow.

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
from .groups import GroupAction, close_group, fixed_sublattice, memoised
from .lattice import (
    ElementaryDivisors,
    IntMatrix,
    Sublattice,
    kernel_lattice,
    quotient_invariants,
    solve_linear,
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

    element_index: int
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
    for idx, g in enumerate(action.elements):
        trace = sum(g.entries[i][i] for i in range(n))
        if trace != n - 2 or g * g != identity:
            continue
        root, coroot = _root_and_coroot(g)
        out.append(Reflection(idx, g, root, coroot,
                              all(c % 2 == 0 for c in coroot)))
    return tuple(out)


def _root_and_coroot(g: IntMatrix):
    """The primitive root (first nonzero coordinate positive) and the
    coroot with 1 - g == coroot (x) root, read off the rows of 1 - g."""
    moved = [[int(i == j) - x for j, x in enumerate(row)]
             for i, row in enumerate(g.entries)]
    row = next(r for r in moved if any(r))
    k = next(j for j, x in enumerate(row) if x)
    scale = gcd(*row) if row[k] > 0 else -gcd(*row)
    root = tuple(x // scale for x in row)
    coroot = tuple(r[k] // root[k] for r in moved)
    if any(r != [c * x for x in root] for r, c in zip(moved, coroot)):
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
    of Z^rank).  Fundamental weights are rational row vectors spanning
    the weight lattice, with weights . coroots = I.  `fundamental_group`
    holds the elementary divisors of weight lattice / root lattice.
    """

    rank: int
    ambient_rank: int
    roots: frozenset
    base: tuple[tuple[int, ...], ...]
    base_reflections: tuple[Reflection, ...]
    coroots: IntMatrix
    fundamental_weights: tuple[tuple[Fraction, ...], ...]
    root_lattice: Sublattice
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
            fundamental_weights=(),
            root_lattice=Sublattice(n),
            pi_lattice=Sublattice(0),
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
    coroots = IntMatrix(zip(*(
        refl.coroot if alpha == refl.root else _negated(refl.coroot)
        for alpha, refl in zip(base, base_reflections)
    )), ncols=rank)
    base_matrix = IntMatrix(base, ncols=n)
    cartan = base_matrix * coroots
    # Cartan^-1 . base: row i of Cartan^-1 solves x * cartan == e_i, with
    # one equation per column of the Cartan matrix
    columns = cartan.transpose().entries
    weights = []
    for i in range(rank):
        x = solve_linear(columns, [int(i == j) for j in range(rank)])
        if x is None:
            raise AxiomFailure("the Cartan matrix is singular")
        weights.append(base_matrix.apply(x))
    weights = tuple(weights)
    pi_lattice = Sublattice(rank, coroots.entries)
    _verify_axioms(action, refls, roots, base, coroots, weights, pi_lattice)

    fundamental_group = quotient_invariants(
        Sublattice(rank, cartan.entries), Sublattice.full(rank)
    )
    return RootDatum(
        rank=rank,
        ambient_rank=n,
        roots=roots,
        base=base,
        base_reflections=base_reflections,
        coroots=coroots,
        fundamental_weights=weights,
        root_lattice=Sublattice(n, sorted(roots)),
        pi_lattice=pi_lattice,
        fundamental_group=fundamental_group,
    )


def _verify_axioms(action, refls, roots, base, coroots, weights, pi_lattice):
    # reduced: the only roots proportional to a root are itself and its
    # negative
    root_list = sorted(roots)
    for i, a in enumerate(root_list):
        for b in root_list[i + 1 :]:
            if b == _negated(a):
                continue
            k = next(j for j, x in enumerate(a) if x)
            if b[k] == 0:
                continue
            q = Fraction(b[k], a[k])
            if all(Fraction(x) == q * y for x, y in zip(b, a)):
                raise AxiomFailure(f"roots {a} and {b} are proportional")
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
]
