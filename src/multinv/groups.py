"""Finite groups of unimodular integer matrices acting on a lattice.

Group elements are the matrices themselves (acting on the right on row
vectors), so the action is faithful by construction.

`close_group` enumerates a group on row orbits: row i of an element m is
the lattice point e_i * m, and inside the closure loop an element is the
tuple of ids of its n row points.  The rows of m * g are the rows of m,
each moved by g, so a product is n lookups in a per-generator table of
point images, filled on first use with one `IntMatrix.apply`.  Matrices
are built once, after the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps

from .errors import GroupTooLarge, NotUnimodular
from .lattice import (
    IntMatrix,
    Sublattice,
    kernel_lattice,
    smith_normal_form,
)

DEFAULT_CLOSURE_CAP = 10_000


class GroupAction:
    """A fully enumerated finite subgroup of GL_n(Z).

    `elements` is the complete, canonically sorted element list (identity
    included); `generator_indices` point at the elements that were given
    as generators.

    Facts derived from the group (fixed sublattice, effective quotient,
    displacement ranks, reflections, whether the reflections generate)
    are memoised on the action (see `memoised`): each is computed on
    first use and read back after that.  They are deterministic, so sharing an action
    between threads can at worst compute a fact twice.
    """

    __slots__ = ("rank", "elements", "generator_indices", "_index", "_memo")

    def __init__(self, rank, elements, generator_indices):
        self.rank = rank
        self.elements = tuple(elements)
        self.generator_indices = tuple(generator_indices)
        self._index = {g: i for i, g in enumerate(self.elements)}
        self._memo = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def generators(self) -> tuple[IntMatrix, ...]:
        return tuple(self.elements[i] for i in self.generator_indices)

    @property
    def identity_index(self) -> int:
        return self._index[IntMatrix.identity(self.rank)]

    def index_of(self, g: IntMatrix) -> int:
        return self._index[g]

    def __eq__(self, other):
        if not isinstance(other, GroupAction):
            return NotImplemented
        return (self.rank, self.elements) == (other.rank, other.elements)

    def __hash__(self):
        return hash((self.rank, self.elements))

    def __repr__(self):
        return f"GroupAction(rank={self.rank}, order={self.order})"


def memoised(compute):
    """Make compute(action) a fact memoised on the action: computed on
    first use, read back from the action after that."""

    @wraps(compute)
    def fact(action: GroupAction):
        if compute not in action._memo:
            action._memo[compute] = compute(action)
        return action._memo[compute]

    return fact


class _RowImages(dict):
    """Point id -> id of its image under one generator, each entry filled
    on first use: the image vector is computed once and interned in the
    shared `points` / `ids`."""

    __slots__ = ("g", "points", "ids")

    def __init__(self, g: IntMatrix, points: list, ids: dict):
        super().__init__()
        self.g, self.points, self.ids = g, points, ids

    def __missing__(self, pid: int) -> int:
        image = self.g.apply(self.points[pid])
        qid = self.ids.setdefault(image, len(self.points))
        if qid == len(self.points):
            self.points.append(image)
        self[pid] = qid
        return qid


def close_group(generators, cap: int = DEFAULT_CLOSURE_CAP,
                rank: int | None = None) -> GroupAction:
    """Multiplication closure of the given generators.

    Raises NotUnimodular for a generator with det outside {1, -1} and
    GroupTooLarge when the closure exceeds `cap` elements (the group is
    then almost certainly infinite).  An empty generator list needs an
    explicit `rank` and yields the trivial group.

    The closure runs on row orbits: an element is the tuple of ids of its
    rows e_i * m, and m * g is read off one image table per generator,
    so no matrix product is formed.  The `IntMatrix` elements are built
    after the loop and sorted by their entries.
    """
    gens = list(generators)
    if gens:
        rank = gens[0].nrows
    elif rank is None:
        raise ValueError("rank is required when no generators are given")
    for g in gens:
        if g.nrows != rank or g.ncols != rank:
            raise NotUnimodular("generators must be square of equal size")
        if g.det() not in (1, -1):
            raise NotUnimodular(f"generator determinant {g.det()} is not +-1")
    points = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    ids = {p: i for i, p in enumerate(points)}
    moves = [_RowImages(g, points, ids).__getitem__ for g in gens]
    identity = tuple(range(rank))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for move in moves:
                p = tuple(map(move, m))
                if p not in seen:
                    seen.add(p)
                    if len(seen) > cap:
                        raise GroupTooLarge(
                            f"closure exceeded {cap} elements; group is "
                            "probably infinite"
                        )
                    nxt.append(p)
        frontier = nxt
    elements = sorted(
        (IntMatrix([points[i] for i in m], ncols=rank) for m in seen),
        key=lambda g: g.entries,
    )
    index = {g: i for i, g in enumerate(elements)}
    gen_indices = []
    for g in gens:
        i = index[g]
        if i not in gen_indices:
            gen_indices.append(i)
    return GroupAction(rank, elements, gen_indices)


def orbit(action: GroupAction, point) -> frozenset:
    """The set of images of `point` under every group element."""
    start = tuple(Fraction(x) for x in point)
    return frozenset(g.apply(start) for g in action.elements)


@memoised
def fixed_sublattice(action: GroupAction) -> Sublattice:
    """The saturated sublattice of vectors fixed by the whole group."""
    gens = action.generators
    if not gens:
        return Sublattice.full(action.rank)
    identity = IntMatrix.identity(action.rank)
    return kernel_lattice(IntMatrix.hstack([g - identity for g in gens]))


@memoised
def displacement_ranks(action: GroupAction) -> tuple[int, ...]:
    """rank(1 - g) for every element, in element order; only the
    identity has rank 0."""
    identity = IntMatrix.identity(action.rank)
    return tuple(0 if g == identity else (identity - g).rank()
                 for g in action.elements)


@dataclass(frozen=True)
class EffectiveQuotient:
    """The quotient of the lattice by its fixed sublattice, with the
    induced action and a chosen splitting.

    `projection` maps ambient row vectors onto quotient coordinates;
    `section` maps quotient coordinates back into the ambient lattice
    along the chosen complement, so section * projection is the identity
    on the quotient.
    """

    fixed: Sublattice
    quotient_rank: int
    projection: IntMatrix
    section: IntMatrix
    induced: GroupAction


@memoised
def effective_quotient(action: GroupAction) -> EffectiveQuotient:
    """Split the lattice as fixed part plus complement and restrict the
    action to the (effective) quotient."""
    n = action.rank
    fixed = fixed_sublattice(action)
    f = fixed.rank
    if f == 0:
        eye = IntMatrix.identity(n)
        return EffectiveQuotient(fixed, n, eye, eye, action)
    if f == n:
        trivial = close_group([], rank=0)
        return EffectiveQuotient(
            fixed,
            0,
            IntMatrix([()] * n, ncols=0),
            IntMatrix([], ncols=n),
            trivial,
        )
    basis_matrix = IntMatrix(fixed.basis, ncols=n)
    u, d, v = smith_normal_form(basis_matrix)
    if any(d.entries[i][i] != 1 for i in range(f)):
        raise AssertionError("fixed sublattice must be saturated")
    w = v.inverse_unimodular()
    # first f rows of w span the fixed sublattice; the rest are a complement
    q = n - f
    section = IntMatrix(w.entries[f:], ncols=n)
    projection = IntMatrix([row[f:] for row in v.entries], ncols=q)
    images = [section * g * projection for g in action.generators]
    induced = close_group(images, cap=action.order, rank=q)
    if fixed_sublattice(induced).rank != 0:
        raise AssertionError("induced quotient action must be effective")
    return EffectiveQuotient(fixed, q, projection, section, induced)


def induced_matrix(eq: EffectiveQuotient, g: IntMatrix) -> IntMatrix:
    """The matrix of g on the quotient coordinates."""
    return eq.section * g * eq.projection


__all__ = [
    "GroupAction",
    "EffectiveQuotient",
    "DEFAULT_CLOSURE_CAP",
    "close_group",
    "orbit",
    "fixed_sublattice",
    "displacement_ranks",
    "effective_quotient",
    "induced_matrix",
]
