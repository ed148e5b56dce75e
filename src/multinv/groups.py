"""Finite groups of unimodular integer matrices acting on a lattice.

Group elements are the matrices themselves (acting on the right on row
vectors), so the action is faithful by construction.

`close_group` enumerates a group on row orbits: row i of an element m is
the lattice point e_i * m, and inside the closure loop an element is the
tuple of ids of its n row points.  The rows of m * g are the rows of m,
each moved by g, so a product is n lookups in a per-generator table of
point images, filled on first use with one `IntMatrix.apply`.  Every
point is an integer vector, the image of a unit row under validated
`IntMatrix` generators, so the matrices, built once after the loop, are
assembled from their rows without checking every entry again.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps

from .errors import GroupTooLarge, NotUnimodular
from .lattice import IntMatrix, Sublattice, common_denominator, kernel_lattice

DEFAULT_CLOSURE_CAP = 10_000


class GroupAction:
    """A fully enumerated finite subgroup of GL_n(Z).

    `elements` is the complete, canonically sorted element list (identity
    included); `generator_indices` point at the elements that were given
    as generators.

    Facts derived from the group (fixed sublattice, displacement ranks,
    reflections, whether the reflections generate) are memoised on the
    action (see `memoised`): each is computed on first use and read back
    after that.  They are deterministic, so sharing an action between
    threads can at worst compute a fact twice.
    """

    __slots__ = ("rank", "elements", "generator_indices", "_index", "_memo")

    def __init__(self, rank, elements, generators):
        self.rank = rank
        self.elements = tuple(elements)
        self._index = {g: i for i, g in enumerate(self.elements)}
        gen_indices = []
        for g in generators:
            i = self._index[g]
            if i not in gen_indices:
                gen_indices.append(i)
        self.generator_indices = tuple(gen_indices)
        self._memo = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def generators(self) -> tuple[IntMatrix, ...]:
        return tuple(self.elements[i] for i in self.generator_indices)

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
    so no matrix product is formed.  The row points are integral because
    they are images of the unit rows under the generators, whose entries
    `IntMatrix` checked when they were made; so after the loop the
    elements' row tuples are sorted and each `IntMatrix` is built from
    them without checking its entries again.
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
    checked = IntMatrix._from_checked_rows
    elements = [checked(rows, rank)
                for rows in sorted(tuple(map(points.__getitem__, m))
                                   for m in seen)]
    return GroupAction(rank, elements, gens)


def orbit(action: GroupAction, point) -> frozenset:
    """The set of images of `point` under every group element."""
    den = common_denominator(point)
    scaled = tuple(int(Fraction(x) * den) for x in point)
    images = {g.apply(scaled) for g in action.elements}
    return frozenset(tuple(Fraction(x, den) for x in p) for p in images)


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
    n = action.rank
    identity = IntMatrix.identity(n)
    checked = IntMatrix._from_checked_rows
    return tuple(
        0 if g == identity else checked(_one_minus_rows(g), n).rank()
        for g in action.elements)


def _one_minus_rows(g: IntMatrix) -> tuple:
    """The rows of 1 - g, as a tuple of int tuples."""
    return tuple(tuple(int(i == j) - x for j, x in enumerate(row))
                 for i, row in enumerate(g.entries))


__all__ = [
    "GroupAction",
    "DEFAULT_CLOSURE_CAP",
    "close_group",
    "orbit",
    "fixed_sublattice",
    "displacement_ranks",
]
