"""Finite groups of unimodular integer matrices acting on a lattice.

Group elements are the matrices themselves (acting on the right on row
vectors), so the action is faithful by construction.

Every orbit, the group itself as the orbit of the identity included, is
found by one breadth-first search over the generators, `_search`.

When every generator is a reflection, `close_group` takes |G| from the
root system the generators' roots walk out (see `roots._walked_order`)
and lists no element; the element list is then closed on first read.

The closure enumerates a group on row orbits: row i of an element m is
the lattice point e_i * m, and inside the search an element is the
tuple of ids of its n row points.  The rows of m * g are the rows of m,
each moved by g, so a product is n lookups in a per-generator table of
point images, filled on first use with one `IntMatrix.apply`.  Every
point is an integer vector, the image of a unit row under validated
`IntMatrix` generators, so the matrices, built once after the search, are
assembled from their rows without checking every entry again.
"""

from __future__ import annotations

from functools import wraps

from .errors import GroupTooLarge, NotUnimodular
from .lattice import IntMatrix, Sublattice, kernel_lattice

DEFAULT_CLOSURE_CAP = 10_000


class GroupAction:
    """A finite subgroup of GL_n(Z), given by its generators.

    `generators` are the given ones without repeats, which orbits are
    searched over.  `elements` is the complete, canonically sorted
    element list (identity included), closed under `cap` on first read;
    `order` is |G|, read off the root heights when `close_group` found G
    generated by reflections, else the length of the element list.

    Facts derived from the group (fixed sublattice, displacement ranks,
    reflections, whether the reflections generate) are memoised on the
    action (see `memoised`): each is computed on first use and read back
    after that.  They are deterministic, so sharing an action between
    threads can at worst compute a fact twice.
    """

    __slots__ = ("rank", "generators", "cap", "_elements", "_order", "_memo")

    def __init__(self, rank, generators, cap=DEFAULT_CLOSURE_CAP):
        self.rank = rank
        self.generators = tuple(dict.fromkeys(generators))
        self.cap = cap
        self._elements = None
        self._order = None
        self._memo = {}

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            self._elements = _close(self.rank, self.generators, self.cap)
        return self._elements

    @property
    def order(self) -> int:
        if self._order is None:
            self._order = len(self.elements)
        return self._order

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
    """The group the given generators generate.

    Raises NotUnimodular for a generator that is not `rank` x `rank` (by
    default the first generator's size) or has det outside {1, -1}, and
    GroupTooLarge when the group has more than `cap` elements (it is then
    almost certainly infinite).  An empty generator list needs an
    explicit `rank` and yields the trivial group.

    When every generator is a reflection and the walk of their roots
    certifies a finite root system, |G| is the order of its Weyl group,
    read off the root heights, and no element is listed (see
    `roots._walked_order`).  Otherwise the elements are closed here, as
    `_close` describes.
    """
    gens = list(generators)
    if rank is None:
        if not gens:
            raise ValueError("rank is required when no generators are given")
        rank = gens[0].nrows
    for g in gens:
        if g.nrows != rank or g.ncols != rank:
            raise NotUnimodular("generators must be square of equal size")
        if (det := g.det()) not in (1, -1):
            raise NotUnimodular(f"generator determinant {det} is not +-1")
    action = GroupAction(rank, gens, cap)
    from .roots import _walked_order  # roots imports this module
    order = _walked_order(action)
    if order is None:
        order = len(action.elements)  # closed under the cap
    elif order > cap:
        raise GroupTooLarge(_too_large(cap))
    action._order = order
    return action


def _too_large(cap: int) -> str:
    return f"closure exceeded {cap} elements; group is probably infinite"


def _close(rank: int, gens, cap: int) -> tuple:
    """The elements of the group `gens` generate, canonically sorted;
    raises GroupTooLarge past `cap` elements.

    The closure runs on row orbits: an element is the tuple of ids of its
    rows e_i * m, and m * g is read off one image table per generator,
    so no matrix product is formed.  The row points are integral because
    they are images of the unit rows under the generators, whose entries
    `IntMatrix` checked when they were made; so after the search the
    elements' row tuples are sorted and each `IntMatrix` is built from
    them without checking its entries again.
    """
    points = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    ids = {p: i for i, p in enumerate(points)}
    moves = [lambda m, image=_RowImages(g, points, ids).__getitem__:
             tuple(map(image, m)) for g in gens]
    found = _search(tuple(range(rank)), moves, cap)
    checked = IntMatrix._from_checked_rows
    return tuple(checked(rows, rank)
                 for rows in sorted(tuple(map(points.__getitem__, m))
                                    for m in found))


def _search(start, moves, cap=None) -> list:
    """The orbit of `start` under the group the `moves` generate, in
    breadth-first order, at one move per orbit item and move; raises
    GroupTooLarge once more than `cap` items are found."""
    seen = {start}
    found = [start]
    for x in found:  # `found` grows while it is walked: a queue
        for move in moves:
            y = move(x)
            if y not in seen:
                seen.add(y)
                found.append(y)
                if cap is not None and len(found) > cap:
                    raise GroupTooLarge(_too_large(cap))
    return found


@memoised
def fixed_sublattice(action: GroupAction) -> Sublattice:
    """The saturated sublattice of vectors fixed by the whole group: the
    kernel of the rows of 1 - g over the generators g, side by side."""
    gens = action.generators
    if not gens:
        return Sublattice.full(action.rank)
    blocks = zip(*map(_one_minus_rows, gens))
    return kernel_lattice(IntMatrix._from_checked_rows(
        tuple(sum(rows, ()) for rows in blocks), action.rank * len(gens)))


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
    "fixed_sublattice",
    "displacement_ranks",
]
