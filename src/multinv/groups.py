"""Finite groups of unimodular integer matrices acting on a lattice.

Group elements are the matrices themselves (acting on the right on row
vectors), so the action is faithful by construction.

Orbits are found by three breadth-first loops: the group, as the orbit
of the identity, by `_search` over the generators; the reflections'
(root, coroot) pairs by `roots._walk_pairs`; and a Weyl orbit of
weights, down from its dominant one, by `roots._walk_down`.

|G| is decided in one place, `GroupAction.order`, by
`roots._root_walk`: the reflections conjugate to a reflection among the
generators generate a normal subgroup W_N whose order is read off its
roots, and |G| = |W_N| |Omega|, Omega a complement listed by
`_complement`, stopped at the cap.  Only Omega is listed: nothing when
every generator descends into W_N, all of G when no generator is a
reflection (W_N = 1).

The closure enumerates a group on row orbits: row i of an element m is
the lattice point e_i * m, and inside the search an element is the
tuple of ids of its n row points.  The rows of m * g are the rows of m,
each moved by g, so a product is n lookups in a per-generator table of
point images, filled on first use with one `IntMatrix.apply` (on the
columns it keeps).  Every point is an integer vector, the image of a
unit row under validated `IntMatrix` generators, so the matrices, built
once after the search, are assembled from their rows without checking
every entry again.
"""

from __future__ import annotations

from functools import wraps

from .errors import GroupTooLarge, NotUnimodular
from .lattice import IntMatrix, Sublattice, kernel_lattice

DEFAULT_CLOSURE_CAP = 10_000


class GroupAction:
    """A finite subgroup of GL_n(Z), given by its generators.

    `generators` are the given ones without repeats, which orbits are
    searched over.  Every fact derived from the group is memoised on the
    action (see `memoised`): computed on first use, read back after that.
    `elements` reads the complete, canonically sorted element list
    (identity included), closed under `cap`; `order` reads |G| off
    `roots._root_walk`, which lists no more than a complement Omega to
    the normal subgroup W_N its walked reflections generate:
    |G| = |W_N| |Omega|.  Facts are deterministic, so sharing an action
    between threads can at worst compute a fact twice.
    """

    __slots__ = ("rank", "generators", "cap", "_memo")

    def __init__(self, rank, generators, cap=DEFAULT_CLOSURE_CAP):
        self.rank = rank
        self.generators = tuple(dict.fromkeys(generators))
        self.cap = cap
        self._memo = {}

    @property
    def elements(self) -> tuple:
        return _elements(self)

    @property
    def order(self) -> int:
        return roots._root_walk(self).order

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
    on first use: the image vector is computed once, by the generator's
    `apply`, and interned in the shared `points` / `ids`."""

    __slots__ = ("apply", "points", "ids")

    def __init__(self, g: IntMatrix, points: list, ids: dict):
        super().__init__()
        self.apply, self.points, self.ids = g.apply, points, ids

    def __missing__(self, pid: int) -> int:
        image = self.apply(self.points[pid])
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

    |G| is decided by `GroupAction.order`, read here against `cap`:
    `roots._root_walk` walks the reflections' roots under every
    generator, raising GroupTooLarge when the walk proves G infinite or
    passes `cap` reflections, and lists only the complement Omega, under
    cap // |W_N| elements (`_complement`, which closes as `_close`
    describes).
    """
    gens = list(generators)
    if rank is None:
        if not gens:
            raise ValueError("rank is required when no generators are given")
        rank = gens[0].nrows
    for i, g in enumerate(gens):
        if g.nrows != rank or g.ncols != rank:
            raise NotUnimodular("generators must be square of equal size")
        if (det := g.det()) not in (1, -1):
            raise NotUnimodular(
                f"generators[{i}] has determinant {det}, not +-1")
    action = GroupAction(rank, gens, cap)
    if action.order > cap:
        raise GroupTooLarge(_too_large(cap))
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


@memoised
def _elements(action: GroupAction) -> tuple:
    """G's element list, canonically sorted, closed under `action.cap`."""
    return _close(action.rank, action.generators, action.cap)


def _complement(action: GroupAction, gens, unit: int) -> tuple:
    """The elements of the group `gens` generate, a complement in G to a
    normal subgroup of order `unit`: the identity alone for no
    generator, G's own element list when `unit` is 1, else the closure
    of `gens` under cap // unit elements.  Past those, G has more than
    `action.cap` elements, and GroupTooLarge says so."""
    if not gens:
        return (IntMatrix.identity(action.rank),)
    if unit == 1:
        return action.elements
    try:
        return _close(action.rank, gens, action.cap // unit)
    except GroupTooLarge:
        raise GroupTooLarge(_too_large(action.cap)) from None


def _search(start, moves, cap: int) -> list:
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
                if len(found) > cap:
                    raise GroupTooLarge(_too_large(cap))
    return found


@memoised
def fixed_sublattice(action: GroupAction) -> Sublattice:
    """The saturated sublattice of vectors fixed by the whole group: the
    kernel of the rows of 1 - g over the generators g, side by side."""
    blocks = [_one_minus_rows(g) for g in action.generators]
    return kernel_lattice(IntMatrix._from_checked_rows(
        tuple(sum((b[i] for b in blocks), ()) for i in range(action.rank)),
        action.rank * len(blocks)))


def _one_minus_rows(g: IntMatrix) -> tuple:
    """The rows of 1 - g, as a tuple of int tuples."""
    rows = [[-x for x in row] for row in g.entries]
    for i, row in enumerate(rows):
        row[i] += 1
    return tuple(map(tuple, rows))


__all__ = [
    "GroupAction",
    "DEFAULT_CLOSURE_CAP",
    "close_group",
    "fixed_sublattice",
]

# last, as roots imports this module; read by `GroupAction.order`
from . import roots  # noqa: E402
