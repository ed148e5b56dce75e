"""Reflections, crystallographic root systems, and fundamental weights.

An element g of a finite group is a reflection when g^2 = 1 and
trace(g) = n - 2: it negates exactly one line and fixes a hyperplane.
Then 1 - g factors over the integers as a column times a row,
1 - g = coroot (x) root, so v - v*g = (v . coroot) * root, with the root
primitive and root . coroot = 2.  The roots form a reduced
crystallographic root system spanning the moving subspace (the subspace
the invariant functionals annihilate), and the group restricted to that
subspace is the Weyl group.

Neither the reflections nor |G| need the element list
(`_root_walk`).  h^-1 s_alpha h is the reflection with root alpha * h
and coroot h^-1 . coroot, so the reflections conjugate to those among
the generators are walked out as (root, coroot) pairs under every
generator, in one loop that skips the moves fixing a pair
(`_walk_pairs`).  They generate a normal subgroup W_N, the Weyl group of
their roots; it is finite exactly when the walk ends with one coroot per
root.  The counts of positive roots by height form the partition dual
to the exponents m_i, and |W_N| = prod (m_i + 1) (Humphreys, Sections
3.9 and 3.20, after Kostant; `_kostant_order`).  The heights are read
off the coordinates of the roots over a base, all from one
fraction-free elimination, which also proves that the base spans every
root, so its size is their rank.  The base is the first independent
positive roots in the order of a generic functional, the pivot columns
of one more elimination (Humphreys, Section 1.3).  The walk's
{root: coroot} map, one root per line, is the one record of the root
lines: the base, the coordinates and the simple coroots are read off it.

W_N acts simply transitively on the positive systems, so
G = W_N x| Omega, Omega the stabilizer of the generic positive system,
and |G| = |W_N| |Omega|.  Each generator that is no reflection descends
into Omega by simple reflections (`_descend`; Humphreys, Sections
1.6-1.8), and only Omega is listed.  A reflection of G outside W_N has
a conjugate in Omega, so the reflections found in Omega are walked too,
until Omega holds none; then the walk has every reflection of G
(Humphreys, Section 1.14), and the reflections generate G exactly when
Omega = 1.

A base of simple roots fixes the rest through the coroots of its
reflections, the columns of the n x r coroot matrix.  A vector v has
weight coordinates v . coroots, so the rows of the coroot matrix span the
projected lattice in weight coordinates; the Cartan matrix is
base . coroots; and the fundamental weights, the basis of the moving
subspace dual to the simple coroots, are Cartan^-1 . base, from one
elimination of [Cartan | base].  The root and weight lattices follow;
their quotient, from the Smith form of the Cartan matrix, is taken
when `RootDatum.fundamental_group` is first read.  In weight
coordinates the simple reflection s_i subtracts mu_i times row i of the
Cartan matrix, so `weight_orbit` walks a Weyl orbit in integers, down
from its dominant weight lambda; its size |W| / |W_J|, J the zero
coordinates of lambda, comes from root heights without the walk
(`_orbit_sizes`).

Everything is verified at runtime: the construction raises AxiomFailure
if any root-system axiom fails, which would indicate a bug rather than
bad input.  `_verify_axioms` proves that the roots are reduced, that
every reflection permutes them, that the weights pair to the Kronecker
delta with the base coroots and lie in the moving subspace, and that
the root lattice lies in the projected lattice.  It does so in
O(r * |R|) steps, not one check per reflection and root: the
(root, coroot) pairs walked out from the simple pairs by the loop
`_root_walk` uses must be exactly the reflections' pairs.  Then each
simple reflection s_i maps the roots into themselves, and every
reflection is w s_i w^-1 with w in the group the s_i generate, so it
permutes the roots too (Humphreys, Sections 1.5 and 1.14).  When the
generators are the simple reflections, `_root_walk` has made that very
walk, and it is read back rather than walked again.  The weights are
checked in the integers scale * weights that the elimination gives.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import gcd
from operator import index, mul, neg

from .errors import (AxiomFailure, GroupTooLarge, InvalidBase,
                     NotReflectionGroup)
from .groups import (GroupAction, _complement, _one_minus_rows,
                     _too_large, fixed_sublattice, memoised)
from .lattice import (
    ElementaryDivisors,
    IntMatrix,
    Sublattice,
    _echelon,
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
    return sum(map(mul, u, v))


def _negated(v) -> tuple:
    return tuple(-x for x in v)


@memoised
def find_reflections(action: GroupAction) -> tuple[Reflection, ...]:
    """All reflections of the action, in element order (sorted by
    rows), from the pairs `_root_walk` walks out."""
    refls = (Reflection(_reflection_matrix(root, coroot), root, coroot,
                        all(c % 2 == 0 for c in coroot))
             for root, coroot in _root_walk(action).pairs.items())
    return tuple(sorted(refls, key=lambda r: r.matrix.entries))


def _reflection_pair(g: IntMatrix):
    """(root, coroot) with 1 - g == coroot (x) root and root . coroot == 2,
    the root primitive with its first nonzero coordinate positive, read
    off the rows of 1 - g; None when g is no reflection.

    g = 1 - c (x) a squares to 1 + (a . c - 2) c (x) a, so these are
    exactly the elements of order 2 with rank(1 - g) = 1."""
    if sum(row[i] for i, row in enumerate(g.entries)) != g.nrows - 2:
        return None  # by the trace, before a row of 1 - g is built
    moved = _one_minus_rows(g)
    row = next(r for r in moved if any(r))  # trace(1 - g) = 2
    k = next(j for j, x in enumerate(row) if x)
    scale = gcd(*row) if row[k] > 0 else -gcd(*row)
    root = tuple(x // scale for x in row)
    coroot = tuple(r[k] // root[k] for r in moved)
    if _dot(root, coroot) != 2 or any(
            r != tuple(c * x for x in root) for r, c in zip(moved, coroot)):
        return None
    return root, coroot


def _reflection_matrix(root, coroot) -> IntMatrix:
    """1 - coroot (x) root: row i is e_i - c_i * root."""
    rows = [[-c * x for x in root] for c in coroot]
    for i, row in enumerate(rows):
        row[i] += 1
    return IntMatrix._from_checked_rows(tuple(map(tuple, rows)), len(root))


# `_root_walk`'s answer: {root: coroot} of every reflection of G, the one
# record of the root lines; the base of a generic functional and the
# coordinates over it of both signs of each root; Omega, listed; |G|; and
# the set of seed pairs when every generator is a reflection, else None
_Walk = namedtuple("_Walk", "pairs base coordinates omega order seeds",
                   defaults=(None,))


@memoised
def _root_walk(action: GroupAction) -> _Walk:
    """The reflections of G, their root data and |G|, listing no more of
    G than a complement Omega to the normal subgroup W_N they generate.

    The (root, coroot) pairs of the generators that are reflections are
    walked out under every generator (`_walk_pairs`): a reflection g
    takes the pair of s_alpha to that of g s_alpha g, and any other
    generator h to that of h^-1 s_alpha h, (alpha * h, h^-1 . coroot).
    The pairs walked are the reflections of G conjugate to a walked
    one, so they generate a normal subgroup W_N, the Weyl group of their
    roots (see below), of order the Kostant product over the root
    heights (Humphreys, Sections 3.9 and 3.20; `_kostant_order`).  W_N
    acts simply transitively on the positive systems (Humphreys,
    Sections 1.6-1.8), so G = W_N x| Omega, Omega the stabilizer of the
    positive system of the generic functional (`_generic_base`), and
    |G| = |W_N| |Omega|.  Each other generator descends to its
    representative in Omega (`_descend`); these generate Omega, which is
    listed under cap // |W_N| (`_complement`).  With no reflection among
    the generators, W_N = 1 and Omega = G, `action.elements`, and the
    reflections listed there are the seeds.

    A reflection r of G outside W_N has a conjugate in Omega: its root
    is no root of W_N (else r = s_alpha, or G is infinite), so some
    functional fixed by r is nonzero on every root, and r keeps its
    positive system, the image of the generic one under some w in W_N;
    then w r w^-1 is a reflection in Omega.  So when Omega holds
    reflections, their pairs are walked too, Omega's elements descend
    again, and this repeats until Omega holds none: then every
    reflection of G is walked, and G is generated by reflections exactly
    when Omega = 1.

    G is finite exactly when the walk ends with one coroot per root and
    Omega is finite.  A root a with coroots c1 != c2 gives
    s1 s2 = 1 + (c1 - c2) (x) a, of infinite order, as is a product of
    two reflections that the dihedral rule of `_walk_pairs` refuses, and
    each pair walked is a distinct reflection of G, so a walk past
    `action.cap` pairs means |G| > cap: all raise GroupTooLarge, with
    the closure's message, as does Omega past cap // |W_N| elements.  A
    walk that ends leaves W_N permuting the finitely many roots, which
    span the root span V, so W_N acts on V through a finite group,
    orthogonal for some invariant inner product; there
    v . coroot = 2 (v, a) / (a, a), and the only vector of V pairing to
    zero with every coroot is 0.  An element w fixing every root fixes
    every coroot (a root has one), so v * w - v, which lies in V, pairs
    to zero with every coroot: w = 1.  So W_N embeds in the permutations
    of the roots and is their Weyl group.
    """
    pairs, others = [], []
    for g in action.generators:
        pair = _reflection_pair(g)
        if pair:
            pairs.append(pair)
        else:
            others.append(g)
    omega = None
    if not pairs:  # W_N = 1, so Omega = G; a reflection in it is a seed
        omega = _complement(action, others, 1)
        pairs = [pair for w in omega if (pair := _reflection_pair(w))]
        if not pairs:
            return _Walk({}, (), {}, omega, len(omega))
    conjugations = [(tuple(zip(*h.entries)), _inverse_rows(h))
                    for h in others]
    identity = IntMatrix.identity(action.rank)
    while True:
        found = _walk_pairs(pairs, action.cap, conjugations)
        if found is None:
            raise GroupTooLarge(_too_large(action.cap))
        base = _generic_base(found)
        coordinates = _check_base(found, base, len(base), strict=False)
        weyl_order = _kostant_order(sum(c) for c in coordinates.values()
                                    if min(c) >= 0)
        simple = _simple_pairs(found, base)
        if omega is None:
            omega = _complement(action, [
                w for h in others
                if (w := _descend(h, simple, coordinates)) != identity],
                weyl_order)
        else:
            omega = tuple(dict.fromkeys(_descend(w, simple, coordinates)
                                        for w in omega))
        absorbed = [pair for w in omega if (pair := _reflection_pair(w))]
        if not absorbed:
            return _Walk(found, base, coordinates, omega,
                         weyl_order * len(omega),
                         None if conjugations else set(pairs))
        pairs += absorbed


def _inverse_rows(h: IntMatrix) -> tuple:
    """The rows of h^-1, for h of determinant +-1: Gauss-Jordan on the
    rows [h | 1] leaves last * [1 | h^-1], with last = +-1."""
    n = h.nrows
    rows, _, last, _ = _echelon(
        [row + tuple(int(i == j) for j in range(n))
         for i, row in enumerate(h.entries)], n, reduced=True)
    return tuple(tuple(x // last for x in row[n:]) for row in rows)


def _descend(h: IntMatrix, simple, coordinates) -> IntMatrix:
    """w h for the w in W_N with w h in Omega, the stabilizer of the
    positive system: while a simple root alpha_i has alpha_i * h
    negative, h becomes s_i h = h - coroot_i (x) (alpha_i * h) on the
    rows.  s_i h sends one positive root fewer than h to a negative one
    (s_i permutes the positive roots other than alpha_i), so this ends
    within |R+| steps (Humphreys, Sections 1.6-1.8); AxiomFailure past
    them.  `simple` holds the (simple root, coroot) pairs, and
    `coordinates` the roots' coordinates over them."""
    rows = h.entries
    for _ in range(len(coordinates) // 2 + 1):
        for a, c in simple:
            image = tuple(sum(map(mul, a, col)) for col in zip(*rows))
            if min(coordinates[image]) < 0:
                rows = tuple(tuple(x - k * y for x, y in zip(row, image))
                             for row, k in zip(rows, c))
                break
        else:
            return IntMatrix._from_checked_rows(rows, h.ncols)
    raise AxiomFailure("a descent did not end within |R+| steps")


def _walk_pairs(pairs, cap, conjugations=()):
    """{root: coroot} walked out from the normalised (root, coroot)
    `pairs` under the reflections 1 - c (x) a they stand for and under
    the `conjugations`, by one breadth-first loop, in the order found;
    None when a root has two coroots, among the seeds or on a move, when
    a move's two reflections generate an infinite group, or when more
    than `cap` pairs are found.  Each move's result is negated when the
    root's first nonzero coordinate is negative (`_moves`)."""
    found, queue = dict(pairs), list(pairs)  # `queue` grows while walked
    if len(found) < len(queue):
        return None
    for root, coroot in queue:
        if len(queue) > cap:
            return None
        for move in _moves(root, coroot, pairs, conjugations):
            if move is None:
                return None
            r, s = move
            if next(filter(None, r)) < 0:
                r, s = map(neg, r), map(neg, s)
            r, s = tuple(r), tuple(s)
            if r not in found:
                found[r] = s
                queue.append((r, s))
            elif found[r] != s:
                return None
    return found  # each pair found was walked, after the check


def _moves(root, coroot, pairs, conjugations):
    """The images of the pair (root, coroot), one at a time, or None
    for a move that proves the group infinite.

    The move by (a, c) takes root to root - (root . c) a and coroot to
    coroot - (a . coroot) c; it is skipped when both products are 0, as
    it then fixes the pair.  Dihedral rule: for root != a, the two
    reflections keep span(root, a), where their product has trace
    k m - 2, k and m the two products, so it has finite order only when
    k m is 1, 2 or 3 (or both are 0).  A conjugation, given as the
    columns of h and the rows of h^-1, takes root to root * h and coroot
    to h^-1 . coroot."""
    for a, c in pairs:
        k, m = sum(map(mul, root, c)), sum(map(mul, a, coroot))
        if k or m:
            yield (([x - k * y for x, y in zip(root, a)],
                    [x - m * y for x, y in zip(coroot, c)])
                   if 0 < k * m < 4 or root == a else None)
    for columns, inverse in conjugations:
        yield ([sum(map(mul, root, col)) for col in columns],
               [sum(map(mul, row, coroot)) for row in inverse])


def _kostant_order(heights) -> int:
    """The order of the Weyl group whose positive roots have these
    heights: prod (k + 1) ** (n_k - n_(k+1)), n_k the number of height k,
    whose differences count the exponents (Humphreys, Sections 3.9 and
    3.20, after Kostant)."""
    counts = Counter(heights)
    order = 1
    for k in range(1, max(counts, default=0) + 1):
        exponents = counts[k] - counts[k + 1]
        if exponents < 0:
            raise AxiomFailure("root heights do not form a partition")
        order *= (k + 1) ** exponents
    return order


def is_reflection_group(action: GroupAction) -> bool:
    """True when the reflections generate the whole group (vacuously true
    for the trivial group): when Omega, the complement of `_root_walk`,
    is trivial, since Omega then holds no reflection and every
    reflection of G lies in W_N.  No group is listed here."""
    return len(_root_walk(action).omega) == 1


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
    `coordinates` maps each root to its integer coordinates over the
    base.  `fundamental_group`, the elementary divisors of weight lattice
    / root lattice, is taken on first read.  Equality leaves both out:
    `base` and `cartan` fix them.
    """

    rank: int
    ambient_rank: int
    roots: frozenset
    base: tuple[tuple[int, ...], ...]
    coroots: IntMatrix
    cartan: IntMatrix
    fundamental_weights: tuple[tuple[Fraction, ...], ...]
    pi_lattice: Sublattice
    coordinates: dict = field(compare=False)

    @cached_property
    def fundamental_group(self) -> ElementaryDivisors:
        # weight lattice / root lattice is Z^r / (rows of the Cartan matrix)
        _, d, _ = smith_normal_form(self.cartan)
        return ElementaryDivisors(tuple(d.entries[i][i]
                                        for i in range(self.rank)))


def _generic_base(lines) -> tuple[tuple[int, ...], ...]:
    """The base of the positive system of a generic linear functional: the
    pivot columns of one forward elimination over the positive roots, one
    on each line of `lines`, in the order of their values.  A positive
    root that is not simple is a positive combination of simple roots of
    smaller value, so it is never a pivot, and each simple root is one
    (Humphreys, Section 1.3)."""
    n = len(next(iter(lines)))
    for t in count(1):
        functional = tuple(t**k for k in range(n))
        values = [(_dot(functional, r), r) for r in lines]
        if any(v == 0 for v, _ in values):
            continue
        positive = [r for _, r in sorted(
            (abs(v), r if v > 0 else _negated(r)) for v, r in values)]
        # the positive roots as columns
        _, pivots, _, _ = _echelon(zip(*positive), len(positive))
        return tuple(sorted(positive[j] for j in pivots))


def _check_base(lines, base, rank: int, strict: bool) -> dict:
    """Check that `base` is a base of the roots +-`lines`: `rank`
    independent roots over which every root has integer coordinates of
    one sign.  Returns {root: its coordinates over the base}.

    The coordinates come from one fraction-free elimination of
    [base^T | lines^T] on the base columns (those of -a are those of a
    negated): divided by the last pivot, the first `rank` rows hold them.
    The first root of `lines` that fails is named, as `lines` holds it.
    """
    exc = InvalidBase if strict else AxiomFailure
    if len(base) != rank:
        raise exc(f"base must have {rank} roots, got {len(base)}")
    for b in base:
        if b not in lines and _negated(b) not in lines:
            raise exc(f"base vector {b} is not a root")
    columns = [*base, *lines]
    rows, pivots, scale, _ = _echelon(zip(*columns), rank, reduced=True)
    if len(pivots) != rank:
        raise exc("base vectors are linearly dependent")
    coordinates = {}
    for j, r in enumerate(lines, rank):
        split = [divmod(row[j], scale) for row in rows[:rank]]
        if any(row[j] for row in rows[rank:]) or any(m for _, m in split):
            raise exc(f"root {r} is not an integer combination of the base")
        coeffs = tuple(q for q, _ in split)
        if max(coeffs) > 0 and min(coeffs) < 0:
            raise exc(f"root {r} has mixed signs over the base")
        coordinates[r], coordinates[_negated(r)] = coeffs, _negated(coeffs)
    return coordinates


def _simple_pairs(pairs: dict, base) -> list:
    """The (root, coroot) pair of each base root, from the walk's `pairs`:
    a base root -a has the coroot of a, negated."""
    return [(a, pairs[a]) if a in pairs else (a, _negated(pairs[_negated(a)]))
            for a in base]


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

    walk = _root_walk(action)
    rank = n - fixed_sublattice(action).rank
    if len(walk.base) != rank:
        raise AxiomFailure("roots do not span the moving subspace")
    if base is None:
        base, coordinates = walk.base, walk.coordinates
    else:
        try:
            base = tuple(tuple(map(index, b)) for b in base)
        except TypeError as exc:
            raise InvalidBase("base vectors must be integral") from exc
        coordinates = _check_base(walk.pairs, base, rank, strict=True)

    coroots = IntMatrix((c for _, c in _simple_pairs(walk.pairs, base)),
                        ncols=n).transpose()
    cartan = IntMatrix(base, ncols=n) * coroots
    # Cartan^-1 . base: Gauss-Jordan on the rows [Cartan | base] leaves
    # scale * [1 | Cartan^-1 . base]
    rows, pivots, scale, _ = _echelon(
        [c + b for c, b in zip(cartan.entries, base)], rank, reduced=True)
    if len(pivots) < rank:
        raise AxiomFailure("the Cartan matrix is singular")
    scaled_weights = [row[rank:] for row in rows]
    pi_lattice = Sublattice(rank, coroots.entries)
    _verify_axioms(action, refls, base, coroots, scaled_weights, scale,
                   pi_lattice)
    return RootDatum(
        rank=rank,
        ambient_rank=n,
        roots=frozenset(coordinates),  # both signs of each root
        base=base,
        coroots=coroots,
        cartan=cartan,
        fundamental_weights=tuple(
            tuple(Fraction(x, scale) for x in row) for row in scaled_weights),
        pi_lattice=pi_lattice,
        coordinates=coordinates,
    )


def weight_orbit(rd: RootDatum, weight) -> tuple[tuple[int, ...], ...]:
    """The Weyl group orbit of an integral weight, in weight coordinates,
    walked breadth-first down from its dominant representative
    dom(weight), so the order depends only on the orbit (and starts at
    `weight` itself when that is dominant).

    The simple reflection s_i maps mu to mu - mu_i * (row i of the Cartan
    matrix).  From dom(weight) every weight of the orbit is reached by
    steps that apply s_i only where mu_i > 0, each lowering the weight by
    a positive multiple of alpha_i; s_i with mu_i < 0 leads back to a
    weight found one level up, so the walk lists the orbit in the same
    breadth-first order as a search over every s_i (Snow, "Weyl group
    orbits", ACM TOMS 16, 1990).
    """
    cartan = _sparse(rd.cartan.entries)
    walk = _walk_down(cartan, [()] * rd.rank, _dominant(cartan, weight), ())
    return tuple(mu for mu, _ in walk)


def _walk_down(cartan, lifts, start, point) -> list:
    """The walk of `weight_orbit` from the dominant weight `start`, each
    weight paired with a vector: `point` with `start`, and
    v - mu_i * lifts[i] with s_i mu when v is paired with mu.  With
    lifts[i] the image of the i-th simple root under a linear map of the
    weights, and `point` that of `start`, each weight is paired with its
    image.  The rows of the Cartan matrix and the lifts come as
    `_sparse` gives them."""
    seen = {start}
    found = [(start, tuple(point))]
    for mu, v in found:  # `found` grows while it is walked: a queue
        for i, m in enumerate(mu):
            if m > 0:
                nu = _minus(mu, m, cartan[i])
                if nu not in seen:
                    seen.add(nu)
                    found.append((nu, _minus(v, m, lifts[i])))
    return found


def _sparse(rows):
    """Each row as the (index, entry) pairs of its nonzero entries."""
    return [[(j, a) for j, a in enumerate(row) if a] for row in rows]


def _minus(v, m, sparse_row) -> tuple:
    """v - m * row, for a row as `_sparse` gives it."""
    w = list(v)
    for j, a in sparse_row:
        w[j] -= m * a
    return tuple(w)


def _dominant(sparse_cartan, weight) -> tuple[int, ...]:
    """dom(weight): reflect by s_i while some coordinate mu_i < 0; each
    step raises the weight by -mu_i * alpha_i, so the walk ends, at the
    one dominant weight of the orbit (Humphreys, Section 1.12).  The
    Cartan matrix's rows come as `_sparse` gives them."""
    mu = tuple(weight)
    while True:
        for i, m in enumerate(mu):
            if m < 0:
                mu = _minus(mu, m, sparse_cartan[i])
                break
        else:
            return mu


def _orbit_sizes(rd: RootDatum):
    """A function from a dominant weight lambda to |W lambda|, memoised on
    the set J of its zero coordinates.

    The stabiliser of lambda is W_J, generated by the s_j with j in J
    (Humphreys, Section 1.12), so |W lambda| = |W| / |W_J|; the positive
    roots of W_J are the positive roots supported on J, read from the
    base coordinates `rd.coordinates`, and their heights give |W_J| as
    in `_root_walk`.  No orbit is listed."""
    supports = [(sum(1 << i for i, x in enumerate(c) if x), sum(c))
                for c in rd.coordinates.values() if min(c) >= 0]
    order = _kostant_order(h for _, h in supports)
    sizes = {}

    def size(weight) -> int:
        zeros = sum(1 << i for i, x in enumerate(weight) if not x)
        if zeros not in sizes:
            q, rem = divmod(order, _kostant_order(
                h for support, h in supports if not support & ~zeros))
            if rem:
                raise AxiomFailure("a parabolic order does not divide |W|")
            sizes[zeros] = q
        return sizes[zeros]

    return size


def _verify_axioms(action, refls, base, coroots, scaled_weights, scale,
                   pi_lattice):
    """Check the root-system axioms and the defining identities of the
    weights, given as the integer rows scale * weights; AxiomFailure on
    the first that fails."""
    # reduced: the only roots proportional to a root are itself and its
    # negative.  The walk found one root line per reflection, and two
    # proportional primitive integer vectors are equal or opposite, so
    # this is the same as every root being primitive.  The roots are
    # +-(the reflections' roots), and -a has a's gcd
    for r in refls:
        if gcd(*r.root) != 1:
            raise AxiomFailure(f"root {r.root} is not primitive")
    # each reflection permutes the roots: the walk from the simple pairs
    # maps each root it walks by each s_i to one it walks (a skipped
    # move fixes the root), and s(-beta) = -s(beta), so when it walks
    # exactly the reflections' pairs, each s_i, and so each w s_i w^-1,
    # maps the roots into themselves.  When `_root_walk` walked from the
    # same seeds under no conjugation, it made this walk, under a cap no
    # smaller, which changes no walk that ends at the reflections' pairs:
    # it is read back
    simple = [(a, c) if next(filter(None, a)) > 0
              else (_negated(a), _negated(c))
              for a, c in zip(base, zip(*coroots.entries))]
    walk = _root_walk(action)
    walked = (walk.pairs if walk.seeds == set(simple)
              else _walk_pairs(simple, len(refls)))
    if walked != {r.root: r.coroot for r in refls}:
        raise AxiomFailure("a reflection does not permute the roots")
    # defining property of the weights, as exact identities: they pair to
    # the Kronecker delta against the base coroots, and they lie in the
    # moving subspace, the annihilator of the invariant functionals f
    # (g f = f for all g), which is the sum of the row spaces of 1 - g
    for i, w in enumerate(scaled_weights):
        if coroots.apply(w) != tuple(scale * (i == j)
                                     for j in range(len(base))):
            raise AxiomFailure("weight pairing identity failed")
    # the 1 - g rows have rank len(base): `build_root_system` has checked
    # that it is n minus the rank of the fixed sublattice, and a finite
    # group fixes as many dimensions of rows as of columns
    moved = [row for g in action.generators for row in _one_minus_rows(g)]
    if len(_echelon(moved + scaled_weights, action.rank)[1]) != len(base):
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
    "build_root_system",
    "weight_orbit",
]
