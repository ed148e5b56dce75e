"""Reflections, crystallographic root systems, and fundamental weights.

An element g of a finite group is a reflection when g^2 = 1 and
trace(g) = n - 2: it negates exactly one line and fixes a hyperplane.
Then 1 - g factors over the integers as a column times a row,
1 - g = coroot (x) root, so v - v*g = (v . coroot) * root, with the root
primitive and root . coroot = 2.  The roots form a reduced
crystallographic root system spanning the moving subspace (the subspace
the invariant functionals annihilate), and the group restricted to that
subspace is the Weyl group.

When every generator is a reflection, G is the Weyl group W of the
roots, and neither the reflections nor |G| need the element list.  Every
reflection of W is s_alpha for a root alpha in the W-orbit of the
generators' roots (Humphreys, Section 1.14), and h^-1 s_alpha h is the
reflection with root alpha * h and coroot h^-1 . coroot, so the
reflections are walked out as (root, coroot) pairs over the generators
(`_root_walk`).  The counts of positive roots by height form the
partition dual to the exponents m_i, and |W| = prod (m_i + 1)
(Humphreys, Sections 3.9 and 3.20, after Kostant; `_walked_order`).

Whether the reflections generate the group is decided from two orders.
The group W' they generate fixes the lattice modulo the root span V,
since v * s - v lies in Q alpha, and acts on V as the Weyl group of the
roots; an element trivial on both V and the quotient is unipotent of
finite order, so it is 1.  Hence |W'| is the Kostant product over the
root heights (`_weyl_order`), and G = W' exactly when |G| equals it.
The heights are read off the coordinates of the roots over a base, all
from one fraction-free elimination.

A base of simple roots fixes the rest through the coroots of its
reflections, the columns of the n x r coroot matrix.  A vector v has
weight coordinates v . coroots, so the rows of the coroot matrix span the
projected lattice in weight coordinates; the Cartan matrix is
base . coroots; and the fundamental weights, the basis of the moving
subspace dual to the simple coroots, are Cartan^-1 . base, from one
elimination of [Cartan | base].  The root and weight lattices follow, and
the Smith form of the Cartan matrix gives their quotient.  In weight
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
O(r * |R|) steps, not one check per reflection and root: each simple
reflection s_i maps the roots into themselves, and the (root, coroot)
pairs of all reflections are walked out from the simple pairs under
the s_i.  Every reflection is then w s_i w^-1 with w in the group the
s_i generate, which permutes the roots, so every reflection does
(Humphreys, Sections 1.5 and 1.14).  The weights are checked in the
integers scale * weights that the elimination gives.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import gcd

from .errors import (AxiomFailure, GroupTooLarge, InvalidBase,
                     NotReflectionGroup)
from .groups import (GroupAction, _one_minus_rows, _search,
                     fixed_sublattice, memoised)
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
    return sum(map(operator.mul, u, v))


def _negated(v) -> tuple:
    return tuple(-x for x in v)


@memoised
def find_reflections(action: GroupAction) -> tuple[Reflection, ...]:
    """All reflections of the action, in element order (sorted by
    rows): walked out from the generators when `_root_walk` certifies
    the walk, else found among the elements."""
    pairs = _root_walk(action)
    if pairs is None:
        n = action.rank  # a reflection has trace n - 2
        pairs = [pair for g in action.elements
                 if sum(g.entries[i][i] for i in range(n)) == n - 2
                 and (pair := _reflection_pair(g)) is not None]
    refls = (Reflection(_reflection_matrix(root, coroot), root, coroot,
                        all(c % 2 == 0 for c in coroot))
             for root, coroot in pairs)
    return tuple(sorted(refls, key=lambda r: r.matrix.entries))


def _reflection_pair(g: IntMatrix):
    """(root, coroot) with 1 - g == coroot (x) root and root . coroot == 2,
    the root primitive with its first nonzero coordinate positive, read
    off the rows of 1 - g; None when g is no reflection.

    g = 1 - c (x) a squares to 1 + (a . c - 2) c (x) a, so these are
    exactly the elements of order 2 with rank(1 - g) = 1."""
    moved = _one_minus_rows(g)
    row = next((r for r in moved if any(r)), None)
    if row is None:
        return None
    k = next(j for j, x in enumerate(row) if x)
    scale = gcd(*row) if row[k] > 0 else -gcd(*row)
    root = tuple(x // scale for x in row)
    coroot = tuple(r[k] // root[k] for r in moved)
    if _dot(root, coroot) != 2 or any(
            r != tuple(c * x for x in root) for r, c in zip(moved, coroot)):
        return None
    return root, coroot


def _reflection_matrix(root, coroot) -> IntMatrix:
    """1 - coroot (x) root."""
    return IntMatrix._from_checked_rows(
        tuple(tuple(int(i == j) - c * x for j, x in enumerate(root))
              for i, c in enumerate(coroot)), len(root))


# Most roots of an irreducible reduced crystallographic root system of
# rank k, for k = 1..8 (A1, G2, B3, F4, B5, E6, E7, E8); beyond that B_k
# and C_k, with 2k^2.
_MOST_IRREDUCIBLE_ROOTS = (0, 2, 12, 18, 48, 50, 72, 126, 240)


def _most_roots(rank: int) -> int:
    """The most roots a reduced crystallographic root system of the given
    rank has: the largest sum of irreducible maxima over ranks adding up
    to `rank` (E8 x A1 has 242 roots at rank 9)."""
    best = [0]
    for r in range(1, rank + 1):
        best.append(max(
            (_MOST_IRREDUCIBLE_ROOTS[k] if k <= 8 else 2 * k * k)
            + best[r - k] for k in range(1, r + 1)))
    return best[rank]


@memoised
def _root_walk(action: GroupAction):
    """The (root, coroot) pair of every reflection of G, walked out from
    the generators, or None unless every generator is a reflection and
    the walk certifies that G is a finite Weyl group.

    A reflection g (g^-1 = g) moves the pair of s_alpha to the pair of
    g s_alpha g: root -> root * g and coroot -> g . coroot, by row
    arithmetic with 1 - g = c (x) a; each pair is normalised so its root
    has first nonzero coordinate positive.  With r the rank of the
    generators' roots (v * g - v is a multiple of a, so every root lies in
    their span, and likewise every coroot in the span of theirs), the
    walk is trusted when
    - the generators' coroots also have rank r,
    - it finds at most `_most_roots(r)` roots, and
    - each root has one coroot.
    Then G permutes the finitely many roots, which span the root span
    V, so it acts on V through a finite group, orthogonal for some
    invariant inner product; there v . coroot = 2 (v, a) / (a, a), and
    the only vector of V pairing to zero with every coroot is 0.  An
    element h fixing every root fixes every coroot (a root has one), so
    v * h - v, which lies in V, pairs to zero with every coroot: h = 1.
    So G embeds in the permutations of the roots and is their Weyl
    group.  Otherwise, as for the infinite group of one root with
    coroots (2, 0) and (2, 1), the caller closes G.
    """
    pairs = [_reflection_pair(g) for g in action.generators]
    if not pairs or None in pairs:
        return None
    n = action.rank
    rank = IntMatrix([a for a, _ in pairs], ncols=n).rank()
    if IntMatrix([c for _, c in pairs], ncols=n).rank() != rank:
        return None
    # a pair stands for the roots +-a
    found = _walk_pairs(pairs, _most_roots(rank) // 2)
    if found is None or len({a for a, _ in found}) != len(found):
        return None
    return found


def _walk_pairs(pairs, cap):
    """The pairs walked out from the normalised (root, coroot) `pairs`
    under the reflections 1 - coroot (x) root they stand for, in the
    order found; None once more than `cap` are found."""
    moves = [lambda pair, a=a, c=c: _reflected_pair(pair, a, c)
             for a, c in pairs]
    found = {}
    for pair in pairs:
        if pair in found:
            continue
        if len(found) >= cap:
            return None
        try:
            found.update(dict.fromkeys(_search(pair, moves, cap - len(found))))
        except GroupTooLarge:
            return None
    return tuple(found)


def _reflected_pair(pair, a, c):
    """The pair of g s g for the reflection g = 1 - c (x) a, normalised."""
    root, coroot = pair
    k, m = _dot(root, c), _dot(a, coroot)
    if k:
        root = tuple(x - k * y for x, y in zip(root, a))
    if m:
        coroot = tuple(x - m * y for x, y in zip(coroot, c))
    return _normalised(root, coroot)


def _normalised(root, coroot):
    """The pair, or both negated: the root's first nonzero coordinate
    positive."""
    if next(x for x in root if x) < 0:
        return _negated(root), _negated(coroot)
    return root, coroot


def _walked_order(action: GroupAction):
    """|G| from the root heights when `_root_walk` certifies the walk,
    else None."""
    return None if _root_walk(action) is None else _weyl_order(action)


def _weyl_order(action: GroupAction) -> int:
    """|W'|, the order of the group the reflections generate.

    The counts n_k of positive roots of height k form the partition dual
    to the exponents: n_k - n_(k+1) exponents equal k, and
    |W'| = prod (m_i + 1) (Humphreys, Sections 3.9 and 3.20)."""
    _, coordinates = _base_coordinates(action)
    return _kostant_order(sum(c) for c in coordinates.values() if min(c) >= 0)


def _kostant_order(heights) -> int:
    """The order of the Weyl group whose positive roots have these
    heights: prod (k + 1) ** (n_k - n_(k+1)), n_k the number of height k."""
    counts = Counter(heights)
    order = 1
    for k in range(1, max(counts, default=0) + 1):
        exponents = counts[k] - counts[k + 1]
        if exponents < 0:
            raise AxiomFailure("root heights do not form a partition")
        order *= (k + 1) ** exponents
    return order


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
def _base_coordinates(action: GroupAction) -> tuple[tuple, dict]:
    """The base `_generic_base` picks from the roots, and the coordinates
    of every root over it, checked by `_check_base`."""
    roots, rank = _root_span(action)
    base = _generic_base(roots, rank)
    return base, _check_base(roots, base, rank, strict=False)


@memoised
def is_reflection_group(action: GroupAction) -> bool:
    """True when the reflections generate the whole group (vacuously true
    for the trivial group).

    When `_root_walk` certifies the walk, every generator is a
    reflection.  Otherwise G was listed to find its reflections, and
    G = W', the subgroup they generate, exactly when |G| = |W'|
    (`_weyl_order`).  No subgroup is closed.
    """
    if _root_walk(action) is not None:
        return True
    if not find_reflections(action):
        return action.order == 1
    return action.order == _weyl_order(action)


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
    root lattice.  `coordinates` maps each root to its integer
    coordinates over the base.
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
    coordinates: dict = field(compare=False)


def _generic_base(roots: frozenset, rank: int) -> tuple[tuple[int, ...], ...]:
    """Positive system from a generic linear functional, then the
    indecomposable positive roots."""
    n = len(next(iter(roots)))
    for t in count(1):
        functional = tuple(t**k for k in range(n))
        values = {r: _dot(functional, r) for r in roots}
        if any(v == 0 for v in values.values()):
            continue
        # a decomposable r is s + t for positive s and t, both of
        # smaller value, so r - s is tried only for s before r here
        positive = sorted((v, r) for r, v in values.items() if v > 0)
        positive_set = {r for _, r in positive}
        base = [
            r
            for k, (_, r) in enumerate(positive)
            if not any(tuple(a - b for a, b in zip(r, s)) in positive_set
                       for _, s in positive[:k])
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
        [[v[k] for v in columns] for k in range(len(base[0]))], rank,
        reduced=True)
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
            coordinates={},
        )

    if base is None:
        base, coordinates = _base_coordinates(action)
    else:
        try:
            base = tuple(
                tuple(operator.index(x) for x in b) for b in base
            )
        except TypeError as exc:
            raise InvalidBase("base vectors must be integral") from exc
        coordinates = _check_base(roots, base, rank, strict=True)

    base_reflections = _base_reflections(refls, base)
    coroots = IntMatrix(zip(*_base_coroots(base, base_reflections)),
                        ncols=rank)
    cartan = IntMatrix(base, ncols=n) * coroots
    # Cartan^-1 . base: Gauss-Jordan on the rows [Cartan | base] leaves
    # scale * [1 | Cartan^-1 . base]
    rows, pivots, scale, _ = _echelon(
        [c + b for c, b in zip(cartan.entries, base)], rank, reduced=True)
    if len(pivots) < rank:
        raise AxiomFailure("the Cartan matrix is singular")
    scaled_weights = [row[rank:] for row in rows]
    pi_lattice = Sublattice(rank, coroots.entries)
    _verify_axioms(action, refls, roots, base, coroots, scaled_weights, scale,
                   pi_lattice)

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
        fundamental_weights=tuple(
            tuple(Fraction(x, scale) for x in row) for row in scaled_weights),
        pi_lattice=pi_lattice,
        fundamental_group=fundamental_group,
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
    in `_weyl_order`.  No orbit is listed."""
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


def _verify_axioms(action, refls, roots, base, coroots, scaled_weights, scale,
                   pi_lattice):
    """Check the root-system axioms and the defining identities of the
    weights, given as the integer rows scale * weights; AxiomFailure on
    the first that fails."""
    # reduced: the only roots proportional to a root are itself and its
    # negative.  `_root_span` found one root line per reflection, and two
    # proportional primitive integer vectors are equal or opposite, so
    # this is the same as every root being primitive
    for a in roots:
        if gcd(*a) != 1:
            raise AxiomFailure(f"root {a} is not primitive")
    # each reflection permutes the root set: each simple reflection maps
    # the roots into themselves, and the pairs of all reflections are
    # walked out from the simple pairs, so every reflection is
    # w s_i w^-1 with w in the group the s_i generate
    simple = list(zip(base, zip(*coroots.entries)))
    for alpha, c in simple:
        for beta in roots:
            k = _dot(beta, c)
            if k and tuple(b - k * a for a, b in zip(alpha, beta)) not in roots:
                raise AxiomFailure("a reflection does not permute the roots")
    walked = _walk_pairs([_normalised(a, c) for a, c in simple], len(refls))
    if walked is None or set(walked) != {(r.root, r.coroot) for r in refls}:
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
