"""Groups generated by reflections: `close_group` walks the roots out from
the generators and reads |W| off the root heights, listing no element.
The closure and the element scan are the oracles."""

from itertools import product
from math import prod

import pytest
from hypothesis import given, settings

from multinv import (
    GroupTooLarge,
    build_root_system,
    close_group,
    find_reflections,
    groups,
    roots,
    weight_orbit,
)
from helpers import (
    BASE_RANK2,
    BASE_RANK3,
    BLOCK_SUMS,
    GOLDEN_REFLECTION_ACTIONS,
    block_diagonal,
    conjugated_block_sums,
    mat,
    oracle_find_reflections,
    oracle_indecomposable_base,
    orbit_sublattice_actions,
    root_lattice_generators,
    s3_action,
    s4_action,
    weyl_generators,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@pytest.fixture
def no_closure(monkeypatch):
    """Fail at once if a group is closed: at rank 8 a closure that the
    walk should have spared would run out of memory."""
    def refuse(*args):
        raise AssertionError("the element list was built")

    monkeypatch.setattr(groups, "_close", refuse)


def assert_walk_matches_the_closure(gens):
    group = close_group(gens)
    refls = find_reflections(group)
    # order and reflections list nothing
    assert groups._elements.__wrapped__ not in group._memo
    assert group.order == len(group.elements)
    assert refls == oracle_find_reflections(group)


def test_walk_matches_the_closure_on_every_block_sum():
    for blocks in BLOCK_SUMS:
        assert_walk_matches_the_closure(
            block_diagonal([weyl_generators(*b) for b in blocks]))
    for action, _ in GOLDEN_REFLECTION_ACTIONS.values():
        assert_walk_matches_the_closure(action().generators)


@PROPERTY
@given(conjugated_block_sums(max_trivial=2))
def test_walk_matches_the_closure_in_a_random_basis(gens):
    assert_walk_matches_the_closure(gens)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(orbit_sublattice_actions())
def test_walk_matches_the_closure_off_block_sums(gens):
    assert_walk_matches_the_closure(gens)


# (type, rank, roots, degrees, fundamental group); the degrees
# d_i = m_i + 1 multiply to |W|, and the exponents m_i add up to the
# number of positive roots
ROOT_LATTICES = [
    ("E", 6, 72, (2, 5, 6, 8, 9, 12), "Z/3"),
    ("E", 7, 126, (2, 6, 8, 10, 12, 14, 18), "Z/2"),
    ("E", 8, 240, (2, 8, 12, 14, 18, 20, 24, 30), "trivial"),
    ("A", 8, 72, (2, 3, 4, 5, 6, 7, 8, 9), "Z/9"),
    ("B", 8, 128, (2, 4, 6, 8, 10, 12, 14, 16), "Z/2"),
    ("D", 8, 112, (2, 4, 6, 8, 10, 12, 14, 8), "Z/2 x Z/2"),
]


@pytest.mark.parametrize("kind, n, root_count, degrees, fundamental_group",
                         ROOT_LATTICES,
                         ids=[f"{k}{n}" for k, n, *_ in ROOT_LATTICES])
def test_weyl_groups_of_rank_6_to_8_on_their_root_lattices(
        no_closure, kind, n, root_count, degrees, fundamental_group):
    # the cap bounds the reflections walked, not |W|
    gens = root_lattice_generators(kind, n)
    cap = root_count // 2
    group = close_group(gens, cap=cap)
    assert group.order == prod(degrees)
    assert len(find_reflections(group)) == cap
    assert sum(d - 1 for d in degrees) == cap
    assert str(build_root_system(group).fundamental_group) == \
        fundamental_group
    with pytest.raises(GroupTooLarge) as exc:
        close_group(gens, cap=cap - 1)
    assert str(exc.value) == (f"closure exceeded {cap - 1} elements; "
                              "group is probably infinite")


# A, B, D and G2, alone and in products, up to rank 5
PARABOLIC_CASES = (
    [[("A", n)] for n in range(1, 6)] + [[("B", n)] for n in range(2, 6)]
    + [[("D", 4)], [("D", 5)], [("G", 2)], [("A", 1), ("A", 1)],
       [("A", 1), ("A", 1), ("A", 1)], [("A", 2), ("B", 2)],
       [("G", 2), ("A", 3)], [("B", 3), ("G", 2)], [("D", 4), ("A", 1)]])


@pytest.mark.parametrize("blocks", PARABOLIC_CASES,
                         ids=["x".join(f"{k}{n}" for k, n in blocks)
                              for blocks in PARABOLIC_CASES])
def test_orbit_sizes_from_heights_match_the_walked_orbits(blocks):
    # one dominant weight per zero pattern J: |W| / |W_J| from the root
    # heights against the length of the walked orbit
    group = close_group(block_diagonal([weyl_generators(*b) for b in blocks]))
    rd = build_root_system(group)
    size = roots._orbit_sizes(rd)
    assert size((0,) * rd.rank) == 1
    for pattern in product((0, 1, 2), repeat=rd.rank):
        if 2 in pattern and any(x == 1 for x in pattern):
            continue  # zero patterns once with 1s, once with 2s
        assert size(pattern) == len(weight_orbit(rd, pattern))
    assert size((1,) * rd.rank) == group.order


def test_orbit_sizes_over_a_chosen_base():
    for action, base in ((s3_action(), BASE_RANK2), (s4_action(), BASE_RANK3)):
        rd = build_root_system(action, base=base)
        size = roots._orbit_sizes(rd)
        for pattern in product((0, 1), repeat=rd.rank):
            assert size(pattern) == len(weight_orbit(rd, pattern))


def test_e8_times_a1_walks_242_roots(no_closure):
    gens = block_diagonal([root_lattice_generators("E", 8),
                           root_lattice_generators("A", 1)])
    order = 2 * 696729600
    group = close_group(gens)
    assert roots._root_walk(group) is not None
    assert 2 * len(find_reflections(group)) == 242
    assert group.order == order


# s_e1 on Z^3, and a shear of e2 and e3
S_E1 = mat([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
SHEAR_23 = mat([[1, 0, 0], [0, 1, 1], [0, 0, 1]])


@pytest.mark.parametrize("gens, caps", [
    # no reflection: W_N = 1, and Omega = G is closed to the cap
    ([mat([[1, 1], [0, 1]])], [1000]),
    # W_N = <s_e1> is finite, and Omega, the shear's powers, is closed
    # to the cap itself
    ([S_E1, SHEAR_23], [1000]),
    # h^-1 s_e1 h = s_(2, 1) and s_e1 have k m = 8 (dihedral rule): the
    # walk stops on its second pair, and nothing is closed
    ([mat([[-1, 0], [0, 1]]), mat([[2, 1], [1, 1]])], []),
], ids=["shear", "reflection+shear", "reflection+hyperbolic"])
def test_infinite_groups_take_the_closure(monkeypatch, gens, caps):
    closed, close = [], groups._close

    def recording_close(rank, gens, cap):
        closed.append(cap)
        return close(rank, gens, cap)

    monkeypatch.setattr(groups, "_close", recording_close)
    with pytest.raises(GroupTooLarge) as exc:
        close_group(gens, cap=1000)
    assert str(exc.value) == ("closure exceeded 1000 elements; group is "
                              "probably infinite")
    assert closed == caps


# a root with two coroots c1 != c2 makes s1 s2 = 1 + (c1 - c2) (x) a, of
# infinite order; each input comes with the moves (at most 4) that the
# walk makes before it stops
TWO_COROOTS = {
    # one root, (1, 0), with coroots (2, 0) and (2, 1)
    "e1": ([((1, 0), (2, 0)), ((1, 0), (2, 1))], 0),
    # roots e1, e2 and e1 again, with coroots 2e1, 2e2 and 2e1 + e2: the
    # coroots have the roots' rank, but e1 has two
    "two-coroots": ([((1, 0, 0), (2, 0, 0)), ((0, 1, 0), (0, 2, 0)),
                     ((1, 0, 0), (2, 1, 0))], 0),
    # roots e1 and e2 with coroots (2, 1) and (0, 2): the reflection of e2
    # would take the pair of e1 to (e1, (2, -1)) on the second move, where
    # the dihedral rule (k = 0, m = 1) now ends the walk first
    "mid-walk": ([((1, 0), (2, 1)), ((0, 1), (0, 2))], 2),
    # roots e3, e1 + e2 and e1 + e2 + e3 with coroots 2e3, e1 + e2 and
    # e1 + e3: the third reflection takes the pair of e3 to
    # (e1 + e2, 2e1) on the third move, before any move breaks the
    # dihedral rule; unchecked, the walk would end with four roots
    "second-coroot": ([((0, 0, 1), (0, 0, 2)), ((1, 1, 0), (1, 1, 0)),
                       ((1, 1, 1), (1, 0, 1))], 3),
}

# two reflections with roots a != b, k = b . c_a and m = a . c_b generate
# an infinite dihedral group unless k = m = 0 or k m is 1, 2 or 3; each
# input comes with the moves the walk makes before it meets such a pair
DIHEDRAL = {
    # roots e1 and e2 with coroots (2, -3) and (-3, 2): k m = 9
    "hyperbolic": ([((1, 0), (2, -3)), ((0, 1), (-3, 2))], 2),
    # the affine Weyl group of A1: k m = 4
    "affine-A1": ([((1, 0), (2, -2)), ((0, 1), (-2, 2))], 2),
    # the affine Weyl group of A2, coroots the columns of its Cartan
    # matrix: each pair of simple reflections has k m = 1, and the walk
    # meets a pair with k m = 4 on its 12th move
    "affine-A2": ([((1, 0, 0), (2, -1, -1)), ((0, 1, 0), (-1, 2, -1)),
                   ((0, 0, 1), (-1, -1, 2))], 12),
}


@pytest.mark.parametrize("pairs", [
    pairs for pairs, _ in (*DIHEDRAL.values(), *TWO_COROOTS.values())
], ids=[*DIHEDRAL, *TWO_COROOTS])
def test_an_infinite_walk_stops_at_the_cap(no_closure, pairs):
    # each pair walked is a reflection of G, and a root with two coroots
    # proves G infinite, so the walk raises with the closure's message,
    # and G is never closed
    gens = [roots._reflection_matrix(a, c) for a, c in pairs]
    with pytest.raises(GroupTooLarge) as exc:
        close_group(gens, cap=1000)
    assert str(exc.value) == ("closure exceeded 1000 elements; group is "
                              "probably infinite")


def count_walk_products(monkeypatch) -> dict:
    """{"walk": ..., "axioms": ...}, filled in as the walks run: the
    products a move of `_walk_pairs` takes by `sum`, two per move, put
    down to the walk of `_root_walk` or of `_verify_axioms`."""
    stack, products = [], {"walk": 0, "axioms": 0}

    def flagged(name, compute):
        def run(*args):
            stack.append(name)
            try:
                return compute(*args)
            finally:
                stack.pop()
        return run

    def counted_sum(*args):
        if stack[-1:] == ["pairs"]:
            products[stack[-2]] += 1
        return sum(*args)

    for name, fn in (("walk", "_root_walk"), ("axioms", "_verify_axioms"),
                     ("pairs", "_walk_pairs")):
        monkeypatch.setattr(roots, fn, flagged(name, getattr(roots, fn)))
    monkeypatch.setattr(roots, "sum", counted_sum, raising=False)
    return products


@pytest.mark.parametrize("pairs, moves", TWO_COROOTS.values(),
                         ids=TWO_COROOTS)
def test_a_root_with_two_coroots_stops_the_walk_at_once(no_closure,
                                                        monkeypatch, pairs,
                                                        moves):
    # a repeated seed root ends the walk before any move, and a second
    # coroot met later ends it on the move that meets it, not at the cap
    assert walk_moves_before_it_stops(monkeypatch, pairs) == moves


@pytest.mark.parametrize("pairs, moves", DIHEDRAL.values(), ids=DIHEDRAL)
def test_an_infinite_dihedral_pair_stops_the_walk_at_once(no_closure,
                                                          monkeypatch, pairs,
                                                          moves):
    # the first move by a pair of reflections with k m outside {1, 2, 3}
    # ends the walk, long before the cap
    assert walk_moves_before_it_stops(monkeypatch, pairs) == moves


def walk_moves_before_it_stops(monkeypatch, pairs) -> int:
    """The moves `_root_walk` makes on the reflections of `pairs` before
    it raises GroupTooLarge."""
    products = count_walk_products(monkeypatch)
    gens = [roots._reflection_matrix(a, c) for a, c in pairs]
    with pytest.raises(GroupTooLarge):
        close_group(gens, cap=1000)
    return products["walk"] // 2


def assert_pivot_base_is_indecomposable(group):
    lines = roots._root_walk(group).pairs
    root_set = set(lines) | {tuple(-x for x in r) for r in lines}
    assert roots._generic_base(lines) == oracle_indecomposable_base(root_set)


def test_pivot_base_is_the_indecomposable_roots_on_every_block_sum():
    for blocks in BLOCK_SUMS:
        assert_pivot_base_is_indecomposable(close_group(
            block_diagonal([weyl_generators(*b) for b in blocks])))


@PROPERTY
@given(conjugated_block_sums(max_trivial=2))
def test_pivot_base_is_the_indecomposable_roots_in_a_random_basis(gens):
    assert_pivot_base_is_indecomposable(close_group(gens))


@pytest.mark.parametrize("n", (6, 7, 8), ids=["E6", "E7", "E8"])
def test_pivot_base_is_the_indecomposable_roots_of_e6_to_e8(no_closure, n):
    assert_pivot_base_is_indecomposable(
        close_group(root_lattice_generators("E", n)))


def test_e8_axioms_walk_the_reflections_once_per_simple_root(no_closure,
                                                             monkeypatch):
    products = count_walk_products(monkeypatch)
    gens = root_lattice_generators("E", 8)
    group = close_group(gens)
    build_root_system(group)
    moves = {name: count // 2 for name, count in products.items()}
    # the generators are the simple reflections of the generic base, so
    # the axioms read back the walk `_root_walk` made and walk nothing
    assert moves["axioms"] == 0
    assert 0 < moves["walk"] <= len(gens) * 120
    # over another base, the rows of s_1 (the generic base's image under
    # s_1), the axioms walk from its own simple pairs: one step per simple
    # reflection and positive root, not one check per reflection and root
    products.update(walk=0, axioms=0)
    build_root_system(group, base=gens[0].entries)
    moves = {name: count // 2 for name, count in products.items()}
    assert 0 < moves["axioms"] <= 8 * 120
    assert moves["walk"] == 0


@pytest.mark.parametrize("kind, n", [("S", 6), ("D", 5), ("B", 5)])
def test_simple_reflections_read_the_walk_back_up_to_sign(monkeypatch, kind,
                                                          n):
    # the generic base holds e_(i+1) - e_i, whose first nonzero coordinate
    # is negative; normalised, its pairs are the generators' own
    products = count_walk_products(monkeypatch)
    build_root_system(close_group(weyl_generators(kind, n)))
    assert products["axioms"] == 0 < products["walk"]
