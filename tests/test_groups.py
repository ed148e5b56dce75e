import random

import pytest
from hypothesis import given, settings

from multinv import (
    GroupTooLarge,
    IntMatrix,
    NotUnimodular,
    Sublattice,
    close_group,
    fixed_sublattice,
    groups,
)
from multinv.groups import DEFAULT_CLOSURE_CAP, _one_minus_rows, _search
from helpers import (
    R2,
    S2,
    conjugated_block_sums,
    mat,
    minus_identity_action,
    one_minus,
    oracle_effective_quotient,
    oracle_induced_matrix,
    oracle_kernel_lattice,
    oracle_rank,
    orbit_sublattice_actions,
    s3_action,
    s4_action,
    swap_action,
    weyl_generators,
)


def test_close_group_s3():
    g = s3_action()
    assert g.order == 6
    assert IntMatrix.identity(2) in g.elements
    # the third reflection from the closure
    assert mat([[-1, 0], [-1, 1]]) in g.elements


def test_close_group_s4():
    assert s4_action().order == 24


# S3 on Z^2 from a rotation of order 3 and a reflection: G is closed
ROT3_S3 = [mat([[0, 1], [-1, -1]]), R2]


def test_close_group_admits_a_group_of_exactly_cap_elements():
    # the cap bounds what is built, never |G|: S3 from two reflections
    # walks 3 pairs, so it passes cap 3 and fails cap 2; C6, with no
    # reflection, is closed, and passes cap 6 and fails cap 5
    for gens, cap, order in (([R2, S2], 3, 6),
                             ([mat([[1, 1], [-1, 0]])], 6, 6)):
        assert close_group(gens, cap=cap).order == order
        with pytest.raises(GroupTooLarge) as exc:
            close_group(gens, cap=cap - 1)
        assert str(exc.value) == (f"closure exceeded {cap - 1} elements; "
                                  "group is probably infinite")


def test_a_group_with_no_reflection_takes_its_order_from_the_closure(
        monkeypatch):
    # the subgroup the reflections generate is trivial here, so its
    # Kostant product, 1, is not |G|; the list that gives |G| is the
    # element list, made once
    closed, close = [], groups._close

    def recording_close(*args):
        closed.append(args)
        return close(*args)

    monkeypatch.setattr(groups, "_close", recording_close)
    for gens, order in (([ROT3_S3[0]], 3), ([mat([[-1, 0], [0, -1]])], 2),
                        ([mat([[0, -1], [1, 0]])], 4)):
        closed.clear()
        group = close_group(gens)
        assert group.order == len(group.elements) == order
        assert len(closed) == 1


def test_the_closure_stops_at_the_cap_on_the_shear(monkeypatch):
    # the shear's powers are distinct, and each move finds the next: the
    # closure makes `cap` moves, reaching cap + 1 elements, and raises;
    # a closure that runs on is stopped by the count
    moves, search = [], groups._search

    def counting_search(start, steps, cap):
        def counted(step):
            def move(x):
                moves.append(x)
                assert len(moves) <= 2 * cap, "the closure ran past the cap"
                return step(x)
            return move
        return search(start, [counted(step) for step in steps], cap)

    monkeypatch.setattr(groups, "_search", counting_search)
    with pytest.raises(GroupTooLarge) as exc:
        close_group([mat([[1, 1], [0, 1]])], cap=1000)
    assert str(exc.value) == ("closure exceeded 1000 elements; group is "
                              "probably infinite")
    assert len(moves) == 1000


def test_repr_names_rank_and_order():
    assert repr(s3_action()) == "GroupAction(rank=2, order=6)"
    assert repr(close_group(ROT3_S3)) == "GroupAction(rank=2, order=6)"


def test_close_group_infinite_raises():
    with pytest.raises(GroupTooLarge):
        close_group([mat([[1, 1], [0, 1]])], cap=1000)


def test_close_group_rejects_bad_determinant():
    with pytest.raises(NotUnimodular):
        close_group([mat([[2, 0], [0, 1]])])


def test_close_group_deterministic_ordering():
    a = close_group([R2, S2])
    b = close_group([S2, R2])
    assert a.elements == b.elements
    assert a.generators == (R2, S2)


def test_trivial_group_needs_rank():
    g = close_group([], rank=3)
    assert g.order == 1 and g.rank == 3
    with pytest.raises(ValueError):
        close_group([])


def test_close_group_uses_the_given_rank():
    swap = mat([[0, 1], [1, 0]])
    assert close_group([swap], rank=2).rank == 2
    with pytest.raises(NotUnimodular):
        close_group([swap], rank=3)


def orbit(action, point):
    """The orbit search every layer runs: breadth-first over the
    generators."""
    return _search(point, [g.apply for g in action.generators],
                   DEFAULT_CLOSURE_CAP)


def test_orbit_of_zero():
    assert orbit(s3_action(), (0, 0)) == [(0, 0)]


def test_orbit_of_first_weight():
    # the orbit of (-2/3, 1/3), scaled by 3
    got = orbit(s3_action(), (-2, 1))
    assert sorted(got) == [(-2, 1), (1, -2), (1, 1)]


def test_orbit_size_divides_order():
    rng = random.Random(11)
    g = s4_action()
    for _ in range(25):
        pt = tuple(rng.randint(-5, 5) for _ in range(3))
        assert g.order % len(orbit(g, pt)) == 0


def test_orbit_of_third_weight_has_four_points():
    # scaled by 4
    assert len(orbit(s4_action(), (-1, -1, -1))) == 4


def test_fixed_sublattice():
    assert fixed_sublattice(close_group([], rank=2)) == Sublattice.full(2)
    assert fixed_sublattice(s3_action()).rank == 0
    assert fixed_sublattice(minus_identity_action(2)).rank == 0
    assert fixed_sublattice(swap_action()).basis == ((1, 1),)


def test_effective_quotient_of_effective_action():
    g = s3_action()
    eq = oracle_effective_quotient(g)
    assert eq.projection == IntMatrix.identity(2)
    assert eq.induced == g
    assert eq.quotient_rank == 2


def test_effective_quotient_of_trivial_group():
    eq = oracle_effective_quotient(close_group([], rank=2))
    assert eq.quotient_rank == 0
    assert eq.induced.order == 1
    assert eq.fixed == Sublattice.full(2)


def test_effective_quotient_of_swap():
    eq = oracle_effective_quotient(swap_action())
    assert eq.fixed.basis == ((1, 1),)
    assert eq.quotient_rank == 1
    assert sorted(m.entries for m in eq.induced.elements) == [
        ((-1,),), ((1,),)
    ]


def test_quotient_commutes_with_action():
    for g in (swap_action(), s3_action(), minus_identity_action(2)):
        eq = oracle_effective_quotient(g)
        for m in g.elements:
            assert (m * eq.projection
                    == eq.projection * oracle_induced_matrix(eq, m))
        assert fixed_sublattice(eq.induced).rank == 0
        assert eq.section * eq.projection == IntMatrix.identity(
            eq.quotient_rank)


def test_isotropy_groups_match_on_quotient():
    rng = random.Random(31337)
    for g in (swap_action(), s3_action()):
        eq = oracle_effective_quotient(g)
        for _ in range(50):
            a = tuple(rng.randint(-9, 9) for _ in range(g.rank))
            abar = eq.projection.apply(a) if eq.quotient_rank else ()
            for m in g.elements:
                fixes_a = m.apply(a) == a
                fixes_abar = (oracle_induced_matrix(eq, m).apply(abar)
                              == tuple(abar))
                assert fixes_a == fixes_abar


def matrix_product_closure(gens, rank, cap):
    """Oracle for close_group: breadth-first closure by IntMatrix
    products, the canonical sort and the generator positions."""
    identity = IntMatrix.identity(rank)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = m * g
                if p not in seen:
                    seen.add(p)
                    if len(seen) > cap:
                        raise GroupTooLarge(
                            f"closure exceeded {cap} elements; group is "
                            "probably infinite"
                        )
                    nxt.append(p)
        frontier = nxt
    elements = tuple(sorted(seen, key=lambda g: g.entries))
    gen_indices = []
    for g in gens:
        i = elements.index(g)
        if i not in gen_indices:
            gen_indices.append(i)
    return elements, tuple(gen_indices)


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@PROPERTY
@given(conjugated_block_sums())
def test_close_group_matches_matrix_product_closure(gens):
    rank = gens[0].nrows
    group = close_group(gens)
    elements, indices = matrix_product_closure(gens, rank,
                                               DEFAULT_CLOSURE_CAP)
    assert group.elements == elements
    assert group.generators == tuple(elements[i] for i in indices)


def test_close_group_edge_cases_match_matrix_product_closure():
    b2 = weyl_generators("B", 2)
    for gens in ([b2[0], b2[0], b2[1], b2[0]], [b2[1], IntMatrix.identity(2)]):
        group = close_group(gens)
        elements, indices = matrix_product_closure(gens, 2,
                                                   DEFAULT_CLOSURE_CAP)
        assert group.elements == elements
        assert group.generators == tuple(elements[i] for i in indices)
    trivial = close_group([], rank=0)
    assert (trivial.elements, trivial.generators) == \
        ((IntMatrix([], ncols=0),), ()) == matrix_product_closure([], 0, 1)
    shear = [mat([[1, 1], [0, 1]])]
    with pytest.raises(GroupTooLarge) as oracle:
        matrix_product_closure(shear, 2, 1000)
    with pytest.raises(GroupTooLarge) as got:
        close_group(shear, cap=1000)
    assert str(got.value) == str(oracle.value)


def test_close_group_forms_no_matrix_product(monkeypatch):
    calls = {"mul": 0, "apply": 0}
    mul, apply = IntMatrix.__mul__, IntMatrix.apply

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counted_apply(self, v):
        calls["apply"] += 1
        return apply(self, v)

    gens = weyl_generators("B", 4)
    monkeypatch.setattr(IntMatrix, "__mul__", counted_mul)
    monkeypatch.setattr(IntMatrix, "apply", counted_apply)
    group = close_group(gens)
    monkeypatch.undo()
    assert group.order == 384
    points = {row for g in group.elements for row in g.entries}
    assert len(points) == 8  # the signed unit vectors
    assert calls["mul"] == 0
    assert calls["apply"] <= len(points) * len(gens)


@PROPERTY
@given(conjugated_block_sums(max_trivial=1))
def test_closed_elements_are_the_validated_matrices(gens):
    # the elements are built from rows checked once, as they were
    # interned; they equal the matrices the validating constructor
    # builds, and rank(1 - g) read off the rows of 1 - g is the rank the
    # Fraction oracle finds
    group = close_group(gens)
    n = group.rank
    for i, g in enumerate(group.elements):
        rebuilt = IntMatrix(g.entries, ncols=n)
        assert (g.nrows, g.ncols, g.entries) == \
            (rebuilt.nrows, rebuilt.ncols, rebuilt.entries)
        assert g == rebuilt and hash(g) == hash(rebuilt)
        assert group.elements[i] == rebuilt
        moved = IntMatrix._from_checked_rows(_one_minus_rows(g), n)
        assert moved == one_minus(g)
        assert moved.rank() == oracle_rank(one_minus(g))


def assert_fixed_sublattice_matches_oracle(gens):
    # {x : x g = x for every generator g}: the Smith-form kernel of the
    # 1 - g side by side; its rank is that of the group average
    # sum_g g, whose image is the fixed space over Q
    action = close_group(gens)
    n = action.rank
    fixed = fixed_sublattice(action)
    assert fixed == oracle_kernel_lattice(one_minus(*gens))
    assert all(g.apply(b) == b for b in fixed.basis for g in gens)
    average = IntMatrix([[sum(g.entries[i][j] for g in action.elements)
                          for j in range(n)] for i in range(n)], ncols=n)
    assert fixed.rank == average.rank()


@PROPERTY
@given(conjugated_block_sums(max_trivial=2))
def test_fixed_sublattice_matches_the_kernel_oracle(gens):
    assert_fixed_sublattice_matches_oracle(gens)


@PROPERTY
@given(orbit_sublattice_actions())
def test_fixed_sublattice_matches_the_kernel_oracle_off_block_sums(gens):
    assert_fixed_sublattice_matches_oracle(gens)
