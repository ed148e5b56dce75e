import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from multinv import (
    GroupTooLarge,
    IntMatrix,
    NotUnimodular,
    Sublattice,
    close_group,
    effective_quotient,
    fixed_sublattice,
    induced_matrix,
    orbit,
)
from multinv.groups import DEFAULT_CLOSURE_CAP
from helpers import (
    R2,
    S2,
    conjugated_block_sums,
    mat,
    minus_identity_action,
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


def test_orbit_of_zero():
    assert orbit(s3_action(), (0, 0)) == frozenset({(Fraction(0), Fraction(0))})


def test_orbit_of_first_weight():
    got = orbit(s3_action(), (Fraction(-2, 3), Fraction(1, 3)))
    expect = {
        (Fraction(-2, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(-2, 3)),
        (Fraction(1, 3), Fraction(1, 3)),
    }
    assert got == frozenset(expect)


def test_orbit_size_divides_order():
    rng = random.Random(11)
    g = s4_action()
    for _ in range(25):
        pt = tuple(rng.randint(-5, 5) for _ in range(3))
        assert g.order % len(orbit(g, pt)) == 0


def test_orbit_of_third_weight_has_four_points():
    assert len(orbit(s4_action(), (Fraction(-1, 4),) * 3)) == 4


def test_fixed_sublattice():
    assert fixed_sublattice(close_group([], rank=2)) == Sublattice.full(2)
    assert fixed_sublattice(s3_action()).rank == 0
    assert fixed_sublattice(minus_identity_action(2)).rank == 0
    assert fixed_sublattice(swap_action()).basis == ((1, 1),)


def test_effective_quotient_of_effective_action():
    g = s3_action()
    eq = effective_quotient(g)
    assert eq.projection.is_identity()
    assert eq.induced == g
    assert eq.quotient_rank == 2


def test_effective_quotient_of_trivial_group():
    eq = effective_quotient(close_group([], rank=2))
    assert eq.quotient_rank == 0
    assert eq.induced.order == 1
    assert eq.fixed == Sublattice.full(2)


def test_effective_quotient_of_swap():
    eq = effective_quotient(swap_action())
    assert eq.fixed.basis == ((1, 1),)
    assert eq.quotient_rank == 1
    assert sorted(m.entries for m in eq.induced.elements) == [
        ((-1,),), ((1,),)
    ]


def test_quotient_commutes_with_action():
    for g in (swap_action(), s3_action(), minus_identity_action(2)):
        eq = effective_quotient(g)
        for m in g.elements:
            assert m * eq.projection == eq.projection * induced_matrix(eq, m)
        assert fixed_sublattice(eq.induced).rank == 0
        assert (eq.section * eq.projection).is_identity()


def test_isotropy_groups_match_on_quotient():
    rng = random.Random(31337)
    for g in (swap_action(), s3_action()):
        eq = effective_quotient(g)
        for _ in range(50):
            a = tuple(rng.randint(-9, 9) for _ in range(g.rank))
            abar = eq.projection.apply(a) if eq.quotient_rank else ()
            for m in g.elements:
                fixes_a = m.apply(a) == a
                fixes_abar = induced_matrix(eq, m).apply(abar) == tuple(abar)
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
    assert (group.elements, group.generator_indices) == \
        matrix_product_closure(gens, rank, DEFAULT_CLOSURE_CAP)


def test_close_group_edge_cases_match_matrix_product_closure():
    b2 = weyl_generators("B", 2)
    for gens in ([b2[0], b2[0], b2[1], b2[0]], [b2[1], IntMatrix.identity(2)]):
        group = close_group(gens)
        assert (group.elements, group.generator_indices) == \
            matrix_product_closure(gens, 2, DEFAULT_CLOSURE_CAP)
    trivial = close_group([], rank=0)
    assert (trivial.elements, trivial.generator_indices) == \
        matrix_product_closure([], 0, 1) == ((IntMatrix([], ncols=0),), ())
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
