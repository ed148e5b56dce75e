import random
import time
from itertools import product

import pytest
from hypothesis import given, settings

from multinv import (
    ElementaryDivisors,
    HasReflections,
    IntMatrix,
    LocusTooLarge,
    NotReflectionGroup,
    NotSignGroup,
    TrivialGroup,
    class_group,
    close_group,
    find_reflections,
    fixed_sublattice,
    groups,
    min_displacement_rank,
    sign_group_singular_locus,
    verdict,
)
from multinv.classify import (
    MAX_SIGN_COMPONENTS,
    NOT_SEMIGROUP_ALGEBRA,
    SEMIGROUP_ALGEBRA,
    UNKNOWN,
)
from helpers import (
    a1a1_action,
    b2_action,
    block_diagonal,
    companion_action,
    conjugate,
    conjugated_block_sums,
    cyclotomic_action,
    diag_action,
    minus_identity_action,
    neg_rank1_action,
    oracle_annihilated_by,
    oracle_class_group,
    oracle_class_group_divisors,
    oracle_effective_quotient,
    oracle_inverse_unimodular,
    oracle_is_fixed_point_free,
    oracle_min_displacement_rank,
    orbit_sublattice_actions,
    random_finite_action,
    random_unimodular,
    root_lattice_generators,
    s3_action,
    s4_action,
    sign_sl_action,
    swap_action,
    weyl_generators,
    z3_action,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def test_min_displacement_rank():
    assert min_displacement_rank(s3_action()) == 1
    assert min_displacement_rank(minus_identity_action(2)) == 2
    assert min_displacement_rank(sign_sl_action(3)) == 2
    with pytest.raises(TrivialGroup):
        min_displacement_rank(close_group([], rank=2))


ROT90_XM1 = IntMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, -1]])


def test_min_displacement_rank_matches_the_oracle():
    # the trace bound stops the ranking early; the answer is still the
    # least rank(1 - g) over every nonidentity element
    actions = [sign_sl_action(n) for n in range(3, 8)]
    actions += [cyclotomic_action(p) for p in (3, 5, 7)]
    actions.append(close_group([ROT90_XM1]))
    rng = random.Random(24680)
    for n in (2, 3):
        actions += [random_finite_action(rng, n) for _ in range(25)]
    for action in actions:
        if action.order > 1:
            assert (min_displacement_rank(action)
                    == oracle_min_displacement_rank(action))


@PROPERTY
@given(conjugated_block_sums(max_trivial=1))
def test_min_displacement_rank_matches_the_oracle_on_block_sums(gens):
    action = close_group(gens)
    assert (min_displacement_rank(action)
            == oracle_min_displacement_rank(action))


def test_min_displacement_rank_of_a_sign_group_ranks_one_element(
        monkeypatch):
    # sign_sl_action(7) has 63 nonidentity elements, and the bound
    # (n - tr g) / 2 of each is its rank(1 - g), the count of its -1s:
    # after the first rank, every other bound is at least the least rank
    action = sign_sl_action(7)
    assert not find_reflections(action)
    calls = []
    rank = IntMatrix.rank
    monkeypatch.setattr(IntMatrix, "rank",
                        lambda self: calls.append(self) or rank(self))
    assert min_displacement_rank(action) == 2
    assert len(calls) <= 1


def test_is_fixed_point_free():
    assert oracle_is_fixed_point_free(minus_identity_action(2))
    assert not oracle_is_fixed_point_free(s3_action())
    assert oracle_is_fixed_point_free(z3_action())


def test_class_group_golden_cases():
    assert class_group(s3_action()) == ElementaryDivisors((1, 3))
    assert class_group(s4_action()) == ElementaryDivisors((1, 1, 4))
    assert class_group(neg_rank1_action()).is_trivial
    assert class_group(a1a1_action()).is_trivial
    assert class_group(swap_action()).is_trivial
    assert class_group(close_group([], rank=2)).is_trivial


def test_class_group_needs_reflection_group():
    with pytest.raises(NotReflectionGroup):
        class_group(z3_action())


def test_class_group_is_group_order_torsion():
    for action in (s3_action(), s4_action(), neg_rank1_action(),
                   a1a1_action(), b2_action(), swap_action()):
        cl = class_group(action)
        assert oracle_annihilated_by(cl, action.order)


def assert_class_group_matches_oracle(gens):
    action = close_group(gens)
    cl = class_group(action)
    assert cl.free_rank == 0
    assert cl.torsion == oracle_class_group(action).torsion
    assert cl.divisors == oracle_class_group_divisors(action).divisors


@PROPERTY
@given(conjugated_block_sums(max_trivial=2))
def test_class_group_matches_the_quotient_oracle(gens):
    assert_class_group_matches_oracle(gens)


@PROPERTY
@given(orbit_sublattice_actions())
def test_class_group_matches_the_quotient_oracle_off_block_sums(gens):
    assert_class_group_matches_oracle(gens)


# (kind, rank, class group, sorted multipliers, Hilbert-basis size, units
# rank): the class groups are the theory values (P/Q for A_n on its root
# lattice, Z/2 for D_n on Z^n, trivial for B_n and S_n on Z^n); the
# monoid data are the values in the standard basis
RANK_4_TO_6 = [
    ("A", 4, (5,), [5, 5, 5, 5], 14, 0),
    ("A", 5, (6,), [2, 3, 3, 6, 6], 19, 0),
    ("A", 6, (7,), [7] * 6, 47, 0),
    ("D", 4, (2,), [1, 1, 2, 2], 5, 0),
    ("D", 5, (2,), [1, 1, 1, 2, 2], 6, 0),
    ("B", 4, (), [1, 1, 1, 2], 4, 0),
    ("S", 5, (), [1, 1, 1, 1], 4, 1),
    ("S", 6, (), [1] * 5, 5, 1),
]
# (kind, rank, |W|, class group, sorted multipliers, Hilbert-basis size)
# at rank 7-8, with no fixed part: E7, E8 and A7 on their root lattices
# (P/Q = Z/2, trivial and Z/8) and B8 on Z^8
RANK_7_TO_8 = [
    ("E", 7, 2903040, (2,), [1, 1, 1, 1, 2, 2, 2], 10),
    ("E", 8, 696729600, (), [1] * 8, 8),
    ("A", 7, 40320, (8,), [2, 4, 4, 8, 8, 8, 8], 64),
    ("B", 8, 2 ** 8 * 40320, (), [1] * 7 + [2], 8),
]


def test_class_group_and_verdict_are_conjugation_invariant_at_rank_4_to_8():
    rng = random.Random(4242)
    for kind, n, torsion, multipliers, basis_size, units in RANK_4_TO_6:
        for trivial in (0, 2):
            gens = weyl_generators(kind, n)
            if trivial:  # drop the trivial block's generator, the identity
                gens = block_diagonal(
                    [gens, [IntMatrix.identity(trivial)]])[:-1]
            u = random_unimodular(rng, n + trivial, steps=12)
            action = close_group(conjugate(gens, u))
            cl = class_group(action)
            assert (cl.free_rank, cl.torsion) == (0, torsion)
            if (kind, n, trivial) == ("A", 6, 0):
                continue  # A6's box scan takes seconds: checked at rank 8
            v = verdict(action)
            assert (v.status, v.rule) == (SEMIGROUP_ALGEBRA,
                                          "reflection-invariants")
            assert v.monoid.units_rank == units + trivial
            assert sorted(v.monoid.positive.multipliers) == multipliers
            assert v.monoid.generator_count == basis_size
    for kind, n, order, torsion, multipliers, basis_size in RANK_7_TO_8:
        gens = (root_lattice_generators if kind == "E"
                else weyl_generators)(kind, n)
        u = random_unimodular(rng, n, steps=12)
        action = close_group(conjugate(gens, u), cap=order)
        assert action.order == order
        cl = class_group(action)
        assert (cl.free_rank, cl.torsion) == (0, torsion)
        v = verdict(action)
        assert (v.status, v.rule) == (SEMIGROUP_ALGEBRA,
                                      "reflection-invariants")
        assert v.monoid.units_rank == 0
        assert sorted(v.monoid.positive.multipliers) == multipliers
        assert v.monoid.generator_count == basis_size


def test_verdict_trivial_action_is_group_algebra():
    v = verdict(close_group([], rank=3))
    assert v.status == SEMIGROUP_ALGEBRA
    assert v.rule == "group-algebra"
    assert v.monoid.units_rank == 3
    assert v.monoid.is_group


def test_verdict_reflection_group():
    v = verdict(s4_action())
    assert v.status == SEMIGROUP_ALGEBRA
    assert v.rule == "reflection-invariants"
    assert v.monoid.generator_count == 6
    assert v.monoid.units_rank == 0


def test_verdict_units_rank_matches_fixed_rank():
    for action in (s3_action(), swap_action(), a1a1_action()):
        v = verdict(action)
        assert v.status == SEMIGROUP_ALGEBRA
        assert v.monoid.units_rank == fixed_sublattice(action).rank


def test_verdict_odd_prime_rotation():
    v = verdict(z3_action())
    assert v.status == NOT_SEMIGROUP_ALGEBRA
    assert v.rule == "odd-prime-order"


def test_verdict_cyclotomic_actions():
    for p in (3, 5, 7, 11):
        action = cyclotomic_action(p)
        assert action.order == p
        v = verdict(action)
        assert v.status == NOT_SEMIGROUP_ALGEBRA
        assert v.rule == "odd-prime-order"


def test_verdict_on_order_9_is_fixed_point_free():
    # C9 through x^6 + x^3 + 1 on Z^6: 9 = 3 * 3 is odd but no prime
    action = companion_action([1, 0, 0, 1, 0, 0])
    v = verdict(action)
    assert (action.order, v.status, v.rule) == (
        9, NOT_SEMIGROUP_ALGEBRA, "fixed-point-free")


def test_verdict_minus_identity_is_fixed_point_free():
    v = verdict(minus_identity_action(2))
    assert v.status == NOT_SEMIGROUP_ALGEBRA
    assert v.rule == "fixed-point-free"


def test_verdict_sign_group():
    for n in (3, 4, 5):
        v = verdict(sign_sl_action(n))
        assert v.status == NOT_SEMIGROUP_ALGEBRA
        assert v.rule == "sign-group-singularities"


def test_verdict_unknown_for_uncovered_group():
    # a diagonal group containing a reflection but not generated by
    # reflections, and not fixed point free on the quotient
    action = diag_action((-1, 1, 1), (-1, -1, -1))
    assert action.order == 4
    v = verdict(action)
    assert v.status == UNKNOWN
    assert v.rule == "unclassified"


def test_reflection_group_is_never_fixed_point_free_in_rank_two_plus():
    for action in (s3_action(), s4_action(), a1a1_action(), b2_action()):
        bar = oracle_effective_quotient(action).induced
        if bar.rank >= 2:
            assert not oracle_is_fixed_point_free(bar)


def test_no_reflections_iff_displacement_at_least_two():
    rng = random.Random(987654)
    for n in (2, 3):
        for _ in range(50):
            action = random_finite_action(rng, n)
            if action.order == 1:
                continue
            no_reflections = not find_reflections(action)
            assert no_reflections == (min_displacement_rank(action) >= 2)


def test_sign_group_report_n3():
    rep = sign_group_singular_locus(sign_sl_action(3))
    assert rep.component_count == 12
    assert rep.component_dimension == 1
    assert rep.intersection_point_count == 8
    assert len(rep.minimal_primes) == 12
    assert all(len(coords) == 2 for coords, _ in rep.minimal_primes)


def test_sign_group_report_n4_and_n5():
    rep4 = sign_group_singular_locus(sign_sl_action(4))
    assert rep4.component_count == 24
    assert rep4.component_dimension == 2
    assert rep4.intersection_point_count == 16
    rep5 = sign_group_singular_locus(sign_sl_action(5))
    assert rep5.component_count == 40
    assert rep5.component_dimension == 3
    assert rep5.intersection_point_count == 32


def test_sign_group_component_count_formula():
    for n in (3, 4, 5):
        rep = sign_group_singular_locus(sign_sl_action(n))
        assert rep.component_count == sum(
            2 ** len(coords) for coords in
            {c for c, _ in rep.minimal_primes}
        )


def test_sign_group_minus_identity_rank2():
    rep = sign_group_singular_locus(minus_identity_action(2))
    assert rep.component_count == 4
    assert rep.component_dimension == 0
    assert rep.intersection_point_count == 0


def _scanned_intersection_points(rep, n):
    """The sign points on at least two components that jointly freeze
    every coordinate, found by scanning all 2^n sign points."""
    points = 0
    for sigma in product((1, -1), repeat=n):
        covering = [
            coords
            for coords, signs in rep.minimal_primes
            if all(sigma[i] == s for i, s in zip(coords, signs))
        ]
        if len(covering) >= 2 and set().union(*covering) == set(range(n)):
            points += 1
    return points


def test_sign_group_intersection_points_match_the_scan():
    rng = random.Random(2718)
    checked = 0
    while checked < 150:
        n = rng.randint(2, 6)
        gens = [tuple(rng.choice((1, -1)) for _ in range(n))
                for _ in range(rng.randint(1, 3))]
        try:
            rep = sign_group_singular_locus(diag_action(*gens))
        except (HasReflections, TrivialGroup):
            continue
        assert rep.intersection_point_count == _scanned_intersection_points(
            rep, n)
        checked += 1


def test_sign_group_rank16_is_fast():
    # two halves flipped independently: two minimal sets covering all 16
    # coordinates, so every one of the 2^16 sign points counts
    half = (-1,) * 8 + (1,) * 8
    start = time.perf_counter()
    rep = sign_group_singular_locus(diag_action(half, half[::-1]))
    assert rep.intersection_point_count == 2 ** 16
    assert rep.component_count == 2 * 2 ** 8
    rep = sign_group_singular_locus(minus_identity_action(16))
    assert rep.intersection_point_count == 0
    assert rep.component_count == 2 ** 16
    assert time.perf_counter() - start < 0.5


def test_sign_group_too_many_components_fails_before_listing():
    assert MAX_SIGN_COMPONENTS >= 2 ** 16
    start = time.perf_counter()
    with pytest.raises(LocusTooLarge, match="1048576 components"):
        sign_group_singular_locus(minus_identity_action(20))
    assert time.perf_counter() - start < 0.5


def test_verdict_on_sign_group_beyond_the_component_bound():
    # two halves of Z^34 flipped independently: 2 * 2^17 components, so
    # the locus cannot be listed, yet its counts decide the verdict
    half = (-1,) * 17 + (1,) * 17
    v = verdict(diag_action(half, half[::-1]))
    assert (v.status, v.rule) == (NOT_SEMIGROUP_ALGEBRA,
                                  "sign-group-singularities")
    assert f"{2 * 2 ** 17} components meeting in {2 ** 34} points" in v.detail


def test_sign_group_rejections():
    with pytest.raises(NotSignGroup):
        sign_group_singular_locus(s3_action())
    with pytest.raises(HasReflections):
        sign_group_singular_locus(diag_action((-1, 1), (1, -1)))


def test_sign_group_checks_read_the_generators(monkeypatch):
    # A1^3 as diagonal signs: a sign group generated by reflections, told
    # apart without listing its 8 elements; a mixed sign group is not
    reflections = close_group([IntMatrix([[-1 if i == j == k else int(i == j)
                                           for j in range(3)]
                                          for i in range(3)])
                               for k in range(3)])
    mixed = close_group([IntMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]]),
                         IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])])
    def no_closure(*args):
        raise AssertionError("the element list was built")

    monkeypatch.setattr(groups, "_close", no_closure)
    assert groups._elements.__wrapped__ not in reflections._memo
    with pytest.raises(HasReflections):
        sign_group_singular_locus(reflections)
    with pytest.raises(NotSignGroup):
        sign_group_singular_locus(mixed)
    assert (reflections.order, mixed.order) == (8, 8)


def test_pipeline_is_stable_under_lattice_change_of_basis():
    # conjugating by a unimodular matrix relabels the lattice; every
    # isomorphism invariant must survive
    from multinv import (
        build_root_system,
        build_weight_monoid,
        fundamental_invariants_detailed,
    )
    from multinv.laurent import is_invariant
    from helpers import has_lattice_support, random_unimodular

    rng = random.Random(8899)
    cases = [
        (s3_action(), (3,), 3),
        (s4_action(), (4,), 6),
        (b2_action(), (), 2),
        (a1a1_action(), (), 2),
    ]
    for base_action, torsion, basis_size in cases:
        for _ in range(5):
            u = random_unimodular(rng, base_action.rank, steps=7)
            uinv = oracle_inverse_unimodular(u)
            conj = close_group([u * g * uinv for g in base_action.generators])
            assert conj.order == base_action.order
            assert verdict(conj).status == SEMIGROUP_ALGEBRA
            assert class_group(conj).torsion == torsion
            rd = build_root_system(conj)
            wm = build_weight_monoid(rd, rd.pi_lattice)
            assert len(wm.hilbert_basis) == basis_size
            for inv in fundamental_invariants_detailed(conj, rd, wm):
                assert has_lattice_support(inv.polynomial)
                assert is_invariant(conj, inv.polynomial)


def test_b2_and_a1a1_monoids():
    from multinv import (
        build_root_system,
        build_weight_monoid,
    )

    rd = build_root_system(b2_action())
    wm = build_weight_monoid(rd, rd.pi_lattice)
    assert wm.multipliers == (1, 2)
    assert wm.hilbert_basis == ((1, 0), (0, 2))
    rd = build_root_system(a1a1_action())
    wm = build_weight_monoid(rd, rd.pi_lattice)
    assert wm.multipliers == (2, 2)
    assert wm.hilbert_basis == ((2, 0), (0, 2))


def test_sign_group_report_is_deterministic():
    a = sign_group_singular_locus(sign_sl_action(3))
    b = sign_group_singular_locus(sign_sl_action(3))
    assert a.minimal_primes == b.minimal_primes
    coords = [c for c, _ in a.minimal_primes]
    assert coords == sorted(coords)
