import random
import time
from itertools import product

import pytest

from multinv import (
    ElementaryDivisors,
    HasReflections,
    LocusTooLarge,
    NotReflectionGroup,
    NotSignGroup,
    TrivialGroup,
    class_group,
    close_group,
    effective_quotient,
    find_reflections,
    is_fixed_point_free,
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
    cyclotomic_action,
    diag_action,
    minus_identity_action,
    neg_rank1_action,
    random_finite_action,
    s3_action,
    s4_action,
    sign_sl_action,
    swap_action,
    z3_action,
)


def test_min_displacement_rank():
    assert min_displacement_rank(s3_action()) == 1
    assert min_displacement_rank(minus_identity_action(2)) == 2
    assert min_displacement_rank(sign_sl_action(3)) == 2
    with pytest.raises(TrivialGroup):
        min_displacement_rank(close_group([], rank=2))


def test_is_fixed_point_free():
    assert is_fixed_point_free(minus_identity_action(2))
    assert not is_fixed_point_free(s3_action())
    assert is_fixed_point_free(z3_action())


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
        assert cl.annihilated_by(action.order)


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
        assert v.monoid.units_rank == effective_quotient(action).fixed.rank


def test_verdict_odd_prime_rotation():
    v = verdict(z3_action())
    assert v.status == NOT_SEMIGROUP_ALGEBRA
    assert v.rule == "odd-prime-order"


def test_verdict_cyclotomic_actions():
    for p in (3, 5, 7):
        action = cyclotomic_action(p)
        assert action.order == p
        v = verdict(action)
        assert v.status == NOT_SEMIGROUP_ALGEBRA
        assert v.rule == "odd-prime-order"


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
        bar = effective_quotient(action).induced
        if bar.rank >= 2:
            assert not is_fixed_point_free(bar)


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


def test_pipeline_is_stable_under_lattice_change_of_basis():
    # conjugating by a unimodular matrix relabels the lattice; every
    # isomorphism invariant must survive
    from multinv import (
        build_root_system,
        build_weight_monoid,
        fundamental_invariants_detailed,
    )
    from multinv.laurent import is_invariant
    from helpers import random_unimodular

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
            uinv = u.inverse_unimodular()
            conj = close_group([u * g * uinv for g in base_action.generators])
            assert conj.order == base_action.order
            assert verdict(conj).status == SEMIGROUP_ALGEBRA
            assert class_group(conj).torsion == torsion
            rd = build_root_system(conj)
            wm = build_weight_monoid(rd, rd.pi_lattice)
            assert len(wm.hilbert_basis) == basis_size
            for inv in fundamental_invariants_detailed(conj, rd, wm):
                assert inv.polynomial.has_integer_support
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
