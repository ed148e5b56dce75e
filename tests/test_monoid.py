import random
import re
from itertools import product
from math import prod

import pytest
from hypothesis import example, given, settings

from multinv import (
    AxiomFailure,
    GenerationFailure,
    MonoidDescription,
    Sublattice,
    build_root_system,
    build_weight_monoid,
    close_group,
    enumerate_box,
    hilbert_basis,
    minimal_multipliers,
    reflection_monoid,
)
from multinv.monoid import _check_generation
from helpers import (
    BASE_RANK2,
    BASE_RANK3,
    conjugated_block_sums,
    neg_rank1_action,
    oracle_check_generation,
    oracle_enumerate_box,
    oracle_hilbert_basis,
    oracle_scan_hilbert_basis,
    random_box_lattice,
    s3_action,
    s4_action,
    swap_action,
    weyl_generators,
)


def pipeline(action, base=None):
    rd = build_root_system(action, base=base)
    return rd, rd.pi_lattice


def test_multipliers_rank2():
    rd, lat = pipeline(s3_action(), BASE_RANK2)
    assert minimal_multipliers(rd, lat) == (3, 3)


def test_multipliers_rank3():
    rd, lat = pipeline(s4_action(), BASE_RANK3)
    assert minimal_multipliers(rd, lat) == (2, 4, 4)


def test_multiplier_one_when_weight_is_in_lattice():
    rd, lat = pipeline(swap_action())
    assert minimal_multipliers(rd, lat) == (1,)


def test_box_rank2_matches_congruence_oracle():
    rd, lat = pipeline(s3_action(), BASE_RANK2)
    pts = enumerate_box(rd, lat, (3, 3))
    # oracle: brute force over the 16 candidates with the congruence
    # c1 = c2 (mod 3), checked independently of the lattice machinery
    expect = tuple(
        c for c in product(range(4), repeat=2) if (c[0] - c[1]) % 3 == 0
    )
    assert pts == expect
    assert (0, 0) in pts
    assert set(pts) - {(0, 0)} == {(3, 0), (0, 3), (1, 1), (2, 2), (3, 3)}


def test_box_rank3_contains_the_generators():
    rd, lat = pipeline(s4_action(), BASE_RANK3)
    pts = set(enumerate_box(rd, lat, (2, 4, 4)))
    for p in [(2, 0, 0), (0, 4, 0), (0, 0, 4), (0, 1, 1), (1, 2, 0),
              (1, 0, 2)]:
        assert p in pts


def test_box_trivial_group():
    g = close_group([], rank=2)
    rd, lat = pipeline(g)
    assert enumerate_box(rd, lat, ()) == ((),)
    assert hilbert_basis(((),)) == ()


def test_hilbert_basis_rank2():
    rd, lat = pipeline(s3_action(), BASE_RANK2)
    pts = enumerate_box(rd, lat, (3, 3))
    assert hilbert_basis(pts) == ((3, 0), (0, 3), (1, 1))


def test_hilbert_basis_rank3():
    rd, lat = pipeline(s4_action(), BASE_RANK3)
    wm = build_weight_monoid(rd, lat)
    assert wm.hilbert_basis == (
        (2, 0, 0), (0, 4, 0), (0, 0, 4), (0, 1, 1), (1, 0, 2), (1, 2, 0),
    )
    assert len(wm.hilbert_basis) >= rd.rank
    assert wm.cone_rays == ((2, 0, 0), (0, 4, 0), (0, 0, 4))


def test_hilbert_basis_rank1():
    rd, lat = pipeline(neg_rank1_action())
    wm = build_weight_monoid(rd, lat)
    assert wm.multipliers == (2,)
    assert enumerate_box(rd, lat, wm.multipliers) == ((0,), (2,))
    assert wm.hilbert_basis == ((2,),)


def test_hilbert_basis_generates_and_is_minimal():
    for action, base in [(s3_action(), BASE_RANK2),
                         (s4_action(), BASE_RANK3)]:
        rd, lat = pipeline(action, base)
        wm = build_weight_monoid(rd, lat)
        box = enumerate_box(rd, lat, wm.multipliers)
        pts = set(box)
        # completeness: dynamic program over the box
        reachable = {(0,) * rd.rank}
        for p in sorted(pts, key=lambda q: (sum(q), q)):
            if not any(p):
                continue
            assert any(
                all(h <= x for h, x in zip(b, p))
                and tuple(x - h for h, x in zip(b, p)) in reachable
                for b in wm.hilbert_basis
            )
            reachable.add(p)
        # minimality: dropping any element loses some box point
        for drop in range(len(wm.hilbert_basis)):
            rest = [b for i, b in enumerate(wm.hilbert_basis) if i != drop]
            with pytest.raises(GenerationFailure):
                _check_generation(box, rest)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(conjugated_block_sums(max_trivial=2))
@example(weyl_generators("A", 5))
def test_box_points_and_hilbert_basis_match_the_scan_oracles(gens):
    rd = build_root_system(close_group(gens))
    wm = build_weight_monoid(rd, rd.pi_lattice)
    box = enumerate_box(rd, rd.pi_lattice, wm.multipliers)
    assert box == oracle_enumerate_box(rd.pi_lattice, wm.multipliers)
    assert wm.hilbert_basis == oracle_hilbert_basis(box)


def closed_box(rd, lat):
    return enumerate_box(rd, lat, minimal_multipliers(rd, lat))


@pytest.mark.parametrize("rank", range(1, 8))
def test_bitset_passes_agree_with_the_scans_on_closed_boxes(rank):
    rng = random.Random(rank)
    for _ in range(12):
        rd, lat = random_box_lattice(rng, rank, max(3, 7 - rank))
        box = closed_box(rd, lat)
        assert box == oracle_enumerate_box(lat, minimal_multipliers(rd, lat))
        basis = hilbert_basis(box)
        assert basis == oracle_scan_hilbert_basis(box)
        assert oracle_check_generation(box, basis) is None


def assert_same_verdict(points, basis):
    named = oracle_check_generation(points, basis)
    if named is None:
        _check_generation(points, basis)
    else:
        message = re.escape(f"box point {named} is not generated")
        with pytest.raises(GenerationFailure, match=f"^{message}$"):
            _check_generation(points, basis)
    return named


@pytest.mark.parametrize("rank", range(1, 8))
def test_the_certificate_fails_where_the_scan_fails(rank):
    rng = random.Random(100 + rank)
    for _ in range(12):
        rd, lat = random_box_lattice(rng, rank, max(3, 7 - rank))
        box = closed_box(rd, lat)
        basis = list(hilbert_basis(box))
        dropped = basis[:]
        del dropped[rng.randrange(len(dropped))]
        generator = rng.choice(basis)
        missing = [p for p in box if p != generator]
        stray = tuple(rng.randint(0, 3) for _ in range(rank))
        # not trusted to be minimal or positive: a zero element and
        # random b in {-1, 0, 1}^rank, some putting p - b after p in
        # (sum, point) order
        untrusted = dropped + [(0,) * rank] + [
            tuple(rng.randint(-1, 1) for _ in range(rank)) for _ in range(3)]
        # the dropped element itself is never generated
        assert assert_same_verdict(box, dropped) is not None
        for points, gens in ((missing, basis), (box + (stray,), basis),
                             (box, untrusted)):
            assert_same_verdict(points, gens)


@pytest.mark.parametrize("rank", range(1, 8))
def test_half_open_box_gives_the_closed_box_hilbert_basis(rank):
    rng = random.Random(200 + rank)
    for _ in range(12):
        rd, lat = random_box_lattice(rng, rank, max(3, 7 - rank))
        z = minimal_multipliers(rd, lat)
        half_open = enumerate_box(rd, lat, tuple(x - 1 for x in z))
        # exactly prod(z_k / p_k) points: a fundamental domain of the
        # multiples of the rays in the lattice
        assert len(half_open) == prod(z) // prod(r[k] for k, r in
                                                 enumerate(lat.basis))
        wm = build_weight_monoid(rd, lat)
        assert wm.hilbert_basis == oracle_scan_hilbert_basis(
            closed_box(rd, lat))


def test_half_open_box_gives_the_closed_box_hilbert_basis_on_a7():
    rd = build_root_system(close_group(weyl_generators("A", 7)))
    wm = build_weight_monoid(rd, rd.pi_lattice)
    assert len(wm.hilbert_basis) == 64
    assert wm.hilbert_basis == oracle_scan_hilbert_basis(
        closed_box(rd, rd.pi_lattice))


def test_weight_monoid_makes_no_lattice_membership_tests(monkeypatch):
    rd, lat = pipeline(close_group(weyl_generators("A", 4)))
    calls = []
    contains = Sublattice.contains

    def counted(self, v):
        calls.append(v)
        return contains(self, v)

    monkeypatch.setattr(Sublattice, "contains", counted)
    wm = build_weight_monoid(rd, lat)
    assert len(enumerate_box(rd, lat, wm.multipliers)) > 1
    assert calls == []


def test_hilbert_basis_rejects_points_outside_a_lattice_monoid():
    # not the box points of a lattice monoid: (2,) is the only minimal
    # nonzero point, and no multiple of it is (3,)
    with pytest.raises(GenerationFailure):
        hilbert_basis(((0,), (2,), (3,), (5,)))


def test_enumerate_box_rejects_a_rank_deficient_lattice():
    rd, _ = pipeline(s3_action(), BASE_RANK2)
    with pytest.raises(AxiomFailure):
        enumerate_box(rd, Sublattice(2, [(1, 1)]), (3, 3))


def test_positivity_zero_is_the_only_unit():
    rd, lat = pipeline(s3_action(), BASE_RANK2)
    wm = build_weight_monoid(rd, lat)
    for p in enumerate_box(rd, lat, wm.multipliers):
        if any(p):
            assert not all(x <= 0 for x in p)


def test_normality_spot_check():
    rd, lat = pipeline(s3_action(), BASE_RANK2)
    wm = build_weight_monoid(rd, lat)
    rng = random.Random(2718)
    pts = list(enumerate_box(rd, lat, wm.multipliers))
    for n in (2, 3):
        for _ in range(40):
            x = rng.choice(pts)
            y = rng.choice(pts)
            z = tuple(n * a - n * b for a, b in zip(x, y))
            if any(c < 0 for c in z) or not lat.contains(z):
                continue
            # z = n*(x - y) must be divisible by n inside the monoid
            w = tuple(c // n for c in z)
            assert lat.contains(w)
            assert all(c >= 0 for c in w)


def test_full_monoid_descriptions():
    # units from the fixed sublattice, the dominant weight monoid as the
    # positive part
    descriptions = []
    for action, base, units_rank in [(s3_action(), BASE_RANK2, 0),
                                     (swap_action(), None, 1),
                                     (close_group([], rank=2), None, 2)]:
        rd, lat = pipeline(action, base)
        md = reflection_monoid(action, base=base).monoid
        assert md == MonoidDescription(units_rank,
                                       build_weight_monoid(rd, lat))
        descriptions.append(md)
    s3, swap, trivial = descriptions
    assert s3.generator_count == 3
    assert swap.positive.hilbert_basis == ((1,),)
    assert trivial.is_group
