import random
from itertools import product

import pytest

from multinv import (
    GenerationFailure,
    MonoidDescription,
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
    neg_rank1_action,
    s3_action,
    s4_action,
    swap_action,
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
    assert wm.box_points == ((0,), (2,))
    assert wm.hilbert_basis == ((2,),)


def test_hilbert_basis_generates_and_is_minimal():
    for action, base in [(s3_action(), BASE_RANK2),
                         (s4_action(), BASE_RANK3)]:
        rd, lat = pipeline(action, base)
        wm = build_weight_monoid(rd, lat)
        pts = set(wm.box_points)
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
                _check_generation(wm.box_points, rest)


def test_positivity_zero_is_the_only_unit():
    rd, lat = pipeline(s3_action(), BASE_RANK2)
    wm = build_weight_monoid(rd, lat)
    for p in wm.box_points:
        if any(p):
            assert not all(x <= 0 for x in p)


def test_normality_spot_check():
    rd, lat = pipeline(s3_action(), BASE_RANK2)
    wm = build_weight_monoid(rd, lat)
    rng = random.Random(2718)
    pts = list(wm.box_points)
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
