"""Tests of the benchmark's own inputs, oracles and span arithmetic.

    python3 -m pytest perfbench -q

The block oracles are checked against a brute-force closure and rank
count written here, independently of multinv.
"""

import random
from fractions import Fraction

import blocks as B
import cases
import child
import spans


def closure(gens):
    n = len(gens[0])
    seen = {B.identity(n)}
    frontier = list(seen)
    while frontier:
        frontier = [p for p in {B.matmul(m, g) for m in frontier for g in gens}
                    if p not in seen]
        seen.update(frontier)
    return seen


def rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def brute_facts(n, gens):
    """(order, reflections, fixed rank) by enumerating the group."""
    group = closure(gens)
    one = B.identity(n)
    moved = [[[a - b for a, b in zip(ra, rb)] for ra, rb in zip(one, g)]
             for g in group]
    reflections = sum(1 for m in moved if rank(m) == 1)
    # v is fixed by the group iff v * [1 - g1 | 1 - g2 | ...] = 0
    stacked = [sum((m[r] for m in moved), []) for r in range(n)]
    return len(group), reflections, n - rank(stacked)


ALL_BLOCKS = (
    [B.reflection_block(k, n) for k, n in cases.REFLECTION_PIECES]
    + [B.reflection_block("D", 4)]
    + [B.cyclotomic_block(p) for p in (3, 5, 7)]
    + [B.fixed_point_free_block("-I", 3), B.fixed_point_free_block("rot4"),
       B.fixed_point_free_block("rot6"), B.sign_block(5),
       B.unknown_block("A4xpm1"), B.unknown_block("rot90xm1")]
)


def test_block_oracles_match_brute_force():
    for b in ALL_BLOCKS:
        assert brute_facts(b.rank, list(b.generators)) == (
            b.order, b.reflections, b.fixed_rank), b.kind


def test_conjugation_preserves_the_facts():
    rng = random.Random(7)
    n, gens = B.direct_sum([B.reflection_block("B", 2),
                            B.cyclotomic_block(3)], trivial=1)
    u, u_inv = B.random_unimodular(rng, n)
    assert B.matmul(u, u_inv) == B.identity(n)
    assert brute_facts(n, B.conjugate(gens, u, u_inv)) == (24, 4, 1)


def test_two_seeds_cover_every_block_kind_and_rule():
    batch = cases.census(1) + cases.census(2)
    assert {k for c in batch for k in c.kinds} == set(cases.BLOCK_KINDS)
    assert {c.expect["rule"] for c in batch} == {
        "reflection-invariants", "odd-prime-order", "fixed-point-free",
        "sign-group-singularities", "unclassified"}
    assert all(c.expect["rank"] <= cases.MAX_RANK for c in batch)


def test_census_is_a_function_of_the_seed():
    one = [c.document for c in cases.census(5)]
    assert one == [c.document for c in cases.census(5)]
    assert one != [c.document for c in cases.census(6)]
    assert len(one) == cases.CENSUS_SIZE == 100
    # the costly cases hold the 90th percentile and the cheap ones the
    # median, so their basis is fixed
    shapes = [shape for shape, _ in cases.census_plan()]
    fixed = [i for i, shape in enumerate(shapes)
             if shape in cases.FIXED_BASIS_SHAPES]
    other = cases.census(6)
    assert len(fixed) == 67
    assert all(one[i] == other[i].document for i in fixed)


def test_fixed_cases_carry_digests_and_theory():
    for c in cases.weyl() + cases.certificate():
        assert c.digest and len(c.digest) == 64
    assert [c.theory for c in cases.weyl()] == [
        {"group_order": 720, "reflection_count": 15},
        {"group_order": 1920, "reflection_count": 20},
        {"group_order": 3840, "reflection_count": 25},
    ]


def test_self_time_subtracts_children_and_nested_calls_count_once():
    clock = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(clock)))
    inner = tracer.wrap("lattice.IntMatrix.rank", lambda: None)

    def outer_fn(depth):
        inner()
        return outer(depth - 1) if depth else None

    outer = tracer.wrap("groups.effective_quotient", outer_fn)
    outer(1)
    # the outer span [0, 7] contains rank [1, 2] and a nested call
    # [3, 6], which contains rank [4, 5]
    s = tracer.summarize()
    assert s["groups.effective_quotient_calls"] == 2
    assert s["groups.effective_quotient_s"] == 7.0
    assert s["lattice.rank_calls"] == 2 and s["lattice.rank_s"] == 2.0
    assert s["groups.self_s"] == 5.0 and s["lattice.self_s"] == 2.0


def test_host_speed_scales_by_the_samples_around_a_case():
    speed = child.HostSpeed()
    # a slow spell (reference 0.02 s) from 1.0 to 2.0, nominal elsewhere
    speed.at = [0.2 * i for i in range(20)]
    speed.ref = [0.02 if 1.0 <= t <= 2.0 else 0.01 for t in speed.at]
    assert speed.scale(1.3, 1.7) == 0.5
    assert speed.scale(3.0, 3.01) == 1.0
    # the mean speed over the whole interval: 6 samples at half speed
    assert speed.scale(0.0, 3.8) == (6 * 0.5 + 14 * 1.0) / 20
