"""The benchmark's workloads: CLI invocations with their expected answers.

A case is one `multinv <command> - --json` run on a generated JSON action.
`expect` holds the checks on the parsed report; `digest` (fixed cases
only) is the sha256 of the exact stdout, recorded at the commit that
introduced the benchmark, so a speed-up must leave the output
byte-identical.  `theory` holds values that are not in the report and
are checked in the traced pass from what the wrapped calls return.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import blocks as B

WORKLOADS = ("census", "weyl", "certificate")

MAX_RANK = 7
# Per-case cost grows with the group order, so a free draw of products
# makes a pass take 8 to 18 s depending on the seed.  The census therefore
# fixes how many cases of each shape it holds and draws freely only among
# cheap groups (order at most 24, about 10 times cheaper than the costly
# ones).  The costly cases are a fixed list of 12, each with a fixed change
# of basis, so the 90th percentile case (the 10th and 11th costliest) falls
# inside this list and does not move with the seed.  Over half the cases
# are fixed-point-free or rot90 x -1 groups of a few ms, so the median
# case measures per-call overhead; the median falls in the slow tail of
# these, where a seeded change of basis moved it by 10-15% from seed to
# seed, so they too get a change of basis fixed by their slot.
SMALL_ORDER_CAP = 24
COSTLY_PRODUCTS = (
    (("A", 3), ("A", 2)), (("A", 3), ("B", 2)), (("G2", 2), ("G2", 2)),
    (("B", 3), ("S", 2)), (("B", 3), ("A", 1)), (("A", 3), ("A", 1), ("A", 1)),
    (("S", 4), ("A", 1), ("A", 1)), (("B", 2), ("A", 2), ("S", 2)),
    (("G2", 2), ("S", 3)), (("A", 2), ("A", 2), ("S", 2)),
)
SHAPE_COUNTS = (("costly", len(COSTLY_PRODUCTS)), ("unknown-A4", 2),
                ("reflection", 16), ("cyclotomic", 9), ("sign", 8),
                ("free", 30), ("unknown-rot", 25))
CENSUS_SIZE = sum(n for _, n in SHAPE_COUNTS)
FIXED_BASIS_SHAPES = ("costly", "unknown-A4", "free", "unknown-rot")

REFLECTION_PIECES = (("S", 2), ("S", 3), ("S", 4), ("B", 2), ("B", 3),
                     ("A", 1), ("A", 2), ("A", 3), ("G2", 2))
BLOCK_KINDS = ("S", "B", "A", "G2", "C3", "C5", "C7", "-I", "rot4", "rot6",
               "sign", "A4xpm1", "rot90xm1")


@dataclass(frozen=True)
class Case:
    name: str
    command: str
    document: str
    expect: dict
    kinds: tuple = ()
    digest: str | None = None
    theory: dict = field(default_factory=dict)


def _document(rank, gens):
    return json.dumps({"rank": rank,
                       "generators": [[list(r) for r in g] for g in gens]})


def _census_blocks(rng: random.Random, shape: str, slot: int):
    """One census group: (blocks, trivial coordinates, conjugate?)."""
    if shape == "sign":
        # The sign-group rule reads the singular locus on the whole
        # lattice, and conjugation would hide the diagonal form, so sign
        # groups get neither trivial coordinates nor a change of basis.
        return [B.sign_block(4 + slot % 4)], 0, False
    if shape == "costly":
        return [B.reflection_block(*p) for p in COSTLY_PRODUCTS[slot]], 0, True
    if shape == "unknown-A4":
        return [B.unknown_block("A4xpm1")], 0, True
    if shape == "reflection":
        blocks, rank, order = [], 0, 1
        for _ in range(rng.randint(1, 3)):
            b = B.reflection_block(*rng.choice(REFLECTION_PIECES))
            if rank + b.rank <= MAX_RANK and order * b.order <= SMALL_ORDER_CAP:
                blocks.append(b)
                rank, order = rank + b.rank, order * b.order
        blocks = blocks or [B.reflection_block("A", 1)]
    elif shape == "cyclotomic":
        blocks = [B.cyclotomic_block((3, 5, 7)[slot % 3])]
    else:
        # These cheap groups hold the median case, so their kind, rank
        # and trivial coordinates follow the slot, not the seed.
        if shape == "free":
            k = 2 + slot % 4
            kind = ("-I", "rot4", "rot6")[slot // 4 % 3] if k == 2 else "-I"
            blocks = [B.fixed_point_free_block(kind, k)]
        else:
            blocks = [B.unknown_block("rot90xm1")]
        return blocks, slot % 3, True
    room = MAX_RANK - sum(b.rank for b in blocks)
    return blocks, rng.randint(0, min(2, room)), True


def census_case(rng: random.Random, index: int, shape: str,
                slot: int) -> Case:
    blocks, trivial, conjugate = _census_blocks(rng, shape, slot)
    rank, gens = B.direct_sum(blocks, trivial)
    if conjugate:
        basis_rng = (random.Random(f"{shape}{slot}")
                     if shape in FIXED_BASIS_SHAPES else rng)
        u, u_inv = B.random_unimodular(basis_rng, rank)
        gens = B.conjugate(gens, u, u_inv)
    order, reflections = 1, 0
    for b in blocks:
        order *= b.order
        reflections += b.reflections
    # A product's verdict is its blocks' verdict: the census never mixes
    # a reflection block with a non-reflection block.
    status, rule = blocks[0].status, blocks[0].rule
    expect = {
        "rank": rank,
        "group_order": order,
        "reflection_count": reflections,
        "fixed_rank": sum(b.fixed_rank for b in blocks) + trivial,
        "status": status,
        "rule": rule,
    }
    label = "x".join(f"{b.kind}{b.rank}" for b in blocks)
    if trivial:
        label += f"+{trivial}"
    return Case(f"census{index:03d}-{label}", "analyze", _document(rank, gens),
                expect, tuple(b.kind for b in blocks))


def census_plan() -> list[tuple[str, int]]:
    """(shape, slot) of every census case in run order.  The shapes are
    interleaved in proportion to their counts, so each shape is timed
    all through a pass: the host's speed changes from moment to moment,
    and a shape run in one stretch would see only one moment of it."""
    counts = dict(SHAPE_COUNTS)
    plan = [(shape, slot) for shape, n in SHAPE_COUNTS for slot in range(n)]
    return sorted(plan, key=lambda p: (p[1] + 0.5) / counts[p[0]])


def census(seed: int) -> list[Case]:
    rng = random.Random(seed)
    return [census_case(rng, i, shape, slot)
            for i, (shape, slot) in enumerate(census_plan())]


def _fixed(name, command, blocks, expect, digest, theory=None):
    rank, gens = B.direct_sum(blocks)
    return Case(name, command, _document(rank, gens), expect,
                tuple(b.kind for b in blocks), digest, theory or {})


def weyl() -> list[Case]:
    """Large Weyl groups through `verdict`: closure and reflection search
    dominate, the weight boxes stay tiny."""
    cases = []
    for kind, k, units, digest in (
        ("S", 6, 1, "2d7e115da23dbfbdaa0c24c55a6a82d1"
                    "af2c2b6cec380aecf1951226a7ddad57"),
        ("D", 5, 0, "2addb6ab3e35d68ba7f4232d5913749c"
                    "ef9b41fc5c90859ef42713d71adee660"),
        ("B", 5, 0, "f6eedd8106ff9ee11c027eed49c4817d"
                    "8466999a314569e9b6ab115f97bfcb56"),
    ):
        b = B.reflection_block(kind, k)
        cases.append(_fixed(
            f"weyl-{kind}{k}", "verdict", [b],
            {"status": B.SEMIGROUP, "rule": "reflection-invariants",
             "units_rank": units},
            digest,
            {"group_order": b.order, "reflection_count": b.reflections},
        ))
    return cases


def certificate() -> list[Case]:
    """The full certificate on small groups: the monoid and Laurent layers
    do most of the work."""
    a2, a3, a4 = (B.reflection_block("A", k) for k in (2, 3, 4))
    return [
        # P/Q = Z/5 for A4: every fundamental weight has order 5 modulo
        # the root lattice, which here is the whole lattice.
        _fixed("cert-invariants-A4", "invariants", [a4],
               {"multipliers": [5, 5, 5, 5]},
               "6fa9e14da583c8eb0dec4947fd3a4c59"
               "60e7515282e01c23c041f5ff7ac78d38"),
        _fixed("cert-invariants-A2^3", "invariants", [a2, a2, a2],
               {"multipliers": [3] * 6},
               "d955d2418e554805bc983731a2f50423"
               "68fc5e5578b3ff2b577665750832042e"),
        # P/Q = Z/4 for A3: weights of order 4, 2, 4, so each factor's box
        # holds 5 * 3 * 5 = 75 points, 20 of them in the root lattice.
        _fixed("cert-hilbert-A3^2", "hilbert-basis", [a3, a3],
               {"sorted_multipliers": [2, 2, 4, 4, 4, 4], "box_points": 400},
               "2ffeac831d9eedbb40c8fd9b7213ce1a"
               "690223ccbecd6957fb7883ed5ba1f81b"),
        _fixed("cert-classgroup-S5", "classgroup",
               [B.reflection_block("S", 5)],
               {"class_group": "trivial", "fundamental_group": "Z/5"},
               "3afb2e0ebb921b176d1915caaa8be2f5"
               "f70fb064151eb6aaaa9328f9ec6b5b2b"),
        _fixed("cert-classgroup-D4", "classgroup",
               [B.reflection_block("D", 4)],
               {"fundamental_group": "Z/2 x Z/2"},
               "34741d3cdc83c68ee6cd4567caa36869"
               "435286716ba6c823c005a3e77860c712"),
    ]


def workload_cases(workload: str, seed: int) -> list[Case]:
    if workload == "census":
        return census(seed)
    if workload == "weyl":
        return weyl()
    if workload == "certificate":
        return certificate()
    raise ValueError(f"unknown workload {workload!r}")


def check_report(case: Case, report: dict) -> list[str]:
    """Problems found in one parsed report; empty when it is right."""
    got = {}
    if case.command == "analyze":
        v = report["verdict"]
        got = {k: report.get(k) for k in
               ("rank", "group_order", "reflection_count", "fixed_rank")}
        got.update(status=v["status"], rule=v["rule"])
    elif case.command == "verdict":
        v = report["verdict"]
        got = {"status": v["status"], "rule": v["rule"],
               "units_rank": (v["monoid"] or {}).get("units_rank")}
    elif case.command == "invariants":
        got = {"multipliers": report["multipliers"]}
    elif case.command == "hilbert-basis":
        got = {"sorted_multipliers": sorted(report["multipliers"]),
               "box_points": len(report["box_points"])}
    elif case.command == "classgroup":
        got = {"class_group": report["class_group"]["description"],
               "fundamental_group": report["fundamental_group"]["description"]}
    return [f"{k}: expected {v!r}, got {got.get(k)!r}"
            for k, v in case.expect.items() if got.get(k) != v]
