"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import random
import time
from fractions import Fraction

from multinv import (
    ElementaryDivisors,
    build_root_system,
    build_weight_monoid,
    class_group,
    enumerate_box,
    find_reflections,
    fundamental_invariants_detailed,
    is_invariant,
    min_displacement_rank,
    sign_group_singular_locus,
    smith_normal_form,
    verdict,
)
from multinv.classify import NOT_SEMIGROUP_ALGEBRA
from multinv.lattice import IntMatrix
from helpers import (
    BASE_RANK2,
    BASE_RANK3,
    E1_RANK3,
    E1INV_RANK3,
    S2INV_RANK3,
    S2_RANK3,
    a1a1_action,
    b2_action,
    cyclotomic_action,
    has_lattice_support,
    neg_rank1_action,
    oracle_annihilated_by,
    oracle_effective_quotient,
    oracle_induced_matrix,
    oracle_power,
    oracle_times,
    poly,
    random_finite_action,
    s3_action,
    s4_action,
    sign_sl_action,
    snf_diagonal_by_minors,
    z3_action,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{tag}  {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def timed(budget_seconds):
    start = time.perf_counter()

    def check():
        return time.perf_counter() - start < budget_seconds

    return check


def test_criterion_1_rank2_golden_run():
    within = timed(1.0)
    g = s3_action()
    rd = build_root_system(g, base=BASE_RANK2)
    ok = rd.fundamental_weights == (
        (Fraction(-2, 3), Fraction(1, 3)),
        (Fraction(-1, 3), Fraction(2, 3)),
    )
    lat = rd.pi_lattice
    wm = build_weight_monoid(rd, lat)
    ok = ok and wm.multipliers == (3, 3)
    ok = ok and wm.hilbert_basis == ((3, 0), (0, 3), (1, 1))

    mus = [f.polynomial for f in fundamental_invariants_detailed(g, rd, wm)]
    ab = {(1, 1): 1}
    ab_inv = {(-1, -1): 1}
    plus = {(1, 0): 1, (0, 1): 1, (0, 0): 1}
    plus_inv = {(-1, 0): 1, (0, -1): 1, (0, 0): 1}
    ok = ok and mus[0] == poly(2, oracle_times(ab, oracle_power(plus_inv, 3)))
    ok = ok and mus[1] == poly(2, oracle_times(ab_inv, oracle_power(plus, 3)))
    ok = ok and mus[2] == poly(2, oracle_times(plus, plus_inv))

    ok = ok and class_group(g) == ElementaryDivisors((1, 3))
    ok = ok and within()
    report("criterion 1: rank-2 golden run", ok)


def test_criterion_2_rank3_golden_run():
    within = timed(10.0)
    g = s4_action()
    rd = build_root_system(g, base=BASE_RANK3)
    half_roots = [(1, 0, 0), (1, 0, -1), (1, -1, 0), (0, 1, 0), (0, 0, 1),
                  (0, 1, -1)]
    ok = rd.roots == frozenset(
        r for p in half_roots for r in (p, tuple(-x for x in p))
    )
    ok = ok and rd.fundamental_weights == (
        (Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(-3, 4), Fraction(1, 4)),
        (Fraction(-1, 4), Fraction(-1, 4), Fraction(-1, 4)),
    )
    lat = rd.pi_lattice
    wm = build_weight_monoid(rd, lat)
    ok = ok and wm.multipliers == (2, 4, 4)
    ok = ok and set(wm.hilbert_basis) == {
        (2, 0, 0), (0, 4, 0), (0, 0, 4), (0, 1, 1), (1, 2, 0), (1, 0, 2),
    }

    mus = {
        row: f.polynomial
        for row, f in zip(wm.hilbert_basis,
                          fundamental_invariants_detailed(g, rd, wm))
    }
    abc = {(1, 1, 1): 1}
    abc_inv = {(-1, -1, -1): 1}
    times, power = oracle_times, oracle_power
    factored_forms = {
        (2, 0, 0): times(abc_inv, power(S2_RANK3, 2)),
        (0, 4, 0): times(abc, power(E1INV_RANK3, 4)),
        (0, 0, 4): times(abc_inv, power(E1_RANK3, 4)),
        (0, 1, 1): times(E1_RANK3, E1INV_RANK3),
        (1, 2, 0): times(S2_RANK3, power(E1INV_RANK3, 2)),
        (1, 0, 2): times(S2INV_RANK3, power(E1_RANK3, 2)),
    }
    for row, expected in factored_forms.items():
        ok = ok and mus[row] == poly(3, expected)

    ok = ok and class_group(g) == ElementaryDivisors((1, 1, 4))
    ok = ok and within()
    report("criterion 2: rank-3 golden run", ok)


def test_criterion_3_negative_results():
    ok = True
    for label, action in [("order-3 rotation", z3_action())] + [
        (f"cyclotomic order {p}", cyclotomic_action(p)) for p in (3, 5, 7)
    ]:
        within = timed(1.0)
        v = verdict(action)
        ok = ok and v.status == NOT_SEMIGROUP_ALGEBRA
        ok = ok and v.rule == "odd-prime-order"
        ok = ok and within()
    report("criterion 3: odd-prime fixed-point-free verdicts", ok)


def test_criterion_4_sign_group_example():
    ok = True
    for n in (3, 4, 5):
        within = timed(1.0)
        action = sign_sl_action(n)
        rep = sign_group_singular_locus(action)
        ok = ok and rep.component_count == 4 * n * (n - 1) // 2
        ok = ok and rep.component_dimension == n - 2
        ok = ok and rep.intersection_point_count == 2**n
        ok = ok and verdict(action).status == NOT_SEMIGROUP_ALGEBRA
        ok = ok and within()
    report("criterion 4: sign-group singular locus", ok)


def test_criterion_5a_smith_form_oracle():
    rng = random.Random(1234321)
    ok = True
    for _ in range(200):
        m = IntMatrix(
            [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        )
        u, d, v = smith_normal_form(m)
        ok = ok and u * m * v == d
        ok = ok and abs(u.det()) == 1 and abs(v.det()) == 1
        diag = [d.entries[i][i] for i in range(3)]
        nonzero = [x for x in diag if x]
        ok = ok and all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        ok = ok and diag == snf_diagonal_by_minors(m)
    report("criterion 5a: Smith-form property suite (200 random)", ok)


def test_criterion_5b_root_system_axioms():
    ok = True
    cases = [
        (s3_action(), BASE_RANK2),
        (s4_action(), BASE_RANK3),
        (neg_rank1_action(), None),
        (a1a1_action(), None),
        (b2_action(), None),
    ]
    for action, base in cases:
        rd = build_root_system(action, base=base)  # raises on axiom failure
        ok = ok and rd.rank == len(rd.base)
    report("criterion 5b: root-system axioms assert-clean", ok)


def test_criterion_5c_height_reflection_equivalence():
    rng = random.Random(60502)
    ok = True
    for n in (2, 3):
        for _ in range(50):
            action = random_finite_action(rng, n)
            no_refl = not find_reflections(action)
            ok = ok and no_refl == (min_displacement_rank(action) >= 2)
    report("criterion 5c: displacement-height vs reflections (100 random)",
           ok)


def test_criterion_5d_hilbert_basis_completeness():
    ok = True
    for action, base in [(s3_action(), BASE_RANK2),
                         (s4_action(), BASE_RANK3),
                         (neg_rank1_action(), None)]:
        rd = build_root_system(action, base=base)
        wm = build_weight_monoid(rd, rd.pi_lattice)
        pts = set(enumerate_box(rd, rd.pi_lattice, wm.multipliers))
        reachable = {(0,) * rd.rank}
        for p in sorted(pts, key=lambda q: (sum(q), q)):
            if not any(p):
                continue
            generated = any(
                all(h <= x for h, x in zip(b, p))
                and tuple(x - h for h, x in zip(b, p)) in reachable
                for b in wm.hilbert_basis
            )
            ok = ok and generated
            reachable.add(p)
        for drop in range(len(wm.hilbert_basis)):
            rest = [b for i, b in enumerate(wm.hilbert_basis) if i != drop]
            reachable = {(0,) * rd.rank}
            lost = False
            for p in sorted(pts, key=lambda q: (sum(q), q)):
                if not any(p):
                    continue
                if any(
                    all(h <= x for h, x in zip(b, p))
                    and tuple(x - h for h, x in zip(b, p)) in reachable
                    for b in rest
                ):
                    reachable.add(p)
                else:
                    lost = True
            ok = ok and lost
    report("criterion 5d: Hilbert basis completeness and minimality", ok)


def test_criterion_5e_invariance_and_support():
    ok = True
    for action, base in [(s3_action(), BASE_RANK2),
                         (s4_action(), BASE_RANK3),
                         (neg_rank1_action(), None),
                         (a1a1_action(), None),
                         (b2_action(), None)]:
        rd = build_root_system(action, base=base)
        wm = build_weight_monoid(rd, rd.pi_lattice)
        for inv in fundamental_invariants_detailed(action, rd, wm):
            ok = ok and is_invariant(action, inv.polynomial)
            ok = ok and has_lattice_support(inv.polynomial)
    report("criterion 5e: invariants are invariant with lattice support", ok)


def test_criterion_5f_isotropy_equality():
    rng = random.Random(777)
    ok = True
    for action in (s3_action(), s4_action()):
        eq = oracle_effective_quotient(action)
        for _ in range(100):
            a = tuple(rng.randint(-9, 9) for _ in range(action.rank))
            abar = eq.projection.apply(a)
            for m in action.elements:
                fixes = m.apply(a) == a
                fixes_bar = (oracle_induced_matrix(eq, m).apply(abar)
                             == tuple(abar))
                ok = ok and fixes == fixes_bar
    report("criterion 5f: isotropy equality (100 points per group)", ok)


def test_criterion_6_class_group_torsion():
    ok = True
    for action in (s3_action(), s4_action(), neg_rank1_action(),
                   a1a1_action(), b2_action()):
        cl = class_group(action)
        ok = ok and oracle_annihilated_by(cl, action.order)
    report("criterion 6: |G| annihilates the class group", ok)
