import random
from fractions import Fraction

import pytest

from multinv import (
    IntMatrix,
    LaurentPolynomial,
    NotInvariant,
    build_root_system,
    build_weight_monoid,
    close_group,
    fundamental_invariants,
    fundamental_invariants_detailed,
    is_invariant,
    kernel_lattice,
    orbit_sum,
    orbit_sum_decomposition,
)
from helpers import (
    BASE_RANK2,
    neg_rank1_action,
    poly,
    s3_action,
    s4_action,
    swap_action,
)

# hand-expanded rank-2 fundamental invariants
MU1_RANK2 = {
    (-2, 1): 1, (1, -2): 1, (1, 1): 1,
    (-1, 0): 3, (-1, 1): 3, (0, -1): 3, (1, -1): 3, (0, 1): 3, (1, 0): 3,
    (0, 0): 6,
}
MU2_RANK2 = {tuple(-x for x in e): c for e, c in MU1_RANK2.items()}
MU3_RANK2 = {
    (1, -1): 1, (-1, 1): 1, (1, 0): 1, (0, 1): 1, (-1, 0): 1, (0, -1): 1,
    (0, 0): 3,
}


def test_canonical_denominator_reduction():
    p = LaurentPolynomial(1, 2, {(2,): 1, (-2,): 1})
    assert p.denominator == 1
    assert p.terms == {(1,): 1, (-1,): 1}
    z = LaurentPolynomial(2, 6, {})
    assert z.is_zero and z.denominator == 1


def test_multiply_by_one_and_binomial():
    one = LaurentPolynomial.constant(1, 1)
    p = poly(1, {(1,): 1, (-1,): 1})
    assert p * one == p
    assert p * p == poly(1, {(2,): 1, (0,): 2, (-2,): 1})


def test_multiply_collapses_nine_products_to_seven_terms():
    p = poly(2, {(1, 0): 1, (0, 1): 1, (0, 0): 1})
    q = poly(2, {(-1, 0): 1, (0, -1): 1, (0, 0): 1})
    assert p * q == poly(2, MU3_RANK2)


def test_multiply_commutes_and_associates():
    rng = random.Random(5)

    def rand_poly():
        terms = {
            (rng.randint(-2, 2), rng.randint(-2, 2)):
                Fraction(rng.randint(-3, 3))
            for _ in range(4)
        }
        return LaurentPolynomial(2, rng.choice([1, 2, 3]), terms)

    for _ in range(25):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_power_by_squaring():
    p = poly(1, {(1,): 1, (0,): 1})
    assert p**0 == LaurentPolynomial.constant(1, 1)
    assert p**3 == poly(1, {(3,): 1, (2,): 3, (1,): 3, (0,): 1})


def test_orbit_sum_of_zero_is_one():
    assert orbit_sum(s3_action(), (0, 0)) == LaurentPolynomial.constant(2, 1)


def test_orbit_sum_second_weight_rank2():
    got = orbit_sum(s3_action(), (Fraction(-1, 3), Fraction(2, 3)))
    expect = LaurentPolynomial(2, 3, {(-1, -1): 1, (-1, 2): 1, (2, -1): 1})
    assert got == expect


def test_orbit_sum_third_weight_rank3():
    got = orbit_sum(s4_action(), (Fraction(-1, 4),) * 3)
    expect = LaurentPolynomial(
        3, 4,
        {(-1, -1, -1): 1, (3, -1, -1): 1, (-1, 3, -1): 1, (-1, -1, 3): 1},
    )
    assert got == expect


def test_orbit_sums_are_invariant_and_monomials_are_not():
    g = s3_action()
    assert is_invariant(g, orbit_sum(g, (1, 0)))
    assert is_invariant(g, orbit_sum(g, (Fraction(-2, 3), Fraction(1, 3))))
    assert not is_invariant(g, poly(2, {(1, 0): 1}))


def test_orbit_sum_well_defined_on_orbit():
    g = s3_action()
    a = (Fraction(-2, 3), Fraction(1, 3))
    for m in g.elements:
        assert orbit_sum(g, m.apply(a)) == orbit_sum(g, a)


def test_decomposition_of_single_orbit_sum():
    g = s3_action()
    assert orbit_sum_decomposition(g, orbit_sum(g, (2, 1))) == {
        (Fraction(2), Fraction(1)): Fraction(1)
    }


def test_decomposition_is_linear():
    g = s3_action()
    p = orbit_sum(g, (2, 1)) * LaurentPolynomial.constant(2, 2)
    p = p + orbit_sum(g, (0, 0)) * LaurentPolynomial.constant(2, 3)
    got = orbit_sum_decomposition(g, p)
    assert got == {
        (Fraction(2), Fraction(1)): Fraction(2),
        (Fraction(0), Fraction(0)): Fraction(3),
    }


def test_decomposition_of_third_invariant():
    # the six nonzero-support monomials form a single orbit; the oracle is
    # the hand expansion MU3_RANK2
    g = s3_action()
    got = orbit_sum_decomposition(g, poly(2, MU3_RANK2))
    assert got == {
        (Fraction(1), Fraction(0)): Fraction(1),
        (Fraction(0), Fraction(0)): Fraction(3),
    }


def test_decomposition_rejects_non_invariant():
    g = s3_action()
    with pytest.raises(NotInvariant):
        orbit_sum_decomposition(g, poly(2, {(1, 0): 1}))


def test_reassembling_decomposition_reproduces_polynomial():
    g = s4_action()
    rng = random.Random(17)
    p = LaurentPolynomial.zero(3)
    for _ in range(4):
        pt = tuple(rng.randint(-2, 2) for _ in range(3))
        coeff = LaurentPolynomial.constant(3, rng.randint(1, 5))
        p = p + orbit_sum(g, pt) * coeff
    parts = orbit_sum_decomposition(g, p)
    rebuilt = LaurentPolynomial.zero(3)
    for rep, c in parts.items():
        rebuilt = rebuilt + orbit_sum(g, rep) * LaurentPolynomial.constant(3, c)
    assert rebuilt == p


def rank2_invariants():
    g = s3_action()
    rd = build_root_system(g, base=BASE_RANK2)
    wm = build_weight_monoid(rd, rd.pi_lattice)
    return g, rd, wm


def test_fundamental_invariants_rank2_match_hand_expansions():
    g, rd, wm = rank2_invariants()
    mus = fundamental_invariants(g, rd, wm)
    assert mus[0] == poly(2, MU1_RANK2)
    assert mus[1] == poly(2, MU2_RANK2)
    assert mus[2] == poly(2, MU3_RANK2)


def test_fundamental_invariants_first_block_are_orbit_sum_powers():
    g, rd, wm = rank2_invariants()
    mus = fundamental_invariants(g, rd, wm)
    for i in range(rd.rank):
        z = wm.multipliers[i]
        assert mus[i] == orbit_sum(g, rd.fundamental_weights[i]) ** z


def test_fundamental_invariants_are_invariant_with_lattice_support():
    g, rd, wm = rank2_invariants()
    for inv in fundamental_invariants_detailed(g, rd, wm):
        assert inv.polynomial.has_integer_support
        assert is_invariant(g, inv.polynomial)
        assert not inv.has_unit_prefix  # effective action needs no unit


def test_fundamental_invariant_of_swap_action():
    # non-effective action: the bare orbit-sum product lives in a refined
    # lattice, and the unit prefix moves it back; the result is the orbit
    # sum of a lattice point
    g = swap_action()
    rd = build_root_system(g)
    wm = build_weight_monoid(rd, rd.pi_lattice)
    (inv,) = fundamental_invariants_detailed(g, rd, wm)
    assert inv.has_unit_prefix
    assert inv.polynomial.has_integer_support
    assert is_invariant(g, inv.polynomial)
    decomposition = orbit_sum_decomposition(g, inv.polynomial)
    assert list(decomposition.values()) == [Fraction(1)]


def test_rank1_squared_orbit_sum():
    g = neg_rank1_action()
    rd = build_root_system(g)
    wm = build_weight_monoid(rd, rd.pi_lattice)
    (mu,) = fundamental_invariants(g, rd, wm)
    assert mu == poly(1, {(1,): 1, (0,): 2, (-1,): 1})
    assert mu.render() == "a + 2 + a^-1"


def test_leading_exponents_of_the_free_block_are_distinct():
    g, rd, wm = rank2_invariants()
    mus = fundamental_invariants(g, rd, wm)
    leading = [mu.sorted_terms()[0][0] for mu in mus[: rd.rank]]
    assert len(set(leading)) == rd.rank


def test_fixed_component_is_constant_on_support():
    # the invariant functionals f (g f = f for every g) read the fixed
    # component of an exponent; an invariant's support must agree on them
    for action, base in [(s3_action(), BASE_RANK2), (swap_action(), None)]:
        rd = build_root_system(action, base=base)
        wm = build_weight_monoid(rd, rd.pi_lattice)
        identity = IntMatrix.identity(action.rank)
        functionals = kernel_lattice(IntMatrix.hstack(
            [g.transpose() - identity for g in action.generators])).basis
        for inv in fundamental_invariants_detailed(action, rd, wm):
            images = {tuple(sum(a * b for a, b in zip(pt, f))
                            for f in functionals)
                      for pt in inv.polynomial.support()}
            assert len(images) == 1


def test_render_formats():
    assert LaurentPolynomial.zero(2).render() == "0"
    p = poly(2, {(1, -1): 1, (0, 0): -3, (-1, 2): Fraction(1, 2)})
    assert p.render() == "1/2*a^-1*b^2 + a*b^-1 - 3"
    q = LaurentPolynomial.monomial((Fraction(1, 3), Fraction(-1, 3)))
    assert q.render() == "a^(1/3)*b^(-1/3)"
