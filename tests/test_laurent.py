import copy
import pickle
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings

from multinv import (
    AxiomFailure,
    IntMatrix,
    LaurentPolynomial,
    Sublattice,
    build_root_system,
    build_weight_monoid,
    close_group,
    fundamental_invariants_detailed,
    is_invariant,
    kernel_lattice,
    laurent,
    reflection_monoid,
    render_polynomials,
    weight_orbit,
)
from multinv.groups import DEFAULT_CLOSURE_CAP, _search
from multinv.lattice import common_denominator
from multinv.laurent import variable_labels
from helpers import (
    BASE_RANK2,
    a1a1_action,
    conjugated_block_sums,
    has_lattice_support,
    S2,
    neg_rank1_action,
    one_minus,
    oracle_fundamental_invariants,
    oracle_orbit,
    oracle_orbit_sum,
    oracle_orbit_sum_decomposition,
    oracle_power,
    oracle_times,
    poly,
    random_finite_action,
    root_lattice_generators,
    s3_action,
    s4_action,
    swap_action,
    weyl_generators,
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


def test_constructor_checks_coefficients_and_exponent_lengths():
    # a Fraction is refused even when it is integral
    for c in (Fraction(1, 2), Fraction(4, 2), 1.0, True):
        with pytest.raises(TypeError):
            LaurentPolynomial(2, {(1, 0): c})
    for e in ((1,), (1, 0, 0), ()):
        with pytest.raises(ValueError):
            LaurentPolynomial(2, {e: 1})
    p = LaurentPolynomial(2, {(1, 0): 0, (0, 1): 2, (1, 1): 0})
    assert p.terms == {(0, 1): 2}
    assert LaurentPolynomial(2, {(1, 0): 0}).terms == {}


def test_repr_renders_the_polynomial():
    assert repr(LaurentPolynomial(2, {(1, -1): 3, (0, 2): -1})) == (
        "LaurentPolynomial('-b^2 + 3*a*b^-1')")
    assert repr(LaurentPolynomial(2, {})) == "LaurentPolynomial('0')"


def test_default_labels_are_letters_up_to_rank_26_then_numbered():
    assert variable_labels(3) == ("a", "b", "c")
    assert variable_labels(26)[-1] == "z"
    assert variable_labels(27) == tuple(f"x{i}" for i in range(1, 28))


def test_copies_and_pickles_rebuild_an_equal_immutable_polynomial():
    p = LaurentPolynomial(2, {(1, -1): 3, (0, 2): -1})
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and twin.terms is not p.terms
        with pytest.raises(AttributeError):
            twin.rank = 3


def test_multiply_by_one_and_binomial():
    one = poly(1, {(0,): 1})
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
        return LaurentPolynomial(2, {
            (rng.randint(-6, 6), rng.randint(-6, 6)): rng.randint(-3, 3)
            for _ in range(4)
        })

    for _ in range(25):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert (a * b).terms == oracle_times(a.terms, b.terms)


def test_power_by_squaring():
    # the oracle's powers, against a hand expansion and the product
    p = {(1,): 1, (0,): 1}
    assert oracle_power(p, 0) == {(0,): 1}
    cube = {(3,): 1, (2,): 3, (1,): 3, (0,): 1}
    assert oracle_power(p, 3) == cube
    assert poly(1, p) * poly(1, p) * poly(1, p) == poly(1, cube)


def thirds(*xs):
    return tuple(Fraction(x, 3) for x in xs)


def test_orbit_sum_of_zero_is_one():
    assert oracle_orbit_sum(s3_action(), (0, 0)) == {(0, 0): 1}


def test_orbit_sum_second_weight_rank2():
    got = oracle_orbit_sum(s3_action(), thirds(-1, 2))
    assert got == {thirds(-1, -1): 1, thirds(-1, 2): 1, thirds(2, -1): 1}


def test_orbit_sum_third_weight_rank3():
    got = oracle_orbit_sum(s4_action(), (Fraction(-1, 4),) * 3)
    expect = {
        tuple(Fraction(x, 4) for x in e): 1
        for e in ((-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3))
    }
    assert got == expect


def test_orbit_sums_are_invariant_and_monomials_are_not():
    g = s3_action()
    assert is_invariant(g, poly(2, oracle_orbit_sum(g, (1, 0))))
    # the orbit of (-2/3, 1/3), scaled by 3
    assert is_invariant(g, poly(2, oracle_orbit_sum(g, (-2, 1))))
    assert not is_invariant(g, poly(2, {(1, 0): 1}))


def test_invariance_needs_equal_coefficients_on_the_orbit():
    # same support as the invariant a + b, but the swap moves a to b
    assert not is_invariant(swap_action(), poly(2, {(1, 0): 1, (0, 1): 2}))
    assert is_invariant(swap_action(), poly(2, {(1, 0): 2, (0, 1): 2}))


def test_invariance_checks_every_generator():
    # b is fixed by the first generator, diag(-1, 1), and moved by the
    # second, diag(1, -1)
    g = a1a1_action()
    first, second = g.generators
    b = poly(2, {(0, 1): 1})
    assert b.transform(first) == b and b.transform(second) != b
    assert not is_invariant(g, b)


def test_invariance_skips_an_identity_generator():
    # the identity moves no column, and the generator after it still counts
    g = close_group([IntMatrix.identity(2), S2])
    assert g.generators[0] == IntMatrix.identity(2)
    assert is_invariant(g, poly(2, {(1, 1): 1, (1, -2): 1}))
    assert not is_invariant(g, poly(2, {(1, 1): 1}))


def test_invariance_rejects_one_coefficient_off_by_one():
    g = close_group(weyl_generators("A", 3))
    p = poly(3, oracle_times(oracle_orbit_sum(g, (1, 0, 0)),
                             oracle_orbit_sum(g, (0, 1, 1))))
    assert is_invariant(g, p)
    for e in list(p.terms)[::7]:
        terms = dict(p.terms)
        terms[e] += 1
        assert not is_invariant(g, LaurentPolynomial(3, terms))


def test_invariance_checks_the_last_generator():
    # an orbit sum of the subgroup the other generators generate is fixed
    # by each of them, and moved only by the last
    gens = weyl_generators("A", 4)
    g, sub = close_group(gens), close_group(gens[:-1])
    p = poly(4, oracle_orbit_sum(sub, (1, 2, 0, -1)))
    assert is_invariant(sub, p)
    assert all(p.transform(h) == p for h in gens[:-1])
    assert p.transform(gens[-1]) != p
    assert not is_invariant(g, p)


def test_invariance_reads_every_entry_of_a_moved_column():
    # S2 = [[1, -1], [0, -1]] moves only column 1, which has two nonzero
    # entries: (e0, e1) -> (e0, -e0 - e1).  Read from one entry alone,
    # (1, 1) would go to (1, -1) and back; it goes to (1, -2)
    g = close_group([S2])
    assert laurent._moved_columns(g) == (((1, ((0, -1), (1, -1))),),)
    # a fact of the action, computed once for every polynomial
    assert laurent._moved_columns(g) is laurent._moved_columns(g)
    assert not is_invariant(g, poly(2, {(1, 1): 1, (1, -1): 1}))
    assert is_invariant(g, poly(2, {(1, 1): 1, (1, -2): 1}))
    assert not is_invariant(g, poly(2, {(1, 1): 1, (1, -2): 2}))


def test_invariance_with_exponents_in_thirds():
    # the orbit of (-2/3, 1/3) in exponents scaled by 3: the action is
    # linear, so the scaled orbit sum is invariant, and one more term on
    # the orbit breaks it
    g = s3_action()
    terms = oracle_orbit_sum(g, (-2, 1))
    assert oracle_orbit_sum(g, thirds(-2, 1)) == {
        thirds(*e): c for e, c in terms.items()}
    assert is_invariant(g, poly(2, terms))
    terms[(-2, 1)] += 1
    assert not is_invariant(g, poly(2, terms))


def test_integral_coefficients_are_ints():
    p = LaurentPolynomial(2, {(1, 0): 2, (0, 1): 3, (0, 0): -1})
    assert all(type(c) is int for c in (p * p).terms.values())
    assert (p * p).terms[(2, 0)] == 4
    g, rd, wm = rank2_invariants()
    for inv in fundamental_invariants_detailed(g, rd, wm):
        p = inv.polynomial
        assert all(type(c) is int and c for c in p.terms.values())
        # the terms are taken as they are: the checking constructor keeps
        # every one of them
        assert LaurentPolynomial(p.rank, p.terms) == p


def test_fundamental_invariants_make_no_matrix_application(monkeypatch):
    group = close_group(weyl_generators("A", 4))
    pipe = reflection_monoid(group)
    calls = []
    apply = IntMatrix.apply

    def counted_apply(self, v):
        calls.append(v)
        return apply(self, v)

    monkeypatch.setattr(IntMatrix, "apply", counted_apply)
    invs = fundamental_invariants_detailed(group, pipe.root_datum,
                                           pipe.weight_monoid)
    monkeypatch.undo()
    assert calls == []
    assert sum(len(f.polynomial.terms) for f in invs) == 2874


def test_invariance_is_checked_once_per_distinct_orbit(monkeypatch):
    # the A4 invariants print 2,874 terms over 931 distinct exponents:
    # each distinct orbit, not each printed term, is checked
    group = close_group(weyl_generators("A", 4))
    pipe = reflection_monoid(group)
    read = []
    check = laurent.is_invariant
    monkeypatch.setattr(laurent, "is_invariant",
                        lambda g, p: read.append(p.terms) or check(g, p))
    invs = fundamental_invariants_detailed(group, pipe.root_datum,
                                           pipe.weight_monoid)
    assert sum(map(len, read)) == 931
    assert all(set(c) == {1} for c in map(dict.values, read))
    assert len({e for inv in invs for e in inv.polynomial.terms}) == 931


def test_orbit_sum_products_raise_on_an_inexact_quotient(monkeypatch):
    # with wrong orbit sizes (1 + sum of the coordinates: 2 for w1, 3
    # for 2 w1) the count of 2 w1 in m_w1 * m_w1 fails to divide
    g, rd, wm = rank2_invariants()
    monkeypatch.setattr(laurent, "_orbit_sizes",
                        lambda rd: lambda weight: 1 + sum(weight))
    with pytest.raises(AxiomFailure):
        fundamental_invariants_detailed(g, rd, wm)


def test_integer_orbits_match_the_fraction_oracle():
    # the generator search the program runs for every orbit, on a
    # rational point scaled by its common denominator
    rng = random.Random(424242)
    for n in (2, 3):
        for _ in range(40):
            action = random_finite_action(rng, n)
            # negative, zero and non-reduced fractions (such as 2/4 or
            # 6/6), over one or several denominators
            point = tuple(Fraction(rng.randint(-6, 6),
                                   rng.choice((1, 2, 4, 6)))
                          for _ in range(n))
            den = common_denominator(point)
            found = _search(tuple(int(x * den) for x in point),
                            [g.apply for g in action.generators],
                            DEFAULT_CLOSURE_CAP)
            assert len(set(found)) == len(found)
            assert {tuple(Fraction(x, den) for x in e)
                    for e in found} == oracle_orbit(action, point)


def test_orbit_sum_well_defined_on_orbit():
    g = s3_action()
    a = thirds(-2, 1)
    for m in g.elements:
        assert oracle_orbit_sum(g, m.apply(a)) == oracle_orbit_sum(g, a)


# the oracle decomposition, against hand expansions; it checks the
# program's invariants in test_orbit_sum_decomposition_rebuilds_every_invariant

def test_decomposition_of_single_orbit_sum():
    g = s3_action()
    assert oracle_orbit_sum_decomposition(
        g, oracle_orbit_sum(g, (2, 1))) == {(2, 1): 1}


def test_decomposition_is_linear():
    g = s3_action()
    p = {e: 2 for e in oracle_orbit_sum(g, (2, 1))}
    p[(0, 0)] = 3
    assert oracle_orbit_sum_decomposition(g, p) == {(2, 1): 2, (0, 0): 3}


def test_decomposition_of_third_invariant():
    # the six nonzero-support monomials form a single orbit; the oracle is
    # the hand expansion MU3_RANK2
    g = s3_action()
    assert oracle_orbit_sum_decomposition(g, MU3_RANK2) == {
        (1, 0): 1, (0, 0): 3}


def test_decomposition_rejects_non_invariant():
    g = s3_action()
    with pytest.raises(ValueError):
        oracle_orbit_sum_decomposition(g, {(1, 0): 1})


def test_reassembling_decomposition_reproduces_polynomial():
    g = s4_action()
    rng = random.Random(17)
    p = {}
    for _ in range(4):
        pt = tuple(rng.randint(-2, 2) for _ in range(3))
        c = rng.randint(1, 5)
        for e in oracle_orbit_sum(g, pt):
            p[e] = p.get(e, 0) + c
    rebuilt = {}
    for rep, c in oracle_orbit_sum_decomposition(g, p).items():
        rebuilt.update(dict.fromkeys(oracle_orbit(g, rep), c))
    assert rebuilt == p


def rank2_invariants():
    g = s3_action()
    rd = build_root_system(g, base=BASE_RANK2)
    wm = build_weight_monoid(rd, rd.pi_lattice)
    return g, rd, wm


def test_fundamental_invariants_rank2_match_hand_expansions():
    g, rd, wm = rank2_invariants()
    mus = [f.polynomial for f in fundamental_invariants_detailed(g, rd, wm)]
    assert mus[0] == poly(2, MU1_RANK2)
    assert mus[1] == poly(2, MU2_RANK2)
    assert mus[2] == poly(2, MU3_RANK2)


def test_fundamental_invariants_first_block_are_orbit_sum_powers():
    g, rd, wm = rank2_invariants()
    mus = [f.polynomial for f in fundamental_invariants_detailed(g, rd, wm)]
    for i in range(rd.rank):
        z = wm.multipliers[i]
        assert mus[i] == poly(2, oracle_power(
            oracle_orbit_sum(g, rd.fundamental_weights[i]), z))


def test_fundamental_invariants_are_invariant_with_lattice_support():
    g, rd, wm = rank2_invariants()
    for inv in fundamental_invariants_detailed(g, rd, wm):
        assert has_lattice_support(inv.polynomial)
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
    assert has_lattice_support(inv.polynomial)
    assert is_invariant(g, inv.polynomial)
    decomposition = oracle_orbit_sum_decomposition(g, inv.polynomial.terms)
    assert list(decomposition.values()) == [1]


def swap_invariants():
    g = swap_action()
    rd = build_root_system(g)
    return g, rd, build_weight_monoid(rd, rd.pi_lattice)


@pytest.mark.parametrize("setup, shifted", [(rank2_invariants, False),
                                            (swap_invariants, True)],
                         ids=["zero-prefix", "unit-prefix"])
def test_an_orbit_missing_a_weight_is_not_invariant(monkeypatch, setup,
                                                    shifted):
    # one weight dropped from the first orbit of more than one weight:
    # the check of that orbit, under its unit prefix, refuses it
    g, rd, wm = setup()
    invs = fundamental_invariants_detailed(g, rd, wm)
    assert all(inv.has_unit_prefix == shifted for inv in invs)
    walk_down, dropped = laurent._walk_down, []

    def short_walk(*args):
        found = walk_down(*args)
        if not dropped and len(found) > 1:
            dropped.append(found.pop())
        return found

    monkeypatch.setattr(laurent, "_walk_down", short_walk)
    with pytest.raises(AxiomFailure,
                       match="^fundamental invariant is not invariant$"):
        fundamental_invariants_detailed(g, rd, wm)
    assert len(dropped) == 1


def test_rank1_squared_orbit_sum():
    g = neg_rank1_action()
    rd = build_root_system(g)
    wm = build_weight_monoid(rd, rd.pi_lattice)
    (mu,) = [f.polynomial for f in fundamental_invariants_detailed(g, rd, wm)]
    assert mu == poly(1, {(1,): 1, (0,): 2, (-1,): 1})
    assert mu.render() == "a + 2 + a^-1"


def test_leading_exponents_of_the_free_block_are_distinct():
    g, rd, wm = rank2_invariants()
    mus = [f.polynomial for f in fundamental_invariants_detailed(g, rd, wm)]
    leading = [mu.sorted_terms()[0][0] for mu in mus[: rd.rank]]
    assert len(set(leading)) == rd.rank


def test_fixed_component_is_constant_on_support():
    # the invariant functionals f (g f = f for every g) read the fixed
    # component of an exponent; an invariant's support must agree on them
    for action, base in [(s3_action(), BASE_RANK2), (swap_action(), None)]:
        rd = build_root_system(action, base=base)
        wm = build_weight_monoid(rd, rd.pi_lattice)
        functionals = kernel_lattice(one_minus(
            *[g.transpose() for g in action.generators])).basis
        for inv in fundamental_invariants_detailed(action, rd, wm):
            images = {tuple(sum(a * b for a, b in zip(pt, f))
                            for f in functionals)
                      for pt in inv.polynomial.terms}
            assert len(images) == 1


def ambient_orbit(rd, j):
    """The weight-coordinate orbit of the j-th fundamental weight, mapped
    to the ambient lattice through the fundamental weights."""
    unit = [int(i == j) for i in range(rd.rank)]
    return [
        tuple(sum((m * w[k] for m, w in zip(mu, rd.fundamental_weights)),
                  Fraction(0))
              for k in range(rd.ambient_rank))
        for mu in weight_orbit(rd, unit)
    ]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(conjugated_block_sums(max_trivial=2))
def test_weight_coordinate_expansion_matches_the_orbit_sum_oracle(gens):
    group = close_group(gens)
    pipe = reflection_monoid(group)
    rd, wm = pipe.root_datum, pipe.weight_monoid
    for j, w in enumerate(rd.fundamental_weights):
        points = ambient_orbit(rd, j)
        assert len(set(points)) == len(points)
        assert frozenset(points) == oracle_orbit(group, w)
    assert (fundamental_invariants_detailed(group, rd, wm)
            == oracle_fundamental_invariants(group, rd, wm))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(conjugated_block_sums(max_trivial=2))
def test_orbit_sum_products_are_the_orbit_sum_decomposition(gens):
    # each dominant weight lambda stands for the orbit of
    # prefix + sum lambda_j w_j, named in the decomposition by its
    # lexicographically largest point
    group = close_group(gens)
    pipe = reflection_monoid(group)
    rd, wm = pipe.root_datum, pipe.weight_monoid
    products = laurent._orbit_sum_products(rd, wm.hilbert_basis)
    invs = fundamental_invariants_detailed(group, rd, wm)
    assert len(products) == len(invs)
    for terms, inv in zip(products, invs):
        assert all(min(lam) >= 0 for lam in terms)
        expect = {}
        for lam, c in terms.items():
            point = tuple(
                p + sum((m * w[k] for m, w in zip(lam, rd.fundamental_weights)),
                        Fraction(0))
                for k, p in enumerate(inv.unit_prefix))
            expect[max(oracle_orbit(group, point))] = c
        assert oracle_orbit_sum_decomposition(
            group, inv.polynomial.terms) == expect


def test_an_orbit_is_shared_only_under_the_same_unit_prefix():
    # S4 permuting the coordinates of the D4 root lattice (even
    # coordinate sum), in its Hermite basis: the lattice holds 2 w2 but
    # not w2, and does not split as moving part plus fixed part, so the
    # dominant weight w2 is a term of three rows, under two prefixes
    d4 = Sublattice(4, [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1),
                        (0, 0, 1, 1)])
    group = close_group([
        IntMatrix([[int(c) for c in d4.coefficients(g.apply(b))]
                   for b in d4.basis])
        for g in weyl_generators("S", 4)])
    pipe = reflection_monoid(group)
    rd, wm = pipe.root_datum, pipe.weight_monoid
    invs = fundamental_invariants_detailed(group, rd, wm)
    prefixes = {}
    for terms, inv in zip(laurent._orbit_sum_products(rd, wm.hilbert_basis),
                          invs):
        for lam in terms:
            prefixes.setdefault(lam, set()).add(inv.unit_prefix)
    assert len(prefixes[(0, 1, 0)]) == 2
    assert invs == oracle_fundamental_invariants(group, rd, wm)


def test_e6_invariants_have_the_product_term_count():
    # the orbit-sum product of powers (p_j) of orbits of sizes s_j is a
    # sum of prod s_j ** p_j monomials, counted with multiplicity
    group = close_group(root_lattice_generators("E", 6), cap=51840)
    pipe = reflection_monoid(group)
    rd = pipe.root_datum
    sizes = [len(weight_orbit(rd, [int(i == j) for i in range(6)]))
             for j in range(6)]
    assert sorted(sizes) == [27, 27, 72, 216, 216, 720]
    invs = fundamental_invariants_detailed(group, rd, pipe.weight_monoid)
    assert len(invs) == len(pipe.weight_monoid.hilbert_basis)
    for inv in invs:
        assert sum(inv.polynomial.terms.values()) == prod(
            s ** p for s, p in zip(sizes, inv.powers))


@pytest.mark.parametrize("kind, n", [("A", 2), ("A", 3), ("A", 4),
                                     ("B", 3), ("D", 4), ("S", 4)])
def test_orbit_sum_decomposition_rebuilds_every_invariant(kind, n):
    group = close_group(weyl_generators(kind, n))
    pipe = reflection_monoid(group)
    rd = pipe.root_datum
    sizes = [len(oracle_orbit(group, w)) for w in rd.fundamental_weights]
    for inv in fundamental_invariants_detailed(group, rd, pipe.weight_monoid):
        p = inv.polynomial
        rebuilt = {}
        total = 0
        for rep, c in oracle_orbit_sum_decomposition(group, p.terms).items():
            s = oracle_orbit_sum(group, rep)
            rebuilt.update(dict.fromkeys(s, c))
            total += c * len(s)
        assert poly(n, rebuilt) == p
        assert total == prod(k ** e for k, e in zip(sizes, inv.powers))


def test_render_formats():
    assert LaurentPolynomial(2, {}).render() == "0"
    p = poly(2, {(1, -1): 1, (0, 0): -3, (-1, 2): 2})
    assert p.render() == "2*a^-1*b^2 + a*b^-1 - 3"
    # graded lexicographic, leading term first; a negative lead keeps
    # its sign
    r = LaurentPolynomial(2, {(1, 2): 1, (4, -3): -2, (-2, 0): 3,
                              (2, 1): -1})
    assert r.render() == "-a^2*b + a*b^2 - 2*a^4*b^-3 + 3*a^-2"


def test_one_render_pass_gives_each_polynomial_its_own_text():
    # the zero polynomial, a constant, coefficients +-1 and beyond, and
    # exponents shared between polynomials, which share a term body
    polys = [
        LaurentPolynomial(2, {}),
        poly(2, {(0, 0): 7}),
        poly(2, {(1, -1): 1, (0, 0): -1, (-1, 2): -2}),
        poly(2, {(1, -1): -3, (-1, 2): 1, (0, 0): 1}),
        poly(2, {(0, 0): -1}),
    ]
    texts = ["0", "7", "-2*a^-1*b^2 + a*b^-1 - 1",
             "a^-1*b^2 - 3*a*b^-1 + 1", "-1"]
    assert render_polynomials(polys, variable_labels(2)) == texts
    assert [p.render() for p in polys] == texts
    assert render_polynomials(polys[::-1], ("u", "v")) == [
        p.render(("u", "v")) for p in polys[::-1]]
    # past rank 26 the coordinates are x1, x2, ...
    e = [0] * 27
    big = [poly(27, {tuple(e[:3] + [2] + e[4:]): -1,
                     tuple([1] + e[1:26] + [-1]): 1, tuple(e): -5}),
           poly(27, {tuple([1] + e[1:26] + [-1]): 2})]
    texts = ["-x4^2 + x1*x27^-1 - 5", "2*x1*x27^-1"]
    assert render_polynomials(big, variable_labels(27)) == texts
    assert [p.render() for p in big] == texts
