import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multinv import (
    AxiomFailure,
    ElementaryDivisors,
    IntMatrix,
    InvalidBase,
    NotReflectionGroup,
    Sublattice,
    build_root_system,
    classify,
    close_group,
    find_reflections,
    groups,
    is_reflection_group,
    kernel_lattice,
    lattice,
    laurent,
    monoid,
    roots,
    verdict,
    weight_orbit,
)
from helpers import (
    BASE_RANK2,
    BASE_RANK3,
    R2,
    a1a1_action,
    b2_action,
    block_diagonal,
    conjugate,
    conjugated_block_sums,
    mat,
    minus_identity_action,
    neg_rank1_action,
    one_minus,
    oracle_coroot_pairing,
    oracle_effective_quotient,
    oracle_induced_matrix,
    oracle_is_reflection_group,
    oracle_solve_linear,
    oracle_weight_orbit,
    random_unimodular,
    s3_action,
    s4_action,
    swap_action,
    weyl_generators,
    z3_action,
)


def test_find_reflections_rank2():
    refls = find_reflections(s3_action())
    assert len(refls) == 3
    assert sorted(r.root for r in refls) == [(0, 1), (1, -1), (1, 0)]
    assert not any(r.diagonalizable for r in refls)


def test_find_reflections_rank3():
    refls = find_reflections(s4_action())
    assert len(refls) == 6
    assert not any(r.diagonalizable for r in refls)


def test_find_reflections_none_for_minus_identity():
    assert find_reflections(minus_identity_action(2)) == ()


def test_diagonalizable_flags():
    refls = find_reflections(a1a1_action())
    assert len(refls) == 2
    assert all(r.diagonalizable for r in refls)
    # the swap fixes (1,1) and negates (1,-1); together they index a
    # sublattice of index 2
    refls = find_reflections(swap_action())
    assert len(refls) == 1 and not refls[0].diagonalizable


def test_coroot_pairing_on_own_root():
    refl = find_reflections(swap_action())[0]
    assert oracle_coroot_pairing(refl.root, refl) == 2
    assert oracle_coroot_pairing((1, 1), refl) == 0
    assert oracle_coroot_pairing((1, 0), refl, root=(-1, 1)) == -1
    for other in ((1, 0), (2, -2)):
        with pytest.raises(ValueError):
            oracle_coroot_pairing((1, 0), refl, root=other)


def test_trace_n_minus_2_without_order_2_is_no_reflection():
    # a quarter turn has trace 0 = n - 2 on Z^2 (and on Z^2 + Z) but g^2
    # = -1 on the turned plane, and 1 - g has rank 2
    quarter = mat([[0, 1], [-1, 0]])
    assert find_reflections(close_group([quarter])) == ()
    turn3 = mat([[0, 1, 0], [-1, 0, 0], [0, 0, 1]])
    assert find_reflections(close_group([turn3])) == ()
    assert roots._reflection_pair(quarter) is None


def test_coroot_pairing_weights_against_chosen_base():
    g = s3_action()
    refls = {r.root: r for r in find_reflections(g)}
    w1 = (Fraction(-2, 3), Fraction(1, 3))
    # alpha1 = (-1, 0) is the negated normalized root of the reflection
    # fixing the second coordinate line
    refl1 = refls[(1, 0)]
    refl2 = refls[(0, 1)]
    assert oracle_coroot_pairing(w1, refl1, root=(-1, 0)) == 1
    assert oracle_coroot_pairing(w1, refl1) == -1
    assert oracle_coroot_pairing(w1, refl2) == 0


def test_is_reflection_group():
    assert is_reflection_group(s3_action())
    assert is_reflection_group(s4_action())
    assert is_reflection_group(close_group([], rank=2))
    assert not is_reflection_group(minus_identity_action(2))
    assert not is_reflection_group(z3_action())


WEYL_CASES = [
    ("B", 4, 2 ** 4 * 24, 4 * 4, "Z/2"),
    ("D", 5, 2 ** 4 * 120, 5 * 4, "Z/4"),
    ("A", 5, 720, 5 * 6 // 2, "Z/6"),
    ("S", 6, 720, 6 * 5 // 2, "Z/6"),
    ("D", 4, 2 ** 3 * 24, 4 * 3, "Z/2 x Z/2"),
]


@pytest.mark.parametrize(
    "kind, n, order, positive_roots, fundamental_group", WEYL_CASES,
    ids=["-".join(map(str, case[:4])) for case in WEYL_CASES])
def test_weyl_groups_of_rank_4_to_6_in_a_random_basis(kind, n, order,
                                                      positive_roots,
                                                      fundamental_group):
    u = random_unimodular(random.Random(n * 97 + ord(kind)), n, steps=12)
    group = close_group(conjugate(weyl_generators(kind, n), u))
    assert group.order == order
    assert len(find_reflections(group)) == positive_roots
    assert is_reflection_group(group)
    assert str(build_root_system(group).fundamental_group) == \
        fundamental_group


def test_is_reflection_group_closes_no_group(monkeypatch):
    closed = []

    def recording_close_group(gens, *args, **kwargs):
        closed.append(len(gens))
        return close_group(gens, *args, **kwargs)

    group = close_group(weyl_generators("B", 4))
    for module in (groups, roots):
        monkeypatch.setattr(module, "close_group", recording_close_group,
                            raising=False)
    assert is_reflection_group(group)
    assert len(find_reflections(group)) == 16
    assert closed == []


def test_verdict_on_b4_computes_no_displacement_rank(monkeypatch):
    calls = []
    rank = IntMatrix.rank

    def counted_rank(self):
        calls.append(self.nrows)
        return rank(self)

    group = close_group(weyl_generators("B", 4))
    monkeypatch.setattr(IntMatrix, "rank", counted_rank)
    assert verdict(group).rule == "reflection-invariants"
    # close_group walked the 16 reflections out from the generators and
    # took the rank of the root span; the independence of the base comes
    # out of the elimination for the base coordinates
    assert len(calls) == 0


def minus_identity(n):
    return mat([[-int(i == j) for j in range(n)] for i in range(n)])


@settings(max_examples=48, deadline=None, derandomize=True, database=None)
@given(conjugated_block_sums(max_trivial=2), st.booleans(), st.booleans())
def test_descent_agrees_with_the_closure_oracle(gens, with_product,
                                                with_minus):
    # a product of two generators is rarely a reflection; -I lies in the
    # Weyl group of B_n, D_2k, A_1 and G2 but not of S_n or A_n (n >= 2),
    # and times -1 on a trivial coordinate it can make a new reflection
    if with_product:
        gens = gens + [gens[0] * gens[-1]]
    if with_minus:
        gens = gens + [minus_identity(gens[0].nrows)]
    group = close_group(gens)
    assert is_reflection_group(group) == oracle_is_reflection_group(group)


ROT90_XM1 = mat([[0, 1, 0], [-1, 0, 0], [0, 0, -1]])
DESCENT_CASES = {
    # reflections generate a proper subgroup
    "S4x+-I": (weyl_generators("S", 4) + [minus_identity(4)], False),
    "A4x+-1": (weyl_generators("A", 4) + [minus_identity(4)], False),
    "S3x+-I": (weyl_generators("S", 3) + [minus_identity(3)], False),
    "A2+rot90": (block_diagonal([weyl_generators("A", 2),
                                 [mat([[0, 1], [-1, 0]])]]), False),
    # no reflections at all
    "rot90x-1": ([ROT90_XM1], False),
    "rot90x-1+A2": (block_diagonal([[ROT90_XM1],
                                    weyl_generators("A", 2)]), False),
    # generated by reflections, though not every generator is one
    "B2-by-rot90": ([mat([[0, 1], [-1, 0]]), mat([[1, 0], [0, -1]])], True),
    "A2-by-coxeter": ([mat([[0, 1], [-1, -1]]), R2], True),
    "B3-by-minus": (weyl_generators("B", 3)[1:] + [
        minus_identity(3), weyl_generators("B", 3)[0]], True),
}


@pytest.mark.parametrize("gens, expected", DESCENT_CASES.values(),
                         ids=DESCENT_CASES.keys())
def test_descent_on_groups_beyond_the_weyl_blocks(gens, expected):
    group = close_group(gens)
    assert oracle_is_reflection_group(group) == expected
    assert is_reflection_group(group) == expected


@pytest.mark.parametrize("name, case", DESCENT_CASES.items(),
                         ids=DESCENT_CASES.keys())
def test_weyl_order_is_the_listed_order_of_the_reflection_subgroup(name,
                                                                   case):
    # |W'| read off the root heights against the subgroup the reflections
    # generate, listed; without reflections W' = 1 and no height is read
    group = close_group(case[0])
    refls = [r.matrix for r in find_reflections(group)]
    listed = len(groups._close(group.rank, refls, group.order))
    assert (roots._weyl_order(group) if refls else 1) == listed
    orders = {"S4x+-I": (24, 48), "B3-by-minus": (48, 48)}
    if name in orders:
        assert (listed, group.order) == orders[name]


def test_reflections_generating_a_proper_subgroup():
    # S4 x {+-I} on Z^4: the reflections are the six transpositions, whose
    # roots span rank 3 and generate S4 only
    minus = [mat([[-int(i == j) for j in range(4)] for i in range(4)])]
    group = close_group(weyl_generators("S", 4) + minus)
    assert group.order == 48
    assert len(find_reflections(group)) == 6
    assert not is_reflection_group(group)
    with pytest.raises(NotReflectionGroup,
                       match="the reflections generate a proper subgroup"):
        build_root_system(group)


def test_build_root_system_rank2_with_fixed_base():
    rd = build_root_system(s3_action(), base=BASE_RANK2)
    assert len(rd.roots) == 6
    assert rd.base == ((-1, 0), (0, 1))
    assert rd.fundamental_weights == (
        (Fraction(-2, 3), Fraction(1, 3)),
        (Fraction(-1, 3), Fraction(2, 3)),
    )
    assert rd.fundamental_group == ElementaryDivisors((1, 3))


def test_build_root_system_rank3_with_fixed_base():
    rd = build_root_system(s4_action(), base=BASE_RANK3)
    assert len(rd.roots) == 12
    expected_roots = set()
    for r in [(1, 0, 0), (1, 0, -1), (1, -1, 0), (0, 1, 0), (0, 0, 1),
              (0, 1, -1)]:
        expected_roots.add(r)
        expected_roots.add(tuple(-x for x in r))
    assert rd.roots == frozenset(expected_roots)
    assert rd.fundamental_weights == (
        (Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(-3, 4), Fraction(1, 4)),
        (Fraction(-1, 4), Fraction(-1, 4), Fraction(-1, 4)),
    )
    assert rd.fundamental_group == ElementaryDivisors((1, 1, 4))


def test_build_root_system_rank1():
    rd = build_root_system(neg_rank1_action())
    assert rd.roots == frozenset({(1,), (-1,)})
    assert rd.fundamental_weights == ((Fraction(1, 2),),)
    assert rd.fundamental_group == ElementaryDivisors((2,))


def test_build_root_system_default_base_is_weyl_equivalent():
    rd = build_root_system(s3_action())
    assert len(rd.base) == 2
    assert rd.fundamental_group == ElementaryDivisors((1, 3))


def test_build_root_system_trivial_group():
    rd = build_root_system(close_group([], rank=2))
    assert rd.rank == 0
    assert rd.base == ()


def test_weight_orbit_of_the_rank2_golden_group():
    rd = build_root_system(s3_action(), base=BASE_RANK2)
    assert rd.cartan.entries == ((2, -1), (-1, 2))
    assert weight_orbit(rd, (1, 0)) == ((1, 0), (-1, 1), (0, -1))
    assert weight_orbit(rd, (0, 0)) == ((0, 0),)
    assert weight_orbit(rd, (1, 1)) == (
        (1, 1), (-1, 2), (2, -1), (1, -2), (-2, 1), (-1, -1))


@pytest.mark.parametrize("kind, n, sizes", [
    ("A", 4, [5, 5, 10, 10]),
    ("B", 3, [6, 8, 12]),
    ("D", 4, [8, 8, 8, 24]),
    ("G", 2, [6, 6]),
])
def test_weight_orbit_sizes_of_the_fundamental_weights(kind, n, sizes):
    # |W . w_j| = |W| / |W_j|, W_j the parabolic subgroup of the other
    # simple reflections
    rd = build_root_system(close_group(weyl_generators(kind, n)))
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    assert sorted(len(weight_orbit(rd, u)) for u in units) == sizes


@pytest.mark.parametrize("kind, n", [("A", 3), ("B", 3), ("D", 4),
                                     ("G", 2), ("S", 4)])
def test_weight_orbit_is_walked_down_from_the_dominant_weight(kind, n):
    # from a dominant weight the walk lists the orbit in the order of a
    # breadth-first search over every simple reflection; from any other
    # weight of the orbit it lists the same weights in the same order
    rd = build_root_system(close_group(weyl_generators(kind, n)))
    rng = random.Random(n)
    for _ in range(12):
        weight = tuple(rng.randint(-2, 2) for _ in range(rd.rank))
        orb = weight_orbit(rd, weight)
        dominant = max(orb, key=lambda mu: min(mu))
        assert min(dominant) >= 0
        assert orb[0] == dominant
        assert orb == oracle_weight_orbit(rd, dominant)
        assert set(orb) == set(oracle_weight_orbit(rd, weight))
        assert weight in orb
        for mu in orb[::max(1, len(orb) // 5)]:
            assert weight_orbit(rd, mu) == orb


def test_build_root_system_rejects_non_reflection_group():
    with pytest.raises(NotReflectionGroup):
        build_root_system(minus_identity_action(2))


def test_build_root_system_rejects_bad_base():
    with pytest.raises(InvalidBase):
        build_root_system(s3_action(), base=[(1, 0), (2, 1)])
    with pytest.raises(InvalidBase):
        # two positive roots that are not simple for any ordering
        build_root_system(s3_action(), base=[(1, 0), (0, 1)])


BAD_BASES = [
    (s3_action, [(1, 0), (0, 1)],
     "root (-1, 1) has mixed signs over the base"),
    (s4_action, [(1, 0, 0), (0, 1, 0), (1, 0, -1)],
     "root (0, -1, 1) has mixed signs over the base"),
    (b2_action, [(1, 1), (1, -1)],
     "root (0, 1) is not an integer combination of the base"),
    (s3_action, [(1, 0), (-1, 0)], "base vectors are linearly dependent"),
    (s4_action, [(1, 0, 0), (0, 1, 0), (1, -1, 0)],
     "base vectors are linearly dependent"),
]


@pytest.mark.parametrize("action, base, message", BAD_BASES)
def test_bad_user_base_messages(action, base, message):
    with pytest.raises(InvalidBase) as exc:
        build_root_system(action(), base=base)
    assert str(exc.value) == message


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(conjugated_block_sums(max_trivial=1))
def test_base_coordinates_match_per_root_solves(gens):
    group = close_group(gens)
    rd = build_root_system(group)
    coordinates = roots._check_base(rd.roots, rd.base, rd.rank, strict=True)
    assert set(coordinates) == rd.roots
    equations = [[b[k] for b in rd.base] for k in range(group.rank)]
    for r, c in coordinates.items():
        assert oracle_solve_linear(equations, r) == c
    base, coordinates = roots._base_coordinates(group)
    positive = {r for r, c in coordinates.items() if min(c) >= 0}
    assert base == rd.base
    assert {tuple(-x for x in r) for r in positive} == rd.roots - positive


def test_root_system_axioms_hold_for_golden_groups():
    cases = [
        (s3_action(), BASE_RANK2),
        (s4_action(), BASE_RANK3),
        (neg_rank1_action(), None),
        (a1a1_action(), None),
        (b2_action(), None),
    ]
    for action, base in cases:
        rd = build_root_system(action, base=base)
        refls = find_reflections(action)
        # crystallographic closure, stated directly on the data
        for refl in refls:
            for beta in rd.roots:
                image = refl.matrix.apply(beta)
                assert image in rd.roots
                assert oracle_coroot_pairing(beta, refl).denominator == 1
        # the defining pairing identity of the weights
        for i, w in enumerate(rd.fundamental_weights):
            for j, (alpha, refl) in enumerate(
                zip(rd.base, rd.base_reflections)
            ):
                moved = refl.matrix.apply(w)
                diff = tuple(a - b for a, b in zip(w, moved))
                expect = tuple(
                    Fraction(x) if i == j else Fraction(0) for x in alpha
                )
                assert diff == expect
        # lattice sandwich: roots sit inside the projected lattice
        pi_lat = rd.pi_lattice
        for alpha in rd.base:
            coords = [
                int(oracle_coroot_pairing(alpha, refl, root=beta))
                for beta, refl in zip(rd.base, rd.base_reflections)
            ]
            assert pi_lat.contains(coords)


def test_b2_has_eight_roots():
    rd = build_root_system(b2_action())
    assert len(rd.roots) == 8
    assert len(find_reflections(b2_action())) == 4


def test_reflections_descend_to_effective_quotient():
    for action in (swap_action(), s3_action(),
                   close_group([mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])])):
        eq = oracle_effective_quotient(action)
        identity = mat([[int(i == j) for j in range(action.rank)]
                        for i in range(action.rank)])
        for g in action.elements:
            if g == identity:
                continue
            on_lattice = one_minus(g).rank() == 1
            on_quotient = one_minus(oracle_induced_matrix(eq, g)).rank() == 1
            assert on_lattice == on_quotient


# The derivations the coroot construction replaced, kept as its oracle:
# reflections as the elements with rank(1 - g) = 1, the root as the
# generator of the negated line kernel(g + 1), diagonalizability as
# Z^n = fixed + Z*root (a determinant), pairings by dividing v - v*g by
# the root, and the weights solved in the kernel of the group average.

def oracle_reflections(action):
    n = action.rank
    out = []
    for g in action.elements:
        if one_minus(g).rank() != 1:
            continue
        one_plus = mat([[int(i == j) + x for j, x in enumerate(row)]
                        for i, row in enumerate(g.entries)])
        root = kernel_lattice(one_plus).basis[0]
        if next(x for x in root if x) < 0:
            root = tuple(-x for x in root)
        fixed = kernel_lattice(one_minus(g))
        split = IntMatrix(list(fixed.basis) + [root], ncols=n)
        out.append((g, root, abs(split.det()) == 1))
    return out


def oracle_pairing(v, g, root):
    diff = [a - b for a, b in zip(v, g.apply(v))]
    k = next(i for i, x in enumerate(root) if x)
    c = Fraction(diff[k], root[k])
    assert diff == [c * x for x in root] and c.denominator == 1
    return int(c)


def oracle_weights(action, base, base_matrices):
    """Vectors w with w * rho = 0 for the average rho of the group and
    (w - w*s_j)[k] = delta_ij * alpha_j[k] at the first nonzero k of each
    base root alpha_j."""
    n, r = action.rank, len(base)
    rho = [[Fraction(sum(g.entries[i][j] for g in action.elements),
                     action.order) for j in range(n)] for i in range(n)]
    equations = [[rho[i][j] for i in range(n)] for j in range(n)]
    anchors = []
    for alpha, s in zip(base, base_matrices):
        k = next(i for i, x in enumerate(alpha) if x)
        equations.append([int(i == k) - s.entries[i][k] for i in range(n)])
        anchors.append(alpha[k])
    return tuple(
        oracle_solve_linear(equations,
                     [0] * n + [anchors[j] * (i == j) for j in range(r)])
        for i in range(r)
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(conjugated_block_sums())
def test_root_datum_matches_the_average_and_kernel_oracles(gens):
    group = close_group(gens)
    n = group.rank
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    refls = find_reflections(group)
    assert [(r.matrix, r.root, r.diagonalizable)
            for r in refls] == oracle_reflections(group)
    for r in refls:
        assert r.coroot == tuple(oracle_pairing(e, r.matrix, r.root)
                                 for e in units)

    rd = build_root_system(group)
    coroot_rows = [
        tuple(oracle_pairing(e, s.matrix, alpha)
              for alpha, s in zip(rd.base, rd.base_reflections))
        for e in units
    ]
    assert rd.coroots.entries == tuple(coroot_rows)
    assert rd.pi_lattice == Sublattice(rd.rank, coroot_rows)
    assert rd.fundamental_weights == oracle_weights(
        group, rd.base, [s.matrix for s in rd.base_reflections])
    for i, w in enumerate(rd.fundamental_weights):
        assert rd.coroots.apply(w) == tuple(int(i == j)
                                            for j in range(rd.rank))


def verified_arguments(gens, monkeypatch):
    """The arguments `build_root_system` passes to `_verify_axioms`, for
    the group the generators close to."""
    seen = []
    verify = roots._verify_axioms
    monkeypatch.setattr(roots, "_verify_axioms",
                        lambda *args: seen.append(args) or verify(*args))
    build_root_system(close_group(gens))
    monkeypatch.undo()
    (args,) = seen
    return list(args)


def non_simple(args):
    """A reflection whose root is no base root, up to sign."""
    _, refls, _, base, *_ = args
    lines = set(base) | {tuple(-x for x in a) for a in base}
    return next(r for r in refls if r.root not in lines)


PERMUTES = "a reflection does not permute the roots"


def test_axioms_reject_a_reflection_off_the_simple_walk(monkeypatch):
    args = verified_arguments(weyl_generators("A", 3), monkeypatch)
    roots._verify_axioms(*args)
    bad = non_simple(args)
    coroot = tuple(2 * c for c in bad.coroot)
    args[1] = tuple(r if r is not bad else
                    roots.Reflection(bad.matrix, bad.root, coroot, True)
                    for r in args[1])
    with pytest.raises(AxiomFailure, match=PERMUTES):
        roots._verify_axioms(*args)


def test_axioms_reject_roots_a_simple_reflection_does_not_keep(monkeypatch):
    # the reflections still walk out from the simple ones, but the root
    # set lacks one of their roots
    args = verified_arguments(weyl_generators("A", 3), monkeypatch)
    gone = non_simple(args).root
    args[2] = args[2] - {gone, tuple(-x for x in gone)}
    with pytest.raises(AxiomFailure, match=PERMUTES):
        roots._verify_axioms(*args)


def test_axioms_reject_a_walk_past_the_reflection_count(monkeypatch):
    args = verified_arguments(weyl_generators("B", 3), monkeypatch)
    bad = non_simple(args)
    args[1] = tuple(r for r in args[1] if r is not bad)
    with pytest.raises(AxiomFailure, match=PERMUTES):
        roots._verify_axioms(*args)


def test_axioms_stop_an_endless_walk_at_the_reflection_count(monkeypatch):
    # S3 permuting Z^3 with the first simple coroot replaced by (1, 1, 1):
    # it pairs to zero with every root, so the simple reflections still
    # keep the roots, but conjugating the second pair by the first adds
    # (1, 1, 1) to its coroot again and again
    args = verified_arguments(weyl_generators("S", 3), monkeypatch)
    columns = list(zip(*args[4].entries))
    columns[0] = (1, 1, 1)
    args[4] = IntMatrix(list(zip(*columns)), ncols=len(columns))
    with pytest.raises(AxiomFailure, match=PERMUTES):
        roots._verify_axioms(*args)


def test_axioms_reject_a_weight_off_the_delta(monkeypatch):
    args = verified_arguments(weyl_generators("B", 3), monkeypatch)
    weights = args[5]
    args[5] = [[a + b for a, b in zip(weights[0], weights[1])],
               *weights[1:]]
    with pytest.raises(AxiomFailure, match="weight pairing identity failed"):
        roots._verify_axioms(*args)


def test_axioms_reject_a_weight_with_a_fixed_component(monkeypatch):
    # S4 permuting Z^4 fixes (1, 1, 1, 1), which pairs to zero with every
    # coroot, so only the fixed-component check sees the shift
    args = verified_arguments(weyl_generators("S", 4), monkeypatch)
    weights = args[5]
    args[5] = [tuple(x + 1 for x in weights[0]), *weights[1:]]
    with pytest.raises(AxiomFailure,
                       match="fundamental weight has a fixed component"):
        roots._verify_axioms(*args)


def test_verdict_on_b5_takes_one_smith_form(monkeypatch):
    group = close_group(weyl_generators("B", 5))
    taken = []
    smith_normal_form = lattice.smith_normal_form

    def counted(m):
        taken.append(m)
        return smith_normal_form(m)

    for module in (lattice, groups, roots, classify, monoid, laurent):
        monkeypatch.setattr(module, "smith_normal_form", counted,
                            raising=False)
    assert verdict(group).rule == "reflection-invariants"
    monkeypatch.undo()
    # the fundamental group; the fixed sublattice and the weights' check
    # take none
    assert taken == [build_root_system(group).cartan]
