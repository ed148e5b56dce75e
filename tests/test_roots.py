import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from multinv import (
    AxiomFailure,
    ElementaryDivisors,
    IntMatrix,
    InvalidBase,
    NotMultiple,
    NotReflectionGroup,
    Sublattice,
    build_root_system,
    close_group,
    coroot_pairing,
    effective_quotient,
    find_reflections,
    induced_matrix,
    is_reflection_group,
    kernel_lattice,
    roots,
    verdict,
)
from multinv.lattice import solve_linear
from helpers import (
    BASE_RANK2,
    BASE_RANK3,
    a1a1_action,
    b2_action,
    conjugate,
    conjugated_block_sums,
    mat,
    minus_identity_action,
    neg_rank1_action,
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
    assert coroot_pairing(refl.root, refl) == 2
    assert coroot_pairing((1, 1), refl) == 0
    assert coroot_pairing((1, 0), refl, root=(-1, 1)) == -1
    for other in ((1, 0), (2, -2)):
        with pytest.raises(NotMultiple):
            coroot_pairing((1, 0), refl, root=other)


def test_trace_n_minus_2_without_order_2_is_no_reflection():
    # a quarter turn has trace 0 = n - 2 on Z^2 (and on Z^2 + Z) but g^2
    # = -1 on the turned plane, and 1 - g has rank 2
    quarter = mat([[0, 1], [-1, 0]])
    assert find_reflections(close_group([quarter])) == ()
    turn3 = mat([[0, 1, 0], [-1, 0, 0], [0, 0, 1]])
    assert find_reflections(close_group([turn3])) == ()
    with pytest.raises(AxiomFailure):
        roots._root_and_coroot(quarter)


def test_coroot_pairing_weights_against_chosen_base():
    g = s3_action()
    refls = {r.root: r for r in find_reflections(g)}
    w1 = (Fraction(-2, 3), Fraction(1, 3))
    # alpha1 = (-1, 0) is the negated normalized root of the reflection
    # fixing the second coordinate line
    refl1 = refls[(1, 0)]
    refl2 = refls[(0, 1)]
    assert coroot_pairing(w1, refl1, root=(-1, 0)) == 1
    assert coroot_pairing(w1, refl1) == -1
    assert coroot_pairing(w1, refl2) == 0


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


def test_is_reflection_group_closes_only_simple_reflections(monkeypatch):
    closed = []
    close = roots.close_group

    def recording_close_group(gens, *args, **kwargs):
        closed.append(len(gens))
        return close(gens, *args, **kwargs)

    group = close_group(weyl_generators("B", 4))
    monkeypatch.setattr(roots, "close_group", recording_close_group)
    assert is_reflection_group(group)
    assert len(find_reflections(group)) == 16
    assert closed == [4]


def test_verdict_on_b4_computes_no_displacement_rank(monkeypatch):
    calls = []
    rank = IntMatrix.rank

    def counted_rank(self):
        calls.append(self.nrows)
        return rank(self)

    group = close_group(weyl_generators("B", 4))
    monkeypatch.setattr(IntMatrix, "rank", counted_rank)
    assert verdict(group).rule == "reflection-invariants"
    # the rank of the root span and the independence of the base; the
    # 16 reflections among the 384 elements are found by trace and g^2
    assert len(calls) <= 2


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


def test_build_root_system_rejects_non_reflection_group():
    with pytest.raises(NotReflectionGroup):
        build_root_system(minus_identity_action(2))


def test_build_root_system_rejects_bad_base():
    with pytest.raises(InvalidBase):
        build_root_system(s3_action(), base=[(1, 0), (2, 1)])
    with pytest.raises(InvalidBase):
        # two positive roots that are not simple for any ordering
        build_root_system(s3_action(), base=[(1, 0), (0, 1)])


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
                assert coroot_pairing(beta, refl).denominator == 1
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
                int(coroot_pairing(alpha, refl, root=beta))
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
        eq = effective_quotient(action)
        identity = mat([[int(i == j) for j in range(action.rank)]
                        for i in range(action.rank)])
        for g in action.elements:
            if g == identity:
                continue
            on_lattice = (identity - g).rank() == 1
            gbar = induced_matrix(eq, g)
            ibar = mat([[int(i == j) for j in range(eq.quotient_rank)]
                        for i in range(eq.quotient_rank)])
            on_quotient = (ibar - gbar).rank() == 1
            assert on_lattice == on_quotient


# The derivations the coroot construction replaced, kept as its oracle:
# reflections as the elements with rank(1 - g) = 1, the root as the
# generator of the negated line kernel(g + 1), diagonalizability as
# Z^n = fixed + Z*root (a determinant), pairings by dividing v - v*g by
# the root, and the weights solved in the kernel of the group average.

def oracle_reflections(action):
    n = action.rank
    identity = IntMatrix.identity(n)
    out = []
    for idx, g in enumerate(action.elements):
        if (identity - g).rank() != 1:
            continue
        root = kernel_lattice(g + identity).basis[0]
        if next(x for x in root if x) < 0:
            root = tuple(-x for x in root)
        fixed = kernel_lattice(g - identity)
        split = IntMatrix(list(fixed.basis) + [root], ncols=n)
        out.append((idx, g, root, abs(split.det()) == 1))
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
        solve_linear(equations,
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
    assert [(r.element_index, r.matrix, r.root, r.diagonalizable)
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
