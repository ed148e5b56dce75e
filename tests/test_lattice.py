import copy
import pickle
import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from multinv import (
    ElementaryDivisors,
    IntMatrix,
    Sublattice,
    kernel_lattice,
    smith_normal_form,
    solve_integer,
)
from multinv.lattice import _echelon, common_denominator, hermite_basis
from helpers import (
    mat,
    one_minus,
    oracle_annihilated_by,
    oracle_det,
    oracle_inverse_unimodular,
    oracle_kernel_lattice,
    oracle_quotient_invariants,
    oracle_rank,
    oracle_rref,
    oracle_solve_linear,
    random_unimodular,
    snf_diagonal_by_minors,
)

# deterministic example streams, and no example database in the checkout
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
ENTRY = st.integers(-9, 9)


def int_rows(nrows, ncols, elements=ENTRY):
    return st.lists(st.lists(elements, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@st.composite
def matrices(draw, max_size=8):
    nr = draw(st.integers(1, max_size))
    nc = draw(st.integers(1, max_size))
    # small entries and low-rank products reach rank-deficient cases
    if draw(st.booleans()):
        return IntMatrix(draw(int_rows(nr, nc)))
    k = draw(st.integers(1, min(nr, nc)))
    a = IntMatrix(draw(int_rows(nr, k, st.integers(-2, 2))))
    b = IntMatrix(draw(int_rows(k, nc, st.integers(-2, 2))))
    return a * b


@st.composite
def square_pairs(draw, max_size=8):
    n = draw(st.integers(0, max_size))
    return (IntMatrix(draw(int_rows(n, n)), ncols=n),
            IntMatrix(draw(int_rows(n, n)), ncols=n))


BIG = st.integers(-10 ** 6, 10 ** 6)


@st.composite
def elimination_cases(draw, square=False, max_size=8):
    """Square, wide or tall matrices with entries up to 10^6 in size:
    random, of low rank, or with zero rows or repeated (scaled) rows
    written over some of their rows."""
    nr = draw(st.integers(0, max_size))
    nc = nr if square else draw(st.integers(0, max_size))
    kind = draw(st.sampled_from(("random", "low-rank", "zero", "repeat")))
    if kind == "low-rank" and nr and nc:
        k = draw(st.integers(1, min(nr, nc)))
        small = st.integers(-300, 300)  # products stay within 10^6
        a = IntMatrix(draw(int_rows(nr, k, small)), ncols=k)
        return a * IntMatrix(draw(int_rows(k, nc, small)), ncols=nc)
    rows = draw(int_rows(nr, nc, BIG))
    for i in (draw(st.lists(st.integers(0, nr - 1), max_size=3))
              if nr else ()):
        if kind == "zero":
            rows[i] = [0] * nc
        elif kind == "repeat":
            j = draw(st.integers(0, nr - 1))
            c = draw(st.sampled_from((1, -1, 2, -3)))
            rows[i] = [c * x for x in rows[j]]
    return IntMatrix(rows, ncols=nc)


def leibniz_det(m):
    n = m.nrows
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m.entries[i][j]
        total += term
    return total


def snf_checks(m):
    u, d, v = smith_normal_form(m)
    assert u * m * v == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diag = [d.entries[i][i] for i in range(min(m.nrows, m.ncols))]
    for i in range(m.nrows):
        for j in range(m.ncols):
            if i != j:
                assert d.entries[i][j] == 0
    nonzero = [x for x in diag if x]
    assert all(x > 0 for x in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))
    return diag


def test_snf_identity():
    u, d, v = smith_normal_form(IntMatrix.identity(2))
    assert d == IntMatrix.identity(2)
    assert u * v == IntMatrix.identity(2)


def test_snf_diag_2_3():
    diag = snf_checks(mat([[2, 0], [0, 3]]))
    assert diag == [1, 6]
    assert snf_diagonal_by_minors(mat([[2, 0], [0, 3]])) == [1, 6]


def test_snf_random_small():
    rng = random.Random(20240311)
    for _ in range(200):
        m = IntMatrix(
            [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        )
        diag = snf_checks(m)
        assert diag == snf_diagonal_by_minors(m)


def test_snf_rectangular():
    rng = random.Random(7)
    for nr, nc in [(2, 4), (4, 2), (1, 3), (3, 1)]:
        for _ in range(20):
            m = IntMatrix(
                [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
            )
            snf_checks(m)


def test_kernel_zero_matrix():
    assert kernel_lattice(mat([[0, 0], [0, 0]])) == Sublattice.full(2)


def test_kernel_of_swap_difference():
    m = one_minus(mat([[0, 1], [1, 0]]))
    assert kernel_lattice(m).basis == ((1, 1),)


def test_kernel_matches_selected_root():
    # 1 + s for the rank-2 shear reflection s = [[1, -1], [0, -1]]: the
    # negated line is (0, 1)
    m = mat([[2, -1], [0, 0]])
    assert kernel_lattice(m).basis == ((0, 1),)


def test_kernel_matches_the_smith_form_kernel():
    rng = random.Random(2024)
    shapes = [(0, 0), (0, 3), (3, 0), (4, 4)]  # empty, 0-column, zero
    shapes += [(rng.randint(1, 3), rng.randint(4, 8)) for _ in range(60)]
    shapes += [(rng.randint(4, 8), rng.randint(1, 3)) for _ in range(60)]
    shapes += [(n, n) for n in (rng.randint(1, 6) for _ in range(40))]
    checked = 0
    for nr, nc in shapes:
        for bound in (0, 3, 10 ** 6):
            rows = [[rng.randint(-bound, bound) for _ in range(nc)]
                    for _ in range(nr)]
            if nr >= 2 and bound and rng.random() < 0.5:
                # rank-deficient: one row a combination of two others
                i, j, k = (rng.randrange(nr) for _ in range(3))
                rows[i] = [rng.randint(-3, 3) * a + rng.randint(-3, 3) * b
                           for a, b in zip(rows[j], rows[k])]
            m = IntMatrix(rows, ncols=nc)
            assert kernel_lattice(m) == oracle_kernel_lattice(m)
            checked += 1
    assert checked >= 200


def test_image_identity_and_zero():
    assert Sublattice(3, IntMatrix.identity(3).entries) == Sublattice.full(3)
    assert Sublattice(2, ((0, 0), (0, 0))).rank == 0


def test_image_doubling():
    m = one_minus(mat([[-1, 0], [0, -1]]))
    im = Sublattice(2, m.entries)
    assert im.basis == ((2, 0), (0, 2))
    assert oracle_quotient_invariants(im, Sublattice.full(2)).order() == 4


def test_rank_nullity():
    rng = random.Random(99)
    for _ in range(50):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix(
            [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        )
        assert kernel_lattice(m).rank + m.rank() == m.nrows


def test_hermite_canonical_under_change_of_basis():
    rng = random.Random(4242)
    for _ in range(40):
        n = rng.choice([2, 3])
        k = rng.randint(1, n)
        vecs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        lat = Sublattice(n, vecs)
        u = random_unimodular(rng, k)
        mixed = (u * IntMatrix(vecs, ncols=n)).entries
        assert Sublattice(n, mixed) == lat


def test_quotient_trivial_when_equal():
    lat = Sublattice(2, [[1, 2], [0, 5]])
    q = oracle_quotient_invariants(lat, lat)
    assert q.is_trivial
    assert q.divisors == (1, 1)


def test_quotient_with_free_part():
    q = oracle_quotient_invariants(Sublattice(2, [[2, 0]]), Sublattice.full(2))
    assert q.divisors == (2, 0)
    assert q.free_rank == 1
    assert q.order() is None
    assert str(q) == "Z x Z/2"


def test_quotient_not_contained():
    with pytest.raises(ValueError):
        oracle_quotient_invariants(
            Sublattice(2, [[1, 0]]), Sublattice(2, [[2, 0], [0, 2]])
        )


def test_quotient_order_equals_index():
    rng = random.Random(555)
    for _ in range(30):
        n = rng.choice([2, 3])
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            m = IntMatrix(rows)
            if m.det() != 0:
                break
        q = oracle_quotient_invariants(Sublattice(n, rows), Sublattice.full(n))
        assert q.order() == abs(m.det())


def test_elementary_divisors_validation():
    with pytest.raises(ValueError):
        ElementaryDivisors((2, 3))
    with pytest.raises(ValueError):
        ElementaryDivisors((0, 2))
    ed = ElementaryDivisors((1, 2, 4, 0))
    assert ed.torsion == (2, 4)
    assert ed.free_rank == 1
    assert oracle_annihilated_by(ed, 8) is False  # free summand survives
    assert oracle_annihilated_by(ElementaryDivisors((1, 3)), 6)


def test_solve_rational_identity():
    b = (Fraction(3), Fraction(-1, 2))
    assert oracle_solve_linear(IntMatrix.identity(2).entries, b) == b


def test_solve_rational_scaling():
    assert oracle_solve_linear([[2, 0], [0, 2]], (1, 1)) == (Fraction(1, 2),
                                                     Fraction(1, 2))


def test_solve_rational_inconsistent():
    assert oracle_solve_linear([[1, 1], [1, 1]], (0, 1)) is None


def test_solve_rational_sets_free_variables_to_zero():
    # x1 + 2*x2 = 4 with x3 unconstrained: x1 is the pivot, x2 and x3 free
    assert oracle_solve_linear([[1, 2, 0]], (4,)) == (4, 0, 0)


def test_inverse_unimodular_rejects_singular_and_non_unimodular():
    for m in (mat([[1, 2], [2, 4]]), mat([[2, 0], [0, 1]])):
        with pytest.raises(ValueError):
            oracle_inverse_unimodular(m)


def test_solve_integer():
    m = mat([[2, 0], [0, 3], [1, 1]])
    x = solve_integer(m, (3, 4))
    assert x is not None
    assert m.apply(x) == (3, 4)
    assert solve_integer(mat([[2, 0], [0, 2]]), (1, 0)) is None
    # more columns than rows: the trailing columns must be consistent
    assert solve_integer(mat([[2, 4, 6]]), (4, 8, 12)) == (2,)
    assert solve_integer(mat([[2, 4, 6]]), (4, 8, 13)) is None


def test_matrix_basics():
    m = mat([[1, 2], [3, 4]])
    assert m.det() == -2
    assert m.transpose().entries == ((1, 3), (2, 4))
    assert m.rank() == 2
    assert mat([[1, 2], [2, 4]]).rank() == 1
    u = mat([[1, 1], [0, 1]])
    assert oracle_inverse_unimodular(u) == mat([[1, -1], [0, 1]])
    assert u * oracle_inverse_unimodular(u) == IntMatrix.identity(2)
    with pytest.raises(TypeError):
        IntMatrix([[1.5]])


def test_matrices_without_rows_or_columns():
    empty = IntMatrix([], ncols=3)
    assert (empty.transpose().nrows, empty.transpose().ncols) == (3, 0)
    assert empty.transpose().transpose() == empty
    assert empty.apply(()) == (0, 0, 0)
    thin = IntMatrix([(), ()], ncols=0)
    assert (thin.transpose().nrows, thin.transpose().ncols) == (0, 2)
    assert thin.apply((1, 2)) == ()
    assert thin * empty == mat([[0, 0, 0], [0, 0, 0]])
    assert empty * mat([[0, 0], [0, 0], [0, 0]]) == IntMatrix([], ncols=2)


@PROPERTY
@given(square_pairs())
def test_det_is_multiplicative(pair):
    a, b = pair
    assert (a * b).det() == a.det() * b.det()


@PROPERTY
@given(square_pairs(max_size=4), elimination_cases(square=True, max_size=6))
def test_det_matches_leibniz_expansion(pair, large):
    for m in (*pair, large):
        assert m.det() == leibniz_det(m)


@PROPERTY
@given(elimination_cases())
def test_rank_matches_the_fraction_oracle(m):
    assert m.rank() == oracle_rank(m)


@PROPERTY
@given(elimination_cases(square=True))
def test_det_matches_the_fraction_oracle(m):
    assert m.det() == oracle_det(m)
    assert (m.det() == 0) == (m.rank() < m.nrows)


@PROPERTY
@given(matrices())
def test_rank_of_transpose(m):
    assert m.rank() == m.transpose().rank()
    assert m.rank() <= min(m.nrows, m.ncols)


def _rank(rows):
    """Rank of rational rows, each scaled to integers first."""
    return IntMatrix(
        [[int(x * common_denominator(row)) for x in row] for row in rows],
        ncols=len(rows[0]),
    ).rank()


@PROPERTY
@given(matrices(), st.data())
def test_solve_linear_solution_or_none(m, data):
    dens = data.draw(st.lists(st.integers(1, 6), min_size=m.nrows,
                              max_size=m.nrows))
    equations = [[Fraction(x, den) for x in row]
                 for row, den in zip(m.entries, dens)]
    rhs = data.draw(st.lists(st.integers(-9, 9).map(lambda x: Fraction(x, 2)),
                             min_size=m.nrows, max_size=m.nrows))
    for eqs in (equations, [list(row) for row in m.entries]):
        x = oracle_solve_linear(eqs, rhs)
        aug = [[*row, b] for row, b in zip(eqs, rhs)]
        if x is None:
            assert _rank(aug) > _rank(eqs)
            continue
        for row, b in zip(eqs, rhs):
            assert sum(a * xi for a, xi in zip(row, x)) == b
        # free variables (columns dependent on earlier ones) are zero
        for c in range(1, m.ncols):
            if _rank([row[:c + 1] for row in eqs]) == _rank(
                    [row[:c] for row in eqs]):
                assert x[c] == 0
        if not any(row[0] for row in eqs):
            assert x[0] == 0


@PROPERTY
@given(st.integers(1, 8), st.integers(0, 2 ** 32))
def test_inverse_unimodular_is_the_inverse(n, seed):
    a = random_unimodular(random.Random(seed), n, steps=12)
    assert a * oracle_inverse_unimodular(a) == IntMatrix.identity(n)
    assert oracle_inverse_unimodular(a) * a == IntMatrix.identity(n)


@PROPERTY
@given(matrices(max_size=5), st.data())
def test_contains_agrees_with_integral_coefficients(m, data):
    lat = Sublattice(m.ncols, m.entries)
    n = m.ncols
    combo = data.draw(st.lists(st.integers(-3, 3).map(lambda x: Fraction(x, 2)),
                               min_size=m.nrows, max_size=m.nrows))
    inside = [sum(c * row[j] for c, row in zip(combo, m.entries))
              for j in range(n)]
    shift = data.draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    for v in (inside, [a + b for a, b in zip(inside, shift)],
              data.draw(int_rows(1, n))[0]):
        if any(Fraction(x).denominator != 1 for x in v):
            continue
        v = [int(x) for x in v]
        cs = lat.coefficients(v)
        integral = cs is not None and all(c.denominator == 1 for c in cs)
        assert lat.contains(v) == integral
    with pytest.raises(ValueError):
        lat.contains([0] * (n + 1))


# (u, d, v) of the Smith form, pinned: solve_integer reads u and v, so
# the transforms must not drift
PINNED_SMITH_FORMS = [
    (
        [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
        [[1, 0, 0], [2, -1, -1], [3, -4, -3]],
        [[2, 0, 0], [0, 6, 0], [0, 0, 12]],
        [[1, -2, 2], [0, 1, -2], [0, 0, 1]],
    ),
    (
        [[3, 1, 4, 1], [5, 9, 2, 6]],
        [[1, 0], [-9, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0]],
        [[0, 0, 0, 1], [1, -7, -22, -157], [0, -1, -3, -22],
         [0, 11, 34, 242]],
    ),
    (
        [[2, 4, 6], [1, 2, 3], [4, 8, 12]],
        [[0, 1, 0], [1, -2, 0], [0, -4, 1]],
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[1, -2, -3], [0, 1, 0], [0, 0, 1]],
    ),
]


@pytest.mark.parametrize("m, u, d, v", PINNED_SMITH_FORMS)
def test_smith_form_transforms_are_pinned(m, u, d, v):
    assert smith_normal_form(mat(m)) == (mat(u), mat(d), mat(v))


@PROPERTY
@given(elimination_cases(), st.data())
def test_reduced_echelon_matches_the_fraction_oracle(m, data):
    # the matrix and a sparse copy, where some rows are zero in some pivot
    # columns and skip those steps; each plain, and with the columns from
    # k on riding along as an augmented part: divided by the last pivot,
    # every row is the oracle's
    keep = data.draw(int_rows(m.nrows, m.ncols, st.booleans()))
    sparse = [[x if b else 0 for x, b in zip(row, bits)]
              for row, bits in zip(m.entries, keep)]
    k = data.draw(st.integers(0, m.ncols))
    for rows, ncols in product((m.entries, sparse), {m.ncols, k}):
        out, pivots, last, _ = _echelon(rows, ncols, reduced=True)
        expected, expected_pivots = oracle_rref(rows, ncols)
        assert pivots == expected_pivots
        assert [[Fraction(x, last) for x in row] for row in out] == expected


@PROPERTY
@given(elimination_cases(max_size=6))
def test_hermite_basis_is_an_upper_hermite_basis_of_the_span(m):
    basis = hermite_basis(m.ncols, m.entries)
    assert len(basis) == m.rank()
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for k, (row, p) in enumerate(zip(basis, pivots)):
        assert row[p] > 0
        assert all(0 <= above[p] < row[p] for above in basis[:k])
    lat = Sublattice(m.ncols, m.entries)
    assert all(lat.contains(row) for row in m.entries)
    for row in basis:
        x = solve_integer(m, row)
        assert x is not None and m.apply(x) == row


@pytest.mark.parametrize("value", [
    IntMatrix([[1, 2], [3, 4]]),
    IntMatrix([], ncols=3),
    Sublattice(3, [[2, 4, 0], [0, 6, 3]]),
    Sublattice(2),
], ids=repr)
def test_copies_and_pickles_rebuild_an_equal_immutable_value(value):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value)
        with pytest.raises(AttributeError):
            setattr(twin, type(value).__slots__[0], None)
