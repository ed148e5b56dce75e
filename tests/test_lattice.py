import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from multinv import (
    ElementaryDivisors,
    IntMatrix,
    NotContained,
    Sublattice,
    kernel_lattice,
    quotient_invariants,
    smith_normal_form,
    solve_integer,
)
from multinv.lattice import common_denominator, solve_linear
from helpers import mat, random_unimodular, snf_diagonal_by_minors

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
    assert (u * v).is_identity()


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
    assert kernel_lattice(IntMatrix.zero(2, 2)) == Sublattice.full(2)


def test_kernel_of_swap_difference():
    m = IntMatrix.identity(2) - mat([[0, 1], [1, 0]])
    assert kernel_lattice(m).basis == ((1, 1),)


def test_kernel_matches_selected_root():
    # 1 + s for the rank-2 shear reflection: the negated line is (0, 1)
    m = IntMatrix.identity(2) + mat([[1, -1], [0, -1]])
    assert kernel_lattice(m).basis == ((0, 1),)


def test_image_identity_and_zero():
    assert Sublattice(3, IntMatrix.identity(3).entries) == Sublattice.full(3)
    assert Sublattice(2, IntMatrix.zero(2, 2).entries).rank == 0


def test_image_doubling():
    m = IntMatrix.identity(2) - mat([[-1, 0], [0, -1]])
    im = Sublattice(2, m.entries)
    assert im.basis == ((2, 0), (0, 2))
    assert quotient_invariants(im, Sublattice.full(2)).order() == 4


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
    q = quotient_invariants(lat, lat)
    assert q.is_trivial
    assert q.divisors == (1, 1)


def test_quotient_with_free_part():
    q = quotient_invariants(Sublattice(2, [[2, 0]]), Sublattice.full(2))
    assert q.divisors == (2, 0)
    assert q.free_rank == 1
    assert q.order() is None
    assert str(q) == "Z x Z/2"


def test_quotient_not_contained():
    with pytest.raises(NotContained):
        quotient_invariants(
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
        q = quotient_invariants(Sublattice(n, rows), Sublattice.full(n))
        assert q.order() == abs(m.det())


def test_elementary_divisors_validation():
    with pytest.raises(ValueError):
        ElementaryDivisors((2, 3))
    with pytest.raises(ValueError):
        ElementaryDivisors((0, 2))
    ed = ElementaryDivisors((1, 2, 4, 0))
    assert ed.torsion == (2, 4)
    assert ed.free_rank == 1
    assert ed.annihilated_by(8) is False  # free summand survives
    assert ElementaryDivisors((1, 3)).annihilated_by(6)


def test_solve_rational_identity():
    b = (Fraction(3), Fraction(-1, 2))
    assert solve_linear(IntMatrix.identity(2).entries, b) == b


def test_solve_rational_scaling():
    assert solve_linear([[2, 0], [0, 2]], (1, 1)) == (Fraction(1, 2),
                                                     Fraction(1, 2))


def test_solve_rational_inconsistent():
    assert solve_linear([[1, 1], [1, 1]], (0, 1)) is None


def test_solve_rational_sets_free_variables_to_zero():
    # x1 + 2*x2 = 4 with x3 unconstrained: x1 is the pivot, x2 and x3 free
    assert solve_linear([[1, 2, 0]], (4,)) == (4, 0, 0)


def test_inverse_unimodular_rejects_singular_and_non_unimodular():
    for m in (mat([[1, 2], [2, 4]]), mat([[2, 0], [0, 1]])):
        with pytest.raises(ValueError):
            m.inverse_unimodular()


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
    assert u.inverse_unimodular() == mat([[1, -1], [0, 1]])
    assert (u * u.inverse_unimodular()).is_identity()
    with pytest.raises(TypeError):
        IntMatrix([[1.5]])


@PROPERTY
@given(square_pairs())
def test_det_is_multiplicative(pair):
    a, b = pair
    assert (a * b).det() == a.det() * b.det()


@PROPERTY
@given(square_pairs(max_size=4))
def test_det_matches_leibniz_expansion(pair):
    for m in pair:
        assert m.det() == leibniz_det(m)


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
        x = solve_linear(eqs, rhs)
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
    assert (a * a.inverse_unimodular()).is_identity()
    assert (a.inverse_unimodular() * a).is_identity()


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


# (u, d, v) of the Smith form, pinned: effective_quotient reads v and
# solve_integer reads u and v, so the transforms must not drift
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
