import random
from fractions import Fraction

import pytest

from multinv import (
    ElementaryDivisors,
    IntMatrix,
    NotContained,
    Sublattice,
    image_sublattice,
    kernel_lattice,
    quotient_invariants,
    smith_normal_form,
    solve_integer,
    solve_rational,
)
from helpers import mat, random_unimodular, snf_diagonal_by_minors


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
    assert image_sublattice(IntMatrix.identity(3)) == Sublattice.full(3)
    assert image_sublattice(IntMatrix.zero(2, 2)).rank == 0


def test_image_doubling():
    m = IntMatrix.identity(2) - mat([[-1, 0], [0, -1]])
    im = image_sublattice(m)
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
    assert solve_rational(IntMatrix.identity(2), b) == b


def test_solve_rational_scaling():
    m = mat([[2, 0], [0, 2]])
    assert solve_rational(m, (1, 1)) == (Fraction(1, 2), Fraction(1, 2))


def test_solve_rational_inconsistent():
    m = mat([[1, 1], [1, 1]])
    assert solve_rational(m, (0, 1)) is None


def test_solve_rational_sets_free_variables_to_zero():
    # x1 + 2*x2 = 4 with x3 unconstrained: x1 is the pivot, x2 and x3 free
    m = mat([[1], [2], [0]])
    assert solve_rational(m, (4,)) == (4, 0, 0)


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
