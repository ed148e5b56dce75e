"""Shared group factories, frozen reference data, and independent
oracles used across the test suite."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial, gcd, prod

from hypothesis import strategies as st

from multinv import GroupAction, GroupTooLarge, IntMatrix, close_group
from multinv.laurent import LaurentPolynomial


def mat(rows):
    return IntMatrix(rows)


# rank-2 golden group: S3 acting on Z^2 through the matrices r, s
R2 = mat([[0, 1], [1, 0]])
S2 = mat([[1, -1], [0, -1]])
T2 = mat([[-1, 0], [-1, 1]])
BASE_RANK2 = ((-1, 0), (0, 1))

# rank-3 golden group: S4 acting on Z^3 through r, s, t
R3 = mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
S3MAT = mat([[1, 0, -1], [0, 1, -1], [0, 0, -1]])
T3 = mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
BASE_RANK3 = ((-1, 0, 1), (1, -1, 0), (0, 0, -1))


def s3_action():
    return close_group([R2, S2])


def s4_action():
    return close_group([R3, S3MAT, T3])


def neg_rank1_action():
    return close_group([mat([[-1]])])


def swap_action():
    return close_group([R2])


def minus_identity_action(n=2):
    return close_group([IntMatrix([[-(i == j) for j in range(n)]
                                   for i in range(n)])])


def a1a1_action():
    return close_group([mat([[-1, 0], [0, 1]]), mat([[1, 0], [0, -1]])])


def b2_action():
    return close_group([R2, mat([[1, 0], [0, -1]])])


def z3_action():
    return close_group([mat([[0, 1], [-1, -1]])])


def cyclotomic_action(p):
    """Companion matrix of 1 + x + ... + x^(p-1); a faithful effective
    action of the cyclic group of order p on a rank p-1 lattice."""
    n = p - 1
    rows = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
    rows.append([-1] * n)
    return close_group([IntMatrix(rows)])


def sign_sl_action(n):
    """Diagonal +-1 matrices of determinant 1: flip pairs of coordinates."""
    gens = []
    for i in range(1, n):
        rows = [
            [(-1 if r == c and r in (0, i) else int(r == c))
             for c in range(n)]
            for r in range(n)
        ]
        gens.append(IntMatrix(rows))
    return close_group(gens)


def diag_action(*signs):
    n = len(signs[0])
    gens = [
        IntMatrix([[s[i] if i == j else 0 for j in range(n)]
                   for i in range(n)])
        for s in signs
    ]
    return close_group(gens)


def _identity_rows(n):
    return [[int(r == c) for c in range(n)] for r in range(n)]


def weyl_generators(kind, n):
    """Generators of a finite reflection group of rank n:
    "S": S_n permuting the coordinates of Z^n (n >= 2), of order n!;
    "B": signed permutations of Z^n, of order 2^n * n!;
    "D": even signed permutations of Z^n (n >= 2), of order 2^(n-1) * n!;
    "A": the Weyl group of A_n on its root lattice, of order (n+1)!;
    "G": the Weyl group of G2 on its root lattice (n = 2), of order 12.
    A and G are generated by the simple reflections, written in the basis
    of simple roots."""
    if kind in "AG":
        cartan = [[2 if i == j else -int(abs(i - j) == 1) for j in range(n)]
                  for i in range(n)]
        if kind == "G":
            cartan = [[2, -1], [-3, 2]]
        return [IntMatrix([[int(r == k) - (cartan[r][i] if k == i else 0)
                            for k in range(n)] for r in range(n)])
                for i in range(n)]
    gens = []
    for i in range(n - 1):  # adjacent transpositions
        rows = _identity_rows(n)
        rows[i][i] = rows[i + 1][i + 1] = 0
        rows[i][i + 1] = rows[i + 1][i] = 1
        gens.append(rows)
    if kind == "B":  # change the sign of the first coordinate
        rows = _identity_rows(n)
        rows[0][0] = -1
        gens.append(rows)
    elif kind == "D":  # swap the first two coordinates, changing both signs
        rows = _identity_rows(n)
        rows[0][0] = rows[1][1] = 0
        rows[0][1] = rows[1][0] = -1
        gens.append(rows)
    return [IntMatrix(rows) for rows in gens]


def block_diagonal(blocks):
    """Block-diagonal matrices: one generator per generator of each block,
    acting as the identity on the other blocks."""
    n = sum(block[0].nrows for block in blocks)
    gens = []
    offset = 0
    for block in blocks:
        k = block[0].nrows
        for g in block:
            rows = _identity_rows(n)
            for r in range(k):
                rows[offset + r][offset:offset + k] = g.entries[r]
            gens.append(IntMatrix(rows))
        offset += k
    return gens


def conjugate(gens, u):
    """The generators written in the basis given by the rows of u."""
    uinv = u.inverse_unimodular()
    return [u * g * uinv for g in gens]


WEYL_ORDER = {
    "S": factorial,
    "B": lambda n: 2 ** n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "A": lambda n: factorial(n + 1),
    "G": lambda n: 12,
}
BLOCKS = ([("S", n) for n in range(2, 7)] + [("B", n) for n in range(1, 5)]
          + [("D", n) for n in range(2, 5)] + [("A", n) for n in range(1, 5)]
          + [("G", 2)])
# direct sums of up to three blocks, rank at most 6, small enough for the
# oracles' matrix products and group averages
BLOCK_SUMS = [
    blocks
    for k in (1, 2, 3)
    for blocks in combinations_with_replacement(BLOCKS, k)
    if sum(n for _, n in blocks) <= 6
    and prod(WEYL_ORDER[kind](n) for kind, n in blocks) <= 800
]


@st.composite
def conjugated_block_sums(draw):
    """Generators of a block sum in a random basis, shuffled, with a few
    generators repeated."""
    blocks = draw(st.sampled_from(BLOCK_SUMS))
    gens = block_diagonal([weyl_generators(*block) for block in blocks])
    n = gens[0].nrows
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.sampled_from((-2, -1, 1, 2)))
    for i, j, c in draw(st.lists(pairs, max_size=8)):
        if i != j:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    gens = draw(st.permutations(conjugate(gens, IntMatrix(u))))
    return gens + draw(st.lists(st.sampled_from(gens), max_size=2))


GOLDEN_REFLECTION_ACTIONS = {
    "rank2-s3": (s3_action, BASE_RANK2),
    "rank3-s4": (s4_action, BASE_RANK3),
    "rank1-neg": (neg_rank1_action, None),
    "a1a1": (a1a1_action, None),
    "b2": (b2_action, None),
    "swap": (swap_action, None),
}


def snf_diagonal_by_minors(m: IntMatrix):
    """Independent Smith-form oracle: d_k = gcd of k-minors divided by the
    gcd of (k-1)-minors."""
    size = min(m.nrows, m.ncols)
    prev = 1
    out = []
    for k in range(1, size + 1):
        g = 0
        for rows in combinations(range(m.nrows), k):
            for cols in combinations(range(m.ncols), k):
                sub = IntMatrix(
                    [[m.entries[i][j] for j in cols] for i in rows]
                )
                g = gcd(g, abs(sub.det()))
        if g == 0:
            out.extend([0] * (size - len(out)))
            return out
        out.append(g // prev)
        prev = g
    return out


def poly(rank, int_terms, prefix=None):
    """Laurent polynomial from integer exponent terms, optionally shifted
    by a rational monomial prefix."""
    p = LaurentPolynomial(rank, 1, {tuple(e): Fraction(c)
                                    for e, c in int_terms.items()})
    if prefix is not None:
        p = LaurentPolynomial.monomial(prefix) * p
    return p


# factored building blocks of the rank-3 fundamental invariants
E1_RANK3 = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1}
E1INV_RANK3 = {(-1, 0, 0): 1, (0, -1, 0): 1, (0, 0, -1): 1, (0, 0, 0): 1}
S2_RANK3 = {
    (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
    (1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1,
}
S2INV_RANK3 = {tuple(-x for x in e): c for e, c in S2_RANK3.items()}

RANK2_SEEDS = [
    [R2],
    [mat([[0, -1], [1, 0]])],
    [mat([[0, 1], [-1, -1]])],
    [mat([[0, 1], [-1, 1]])],
    [mat([[-1, 0], [0, -1]])],
    [mat([[1, 0], [0, -1]])],
    [R2, mat([[1, 0], [0, -1]])],
    [mat([[0, 1], [-1, -1]]), R2],
]

RANK3_SEEDS = [
    [mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]])],
    [R3],
    [mat([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])],
    [mat([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])],
    [S3MAT],
    [mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), R3],
    [mat([[0, 1, 0], [-1, -1, 0], [0, 0, -1]])],
    [mat([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
     mat([[1, 0, 0], [0, -1, 0], [0, 0, -1]])],
]


def random_unimodular(rng, n, steps=6):
    if n == 1:
        return IntMatrix([[rng.choice([-1, 1])]])
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1])
        for k in range(n):
            m[i][k] += c * m[j][k]
    return IntMatrix(m)


def random_finite_action(rng, n, max_order=8) -> GroupAction:
    """A random conjugate of one of the seed groups; order stays <= 8."""
    seeds = RANK2_SEEDS if n == 2 else RANK3_SEEDS
    while True:
        gens = rng.choice(seeds)
        u = random_unimodular(rng, n)
        uinv = u.inverse_unimodular()
        conj = [u * g * uinv for g in gens]
        try:
            return close_group(conj, cap=max_order)
        except GroupTooLarge:  # pragma: no cover - seeds are all finite
            continue
