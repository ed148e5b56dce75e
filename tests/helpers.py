"""Shared group factories, frozen reference data, and independent
oracles used across the test suite."""

import random
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import factorial, gcd, prod

from hypothesis import strategies as st

from multinv import (
    ElementaryDivisors,
    FundamentalInvariant,
    GroupAction,
    GroupTooLarge,
    IntMatrix,
    Reflection,
    Sublattice,
    build_root_system,
    close_group,
    find_reflections,
    fixed_sublattice,
    is_reflection_group,
    kernel_lattice,
    orbit_sum,
    quotient_invariants,
    smith_normal_form,
    solve_integer,
)
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


def cartan_matrix(kind, n):
    """The Cartan matrix of A_n, B_n, D_n (n >= 4), E_n (n = 6, 7, 8) or
    G2 (n = 2), entry (i, j) = <alpha_i, alpha_j^v>, nodes numbered as in
    Bourbaki."""
    if kind == "G":
        return [[2, -1], [-3, 2]]
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    if kind == "D":
        edges[-1] = (n - 3, n - 1)
    elif kind == "E":
        edges = [(0, 2), (2, 3), (3, 4), (1, 3)] + edges[4:]
    for i, j in edges:
        cartan[i][j] = cartan[j][i] = -1
    if kind == "B":  # alpha_n short
        cartan[n - 2][n - 1] = -2
    return cartan


def root_lattice_generators(kind, n):
    """The simple reflections of the Weyl group of the given type on its
    root lattice, in the basis of simple roots: s_i maps alpha_r to
    alpha_r - <alpha_r, alpha_i^v> alpha_i."""
    cartan = cartan_matrix(kind, n)
    return [IntMatrix([[int(r == k) - (cartan[r][i] if k == i else 0)
                        for k in range(n)] for r in range(n)])
            for i in range(n)]


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
        return root_lattice_generators(kind, n)
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
def conjugated_block_sums(draw, max_trivial=0):
    """Generators of a block sum, plus up to `max_trivial` coordinates
    the group fixes, in a random basis, shuffled, with a few generators
    repeated."""
    blocks = draw(st.sampled_from(BLOCK_SUMS))
    gens = block_diagonal([weyl_generators(*block) for block in blocks])
    trivial = draw(st.integers(0, max_trivial)) if max_trivial else 0
    if trivial:  # drop the trivial block's generator, the identity
        gens = block_diagonal([gens, [IntMatrix.identity(trivial)]])[:-1]
    n = gens[0].nrows
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.sampled_from((-2, -1, 1, 2)))
    for i, j, c in draw(st.lists(pairs, max_size=8)):
        if i != j:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    gens = draw(st.permutations(conjugate(gens, IntMatrix(u))))
    return gens + draw(st.lists(st.sampled_from(gens), max_size=2))


@st.composite
def orbit_sublattice_actions(draw):
    """A block sum in a random basis restricted to the G-stable sublattice
    spanned by the orbits of random vectors, written in its Hermite basis:
    generators of an action that need not split as a sum of blocks."""
    gens = draw(conjugated_block_sums())
    n = gens[0].nrows
    elements = close_group(gens).elements
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    vectors = []
    while Sublattice(n, vectors).rank < n:
        v = tuple(rng.randint(-2, 2) for _ in range(n))
        vectors.extend(g.apply(v) for g in elements)
    sub = Sublattice(n, vectors)
    return [IntMatrix([[int(c) for c in sub.coefficients(g.apply(b))]
                       for b in sub.basis])
            for g in gens]


GOLDEN_REFLECTION_ACTIONS = {
    "rank2-s3": (s3_action, BASE_RANK2),
    "rank3-s4": (s4_action, BASE_RANK3),
    "rank1-neg": (neg_rank1_action, None),
    "a1a1": (a1a1_action, None),
    "b2": (b2_action, None),
    "swap": (swap_action, None),
}


def oracle_is_reflection_group(action):
    """Whether the reflections generate the group, decided by closing all
    of them and comparing orders: the enumeration the descent replaced."""
    refls = find_reflections(action)
    if not refls:
        return action.order == 1
    sub = close_group([r.matrix for r in refls], cap=action.order)
    return sub.order == action.order


# The class-group construction the single Smith form replaced, kept as
# its oracle: split off the fixed sublattice, close the induced action on
# the effective quotient, restrict it to the part fixed by the
# diagonalizable reflections there, close that image, and read the class
# group off the weight lattice of its root system.
OracleQuotient = namedtuple(
    "OracleQuotient", "fixed quotient_rank projection section induced")


def oracle_effective_quotient(action):
    """The lattice split as fixed part plus a complement, with the action
    induced on the quotient: `projection` maps ambient rows to quotient
    coordinates, `section` maps them back along the complement."""
    n = action.rank
    fixed = fixed_sublattice(action)
    f = fixed.rank
    if f == 0:
        eye = IntMatrix.identity(n)
        return OracleQuotient(fixed, n, eye, eye, action)
    if f == n:
        return OracleQuotient(fixed, 0, IntMatrix([()] * n, ncols=0),
                              IntMatrix([], ncols=n), close_group([], rank=0))
    u, d, v = smith_normal_form(IntMatrix(fixed.basis, ncols=n))
    assert all(d.entries[i][i] == 1 for i in range(f)), "fixed is saturated"
    w = v.inverse_unimodular()
    # first f rows of w span the fixed sublattice; the rest are a complement
    q = n - f
    section = IntMatrix(w.entries[f:], ncols=n)
    projection = IntMatrix([row[f:] for row in v.entries], ncols=q)
    induced = close_group([section * g * projection
                           for g in action.generators],
                          cap=action.order, rank=q)
    assert fixed_sublattice(induced).rank == 0, "quotient action is effective"
    return OracleQuotient(fixed, q, projection, section, induced)


def oracle_induced_matrix(eq, g):
    """The matrix of g on the quotient coordinates."""
    return eq.section * g * eq.projection


def _oracle_restrict(action, sub):
    """The image of the action on a saturated invariant sublattice, in the
    coordinates of its basis."""
    images = []
    for g in action.generators:
        rows = []
        for vec in sub.basis:
            coeffs = sub.coefficients(g.apply(vec))
            assert coeffs is not None and all(c.denominator == 1
                                              for c in coeffs)
            rows.append([int(c) for c in coeffs])
        images.append(IntMatrix(rows, ncols=sub.rank))
    return close_group(images, cap=action.order, rank=sub.rank)


def oracle_class_group(action):
    """The class group as the weight-lattice quotient of the root system
    of the action on the part of the effective quotient fixed by its
    diagonalizable reflections."""
    assert is_reflection_group(action)
    bar = oracle_effective_quotient(action).induced
    if bar.order == 1:
        return ElementaryDivisors(())
    identity = IntMatrix.identity(bar.rank)
    diagonalizable = [r.matrix - identity for r in find_reflections(bar)
                      if r.diagonalizable]
    residual = (kernel_lattice(IntMatrix.hstack(diagonalizable))
                if diagonalizable else Sublattice.full(bar.rank))
    if residual.rank == 0:
        return ElementaryDivisors(())
    image = _oracle_restrict(bar, residual)
    if image.order == 1:
        return ElementaryDivisors(())
    assert is_reflection_group(image), "residual action is a reflection group"
    rd = build_root_system(image)
    return quotient_invariants(rd.pi_lattice, Sublattice.full(rd.rank))


def oracle_find_reflections(action):
    """The reflections as the element scan found them: the elements with
    trace n - 2 and g^2 = 1, in element order, each with its root (the
    first nonzero row of 1 - g made primitive, first nonzero coordinate
    positive) and its coroot (1 - g = coroot (x) root)."""
    n = action.rank
    identity = IntMatrix.identity(n)
    out = []
    for g in action.elements:
        if sum(g.entries[i][i] for i in range(n)) != n - 2 or \
                g * g != identity:
            continue
        moved = (identity - g).entries
        row = next(r for r in moved if any(r))
        k = next(j for j, x in enumerate(row) if x)
        scale = gcd(*row) if row[k] > 0 else -gcd(*row)
        root = tuple(x // scale for x in row)
        coroot = tuple(r[k] // root[k] for r in moved)
        assert all(r == tuple(c * x for x in root)
                   for r, c in zip(moved, coroot))
        out.append(Reflection(g, root, coroot,
                              all(c % 2 == 0 for c in coroot)))
    return tuple(out)


def oracle_is_fixed_point_free(action):
    """True when every nonidentity element fixes only the origin, that is,
    1 - g has full rank."""
    identity = IntMatrix.identity(action.rank)
    return all((identity - g).rank() == action.rank
               for g in action.elements if g != identity)


def oracle_coroot_pairing(v, refl, root=None):
    """The scalar c with v - v*g == c * root, for `root` the reflection's
    normalized root (the default) or its negative; ValueError for any
    other root."""
    c = Fraction(sum(a * b for a, b in zip(v, refl.coroot)))
    if root is None or tuple(root) == refl.root:
        return c
    if tuple(root) == tuple(-x for x in refl.root):
        return -c
    raise ValueError("difference is not a multiple of the root")


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


def oracle_orbit(action, point):
    """The images of the point under all |G| elements, in Fractions."""
    start = tuple(Fraction(x) for x in point)
    return frozenset(g.apply(start) for g in action.elements)


def oracle_enumerate_box(pi_lattice, multipliers):
    """Every point of the box prod([0, z_i]), kept when the lattice
    contains it, in lexicographic order."""
    return tuple(c for c in product(*(range(z + 1) for z in multipliers))
                 if pi_lattice.contains(c))


def oracle_hilbert_basis(points):
    """The nonzero box points that are no sum of two nonzero box points,
    found by trying every pair, ordered single-axis points first (by
    axis), then the rest lexicographically."""
    point_set = set(points)
    nonzero = [p for p in points if any(p)]
    basis = [
        m for m in nonzero
        if not any(n != m and all(a <= b for a, b in zip(n, m))
                   and tuple(b - a for a, b in zip(n, m)) in point_set
                   for n in nonzero)
    ]
    axis = sorted((m for m in basis if sum(1 for x in m if x) == 1),
                  key=lambda m: next(i for i, x in enumerate(m) if x))
    return tuple(axis + sorted(m for m in basis
                               if sum(1 for x in m if x) != 1))


def poly(rank, int_terms, prefix=None):
    """Laurent polynomial from integer exponent terms, optionally shifted
    by a rational monomial prefix."""
    p = LaurentPolynomial(rank, 1, {tuple(e): Fraction(c)
                                    for e, c in int_terms.items()})
    if prefix is not None:
        p = LaurentPolynomial.monomial(prefix) * p
    return p


def oracle_fundamental_invariants(action, rd, wm):
    """The fundamental invariants built in the ambient lattice: products
    of powers of the whole-group orbit sums of the fundamental weights,
    times the fixed-lattice monomial of a lattice preimage when the bare
    product leaves the lattice."""
    n = action.rank
    sums = [orbit_sum(action, w) for w in rd.fundamental_weights]
    out = []
    for row in wm.hilbert_basis:
        p = LaurentPolynomial.constant(n, 1)
        for s, power in zip(sums, row):
            p = p * s ** power
        target = [sum((c * w[k] for c, w in zip(row, rd.fundamental_weights)),
                      Fraction(0))
                  for k in range(n)]
        prefix = (Fraction(0),) * n
        if any(x.denominator != 1 for x in target):
            preimage = solve_integer(rd.coroots, row)
            prefix = tuple(Fraction(a) - t for a, t in zip(preimage, target))
            p = LaurentPolynomial.monomial(prefix) * p
        out.append(FundamentalInvariant(tuple(row), prefix, p))
    return out


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
