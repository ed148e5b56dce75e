"""Shared group factories, frozen reference data, and independent
oracles used across the test suite."""

import random
from collections import namedtuple
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement, count,
                       product)
from math import factorial, gcd, lcm, prod

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
    groups,
    is_reflection_group,
    kernel_lattice,
    smith_normal_form,
    solve_integer,
)
from multinv.lattice import common_denominator
from multinv.laurent import LaurentPolynomial


def mat(rows):
    return IntMatrix(rows)


def one_minus(*gs: IntMatrix) -> IntMatrix:
    """[1 - g1 | 1 - g2 | ...] for square matrices g1, g2, ... of one
    size, entry by entry."""
    n = gs[0].nrows
    return IntMatrix([[int(i == j) - x for g in gs
                       for j, x in enumerate(g.entries[i])]
                      for i in range(n)], ncols=n * len(gs))


def oracle_rref(rows, ncols: int):
    """Gauss-Jordan elimination on Fractions of the first `ncols` columns
    of `rows`, further columns riding along, with the row swaps of
    `lattice._echelon`.  Returns the rows, pivot rows first, and the
    pivot columns: the pivot rows are the reduced row echelon form, and
    each other row is its input row less multiples of them."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        top = rows[r] = [x / p for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                rows[i] = [a - f * b for a, b in zip(row, top)]
        pivots.append(c)
    return rows, pivots


def oracle_inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """The exact inverse of a matrix of determinant +-1, from one
    elimination of [m | 1] on Fractions; ValueError for any other
    matrix."""
    n = m.nrows
    if n != m.ncols:
        raise ValueError("inverse of a non-square matrix")
    rows, pivots = oracle_rref([row + tuple(int(i == j) for j in range(n))
                                for i, row in enumerate(m.entries)], n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    if any(x.denominator != 1 for row in rows for x in row):
        raise ValueError("matrix is not unimodular")
    return IntMatrix([[int(x) for x in row[n:]] for row in rows], ncols=n)


def _oracle_pivots(m: IntMatrix):
    """Gaussian elimination of m on Fractions: the pivot values, in
    order, and the sign of the row permutation."""
    rows = [[Fraction(x) for x in row] for row in m.entries]
    pivots, sign = [], 1
    for c in range(m.ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / top[c]
            rows[i] = [a - f * b for a, b in zip(rows[i], top)]
        pivots.append(top[c])
    return pivots, sign


def oracle_rank(m: IntMatrix) -> int:
    """Rank over Q, by Gaussian elimination on Fractions."""
    return len(_oracle_pivots(m)[0])


def oracle_det(m: IntMatrix) -> int:
    """Determinant of a square matrix: the signed product of the pivots
    of a Gaussian elimination on Fractions."""
    pivots, sign = _oracle_pivots(m)
    if len(pivots) < m.nrows:
        return 0
    det = sign * prod(pivots, start=Fraction(1))
    assert det.denominator == 1
    return int(det)


def oracle_min_displacement_rank(action) -> int:
    """The least rank(1 - g) over the nonidentity elements, every one
    ranked by the Fraction oracle."""
    identity = IntMatrix.identity(action.rank)
    return min(oracle_rank(one_minus(g)) for g in action.elements
               if g != identity)


def oracle_solve_linear(equations, rhs):
    """A rational solution of A * x = rhs, `equations` the rows of A, with
    the free variables zero; None when the system is inconsistent."""
    if not equations:
        return ()
    ncols = len(equations[0])
    rows, pivots = oracle_rref(
        [[*row, b] for row, b in zip(equations, rhs)], ncols)
    if any(row[ncols] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(rows, pivots):
        x[c] = row[ncols]
    return tuple(x)


def oracle_quotient_invariants(sub: Sublattice,
                               amb: Sublattice) -> ElementaryDivisors:
    """The elementary divisors of amb / sub, from the Smith form of sub's
    basis in amb's coordinates; ValueError unless sub is a sublattice of
    amb of the same ambient rank."""
    if sub.ambient_rank != amb.ambient_rank:
        raise ValueError("lattices live in different ambient spaces")
    rows = []
    for vec in sub.basis:
        cs = amb.coefficients(vec)
        if cs is None or any(c.denominator != 1 for c in cs):
            raise ValueError(f"{vec} is not in the ambient lattice")
        rows.append([int(c) for c in cs])
    rel = IntMatrix(rows, ncols=amb.rank)
    _, d, _ = smith_normal_form(rel)
    divs = [d.entries[i][i] for i in range(min(rel.nrows, rel.ncols))]
    if 0 in divs:
        raise ValueError("sublattice basis is not independent")
    divs += [0] * (amb.rank - len(divs))
    return ElementaryDivisors(tuple(divs))


def oracle_kernel_lattice(m: IntMatrix) -> Sublattice:
    """The saturated kernel {x : x * m == 0} from the Smith form
    u * m * v == d: the rows of u whose diagonal entry of d is zero, or
    that lie past the diagonal."""
    u, d, _ = smith_normal_form(m)
    rows = [
        u.entries[i]
        for i in range(m.nrows)
        if i >= m.ncols or d.entries[i][i] == 0
    ]
    return Sublattice(m.nrows, rows)


def oracle_annihilated_by(ed: ElementaryDivisors, n: int) -> bool:
    """Whether n kills the group: no free summand, and every torsion
    divisor divides n."""
    return ed.free_rank == 0 and all(n % d == 0 for d in ed.torsion)


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


def minus_identity(n):
    return IntMatrix([[-int(i == j) for j in range(n)] for i in range(n)])


def minus_identity_action(n=2):
    return close_group([minus_identity(n)])


def a1a1_action():
    return close_group([mat([[-1, 0], [0, 1]]), mat([[1, 0], [0, -1]])])


def b2_action():
    return close_group([R2, mat([[1, 0], [0, -1]])])


def z3_action():
    return close_group([mat([[0, 1], [-1, -1]])])


def companion_action(coefficients):
    """The group generated by the companion matrix of the monic
    polynomial x^n + c_(n-1) x^(n-1) + ... + c_0, given (c_0, ..., c_(n-1))."""
    n = len(coefficients)
    rows = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
    rows.append([-c for c in coefficients])
    return close_group([IntMatrix(rows)])


def cyclotomic_action(p):
    """Companion matrix of 1 + x + ... + x^(p-1); a faithful effective
    action of the cyclic group of order p on a rank p-1 lattice."""
    return companion_action([1] * (p - 1))


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
    uinv = oracle_inverse_unimodular(u)
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
    """Whether the reflections generate the group, decided by listing
    the subgroup they generate and comparing orders, independent of the
    root heights that `is_reflection_group` reads."""
    refls = find_reflections(action)
    if not refls:
        return action.order == 1
    sub = groups._close(action.rank, [r.matrix for r in refls], action.order)
    return len(sub) == action.order


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
    w = oracle_inverse_unimodular(v)
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
    diagonalizable = [r.matrix for r in find_reflections(bar)
                      if r.diagonalizable]
    residual = (kernel_lattice(one_minus(*diagonalizable))
                if diagonalizable else Sublattice.full(bar.rank))
    if residual.rank == 0:
        return ElementaryDivisors(())
    image = _oracle_restrict(bar, residual)
    if image.order == 1:
        return ElementaryDivisors(())
    assert is_reflection_group(image), "residual action is a reflection group"
    rd = build_root_system(image)
    return oracle_quotient_invariants(rd.pi_lattice, Sublattice.full(rd.rank))


def oracle_class_group_divisors(action):
    """The class group's full Smith diagonal, leading 1s included, from
    the matrices 1 - g: L^D is the kernel of the 1 - r side by side over
    the diagonalizable reflections r, and H^1(G, L^D) the nonzero
    diagonal of the Smith form of B (1 - h) side by side over the
    generators h, B the basis rows of L^D.  (Negating a matrix keeps its
    Smith diagonal, so this is also that of B (h - 1) side by side.)"""
    assert is_reflection_group(action)
    n = action.rank
    if action.order == 1:
        return ElementaryDivisors(())
    diagonalizable = [r.matrix for r in find_reflections(action)
                      if r.diagonalizable]
    residual = (kernel_lattice(one_minus(*diagonalizable))
                if diagonalizable else Sublattice.full(n))
    if residual.rank == 0:
        return ElementaryDivisors(())
    basis = IntMatrix(residual.basis, ncols=n)
    _, d, _ = smith_normal_form(basis * one_minus(*action.generators))
    diagonal = (d.entries[i][i] for i in range(residual.rank))
    return ElementaryDivisors(tuple(x for x in diagonal if x))


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
        moved = one_minus(g).entries
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


def oracle_indecomposable_base(roots):
    """The base the pairwise scan picked, for the first functional
    (1, t, t^2, ...) that is zero on no root: the positive roots that are
    no sum of two positive roots, sorted.  A decomposable r is s + t for
    positive s and t, both of smaller value, so r - s is tried only for
    s before r."""
    n = len(next(iter(roots)))
    for t in count(1):
        functional = tuple(t ** k for k in range(n))
        values = {r: sum(f * x for f, x in zip(functional, r))
                  for r in roots}
        if 0 not in values.values():
            break
    positive = sorted((v, r) for r, v in values.items() if v > 0)
    positive_set = {r for _, r in positive}
    return tuple(sorted(
        r for k, (_, r) in enumerate(positive)
        if not any(tuple(a - b for a, b in zip(r, s)) in positive_set
                   for _, s in positive[:k])))


def oracle_is_fixed_point_free(action):
    """True when every nonidentity element fixes only the origin, that is,
    1 - g has full rank."""
    identity = IntMatrix.identity(action.rank)
    return all(one_minus(g).rank() == action.rank
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
    """The images of the point under all |G| elements, in Fractions; the
    elements act on the point scaled by its common denominator."""
    den = common_denominator(point)
    start = tuple(int(Fraction(x) * den) for x in point)
    images = {g.apply(start) for g in action.elements}
    return frozenset(tuple(Fraction(x, den) for x in e) for e in images)


def oracle_weight_orbit(rd, weight):
    """The Weyl orbit of an integral weight in weight coordinates, searched
    breadth-first from `weight` over every simple reflection
    s_i(mu) = mu - mu_i * (row i of the Cartan matrix)."""
    start = tuple(weight)
    seen, found = {start}, [start]
    for mu in found:
        for i, row in enumerate(rd.cartan.entries):
            nu = tuple(m - mu[i] * a for m, a in zip(mu, row))
            if nu not in seen:
                seen.add(nu)
                found.append(nu)
    return tuple(found)


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


def oracle_scan_hilbert_basis(points):
    """The minimal nonzero points, kept in one sorted pass that compares
    each point with every point kept so far, ordered as `hilbert_basis`
    orders them."""
    basis = []
    for m in sorted(points):
        if any(m) and not any(all(a <= b for a, b in zip(n, m))
                              for n in basis):
            basis.append(m)
    axis = sorted((m for m in basis if sum(1 for x in m if x) == 1),
                  key=lambda m: next(i for i, x in enumerate(m) if x))
    return tuple(axis + [m for m in basis if sum(1 for x in m if x) != 1])


def oracle_check_generation(points, basis):
    """The first nonzero point, in order of (coordinate sum, point), that
    is no basis element plus a point reached before it, trying every
    basis element; None when every point is reached."""
    reachable = set()
    for p in sorted(points, key=lambda q: (sum(q), q)):
        if any(p) and not any(
            all(h <= x for h, x in zip(b, p))
            and tuple(x - h for h, x in zip(b, p)) in reachable
            for b in basis
        ):
            return p
        reachable.add(p)
    return None


# a stand-in root datum: the weight monoid reads nothing of it but its rank
RankOnly = namedtuple("RankOnly", "rank")


def random_box_lattice(rng, rank, max_multiplier=3, extra=2):
    """A RankOnly datum and a full-rank sublattice of Z^rank spanned by
    multiples z_i e_i (1 <= z_i <= max_multiplier) and a few random
    vectors of the box prod([0, z_i))."""
    z = [rng.randint(1, max_multiplier) for _ in range(rank)]
    vectors = [tuple(x if j == i else 0 for j in range(rank))
               for i, x in enumerate(z)]
    vectors += [tuple(rng.randrange(x) for x in z) for _ in range(extra)]
    return RankOnly(rank), Sublattice(rank, vectors)


# An independent rational Laurent oracle: a polynomial is a
# {exponent tuple: int coefficient} dict, the exponents Fractions (or
# ints, which hash and compare as equal Fractions do), zero terms dropped.

def oracle_orbit_sum(action, point):
    """The sum of the images of a rational point under all |G| elements,
    each with coefficient one."""
    return dict.fromkeys(oracle_orbit(action, point), 1)


def oracle_times(p, q):
    """p * q, each pair of terms multiplied out."""
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def oracle_power(p, k):
    """p ** k for a nonzero p, by repeated products."""
    out = {(0,) * len(next(iter(p))): 1}
    for _ in range(k):
        out = oracle_times(out, p)
    return out


def oracle_shift(p, point):
    """p times the monomial of a rational point."""
    return {tuple(x + y for x, y in zip(e, point)): c for e, c in p.items()}


def oracle_orbit_sum_decomposition(action, p):
    """{lexicographically largest point of each orbit: its coefficient}
    for an invariant p, each orbit listed over all |G| elements;
    ValueError when a coefficient is not constant on some orbit."""
    remaining = dict(p)
    out = {}
    while remaining:
        e = max(remaining)
        c = remaining[e]
        for point in oracle_orbit(action, e):
            if remaining.pop(point, None) != c:
                raise ValueError(f"coefficients vary on the orbit of {e}")
        out[tuple(map(Fraction, e))] = c
    return out


def poly(rank, terms):
    """The LaurentPolynomial of an oracle dict with integral exponents."""
    exponents = {}
    for e, c in terms.items():
        e = tuple(Fraction(x) for x in e)
        assert all(x.denominator == 1 for x in e), f"{e} is not integral"
        exponents[tuple(map(int, e))] = c
    return LaurentPolynomial(rank, exponents)


def has_lattice_support(p):
    """Every exponent of p is a tuple of p.rank ints."""
    return all(type(e) is tuple and len(e) == p.rank
               and all(type(x) is int for x in e) for e in p.terms)


def oracle_fundamental_invariants(action, rd, wm):
    """The fundamental invariants built in the ambient lattice: products
    of powers of the whole-group orbit sums of the fundamental weights,
    times the fixed-lattice monomial of a lattice preimage when the bare
    product leaves the lattice."""
    n = action.rank
    # the products are taken in exponents scaled by the weights' common
    # denominator, which are ints and add fast
    den = lcm(*(common_denominator(w) for w in rd.fundamental_weights))
    sums = [{tuple(int(x * den) for x in e): c
             for e, c in oracle_orbit_sum(action, w).items()}
            for w in rd.fundamental_weights]
    out = []
    for row in wm.hilbert_basis:
        p = {(0,) * n: 1}
        for s, power in zip(sums, row):
            p = oracle_times(p, oracle_power(s, power))
        target = [sum((c * w[k] for c, w in zip(row, rd.fundamental_weights)),
                      Fraction(0))
                  for k in range(n)]
        prefix = (Fraction(0),) * n
        if any(x.denominator != 1 for x in target):
            preimage = solve_integer(rd.coroots, row)
            prefix = tuple(Fraction(a) - t for a, t in zip(preimage, target))
            p = oracle_shift(p, [int(x * den) for x in prefix])
        p = {tuple(Fraction(x, den) for x in e): c for e, c in p.items()}
        out.append(FundamentalInvariant(tuple(row), prefix, poly(n, p)))
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
        uinv = oracle_inverse_unimodular(u)
        conj = [u * g * uinv for g in gens]
        try:
            return close_group(conj, cap=max_order)
        except GroupTooLarge:  # pragma: no cover - seeds are all finite
            continue
