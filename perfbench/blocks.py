"""Integer matrix groups whose answers are known by construction.

Each block is a finite subgroup of GL_k(Z) given by generators, together
with the facts the tool must report for it: group order, number of
reflections, rank of the fixed sublattice, and the semigroup-algebra
verdict with the rule that decides it.  Nothing here imports the program
under test; matrices are plain tuples of integer rows acting on the right
on row vectors, as in the tool's JSON input.

The facts rest on the classical theory (Bourbaki, Lie groups ch. VI;
Lorenz, Multiplicative Invariant Theory, 2005): Weyl group orders and
positive-root counts, the fixed-point-free and odd-prime-order
obstructions, and the singular locus of diagonal sign groups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial

SEMIGROUP = "SemigroupAlgebra"
NOT_SEMIGROUP = "NotSemigroupAlgebra"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Block:
    kind: str
    rank: int
    generators: tuple
    order: int
    reflections: int
    fixed_rank: int
    status: str
    rule: str


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def permutation(perm):
    """Row i is e_perm[i]."""
    n = len(perm)
    return tuple(tuple(int(j == perm[i]) for j in range(n)) for i in range(n))


def diagonal(entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n))
                 for i in range(n))


def transpositions(k):
    out = []
    for i in range(k - 1):
        perm = list(range(k))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        out.append(permutation(perm))
    return out


def a_cartan_reflections(k):
    """Simple reflections of W(A_k) on the A_k root lattice, in the basis of
    simple roots: s_i(alpha_j) = alpha_j - C[j][i] alpha_i."""
    def cartan(i, j):
        return 2 if i == j else (-1 if abs(i - j) == 1 else 0)

    return [
        tuple(
            tuple(int(j == c) - (cartan(j, i) if c == i else 0)
                  for c in range(k))
            for j in range(k)
        )
        for i in range(k)
    ]


def reflection_block(kind, k):
    if kind == "S":  # S_k permuting coordinates of Z^k
        return Block("S", k, tuple(transpositions(k)), factorial(k),
                     k * (k - 1) // 2, 1, SEMIGROUP, "reflection-invariants")
    if kind == "B":  # signed permutations of Z^k
        gens = transpositions(k) + [diagonal([-1] + [1] * (k - 1))]
        return Block("B", k, tuple(gens), 2**k * factorial(k), k * k, 0,
                     SEMIGROUP, "reflection-invariants")
    if kind == "D":  # even signed permutations of Z^k
        swap_neg = [list(r) for r in identity(k)]
        swap_neg[0][0], swap_neg[0][1] = 0, -1
        swap_neg[1][0], swap_neg[1][1] = -1, 0
        gens = transpositions(k) + [tuple(map(tuple, swap_neg))]
        return Block("D", k, tuple(gens), 2 ** (k - 1) * factorial(k),
                     k * (k - 1), 0, SEMIGROUP, "reflection-invariants")
    if kind == "A":  # W(A_k) on its root lattice
        return Block("A", k, tuple(a_cartan_reflections(k)), factorial(k + 1),
                     k * (k + 1) // 2, 0, SEMIGROUP, "reflection-invariants")
    if kind == "G2":  # W(A_2) x {+-1} = W(G_2) on the A_2 root lattice
        gens = a_cartan_reflections(2) + [diagonal([-1, -1])]
        return Block("G2", 2, tuple(gens), 12, 6, 0, SEMIGROUP,
                     "reflection-invariants")
    raise ValueError(kind)


def cyclotomic_block(p):
    """Companion matrix of 1 + x + ... + x^(p-1): Z/p acting without fixed
    points on a lattice of rank p - 1."""
    n = p - 1
    rows = [tuple(int(j == i + 1) for j in range(n)) for i in range(n - 1)]
    rows.append((-1,) * n)
    return Block(f"C{p}", n, (tuple(rows),), p, 0, 0, NOT_SEMIGROUP,
                 "odd-prime-order")


def fixed_point_free_block(kind, k=2):
    if kind == "-I":
        gen, order = diagonal([-1] * k), 2
    elif kind == "rot4":
        gen, order = ((0, 1), (-1, 0)), 4
    elif kind == "rot6":
        gen, order = ((0, 1), (-1, 1)), 6
    else:
        raise ValueError(kind)
    return Block(kind, len(gen), (gen,), order, 0, 0, NOT_SEMIGROUP,
                 "fixed-point-free")


def sign_block(n):
    """Diagonal sign matrices of determinant 1 on Z^n (n >= 3): every
    pair of coordinates freezes a component of the singular locus, and
    all 2^n sign points lie on several of them."""
    gens = tuple(diagonal([-1 if r in (0, i) else 1 for r in range(n)])
                 for i in range(1, n))
    return Block("sign", n, gens, 2 ** (n - 1), 0, 0, NOT_SEMIGROUP,
                 "sign-group-singularities")


def unknown_block(kind):
    if kind == "A4xpm1":  # W(A_4) x {+-1}: -1 is not in W(A_4)
        gens = tuple(a_cartan_reflections(4)) + (diagonal([-1] * 4),)
        return Block(kind, 4, gens, 240, 10, 0, UNKNOWN, "unclassified")
    if kind == "rot90xm1":  # diag(rot90, -1): no reflections, not free
        gen = ((0, 1, 0), (-1, 0, 0), (0, 0, -1))
        return Block(kind, 3, (gen,), 4, 0, 0, UNKNOWN, "unclassified")
    raise ValueError(kind)


def direct_sum(blocks, trivial=0):
    """Generators of the product of the blocks acting on the direct sum of
    their lattices, plus `trivial` coordinates fixed by everything."""
    n = sum(b.rank for b in blocks) + trivial
    gens = []
    offset = 0
    for b in blocks:
        for g in b.generators:
            rows = [list(r) for r in identity(n)]
            for i in range(b.rank):
                rows[offset + i][offset:offset + b.rank] = g[i]
            gens.append(tuple(map(tuple, rows)))
        offset += b.rank
    return n, gens


def random_unimodular(rng: random.Random, n):
    """A random U in GL_n(Z) and its inverse, built from elementary row
    operations with small multipliers."""
    u = [list(r) for r in identity(n)]
    v = [list(r) for r in identity(n)]  # v = u^-1 throughout
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if n > 1 and rng.random() < 0.8:
            c = rng.choice((-2, -1, 1, 2))
            # u <- (1 + c E_ij) u ; v <- v (1 - c E_ij)
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
            for row in v:
                row[j] -= c * row[i]
        else:
            u[i] = [-a for a in u[i]]
            for row in v:
                row[i] = -row[i]
    return tuple(map(tuple, u)), tuple(map(tuple, v))


def conjugate(gens, u, u_inv):
    return [matmul(matmul(u_inv, g), u) for g in gens]
