"""Mutation runs: break the package on purpose, one patch at a time, and
check that the tests chosen for each patch notice.

Each entry of MUTANTS is (file, exact old text, new text, test
selection, reason).  For every entry the script copies `src/`, `tests/`
and `pyproject.toml` to a temporary directory, replaces the old text in
the copy of the file (it must occur there exactly once), runs the
selected tests there under a timeout of TIMEOUT_S seconds, and reports
the mutant as killed, survived or timed out.  A timeout counts as
caught, but is listed apart.  An entry whose old text is not found
once, or whose selection names no test, is reported stale;
`tests/test_mutants.py` checks the same in the test suite without
running any mutant.
A reason that starts with "equivalent:" marks a mutant that changes no
result, so it is expected to survive.

    python tests/mutants.py            # every mutant, one at a time

Pytest does not collect this file as tests.  The exit status is 1 when
an entry is stale or a mutant not marked equivalent survives, else 0.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

MUTANTS = [
    ("src/multinv/roots.py",
     "        if len(queue) > cap:\n",
     "        if len(queue) >= cap:\n",
     ["tests/test_weyl.py"],
     "a walk of exactly `cap` pairs is cut short, so the axiom walk, "
     "capped at the number of reflections, fails on every root system"),
    ("src/multinv/roots.py",
     "        raise GroupTooLarge(_too_large(action.cap))\n",
     "        return None\n",
     ["tests/test_weyl.py::test_an_infinite_walk_stops_at_the_cap"],
     "an infinite walk hands the group to the closure instead of "
     "raising at the cap"),
    ("src/multinv/roots.py",
     "        return tuple(sorted(positive[j] for j in pivots))\n",
     "        return tuple(positive[j] for j in pivots)\n",
     ["tests/test_weyl.py"],
     "the base comes out in the functional's order, not sorted"),
    ("src/multinv/roots.py",
     "_echelon(zip(*positive), len(positive))\n",
     "_echelon(zip(*positive), len(positive), reduced=True)\n",
     ["tests/test_weyl.py"],
     "equivalent: the rows at and below the next pivot row are the same "
     "in a reduced pass as in a forward one, so the pivot columns are "
     "too; only the rows above them cost more"),
    ("src/multinv/roots.py",
     "            elif found[r] != s:\n                return None\n",
     "",
     ["tests/test_weyl.py::"
      "test_a_root_with_two_coroots_stops_the_walk_at_once"],
     "a root met again with a second coroot no longer ends the walk, "
     "which on the second-coroot input ends with four roots, as if the "
     "group were finite"),
    ("src/multinv/roots.py",
     "    if len(found) < len(queue):\n        return None\n",
     "",
     ["tests/test_weyl.py::"
      "test_a_root_with_two_coroots_stops_the_walk_at_once"],
     "a repeated seed root is found only on its first move, by the "
     "mid-walk comparison"),
    ("src/multinv/roots.py",
     "            if next(filter(None, r)) < 0:\n"
     "                r, s = map(neg, r), map(neg, s)\n",
     "",
     ["tests/test_weyl.py"],
     "the walk keeps a root and its negative apart, so every reflection "
     "is found twice"),
    ("src/multinv/roots.py",
     " != g.nrows - 2:\n",
     " != g.nrows - 1:\n",
     ["tests/test_weyl.py"],
     "the trace test is off by one and no element is a reflection"),
    ("src/multinv/roots.py",
     "        return None  # by the trace, before a row of 1 - g is built\n",
     "        pass\n",
     ["tests/test_roots.py::test_a_non_reflection_generator_builds_no_row"],
     "the trace no longer rules -1 out before a row of 1 - g is built"),
    ("src/multinv/roots.py",
     "        if gcd(*r.root) != 1:\n",
     "        if gcd(*r.root) == 0:\n",
     ["tests/test_roots.py::"
      "test_axioms_reject_a_root_that_is_not_primitive"],
     "no root fails the primitive check, and a doubled root is caught "
     "only later, by the walk, with another message"),
    ("src/multinv/roots.py",
     "        if k or m:\n",
     "        if k:\n",
     ["tests/test_weyl.py::"
      "test_a_root_with_two_coroots_stops_the_walk_at_once"],
     "a move is skipped when only root . c is 0: in a finite group the "
     "two products vanish together, but on the mid-walk input the move "
     "that meets the second coroot of e1 is skipped"),
    ("src/multinv/cli.py",
     '            and report.get("verdict", {}).get("status") == UNKNOWN):\n',
     '            and report.get("status") == UNKNOWN):\n',
     ["tests/test_cli.py::"
      "test_require_verdict_reads_the_verdict_of_every_command_kind"],
     "--require-verdict looks for the status at the top of the report, "
     "where no command puts it, and never exits 3"),
    ("src/multinv/roots.py",
     "                         weyl_order * len(omega),\n",
     "                         weyl_order,\n",
     ["tests/test_roots.py::test_descent_on_groups_beyond_the_weyl_blocks"],
     "|G| is |W_N|, without the complement: 120 for W(A4) x {+-1}"),
    ("src/multinv/groups.py",
     "    if action.order > cap:\n",
     "    if action.order >= cap:\n",
     ["tests/test_groups.py::"
      "test_close_group_admits_a_group_of_exactly_cap_elements"],
     "a group of exactly `cap` elements is refused"),
    ("src/multinv/lattice.py",
     "                rows[i] = [(p * a - f * b) // tags[i]\n",
     "                rows[i] = [(p * a - f * b) // last\n",
     ["tests/test_lattice.py"],
     "a row last written at an older pivot is divided by the current "
     "one, which is not exact"),
    ("src/multinv/lattice.py",
     "        if tags[r] != last:\n"
     "            top = rows[r] = [x * last // tags[r] for x in top]\n",
     "",
     ["tests/test_lattice.py"],
     "a pivot row that lags behind the last pivot is used without being "
     "brought up to it"),
    ("src/multinv/lattice.py",
     "            sign = -sign\n",
     "",
     ["tests/test_lattice.py"],
     "a row swap no longer flips the sign of the determinant"),
    ("src/multinv/lattice.py",
     "        tags[r] = last = p\n",
     "        last = p\n",
     ["tests/test_lattice.py"],
     "a pivot row keeps the tag of the pivot it was written at before, "
     "so the reduced pass divides it by the wrong pivot"),
    ("src/multinv/lattice.py",
     "    if reduced:\n"
     "        rows = [row if t == last else [x * last // t for x in row]\n"
     "                for row, t in zip(rows, tags)]\n",
     "",
     ["tests/test_lattice.py"],
     "the reduced rows are not brought to the last pivot, so dividing "
     "them by it is wrong"),
    ("src/multinv/lattice.py",
     "        if row[p] < 0:\n            row = rows[k] = [-x for x in row]\n",
     "",
     ["tests/test_lattice.py"],
     "a Hermite row keeps a negative pivot, so equal spans can get "
     "different bases"),
    ("src/multinv/lattice.py",
     "        for i in range(k):\n"
     "            q = rows[i][p] // row[p]\n"
     "            if q:\n"
     "                rows[i] = [a - q * b for a, b in zip(rows[i], row)]\n",
     "",
     ["tests/test_lattice.py"],
     "entries above a Hermite pivot are not reduced into [0, pivot)"),
    ("src/multinv/lattice.py",
     "        for row, p in zip(self.basis, self._pivots):\n",
     "        for row, p in zip(self.basis[::-1], self._pivots[::-1]):\n",
     ["tests/test_lattice.py::"
      "test_contains_agrees_with_integral_coefficients"],
     "membership is substituted from the bottom row of the triangular "
     "basis, where the rows above still add to the pivot entry"),
    # the trivial group through the general root, class-group and
    # fixed-lattice code
    ("src/multinv/groups.py",
     "    if not gens:\n"
     "        return (IntMatrix.identity(action.rank),)\n",
     "",
     ["tests/test_cli.py::test_the_trivial_group_lists_no_element"],
     "a complement with no generator is listed, so the trivial group's one "
     "element is closed"),
    ("src/multinv/groups.py",
     "    if unit == 1:\n        return action.elements\n",
     "",
     ["tests/test_groups.py::"
      "test_a_group_with_no_reflection_takes_its_order_from_the_closure"],
     "a group with no reflection is listed as its own complement and "
     "again as its element list"),
    ("src/multinv/roots.py",
     "    if not pairs:  # W_N = 1, so Omega = G; a reflection in it is a seed\n",
     "    if False:\n",
     ["tests/test_groups.py::"
      "test_a_group_with_no_reflection_takes_its_order_from_the_closure"],
     "a group with no reflection generator is walked as if it had one, and "
     "the generic base of no roots has no rank to read"),
    ("src/multinv/roots.py",
     "_echelon(zip(*columns), rank, reduced=True)",
     "_echelon([[v[k] for v in columns] for k in range(len(base[0]))], "
     "rank, reduced=True)",
     ["tests/test_cli.py::"
      "test_a_base_override_on_the_trivial_group_is_checked"],
     "the base check reads the rows' length off the first base root, and "
     "an empty base override on the trivial group has none"),
    ("src/multinv/roots.py",
     "    coroots = IntMatrix((c for _, c in _simple_pairs(walk.pairs, "
     "base)),\n"
     "                        ncols=n).transpose()\n",
     "    coroots = IntMatrix(zip(*(c for _, c in _simple_pairs(walk.pairs, "
     "base))),\n"
     "                        ncols=rank)\n",
     ["tests/test_roots.py::test_build_root_system_trivial_group"],
     "the coroot matrix is built from its columns by zip, so no base root "
     "gives no rows, not n empty ones"),
    ("src/multinv/classify.py",
     "range(min(d.nrows, d.ncols))",
     "range(residual.rank)",
     ["tests/test_roots.py::test_build_root_system_trivial_group"],
     "the diagonal is read over the rank of L^D, past the columns of a "
     "Smith form with no generator"),
    ("src/multinv/classify.py",
     "kernel_lattice(IntMatrix(coroots, ncols=n).transpose())",
     "kernel_lattice(IntMatrix(tuple(zip(*coroots)), ncols=len(coroots)))",
     ["tests/test_classify.py", "tests/test_cli.py"],
     "no diagonalizable coroot gives a matrix with no rows, whose kernel is "
     "0, not L"),
    ("src/multinv/groups.py",
     "        tuple(sum((b[i] for b in blocks), ()) for i in "
     "range(action.rank)),\n",
     "        tuple(sum(rows, ()) for rows in zip(*blocks)),\n",
     ["tests/test_roots.py::test_build_root_system_trivial_group"],
     "the rows are stacked by zip over the generators, so no generator "
     "gives no rows and a fixed sublattice of rank 0"),
    ("src/multinv/laurent.py",
     "        images = list(coords)\n",
     "        if not moved:\n"
     "            continue\n"
     "        images = list(coords)\n",
     ["tests/test_laurent.py"],
     "equivalent: a generator that moves no column maps every term to "
     "itself, so skipping it changes no answer"),
    ("src/multinv/lattice.py",
     "    return lcm(*(Fraction(x).denominator for x in v))\n",
     "    return lcm(*(Fraction(x).denominator for x in v)) if len(v) else "
     "1\n",
     ["tests/test_lattice.py"],
     "equivalent: lcm() is 1, so the guard changes nothing"),
    # the dihedral rule of the root walk
    ("src/multinv/roots.py",
     "                   if 0 < k * m < 4 or root == a else None)\n",
     "                   if 0 < k * m <= 4 or root == a else None)\n",
     ["tests/test_weyl.py::"
       "test_an_infinite_dihedral_pair_stops_the_walk_at_once"],
     "k m = 4 passes as finite, so the affine A1 pair walks to the cap"),
    ("src/multinv/roots.py",
     "                   if 0 < k * m < 4 or root == a else None)\n",
     "                   )\n",
     ["tests/test_weyl.py::"
       "test_an_infinite_dihedral_pair_stops_the_walk_at_once"],
     "no dihedral rule: an infinite pair walks to the cap"),
    ("src/multinv/roots.py",
     "                   if 0 < k * m < 4 or root == a else None)\n",
     "                   if 0 < k * m < 4 else None)\n",
     ["tests/test_weyl.py"],
     "a reflection's move on its own pair (k m = 4) ends every walk"),
    # mutation checks recorded before tests/mutants.py existed, whose code is
    # still there
    ("src/multinv/lattice.py",
     "        return not any(rem)\n",
     "        return True\n",
     ["tests/test_lattice.py"],
     "membership ignores what is left after the substitution"),
    ("src/multinv/lattice.py",
     "        if any(rem):\n"
     "            return None\n",
     "",
     ["tests/test_lattice.py"],
     "coefficients are returned for a vector outside the span"),
    ("src/multinv/lattice.py",
     "        return sign * last if len(pivots) == self.nrows else 0\n",
     "        return sign * last\n",
     ["tests/test_lattice.py"],
     "a singular matrix gets the last pivot as its determinant"),
    ("src/multinv/groups.py",
     "             tuple(map(image, m)) for g in gens]\n",
     "             tuple(map(image, m[::-1])) for g in gens]\n",
     ["tests/test_groups.py"],
     "a product maps the rows in reverse order"),
    ("src/multinv/groups.py",
     "_RowImages(g, points, ids).__getitem__:",
     "_RowImages(gens[0], points, ids).__getitem__:",
     ["tests/test_groups.py"],
     "every generator reads the first generator's image table"),
    ("src/multinv/groups.py",
     "                if len(found) > cap:\n"
     "                    raise GroupTooLarge(_too_large(cap))\n",
     "",
     ["tests/test_groups.py::"
      "test_the_closure_stops_at_the_cap_on_the_shear"],
     "the closure is not stopped at the cap"),
    ("src/multinv/roots.py",
     "all(c % 2 == 0 for c in coroot)",
     "all(c % 2 == 1 for c in coroot)",
     ["tests/test_roots.py"],
     "the diagonalizable test is inverted"),
    ("src/multinv/roots.py",
     "    if _dot(root, coroot) != 2 or any(\n",
     "    if _dot(root, coroot) != 2 and any(\n",
     ["tests/test_roots.py"],
     "an element of the right trace is a reflection without 1 - g factoring "
     "as coroot times root"),
    ("src/multinv/roots.py",
     "    scale = gcd(*row) if row[k] > 0 else -gcd(*row)\n",
     "    scale = 1 if row[k] > 0 else -1\n",
     ["tests/test_roots.py"],
     "the root is left non-primitive"),
    ("src/multinv/roots.py",
     "    cartan = _sparse(rd.cartan.entries)\n"
     "    walk = _walk_down(",
     "    cartan = _sparse(rd.cartan.transpose().entries)\n"
     "    walk = _walk_down(",
     ["tests/test_roots.py"],
     "`weight_orbit` walks with the transposed Cartan matrix"),
    ("src/multinv/laurent.py",
     "        prefix = tuple(Fraction(s, den) for s in shift)\n",
     "        prefix = tuple(Fraction(0) for s in shift)\n",
     ["tests/test_laurent.py"],
     "the unit prefix is dropped, so a non-effective action's invariant "
     "keeps support outside the lattice"),
    ("src/multinv/cli.py",
     "        if power == 1:\n",
     "        if power:\n",
     ["tests/test_cli.py"],
     "a power above 1 is printed as the first power"),
    ("src/multinv/roots.py",
     " or any(m for _, m in split):\n",
     ":\n",
     ["tests/test_roots.py"],
     "a root with non-integral coordinates over the base passes the base "
     "check"),
    ("src/multinv/classify.py",
     "kernel_lattice(IntMatrix(coroots, ncols=n).transpose())",
     "kernel_lattice(IntMatrix([], ncols=n).transpose())",
     ["tests/test_classify.py"],
     "L in place of L^D"),
    ("src/multinv/classify.py",
     "    return ElementaryDivisors(tuple(x for x in diagonal if x))\n",
     "    return ElementaryDivisors(tuple(diagonal))\n",
     ["tests/test_classify.py"],
     "the zero divisors are kept"),
    ("src/multinv/monoid.py",
     "range(-(c // p), (b - c) // p + 1)",
     "range(0, (b - c) // p + 1)",
     ["tests/test_monoid.py"],
     "the box scan starts each residue at 0, not at the first multiple that "
     "brings the coordinate into the box"),
    ("src/multinv/monoid.py",
     "        if any(m) and not reduce(and_, map(getitem, masks, m), -1):\n",
     "        if not reduce(and_, map(getitem, masks, m), -1):\n",
     ["tests/test_monoid.py"],
     "the origin is kept in the Hilbert basis"),
    ("src/multinv/classify.py",
     "    if find_reflections(action):\n"
     "        return 1\n",
     "",
     ["tests/test_cli.py::test_reflection_group_commands_list_no_element"],
     "a group with reflections is listed to find its least displacement rank"),
    ("src/multinv/classify.py",
     "    for g in action.generators:\n"
     "        for i, row in enumerate(g.entries):\n",
     "    for g in action.elements:\n"
     "        for i, row in enumerate(g.entries):\n",
     ["tests/test_classify.py"],
     "the sign-group test reads every element, not the generators"),
    ("src/multinv/roots.py",
     "        order *= (k + 1) ** exponents\n",
     "        order *= k ** exponents + 1\n",
     ["tests/test_weyl.py"],
     "a wrong Kostant product"),
    ("src/multinv/roots.py",
     "    return tuple(sorted(refls, key=lambda r: r.matrix.entries))\n",
     "    return tuple(refls)\n",
     ["tests/test_weyl.py"],
     "the reflections come out in walk order, not sorted"),
    ("src/multinv/roots.py",
     "            yield (([x - k * y for x, y in zip(root, a)],\n",
     "            yield (([x + k * y for x, y in zip(root, a)],\n",
     ["tests/test_weyl.py"],
     "a wrong root move"),
    ("src/multinv/laurent.py",
     "(i, a) for i, a in enumerate(column) if a))",
     "(i, a) for i, a in enumerate(column) if a)[:1])",
     ["tests/test_laurent.py"],
     "`is_invariant` reads one entry per moved column"),
    ("src/multinv/laurent.py",
     "        for k, column in moved:\n",
     "        for k, column in moved[:1]:\n",
     ["tests/test_laurent.py"],
     "`is_invariant` reads only the first moved column"),
    ("src/multinv/laurent.py",
     "        term = coords[i] if a == 1 else map(mul, coords[i], "
     "repeat(a))\n",
     "        term = coords[i]\n",
     ["tests/test_laurent.py"],
     "`is_invariant` reads every entry as 1"),
    ("src/multinv/laurent.py",
     "                 for g in action.generators)\n",
     "                 for g in action.generators[:-1])\n",
     ["tests/test_laurent.py"],
     "the moved columns of the last generator are left out, so "
     "`is_invariant` skips it"),
    ("src/multinv/roots.py",
     "h for support, h in supports if not support & ~zeros))",
     "h for support, h in supports if not support & zeros))",
     ["tests/test_roots.py", "tests/test_weyl.py"],
     "a wrong parabolic support mask"),
    ("src/multinv/roots.py",
     "_walk_down(cartan, [()] * rd.rank, _dominant(cartan, weight), ())",
     "_walk_down(cartan, [()] * rd.rank, tuple(weight), ())",
     ["tests/test_roots.py"],
     "`weight_orbit` walks from the weight itself, not its dominant "
     "representative"),
    ("src/multinv/laurent.py",
     "        k = size(kappa)\n",
     "        k = 1\n",
     ["tests/test_laurent.py"],
     "the product ignores |W kappa|"),
    ("src/multinv/laurent.py",
     "((unit, kappa) if size(kappa) < size(unit)",
     "((unit, kappa) if size(kappa) > size(unit)",
     ["tests/test_laurent.py"],
     "equivalent: the product is symmetric in kappa and mu, so a sum over "
     "the larger orbit gives the same counts, only more slowly"),
    ("src/multinv/roots.py",
     "    if walked != {r.root: r.coroot for r in refls}:\n",
     "    if len(walked) != len(refls):\n",
     ["tests/test_roots.py::"
      "test_axioms_reject_every_single_corruption_of_the_reflections"],
     "the axiom walk is compared by size"),
    ("src/multinv/roots.py",
     "    if walked != {r.root: r.coroot for r in refls}:\n",
     "    if walked.keys() != {r.root for r in refls}:\n",
     ["tests/test_roots.py::"
      "test_axioms_reject_every_single_corruption_of_the_reflections"],
     "the axiom walk is compared by roots only"),
    ("src/multinv/roots.py",
     "_echelon(moved + scaled_weights, action.rank)",
     "_echelon(moved, action.rank)",
     ["tests/test_roots.py"],
     "the fixed-component check leaves out the weights"),
    ("src/multinv/roots.py",
     "        if coroots.apply(w) != tuple(scale * (i == j)\n",
     "        if False and coroots.apply(w) != tuple(scale * (i == j)\n",
     ["tests/test_roots.py"],
     "no pairing check"),
    ("src/multinv/lattice.py",
     "u[_unimodular_echelon(rows, m.ncols, u):]",
     "u[_unimodular_echelon(rows, m.ncols, u):-1]",
     ["tests/test_lattice.py"],
     "the kernel misses its last row"),
    ("src/multinv/lattice.py",
     "u[_unimodular_echelon(rows, m.ncols, u):]",
     "u[:_unimodular_echelon(rows, m.ncols, u)]",
     ["tests/test_lattice.py"],
     "the kernel is read from the pivot rows"),
    ("src/multinv/lattice.py",
     "u[_unimodular_echelon(rows, m.ncols, u):]",
     "u[_unimodular_echelon(rows, m.ncols - 1, u):]",
     ["tests/test_lattice.py"],
     "the kernel ignores the last column"),
    ("src/multinv/cli.py",
     "@cache\n"
     "def build_parser()",
     "def build_parser()",
     ["tests/test_cli.py::"
       "test_parser_is_built_once_and_answers_as_a_fresh_one"],
     "the parser is built per call"),
    ("src/multinv/cli.py",
     "    if rank > MAX_RANK:\n",
     "    if rank >= MAX_RANK:\n",
     ["tests/test_cli.py::"
      "test_a_huge_rank_exits_2_before_any_basis_is_built"],
     "the rank bound refuses the bound itself"),
    # the walk under every generator, the descent and the complement
    ("src/multinv/roots.py",
     "    for columns, inverse in conjugations:\n",
     "    for columns, inverse in conjugations[:0]:\n",
     ["tests/test_roots.py::test_descent_on_groups_beyond_the_weyl_blocks"],
     "no pair is moved by a generator that is no reflection, so W_N misses "
     "the reflections conjugate to the walked ones under it"),
    ("src/multinv/roots.py",
     "               [sum(map(mul, row, coroot)) for row in inverse])\n",
     "               [sum(map(mul, col, coroot)) for col in columns])\n",
     ["tests/test_roots.py"],
     "a conjugation moves the coroot by the transpose of h, not by h^-1, "
     "which differ off the orthogonal generators"),
    ("src/multinv/roots.py",
     "            if min(coordinates[image]) < 0:\n",
     "            if max(coordinates[image]) < 0:\n",
     ["tests/test_roots.py::test_descent_on_groups_beyond_the_weyl_blocks"],
     "the descent takes a negative root with a zero coordinate for "
     "positive, so it stops outside Omega"),
    ("src/multinv/roots.py",
     "    for _ in range(len(coordinates) // 2 + 1):\n",
     "    for _ in range(len(coordinates) // 2):\n",
     ["tests/test_roots.py::test_descent_on_groups_beyond_the_weyl_blocks"],
     "the descent has no pass left to see that it ended after |R+| steps, "
     "as -1 in W(B3) needs"),
    ("src/multinv/roots.py",
     "        absorbed = [pair for w in omega if (pair := _reflection_pair(w))]"
     "\n",
     "        absorbed = []\n",
     ["tests/test_roots.py::test_descent_on_groups_beyond_the_weyl_blocks"],
     "a reflection in Omega is not walked, so G2 given as W(A2) and -1 is "
     "no reflection group"),
    ("src/multinv/roots.py",
     "            omega = tuple(dict.fromkeys(_descend(w, simple, coordinates)\n"
     "                                        for w in omega))\n",
     "            omega = omega\n",
     ["tests/test_roots.py::test_descent_on_groups_beyond_the_weyl_blocks"],
     "Omega keeps the reflections it had before they were walked"),
    ("src/multinv/groups.py",
     "        return _close(action.rank, gens, action.cap // unit)\n",
     "        return _close(action.rank, gens, action.cap)\n",
     ["tests/test_weyl.py::test_infinite_groups_take_the_closure"],
     "the complement is closed to the whole cap, not cap // |W_N|"),
    ("src/multinv/roots.py",
     "        pairs = [pair for w in omega if (pair := _reflection_pair(w))]\n",
     "        pairs = []\n",
     ["tests/test_roots.py::test_descent_on_groups_beyond_the_weyl_blocks"],
     "with no reflection generator, the reflections of G are not walked, so "
     "the cube of -1 + C3 is missed"),
    ("src/multinv/laurent.py",
     "            key = lam, shift\n",
     "            key = lam\n",
     ["tests/test_laurent.py::"
      "test_an_orbit_is_shared_only_under_the_same_unit_prefix"],
     "an orbit is shared by dominant weight alone, so a row with another "
     "unit prefix gets the first row's exponents"),
    ("src/multinv/laurent.py",
     "            key = kappa, j\n",
     "            key = kappa\n",
     ["tests/test_laurent.py"],
     "a pair product is shared by kappa alone, so m_kappa times every "
     "fundamental orbit sum is the first one computed"),
    ("src/multinv/laurent.py",
     "        texts.append(\"\".join(out) or \"0\")\n",
     "        texts.append(\"\".join(out))\n",
     ["tests/test_laurent.py::"
      "test_one_render_pass_gives_each_polynomial_its_own_text"],
     "the zero polynomial renders as the empty string"),
    ("src/multinv/roots.py",
     "        coordinates[r], coordinates[_negated(r)] = coeffs, "
     "_negated(coeffs)\n",
     "        coordinates[r], coordinates[_negated(r)] = coeffs, coeffs\n",
     ["tests/test_weyl.py"],
     "the negative of each walked root takes its coordinates, not their "
     "negatives"),
    ("src/multinv/roots.py",
     "    for j, r in enumerate(lines, rank):\n",
     "    for j, r in reversed(list(enumerate(lines, rank))):\n",
     ["tests/test_roots.py::test_bad_user_base_messages"],
     "the roots are checked from the last the walk found, so a bad base "
     "is reported on another root"),
    ("src/multinv/roots.py",
     "(a, _negated(pairs[_negated(a)]))",
     "(a, pairs[_negated(a)])",
     ["tests/test_roots.py::test_weight_orbit_of_the_rank2_golden_group"],
     "a base root that is the negative of a walked root gets the walked "
     "root's coroot, so its coroot pairs to -2 with it"),
    ("src/multinv/roots.py",
     "        if b not in lines and _negated(b) not in lines:\n",
     "        if b not in lines:\n",
     ["tests/test_cli.py::test_invariants_with_base_override"],
     "a base root that is the negative of a walked root is refused as no "
     "root"),
    ("src/multinv/classify.py",
     "        md = reflection_monoid(action, base=base).monoid\n",
     "        md = reflection_monoid(action).monoid\n",
     ["tests/test_cli.py::"
      "test_a_base_override_on_the_trivial_group_is_checked"],
     "analyze and verdict ignore a base override on a reflection group, "
     "the trivial group included"),
    ("src/multinv/classify.py",
     "        try:\n"
     "            build_root_system(action, base=base)\n"
     "        except NotReflectionGroup as exc:\n"
     "            raise NotReflectionGroup(f\"base override refused: {exc}\")"
     " from None\n",
     "        pass\n",
     ["tests/test_cli.py::"
      "test_a_base_override_on_a_group_without_reflections_is_refused"],
     "analyze and verdict ignore a base override on a group that is not "
     "generated by reflections"),
    ("src/multinv/cli.py",
     "    if desc.base_override is not None:\n"
     "        raise InvalidInput(\"singular-locus takes no base override\")\n",
     "",
     ["tests/test_cli.py::"
      "test_a_base_override_on_a_group_without_reflections_is_refused"],
     "singular-locus ignores a base override"),
    ("src/multinv/classify.py",
     "            raise NotReflectionGroup(f\"base override refused: {exc}\")"
     " from None\n",
     "            raise\n",
     ["tests/test_cli.py::"
      "test_a_base_override_on_a_group_without_reflections_is_refused",
      "tests/test_cli.py::test_a_base_override_refused_by_analyze_and_verdict"
      "_names_the_override"],
     "analyze and verdict refuse a base override on a group not generated "
     "by reflections without naming the override"),
    ("src/multinv/roots.py",
     "    walked = (walk.pairs if walk.seeds == set(simple)\n",
     "    walked = (walk.pairs if walk.seeds is not None\n",
     ["tests/test_weyl.py::"
      "test_e8_axioms_walk_the_reflections_once_per_simple_root",
      "tests/test_roots.py::"
      "test_axioms_stop_an_endless_walk_at_the_reflection_count"],
     "the axioms read back the root walk whenever it used no conjugation, "
     "whatever its seeds: over a base override, or with a corrupted "
     "coroot, nothing is walked from the simple pairs"),
    ("src/multinv/roots.py",
     "    walked = (walk.pairs if walk.seeds == set(simple)\n",
     "    walked = (walk.pairs if walk.seeds == set(zip(base, zip(*coroots"
     ".entries)))\n",
     ["tests/test_weyl.py::"
      "test_simple_reflections_read_the_walk_back_up_to_sign"],
     "the seeds are compared with the simple pairs before their signs are "
     "normalised, so S6, D5 and B5 walk again"),
    ("src/multinv/laurent.py",
     "                if not is_invariant(action, stable):\n",
     "                if not any(shift) and not is_invariant(action, stable):\n",
     ["tests/test_laurent.py::"
      "test_an_orbit_missing_a_weight_is_not_invariant"],
     "an orbit under a nonzero unit prefix is not checked"),
    ("src/multinv/laurent.py",
     "                if not is_invariant(action, stable):\n",
     "                if False:\n",
     ["tests/test_laurent.py::"
      "test_an_orbit_missing_a_weight_is_not_invariant",
      "tests/test_laurent.py::"
      "test_invariance_is_checked_once_per_distinct_orbit"],
     "no orbit is checked invariant"),
    ("src/multinv/classify.py",
     "        if action.order == 1:\n",
     "        if action.order != 1:\n",
     ["tests/test_cli.py::test_verdict_identity_only_is_group_algebra"],
     "the trivial group is called a reflection group with invariants, "
     "and every other reflection group the group algebra"),
    ("src/multinv/classify.py",
     "    return (action.order == 1 or min_displacement_rank(action)\n",
     "    return (min_displacement_rank(action)\n",
     ["tests/test_cli.py::"
      "test_trivial_group_answers_every_command_as_before"],
     "analyze asks the trivial group for its least displacement rank, "
     "which it has not, and exits 2"),
]


def run_mutant(file, old, new, selection):
    """'killed', 'survived', 'timed out' or 'stale' for one patch."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / file
        text = target.read_text()
        if text.count(old) != 1:
            return "stale"
        target.write_text(text.replace(old, new))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x",
                 "-p", "no:cacheprovider", *selection],
                cwd=work, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timed out"
    # pytest exits 4 on an unknown test id and 5 when it collects none
    return {0: "survived", 4: "stale", 5: "stale"}.get(done.returncode,
                                                      "killed")


def main() -> int:
    bad = 0
    for i, (file, old, new, selection, reason) in enumerate(MUTANTS):
        outcome = run_mutant(file, old, new, selection)
        if outcome == "stale" or outcome == "survived" and \
                not reason.startswith("equivalent:"):
            bad += 1
        print(f"{i}: {outcome} ({file}; {reason})", flush=True)
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main())
