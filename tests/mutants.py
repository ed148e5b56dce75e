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
     "                elif found[r] != s:\n                    return None\n",
     "",
     ["tests/test_weyl.py::"
      "test_a_root_with_two_coroots_stops_the_walk_at_once"],
     "a root met again with a second coroot no longer ends the walk, "
     "which runs on to the cap"),
    ("src/multinv/roots.py",
     "    if len(found) < len(queue):\n        return None\n",
     "",
     ["tests/test_weyl.py::"
      "test_a_root_with_two_coroots_stops_the_walk_at_once"],
     "a repeated seed root is found only on its first move, by the "
     "mid-walk comparison"),
    ("src/multinv/roots.py",
     "                if next(filter(None, r)) < 0:\n"
     "                    r, s = map(neg, r), map(neg, s)\n",
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
     "list(takewhile(bool, map(_reflection_pair, action.generators)))",
     "list(takewhile(bool, [*map(_reflection_pair, action.generators)]))",
     ["tests/test_roots.py::test_a_non_reflection_generator_builds_no_row"],
     "every generator is paired before the first that is no reflection "
     "ends the walk"),
    ("src/multinv/roots.py",
     "        for r in refls:\n            beta = r.root\n",
     "        for r in refls[:1]:\n            beta = r.root\n",
     ["tests/test_roots.py::"
      "test_axioms_reject_roots_a_simple_reflection_does_not_keep"],
     "the simple reflections map only one root each"),
    ("src/multinv/roots.py",
     "            if k or m:\n",
     "            if k:\n",
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
    ("src/multinv/groups.py",
     "(len(self.elements) if _root_walk(self) is None\n"
     "                           else _weyl_order(self))\n",
     "(_weyl_order(self) if _root_walk(self) is None\n"
     "                           else len(self.elements))\n",
     ["tests/test_groups.py"],
     "|G| is the Kostant product when a generator is no reflection, and "
     "the closure length when the walk has the roots"),
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
