"""The entries of `tests/mutants.py` are current: each old text occurs
once in its file, the patched file still compiles and parses to another
syntax tree, and each selected test file and function exists.  A patch
that breaks the syntax fails every selection, so it would be "killed"
while testing nothing; one that leaves the tree unchanged edits only
comments or layout, so it can only survive.  The mutation runs
themselves stay out of the test suite."""

import ast
import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("file, old, new, selection, reason", MUTANTS,
                         ids=[f"mutant{i}" for i in range(len(MUTANTS))])
def test_a_mutant_entry_is_not_stale(file, old, new, selection, reason):
    text = (ROOT / file).read_text()
    assert text.count(old) == 1 and new != old
    patched = text.replace(old, new)
    compile(patched, file, "exec")
    assert ast.dump(ast.parse(patched)) != ast.dump(ast.parse(text)), \
        "the patch changes only comments or layout"
    for test in selection:
        path, _, name = test.partition("::")
        text = (ROOT / path).read_text()
        if name:
            assert re.search(rf"^def {name}\(", text, re.MULTILINE), test
