"""The entries of `tests/mutants.py` are current: each old text occurs
once in its file, the patched file differs and still compiles, and each
selected test file and function exists.  A patch that breaks the syntax
fails every selection, so it would be "killed" while testing nothing.
The mutation runs themselves stay out of the test suite."""

import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("file, old, new, selection, reason", MUTANTS,
                         ids=[f"mutant{i}" for i in range(len(MUTANTS))])
def test_a_mutant_entry_is_not_stale(file, old, new, selection, reason):
    text = (ROOT / file).read_text()
    assert text.count(old) == 1 and new != old
    compile(text.replace(old, new), file, "exec")
    for test in selection:
        path, _, name = test.partition("::")
        text = (ROOT / path).read_text()
        if name:
            assert re.search(rf"^def {name}\(", text, re.MULTILINE), test
