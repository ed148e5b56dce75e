"""The entries of `tests/mutants.py` are current: each old text occurs
once in its file, and each selected test file and function exists.  The
mutation runs themselves stay out of the test suite."""

import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("file, old, new, selection, reason", MUTANTS,
                         ids=[f"mutant{i}" for i in range(len(MUTANTS))])
def test_a_mutant_entry_is_not_stale(file, old, new, selection, reason):
    assert (ROOT / file).read_text().count(old) == 1
    for test in selection:
        path, _, name = test.partition("::")
        text = (ROOT / path).read_text()
        if name:
            assert re.search(rf"^def {name}\(", text, re.MULTILINE), test
