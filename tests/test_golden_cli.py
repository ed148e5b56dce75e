"""The CLI's output is pinned byte for byte on the benchmark's documents.

The inputs are the distinct documents of the benchmark's census (seeds
1-3), weyl and certificate workloads, read from perfbench/cases.py.  Each
goes through all six commands, as text and with --json, in process and
on stdin; one sha256 over (exit code, stdout, stderr) per run is kept in
golden_cli.json, keyed by the document's sha256, the command and the
mode.  A change that alters any byte of any report, exit code or error
message fails here.

Regenerate the file, only from a commit whose output is known good, with

    PYTHONPATH=src python3 tests/test_golden_cli.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_cli.json")
CENSUS_SEEDS = (1, 2, 3)
MODES = {"text": [], "json": ["--json"]}

sys.path.insert(0, str(ROOT / "perfbench"))
import cases  # noqa: E402
from multinv.cli import COMMANDS, main  # noqa: E402


def documents() -> dict:
    """{sha256 of the document: document}, over every workload's cases."""
    found = [case.document for seed in CENSUS_SEEDS
             for case in cases.census(seed)]
    found += [case.document for case in cases.weyl() + cases.certificate()]
    return {hashlib.sha256(doc.encode()).hexdigest(): doc for doc in found}


def run_digest(document: str, argv: list) -> str:
    """sha256 over the exit code, stdout and stderr of one in-process run
    reading `document` from stdin."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(document)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def digests() -> dict:
    """{document digest: {command: {mode: run digest}}} for every run."""
    return {
        key: {command: {mode: run_digest(doc, [command, "-", *flags])
                        for mode, flags in MODES.items()}
              for command in sorted(COMMANDS)}
        for key, doc in sorted(documents().items())
    }


def test_cli_output_matches_the_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    assert len(got) == 147
    mismatched = [
        (key, command, mode)
        for key, by_command in got.items()
        for command, by_mode in by_command.items()
        for mode, digest in by_mode.items()
        if golden.get(key, {}).get(command, {}).get(mode) != digest
    ]
    assert mismatched == []
    assert golden.keys() == got.keys()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
