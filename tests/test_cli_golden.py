"""Pin the ``pv`` command line transcript against a committed golden file.

``tests/data/cli_golden.json`` holds, for every case below, the exit code,
stdout and stderr of ``paravec.cli.main``.  The exit code and stdout are
compared byte for byte, and stderr exactly for ``pv: ...`` diagnostics.
Help pages and argparse usage errors are laid out differently across
Python versions, so for those only the exit code, the ``usage:`` line
(whitespace collapsed) and the set of argument help strings are compared.

This is the one example test of ``pv``: every subcommand runs in a case that
is not a help page, every exit code (0, 1, 2, 3) shows, and a call pinned here
is not restated in ``test_wire_cli.py``.  Add a case here, not a test there.

Regenerate (only when a transcript change is intended) with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from paravec.cli import _COMMANDS, main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

P1 = "[1,1,1,0,0,0,0,0]"
P2 = "[2,0,0,1,0,0,0.5,0]"
PROPER1 = "[2,0,1,0,0,0,0,0]"
PROPER2 = "[2,0,0,1,0,0,0,0]"
UNIT1 = "[1.25,0,0.75,0,0,0,0,0]"
UNIT2 = "[1.25,0,0,0.75,0,0,0,0]"
AXIS = "[0.6,0,0,0,0,0,0,0.8]"
G = "[5,0,1,2,3,0.5,0,0]"
SINGULAR = "[1,0,1,0,0,0,0,0]"
ALMOST = "[1,0,1e-03,0,0,0,0,0]"
QUARTER = "[0,0,1,0.7853981633974483]"
BACK = "[0,0,1,-0.7853981633974483]"
TILTED = "[1,1,0,0.5]"
BIG = "[1e200,0,0,0,0,0,0,0]"
COMMANDS = (*_COMMANDS, "fuzz")

# (case id, argv, stdin or None)
CASES = [
    ("add", ["add", P1, P2], None),
    ("mul", ["mul", P1, P2], None),
    ("rev", ["rev", G], None),
    ("conj", ["conj", G], None),
    ("vig", ["vig", G], None),
    ("det", ["det", P1], None),
    ("inv", ["inv", P2], None),
    # a determinant whose reciprocal would leave the normal float range
    ("inv-huge", ["inv", "[1.09868411346781e+154,4.5508986056222734e+153,0,0,0,0,0,0]"], None),
    ("module", ["module", PROPER1], None),
    ("normalize", ["normalize", PROPER1], None),
    ("classify", ["classify", SINGULAR], None),
    ("classify-json", ["classify", "--json", P1], None),
    ("sprod", ["sprod", P1, P2], None),
    ("vprod", ["vprod", P1, P2], None),
    ("vprod-left", ["vprod", "--left", P1, P2], None),
    ("vprod-right", ["vprod", "--right", P1, P2], None),
    ("angle", ["angle", PROPER1, PROPER2], None),
    ("angle-left", ["angle", "--left", PROPER1, PROPER2], None),
    ("angle-right", ["angle", "--right", PROPER1, PROPER2], None),
    ("compose-angle", ["compose-angle", UNIT1, UNIT2], None),
    ("compose-angle-left", ["compose-angle", "--left", UNIT1, UNIT2], None),
    ("compose-angle-right", ["compose-angle", "--right", UNIT1, UNIT2], None),
    ("rotate", ["rotate", G, AXIS], None),
    ("rotate-left", ["rotate", "--left", G, AXIS], None),
    ("rotate-right", ["rotate", "--right", G, AXIS], None),
    ("mirror-3", ["mirror", G, "[0,0,1]"], None),
    ("mirror-6", ["mirror", G, "[1,0,0,0,0.5,0]"], None),
    ("axial", ["axial", G, "[0,0,1]"], None),
    ("euler", ["euler", QUARTER, TILTED], None),
    ("euler-json", ["euler", "--json", QUARTER, TILTED], None),
    ("euler-identity-json", ["euler", "--json", QUARTER, BACK], None),
    ("matrep", ["matrep", G], None),
    ("matrep-json", ["matrep", "--json", G], None),
    ("pauli", ["pauli", G], None),
    ("pauli-json", ["pauli", "--json", G], None),
    # operands read from stdin
    ("stdin-paravector", ["det", "-"], P1 + "\n"),
    ("stdin-vector", ["mirror", G, "-"], "[0,0,1]\n"),
    ("stdin-rotation", ["euler", "-", TILTED], QUARTER),
    ("stdin-empty", ["det", "-"], ""),
    # the tolerance before and after the subcommand
    ("tol-default", ["classify", "--json", ALMOST], None),
    ("tol-before", ["--tol", "1e-4", "classify", "--json", ALMOST], None),
    ("tol-after", ["classify", "--tol", "1e-4", "--json", ALMOST], None),
    ("tol-negative", ["--tol", "-1", "det", P1], None),
    ("tol-nan", ["--tol", "nan", "det", P1], None),
    ("tol-inf", ["--tol", "inf", "det", P1], None),
    # domain (1) and parse (2) errors for each operand kind
    ("paravector-exit1", ["inv", SINGULAR], None),
    ("paravector-exit2-arity", ["det", "[1,0,0]"], None),
    ("paravector-exit2-syntax", ["det", "[1,0,,]"], None),
    ("vector-exit1", ["mirror", "[1,0,0,0,0,0,0,0]", "[1,0,0,0,1,0]"], None),
    ("vector-exit2", ["mirror", G, "[1,2]"], None),
    ("rotation-exit1", ["euler", "[0,0,0,1]", QUARTER], None),
    ("rotation-exit2", ["euler", "[1,2,3]", QUARTER], None),
    ("angle-exit1", ["angle", SINGULAR, PROPER1], None),
    ("compose-angle-exit1", ["compose-angle", PROPER1, UNIT1], None),
    ("vector-exit1-overflow", ["mirror", "[1,0,0,0,0,0,0,0]", "[1e200,0,0]"], None),
    ("module-exit1", ["module", "[1,0,2,0,0,0,0,0]"], None),
    ("sprod-exit1-overflow", ["sprod", BIG, BIG], None),
    # argparse usage errors
    ("unknown-command", ["frobnicate", P1], None),
    ("missing-operand", ["det"], None),
    ("both-orientations", ["vprod", "--left", "--right", P1, P2], None),
    ("bad-tol", ["--tol", "x", "det", P1], None),
    # the fuzz campaign
    ("fuzz-text", ["fuzz", "--seed", "3", "--trials", "2"], None),
    ("fuzz-json", ["fuzz", "--seed", "3", "--trials", "2", "--json"], None),
    ("fuzz-mutant", ["fuzz", "--seed", "7", "--trials", "2", "--mutant", "rev-sign"], None),
    ("fuzz-trials-0", ["fuzz", "--trials", "0"], None),
    ("fuzz-seed-negative", ["fuzz", "--seed", "-1", "--trials", "1"], None),
    ("fuzz-seed-huge", ["fuzz", "--seed", "99999999999999999999999", "--trials", "1"], None),
    ("fuzz-mutant-bogus", ["fuzz", "--mutant", "bogus"], None),
    # help pages
    ("help", ["-h"], None),
    *[(f"{name}-help", [name, "-h"], None) for name in COMMANDS],
]


@contextlib.contextmanager
def _isolated(stdin):
    """Drop ``PV_TOL``, pin the terminal width and feed ``stdin``."""
    saved_env, saved_stdin = os.environ.copy(), sys.stdin
    os.environ.pop("PV_TOL", None)
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    sys.stdin = io.StringIO(stdin or "")
    try:
        yield
    finally:
        os.environ.clear()
        os.environ.update(saved_env)
        sys.stdin = saved_stdin


def transcript(argv, stdin):
    """Exit code, stdout and stderr of one ``pv`` call, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with _isolated(stdin), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _usage(text):
    """The ``usage:`` block with its whitespace collapsed."""
    first, *rest = text.splitlines()
    block = [first]
    for line in rest:
        if not line.startswith(" "):
            break
        block.append(line)
    return " ".join(" ".join(block).split())


def _help_strings(text):
    """Sorted help strings of the arguments on an argparse help page."""
    helps = []
    for line in text.partition("\n\n")[2].splitlines():
        indent = len(line) - len(line.lstrip())
        stripped = line.strip()
        if not stripped or indent == 0:  # blank, description or section header
            continue
        if indent <= 4:  # an invocation, maybe followed by its help
            parts = re.split(r"\s{2,}", stripped, maxsplit=1)
            helps.append(parts[1] if len(parts) == 2 else "")
        elif helps:  # help wrapped, or set under a long invocation
            helps[-1] = f"{helps[-1]} {stripped}".strip()
    return sorted(h for h in helps if h)


def normalize(result):
    """Drop the parts of argparse output whose layout varies by version."""
    for stream in ("stdout", "stderr"):
        text = result[stream]
        if text.startswith("usage:"):
            other = "stderr" if stream == "stdout" else "stdout"
            return {
                "code": result["code"],
                "argparse": stream,
                other: result[other],
                "usage": _usage(text),
                "help": _help_strings(text) if stream == "stdout" else [],
            }
    return result


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert list(golden) == [case_id for case_id, _, _ in CASES]
    # every subcommand runs outside a help page, and every exit code shows
    runs = [record for record in golden.values() if "-h" not in record["argv"]]
    assert {arg for record in runs for arg in record["argv"] if arg in COMMANDS} == set(COMMANDS)
    assert {record["code"] for record in golden.values()} == {0, 1, 2, 3}


@pytest.mark.parametrize("case_id, argv, stdin", CASES, ids=[c[0] for c in CASES])
def test_transcript_matches_golden(golden, case_id, argv, stdin):
    expected = dict(golden[case_id])
    assert expected.pop("argv") == argv and expected.pop("stdin", None) == stdin
    assert normalize(transcript(argv, stdin)) == expected


def _write_golden():
    records = {}
    for case_id, argv, stdin in CASES:
        record = {"argv": argv}
        if stdin is not None:
            record["stdin"] = stdin
        record.update(normalize(transcript(argv, stdin)))
        records[case_id] = record
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    _write_golden()
