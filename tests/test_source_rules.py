"""Two rules for the source of ``src/paravec``.

No tolerance is hard-coded as ``1e-6``: a caller passes a ``Tolerance``.
No threshold ``abs + rel * scale`` is written out by hand: ``Tolerance.linear``
and ``Tolerance.quadratic`` compute every one, and their return lines in
``core.py`` are the single exemption.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))

HARD_CODED = re.compile(r"\b1e-6\b")
THRESHOLD = re.compile(r"\.abs *\+ *[A-Za-z_.]*\.rel\b|\.rel *\*[^#]*\+ *[A-Za-z_.]*\.abs\b")
EXEMPT = re.compile(r" +return self\.abs \+ self\.rel \* scale")


def offending_lines(name, source):
    """``[(line, text)]`` of each line of module ``name`` that breaks a rule."""
    return [
        (number, line)
        for number, line in enumerate(source.splitlines(), 1)
        if HARD_CODED.search(line)
        or (THRESHOLD.search(line) and not (name == "paravec/core.py" and EXEMPT.match(line)))
    ]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_hard_coded_tolerance_or_threshold(path):
    assert offending_lines(path.relative_to(SRC).as_posix(), path.read_text()) == []


def test_a_planted_offence_is_found():
    source = (
        "x = abs(d) <= 1e-6\n"
        "y = 1e-60\n"
        "thr = tol.abs + tol.rel * sc\n"
        "thr = tol.rel * sc * sc + tol.abs  # quadratic\n"
        "        return self.abs + self.rel * scale\n"
    )
    found = [(1, "x = abs(d) <= 1e-6"), (3, "thr = tol.abs + tol.rel * sc"),
             (4, "thr = tol.rel * sc * sc + tol.abs  # quadratic")]
    assert offending_lines("paravec/core.py", source) == found
    assert offending_lines("paravec/fuzz.py", source) == [
        *found, (5, "        return self.abs + self.rel * scale")]
