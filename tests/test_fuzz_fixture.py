"""Pin the verdicts of a fixed fuzz campaign against a committed fixture.

``tests/data/fuzz_seed42_300.json`` holds, for ``run_fuzz(42, 300)`` with no
mutant and with each documented mutant, every property's passes, fails,
first-failure trial and the names of its counterexample inputs.  The input
values are left out because their low bits depend on the platform's libm; the
names do not.  A performance change that alters a single verdict fails here.

Regenerate (only when a change of verdicts or input names is intended) with::

    PYTHONPATH=src python tests/test_fuzz_fixture.py
"""

import json
from pathlib import Path

import pytest

from paravec.fuzz import _PROPS, MUTANTS, run_fuzz

FIXTURE = Path(__file__).parent / "data" / "fuzz_seed42_300.json"
SEED, TRIALS = 42, 300
RUNS = (None, *sorted(MUTANTS))


def verdicts(mutant):
    """Map each property name to ``[passes, fails, first_failure_trial, input_names]``."""
    report = run_fuzz(SEED, TRIALS, mutant=mutant)
    return {
        r.name: [r.passes, r.fails, None, None]
        if r.counterexample is None
        else [r.passes, r.fails, r.counterexample["trial"], list(r.counterexample["inputs"])]
        for r in report.properties
    }


def _run_key(mutant):
    return mutant or "none"


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("mutant", RUNS, ids=_run_key)
def test_verdicts_match_fixture(fixture, mutant):
    assert fixture["seed"] == SEED and fixture["trials"] == TRIALS
    assert verdicts(mutant) == fixture["runs"][_run_key(mutant)]


def test_registry_order_is_the_report_order(fixture):
    # to_dict() lists properties in registry order; the dict comparison
    # above would not see a reordered registry
    names = [p.full_name for p in _PROPS]
    for run in fixture["runs"].values():
        assert list(run) == names


def _write_fixture():
    lines = [
        "{",
        f' "seed": {SEED},',
        f' "trials": {TRIALS},',
        ' "fields": ["passes", "fails", "first_failure_trial", "input_names"],',
        ' "runs": {',
    ]
    for i, mutant in enumerate(RUNS):
        rows = verdicts(mutant)
        lines.append(f"  {json.dumps(_run_key(mutant))}: {{")
        items = [f"   {json.dumps(k)}: {json.dumps(v)}" for k, v in rows.items()]
        lines.append(",\n".join(items))
        lines.append("  }" + ("," if i < len(RUNS) - 1 else ""))
    lines += [" }", "}", ""]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("\n".join(lines))


if __name__ == "__main__":
    _write_fixture()
