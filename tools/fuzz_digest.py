#!/usr/bin/env python3
"""Digests of fixed fuzz reports, to show that a change moved no byte of them.

    python3 tools/fuzz_digest.py

For each seed in (42, 7, 123) and each run (no mutant, then every documented
mutant) it prints the SHA-256 of ``json.dumps(report.to_dict())`` followed by
``report.format_text()``, where ``report = run_fuzz(seed, 300, mutant=...)``,
and then one digest over all of those lines.  A change that must keep every
report byte-identical prints the same lines before and after.

Digests compare only on one machine: the low bits of counterexample inputs
depend on the platform's libm.  The script imports ``paravec`` from ``src/``
of the checkout it lives in and uses only the standard library.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from paravec.fuzz import MUTANTS, run_fuzz  # noqa: E402

SEEDS = (42, 7, 123)
TRIALS = 300


def main():
    combined = hashlib.sha256()
    for seed in SEEDS:
        for mutant in (None, *sorted(MUTANTS)):
            report = run_fuzz(seed, TRIALS, mutant=mutant)
            text = json.dumps(report.to_dict()) + report.format_text()
            line = f"seed={seed} mutant={mutant or 'none'} {hashlib.sha256(text.encode()).hexdigest()}"
            print(line)
            combined.update(line.encode() + b"\n")
    print(f"combined {combined.hexdigest()}")


if __name__ == "__main__":
    main()
