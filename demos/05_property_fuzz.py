"""Driving the deterministic property-fuzz engine from Python.

The same campaigns are reachable from the shell as ``pv fuzz``.
"""

import io
import json
from contextlib import redirect_stdout

from paravec import SUITES, run_fuzz
from paravec.cli import main

print("A campaign evaluates every registered law against seeded trials.")
print(f"Suites: {', '.join(SUITES)}\n")

report = run_fuzz(seed=42, trials=500)
print(f"seed=42, trials=500 -> {len(report.properties)} properties, "
      f"{report.failed_properties} failing")
print("The same seed always reproduces the same report:",
      run_fuzz(seed=42, trials=500).to_dict() == report.to_dict())

print("\nTo see the suite bite, install a documented defect. Dropping the")
print("cross term of the product breaks associativity and the matrix view:")
broken = run_fuzz(seed=42, trials=50, mutant="mul-drop-cross")
caught = [r for r in broken.properties if r.fails]
print(f"  {len(caught)} properties fail; the first few:")
for r in caught[:5]:
    print(f"    {r.name}  (fails {r.fails}/50, "
          f"first at trial {r.counterexample['trial']})")

first = caught[0]
print("\nA counterexample lists, in wire form, each operand the failing law")
print(f"takes, in the order of its parameters. For {first.name}:")
for name, value in first.counterexample["inputs"].items():
    print(f"  {name} = {value}")


def pv(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        main(list(argv))
    return out.getvalue().strip()


print("\nEach value is a pv operand, ready to replay through the command line")
print("tool. With the correct product installed, both groupings agree to rounding:")
a, b, c = (json.dumps(first.counterexample["inputs"][k]) for k in "abc")
print(f"  pv mul $(pv mul a b) c = {pv('mul', pv('mul', a, b), c)}")
print(f"  pv mul a $(pv mul b c) = {pv('mul', a, pv('mul', b, c))}")
