#!/usr/bin/env python3
"""Benchmark harness for paravec (stdlib only, one caller, no threads).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each a closed loop with one caller):

* ``fuzz-campaign``  repeated ``run_fuzz`` calls over all suites;
* ``algebra-mix``    a shuffled mix of public library operations;
* ``cli-oneshot``    one ``python -m paravec <op>`` process per request.

With ``--trace 0`` the run measures its workload for ``--seconds`` of
timed work and reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics instead, from spans recorded around every
public call, and writes the spans to ``.bench_out/spans-<workload>.csv``.
Every result is checked; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it give
the run context and the details behind the figures.  The harness imports
``paravec`` only from ``src/`` of the checkout it lives in and exits 2
when that is missing.
"""

import argparse
import json
import subprocess
import sys

import algebra_mix
import cli_oneshot
import fuzz_campaign
from common import (
    ROOT,
    SourceMissing,
    Spans,
    import_paravec,
    median,
    min_rounds,
    now_ns,
    peak_rss_mb,
    run_context,
    summarize,
)

WORKLOADS = {
    "fuzz-campaign": fuzz_campaign,
    "algebra-mix": algebra_mix,
    "cli-oneshot": cli_oneshot,
}
# Figures under the names the workloads are usually discussed with.
ALIASES = {
    "fuzz-campaign": {"items_per_s": ("trials_per_s", "1/s")},
    "algebra-mix": {
        "items_per_s": ("ops_per_s", "1/s"),
        "item_p50_us": ("request_p50_us", "us"),
        "item_tail_us": ("request_tail_us", "us"),
    },
    "cli-oneshot": {"item_p50_us": ("call_p50_ms", "ms"), "item_tail_us": ("call_tail_ms", "ms")},
}
E2E_UNITS = {
    "items_per_s": "1/s",
    "item_p50_us": "us",
    "item_tail_us": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_PROBES = 7  # fresh processes whose median set-up time is setup_s
PROBE_TIMEOUT_S = 60


def prepare(workload, seed):
    """Harness-only input generation, kept out of the set-up time."""
    return algebra_mix.Inputs(seed) if workload == "algebra-mix" else seed


def build(workload, prepared):
    """The workload's set-up: imports and library work before measuring."""
    if workload == "fuzz-campaign":
        return fuzz_campaign.Campaign(prepared)
    if workload == "algebra-mix":
        return algebra_mix.Mix(prepared)
    return cli_oneshot.Requests(prepared)


def setup_probe(workload, seed):
    """Set-up time of one fresh process, import of ``paravec`` included."""
    prepared = prepare(workload, seed)
    t0 = now_ns()
    import_paravec()
    build(workload, prepared)
    return (now_ns() - t0) / 1e9


def probe_setup_once(workload, seed):
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def install_mutant(name):
    """Plant one of the library's documented defects for the whole run."""
    from paravec import fuzz

    if name not in fuzz.MUTANTS:
        raise SystemExit(f"bench: unknown mutant {name!r}; choose from {sorted(fuzz.MUTANTS)}")
    for obj, attr, replacement in fuzz.MUTANTS[name]:
        setattr(obj, attr, replacement)


def fuzz_context():
    from paravec import fuzz

    report = fuzz.run_fuzz(seed=0, trials=1)
    return {"fuzz_properties": len(report.properties), "fuzz_suites": list(fuzz.SUITES)}


def measure(workload, seed, state, seconds):
    """Rounds until ``seconds`` of timed work; end-to-end figures and the tally.

    The set-up probes run between rounds, spread over the run, so that
    setup_s sees the same machine as the rest of the figures.  In
    cli-oneshot they run afterwards instead, because the largest child
    process is that workload's peak_rss_mb.
    """
    mod = WORKLOADS[workload]
    tally = mod.Tally()
    if workload == "cli-oneshot":
        cli_oneshot.warm_up(state, tally)
    need = min_rounds(mod.SAMPLES_PER_ROUND, mod.MIN_SAMPLES)
    interleave = workload != "cli-oneshot"
    rounds, setups = [], []
    timed = 0
    while timed < seconds * 1e9 or len(rounds) < need:
        if interleave and len(setups) < SETUP_PROBES and timed >= len(setups) * seconds * 1e9 / SETUP_PROBES:
            setups.append(probe_setup_once(workload, seed))
        rounds.append(mod.run_round(state, tally))
        timed += rounds[-1][0]
    figs = summarize(rounds, mod.MIN_SAMPLES)
    figs["peak_rss_mb"] = peak_rss_mb(children=not interleave)
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup_once(workload, seed))
    figs["setup_s"] = median(setups)
    return tally, figs


def profile_all(workload, seed, seconds):
    """A traced run: every layer's figures, a third of the time each."""
    tallies = (algebra_mix.Tally(), fuzz_campaign.Tally(), cli_oneshot.Tally())
    mix = algebra_mix.Mix(algebra_mix.Inputs(seed))
    camp = fuzz_campaign.Campaign(seed)
    reqs = cli_oneshot.Requests(seed)
    cli_oneshot.warm_up(reqs, tallies[2])
    spans = Spans()
    root = spans.open(f"run.{workload}")
    share = seconds / 3.0
    metrics = {}
    metrics.update(algebra_mix.profile(mix, share, tallies[0], spans, root))
    metrics.update(fuzz_campaign.profile(camp, share, tallies[1], spans, root))
    metrics.update(cli_oneshot.profile(reqs, share, tallies[2], spans, root))
    spans.close(root)
    return tallies, metrics, spans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--mutant", default=None, help="plant a documented defect (self-test)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if args.setup_probe:
        try:
            print(setup_probe(args.workload, args.seed))
        except SourceMissing as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        return 0

    context = run_context(args.workload, args.seed, args.seconds, args.trace)
    try:
        import_paravec()
    except SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.mutant is not None:
        install_mutant(args.mutant)

    if args.trace:
        tallies, metrics, spans = profile_all(args.workload, args.seed, args.seconds)
        context.update(fuzz_context())
        spans.write(ROOT / ".bench_out" / f"spans-{args.workload}.csv", json.dumps(context))
        attempted = sum(t.attempted for t in tallies)
        failed = sum(t.failed for t in tallies)
        detail = {"spans": len(spans.rows), "first_failures": [f for t in tallies for f in t.first_failures]}
        out = {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}
    else:
        state = build(args.workload, prepare(args.workload, args.seed))
        tally, figs = measure(args.workload, args.seed, state, args.seconds)
        context.update(fuzz_context())
        attempted, failed = tally.attempted, tally.failed
        detail = {}
        for key, (alias, unit) in ALIASES[args.workload].items():
            detail[alias] = {"value": figs[key] / 1e3 if unit == "ms" else figs[key], "unit": unit}
        detail.update({k: v for k, v in figs.items() if k not in E2E_UNITS})
        detail["first_failures"] = tally.first_failures
        if args.workload == "algebra-mix":
            detail["expected_domain_errors"] = tally.domain
        out = {name: {"value": figs[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    detail["failed_share"] = failed / attempted if attempted else 1.0
    print("context " + json.dumps(context))
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0



def _unit(name):
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), (".ms_per_trial", "ms"), ("_share", "share"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
