"""The ``fuzz-campaign`` workload: back-to-back ``run_fuzz`` calls.

One caller runs ``run_fuzz(seed_k, trials=1)`` over all suites with no
mutant, for a fresh seed ``seed_k`` each call, drawn from the workload
seed.  This is the work of the acceptance gate cut into single trials,
so that each trial's latency can be timed from outside; the per-call
overhead of ``run_fuzz`` is about 2% of a trial.  A call is correct when
its report has no failing property.
"""

import random

from common import median, now_ns

ROUND_TRIALS = 20  # one-trial calls per round
MIN_SAMPLES = 1000  # latency samples every run gathers; sets the tail percentile
SAMPLES_PER_ROUND = ROUND_TRIALS
PROFILE_TRIALS = 10  # trials per call in the traced decomposition


class Campaign:
    def __init__(self, seed):
        from paravec import fuzz

        self.fuzz = fuzz
        self.rng = random.Random(f"fuzz-campaign/{seed}")
        warm = fuzz.run_fuzz(seed=self.next_seed(), trials=1)
        self.properties = len(warm.properties)
        self.suites = list(fuzz.SUITES)

    def next_seed(self):
        return self.rng.getrandbits(63)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failures = []

    def add(self, report):
        self.attempted += report.trials * len(report.properties)
        self.failed += report.total_failures
        if report.total_failures and len(self.first_failures) < 5:
            bad = [r.name for r in report.properties if r.fails]
            self.first_failures.append(f"seed {report.seed}: {bad[:5]}")


def run_round(camp, tally):
    """ROUND_TRIALS one-trial campaigns: (wall ns, trials, trial latencies in us)."""
    run_fuzz = camp.fuzz.run_fuzz
    lat = []
    start = t0 = now_ns()
    for _ in range(ROUND_TRIALS):
        report = run_fuzz(seed=camp.next_seed(), trials=1)
        t1 = now_ns()
        lat.append((t1 - t0) / 1e3)
        tally.add(report)
        t0 = t1
    return t0 - start, ROUND_TRIALS, lat


def profile(camp, seconds, tally, spans, root):
    """Pack generation, each suite alone, and the whole campaign, as spans."""
    fuzz = camp.fuzz
    cycles = []
    start = now_ns()
    while now_ns() - start < seconds * 1e9 or not cycles:
        seed = camp.next_seed()
        cid = spans.open("fuzz.cycle", root)
        sid = spans.open("fuzz.run_fuzz", cid)
        report = fuzz.run_fuzz(seed=seed, trials=PROFILE_TRIALS)
        spans.close(sid)
        tally.add(report)
        for i in range(PROFILE_TRIALS):
            sid = spans.open("fuzz.make_pack", cid)
            fuzz.make_pack(seed, i)
            spans.close(sid)
        for suite in camp.suites:
            sid = spans.open(f"fuzz.suite.{suite}", cid)
            report = fuzz.run_fuzz(seed=seed, trials=PROFILE_TRIALS, suites=[suite])
            spans.close(sid)
            tally.add(report)
        spans.close(cid)
        cycles.append(cid)
    durations, _, _ = spans.fastest_children(cycles)
    pack_ns = median(durations["fuzz.make_pack"])
    metrics = {
        "fuzz.make_pack_us": pack_ns / 1e3,
        "fuzz.pack_share": pack_ns * PROFILE_TRIALS / median(durations["fuzz.run_fuzz"]),
        "fuzz.properties": camp.properties,
    }
    for suite in camp.suites:
        metrics[f"fuzz.suite.{suite}.ms_per_trial"] = median(durations[f"fuzz.suite.{suite}"]) / 1e6 / PROFILE_TRIALS
    return metrics
