"""Shared pieces of the harness: statistics, spans, memory and run context."""

import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

now_ns = time.perf_counter_ns

# Nines ladder for tail percentiles.  A workload's tail is the highest rung
# with at least TAIL_BEYOND samples beyond it in the smallest run allowed
# (its MIN_SAMPLES); it is fixed per workload so that a faster run, which
# gathers more samples, does not move the figure to a rarer event.
TAIL_LADDER = (90.0, 99.0, 99.9, 99.99, 99.999)
TAIL_BEYOND = 10
# On a shared virtual machine the CPU's speed can swing by 2x within
# seconds, and stay slow or fast for tens of seconds, as other tenants come
# and go.  A run is therefore cut into short rounds of equal work.  Its
# throughput and median come from the FAST_SHARE of rounds with the least
# time per item, which is the speed of the program when it has the CPU to
# itself; the tail comes from all rounds, since it is meant to show the slow
# end.
FAST_SHARE = 0.05


class SourceMissing(Exception):
    """The checkout holds no importable ``paravec`` under ``src/``."""


def import_paravec():
    """Import ``paravec`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "paravec" / "__init__.py").is_file():
        raise SourceMissing(f"no paravec package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import paravec

    origin = Path(paravec.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SourceMissing(f"paravec was imported from {origin}, not {SRC}")
    return paravec


def child_env():
    """Environment for ``python`` children that run this checkout's source.

    The bytecode cache is allowed, so warm-up calls leave compiled
    modules behind as an installed package would have them.
    """
    env = dict(os.environ)
    env.pop("PV_TOL", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def tail_percentile(n):
    """Highest ladder percentile with at least TAIL_BEYOND of n samples beyond it."""
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            best = p
    return best


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    k = max(0, min(n - 1, int(-(-p * n // 100)) - 1))
    return sorted_values[k]


def median(values):
    return statistics.median(values)


def min_rounds(samples_per_round, min_samples):
    """Rounds needed for ``min_samples`` latency samples, and at least 10."""
    return max(10, math.ceil(min_samples / samples_per_round))


def fastest(rows, key):
    """The FAST_SHARE of rows (at least one) with the smallest key."""
    rows = sorted(rows, key=key)
    return rows[: max(1, math.ceil(len(rows) * FAST_SHARE))]


def summarize(rounds, min_samples):
    """End-to-end figures from rounds of (wall ns, items, latency samples in us)."""
    fast = fastest(rounds, key=lambda r: r[0] / r[1])
    fast_lat = sorted(x for r in fast for x in r[2])
    lat = sorted(x for r in rounds for x in r[2])
    tail_p = tail_percentile(min_samples)
    return {
        "items_per_s": sum(r[1] for r in fast) / (sum(r[0] for r in fast) / 1e9),
        "item_p50_us": percentile(fast_lat, 50.0),
        "item_tail_us": percentile(lat, tail_p),
        "rounds": len(rounds),
        "fast_rounds": len(fast),
        "p50_samples": len(fast_lat),
        "tail_samples": len(lat),
        "tail_percentile": tail_p,
    }


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run_context(workload, seed, seconds, trace):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


class Spans:
    """In-memory span log: (name, start_ns, end_ns, parent id) per span.

    A span's id is its index; ``open`` reserves an id for a span whose end
    is not known yet so that children can name it as parent.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.rows = []

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name, parent=-1):
        self.rows.append([self.name_id(name), now_ns(), 0, parent])
        return len(self.rows) - 1

    def close(self, span_id):
        self.rows[span_id][2] = now_ns()

    def add(self, name_id, start, end, parent):
        self.rows.append((name_id, start, end, parent))

    def duration(self, span_id):
        row = self.rows[span_id]
        return row[2] - row[1]

    def durations_ns(self, parents):
        """Durations of the spans under the given parent ids, grouped by name."""
        out = {name: [] for name in self.names}
        names = self.names
        for nid, start, end, parent in self.rows:
            if parent in parents:
                out[names[nid]].append(end - start)
        return out

    def fastest_children(self, parent_ids):
        """(durations grouped by name, their parents' wall ns, parent count)
        for the fastest FAST_SHARE of the given spans.

        Traced passes repeat equal cycles of work; like the end-to-end
        figures, the per-layer figures come from the cycles least disturbed
        by other tenants of the machine.
        """
        fast = fastest(parent_ids, key=self.duration)
        return self.durations_ns(set(fast)), sum(self.duration(i) for i in fast), len(fast)

    def write(self, path, context):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(f"# {context}\n")
            out.write("id,name,start_ns,end_ns,parent\n")
            names = self.names
            for i, (nid, start, end, parent) in enumerate(self.rows):
                out.write(f"{i},{names[nid]},{start},{end},{parent}\n")
