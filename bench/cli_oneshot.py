"""The ``cli-oneshot`` workload: one ``python -m paravec <op>`` process per request.

Requests run one at a time (a closed loop with one caller).  Each is a
seeded choice of a non-fuzz subcommand and operands for which the
command succeeds.  A call is correct when it exits 0 and its stdout
equals the in-process library result serialised the way the command
documents (the ``wire`` format for paravectors and complex numbers, JSON
for ``classify``/``matrep``/``pauli`` with ``--json``).  The module form
is used because the ``pv`` entry point needs an install.
"""

import contextlib
import io
import json
import random
import subprocess
import sys

from common import ROOT, child_env, median, now_ns

COMMANDS = ("det", "mul", "inv", "classify", "angle", "rotate", "mirror", "matrep", "pauli")
REQUESTS = 256  # distinct requests drawn at set-up; the loop cycles through them
ROUND_CALLS = 10
MIN_SAMPLES = 100  # latency samples every run gathers; sets the tail percentile
SAMPLES_PER_ROUND = ROUND_CALLS
CALL_TIMEOUT_S = 60


def _operand(rng, proper):
    """Raw wire components of a paravector with a real positive determinant
    (``proper``) or any nonsingular one."""
    while True:
        w = [rng.uniform(-2.0, 2.0) for _ in range(8)]
        a, d, bx, by, bz, cx, cy, cz = w
        if proper:
            # make the determinant's imaginary part 2(a d - b.c) vanish
            if abs(a) < 0.5:
                continue
            w[1] = d = (bx * cx + by * cy + bz * cz) / a
        re = a * a - d * d - (bx * bx + by * by + bz * bz) + (cx * cx + cy * cy + cz * cz)
        im = 2.0 * (a * d - (bx * cx + by * cy + bz * cz))
        if (proper and re > 0.5) or (not proper and abs(complex(re, im)) > 0.5):
            return w


class Requests:
    """The request list with each request's expected stdout.

    An expected value of None marks a request whose in-process result
    raised; no output matches it.
    """

    def __init__(self, seed):
        import paravec
        from paravec import cli

        self.cli = cli
        self.pv = paravec
        rng = random.Random(f"cli-oneshot/{seed}")
        self.items = []
        for k in range(REQUESTS):
            # the first len(COMMANDS) requests cover every command once
            op = COMMANDS[k] if k < len(COMMANDS) else rng.choice(COMMANDS)
            g_text = json.dumps(_operand(rng, proper=op == "angle"))
            h_text = json.dumps(_operand(rng, proper=op in ("angle", "rotate")))
            if op in ("det", "inv"):
                args = [g_text]
            elif op in ("classify", "matrep", "pauli"):
                args = ["--json", g_text]
            elif op == "mirror":
                w = [rng.uniform(-2.0, 2.0) for _ in range(3)]
                w[0] += 3.0  # keeps w.w away from zero
                args = [g_text, json.dumps(w)]
            else:
                args = [g_text, h_text]
            try:
                out = self._expected(op, args)
            except paravec.ParavectorError:
                out = None
            self.items.append(([op] + args, out))
        self._cursor = 0

    def _expected(self, op, args):
        """The command's documented output, computed in this process."""
        pv, wire, tol = self.pv, self.pv.wire, self.pv.DEFAULT_TOL
        g = wire.parse_paravector(args[-1] if args[0] == "--json" else args[0])
        if op == "det":
            d = g.det()
            return wire.serialize_numbers([d.real, d.imag])
        if op == "inv":
            return wire.serialize_paravector(g.inverse(tol))
        if op == "classify":
            c = pv.classify(g, tol)
            return {
                "det": [c.det.real, c.det.imag],
                "proper": c.is_proper,
                "singular": c.is_singular,
                "orthogonal": c.is_orthogonal,
                "special": c.is_special,
                "unitar": c.is_unitar,
                "tol": {"abs": tol.abs, "rel": tol.rel},
            }
        if op in ("matrep", "pauli"):
            m = pv.to_matrix4(g) if op == "matrep" else pv.to_pauli(g)
            return [[[e.real, e.imag] for e in row] for row in m.rows]
        if op == "mirror":
            w = tuple(complex(c) for c in json.loads(args[1]))
            return wire.serialize_paravector(pv.mirror(g, w, tol))
        h = wire.parse_paravector(args[1])
        if op == "mul":
            return wire.serialize_paravector(g * h)
        if op == "angle":
            return wire.serialize_paravector(pv.angle(g, h, pv.Orientation.RIGHT, tol).value)
        axis = pv.RotationAxis.from_paravector(h, tol)  # rotate
        return wire.serialize_paravector(pv.rotate(g, axis, pv.Orientation.LEFT))

    def next_request(self):
        """The next (argv, expected) pair, cycling through the list."""
        item = self.items[self._cursor % len(self.items)]
        self._cursor += 1
        return item

    @staticmethod
    def matches(stdout, expected):
        text = stdout.strip()
        if expected is None:
            return False
        if isinstance(expected, str):
            return text == expected
        try:
            return json.loads(text) == expected
        except ValueError:
            return False


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failures = []

    def add(self, argv, ok, detail):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(f"{argv[0]}: {detail}")


def call(argv):
    """Run one ``python -m paravec`` process; (seconds, exit code, stdout, stderr)."""
    t0 = now_ns()
    proc = subprocess.run(
        [sys.executable, "-m", "paravec", *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CALL_TIMEOUT_S,
    )
    t1 = now_ns()
    return (t1 - t0) / 1e9, proc.returncode, proc.stdout, proc.stderr


def check_call(reqs, tally, argv, expected, code, stdout, stderr):
    if code != 0:
        tally.add(argv, False, f"exit {code}: {stderr.strip()[-200:]}")
    elif not reqs.matches(stdout, expected):
        tally.add(argv, False, f"stdout {stdout.strip()[:200]!r}")
    else:
        tally.add(argv, True, "")


def warm_up(reqs, tally):
    """One untimed call per command, so compiled bytecode is cached."""
    for argv, expected in reqs.items[: len(COMMANDS)]:
        _, code, out, err = call(argv)
        check_call(reqs, tally, argv, expected, code, out, err)


def run_round(reqs, tally):
    """ROUND_CALLS processes, one at a time: (wall ns, calls, call latencies in us)."""
    lat = []
    for _ in range(ROUND_CALLS):
        argv, expected = reqs.next_request()
        dt, code, out, err = call(argv)
        lat.append(dt * 1e6)
        check_call(reqs, tally, argv, expected, code, out, err)
    return sum(lat) * 1e3, ROUND_CALLS, lat


def _bare(code):
    """Exit status of ``python -c code`` with this checkout's environment."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        timeout=CALL_TIMEOUT_S,
    )
    return proc.returncode


def profile(reqs, seconds, tally, spans, root):
    """Interpreter start, ``import paravec.cli`` and in-process ``main``."""
    cycles = []
    start = now_ns()
    while now_ns() - start < seconds * 1e9 or not cycles:
        cid = spans.open("cli.cycle", root)
        for name, code in (("cli.interpreter", "pass"), ("cli.import_process", "import paravec.cli")):
            sid = spans.open(name, cid)
            status = _bare(code)
            spans.close(sid)
            tally.add([f"python -c {code!r}"], status == 0, f"exit {status}")
        for _ in range(len(COMMANDS)):
            argv, expected = reqs.next_request()
            buf = io.StringIO()
            sid = spans.open("cli.main", cid)
            with contextlib.redirect_stdout(buf):
                status = reqs.cli.main(argv)
            spans.close(sid)
            check_call(reqs, tally, argv, expected, status, buf.getvalue(), "")
        spans.close(cid)
        cycles.append(cid)
    durations, _, _ = spans.fastest_children(cycles)
    interp = median(durations["cli.interpreter"])
    return {
        "cli.interpreter_ms": interp / 1e6,
        "cli.import_ms": (median(durations["cli.import_process"]) - interp) / 1e6,
        "cli.main_us": median(durations["cli.main"]) / 1e3,
    }
