"""The ``algebra-mix`` workload: one library caller, a shuffled operation mix.

Every round runs the same composition: each of the twenty operations in
``OPS`` appears ``PER_ROUND`` times, in an order and on operands drawn
from the seeded generator.  Operands come from a pool built once at
set-up.  The mix is chosen so that a change which speeds one use of a
layer but slows another shows up:

* parse beside serialize, and cheap embeds (``to_matrix4``,
  ``to_pauli``) beside Gauss-Jordan inverses of the same matrices;
* one operand in ``SINGULAR_ONE_IN`` is singular wherever the operation
  has a domain (``inverse``, ``angle``, ``is_parallel``) or a verdict
  that depends on it (``classify``, ``Matrix4.det``); the
  ``SingularParavector`` or ``ImproperParavector`` raised for it is the
  correct result and is counted as such;
* operand magnitudes are spread log-uniformly over ``MAGNITUDES``, inside
  the range where the library's absolute tolerance floor decides nothing.

Results are checked after each round, outside the timed region, against
``oracle``, which rebuilds every expected value from raw components.
"""

import math
import operator
import random

import oracle
from common import fastest, median, now_ns

OPS = (
    ("construct", "core"),
    ("add", "core"),
    ("mul", "core"),
    ("det", "core"),
    ("inverse", "core"),
    ("classify", "core"),
    ("integrated", "products"),
    ("scalar_product", "products"),
    ("angle", "geometry"),
    ("is_parallel", "geometry"),
    ("rotate", "transforms"),
    ("rotate_vector", "transforms"),
    ("mirror", "transforms"),
    ("to_matrix4", "matrices"),
    ("matmul4", "matrices"),
    ("det4", "matrices"),
    ("inverse4", "matrices"),
    ("to_pauli", "matrices"),
    ("parse", "wire"),
    ("serialize", "wire"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in OPS))
PER_ROUND = 250  # 20 operations x 250 = 5000 calls per round
REQUEST_CALLS = 10  # consecutive calls timed together as one request
MIN_SAMPLES = 1000  # latency samples every run gathers; sets the tail percentile
SAMPLES_PER_ROUND = len(OPS) * PER_ROUND // REQUEST_CALLS
POOL_SIZE = 1024
SINGULAR_ONE_IN = 8
MAGNITUDES = (1e-2, 1e4)
# Pool shares of the operand kinds; "singular" is 1/SINGULAR_ONE_IN.
KINDS = (("generic", 0.35), ("proper", 0.30), ("unit", 0.10), ("spatial", 0.125), ("singular", 0.125))
AUX_SIZE = 256  # rotation axes, spatial rotations, vectors, mirror normals
MARGIN = 0.05  # |det| (or det.real) of a regular operand is at least MARGIN * scale**2


# -- inputs: raw components drawn by the harness ---------------------------


def _magnitude(rng):
    lo, hi = (math.log10(m) for m in MAGNITUDES)
    return 10.0 ** rng.uniform(lo, hi)


def _cplx(rng, m):
    return complex(rng.uniform(-m, m), rng.uniform(-m, m))


def _unit3(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(c * c for c in v))
        if n > 1e-3:
            return tuple(c / n for c in v)


def _raw_operand(rng, kind):
    m = _magnitude(rng)
    if kind == "generic":
        while True:
            p = tuple(_cplx(rng, m) for _ in range(4))
            if abs(oracle.det(p)) >= MARGIN * oracle.scale(p) ** 2:
                return p
    if kind in ("proper", "unit"):
        while True:
            b = [rng.uniform(-m, m) for _ in range(3)]
            c = [rng.uniform(-m, m) for _ in range(3)]
            a = rng.choice((-1.0, 1.0)) * rng.uniform(0.5 * m, 2.0 * m)
            d = (b[0] * c[0] + b[1] * c[1] + b[2] * c[2]) / a  # makes det real
            p = (complex(a, d), complex(b[0], c[0]), complex(b[1], c[1]), complex(b[2], c[2]))
            if oracle.det(p).real >= MARGIN * oracle.scale(p) ** 2:
                return oracle.normalize(p) if kind == "unit" else p
    if kind == "spatial":
        n = _unit3(rng)
        phi = rng.uniform(0.0, math.pi)
        return (complex(math.cos(phi)),) + tuple(1j * c * math.sin(phi) for c in n)
    # singular: v = s*u with u.u = 1, so det = s*s - s*s*(u.u) vanishes
    s = _cplx(rng, m)
    if rng.random() < 0.5:
        u = _unit3(rng)
    else:
        n1 = _unit3(rng)
        n2 = _unit3(rng)
        k = sum(x * y for x, y in zip(n1, n2))
        n2 = [y - k * x for x, y in zip(n1, n2)]
        norm = math.sqrt(sum(c * c for c in n2))
        n2 = [c / norm for c in n2]
        t = rng.uniform(0.0, 1.0)
        u = tuple(math.cosh(t) * x + 1j * math.sinh(t) * y for x, y in zip(n1, n2))
    return (s,) + tuple(s * c for c in u)


class Inputs:
    """Raw operands, drawn from the seed without touching the library."""

    def __init__(self, seed):
        rng = random.Random(f"algebra-mix/{seed}")
        kinds = []
        for kind, share in KINDS:
            kinds += [kind] * round(share * POOL_SIZE)
        kinds = kinds[:POOL_SIZE]
        rng.shuffle(kinds)
        self.raw = [_raw_operand(rng, k) for k in kinds]
        self.singular = [i for i, k in enumerate(kinds) if k == "singular"]
        self.regular = [i for i, k in enumerate(kinds) if k != "singular"]
        self.proper = [i for i, k in enumerate(kinds) if k in ("proper", "unit", "spatial")]
        # A partner is a complex multiple, so (raw[i], partner[i]) is parallel.
        self.partner = []
        for p in self.raw:
            lam = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            self.partner.append(oracle.smul(lam, p))
        self.axis_src = [rng.choice(self.proper) for _ in range(AUX_SIZE)]
        self.rotations = [(_unit3(rng), rng.uniform(0.0, math.pi)) for _ in range(AUX_SIZE)]
        self.vectors = [tuple(_magnitude(rng) * c for c in _unit3(rng)) for _ in range(AUX_SIZE)]
        self.normals = []
        for _ in range(AUX_SIZE):
            n = _unit3(rng)
            lam = _magnitude(rng) if rng.random() < 0.5 else _cplx(rng, _magnitude(rng))
            self.normals.append(tuple(complex(lam * c) for c in n))
        self.texts = [oracle.wire_text(p) for p in self.raw]
        self.rng = rng


# -- set-up: the library objects the mix calls on --------------------------


class Mix:
    """The operand pool as library objects, and the operation table."""

    def __init__(self, inputs):
        import paravec
        from paravec import errors, matrices

        self.inp = inputs
        pv = paravec.Paravector
        self.Paravector = pv
        self.errors = errors
        self.orientations = (paravec.Orientation.RIGHT, paravec.Orientation.LEFT)
        self.pvs = [pv(p[0], p[1:]) for p in inputs.raw]
        self.partners = [pv(p[0], p[1:]) for p in inputs.partner]
        self.mats = [paravec.to_matrix4(p) for p in self.pvs]
        self.axes = [paravec.RotationAxis.from_paravector(self.pvs[i]) for i in inputs.axis_src]
        self.rotations = [paravec.SpatialRotation(n, phi) for n, phi in inputs.rotations]
        self.fns = {
            "construct": pv,
            "add": operator.add,
            "mul": operator.mul,
            "det": pv.det,
            "inverse": pv.inverse,
            "classify": paravec.classify,
            "integrated": paravec.integrated,
            "scalar_product": paravec.scalar_product,
            "angle": paravec.angle,
            "is_parallel": paravec.is_parallel,
            "rotate": paravec.rotate,
            "rotate_vector": paravec.rotate_vector,
            "mirror": paravec.mirror,
            "to_matrix4": paravec.to_matrix4,
            "matmul4": operator.matmul,
            "det4": matrices.Matrix4.det,
            "inverse4": matrices.Matrix4.inverse,
            "to_pauli": paravec.to_pauli,
            "parse": paravec.parse_paravector,
            "serialize": paravec.serialize_paravector,
        }

    # Each draw returns (args, info); info is what the check needs.

    def _pick(self, rng, pool):
        return pool[int(rng.random() * len(pool))]

    def _domain_pick(self, rng, regular):
        if rng.random() < 1.0 / SINGULAR_ONE_IN:
            return self._pick(rng, self.inp.singular)
        return self._pick(rng, regular)

    def draw(self, name, rng):
        inp, pvs = self.inp, self.pvs
        n = len(pvs)
        i = int(rng.random() * n)
        j = int(rng.random() * n)
        if name == "construct":
            p = inp.raw[i]
            return (p[0], p[1:]), i
        if name in ("add", "mul", "scalar_product", "matmul4"):
            objs = self.mats if name == "matmul4" else pvs
            return (objs[i], objs[j]), (i, j)
        if name in ("det", "classify", "to_matrix4", "to_pauli", "serialize"):
            return (pvs[i],), i
        if name == "det4":
            return (self.mats[i],), i
        if name == "inverse":
            i = self._domain_pick(rng, inp.regular)
            return (pvs[i],), i
        if name == "inverse4":
            i = self._pick(rng, inp.regular)
            return (self.mats[i],), i
        if name == "integrated":
            o = int(rng.random() * 2)
            return (pvs[i], pvs[j], self.orientations[o]), (i, j, o)
        if name == "angle":
            i = self._domain_pick(rng, inp.proper)
            j = self._domain_pick(rng, inp.proper)
            o = int(rng.random() * 2)
            return (pvs[i], pvs[j], self.orientations[o]), (i, j, o)
        if name == "is_parallel":
            i = self._domain_pick(rng, inp.regular)
            if rng.random() < 0.5:
                return (pvs[i], self.partners[i]), (i, None)
            j = self._pick(rng, inp.regular)
            return (pvs[i], pvs[j]), (i, j)
        if name == "rotate":
            a = int(rng.random() * AUX_SIZE)
            o = int(rng.random() * 2)
            return (pvs[i], self.axes[a], self.orientations[o]), (i, a, o)
        if name == "rotate_vector":
            a = int(rng.random() * AUX_SIZE)
            r = int(rng.random() * AUX_SIZE)
            return (inp.vectors[a], self.rotations[r]), (a, r)
        if name == "mirror":
            a = int(rng.random() * AUX_SIZE)
            return (pvs[i], inp.normals[a]), (i, a)
        if name == "parse":
            return (inp.texts[i],), i
        raise ValueError(f"unknown operation {name!r}")

    def make_round(self, rng):
        """One round: every operation PER_ROUND times, shuffled."""
        order = [k for k in range(len(OPS)) for _ in range(PER_ROUND)]
        rng.shuffle(order)
        calls, infos = [], []
        fns = self.fns
        for k in order:
            name = OPS[k][0]
            args, info = self.draw(name, rng)
            calls.append((fns[name], args))
            infos.append(info)
        return order, calls, infos

    # -- checking -------------------------------------------------------------

    def _comps(self, r):
        if not isinstance(r, self.Paravector):
            r = r.value  # IntegratedProduct, Angle, RotationAxis
        return (r.s,) + r.v

    def check(self, name, info, r):
        """'ok', 'domain' (an expected domain error) or 'fail'."""
        try:
            return self._check(name, info, r)
        except (AttributeError, TypeError, ValueError, IndexError):
            return "fail"

    def _check(self, name, info, r):
        raw, inp = self.inp.raw, self.inp
        if isinstance(r, Exception):
            expected = self._expected_error(name, info)
            if expected is not None and type(r) is expected:
                return "domain"
            return "fail"
        if self._expected_error(name, info) is not None:
            return "fail"
        sc = oracle.scale
        if name == "construct":
            return "ok" if self._comps(r) == raw[info] else "fail"
        if name == "add":
            a, b = raw[info[0]], raw[info[1]]
            return _ok(oracle.close(self._comps(r), oracle.add(a, b), oracle.REL * max(sc(a), sc(b))))
        if name == "mul":
            a, b = raw[info[0]], raw[info[1]]
            return _ok(oracle.close(self._comps(r), oracle.mul(a, b), oracle.REL * sc(a) * sc(b)))
        if name == "det":
            a = raw[info]
            return _ok(abs(r - oracle.det(a)) <= oracle.REL * sc(a) ** 2)
        if name == "inverse":
            e = oracle.inverse(raw[info])
            return _ok(oracle.close(self._comps(r), e, oracle.REL * sc(e)))
        if name == "classify":
            a = raw[info]
            d, flags = oracle.classify(a)
            got = (r.is_proper, r.is_singular, r.is_orthogonal, r.is_special, r.is_unitar)
            return _ok(got == flags and abs(r.det - d) <= oracle.REL * sc(a) ** 2)
        if name == "integrated":
            a, b = raw[info[0]], raw[info[1]]
            e = oracle.mul(a, oracle.rev(b)) if info[2] == 0 else oracle.mul(oracle.rev(a), b)
            return _ok(oracle.close(self._comps(r), e, oracle.REL * sc(a) * sc(b)))
        if name == "scalar_product":
            a, b = raw[info[0]], raw[info[1]]
            e = oracle.mul(a, oracle.rev(b))[0]
            return _ok(abs(r - e) <= oracle.REL * sc(a) * sc(b))
        if name == "angle":
            a, b = raw[info[0]], raw[info[1]]
            e = oracle.mul(a, oracle.rev(b)) if info[2] == 0 else oracle.mul(oracle.rev(a), b)
            k = 1.0 / math.sqrt(oracle.det(a).real * oracle.det(b).real)
            return _ok(oracle.close(self._comps(r), oracle.smul(k, e), oracle.REL * k * sc(a) * sc(b)))
        if name == "is_parallel":
            i, j = info
            b = inp.partner[i] if j is None else raw[j]
            return _ok(r is oracle.is_parallel(raw[i], b))
        if name == "rotate":
            g = raw[info[0]]
            lam = oracle.normalize(raw[inp.axis_src[info[1]]])
            if info[2] == 0:
                e = oracle.mul(oracle.mul(lam, g), oracle.rev(lam))
            else:
                e = oracle.mul(oracle.mul(oracle.rev(lam), g), lam)
            return _ok(oracle.close(self._comps(r), e, oracle.REL * sc(g) * sc(lam) ** 2))
        if name == "rotate_vector":
            w = inp.vectors[info[0]]
            n, phi = inp.rotations[info[1]]
            e = oracle.rodrigues(w, n, 2.0 * phi)
            return _ok(oracle.close(r, e, oracle.REL * max(abs(c) for c in w)))
        if name == "mirror":
            g = raw[info[0]]
            w = inp.normals[info[1]]
            plane = (0j,) + w
            ww = w[0] * w[0] + w[1] * w[1] + w[2] * w[2]
            e = oracle.smul(-1.0 / ww, oracle.mul(oracle.mul(plane, g), plane))
            return _ok(oracle.close(self._comps(r), e, oracle.REL * sc(g) * sc(w) ** 2 / abs(ww)))
        if name in ("to_matrix4", "to_pauli"):
            a = raw[info]
            e = oracle.embed4(a) if name == "to_matrix4" else oracle.pauli(a)
            return _ok(oracle.close(oracle.flat(r.rows), oracle.flat(e), oracle.REL * sc(a)))
        if name == "matmul4":
            a, b = raw[info[0]], raw[info[1]]
            e = oracle.embed4(oracle.mul(a, b))
            return _ok(oracle.close(oracle.flat(r.rows), oracle.flat(e), oracle.REL * sc(a) * sc(b)))
        if name == "det4":
            a = raw[info]
            return _ok(abs(r - oracle.det(a) ** 2) <= oracle.REL * sc(a) ** 4)
        if name == "inverse4":
            e = oracle.embed4(oracle.inverse(raw[info]))
            return _ok(oracle.close(oracle.flat(r.rows), oracle.flat(e), oracle.REL * sc(oracle.flat(e))))
        if name == "parse":
            return _ok(self._comps(r) == raw[info])
        if name == "serialize":
            return _ok(r == inp.texts[info])
        raise ValueError(f"unknown operation {name!r}")

    def _expected_error(self, name, info):
        raw = self.inp.raw
        err = self.errors
        if name == "inverse" and oracle.is_singular(raw[info]):
            return err.SingularParavector
        if name == "angle" and not (oracle.is_proper(raw[info[0]]) and oracle.is_proper(raw[info[1]])):
            return err.ImproperParavector
        if name == "is_parallel":
            i, j = info
            if oracle.is_singular(raw[i]) or (j is not None and oracle.is_singular(raw[j])):
                return err.SingularParavector
        return None


def _ok(flag):
    return "ok" if flag else "fail"


# -- running ------------------------------------------------------------------


def run_plain(calls):
    """Run a round; returns (wall ns, per-request latencies in us, results)."""
    res = []
    lat = []
    append = res.append
    start = t0 = now_ns()
    for j in range(0, len(calls), REQUEST_CALLS):
        for fn, args in calls[j : j + REQUEST_CALLS]:
            try:
                append(fn(*args))
            except Exception as exc:  # judged by the check after the round
                append(exc)
        t1 = now_ns()
        lat.append((t1 - t0) / 1e3)
        t0 = t1
    return t0 - start, lat, res


def run_traced(calls, order, spans, name_ids, parent):
    """Run a round recording one span per call under ``parent``; the results."""
    res = [None] * len(calls)
    add = spans.add
    i = 0
    for fn, args in calls:
        t0 = now_ns()
        try:
            r = fn(*args)
        except Exception as exc:  # judged by the check after the round
            r = exc
        add(name_ids[order[i]], t0, now_ns(), parent)
        res[i] = r
        i += 1
    return res


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.domain = 0
        self.first_failures = []

    def check_round(self, mix, order, infos, results):
        for k, info, r in zip(order, infos, results):
            name = OPS[k][0]
            outcome = mix.check(name, info, r)
            self.attempted += 1
            if outcome == "domain":
                self.domain += 1
            elif outcome == "fail":
                self.failed += 1
                if len(self.first_failures) < 5:
                    self.first_failures.append(f"{name}{info!r} -> {r!r}")


def run_round(mix, tally):
    """One untraced, checked round: (wall ns, calls, request latencies in us).

    Throughput counts library calls; latency is taken per request of
    REQUEST_CALLS consecutive calls, because the per-call latencies of a
    twenty-way mix fall into clusters and their median jumps between them.
    """
    order, calls, infos = mix.make_round(mix.inp.rng)
    wall, lat, results = run_plain(calls)
    tally.check_round(mix, order, infos, results)
    return wall, len(calls), lat


def profile(mix, seconds, tally, spans, root):
    """Alternate untraced and traced rounds; per-layer figures from the spans."""
    rng = mix.inp.rng
    span_names = [f"{layer}.{name}" for name, layer in OPS]
    name_ids = [spans.name_id(s) for s in span_names]
    plain_walls, round_ids = [], []
    timed = 0
    while timed < seconds * 1e9 or not round_ids:
        order, calls, infos = mix.make_round(rng)
        wall, _, results = run_plain(calls)
        plain_walls.append(wall)
        tally.check_round(mix, order, infos, results)
        order, calls, infos = mix.make_round(rng)
        rid = spans.open("algebra-mix.round", root)
        results = run_traced(calls, order, spans, name_ids, rid)
        spans.close(rid)
        round_ids.append(rid)
        timed += wall + spans.duration(rid)
        tally.check_round(mix, order, infos, results)
    durations, traced_wall, traced_rounds = spans.fastest_children(round_ids)
    fast_plain = fastest(plain_walls, key=float)
    metrics = {}
    busy = dict.fromkeys(LAYERS, 0)
    for (name, layer), sname in zip(OPS, span_names):
        d = durations[sname]
        metrics[f"{layer}.{name}_us"] = median(d) / 1e3
        busy[layer] += sum(d)
    for layer in LAYERS:
        metrics[f"{layer}.busy_share"] = busy[layer] / traced_wall
    # traced over untraced calls per second, both over their fastest rounds
    metrics["trace.ops_per_s_ratio"] = (sum(fast_plain) / len(fast_plain)) / (traced_wall / traced_rounds)
    return metrics
