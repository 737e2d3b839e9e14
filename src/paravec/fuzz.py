"""Seeded property-fuzz campaigns over the whole algebra.

Every algebraic law the package promises is registered here as a named
property grouped into suites (ring, involution, detvig, product,
parallel, metric, angle, rotation, mirror, matrix, orthogonal).  A
campaign draws one deterministic pack of operands per trial and evaluates
every property against it; the report lists pass/fail counts and, per
property, the first failing trial with the operands its law takes.

Determinism and portability
---------------------------
Randomness comes from SplitMix64, a published 64-bit generator:
the state advances by the odd constant 0x9E3779B97F4A7C15 and each
output is the finalizer ``z ^= z>>30, z*=0xBF58476D1CE4E5B9, z ^= z>>27,
z *= 0x94D049BB133111EB, z ^= z>>31`` applied to the state.  Trial i of a
campaign with seed s has the trial seed ``t = mix(mix(s) + GAMMA*(i+1))``,
where ``mix`` is that same finalizer.  The operand families come from a table
with one row per draw, such as ``"a b c"`` or ``"perp1 perp2"``; each family is
a non-data descriptor of ``TrialPack`` whose first read runs its row with the
row's own generator, seeded with ``mix(t ^ crc32(names))`` (Steele, Lea and
Flood, OOPSLA 2014).  So a run draws only the rows its laws read, the order of
the reads changes no value, and a report is a pure function of (seed, trials,
tolerance).  Components
are drawn uniformly from [-2, 2]; with 10% probability the triple ``a, b, c``
is a structured corner case (zero, identity, a singular pair, special/unitar
forms, scaled copies, extreme and tiny components).  Generation calls no
library arithmetic, except that the library builds the rotations and axes;
a defect that raises there fails, with its error, only the laws taking them.

Laws and judgement
------------------
Each suite is a table of ``(name, law)`` rows in report order, QuickCheck's
"laws as data" (Claessen and Hughes, ICFP 2000).  A law is a function of the
pack families it takes, named by its parameters and followed by ``tol``, as
in ``lambda a, b, tol: (a + b, b + a)``; the registry reads those names once.
A law returns or yields claims, which ``_holds`` asserts in order; ``_near``
gives a law a verdict to combine.  Both take the verdict of ``_weigh``, the one
place that judges a claim: by the library's own ``approx_eq`` for paravectors
and matrices, else by an error against a threshold, whose scale a claim may give.

Mutation self-test
------------------
``run_fuzz(..., mutant=...)`` temporarily installs one of three
documented defects - ``mul-drop-cross`` (drops the cross term of the
product), ``rev-sign`` (reversion also flips the scalar sign), and
``matrix-transpose`` (the 4x4 embedding is transposed) - to demonstrate
the suite catches each within a small number of trials.
"""

from __future__ import annotations

import cmath
import math
import zlib
from contextlib import contextmanager
from functools import partial
from itertools import takewhile
from operator import attrgetter, methodcaller, sub

from . import core, matrices
from .core import (
    DEFAULT_TOL,
    ONE,
    ZERO,
    Paravector,
    Tolerance,
    _make,
    _pv_scale,
    _scale,
    _Value,
    classify,
    component_scale,
    vcross,
    vdot,
    vnorm,
)
from .geometry import (
    Angle,
    angle,
    compose_angles,
    explement,
    is_parallel,
    is_perpendicular,
    is_singularly_parallel,
    is_spatially_parallel,
    parallel_ratio,
)
from .products import _LEFT as LEFT, _RIGHT as RIGHT, integrated, scalar_product, vector_product
from .transforms import (
    RotationAxis,
    SpatialRotation,
    axial_symmetry,
    compose_mirrors,
    euler_compose,
    is_orthogonal_transform,
    mirror,
    rotate,
    rotate_vector,
    similarity,
)
from .wire import to_wire

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(x):
    """SplitMix64 output finalizer (a bijective 64-bit scrambler)."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class SplitMix64:
    """The SplitMix64 pseudo-random generator."""

    __slots__ = ("_state",)

    def __init__(self, seed):
        self._state = seed & _MASK

    def next_u64(self):
        self._state = (self._state + _GAMMA) & _MASK
        return mix64(self._state)

    def u01(self):
        """Uniform double in [0, 1) with 53 random bits."""
        return self.uniform(0.0, 1.0)  # 0.0 + 1.0 * u is u, bit for bit

    def uniform(self, lo, hi):
        """``lo + (hi - lo) * u01()``, with the generator step inlined."""
        x = self._state = (self._state + _GAMMA) & _MASK
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        return lo + (hi - lo) * (((x ^ (x >> 31)) >> 11) * 2.0**-53)

    def below(self, n):
        return self.next_u64() % n


def trial_seed(seed, index):
    """Seed of the per-trial generator; distinct scrambled streams per index."""
    return mix64((mix64(seed) + _GAMMA * (index + 1)) & _MASK)


# ---------------------------------------------------------------------------
# Trial generation.  Draws compute with their own raw-component expressions
# (``_norm``, ``_dot``, ``_sprod``, ``_times``), each in the evaluation order of
# the library call it replaces, and build values only through ``Paravector``
# and the trusted ``_make``, so a library defect cannot skew the draws.
# ---------------------------------------------------------------------------


def _parts(a, d, b, c):
    """The paravector ``{a + i d | b + i c}`` of eight real parts."""
    return _make(complex(a, d), (complex(b[0], c[0]), complex(b[1], c[1]), complex(b[2], c[2])))


def _rev(p):
    """The reversion of ``p``: its vector part negated."""
    v = p.v
    return _make(p.s, (-v[0], -v[1], -v[2]))


def _draw_pv(rng):
    x = [rng.uniform(-2, 2) for _ in range(8)]
    return _parts(x[0], x[1], x[2:5], x[5:])


def _draw_complex(rng, min_abs=0.0):
    while True:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) >= min_abs:
            return z


def _draw_real(rng, min_abs):
    while True:
        x = rng.uniform(-2, 2)
        if abs(x) >= min_abs:
            return x


def _norm(v):
    """The Euclidean norm of a 3-vector, from the moduli of its components."""
    return math.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2 + abs(v[2]) ** 2)


def _dot(u, w):
    """The unconjugated dot product of two complex 3-vectors."""
    return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]


def _sprod(a, b):
    """The scalar product ``s1*s2 - v1.v2`` of two paravectors."""
    return a.s * b.s - _dot(a.v, b.v)


def _times(p, k):
    """``p`` times the number ``k``, component by component."""
    v = p.v
    return _make(p.s * k, (v[0] * k, v[1] * k, v[2] * k))


def _nonsingular(rng):
    while True:
        p = _draw_pv(rng)
        if abs(_sprod(p, p)) > 0.1:
            return p


def _proper(rng):
    p = _nonsingular(rng)
    return _times(p, cmath.exp(-0.5j * cmath.phase(_sprod(p, p))))


def _singular(rng):
    v = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
    return _make(cmath.sqrt(_dot(v, v)), v)


def _perp_pair(rng):
    a = _nonsingular(rng)
    da = _sprod(a, a)
    while True:
        raw = _draw_pv(rng)
        k = _sprod(a, raw) / da
        u, w = raw.v, a.v
        b = _make(raw.s - a.s * k, (u[0] - w[0] * k, u[1] - w[1] * k, u[2] - w[2] * k))
        if abs(_sprod(b, b)) > 0.05 and _pv_scale(b) > 0.05:
            return a, b


def _unit_vector(rng):
    while True:
        v = [rng.uniform(-1, 1) for _ in range(3)]
        n = _norm(v)
        if n >= 0.3:
            return (v[0] / n, v[1] / n, v[2] / n)


def _real_vector(rng):
    while True:
        v = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        if _norm(v) >= 0.2:
            return v


def _complex_normal(rng):
    while True:
        v = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
        if abs(_dot(v, v)) >= 0.05:
            return v


def _special(rng):
    while True:
        a = rng.uniform(-2, 2)
        c = [rng.uniform(-2, 2) for _ in range(3)]
        if a * a + c[0] ** 2 + c[1] ** 2 + c[2] ** 2 >= 0.05:
            return _make(complex(a), (1j * c[0], 1j * c[1], 1j * c[2]))


def _unitar(rng):
    t, n = rng.uniform(0.0, math.pi), _unit_vector(rng)
    s = math.sin(t)
    return _make(complex(math.cos(t)), (1j * n[0] * s, 1j * n[1] * s, 1j * n[2] * s))


def _real_paravector(rng):
    return _parts(rng.uniform(-2, 2), 0.0, [rng.uniform(-2, 2) for _ in range(3)], (0.0,) * 3)


def _hyperbolic_pair(rng):
    """Two real proper paravectors with collinear vector parts; their integrated
    product is fully real, so the angle between them is hyperbolic."""
    n = _unit_vector(rng)
    pair = []
    for _ in range(2):
        u, t = rng.uniform(0.3, 1.5), rng.uniform(0.5, 1.5)
        sign = 1.0 if rng.u01() < 0.5 else -1.0
        pair.append(_parts(sign * u * math.cosh(t), 0.0, [u * x for x in n], (0.0,) * 3))
    return pair[0], pair[1]


def _sphere_point(rng):
    x = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
    return _parts(_norm(x), 0.0, x, (0.0,) * 3)


def _spatial_pair(rng):
    """Spatially parallel but deliberately non-parallel non-singular pair."""
    while True:
        s1, s2 = _draw_complex(rng), _draw_complex(rng)
        mu = _draw_complex(rng, 0.3)
        q = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
        a = _make(s1, q)
        b = _make(s2, (q[0] * mu, q[1] * mu, q[2] * mu))
        qn = _norm(q)
        if abs(_sprod(a, a)) > 0.1 and abs(_sprod(b, b)) > 0.1 and abs(s2 - mu * s1) * qn > 0.1:
            return a, b


def _triple(p, rng):
    """``a, b, c``: one time in ten a structured corner case, else three draws."""
    if rng.u01() >= 0.10:
        return _draw_pv(rng), _draw_pv(rng), _draw_pv(rng)
    pick = rng.below(10)
    g = _draw_pv(rng)
    if pick == 0:
        return ZERO, g, _draw_pv(rng)
    if pick == 1:
        return ONE, ONE, g
    if pick == 2:
        return Paravector(1 + 0j, (1 + 0j, 0j, 0j)), g, ONE
    if pick == 3:
        return _special(rng), _special(rng), g
    if pick == 4:
        u = _unitar(rng)
        return u, _rev(u), g
    if pick == 5:
        return g, _times(g, _draw_real(rng, 0.2)), g
    if pick == 6:
        return g, _rev(g), _make(g.s.conjugate(), tuple(z.conjugate() for z in g.v))
    if pick == 7:
        x = [2.0 if rng.u01() < 0.5 else -2.0 for _ in range(8)]
        return _parts(x[0], x[1], x[2:5], x[5:]), g, _draw_pv(rng)
    if pick == 8:
        return _times(g, 1e-12), g, _draw_pv(rng)
    s = _sphere_point(rng)
    return s, _rev(s), g


def _rotation(p, rng):
    return SpatialRotation(_unit_vector(rng), rng.uniform(0.0, math.pi))


# One row per draw: the families it builds, and ``draw(pack, rng)`` of their
# values.  A draw that takes other families reads them from the pack.
_ROWS = (
    ("a b c", _triple),
    ("lam", lambda p, rng: _draw_complex(rng, 0.3)),
    ("mu", lambda p, rng: _draw_complex(rng, 0.3)),
    ("s_real", lambda p, rng: _draw_real(rng, 0.3)),
    ("tau", lambda p, rng: _draw_complex(rng)),
    ("nonsing1", lambda p, rng: _nonsingular(rng)),
    ("nonsing2", lambda p, rng: _nonsingular(rng)),
    ("proper1", lambda p, rng: _proper(rng)),
    ("proper2", lambda p, rng: _proper(rng)),
    ("perp1 perp2", lambda p, rng: _perp_pair(rng)),
    ("par1", lambda p, rng: _nonsingular(rng)),
    ("par2", lambda p, rng: _times(p.par1, p.lam)),
    ("sing1", lambda p, rng: _singular(rng)),
    ("sing2", lambda p, rng: _singular(rng)),
    ("sphere", lambda p, rng: _sphere_point(rng)),
    ("special1", lambda p, rng: _special(rng)),
    ("special2", lambda p, rng: _special(rng)),
    ("realpv1", lambda p, rng: _real_paravector(rng)),
    ("realpv2", lambda p, rng: _real_paravector(rng)),
    ("hyp1 hyp2", lambda p, rng: _hyperbolic_pair(rng)),
    ("sp_a sp_b", lambda p, rng: _spatial_pair(rng)),
    ("rot1", _rotation),
    ("rot2", _rotation),
    ("axis1", lambda p, rng: RotationAxis.from_paravector(p.proper1)),
    ("axis2", lambda p, rng: RotationAxis.from_paravector(p.proper2)),
    ("w1", lambda p, rng: _real_vector(rng)),
    ("w2", lambda p, rng: _real_vector(rng)),
    ("om1", lambda p, rng: _complex_normal(rng)),
    ("om2", lambda p, rng: _complex_normal(rng)),
)


class _Family:
    """A family of ``TrialPack``; its row's families go to the pack's ``__dict__``."""

    __slots__ = ("name", "names", "row_id", "draw")

    def __init__(self, name, names, draw):
        self.name, self.names, self.draw = name, names.split(), draw
        self.row_id = zlib.crc32(names.encode())  # the row's id: the CRC-32 of its names

    def __get__(self, pack, owner=None):
        if pack is None:
            return self
        values = self.draw(pack, SplitMix64(mix64(pack._seed ^ self.row_id)))
        built = pack.__dict__
        built.update(zip(self.names, values) if len(self.names) > 1 else ((self.name, values),))
        return built[self.name]


class TrialPack:
    """The operand families of one trial; the first read of a family runs its row.

    The row draws from its own generator, seeded with the trial seed and the row's
    id, and stores its families as attributes.  A row that raises stores nothing.
    """

    __slots__ = ("_seed", "__dict__")

    def __init__(self, seed):
        self._seed = seed


for _names, _draw in _ROWS:
    for _name in _names.split():
        setattr(TrialPack, _name, _Family(_name, _names, _draw))


def make_pack(seed, index):
    """The operand pack of one trial; its families are drawn as they are read."""
    return TrialPack(trial_seed(seed, index))


# ---------------------------------------------------------------------------
# Judgement: the two comparison points and the weighing they share.
# ---------------------------------------------------------------------------


def _weigh(tol, x, y, scale=None):
    """Whether ``x`` equals ``y`` to ``tol``.

    Paravectors and matrices take ``approx_eq``'s verdict and no scale (giving one
    raises ``TypeError``).  Numbers and vectors of equal length agree when the
    largest modulus of a componentwise difference is within ``tol.linear(scale)``;
    unless the claim gives it, the scale is the largest modulus of either side.  As in
    ``approx_eq``, an error within ``tol.abs`` holds unscaled, as ``tol.abs <=
    tol.linear(s)`` for any finite ``s >= 0``.  So the verdict differs from
    ``error <= tol.linear(scale)`` only for a NaN scale, an infinite one with
    ``tol.rel == 0`` (``0 * inf`` is NaN), or complex sides whose modulus
    overflows (``abs`` raises); fuzz operands reach none of these.
    """
    if type(x) is complex or type(x) is float:
        error = abs(x - y)
        if error <= tol.abs:
            return True
        if scale is None:
            scale = max(abs(x), abs(y))
    elif type(x) is tuple:
        if len(x) != len(y):  # zip would weigh only the common prefix
            return False
        error = max(map(abs, map(sub, x, y)))
        if error <= tol.abs:
            return True
        if scale is None:
            scale = max(max(map(abs, x)), max(map(abs, y)))
    elif scale is None:
        return core.approx_eq(x, y, tol) if type(x) is Paravector else x.approx_eq(y, tol)
    else:
        raise TypeError(f"a {type(x).__name__} claim takes no scale: approx_eq weighs it")
    return error <= tol.linear(scale)


def _holds(law, operands, tol):
    """The assertion point: every claim of ``law(*operands, tol)`` holds.

    A claim is a verdict that must be true, or ``(lhs, rhs)`` or ``(lhs, rhs,
    scale)`` whose sides ``_weigh`` must find equal.  Claims are taken in order
    and the first false one ends the law, so a law computes, and may raise,
    only as far as it got.
    """
    claims = law(*operands, tol)
    if type(claims) is tuple:
        return _weigh(tol, *claims)
    if type(claims) is bool:
        return claims
    for claim in claims:
        if not (claim if type(claim) is bool else _weigh(tol, *claim)):
            return False
    return True


def _near(x, y, tol, scale=None):
    """The verdict point: ``_weigh``'s verdict on ``x`` and ``y``, for a law to combine."""
    return _weigh(tol, x, y, scale)


# ---------------------------------------------------------------------------
# Property registry.  Each suite is one table of ``(name, law)`` rows, in
# report order.
# ---------------------------------------------------------------------------


class Property(_Value):
    """A registered law: ``operands`` names the pack families it takes, in
    order, and ``fetch(pack)`` returns them as a tuple."""

    __match_args__ = __slots__ = ("suite", "name", "full_name", "law", "operands", "fetch")


_PROPS = []


def _operands(law):
    """The families ``law`` takes: its parameters before ``tol``, after those ``partial`` binds."""
    bound = ()
    if type(law) is partial:
        law, bound = law.func, law.args
    code = law.__code__
    return code.co_varnames[len(bound) : code.co_argcount - 1]


def _fetcher(operands):
    """A getter of the families ``operands`` from a pack, as a tuple."""
    if len(operands) > 1:
        return attrgetter(*operands)
    (name,) = operands
    return lambda pack: (getattr(pack, name),)


def _laws(suite, *rows):
    """Register each ``(name, law)`` row as a property of ``suite``, in order."""
    for name, law in rows:
        operands = _operands(law)
        _PROPS.append(Property(suite, name, f"{suite}/{name}", law, operands, _fetcher(operands)))


def _variants(pattern, variants, law):
    """One row per ``(label, variant)``: ``pattern.format(label)`` and ``partial(law, variant)``."""
    return [(pattern.format(label), partial(law, variant)) for label, variant in variants]


def _zero_iff_singular(quantity, degree):
    """The law that ``quantity`` of ``sing1`` is zero and that of ``nonsing1`` is not.

    Both are computed before either is judged; each is weighed at its
    operand's component scale to the power ``degree``.
    """

    def law(sing1, nonsing1, tol):
        zero, nonzero = quantity(sing1), quantity(nonsing1)
        yield zero, 0.0, component_scale(sing1) ** degree
        yield not _near(nonzero, 0.0, tol, component_scale(nonsing1) ** degree)

    return law


# A mutant replaces its target on the class or module, so a variant must look
# the operation up when it is called: ``methodcaller``, not ``Paravector.rev``.
_INVOLUTIONS = (("rev", methodcaller("rev")), ("conj", methodcaller("conj")))
_ORIENTATIONS = tuple((o.value, o) for o in (RIGHT, LEFT))
_ACTIONS = (("left", lambda u, g: u * g), ("right", lambda u, g: g * u))


# -- ring axioms ------------------------------------------------------------


def _mul_identity(a, tol):
    yield ONE * a, a
    yield a * ONE, a


_laws(
    "ring",
    ("add-commutative", lambda a, b, tol: (a + b, b + a)),
    ("add-associative", lambda a, b, c, tol: ((a + b) + c, a + (b + c))),
    ("add-identity", lambda a, tol: (a + ZERO, a)),
    ("add-opposite", lambda a, tol: (a + (-a), ZERO)),
    ("mul-identity", _mul_identity),
    ("mul-associative", lambda a, b, c, tol: ((a * b) * c, a * (b * c))),
    ("distributes-left", lambda a, b, c, tol: (a * (b + c), a * b + a * c)),
    ("distributes-right", lambda a, b, c, tol: ((a + b) * c, a * c + b * c)),
)


# -- involution table ---------------------------------------------------------

_laws(
    "involution",
    *_variants("{}-involution", _INVOLUTIONS, lambda inv, a, tol: (inv(inv(a)), a)),
    *_variants("{}-additive", _INVOLUTIONS, lambda inv, a, b, tol: (inv(a + b), inv(a) + inv(b))),
    *_variants(
        "{}-antimultiplicative",
        _INVOLUTIONS,
        lambda inv, a, b, tol: (inv(a * b), inv(b) * inv(a)),
    ),
    ("rev-conj-commute", lambda a, tol: (a.rev().conj(), a.conj().rev())),
)


# -- determinant and vigor ----------------------------------------------------


def _det_components(g):
    a, d = g.s.real, g.s.imag
    b = (g.v[0].real, g.v[1].real, g.v[2].real)
    c = (g.v[0].imag, g.v[1].imag, g.v[2].imag)
    bb = b[0] ** 2 + b[1] ** 2 + b[2] ** 2
    cc = c[0] ** 2 + c[1] ** 2 + c[2] ** 2
    bc = b[0] * c[0] + b[1] * c[1] + b[2] * c[2]
    return complex(a * a - bb + cc - d * d, 2.0 * (a * d - bc))


def _vig_components(g):
    a, d = g.s.real, g.s.imag
    b = (g.v[0].real, g.v[1].real, g.v[2].real)
    c = (g.v[0].imag, g.v[1].imag, g.v[2].imag)
    bxc = (
        b[1] * c[2] - b[2] * c[1],
        b[2] * c[0] - b[0] * c[2],
        b[0] * c[1] - b[1] * c[0],
    )
    scalar = a * a + d * d + b[0] ** 2 + b[1] ** 2 + b[2] ** 2 + c[0] ** 2 + c[1] ** 2 + c[2] ** 2
    vec = tuple(2.0 * (a * b[k] + d * c[k] + bxc[k]) for k in range(3))
    return Paravector(scalar, (complex(vec[0]), complex(vec[1]), complex(vec[2])))


def _vig_real_nonnegative(a, tol):
    w = a.vig()
    # the imaginary parts, and the real scalar part where it is negative
    off = (w.s.imag, min(w.s.real, 0.0), w.v[0].imag, w.v[1].imag, w.v[2].imag)
    return off, (0.0,) * 5, component_scale(a) ** 2


def _proper_singular_condition(a, tol):
    cls = classify(a, tol)
    if cls.is_proper or cls.is_singular:
        bc = a.v[0].real * a.v[0].imag + a.v[1].real * a.v[1].imag + a.v[2].real * a.v[2].imag
        yield a.s.real * a.s.imag - bc, 0.0, component_scale(a) ** 2


def _special_closure(special1, special2, tol):
    closed = (special1 * special2, special1 + special2, special1.inverse(tol))
    return all(classify(g, tol).is_special for g in closed)


_laws(
    "detvig",
    ("det-closed-form", lambda a, tol: (a.det(), _det_components(a))),
    ("vig-closed-form", lambda a, tol: (a.vig(), _vig_components(a))),
    ("vig-real-nonnegative", _vig_real_nonnegative),
    ("det-multiplicative", lambda a, b, tol: ((a * b).det(), a.det() * b.det())),
    ("det-of-rev", lambda a, tol: (a.rev().det(), a.det())),
    ("det-of-conj", lambda a, tol: (a.conj().det(), a.det().conjugate())),
    ("rev-product-commutes", lambda a, tol: (a * a.rev(), a.rev() * a)),
    ("proper-singular-condition", _proper_singular_condition),
    (
        "module-scalar-multiplicative",
        lambda proper1, s_real, tol: (
            (proper1 * s_real).module(tol),
            abs(s_real) * proper1.module(tol),
        ),
    ),
    (
        "module-multiplicative",
        lambda proper1, proper2, tol: (
            (proper1 * proper2).module(tol),
            proper1.module(tol) * proper2.module(tol),
        ),
    ),
    (
        "orthogonal-rev-is-inverse",
        lambda proper1, tol: ((u := proper1.normalize(tol)).inverse(tol), u.rev()),
    ),
    ("special-closure", _special_closure),
    (
        "singular-absorbs",
        lambda sing1, b, tol: ((sing1 * b).det(), 0.0, component_scale(sing1, b) ** 4),
    ),
)


# -- integrated, scalar, and vector products ----------------------------------


def _scalar_parts_agree(a, b, tol):
    r, l = (integrated(a, b, o).s for o in (RIGHT, LEFT))
    sp = scalar_product(a, b)
    yield r, sp
    yield l, sp


def _det_factorizes(a, b, tol):
    target = a.det() * b.det()
    for o in (RIGHT, LEFT):
        yield integrated(a, b, o).det(), target
    sp, vv = scalar_product(a, b), vector_product(a, b, RIGHT)
    yield sp * sp - vdot(vv, vv), target


def _scalar_homogeneous(o, a, b, lam, tol):
    base = integrated(a, b, o) * lam
    scaled = integrated(a * lam, b, o), integrated(a, b * lam, o)
    for g in scaled:
        yield g, base


def _rev_swaps_arguments(a, b, tol):
    for o in (RIGHT, LEFT):
        yield integrated(a, b, o).rev(), integrated(b, a, o)


def _self_product_is_det(a, tol):
    expected = Paravector(a.det(), (0j, 0j, 0j))
    for o in (RIGHT, LEFT):
        yield integrated(a, a, o), expected


def _singular_self_scalar(sing1, tol):
    yield scalar_product(sing1, sing1), 0.0, component_scale(sing1) ** 2
    yield classify(sing1, tol).is_singular


def _spatial_embedding_dot(w1, w2, tol):
    dot = w1[0] * w2[0] + w1[1] * w2[1] + w1[2] * w2[2]
    real = [Paravector(0j, (complex(w[0]), complex(w[1]), complex(w[2]))) for w in (w1, w2)]
    imag = [Paravector(0j, (1j * w[0], 1j * w[1], 1j * w[2])) for w in (w1, w2)]
    yield scalar_product(*real), -dot
    yield scalar_product(*imag), dot


_laws(
    "product",
    ("scalar-parts-agree", _scalar_parts_agree),
    ("det-factorizes", _det_factorizes),
    *_variants(
        "{}-add-bilinear",
        _ORIENTATIONS,
        lambda o, a, b, c, tol: (
            integrated(a + b, c, o),
            integrated(a, c, o) + integrated(b, c, o),
        ),
    ),
    *_variants("scalar-homogeneous-{}", _ORIENTATIONS, _scalar_homogeneous),
    ("rev-swaps-arguments", _rev_swaps_arguments),
    ("self-product-is-det", _self_product_is_det),
    ("scalar-symmetric", lambda a, b, tol: (scalar_product(a, b), scalar_product(b, a))),
    ("singular-self-scalar", _singular_self_scalar),
    ("spatial-embedding-dot", _spatial_embedding_dot),
    (
        "real-vector-product-conjugation",
        lambda realpv1, realpv2, tol: (
            vector_product(realpv1, realpv2, RIGHT),
            tuple(-z.conjugate() for z in vector_product(realpv1, realpv2, LEFT)),
        ),
    ),
)


# -- parallelism and perpendicularity -----------------------------------------


def _parallel_iff_scalar_multiple(par2, par1, lam, nonsing1, nonsing2, tol):
    yield is_parallel(par2, par1, tol)
    k = parallel_ratio(par2, par1)
    yield k, lam
    yield par2, par1 * k
    generic = is_parallel(nonsing1, nonsing2, tol)
    ratio = parallel_ratio(nonsing1, nonsing2)
    yield generic == _near(nonsing1, nonsing2 * ratio, tol)


def _parallel_equivalence(par2, mu, par1, tol):
    third = par2 * mu
    pairs = ((par1, par1), (par1, par2), (par2, par1), (par1, third))
    return all(is_parallel(x, y, tol) for x, y in pairs)


def _orthogonal_parallel_sign(proper1, proper2, tol):
    l1, l2 = proper1.normalize(tol), proper2.normalize(tol)
    yield is_parallel(l1, l1, tol) and is_parallel(l1, -l1, tol)
    if is_parallel(l1, l2, tol):
        yield _near(l2, l1, tol) or _near(l2, -l1, tol)


def _singular_parallel_family(sing1, lam, sing2, tol):
    scaled = _scale(sing1, lam)
    yield is_singularly_parallel(sing1, scaled, tol)
    yield classify(sing1, tol).is_singular and classify(scaled, tol).is_singular
    yield not is_singularly_parallel(sing1, sing2, tol)


_laws(
    "parallel",
    ("parallel-iff-scalar-multiple", _parallel_iff_scalar_multiple),
    ("parallel-equivalence", _parallel_equivalence),
    (
        "perpendicular-irreflexive",
        lambda nonsing1, tol: not is_perpendicular(nonsing1, nonsing1, tol),
    ),
    (
        "perpendicular-symmetric",
        lambda perp1, perp2, tol: is_perpendicular(perp1, perp2, tol)
        and is_perpendicular(perp2, perp1, tol),
    ),
    (
        "perpendicular-transport",
        lambda perp1, perp2, mu, tol: is_perpendicular(perp1, perp2 * mu, tol),
    ),
    ("self-perpendicular-iff-singular", _zero_iff_singular(lambda g: scalar_product(g, g), 2)),
    ("orthogonal-parallel-sign", _orthogonal_parallel_sign),
    (
        "conj-preserves-perpendicular",
        lambda perp1, perp2, tol: is_perpendicular(perp1.conj(), perp2.conj(), tol),
    ),
    ("conj-preserves-parallel", lambda par1, par2, tol: is_parallel(par1.conj(), par2.conj(), tol)),
    ("vig-preserves-parallel", lambda par1, par2, tol: is_parallel(par1.vig(), par2.vig(), tol)),
    ("parallel-implies-spatial", lambda par1, par2, tol: is_spatially_parallel(par1, par2, tol)),
    (
        "spatial-without-parallel",
        lambda sp_a, sp_b, tol: is_spatially_parallel(sp_a, sp_b, tol)
        and not is_parallel(sp_a, sp_b, tol),
    ),
    ("singular-parallel-family", _singular_parallel_family),
)


# -- determinant metric laws ---------------------------------------------------

_laws(
    "metric",
    (
        "polarization-identity",
        lambda a, b, tol: ((a + b).det(), a.det() + 2.0 * scalar_product(a, b) + b.det()),
    ),
    ("pythagorean", lambda perp1, perp2, tol: ((perp1 + perp2).det(), perp1.det() + perp2.det())),
    (
        "parallelogram-law",
        lambda a, b, tol: ((a + b).det() + (a - b).det(), 2.0 * a.det() + 2.0 * b.det()),
    ),
)


# -- angles --------------------------------------------------------------------


def _angle_det_one(proper1, proper2, tol):
    for o in (RIGHT, LEFT):
        yield angle(proper1, proper2, o, tol).value.det(), 1.0 + 0j


def _composition_rows(proper1, proper2, tol):
    f1 = angle(proper1, proper2, LEFT, tol)
    f2 = angle(proper2, proper1, LEFT, tol)
    composed = compose_angles(f1, f2)
    yield composed.cosinis, f1.cosinis * f2.cosinis + vdot(f1.sinis, f2.sinis)
    cr = vcross(f1.sinis, f2.sinis)
    sini = tuple(
        f1.cosinis * f2.sinis[k] + f2.cosinis * f1.sinis[k] + 1j * cr[k] for k in range(3)
    )
    yield composed.sinis, sini


def _doubling_rows(proper1, proper2, tol):
    f = angle(proper1, proper2, LEFT, tol)
    doubled = compose_angles(f, f)
    yield doubled.cosinis, f.cosinis * f.cosinis + vdot(f.sinis, f.sinis)
    yield doubled.sinis, tuple(2.0 * f.cosinis * f.sinis[k] for k in range(3))


def _explement_rows(proper1, proper2, tol):
    f = angle(proper1, proper2, LEFT, tol)
    e = explement(f)
    yield e.cosinis, f.cosinis
    yield e.sinis, tuple(-z for z in f.sinis)
    yield e.value.det(), 1.0 + 0j


def _explement_swaps_arguments(proper1, proper2, tol):
    for o in (RIGHT, LEFT):
        e = explement(angle(proper1, proper2, o, tol))
        yield e.value, angle(proper2, proper1, o, tol).value


def _trigonometric_character(w1, w2, tol):
    x, y = (Paravector(0j, (1j * w[0], 1j * w[1], 1j * w[2])) for w in (w1, w2))
    f = angle(x, y, RIGHT, tol)
    bound = max(1.0, component_scale(f.value))
    yield (f.cosinis.imag, *(z.real for z in f.dextis)), (0.0,) * 4, bound
    cos, m = f.cosinis.real, tuple(z.imag for z in f.dextis)
    yield cos * cos + m[0] ** 2 + m[1] ** 2 + m[2] ** 2, 1.0


def _hyperbolic_character(hyp1, hyp2, tol):
    f = angle(hyp1, hyp2, RIGHT, tol)
    bound = max(1.0, component_scale(f.value) ** 2)
    yield (f.cosinis.imag, *(z.imag for z in f.dextis)), (0.0,) * 4, bound
    cosh, d = f.cosinis.real, tuple(z.real for z in f.dextis)
    yield cosh * cosh - (d[0] ** 2 + d[1] ** 2 + d[2] ** 2), 1.0, bound


_laws(
    "angle",
    ("angle-det-one", _angle_det_one),
    ("angle-zero-self", lambda proper1, tol: (angle(proper1, proper1, RIGHT, tol).value, ONE)),
    ("composition-rows", _composition_rows),
    ("doubling-rows", _doubling_rows),
    ("explement-rows", _explement_rows),
    ("explement-swaps-arguments", _explement_swaps_arguments),
    (
        "explement-involution",
        lambda proper1, proper2, tol: (
            explement(explement(f := angle(proper1, proper2, RIGHT, tol))).value,
            f.value,
        ),
    ),
    (
        "compose-identity",
        lambda proper1, proper2, tol: (
            compose_angles(f := angle(proper1, proper2, LEFT, tol), Angle.identity(LEFT)).value,
            f.value,
        ),
    ),
    ("trigonometric-character", _trigonometric_character),
    ("hyperbolic-character", _hyperbolic_character),
)


# -- rotations -----------------------------------------------------------------


def _preserves_det_and_scalar(a, axis1, tol):
    for o in (LEFT, RIGHT):
        g = rotate(a, axis1, o)
        yield g.det(), a.det()
        yield g.s, a.s


def _fixes_spatially_parallel(axis1, tau, mu, tol):
    g = Paravector(tau, tuple(z * mu for z in axis1.value.v))
    for o in (LEFT, RIGHT):
        yield rotate(g, axis1, o), g


def _parallel_axes_same_rotation(proper1, s_real, a, axis1, tol):
    other = RotationAxis.from_paravector(proper1 * s_real, tol)
    return rotate(a, axis1, LEFT), rotate(a, other, LEFT)


def _rodrigues(w, n, theta):
    c, s = math.cos(theta), math.sin(theta)
    dot = n[0] * w[0] + n[1] * w[1] + n[2] * w[2]
    cross = (
        n[1] * w[2] - n[2] * w[1],
        n[2] * w[0] - n[0] * w[2],
        n[0] * w[1] - n[1] * w[0],
    )
    return tuple(w[k] * c + cross[k] * s + n[k] * dot * (1.0 - c) for k in range(3))


def _vector_fixes_axis(s_real, rot1, tol):
    w = (s_real * rot1.n[0], s_real * rot1.n[1], s_real * rot1.n[2])
    return rotate_vector(w, rot1), w


def _angle_decomposition(axis2, proper1, tol):
    u = axis2.value
    lhs = angle(proper1, rotate(proper1, axis2, LEFT), RIGHT, tol).value
    return lhs, angle(proper1, u, RIGHT, tol).value * angle(proper1, u, LEFT, tol).value


def _similarity_equivalence(a, nonsing1, nonsing2, tol):
    there = similarity(a, nonsing1, tol)
    yield similarity(there, nonsing1.inverse(tol), tol), a
    two_step = similarity(similarity(a, nonsing1, tol), nonsing2, tol)
    yield two_step, similarity(a, nonsing1 * nonsing2, tol)


_laws(
    "rotation",
    ("preserves-det-and-scalar", _preserves_det_and_scalar),
    ("fixes-spatially-parallel", _fixes_spatially_parallel),
    (
        "matches-similarity",
        lambda a, axis1, tol: (rotate(a, axis1, LEFT), similarity(a, axis1.value, tol)),
    ),
    ("parallel-axes-same-rotation", _parallel_axes_same_rotation),
    (
        "vector-matches-rodrigues",
        lambda w1, rot1, tol: (rotate_vector(w1, rot1), _rodrigues(w1, rot1.n, 2.0 * rot1.phi)),
    ),
    ("vector-isometry", lambda w1, rot1, tol: (vnorm(rotate_vector(w1, rot1)), vnorm(w1))),
    ("vector-fixes-axis", _vector_fixes_axis),
    (
        "euler-compose-sequential",
        lambda w1, rot1, rot2, tol: (
            rotate_vector(rotate_vector(w1, rot1), rot2),
            rotate_vector(w1, euler_compose(rot1, rot2, tol)),
        ),
    ),
    ("angle-decomposition", _angle_decomposition),
    ("similarity-preserves-scalar", lambda a, nonsing1, tol: (similarity(a, nonsing1, tol).s, a.s)),
    ("similarity-equivalence", _similarity_equivalence),
)


# -- mirror and axial symmetry ---------------------------------------------


def _reflection(a, w):
    """``{s | 2 (v.w) w / (w.w) - v}`` for ``a = {s|v}``: the axial symmetry in ``w``."""
    nw2 = w[0] ** 2 + w[1] ** 2 + w[2] ** 2
    v = a.v
    vw = v[0] * w[0] + v[1] * w[1] + v[2] * w[2]
    return Paravector(a.s, tuple(2.0 * w[k] * vw / nw2 - v[k] for k in range(3)))


def _axial_is_straight_rotation(w1, a, tol):
    nw = vnorm(w1)
    axis = RotationAxis(Paravector(0j, (1j * w1[0] / nw, 1j * w1[1] / nw, 1j * w1[2] / nw)))
    return axial_symmetry(a, w1, tol), rotate(a, axis, LEFT)


_laws(
    "mirror",
    ("mirror-involution", lambda a, om1, tol: (mirror(mirror(a, om1, tol), om1, tol), a)),
    ("mirror-flips-scalar", lambda a, om1, tol: (mirror(a, om1, tol).s, -a.s)),
    ("mirror-real-formula", lambda w1, a, tol: (-_reflection(a, w1), mirror(a, w1, tol))),
    (
        "mirror-composition-is-rotation",
        lambda a, om1, om2, tol: (
            mirror(mirror(a, om1, tol), om2, tol),
            rotate(a, compose_mirrors(om1, om2, tol), LEFT),
        ),
    ),
    (
        "axial-involution",
        lambda a, om1, tol: (axial_symmetry(axial_symmetry(a, om1, tol), om1, tol), a),
    ),
    ("axial-preserves-scalar", lambda a, om1, tol: (axial_symmetry(a, om1, tol).s, a.s)),
    ("axial-is-straight-rotation", _axial_is_straight_rotation),
    (
        "axial-fixes-parallel",
        lambda tau, om1, mu, tol: (
            axial_symmetry(g := Paravector(tau, tuple(z * mu for z in om1)), om1, tol),
            g,
        ),
    ),
    ("axial-real-formula", lambda w1, a, tol: (_reflection(a, w1), axial_symmetry(a, w1, tol))),
)


# -- matrix representations --------------------------------------------------


def _embedding_rows(label, embed):
    """The two homomorphism rows of ``matrices.<embed>``, looked up when called."""

    def to(g):
        return getattr(matrices, embed)(g)

    return (
        (f"{label}-multiplicative", lambda a, b, tol: (to(a * b), to(a) @ to(b))),
        (f"{label}-additive", lambda a, b, tol: (to(a + b), to(a) + to(b))),
    )


def _mat4_reversion_pattern(a, tol):
    s = a.s
    x, y, z = a.v
    expected = matrices.Matrix4(
        (
            (s, -x, -y, -z),
            (-x, s, 1j * z, -1j * y),
            (-y, -1j * z, s, 1j * x),
            (-z, 1j * y, -1j * x, s),
        )
    )
    return matrices.to_matrix4(a.rev()), expected


_laws(
    "matrix",
    *_embedding_rows("mat4", "to_matrix4"),
    ("mat4-det-squares", lambda a, tol: ((d := a.det()) * d, matrices.to_matrix4(a).det())),
    (
        "mat4-hermitian-conjugation",
        lambda a, tol: (matrices.to_matrix4(a.conj()), matrices.to_matrix4(a).conj_transpose()),
    ),
    (
        "mat4-inverse",
        lambda nonsing1, tol: (
            matrices.to_matrix4(nonsing1.inverse(tol)),
            matrices.to_matrix4(nonsing1).inverse(),
        ),
    ),
    ("mat4-reversion-pattern", _mat4_reversion_pattern),
    ("mat4-roundtrip", lambda a, tol: (matrices.from_matrix4(matrices.to_matrix4(a), tol), a)),
    ("mat4-singular-iff", _zero_iff_singular(lambda g: matrices.to_matrix4(g).det(), 4)),
    *_embedding_rows("pauli", "to_pauli"),
    ("pauli-det", lambda a, tol: (matrices.to_pauli(a).det(), a.det())),
)


# -- orthogonal transformations ----------------------------------------------


def _right_action_preserves_integrated(axis2, a, b, tol):
    u = axis2.value
    yield integrated(a * u, b * u, RIGHT), integrated(a, b, RIGHT)
    yield integrated(u * a, u * b, LEFT), integrated(a, b, LEFT)


def _right_action_star_scalar(axis2, a, b, tol):
    u = axis2.value
    a2, b2 = a * u, b * u
    lhs = scalar_product(a2.conj() * a2, b2.conj() * b2)
    return lhs, scalar_product(a.conj() * a, b.conj() * b)


def _left_action_vig_scalar(axis2, a, b, tol):
    u = axis2.value
    a2, b2 = u * a, u * b
    lhs = scalar_product(a2.vig(), b2.vig())
    return lhs, scalar_product(a.vig(), b.vig())


def _sphere_invariance(axis1, sphere, tol):
    u = axis1.value
    quartic = component_scale(u, sphere) ** 4
    yield (u * sphere).det(), 0.0, quartic
    yield rotate(sphere, axis1, LEFT).det(), 0.0, quartic


# a determinant this far from one must be rejected by the detector
_FAR_FROM_ONE = Tolerance(1e-3, 0.0)


def _det_one_detector(axis1, nonsing1, tol):
    yield is_orthogonal_transform(axis1.value, tol)
    if not _near(nonsing1.det(), 1.0, _FAR_FROM_ONE):
        yield not is_orthogonal_transform(nonsing1, tol)


_laws(
    "orthogonal",
    ("right-action-preserves-integrated", _right_action_preserves_integrated),
    *_variants(
        "vig-parallel-{}-action",
        _ACTIONS,
        lambda act, axis1, par1, par2, tol: is_parallel(
            act(u := axis1.value, par1).vig(), act(u, par2).vig(), tol
        ),
    ),
    ("right-action-star-scalar", _right_action_star_scalar),
    ("left-action-vig-scalar", _left_action_vig_scalar),
    ("sphere-invariance", _sphere_invariance),
    ("det-one-detector", _det_one_detector),
)


SUITES = tuple(dict.fromkeys(prop.suite for prop in _PROPS))


# ---------------------------------------------------------------------------
# Mutants.
# ---------------------------------------------------------------------------


def _mul_drop_cross(a, b):
    s1, s2 = a.s, b.s
    x1, y1, z1 = a.v
    x2, y2, z2 = b.v
    return Paravector(
        s1 * s2 + x1 * x2 + y1 * y2 + z1 * z2,
        (s2 * x1 + s1 * x2, s2 * y1 + s1 * y2, s2 * z1 + s1 * z2),
    )


def _rev_sign_error(self):
    v = self.v
    return Paravector(-self.s, (-v[0], -v[1], -v[2]))


def _to_matrix4_transposed(g, embed=matrices.to_matrix4):
    # ``embed`` is the true embedding, bound before the mutant replaces it
    return matrices.Matrix4(tuple(zip(*embed(g).rows)))


# one (owner, attribute, replacement) slot each, in the 1-tuple bench/run.py iterates
MUTANTS = {
    "mul-drop-cross": ((core, "mul", _mul_drop_cross),),
    "rev-sign": ((Paravector, "rev", _rev_sign_error),),
    "matrix-transpose": ((matrices, "to_matrix4", _to_matrix4_transposed),),
}


@contextmanager
def _mutated(name):
    if name is None:
        yield
        return
    if name not in MUTANTS:
        raise ValueError(f"unknown mutant {name!r}; choose from {sorted(MUTANTS)}")
    ((obj, attr, replacement),) = MUTANTS[name]
    original = getattr(obj, attr)
    setattr(obj, attr, replacement)
    try:
        yield
    finally:
        setattr(obj, attr, original)


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------


class PropertyResult(_Value):
    """Verdict counts of one property; ``counterexample`` is a dict or None."""

    __match_args__ = __slots__ = ("name", "passes", "fails", "counterexample")


class FuzzReport(_Value):
    """What ``run_fuzz`` found: ``properties`` is a tuple of ``PropertyResult``."""

    __match_args__ = __slots__ = ("seed", "trials", "tol", "mutant", "properties")

    @property
    def failed_properties(self):
        return sum(1 for r in self.properties if r.fails)

    @property
    def total_failures(self):
        return sum(r.fails for r in self.properties)

    def suite_failures(self, suites):
        wanted = set(suites)
        return sum(r.fails for r in self.properties if r.name.split("/", 1)[0] in wanted)

    def to_dict(self):
        return {
            "seed": self.seed,
            "trials": self.trials,
            "tol": {"abs": self.tol.abs, "rel": self.tol.rel},
            "mutant": self.mutant,
            "properties": [dict(zip(r.__match_args__, r._fields())) for r in self.properties],
            "failed_properties": self.failed_properties,
            "total_failures": self.total_failures,
        }

    def format_text(self):
        lines = [
            f"fuzz report: seed={self.seed} trials={self.trials} "
            f"tol={self.tol.abs:g}/{self.tol.rel:g}"
            + (f" mutant={self.mutant}" if self.mutant else "")
        ]
        for r in self.properties:
            status = "ok  " if r.fails == 0 else "FAIL"
            line = f"  {status} {r.name:<44} passes={r.passes} fails={r.fails}"
            if r.counterexample is not None:
                line += f" first-failure-trial={r.counterexample['trial']}"
            lines.append(line)
        if self.failed_properties:
            lines.append(f"{self.failed_properties} properties failed")
        else:
            lines.append(f"all {len(self.properties)} properties passed")
        return "\n".join(lines)


def run_fuzz(seed=42, trials=10000, tol=DEFAULT_TOL, mutant=None, suites=None):
    """Run every registered property over deterministic trials.

    ``suites`` restricts the run to the named suites; ``mutant`` installs
    one of the documented defects for the duration of the run.  The
    report is a pure function of the arguments.  ``seed`` must lie in
    [0, 2**64), the generator's state space.
    """
    for name, value in (("seed", seed), ("trials", trials)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if not isinstance(tol, Tolerance):
        raise TypeError(f"tol must be a Tolerance, not {type(tol).__name__}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= seed <= _MASK:  # the generator would alias it modulo 2**64
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    props = _PROPS
    if suites is not None:
        if isinstance(suites, str):
            raise TypeError("suites must be a collection of suite names, not a str")
        wanted = set(suites)
        if not wanted:
            raise ValueError("suites must name at least one suite")
        if wanted - set(SUITES):
            raise ValueError(f"unknown suites: {sorted(wanted - set(SUITES))}")
        props = [p for p in _PROPS if p.suite in wanted]
    fails = [0] * len(props)
    counterexamples = [None] * len(props)
    with _mutated(mutant):
        for i in range(trials):
            pack = make_pack(seed, i)
            for j, prop in enumerate(props):
                try:
                    ok = _holds(prop.law, prop.fetch(pack), tol)
                    error = None
                except Exception as exc:
                    ok = False
                    error = repr(exc)
                if not ok:
                    fails[j] += 1
                    if counterexamples[j] is None:
                        # a family whose row raised is not in the pack's __dict__:
                        # it and the operands after it are left out
                        built = vars(pack)
                        inputs = {
                            name: to_wire(built[name])
                            for name in takewhile(built.__contains__, prop.operands)
                        }
                        ce = {"trial": i, "inputs": inputs}
                        if error is not None:
                            ce["error"] = error
                        counterexamples[j] = ce
    results = tuple(
        PropertyResult(prop.full_name, trials - fails[j], fails[j], counterexamples[j])
        for j, prop in enumerate(props)
    )
    return FuzzReport(seed, trials, tol, mutant, results)
