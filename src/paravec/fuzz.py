"""Seeded property-fuzz campaigns over the whole algebra.

Every algebraic law the package promises is registered here as a named
property grouped into suites (ring, involution, detvig, product,
parallel, metric, angle, rotation, mirror, matrix, orthogonal).  A
campaign draws one deterministic pack of operands per trial and evaluates
every property against it; the report lists pass/fail counts and, per
property, the first failing trial with the operand families its check read.

Determinism and portability
---------------------------
Randomness comes from SplitMix64, a published 64-bit generator:
the state advances by the odd constant 0x9E3779B97F4A7C15 and each
output is the finalizer ``z ^= z>>30, z*=0xBF58476D1CE4E5B9, z ^= z>>27,
z *= 0x94D049BB133111EB, z ^= z>>31`` applied to the state.  Trial i of a
campaign with seed s uses a fresh generator seeded with
``mix(mix(s) + GAMMA*(i+1))`` where ``mix`` is that same finalizer, so
trials are independent streams and a report is a pure function of
(seed, trials, tolerance).  Components are drawn uniformly from [-2, 2];
with 10% probability a trial swaps in a structured corner case (zero,
identity, a singular pair, special/unitar forms, scaled copies, extreme
and tiny components).

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
from contextlib import contextmanager, suppress
from functools import partial
from operator import methodcaller

from . import core, matrices
from .core import (
    DEFAULT_TOL,
    ONE,
    ZERO,
    Paravector,
    _make,
    _scale,
    _Value,
    approx_eq,
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
# Trial generation.  Everything here builds paravectors from raw components
# and calls only helpers that no mutant replaces (``scalar_product(p, p)`` is
# the determinant from raw components), so a mutant cannot skew generation.
# Draws whose components are complex and finite by construction go through
# the trusted ``_make``.
# ---------------------------------------------------------------------------


def _draw_pv(rng):
    a, d = rng.uniform(-2, 2), rng.uniform(-2, 2)
    b = [rng.uniform(-2, 2) for _ in range(3)]
    c = [rng.uniform(-2, 2) for _ in range(3)]
    return _make(
        complex(a, d),
        (complex(b[0], c[0]), complex(b[1], c[1]), complex(b[2], c[2])),
    )


def _draw_complex(rng, min_abs=0.0):
    while True:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) >= min_abs:
            return z


def _draw_real(rng, min_abs=0.0):
    while True:
        x = rng.uniform(-2, 2)
        if abs(x) >= min_abs:
            return x


def _nonsingular(rng, min_det=0.1):
    for _ in range(32):
        p = _draw_pv(rng)
        if abs(scalar_product(p, p)) > min_det:
            return p
    return Paravector(2 + 0j, (1 + 0j, 0j, 0j))


def _proper(rng, min_det=0.1):
    p = _nonsingular(rng, min_det)
    d = scalar_product(p, p)
    return _scale(p, cmath.exp(-0.5j * cmath.phase(d)))


def _singular(rng):
    v = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
    return _make(cmath.sqrt(vdot(v, v)), v)


def _perp_pair(rng):
    a = _nonsingular(rng)
    da = scalar_product(a, a)
    for _ in range(32):
        raw = _draw_pv(rng)
        k = scalar_product(a, raw) / da
        b = raw - _scale(a, k)
        if abs(scalar_product(b, b)) > 0.05 and component_scale(b) > 0.05:
            return a, b
    return Paravector(1 + 0j, (0j, 0j, 0j)), Paravector(0j, (1 + 0j, 0j, 0j))


def _unit_vector(rng):
    while True:
        v = [rng.uniform(-1, 1) for _ in range(3)]
        n = vnorm(v)
        if n >= 0.3:
            return (v[0] / n, v[1] / n, v[2] / n)


def _real_vector(rng, min_norm=0.2):
    while True:
        v = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        if vnorm(v) >= min_norm:
            return v


def _complex_normal(rng):
    while True:
        v = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
        if abs(vdot(v, v)) >= 0.05:
            return v


def _special(rng):
    while True:
        a = rng.uniform(-2, 2)
        c = [rng.uniform(-2, 2) for _ in range(3)]
        if a * a + c[0] ** 2 + c[1] ** 2 + c[2] ** 2 >= 0.05:
            return _make(complex(a), (1j * c[0], 1j * c[1], 1j * c[2]))


def _unitar(rng):
    t = rng.uniform(0.0, math.pi)
    n = _unit_vector(rng)
    s = math.sin(t)
    return _make(complex(math.cos(t)), (1j * n[0] * s, 1j * n[1] * s, 1j * n[2] * s))


def _real_paravector(rng):
    return _make(
        complex(rng.uniform(-2, 2)),
        (
            complex(rng.uniform(-2, 2)),
            complex(rng.uniform(-2, 2)),
            complex(rng.uniform(-2, 2)),
        ),
    )


def _hyperbolic_pair(rng):
    """Two real proper paravectors with collinear vector parts.

    Their integrated product is fully real, so the angle between them is
    of the hyperbolic kind.
    """
    n = _unit_vector(rng)
    pair = []
    for _ in range(2):
        u = rng.uniform(0.3, 1.5)
        t = rng.uniform(0.5, 1.5)
        sign = 1.0 if rng.u01() < 0.5 else -1.0
        pair.append(
            _make(
                complex(sign * u * math.cosh(t)),
                (complex(u * n[0]), complex(u * n[1]), complex(u * n[2])),
            )
        )
    return pair[0], pair[1]


def _sphere_point(rng):
    x = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
    return _make(complex(vnorm(x)), (complex(x[0]), complex(x[1]), complex(x[2])))


def _spatial_pair(rng):
    """Spatially parallel but deliberately non-parallel non-singular pair."""
    for _ in range(64):
        s1 = _draw_complex(rng)
        s2 = _draw_complex(rng)
        mu = _draw_complex(rng, 0.3)
        q = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
        a = _make(s1, q)
        b = _make(s2, (q[0] * mu, q[1] * mu, q[2] * mu))
        qn = vnorm(q)
        if (
            abs(scalar_product(a, a)) > 0.1
            and abs(scalar_product(b, b)) > 0.1
            and abs(s2 - mu * s1) * qn > 0.1
        ):
            return a, b
    a = Paravector(2 + 0j, (1 + 0j, 0j, 0j))
    return a, Paravector(3 + 0j, (2 + 0j, 0j, 0j))


def _corner_triple(rng):
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
        u_rev = Paravector(u.s, (-u.v[0], -u.v[1], -u.v[2]))
        return u, u_rev, g
    if pick == 5:
        lam = _draw_real(rng, 0.2)
        return g, _scale(g, lam), g
    if pick == 6:
        g_rev = Paravector(g.s, (-g.v[0], -g.v[1], -g.v[2]))
        g_conj = Paravector(
            g.s.conjugate(),
            (g.v[0].conjugate(), g.v[1].conjugate(), g.v[2].conjugate()),
        )
        return g, g_rev, g_conj
    if pick == 7:
        signs = [1.0 if rng.u01() < 0.5 else -1.0 for _ in range(8)]
        return (
            Paravector(
                complex(2 * signs[0], 2 * signs[1]),
                (
                    complex(2 * signs[2], 2 * signs[5]),
                    complex(2 * signs[3], 2 * signs[6]),
                    complex(2 * signs[4], 2 * signs[7]),
                ),
            ),
            g,
            _draw_pv(rng),
        )
    if pick == 8:
        return _scale(g, 1e-12), g, _draw_pv(rng)
    s = _sphere_point(rng)
    return s, Paravector(s.s, (-s.v[0], -s.v[1], -s.v[2])), g


class TrialPack:
    """The operand families the checks read, drawn in a fixed order."""

    def __init__(self, rng):
        if rng.u01() < 0.10:
            self.a, self.b, self.c = _corner_triple(rng)
        else:
            self.a, self.b, self.c = _draw_pv(rng), _draw_pv(rng), _draw_pv(rng)
        self.lam = _draw_complex(rng, 0.3)
        self.mu = _draw_complex(rng, 0.3)
        self.s_real = _draw_real(rng, 0.3)
        self.tau = _draw_complex(rng)
        self.nonsing1 = _nonsingular(rng)
        self.nonsing2 = _nonsingular(rng)
        self.proper1 = _proper(rng)
        self.proper2 = _proper(rng)
        self.perp1, self.perp2 = _perp_pair(rng)
        self.par1 = _nonsingular(rng)
        self.par2 = _scale(self.par1, self.lam)
        self.sing1 = _singular(rng)
        self.sing2 = _singular(rng)
        self.sphere = _sphere_point(rng)
        self.special1 = _special(rng)
        self.special2 = _special(rng)
        _unitar(rng)  # drawn to keep the stream; no law reads a unitar yet
        self.realpv1 = _real_paravector(rng)
        self.realpv2 = _real_paravector(rng)
        self.hyp1, self.hyp2 = _hyperbolic_pair(rng)
        self.sp_a, self.sp_b = _spatial_pair(rng)
        n1, n2 = _unit_vector(rng), _unit_vector(rng)
        phi1, phi2 = rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)
        self.w1 = _real_vector(rng)
        self.w2 = _real_vector(rng)
        self.om1 = _complex_normal(rng)
        self.om2 = _complex_normal(rng)
        self.rot1 = SpatialRotation(n1, phi1)
        self.rot2 = SpatialRotation(n2, phi2)
        # normalize scales through _scale and the check uses the closed-form
        # det, so no mutant reaches the axes
        self.axis1 = RotationAxis.from_paravector(self.proper1)
        self.axis2 = RotationAxis.from_paravector(self.proper2)


def make_pack(seed, index):
    """The deterministic operand pack of one trial."""
    return TrialPack(SplitMix64(trial_seed(seed, index)))


# ---------------------------------------------------------------------------
# Comparison helpers.  Equality checks scale to the compared values; checks
# against zero take an explicit scale from the inputs that produced them.
# ---------------------------------------------------------------------------


def _close_c(x, y, tol):
    return abs(x - y) <= tol.linear(max(abs(x), abs(y)))


def _close_v(u, v, tol):
    sc = max(max(abs(x) for x in u), max(abs(x) for x in v))
    thr = tol.linear(sc)
    return all(abs(x - y) <= thr for x, y in zip(u, v))


def _zero_c(x, tol, scale):
    return abs(x) <= tol.linear(scale)


# ---------------------------------------------------------------------------
# Property registry.
# ---------------------------------------------------------------------------


class Property(_Value):
    __match_args__ = __slots__ = ("suite", "name", "check")

    def __init__(self, suite, name, check):
        self._set_fields((suite, name, check))

    @property
    def full_name(self):
        return f"{self.suite}/{self.name}"

    def __reduce__(self):
        # the check is a function named ``_`` and does not pickle by reference
        return _registered, (self.full_name,)


_PROPS = []


def _registered(full_name):
    """The registered property named ``full_name``; unpickling returns it."""
    return next(p for p in _PROPS if p.full_name == full_name)


def _prop(suite, name):
    def deco(fn):
        _PROPS.append(Property(suite, name, fn))
        return fn

    return deco


def _mirrored(suite, pattern, variants):
    """Register ``body(variant, p, tol)`` as ``pattern.format(label)`` per pair, in order."""

    def deco(body):
        for label, variant in variants:
            _PROPS.append(Property(suite, pattern.format(label), partial(body, variant)))
        return body

    return deco


# A mutant replaces its target on the class or module, so a variant must look
# the operation up when it is called: ``methodcaller``, not ``Paravector.rev``.
_INVOLUTIONS = (("rev", methodcaller("rev")), ("conj", methodcaller("conj")))
_ORIENTATIONS = tuple((o.value, o) for o in (RIGHT, LEFT))
_ACTIONS = (("left", lambda lam, g: lam * g), ("right", lambda lam, g: g * lam))


# -- ring axioms ------------------------------------------------------------


@_prop("ring", "add-commutative")
def _(p, tol):
    return approx_eq(p.a + p.b, p.b + p.a, tol)


@_prop("ring", "add-associative")
def _(p, tol):
    return approx_eq((p.a + p.b) + p.c, p.a + (p.b + p.c), tol)


@_prop("ring", "add-identity")
def _(p, tol):
    return approx_eq(p.a + ZERO, p.a, tol)


@_prop("ring", "add-opposite")
def _(p, tol):
    return approx_eq(p.a + (-p.a), ZERO, tol)


@_prop("ring", "mul-identity")
def _(p, tol):
    return approx_eq(ONE * p.a, p.a, tol) and approx_eq(p.a * ONE, p.a, tol)


@_prop("ring", "mul-associative")
def _(p, tol):
    return approx_eq((p.a * p.b) * p.c, p.a * (p.b * p.c), tol)


@_prop("ring", "distributes-left")
def _(p, tol):
    return approx_eq(p.a * (p.b + p.c), p.a * p.b + p.a * p.c, tol)


@_prop("ring", "distributes-right")
def _(p, tol):
    return approx_eq((p.a + p.b) * p.c, p.a * p.c + p.b * p.c, tol)


# -- involution table ---------------------------------------------------------


@_mirrored("involution", "{}-involution", _INVOLUTIONS)
def _(inv, p, tol):
    return approx_eq(inv(inv(p.a)), p.a, tol)


@_mirrored("involution", "{}-additive", _INVOLUTIONS)
def _(inv, p, tol):
    return approx_eq(inv(p.a + p.b), inv(p.a) + inv(p.b), tol)


@_mirrored("involution", "{}-antimultiplicative", _INVOLUTIONS)
def _(inv, p, tol):
    return approx_eq(inv(p.a * p.b), inv(p.b) * inv(p.a), tol)


@_prop("involution", "rev-conj-commute")
def _(p, tol):
    return approx_eq(p.a.rev().conj(), p.a.conj().rev(), tol)


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


@_prop("detvig", "det-closed-form")
def _(p, tol):
    return _close_c(p.a.det(), _det_components(p.a), tol)


@_prop("detvig", "vig-closed-form")
def _(p, tol):
    return approx_eq(p.a.vig(), _vig_components(p.a), tol)


@_prop("detvig", "vig-real-nonnegative")
def _(p, tol):
    w = p.a.vig()
    thr = tol.quadratic(component_scale(p.a))
    return (
        abs(w.s.imag) <= thr
        and w.s.real >= -thr
        and abs(w.v[0].imag) <= thr
        and abs(w.v[1].imag) <= thr
        and abs(w.v[2].imag) <= thr
    )


@_prop("detvig", "det-multiplicative")
def _(p, tol):
    return _close_c((p.a * p.b).det(), p.a.det() * p.b.det(), tol)


@_prop("detvig", "det-of-rev")
def _(p, tol):
    return _close_c(p.a.rev().det(), p.a.det(), tol)


@_prop("detvig", "det-of-conj")
def _(p, tol):
    return _close_c(p.a.conj().det(), p.a.det().conjugate(), tol)


@_prop("detvig", "rev-product-commutes")
def _(p, tol):
    return approx_eq(p.a * p.a.rev(), p.a.rev() * p.a, tol)


@_prop("detvig", "proper-singular-condition")
def _(p, tol):
    cls = classify(p.a, tol)
    if not (cls.is_proper or cls.is_singular):
        return True
    g = p.a
    ad = g.s.real * g.s.imag
    bc = (
        g.v[0].real * g.v[0].imag
        + g.v[1].real * g.v[1].imag
        + g.v[2].real * g.v[2].imag
    )
    return abs(ad - bc) <= tol.quadratic(component_scale(g))


@_prop("detvig", "module-scalar-multiplicative")
def _(p, tol):
    lhs = (p.proper1 * p.s_real).module(tol)
    return _close_c(lhs, abs(p.s_real) * p.proper1.module(tol), tol)


@_prop("detvig", "module-multiplicative")
def _(p, tol):
    lhs = (p.proper1 * p.proper2).module(tol)
    return _close_c(lhs, p.proper1.module(tol) * p.proper2.module(tol), tol)


@_prop("detvig", "orthogonal-rev-is-inverse")
def _(p, tol):
    lam = p.proper1.normalize(tol)
    return approx_eq(lam.inverse(tol), lam.rev(), tol)


@_prop("detvig", "special-closure")
def _(p, tol):
    product = p.special1 * p.special2
    total = p.special1 + p.special2
    inv = p.special1.inverse(tol)
    return (
        classify(product, tol).is_special
        and classify(total, tol).is_special
        and classify(inv, tol).is_special
    )


@_prop("detvig", "singular-absorbs")
def _(p, tol):
    product = p.sing1 * p.b
    sc = component_scale(p.sing1, p.b)
    return _zero_c(product.det(), tol, sc * sc * sc * sc)


# -- integrated, scalar, and vector products ----------------------------------


@_prop("product", "scalar-parts-agree")
def _(p, tol):
    r = integrated(p.a, p.b, RIGHT).s
    l = integrated(p.a, p.b, LEFT).s
    sp = scalar_product(p.a, p.b)
    return _close_c(r, sp, tol) and _close_c(l, sp, tol)


@_prop("product", "det-factorizes")
def _(p, tol):
    target = p.a.det() * p.b.det()
    for o in (RIGHT, LEFT):
        if not _close_c(integrated(p.a, p.b, o).det(), target, tol):
            return False
    sp = scalar_product(p.a, p.b)
    vv = vector_product(p.a, p.b, RIGHT)
    return _close_c(sp * sp - vdot(vv, vv), target, tol)


@_mirrored("product", "{}-add-bilinear", _ORIENTATIONS)
def _(o, p, tol):
    lhs = integrated(p.a + p.b, p.c, o)
    rhs = integrated(p.a, p.c, o) + integrated(p.b, p.c, o)
    return approx_eq(lhs, rhs, tol)


@_mirrored("product", "scalar-homogeneous-{}", _ORIENTATIONS)
def _(o, p, tol):
    base = integrated(p.a, p.b, o) * p.lam
    left_scaled = integrated(p.a * p.lam, p.b, o)
    right_scaled = integrated(p.a, p.b * p.lam, o)
    return approx_eq(left_scaled, base, tol) and approx_eq(right_scaled, base, tol)


@_prop("product", "rev-swaps-arguments")
def _(p, tol):
    for o in (RIGHT, LEFT):
        if not approx_eq(
            integrated(p.a, p.b, o).rev(), integrated(p.b, p.a, o), tol
        ):
            return False
    return True


@_prop("product", "self-product-is-det")
def _(p, tol):
    expected = Paravector(p.a.det(), (0j, 0j, 0j))
    return approx_eq(integrated(p.a, p.a, RIGHT), expected, tol) and approx_eq(
        integrated(p.a, p.a, LEFT), expected, tol
    )


@_prop("product", "scalar-symmetric")
def _(p, tol):
    return _close_c(scalar_product(p.a, p.b), scalar_product(p.b, p.a), tol)


@_prop("product", "singular-self-scalar")
def _(p, tol):
    sc = component_scale(p.sing1)
    return _zero_c(scalar_product(p.sing1, p.sing1), tol, sc * sc) and classify(
        p.sing1, tol
    ).is_singular


@_prop("product", "spatial-embedding-dot")
def _(p, tol):
    w1, w2 = p.w1, p.w2
    dot = w1[0] * w2[0] + w1[1] * w2[1] + w1[2] * w2[2]
    real_a = Paravector(0j, (complex(w1[0]), complex(w1[1]), complex(w1[2])))
    real_b = Paravector(0j, (complex(w2[0]), complex(w2[1]), complex(w2[2])))
    imag_a = Paravector(0j, (1j * w1[0], 1j * w1[1], 1j * w1[2]))
    imag_b = Paravector(0j, (1j * w2[0], 1j * w2[1], 1j * w2[2]))
    return _close_c(scalar_product(real_a, real_b), -dot, tol) and _close_c(
        scalar_product(imag_a, imag_b), dot, tol
    )


@_prop("product", "real-vector-product-conjugation")
def _(p, tol):
    right = vector_product(p.realpv1, p.realpv2, RIGHT)
    left = vector_product(p.realpv1, p.realpv2, LEFT)
    negated_conj = tuple(-z.conjugate() for z in left)
    return _close_v(right, negated_conj, tol)


# -- parallelism and perpendicularity -----------------------------------------


@_prop("parallel", "parallel-iff-scalar-multiple")
def _(p, tol):
    if not is_parallel(p.par2, p.par1, tol):
        return False
    lam = parallel_ratio(p.par2, p.par1)
    if not _close_c(lam, p.lam, tol):
        return False
    if not approx_eq(p.par2, p.par1 * lam, tol):
        return False
    generic = is_parallel(p.nonsing1, p.nonsing2, tol)
    recovered = approx_eq(
        p.nonsing1, p.nonsing2 * parallel_ratio(p.nonsing1, p.nonsing2), tol
    )
    return generic == recovered


@_prop("parallel", "parallel-equivalence")
def _(p, tol):
    third = p.par2 * p.mu
    return (
        is_parallel(p.par1, p.par1, tol)
        and is_parallel(p.par1, p.par2, tol)
        and is_parallel(p.par2, p.par1, tol)
        and is_parallel(p.par1, third, tol)
    )


@_prop("parallel", "perpendicular-irreflexive")
def _(p, tol):
    return not is_perpendicular(p.nonsing1, p.nonsing1, tol)


@_prop("parallel", "perpendicular-symmetric")
def _(p, tol):
    return is_perpendicular(p.perp1, p.perp2, tol) and is_perpendicular(
        p.perp2, p.perp1, tol
    )


@_prop("parallel", "perpendicular-transport")
def _(p, tol):
    return is_perpendicular(p.perp1, p.perp2 * p.mu, tol)


@_prop("parallel", "self-perpendicular-iff-singular")
def _(p, tol):
    sc = component_scale(p.sing1)
    singular_side = _zero_c(scalar_product(p.sing1, p.sing1), tol, sc * sc)
    nc = component_scale(p.nonsing1)
    nonsingular_side = abs(scalar_product(p.nonsing1, p.nonsing1)) > tol.quadratic(nc)
    return singular_side and nonsingular_side


@_prop("parallel", "orthogonal-parallel-sign")
def _(p, tol):
    l1 = p.proper1.normalize(tol)
    l2 = p.proper2.normalize(tol)
    if not (is_parallel(l1, l1, tol) and is_parallel(l1, -l1, tol)):
        return False
    if is_parallel(l1, l2, tol):
        return approx_eq(l2, l1, tol) or approx_eq(l2, -l1, tol)
    return True


@_prop("parallel", "conj-preserves-perpendicular")
def _(p, tol):
    return is_perpendicular(p.perp1.conj(), p.perp2.conj(), tol)


@_prop("parallel", "conj-preserves-parallel")
def _(p, tol):
    return is_parallel(p.par1.conj(), p.par2.conj(), tol)


@_prop("parallel", "vig-preserves-parallel")
def _(p, tol):
    return is_parallel(p.par1.vig(), p.par2.vig(), tol)


@_prop("parallel", "parallel-implies-spatial")
def _(p, tol):
    return is_spatially_parallel(p.par1, p.par2, tol)


@_prop("parallel", "spatial-without-parallel")
def _(p, tol):
    return is_spatially_parallel(p.sp_a, p.sp_b, tol) and not is_parallel(
        p.sp_a, p.sp_b, tol
    )


@_prop("parallel", "singular-parallel-family")
def _(p, tol):
    scaled = Paravector(
        p.sing1.s * p.lam,
        (p.sing1.v[0] * p.lam, p.sing1.v[1] * p.lam, p.sing1.v[2] * p.lam),
    )
    if not is_singularly_parallel(p.sing1, scaled, tol):
        return False
    if not (classify(p.sing1, tol).is_singular and classify(scaled, tol).is_singular):
        return False
    return not is_singularly_parallel(p.sing1, p.sing2, tol)


# -- determinant metric laws ---------------------------------------------------


@_prop("metric", "polarization-identity")
def _(p, tol):
    lhs = (p.a + p.b).det()
    rhs = p.a.det() + 2.0 * scalar_product(p.a, p.b) + p.b.det()
    return _close_c(lhs, rhs, tol)


@_prop("metric", "pythagorean")
def _(p, tol):
    lhs = (p.perp1 + p.perp2).det()
    return _close_c(lhs, p.perp1.det() + p.perp2.det(), tol)


@_prop("metric", "parallelogram-law")
def _(p, tol):
    lhs = (p.a + p.b).det() + (p.a - p.b).det()
    return _close_c(lhs, 2.0 * p.a.det() + 2.0 * p.b.det(), tol)


# -- angles --------------------------------------------------------------------


@_prop("angle", "angle-det-one")
def _(p, tol):
    for o in (RIGHT, LEFT):
        d = angle(p.proper1, p.proper2, o, tol).value.det()
        if not _close_c(d, 1.0 + 0j, tol):
            return False
    return True


@_prop("angle", "angle-zero-self")
def _(p, tol):
    return approx_eq(angle(p.proper1, p.proper1, RIGHT, tol).value, ONE, tol)


@_prop("angle", "composition-rows")
def _(p, tol):
    f1 = angle(p.proper1, p.proper2, LEFT, tol)
    f2 = angle(p.proper2, p.proper1, LEFT, tol)
    composed = compose_angles(f1, f2)
    cosi = f1.cosinis * f2.cosinis + vdot(f1.sinis, f2.sinis)
    cr = vcross(f1.sinis, f2.sinis)
    sini = tuple(
        f1.cosinis * f2.sinis[k] + f2.cosinis * f1.sinis[k] + 1j * cr[k]
        for k in range(3)
    )
    return _close_c(composed.cosinis, cosi, tol) and _close_v(composed.sinis, sini, tol)


@_prop("angle", "doubling-rows")
def _(p, tol):
    f = angle(p.proper1, p.proper2, LEFT, tol)
    doubled = compose_angles(f, f)
    cosi = f.cosinis * f.cosinis + vdot(f.sinis, f.sinis)
    sini = tuple(2.0 * f.cosinis * f.sinis[k] for k in range(3))
    return _close_c(doubled.cosinis, cosi, tol) and _close_v(doubled.sinis, sini, tol)


@_prop("angle", "explement-rows")
def _(p, tol):
    f = angle(p.proper1, p.proper2, LEFT, tol)
    e = explement(f)
    return (
        _close_c(e.cosinis, f.cosinis, tol)
        and _close_v(e.sinis, tuple(-z for z in f.sinis), tol)
        and _close_c(e.value.det(), 1.0 + 0j, tol)
    )


@_prop("angle", "explement-swaps-arguments")
def _(p, tol):
    for o in (RIGHT, LEFT):
        e = explement(angle(p.proper1, p.proper2, o, tol))
        if not approx_eq(e.value, angle(p.proper2, p.proper1, o, tol).value, tol):
            return False
    return True


@_prop("angle", "explement-involution")
def _(p, tol):
    f = angle(p.proper1, p.proper2, RIGHT, tol)
    return approx_eq(explement(explement(f)).value, f.value, tol)


@_prop("angle", "compose-identity")
def _(p, tol):
    f = angle(p.proper1, p.proper2, LEFT, tol)
    return approx_eq(
        compose_angles(f, Angle.identity(LEFT)).value, f.value, tol
    )


@_prop("angle", "trigonometric-character")
def _(p, tol):
    a = Paravector(0j, (1j * p.w1[0], 1j * p.w1[1], 1j * p.w1[2]))
    b = Paravector(0j, (1j * p.w2[0], 1j * p.w2[1], 1j * p.w2[2]))
    f = angle(a, b, RIGHT, tol)
    sc = component_scale(f.value)
    thr = tol.linear(max(1.0, sc))
    if abs(f.cosinis.imag) > thr:
        return False
    if any(abs(z.real) > thr for z in f.dextis):
        return False
    m = tuple(z.imag for z in f.dextis)
    c = f.cosinis.real
    return _close_c(c * c + m[0] ** 2 + m[1] ** 2 + m[2] ** 2, 1.0, tol)


@_prop("angle", "hyperbolic-character")
def _(p, tol):
    f = angle(p.hyp1, p.hyp2, RIGHT, tol)
    sc = component_scale(f.value)
    thr = tol.linear(max(1.0, sc * sc))
    if abs(f.cosinis.imag) > thr:
        return False
    if any(abs(z.imag) > thr for z in f.dextis):
        return False
    c = f.cosinis.real
    d = tuple(z.real for z in f.dextis)
    lhs = c * c - (d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
    return abs(lhs - 1.0) <= tol.linear(max(1.0, sc * sc))


# -- rotations -----------------------------------------------------------------


@_prop("rotation", "preserves-det-and-scalar")
def _(p, tol):
    for o in (LEFT, RIGHT):
        g = rotate(p.a, p.axis1, o)
        if not (_close_c(g.det(), p.a.det(), tol) and _close_c(g.s, p.a.s, tol)):
            return False
    return True


@_prop("rotation", "fixes-spatially-parallel")
def _(p, tol):
    axis_v = p.axis1.value.v
    g = Paravector(p.tau, (axis_v[0] * p.mu, axis_v[1] * p.mu, axis_v[2] * p.mu))
    return approx_eq(rotate(g, p.axis1, LEFT), g, tol) and approx_eq(
        rotate(g, p.axis1, RIGHT), g, tol
    )


@_prop("rotation", "matches-similarity")
def _(p, tol):
    return approx_eq(
        rotate(p.a, p.axis1, LEFT), similarity(p.a, p.axis1.value, tol), tol
    )


@_prop("rotation", "parallel-axes-same-rotation")
def _(p, tol):
    other = RotationAxis.from_paravector(p.proper1 * p.s_real, tol)
    return approx_eq(rotate(p.a, p.axis1, LEFT), rotate(p.a, other, LEFT), tol)


def _rodrigues(w, n, theta):
    c, s = math.cos(theta), math.sin(theta)
    dot = n[0] * w[0] + n[1] * w[1] + n[2] * w[2]
    cross = (
        n[1] * w[2] - n[2] * w[1],
        n[2] * w[0] - n[0] * w[2],
        n[0] * w[1] - n[1] * w[0],
    )
    return tuple(w[k] * c + cross[k] * s + n[k] * dot * (1.0 - c) for k in range(3))


@_prop("rotation", "vector-matches-rodrigues")
def _(p, tol):
    got = rotate_vector(p.w1, p.rot1)
    want = _rodrigues(p.w1, p.rot1.n, 2.0 * p.rot1.phi)
    return _close_v(got, want, tol)


@_prop("rotation", "vector-isometry")
def _(p, tol):
    got = rotate_vector(p.w1, p.rot1)
    return _close_c(vnorm(got), vnorm(p.w1), tol)


@_prop("rotation", "vector-fixes-axis")
def _(p, tol):
    w = (p.s_real * p.rot1.n[0], p.s_real * p.rot1.n[1], p.s_real * p.rot1.n[2])
    return _close_v(rotate_vector(w, p.rot1), w, tol)


@_prop("rotation", "euler-compose-sequential")
def _(p, tol):
    sequential = rotate_vector(rotate_vector(p.w1, p.rot1), p.rot2)
    combined = rotate_vector(p.w1, euler_compose(p.rot1, p.rot2, tol))
    return _close_v(sequential, combined, tol)


@_prop("rotation", "angle-decomposition")
def _(p, tol):
    lam = p.axis2.value
    rotated = rotate(p.proper1, p.axis2, LEFT)
    lhs = angle(p.proper1, rotated, RIGHT, tol).value
    rhs = (
        angle(p.proper1, lam, RIGHT, tol).value
        * angle(p.proper1, lam, LEFT, tol).value
    )
    return approx_eq(lhs, rhs, tol)


@_prop("rotation", "similarity-preserves-scalar")
def _(p, tol):
    return _close_c(similarity(p.a, p.nonsing1, tol).s, p.a.s, tol)


@_prop("rotation", "similarity-equivalence")
def _(p, tol):
    there = similarity(p.a, p.nonsing1, tol)
    back = similarity(there, p.nonsing1.inverse(tol), tol)
    if not approx_eq(back, p.a, tol):
        return False
    two_step = similarity(similarity(p.a, p.nonsing1, tol), p.nonsing2, tol)
    one_step = similarity(p.a, p.nonsing1 * p.nonsing2, tol)
    return approx_eq(two_step, one_step, tol)


# -- mirror and axial symmetry ---------------------------------------------


@_prop("mirror", "mirror-involution")
def _(p, tol):
    return approx_eq(mirror(mirror(p.a, p.om1, tol), p.om1, tol), p.a, tol)


@_prop("mirror", "mirror-flips-scalar")
def _(p, tol):
    return _close_c(mirror(p.a, p.om1, tol).s, -p.a.s, tol)


@_prop("mirror", "mirror-real-formula")
def _(p, tol):
    w = p.w1
    nw = vnorm(w)
    n = (w[0] / nw, w[1] / nw, w[2] / nw)
    v = p.a.v
    vn = v[0] * n[0] + v[1] * n[1] + v[2] * n[2]
    nxv = (
        n[1] * v[2] - n[2] * v[1],
        n[2] * v[0] - n[0] * v[2],
        n[0] * v[1] - n[1] * v[0],
    )
    tangent = (
        nxv[1] * n[2] - nxv[2] * n[1],
        nxv[2] * n[0] - nxv[0] * n[2],
        nxv[0] * n[1] - nxv[1] * n[0],
    )
    expected = Paravector(
        -p.a.s,
        (
            -n[0] * vn + tangent[0],
            -n[1] * vn + tangent[1],
            -n[2] * vn + tangent[2],
        ),
    )
    return approx_eq(mirror(p.a, w, tol), expected, tol)


@_prop("mirror", "mirror-composition-is-rotation")
def _(p, tol):
    sequential = mirror(mirror(p.a, p.om1, tol), p.om2, tol)
    axis = compose_mirrors(p.om1, p.om2, tol)
    return approx_eq(sequential, rotate(p.a, axis, LEFT), tol)


@_prop("mirror", "axial-involution")
def _(p, tol):
    return approx_eq(axial_symmetry(axial_symmetry(p.a, p.om1, tol), p.om1, tol), p.a, tol)


@_prop("mirror", "axial-preserves-scalar")
def _(p, tol):
    return _close_c(axial_symmetry(p.a, p.om1, tol).s, p.a.s, tol)


@_prop("mirror", "axial-is-straight-rotation")
def _(p, tol):
    w = p.w1
    nw = vnorm(w)
    axis = RotationAxis(
        Paravector(0j, (1j * w[0] / nw, 1j * w[1] / nw, 1j * w[2] / nw))
    )
    return approx_eq(axial_symmetry(p.a, w, tol), rotate(p.a, axis, LEFT), tol)


@_prop("mirror", "axial-fixes-parallel")
def _(p, tol):
    g = Paravector(p.tau, (p.om1[0] * p.mu, p.om1[1] * p.mu, p.om1[2] * p.mu))
    return approx_eq(axial_symmetry(g, p.om1, tol), g, tol)


@_prop("mirror", "axial-real-formula")
def _(p, tol):
    w = p.w1
    nw2 = w[0] ** 2 + w[1] ** 2 + w[2] ** 2
    v = p.a.v
    vw = v[0] * w[0] + v[1] * w[1] + v[2] * w[2]
    expected = Paravector(
        p.a.s,
        (
            2.0 * w[0] * vw / nw2 - v[0],
            2.0 * w[1] * vw / nw2 - v[1],
            2.0 * w[2] * vw / nw2 - v[2],
        ),
    )
    return approx_eq(axial_symmetry(p.a, w, tol), expected, tol)


# -- matrix representations --------------------------------------------------


def _embeds_products(embed, p, tol):
    to = getattr(matrices, embed)
    return to(p.a * p.b).approx_eq(to(p.a) @ to(p.b), tol)


def _embeds_sums(embed, p, tol):
    to = getattr(matrices, embed)
    return to(p.a + p.b).approx_eq(to(p.a) + to(p.b), tol)


def _embedding_laws(label, embed):
    """The two homomorphism rows of ``matrices.<embed>``, looked up when called."""
    for law, body in (("multiplicative", _embeds_products), ("additive", _embeds_sums)):
        _PROPS.append(Property("matrix", f"{label}-{law}", partial(body, embed)))


_embedding_laws("mat4", "to_matrix4")


@_prop("matrix", "mat4-det-squares")
def _(p, tol):
    d = p.a.det()
    return _close_c(matrices.to_matrix4(p.a).det(), d * d, tol)


@_prop("matrix", "mat4-hermitian-conjugation")
def _(p, tol):
    lhs = matrices.to_matrix4(p.a.conj())
    return lhs.approx_eq(matrices.to_matrix4(p.a).conj_transpose(), tol)


@_prop("matrix", "mat4-inverse")
def _(p, tol):
    lhs = matrices.to_matrix4(p.nonsing1.inverse(tol))
    return lhs.approx_eq(matrices.to_matrix4(p.nonsing1).inverse(), tol)


@_prop("matrix", "mat4-reversion-pattern")
def _(p, tol):
    s = p.a.s
    x, y, z = p.a.v
    expected = matrices.Matrix4(
        (
            (s, -x, -y, -z),
            (-x, s, 1j * z, -1j * y),
            (-y, -1j * z, s, 1j * x),
            (-z, 1j * y, -1j * x, s),
        )
    )
    return matrices.to_matrix4(p.a.rev()).approx_eq(expected, tol)


@_prop("matrix", "mat4-roundtrip")
def _(p, tol):
    return approx_eq(matrices.from_matrix4(matrices.to_matrix4(p.a), tol), p.a, tol)


@_prop("matrix", "mat4-singular-iff")
def _(p, tol):
    sc = component_scale(p.sing1)
    singular_side = _zero_c(
        matrices.to_matrix4(p.sing1).det(), tol, sc * sc * sc * sc
    )
    nc = component_scale(p.nonsing1)
    nonsingular_side = abs(matrices.to_matrix4(p.nonsing1).det()) > tol.linear(nc**4)
    return singular_side and nonsingular_side


_embedding_laws("pauli", "to_pauli")


@_prop("matrix", "pauli-det")
def _(p, tol):
    return _close_c(matrices.to_pauli(p.a).det(), p.a.det(), tol)


# -- orthogonal transformations ----------------------------------------------


@_prop("orthogonal", "right-action-preserves-integrated")
def _(p, tol):
    lam = p.axis2.value
    lhs = integrated(p.a * lam, p.b * lam, RIGHT)
    if not approx_eq(lhs, integrated(p.a, p.b, RIGHT), tol):
        return False
    lhs_left = integrated(lam * p.a, lam * p.b, LEFT)
    return approx_eq(lhs_left, integrated(p.a, p.b, LEFT), tol)


@_mirrored("orthogonal", "vig-parallel-{}-action", _ACTIONS)
def _(act, p, tol):
    lam = p.axis1.value
    return is_parallel(act(lam, p.par1).vig(), act(lam, p.par2).vig(), tol)


@_prop("orthogonal", "right-action-star-scalar")
def _(p, tol):
    lam = p.axis2.value
    a2, b2 = p.a * lam, p.b * lam
    lhs = scalar_product(a2.conj() * a2, b2.conj() * b2)
    rhs = scalar_product(p.a.conj() * p.a, p.b.conj() * p.b)
    return _close_c(lhs, rhs, tol)


@_prop("orthogonal", "left-action-vig-scalar")
def _(p, tol):
    lam = p.axis2.value
    a2, b2 = lam * p.a, lam * p.b
    lhs = scalar_product(a2.vig(), b2.vig())
    rhs = scalar_product(p.a.vig(), p.b.vig())
    return _close_c(lhs, rhs, tol)


@_prop("orthogonal", "sphere-invariance")
def _(p, tol):
    lam = p.axis1.value
    sc = component_scale(lam, p.sphere)
    quartic = sc * sc * sc * sc
    return _zero_c((lam * p.sphere).det(), tol, quartic) and _zero_c(
        rotate(p.sphere, p.axis1, LEFT).det(), tol, quartic
    )


@_prop("orthogonal", "det-one-detector")
def _(p, tol):
    if not is_orthogonal_transform(p.axis1.value, tol):
        return False
    d = p.nonsing1.det()
    if abs(d - 1.0) > 1e-3:
        return not is_orthogonal_transform(p.nonsing1, tol)
    return True


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


def _to_matrix4_transposed(g):
    s = g.s
    x, y, z = g.v
    return matrices.Matrix4(
        (
            (s, x, y, z),
            (x, s, 1j * z, -1j * y),
            (y, -1j * z, s, 1j * x),
            (z, 1j * y, -1j * x, s),
        )
    )


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


class _Recording:
    """A pack view that records, in reading order, each family a check reads."""

    def __init__(self, pack):
        self._pack = pack
        self.inputs = {}

    def __getattr__(self, name):
        value = getattr(self._pack, name)
        if name not in self.inputs:
            self.inputs[name] = to_wire(value)
        return value


class PropertyResult(_Value):
    """Verdict counts of one property; ``counterexample`` is a dict or None."""

    __match_args__ = __slots__ = ("name", "passes", "fails", "counterexample")

    def __init__(self, name, passes, fails, counterexample):
        self._set_fields((name, passes, fails, counterexample))


class FuzzReport(_Value):
    """What ``run_fuzz`` found: ``properties`` is a tuple of ``PropertyResult``."""

    __match_args__ = __slots__ = ("seed", "trials", "tol", "mutant", "properties")

    def __init__(self, seed, trials, tol, mutant, properties):
        self._set_fields((seed, trials, tol, mutant, properties))

    @property
    def failed_properties(self):
        return sum(1 for r in self.properties if r.fails)

    @property
    def total_failures(self):
        return sum(r.fails for r in self.properties)

    def suite_failures(self, suites):
        wanted = set(suites)
        return sum(
            r.fails for r in self.properties if r.name.split("/", 1)[0] in wanted
        )

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
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= seed <= _MASK:  # the generator would alias it modulo 2**64
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if suites is not None:
        unknown = set(suites) - set(SUITES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
        props = [p for p in _PROPS if p.suite in set(suites)]
    else:
        props = list(_PROPS)
    fails = [0] * len(props)
    counterexamples = [None] * len(props)
    with _mutated(mutant):
        for i in range(trials):
            pack = make_pack(seed, i)
            for j, prop in enumerate(props):
                try:
                    ok = prop.check(pack, tol)
                    error = None
                except Exception as exc:
                    ok = False
                    error = repr(exc)
                if not ok:
                    fails[j] += 1
                    if counterexamples[j] is None:
                        view = _Recording(pack)
                        with suppress(Exception):
                            prop.check(view, tol)
                        ce = {"trial": i, "inputs": view.inputs}
                        if error is not None:
                            ce["error"] = error
                        counterexamples[j] = ce
    results = tuple(
        PropertyResult(prop.full_name, trials - fails[j], fails[j], counterexamples[j])
        for j, prop in enumerate(props)
    )
    return FuzzReport(seed, trials, tol, mutant, results)
