"""Paravector values and their ring operations.

A paravector is an immutable pair of one complex scalar and one complex
3-vector.  Addition is componentwise; multiplication follows the
non-commutative rule

    [s1|v1] [s2|v2] = [s1*s2 + v1.v2 | s2*v1 + s1*v2 + i (v1 x v2)]

where the dot and cross products are the plain bilinear (unconjugated)
ones extended to complex components.  On top of the ring structure the
module provides the two involutions (reversion and conjugation), the
determinant and vigor, inverses, the module (square root of a real
nonnegative determinant), normalization to determinant one, and a
tolerance-aware classifier.
"""

from __future__ import annotations

import cmath
import math

from .errors import ImproperParavector, SingularParavector, ValidationError

_NUMBER_TYPES = (int, float, complex)
_COMPONENTS = "paravector components"
_INF = math.inf


def _as_complex(z, what="numbers"):
    """``z`` as a finite complex number, else :class:`ValidationError` naming ``what``."""
    try:
        if isinstance(z, (str, bool)):  # complex() would parse numeric text, take a bool
            raise TypeError
        z = complex(z)
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(f"{what} must be finite") from None
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be numbers, not {type(z).__name__}") from None
    if not cmath.isfinite(z):
        raise ValidationError(f"{what} must be finite")
    return z


def _as_real(x, what="numbers"):
    """``x`` as a finite float; a nonzero imaginary part is an error."""
    z = _as_complex(x, what)
    if z.imag:
        raise ValidationError(f"{what} must be real")
    return z.real


def _as_cvector(w, what="vector components"):
    """The one check of the complex 3-vector shape: three finite complex numbers."""
    try:
        if len(w) == 3:
            return (_as_complex(w[0], what), _as_complex(w[1], what), _as_complex(w[2], what))
    except (TypeError, LookupError):
        pass
    raise ValidationError("expected a 3-vector: exactly three numbers")


def _as_rvector(w, what="vector components"):
    """``_as_cvector`` for a real 3-vector, returned as three floats."""
    v = _as_cvector(w, what)
    if v[0].imag or v[1].imag or v[2].imag:
        raise ValidationError(f"{what} must be real")
    return (v[0].real, v[1].real, v[2].real)


def vdot(u, v):
    """Unconjugated bilinear dot product of two complex 3-vectors."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def vcross(u, v):
    """Cross product of two complex 3-vectors."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def vnorm(v):
    """Euclidean norm of a complex 3-vector (moduli of its components)."""
    return math.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2 + abs(v[2]) ** 2)


def format_complex(z):
    """Compact human-readable form of a complex number, e.g. ``1-2i``."""
    re, im = z.real, z.imag
    if im == 0.0:
        return f"{re:g}"
    if re == 0.0:
        return f"{im:g}i"
    sign = "+" if im >= 0 else "-"
    return f"{re:g}{sign}{abs(im):g}i"


class _Value:
    """Base of every immutable value: slotted fields, set once.

    A subclass names its fields, in order, in ``__match_args__`` and
    ``__slots__``.  ``__init__`` takes exactly those fields; a subclass that
    validates overrides it and sets them with ``_set_fields``, through
    ``_setters``: the slots' ``__set__``, bound once, which pass the guard
    of ``__setattr__``.  Equality, hashing, ``repr`` and pickling go by the
    tuple of the fields; unpickling and copying run no validator.
    """

    __slots__ = ()
    __match_args__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__match_args__)

    def __init__(self, *fields):
        if len(fields) != len(self._setters):
            raise TypeError(f"{type(self).__name__} takes {len(self._setters)} fields")
        self._set_fields(fields)

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__match_args__])

    def _set_fields(self, fields):
        for set_field, value in zip(self._setters, fields):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _rebuild, (type(self), self._fields())


def _rebuild(cls, fields):
    """A ``cls`` holding ``fields`` as they are: the trusted constructor of pickling."""
    obj = object.__new__(cls)
    obj._set_fields(fields)
    return obj


class Tolerance(_Value):
    """Absolute/relative tolerance pair for predicates and preconditions.

    A quantity of polynomial degree k in the operand components is tested
    against ``abs + rel * scale**k``, where scale is the largest absolute
    real component among the operands.  A two-operand bilinear test
    (parallel, perpendicular, singularly parallel, spatially parallel) uses
    the product of each operand's scale, ``abs + rel * scale_a * scale_b``.
    The degree-aware scaling keeps exact-arithmetic statements (determinant
    zero, determinant real) decidable in floating point.  ``linear`` and
    ``quadratic`` are the only code that computes a threshold.
    """

    __match_args__ = __slots__ = ("abs", "rel")

    def __init__(self, abs=1e-9, rel=1e-9):
        a, r = _as_real(abs, "tolerances"), _as_real(rel, "tolerances")
        if a < 0.0 or r < 0.0:
            raise ValidationError("tolerances must be nonnegative")
        self._set_fields((a, r))

    def linear(self, scale):
        return self.abs + self.rel * scale

    def quadratic(self, scale):
        return self.abs + self.rel * scale * scale


DEFAULT_TOL = Tolerance()


class Paravector(_Value):
    """Immutable pair of a complex scalar ``s`` and a complex 3-vector ``v``.

    Equality is exact and structural; use :meth:`approx_eq` for
    tolerance-based comparison.  All eight real components must be finite.
    """

    __match_args__ = __slots__ = ("s", "v")

    def __init__(self, s, v):
        if not (
            type(s) is complex
            and type(v) is tuple
            and len(v) == 3
            and type(v[0]) is type(v[1]) is type(v[2]) is complex
            and cmath.isfinite(s + v[0] + v[1] + v[2])
        ):  # one by one: a sum of finite components can still overflow
            s, v = _as_complex(s, _COMPONENTS), _as_cvector(v, _COMPONENTS)
        _set_s(self, s)
        _set_v(self, v)

    # -- involutions -------------------------------------------------

    def rev(self):
        """Reversion: flip the sign of the vector part."""
        v = self.v
        return _make(self.s, (-v[0], -v[1], -v[2]))

    def conj(self):
        """Conjugation: complex-conjugate every component."""
        v = self.v
        return _make(
            self.s.conjugate(),
            (v[0].conjugate(), v[1].conjugate(), v[2].conjugate()),
        )

    # -- quadratic forms ---------------------------------------------

    def vig(self):
        """Product with the own conjugate.

        The result is a real paravector whose scalar part is the sum of
        the squares of all eight real components (hence nonnegative).
        """
        return mul(self, self.conj())

    def det(self):
        """Scalar of the product with the own reversion (a complex number).

        The closed form ``s*s - x*x - y*y - z*z``, in this order bit-identical
        to ``mul(self, self.rev()).s`` since ``a + (-b) == a - b`` in IEEE
        arithmetic.  Raises :class:`ValidationError` when it overflows and
        never :class:`InvariantViolation`.
        """
        s = self.s
        x, y, z = self.v
        d = s * s - x * x - y * y - z * z
        if not cmath.isfinite(d):
            raise ValidationError("determinant overflows: components too large")
        return d

    def inverse(self, tol=DEFAULT_TOL):
        """Multiplicative inverse: reversion divided by the determinant.

        Raises :class:`SingularParavector` when the determinant is zero
        to tolerance.
        """
        d, sc, singular, _ = _det_verdict(self, tol)
        if singular:
            raise SingularParavector("singular paravector has no inverse")
        if sc > 2.0**256:
            # a part of 1/d could leave the normal range: invert q = 2**e self,
            # with scale in [1/2, 1), and scale 1/det(q) by 2**e to undo it
            e = -math.frexp(sc)[1]
            v = self.v
            q = _make(_ldexp(self.s, e), (_ldexp(v[0], e), _ldexp(v[1], e), _ldexp(v[2], e)))
            return _scale(q.rev(), _ldexp(1.0 / q.det(), e))
        return _scale(self.rev(), 1.0 / d)

    def module(self, tol=DEFAULT_TOL):
        """Nonnegative real square root of the determinant.

        Defined on proper or singular paravectors only (as ``classify``
        decides them); raises :class:`ImproperParavector` otherwise.
        """
        d, _, singular, proper = _det_verdict(self, tol)
        if not (singular or proper):
            raise ImproperParavector("module needs a real nonnegative determinant")
        return math.sqrt(d.real) if d.real > 0.0 else 0.0

    def normalize(self, tol=DEFAULT_TOL):
        """Divide by the module, giving determinant one.

        Requires a proper paravector; singular input is an error since no
        determinant-one rescaling exists for it.
        """
        d, _, _, proper = _det_verdict(self, tol)
        if not proper:
            raise ImproperParavector("only a proper paravector can be normalized")
        return self * (1.0 / math.sqrt(d.real))

    # -- comparison and display --------------------------------------

    def approx_eq(self, other, tol=DEFAULT_TOL):
        return approx_eq(self, other, tol)

    def __str__(self):
        v = self.v
        return (
            f"{{{format_complex(self.s)} | "
            f"({format_complex(v[0])}, {format_complex(v[1])}, {format_complex(v[2])})}}"
        )

    # -- operators ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        v, w = self.v, other.v
        return _make(self.s + other.s, (v[0] + w[0], v[1] + w[1], v[2] + w[2]))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        v, w = self.v, other.v
        return _make(self.s - other.s, (v[0] - w[0], v[1] - w[1], v[2] - w[2]))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        v = self.v
        return _make(-self.s, (-v[0], -v[1], -v[2]))

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, Paravector):
            return mul(self, other)
        if isinstance(other, _NUMBER_TYPES) and not isinstance(other, bool):
            return _scale(self, complex(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _NUMBER_TYPES) and not isinstance(other, bool):
            return _scale(self, 1.0 / complex(other))
        return NotImplemented


_set_s, _set_v = Paravector._setters


def _make(s, v):
    """Trusted result constructor for a complex ``s`` and a 3-tuple ``v``.

    Full validation runs only when the component sum is not finite."""
    if not cmath.isfinite(s + v[0] + v[1] + v[2]):
        return Paravector(s, v)
    p = object.__new__(Paravector)
    _set_s(p, s)
    _set_v(p, v)
    return p


def _scale(p, k):
    """``p`` times the complex number ``k``, component by component.

    Equal (``==``) to ``mul(p, {k|0})``; only the sign of an exactly-zero
    component can differ, because the product adds the zero cross terms."""
    v = p.v
    return _make(p.s * k, (v[0] * k, v[1] * k, v[2] * k))


def _ldexp(z, e):
    """The complex number ``z`` times ``2**e``, part by part with ``math.ldexp``.

    Exact while both parts stay in the normal range, and, unlike ``z * 2.0**e``,
    it keeps the sign of a zero part."""
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


def _coerce(x):
    if isinstance(x, Paravector):
        return x
    if isinstance(x, _NUMBER_TYPES) and not isinstance(x, bool):
        return _make(complex(x), (0j, 0j, 0j))
    return NotImplemented


def mul(a, b):
    """The paravector product.

    The ``*`` operator uses it for two paravectors; a plain number
    operand scales the components directly instead (see ``_scale``).
    """
    s1, s2 = a.s, b.s
    x1, y1, z1 = a.v
    x2, y2, z2 = b.v
    return _make(
        s1 * s2 + x1 * x2 + y1 * y2 + z1 * z2,
        (
            s2 * x1 + s1 * x2 + 1j * (y1 * z2 - z1 * y2),
            s2 * y1 + s1 * y2 + 1j * (z1 * x2 - x1 * z2),
            s2 * z1 + s1 * z2 + 1j * (x1 * y2 - y1 * x2),
        ),
    )


ZERO = Paravector(0j, (0j, 0j, 0j))
ONE = Paravector(1 + 0j, (0j, 0j, 0j))


class Classification(_Value):
    """Tolerance-aware verdicts about one paravector.

    ``is_proper`` and ``is_singular`` are mutually exclusive;
    ``is_orthogonal`` implies ``is_proper``.  ``tol`` records the
    tolerance pair the verdicts were computed with.
    """

    __match_args__ = __slots__ = ("det", "is_proper", "is_singular", "is_orthogonal",
                                  "is_special", "is_unitar", "tol")


def classify(p, tol=DEFAULT_TOL):
    """Evaluate the proper/singular/orthogonal/special/unitar flags."""
    d, sc, singular, proper = _det_verdict(p, tol)
    qthr = tol.quadratic(sc)
    orthogonal = _det_one(d, proper, qthr)
    lthr = tol.linear(sc)
    v = p.v
    special = (
        abs(p.s.imag) <= lthr
        and abs(v[0].real) <= lthr
        and abs(v[1].real) <= lthr
        and abs(v[2].real) <= lthr
    )
    unitar = _deviation(p.vig(), ONE) <= qthr
    return Classification(d, proper, singular, orthogonal, special, unitar, tol)


def is_orthogonal_transform(p, tol=DEFAULT_TOL):
    """True when ``p`` has determinant one, to ``tol``: ``classify``'s ``is_orthogonal``.

    The one determinant-one check; ``Angle`` and ``RotationAxis`` use it.
    Such paravectors preserve scalar products and determinants."""
    if not isinstance(p, Paravector):
        raise ValidationError(f"expected a Paravector, not {type(p).__name__}")
    d, sc, _, proper = _det_verdict(p, tol)
    return _det_one(d, proper, tol.quadratic(sc))


def _det_one(d, proper, thr):
    """The one determinant-one rule: proper, and ``|d - 1| <= thr``, ``thr`` quadratic."""
    return proper and abs(d - 1.0) <= thr


def _det_verdict(p, tol):
    """``(det, scale, singular, proper)``: the one definition of both verdicts.

    With ``thr = tol.quadratic(scale)``, singular is ``|det| <= thr`` and
    proper is ``|Im det| <= thr and Re det > thr``."""
    d = p.det()
    sc = _pv_scale(p)
    thr = tol.quadratic(sc)
    try:
        singular = abs(d) <= thr
    except OverflowError:  # finite parts, but a modulus beyond the float range
        raise ValidationError("determinant overflows: components too large") from None
    return d, sc, singular, abs(d.imag) <= thr and d.real > thr


def _pv_scale(p):
    s, v = p.s, p.v
    m = abs(s.real)
    x = abs(s.imag)
    if x > m:
        m = x
    for z in v:
        x = abs(z.real)
        if x > m:
            m = x
        x = abs(z.imag)
        if x > m:
            m = x
    return m


def component_scale(*items):
    """Largest absolute real component among paravectors, vectors and finite numbers."""
    m = 0.0
    for item in items:
        if isinstance(item, Paravector):
            x = _pv_scale(item)
            if x > m:
                m = x
            continue
        if isinstance(item, (tuple, list)):
            values = item
        else:
            values = (item,)
        for z in values:
            if type(z) is not complex:
                z = _as_complex(z, "components")
            r = abs(z.real)
            i = abs(z.imag)
            if not (r < _INF and i < _INF):  # complex entries skip _as_complex
                raise ValidationError("components must be finite")
            if r > m:
                m = r
            if i > m:
                m = i
    return m


def _deviation(a, b):
    """The largest modulus of a componentwise difference of two paravectors."""
    u, w = a.v, b.v
    try:
        m = abs(a.s - b.s)
        x = abs(u[0] - w[0])
        if x > m:
            m = x
        x = abs(u[1] - w[1])
        if x > m:
            m = x
        x = abs(u[2] - w[2])
        if x > m:
            m = x
    except OverflowError:  # a modulus beyond the float range is larger than any threshold
        return _INF
    return m


def approx_eq(a, b, tol=DEFAULT_TOL):
    """Componentwise closeness, scaled by the largest component of either side;
    a deviation within ``tol.abs`` holds unscaled, as no finite scale lowers it."""
    error = _deviation(a, b)
    if error <= tol.abs:
        return True
    sa, sb = _pv_scale(a), _pv_scale(b)
    return error <= tol.linear(sa if sa > sb else sb)
