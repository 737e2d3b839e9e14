"""Parallelism, perpendicularity, and paravector angles.

Two non-singular paravectors are parallel when their vector product
vanishes (equivalently, one is a complex multiple of the other) and
perpendicular when their scalar product vanishes.  Spatial parallelism
only asks the vector parts to be collinear; singular parallelism asks
the whole integrated product to vanish and can only hold between
singular paravectors.

An angle between two proper paravectors is the integrated product
divided by both modules; it always has determinant one.  Its scalar
component is named ``cosinis`` and the vector component ``sinis``
(left orientation) or ``dextis`` (right orientation).
"""

from __future__ import annotations

import cmath

from .core import (
    DEFAULT_TOL,
    ONE,
    ZERO,
    _det_verdict,
    _deviation,
    _pv_scale,
    _scale,
    _Value,
    component_scale,
    is_orthogonal_transform,
    vcross,
    vnorm,
)
from .errors import (
    ImproperParavector,
    InvariantViolation,
    OrientationMismatch,
    SingularParavector,
)
from .products import (
    _BAD_ORIENTATION,
    _RIGHT,
    Orientation,
    integrated,
    scalar_product,
    vector_product,
)


class Angle(_Value):
    """A determinant-one paravector with an orientation tag."""

    __match_args__ = __slots__ = ("value", "orientation")

    def __init__(self, value, orientation):
        if not isinstance(orientation, Orientation):
            raise TypeError(_BAD_ORIENTATION)
        if not is_orthogonal_transform(value):
            raise InvariantViolation("an angle paravector must have determinant one")
        self._set_fields((value, orientation))

    @property
    def cosinis(self):
        return self.value.s

    @property
    def sinis(self):
        """Vector component: ``sinis`` (left orientation) or ``dextis`` (right)."""
        return self.value.v

    dextis = sinis

    @classmethod
    def identity(cls, orientation=Orientation.RIGHT):
        return cls(ONE, orientation)


def _require_nonsingular(p, tol):
    """The scale of ``p``, which must be non-singular to ``tol``."""
    _, sc, singular, _ = _det_verdict(p, tol)
    if singular:
        raise SingularParavector("operation requires non-singular paravectors")
    return sc


def is_parallel(a, b, tol=DEFAULT_TOL):
    """True when the vector product of two non-singular paravectors vanishes."""
    sa = _require_nonsingular(a, tol)
    sb = _require_nonsingular(b, tol)
    w = vector_product(a, b, _RIGHT)
    return vnorm(w) <= tol.linear(sa * sb)


def is_perpendicular(a, b, tol=DEFAULT_TOL):
    """True when the scalar product of two non-singular paravectors vanishes."""
    sa = _require_nonsingular(a, tol)
    sb = _require_nonsingular(b, tol)
    return abs(scalar_product(a, b)) <= tol.linear(sa * sb)


def is_spatially_parallel(a, b, tol=DEFAULT_TOL):
    """True when the cross product of the vector parts vanishes."""
    c = vcross(a.v, b.v)
    return vnorm(c) <= tol.linear(component_scale(a.v) * component_scale(b.v))


def is_singularly_parallel(a, b, tol=DEFAULT_TOL):
    """True when the whole right integrated product vanishes.

    A true verdict forces both operands to be singular.
    """
    p = integrated(a, b, _RIGHT)
    return _deviation(p, ZERO) <= tol.linear(_pv_scale(a) * _pv_scale(b))


def parallel_ratio(a, b):
    """The complex lambda with ``a = lambda * b`` when a and b are parallel.

    Uses the largest-magnitude component of b as pivot to avoid dividing
    by a near-zero entry.  The result is only meaningful when the operands
    really are parallel; callers verify by substitution.
    """
    comps_b = (b.s,) + b.v
    comps_a = (a.s,) + a.v
    k = max(range(4), key=lambda i: abs(comps_b[i]))
    if comps_b[k] == 0:
        raise SingularParavector("cannot solve a scale against the zero paravector")
    return comps_a[k] / comps_b[k]


def _proper_root(p, tol):
    """Square root of the determinant of a paravector that is proper to ``tol``.

    The complex root: it is the module when the determinant is exactly
    real, and it also divides out the imaginary part that ``tol`` lets
    through, so an angle built from it has determinant one.
    """
    d, _, _, proper = _det_verdict(p, tol)
    if not proper:
        raise ImproperParavector("angles are defined between proper paravectors only")
    return cmath.sqrt(d)


def angle(a, b, orientation=Orientation.RIGHT, tol=DEFAULT_TOL):
    """Oriented angle between two proper paravectors.

    The integrated product divided by the square roots of both
    determinants; the result has determinant one.
    """
    ra = _proper_root(a, tol)
    rb = _proper_root(b, tol)
    value = _scale(integrated(a, b, orientation), 1.0 / (ra * rb))
    return Angle(value, orientation)


def compose_angles(first, second):
    """Product of two same-oriented angles, itself an angle."""
    if first.orientation is not second.orientation:
        raise OrientationMismatch("cannot compose a left angle with a right angle")
    return Angle(first.value * second.value, first.orientation)


def explement(a):
    """Angle with the reversed value: same cosinis, negated vector component.

    Equals the angle taken with swapped arguments.
    """
    return Angle(a.value.rev(), a.orientation)
