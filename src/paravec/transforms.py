"""Similarity, rotations, mirror and axial symmetry, and orthogonality checks.

A rotation conjugates a paravector by a determinant-one axis paravector:
the left form is ``rev(L) * g * L``, the right form ``L * g * rev(L)``.
An axis of the shape ``{cos(phi) | i n sin(phi)}`` with a real unit
vector n rotates the spatial part by the angle ``2*phi`` about n, which
is how ordinary Euclidean rotations embed.  Every reflection sandwiches
g with the plane paravector ``W = {0|w}``: the axial symmetry is
``W g W / (w.w)``, the mirror its negative, and two mirrors compose to
the rotation axis ``W1 W2``, normalized.
"""

from __future__ import annotations

import cmath
import math

from .core import (
    DEFAULT_TOL,
    ONE,
    _as_cvector,
    _as_real,
    _as_rvector,
    _ldexp,
    _make,
    _pv_scale,
    _scale,
    _Value,
    is_orthogonal_transform,
    vcross,
    vdot,
)
from .errors import (
    BadUnitVector,
    DegenerateComposition,
    ImproperParavector,
    IsotropicNormal,
    ValidationError,
)
from .products import _BAD_ORIENTATION, _LEFT, _RIGHT, Orientation

_PARAMETERS = "rotation parameters"


class RotationAxis(_Value):
    """A determinant-one paravector acting as a rotation axis."""

    __match_args__ = __slots__ = ("value",)

    def __init__(self, value):
        if not is_orthogonal_transform(value):
            raise ImproperParavector(
                "a rotation axis must have determinant one; "
                "normalize a proper paravector first"
            )
        self._set_fields((value,))

    @classmethod
    def from_paravector(cls, p, tol=DEFAULT_TOL):
        """Normalize any proper paravector into an axis."""
        return cls(p.normalize(tol))

    @classmethod
    def identity(cls):
        return cls(ONE)


class SpatialRotation(_Value):
    """Euclidean rotation by ``2*phi`` about the real unit vector ``n``.

    ``axis_defined`` is False for a composition that came out as the
    identity, where the axis is arbitrary.  ``_axis`` is not a field: it
    holds the axis paravector once ``spatial_axis`` has built and checked it.
    """

    __match_args__ = ("n", "phi", "axis_defined")
    __slots__ = (*__match_args__, "_axis")

    def __init__(self, n, phi, axis_defined=True):
        n, phi = _as_rvector(n, _PARAMETERS), _as_real(phi, _PARAMETERS)
        if not isinstance(axis_defined, bool):
            raise ValidationError("axis_defined must be True or False")
        norm = math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
        if abs(norm - 1.0) > DEFAULT_TOL.linear(1.0):
            raise BadUnitVector("axis vector must have unit length")
        self._set_fields(((n[0] / norm, n[1] / norm, n[2] / norm), phi, axis_defined))

    @classmethod
    def about(cls, axis, phi):
        """Build a rotation about any real vector of length 1e-12 or more.

        The axis is scaled by ``2**-e`` before its norm is taken, so the
        norm cannot overflow; power-of-two scaling is exact, so the unit
        vector is the one the unscaled axis gives wherever its norm is finite.
        """
        a = _as_rvector(axis, _PARAMETERS)
        e = math.frexp(max(abs(a[0]), abs(a[1]), abs(a[2])))[1]
        x, y, z = math.ldexp(a[0], -e), math.ldexp(a[1], -e), math.ldexp(a[2], -e)
        norm = math.sqrt(x * x + y * y + z * z)
        if math.ldexp(norm, min(e, 0)) < 1e-12:
            raise BadUnitVector("axis vector must be nonzero")
        return cls((x / norm, y / norm, z / norm), phi)


def similarity(g, f, tol=DEFAULT_TOL):
    """Conjugation ``f^-1 * g * f`` by a non-singular axis f.

    Preserves the scalar component and is an equivalence relation.
    """
    return (f.inverse(tol) * g) * f


def rotate(g, axis, orientation=Orientation.LEFT):
    """Rotate g by a determinant-one axis.

    Left: ``rev(L) * g * L``; right: ``L * g * rev(L)``.  Rotation
    preserves both the determinant and the scalar component.
    """
    lam = axis.value
    if orientation is _LEFT:
        return (lam.rev() * g) * lam
    if orientation is _RIGHT:
        return (lam * g) * lam.rev()
    raise TypeError(_BAD_ORIENTATION)


_set_axis = SpatialRotation._axis.__set__


def spatial_axis(rotation):
    """Axis paravector ``{cos(phi) | i n sin(phi)}`` of a spatial rotation.

    Built and checked on the first call and kept on the rotation; a copied
    or unpickled rotation builds it again."""
    try:
        return rotation._axis
    except AttributeError:
        pass
    c = math.cos(rotation.phi)
    s = math.sin(rotation.phi)
    n = rotation.n
    v = (1j * n[0] * s, 1j * n[1] * s, 1j * n[2] * s)
    axis = RotationAxis(_make(complex(c), v))
    _set_axis(rotation, axis)
    return axis


def rotate_vector(w, rotation):
    """Rotate a real 3-vector by ``2*phi`` about the rotation's axis.

    Embeds the vector as a purely vectorial paravector, applies the left
    rotation, and reads the real vector back out.  Agrees with the
    classical axis-angle rotation formula.
    """
    x, y, z = _as_rvector(w)
    g = _make(0j, (complex(x), complex(y), complex(z)))
    r = rotate(g, spatial_axis(rotation), _LEFT)
    return (r.v[0].real, r.v[1].real, r.v[2].real)


def euler_compose(r1, r2, tol=DEFAULT_TOL):
    """Compose two spatial rotations into one.

    Multiplies the two axis paravectors and reads the half-angle
    parameters back out of the product, with the angle in [0, pi).
    Applying r1 then r2 equals applying the composition.  When the
    product is the identity the axis is arbitrary and the result carries
    ``axis_defined=False``.
    """
    p = spatial_axis(r1).value * spatial_axis(r2).value
    c = p.s.real
    m = (p.v[0].imag, p.v[1].imag, p.v[2].imag)
    s = math.sqrt(m[0] * m[0] + m[1] * m[1] + m[2] * m[2])
    if s <= tol.linear(1.0):
        return SpatialRotation((0.0, 0.0, 1.0), 0.0, axis_defined=False)
    return SpatialRotation((m[0] / s, m[1] / s, m[2] / s), math.atan2(s, c))


def _plane(w, tol, message):
    """``({0|w}, w.w, scale)``: the plane of a normal whose square is nonzero to ``tol``."""
    plane = _make(0j, _as_cvector(w))
    ww = vdot(plane.v, plane.v)
    sc = _pv_scale(plane)
    try:
        size = abs(ww)
    except OverflowError:  # finite parts, but a modulus beyond the float range
        size = math.inf
    if not size < math.inf:  # an infinite or NaN part, or that modulus
        raise ValidationError("w.w overflows: components too large")
    if size <= tol.quadratic(sc):
        raise IsotropicNormal(message)
    return plane, ww, sc


def _sandwich_plane(w, tol, message):
    """``({0|w}, w.w)`` of ``_plane``, for ``W g W / (w.w)``.

    Past a scale of 2**256 they come back as ``2**-e W`` and its square, with
    the scale of ``2**-e W`` in [1/2, 1): the quotient is the same, but the
    parts of ``1/(w.w)`` stay in the normal range instead of being rounded
    towards zero by complex division.  Power-of-two scaling is exact, so the
    result is bit for bit that of the normal scaled into [1/2, 1).
    """
    plane, ww, sc = _plane(w, tol, message)
    if sc > 2.0**256:
        e = -math.frexp(sc)[1]
        v = tuple(_ldexp(z, e) for z in plane.v)
        plane, ww = _make(0j, v), vdot(v, v)
    return plane, ww


def mirror(g, w, tol=DEFAULT_TOL):
    """Mirror symmetry with respect to the plane with (complex) normal w.

    The negated axial symmetry ``-W g W / (w.w)`` with ``W = {0|w}``: the
    scalar sign flips, the vector component along the normal is reflected.
    Normals with ``w.w = 0`` are rejected.
    """
    plane, ww = _sandwich_plane(w, tol, "mirror normal squares to zero")
    return _scale((plane * g) * plane, -1.0 / ww)


def compose_mirrors(w1, w2, tol=DEFAULT_TOL):
    """Rotation axis equivalent to mirroring in w1 and then in w2.

    The axis paravector is the product ``W1 W2 = {w1.w2 | i w1 x w2}`` of
    the two planes normalized to determinant one; applying the left
    rotation with it reproduces the two sequential mirrors.
    """
    p1, _, s1 = _plane(w1, tol, "mirror normal squares to zero")
    p2, _, s2 = _plane(w2, tol, "mirror normal squares to zero")
    # Not p1 * p2: the product adds 0j * 0j to w1.w2, which turns a scalar of
    # -0 into +0 and can flip cmath.sqrt(d) across its branch cut; then
    # compose_mirrors((-1, 0, 0), (1j, 0, 0)) would give the axis +1, not -1.
    u, w = p1.v, p2.v
    cr = vcross(u, w)
    num = _make(vdot(u, w), (1j * cr[0], 1j * cr[1], 1j * cr[2]))
    d = num.det()
    if abs(d) <= tol.quadratic(s1 * s2):
        raise DegenerateComposition("mirror normals compose to no definite axis")
    return RotationAxis(num * (1.0 / cmath.sqrt(d)))


def axial_symmetry(g, w, tol=DEFAULT_TOL):
    """Straight-angle rotation of g around the (complex) vector w.

    ``W g W / (w.w)`` with ``W = {0|w}``, computed as ``(-iW) g (iW) / (w.w)``:
    equal in value, but ``W g W`` flips the sign of some zero components.
    Preserves the scalar component; for a real w the vector part maps to
    ``2 (v.n) n - v`` with n the unit direction of w.
    """
    plane, ww = _sandwich_plane(w, tol, "axial vector squares to zero")
    w = plane.v
    left = _make(0j, (-1j * w[0], -1j * w[1], -1j * w[2]))
    right = _make(0j, (1j * w[0], 1j * w[1], 1j * w[2]))
    return _scale((left * g) * right, 1.0 / ww)
