"""One validator per input shape and one determinant-one check.

Malformed input raises a :class:`ParavectorError` (never a bare Python
error or a silently truncated result), and ``Angle``, ``RotationAxis`` and
``SpatialRotation`` test their invariants against ``DEFAULT_TOL``.
"""

import math

import pytest

import paravec
from paravec import (
    DEFAULT_TOL,
    Angle,
    BadUnitVector,
    ImproperParavector,
    InvariantViolation,
    Matrix4,
    Orientation,
    Paravector,
    ParavectorError,
    RotationAxis,
    SpatialRotation,
    Tolerance,
    angle,
    axial_symmetry,
    compose_mirrors,
    mirror,
    rotate_vector,
)
from paravec import core, transforms

ROT = SpatialRotation((0, 0, 1), 0.3)
RIGHT = Orientation.RIGHT

MALFORMED = {
    "scalar-text": lambda: Paravector("x", (0, 0, 0)),
    "scalar-none": lambda: Paravector(None, (0, 0, 0)),
    "scalar-huge-int": lambda: Paravector(10**400, (0, 0, 0)),
    "vector-short": lambda: Paravector(1, (0, 0)),
    "vector-not-a-sequence": lambda: Paravector(1, 5),
    "vector-nan": lambda: Paravector(1, (0, math.nan, 0)),
    "rotation-phi-text": lambda: SpatialRotation((0, 0, 1), "x"),
    "rotation-axis-complex": lambda: SpatialRotation((1j, 0, 0), 0.3),
    "rotation-axis-long": lambda: SpatialRotation((1, 0, 0, 0), 0.3),
    "tolerance-text": lambda: Tolerance("x", 1),
    "tolerance-complex": lambda: Tolerance(1e-9, 1j),
    "angle-of-a-tuple": lambda: Angle((1, 0, 0, 0), RIGHT),
    "axis-of-a-float": lambda: RotationAxis(1.0),
    "rotate-vector-4": lambda: rotate_vector((1, 0, 0, 99), ROT),
    "rotate-vector-complex": lambda: rotate_vector((1j, 0, 0), ROT),
    "about-4": lambda: SpatialRotation.about((1, 0, 0, 5), 0.3),
    "about-inf": lambda: SpatialRotation.about((math.inf, 0, 0), 0.3),
    "mirror-normal-short": lambda: mirror(paravec.ONE, (1, 2)),
    "mirror-normal-inf": lambda: mirror(paravec.ONE, (math.inf, 0, 0)),
    "axial-vector-text": lambda: axial_symmetry(paravec.ONE, ("a", 0, 0)),
    "compose-mirrors-dict": lambda: compose_mirrors({0: 1, 1: 0, 3: 0}, (0, 1, 0)),
    "matrix-huge-int": lambda: Matrix4([[10**400, 0, 0, 0]] + [[0, 0, 0, 0]] * 3),
}


@pytest.mark.parametrize("make", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_raises_a_paravector_error(make):
    with pytest.raises(ParavectorError):
        make()


def test_non_finite_rotation_axis_is_not_called_zero():
    with pytest.raises(ParavectorError, match="finite"):
        SpatialRotation.about((math.inf, 0, 0), 0.3)


def test_well_formed_input_is_converted():
    p = Paravector(1, [1, 0.5, 2j])
    assert p.v == (1 + 0j, 0.5 + 0j, 2j) and p.s == 1 + 0j
    assert SpatialRotation([0, 0, 1 + 0j], 1).n == (0.0, 0.0, 1.0)
    tol = Tolerance(1, 0)
    assert (type(tol.abs), type(tol.rel)) == (float, float)
    assert rotate_vector([1, 0, 0], SpatialRotation((0, 0, 1), 0.0)) == (1.0, 0.0, 0.0)


def test_is_orthogonal_transform_is_one_object():
    assert paravec.is_orthogonal_transform is core.is_orthogonal_transform
    assert transforms.is_orthogonal_transform is core.is_orthogonal_transform


def _det_one_plus(eps):
    return Paravector(math.sqrt(1.0 + eps), (0, 0, 0))


def test_a_determinant_of_one_plus_1e7_is_rejected():
    p = _det_one_plus(1e-7)
    assert abs(p.det() - 1.0) > 5e-8
    with pytest.raises(InvariantViolation, match="determinant one"):
        Angle(p, RIGHT)
    with pytest.raises(ImproperParavector, match="determinant one"):
        RotationAxis(p)


def test_determinant_one_at_scale_1e3_is_accepted():
    # the error in det is above the absolute floor, below the scaled threshold
    x = 1000.0
    p = Paravector(math.sqrt(1.0 + x * x + 1e-7), (x, 0, 0))
    err = abs(p.det() - 1.0)
    assert DEFAULT_TOL.abs < err <= DEFAULT_TOL.quadratic(x)
    assert Angle(p, RIGHT).value is p
    assert RotationAxis(p).value is p


def test_unit_length_is_checked_at_the_default_tolerance():
    with pytest.raises(BadUnitVector):
        SpatialRotation((1.0 + 1e-7, 0, 0), 0.3)
    n = SpatialRotation((1.0 + 1e-10, 0, 0), 0.3).n
    assert n == (1.0, 0.0, 0.0)


@pytest.mark.parametrize("imag, tol", [(5e-9, DEFAULT_TOL), (5e-8, Tolerance(1e-7, 1e-7))])
def test_angle_accepts_every_operand_its_proper_test_accepts(imag, tol):
    # det(a) = 0.01 + 1e-8i: its imaginary part passes the proper test at
    # ``tol`` but is far above the Angle check's threshold relative to 0.01
    a = Paravector(0.1 + imag * 1j, (0, 0, 0))
    assert abs(a.det().imag) <= tol.quadratic(0.1)
    for value in (angle(a, paravec.ONE, tol=tol).value, angle(a, a, tol=tol).value):
        assert abs(value.det() - 1.0) <= 1e-15


def test_from_paravector_rejects_an_axis_a_loose_tolerance_lets_through():
    # normalize at 1e-3 accepts it, but its normalized determinant is 1-1e-4i
    p = Paravector(1, (0, 0, 0.01 + 0.005j))
    with pytest.raises(ImproperParavector, match="determinant one"):
        RotationAxis.from_paravector(p, Tolerance(1e-3, 1e-3))


def test_internally_built_axes_have_determinant_one():
    axes = [
        RotationAxis.identity(),
        RotationAxis.from_paravector(Paravector(2, (1, 0.5j, 0))),
        transforms.spatial_axis(SpatialRotation.about((1, 2, -1), 0.9)),
        compose_mirrors((1, 0, 0), (1, 1, 0)),
    ]
    for axis in axes:
        assert type(axis) is RotationAxis
        assert paravec.is_orthogonal_transform(axis.value)
        assert RotationAxis(axis.value) == axis
