"""One validator per input shape and one determinant-one check.

Malformed input raises a :class:`ParavectorError` (never a bare Python
error or a silently truncated result), and ``Angle``, ``RotationAxis`` and
``SpatialRotation`` test their invariants against ``DEFAULT_TOL``.
"""

import cmath
import math

import pytest

import paravec
from paravec import (
    DEFAULT_TOL,
    ONE,
    Angle,
    ArityError,
    BadUnitVector,
    ImproperParavector,
    InvariantViolation,
    Matrix2,
    Matrix4,
    Orientation,
    Paravector,
    ParavectorError,
    RotationAxis,
    SpatialRotation,
    Tolerance,
    ValidationError,
    angle,
    axial_symmetry,
    classify,
    compose_mirrors,
    mirror,
    rotate_vector,
)
from paravec import core, transforms
from paravec.wire import from_wire

ROT = SpatialRotation((0, 0, 1), 0.3)
RIGHT = Orientation.RIGHT

MALFORMED = {
    "scalar-text": lambda: Paravector("x", (0, 0, 0)),
    "scalar-numeric-text": lambda: Paravector("1", ("0", "2j", "0")),
    "scalar-none": lambda: Paravector(None, (0, 0, 0)),
    "scalar-huge-int": lambda: Paravector(10**400, (0, 0, 0)),
    "vector-short": lambda: Paravector(1, (0, 0)),
    "vector-not-a-sequence": lambda: Paravector(1, 5),
    "vector-nan": lambda: Paravector(1, (0, math.nan, 0)),
    "rotation-phi-text": lambda: SpatialRotation((0, 0, 1), "x"),
    "rotation-axis-complex": lambda: SpatialRotation((1j, 0, 0), 0.3),
    "rotation-axis-long": lambda: SpatialRotation((1, 0, 0, 0), 0.3),
    "tolerance-text": lambda: Tolerance("x", 1),
    "tolerance-numeric-text": lambda: Tolerance("1e-3", "0"),
    "tolerance-complex": lambda: Tolerance(1e-9, 1j),
    "wire-numeric-text": lambda: from_wire(["1"] * 8),
    "angle-of-a-tuple": lambda: Angle((1, 0, 0, 0), RIGHT),
    "axis-of-a-float": lambda: RotationAxis(1.0),
    "rotate-vector-4": lambda: rotate_vector((1, 0, 0, 99), ROT),
    "rotate-vector-complex": lambda: rotate_vector((1j, 0, 0), ROT),
    "about-4": lambda: SpatialRotation.about((1, 0, 0, 5), 0.3),
    "about-inf": lambda: SpatialRotation.about((math.inf, 0, 0), 0.3),
    "about-numeric-text": lambda: SpatialRotation.about(("1", 0, 0), 0.3),
    "mirror-normal-short": lambda: mirror(paravec.ONE, (1, 2)),
    "mirror-normal-inf": lambda: mirror(paravec.ONE, (math.inf, 0, 0)),
    "axial-vector-text": lambda: axial_symmetry(paravec.ONE, ("a", 0, 0)),
    "compose-mirrors-dict": lambda: compose_mirrors({0: 1, 1: 0, 3: 0}, (0, 1, 0)),
    "matrix-huge-int": lambda: Matrix4([[10**400, 0, 0, 0]] + [[0, 0, 0, 0]] * 3),
    "matrix2-numeric-text": lambda: Matrix2([["1", 0], [0, 1]]),
    "matrix2-of-a-number": lambda: Matrix2(5),
    "scale-numeric-text": lambda: core.component_scale("12"),
    "scale-text-list": lambda: core.component_scale(["1", "2e3"]),
    "scale-nan-list": lambda: core.component_scale([math.nan]),
    "scale-nan-number": lambda: core.component_scale(math.nan, 3.0),
    "scale-inf-list": lambda: core.component_scale([math.inf]),
    "scale-set": lambda: core.component_scale({1, 2}),
    "scale-complex-nan": lambda: core.component_scale([complex(math.nan, 0)]),
    "scale-complex-inf": lambda: core.component_scale((complex(math.inf, 0),)),
    "scale-complex-nan-number": lambda: core.component_scale(complex(math.nan), 3.0),
    "scale-complex-inf-imag": lambda: core.component_scale([1j, complex(0, -math.inf)]),
    "scalar-bool": lambda: Paravector(True, (0, 0, 0)),
    "wire-bool": lambda: from_wire([True] + [0] * 7),
    "tolerance-bool": lambda: Tolerance(True, False),
    "rotation-phi-bool": lambda: SpatialRotation((1, 0, 0), True),
    "scale-bool": lambda: core.component_scale(True),
    "mirror-normal-bool": lambda: mirror(paravec.ONE, (True, 0, 0)),
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


def test_component_scale_of_well_formed_items():
    assert core.component_scale() == 0.0
    assert core.component_scale(2.5, -7) == 7.0
    assert core.component_scale([1, -2.5], (3 - 4j,)) == 4.0
    assert core.component_scale(Paravector(0.5, (0, 0, 6j)), 1) == 6.0


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


@pytest.mark.parametrize(
    "numbers, error",
    [
        (["x"] + [0] * 7, ValidationError),
        ([1j] + [0] * 7, ValidationError),
        ([10**400] + [0] * 7, ValidationError),
        (5, ArityError),
    ],
    ids=["text", "complex", "huge-int", "not-a-sequence"],
)
def test_from_wire_rejects_malformed_library_input(numbers, error):
    with pytest.raises(error):
        from_wire(numbers)


def test_proper_means_what_normalize_and_angle_accept():
    # det = 0.9e-9 + 0.9e-9i: real and positive to tolerance, yet its real
    # part is below the threshold, so normalize and angle reject it
    p = Paravector(cmath.sqrt(0.9e-9 + 0.9e-9j), (0, 0, 0))
    assert not classify(p).is_proper and not classify(p).is_singular
    for call in (p.normalize, lambda: angle(p, ONE), lambda: RotationAxis.from_paravector(p)):
        with pytest.raises(ImproperParavector):
            call()


def test_module_is_defined_on_proper_or_singular_only():
    q = Paravector(cmath.sqrt(-0.9e-9 + 0.9e-9j), (0, 0, 0))
    assert not classify(q).is_proper and not classify(q).is_singular
    with pytest.raises(ImproperParavector):
        q.module()
    assert Paravector(1, (1, 0, 0)).module() == 0.0
    assert Paravector(2, (0, 0, 0)).module() == 2.0


def test_angle_orientation_must_be_an_orientation():
    with pytest.raises(TypeError, match="Orientation.RIGHT or Orientation.LEFT"):
        Angle(ONE, "sideways")


def test_axis_defined_must_be_a_bool():
    with pytest.raises(ValidationError, match="axis_defined"):
        SpatialRotation((0, 0, 1), 0.3, axis_defined="no")
    assert not SpatialRotation((0, 0, 1), 0.0, axis_defined=False).axis_defined


@pytest.mark.parametrize("scale", [1e200, 2.0**1000, 1.7e308])
def test_about_accepts_a_large_finite_axis(scale):
    for phi in (0.3, 2.5):
        assert SpatialRotation.about((scale, 0, 0), phi) == SpatialRotation.about((1, 0, 0), phi)
    n = SpatialRotation.about((scale, scale, -scale), 0.3).n
    assert all(abs(x - y) <= 1e-15 for x, y in zip(n, SpatialRotation.about((1, 1, -1), 0.3).n))


def test_about_scaling_leaves_moderate_axes_bit_identical():
    # the unit vector the unscaled norm gives wherever that norm is finite
    for axis in [(1, 2, -1), (3e-5, 1e-6, 0), (1e150, -2e149, 7e148), (1e-12, 0, 0)]:
        norm = math.sqrt(sum(c * c for c in axis))
        want = SpatialRotation(tuple(c / norm for c in axis), 0.3)
        assert SpatialRotation.about(axis, 0.3) == want
    for tiny in [(0, 0, 0), (9e-13, 0, 0), (1e-320, 0, 0)]:
        with pytest.raises(BadUnitVector, match="nonzero"):
            SpatialRotation.about(tiny, 0.3)
