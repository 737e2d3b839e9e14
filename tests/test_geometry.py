"""Parallelism/perpendicularity predicates and paravector angles.

A law that ``paravec.fuzz`` asserts is not restated here; these tests hold frozen
examples, exact or bit identities, other magnitude bands and independent oracles.
"""

import math

import pytest

from paravec import (
    ONE,
    ZERO,
    Angle,
    ImproperParavector,
    Orientation,
    OrientationMismatch,
    Paravector,
    SingularParavector,
    Tolerance,
    angle,
    approx_eq,
    compose_angles,
    explement,
    is_parallel,
    is_perpendicular,
    is_singularly_parallel,
    is_spatially_parallel,
    parallel_ratio,
    scalar_product,
)

RIGHT, LEFT = Orientation.RIGHT, Orientation.LEFT
TOL8 = Tolerance(1e-8, 1e-8)


class TestParallel:
    def test_scaled_copy_is_parallel(self):
        g = Paravector(2, (1, 0, 0))
        assert is_parallel(g, g * (2 - 1j))
        assert is_parallel(g, g)

    def test_generic_pair_is_not_parallel(self):
        assert not is_parallel(Paravector(2, (1, 0, 0)), Paravector(2, (0, 1, 0)))

    def test_singular_operand_raises(self):
        with pytest.raises(SingularParavector):
            is_parallel(Paravector(1, (1, 0, 0)), ONE)
        with pytest.raises(SingularParavector):
            parallel_ratio(ONE, ZERO)

    def test_ratio_recovery(self):
        g = Paravector(2, (1, 1j, 0))
        lam = 0.5 + 2j
        assert parallel_ratio(g * lam, g) == pytest.approx(lam)


class TestPerpendicular:
    def test_scalar_and_imaginary_vector(self):
        assert is_perpendicular(ONE, Paravector(0, (0, 1j, 0)))

    def test_never_perpendicular_to_itself(self):
        g = Paravector(2, (1, 0, 0))
        assert not is_perpendicular(g, g)

    def test_frozen_real_pair(self):
        assert is_perpendicular(Paravector(2, (1, 0, 0)), Paravector(1, (2, 0, 0)))

    def test_self_perpendicularity_marks_singularity(self):
        g = Paravector(1, (1, 0, 0))
        assert scalar_product(g, g) == 0


class TestSpatialParallel:
    def test_collinear_vector_parts(self):
        a = Paravector(5, (1, 2, 3))
        b = Paravector(-1j, (2, 4, 6))
        assert is_spatially_parallel(a, b)

    def test_parallel_implies_spatially_parallel(self):
        g = Paravector(2, (1, 0, 0))
        assert is_spatially_parallel(g, g * (1 + 3j))

    def test_independent_vector_parts(self):
        assert not is_spatially_parallel(Paravector(1, (1, 0, 0)), Paravector(1, (0, 1, 0)))

    def test_spatially_parallel_without_parallel(self):
        # same vector direction but incompatible scalars
        a = Paravector(2, (1, 0, 0))
        b = Paravector(3, (2, 0, 0))
        assert is_spatially_parallel(a, b)
        assert not is_parallel(a, b)


class TestSingularParallel:
    def test_singular_with_itself(self):
        g = Paravector(1, (1, 0, 0))
        assert is_singularly_parallel(g, g)

    def test_different_null_directions(self):
        assert not is_singularly_parallel(
            Paravector(1, (1, 0, 0)), Paravector(1, (0, 1, 0))
        )

    def test_verdict_forces_both_singular(self):
        from paravec import classify

        g = Paravector(1, (1, 0, 0))
        h = g * (2 + 1j)
        assert is_singularly_parallel(g, h)
        assert classify(g).is_singular and classify(h).is_singular


# Each predicate tests a bilinear quantity against abs + rel * scale_a * scale_b,
# scale being an operand's largest absolute real component.  A Euclidean-norm
# threshold would accept every "off" pair below.  Spread by k = 2**10, a pair
# keeps its quantity and threshold bit for bit; scale_a + scale_b would not.
@pytest.mark.parametrize(
    "predicate, pair, on, off",
    [
        (is_perpendicular, lambda e: (Paravector(1, (1, 1, 1)), Paravector(1 + e, (1, 1, -1))),
         1e-9, 3e-9),
        (is_parallel, lambda e: (Paravector(2, (2, 2, 2)), Paravector(2, (2, 2, 2 + e))),
         1e-9, 3e-9),
        (is_spatially_parallel, lambda e: (Paravector(0, (1, 1, 1)), Paravector(0, (1, 1, 1 + e))),
         1e-9, 2.5e-9),
        (is_singularly_parallel, lambda e: (Paravector(3, (1, 2, 2)), Paravector(3, (1, 2, 2 + e))),
         2e-9, 4e-9),
    ],
    ids=["perpendicular", "parallel", "spatially-parallel", "singularly-parallel"],
)
def test_bilinear_predicates_scale_by_largest_components(predicate, pair, on, off):
    for k in (1, 2**10):
        a, b = pair(on)
        assert predicate(a * k, b / k), k
        a, b = pair(off)
        assert not predicate(a * k, b / k), k


class TestAngle:
    def test_zero_angle(self):
        g = Paravector(2, (1, 0, 0))
        assert approx_eq(angle(g, g, RIGHT).value, ONE)

    def test_imaginary_unit_vectors_give_a_quarter_turn(self):
        a = Paravector(0, (1j, 0, 0))
        b = Paravector(0, (0, 1j, 0))
        got = angle(a, b, RIGHT)
        assert approx_eq(got.value, Paravector(0, (0, 0, 1j)))

    def test_cosinis_of_a_real_pair(self):
        a = Paravector(2, (1, 0, 0))
        b = Paravector(2, (0, 1, 0))
        got = angle(a, b, RIGHT)
        assert got.cosinis == pytest.approx(4 / 3)
        assert got.value.det() == pytest.approx(1 + 0j)

    def test_dextis_is_sinis_under_its_right_orientation_name(self):
        assert Angle.dextis is Angle.sinis

    def test_improper_operand_raises(self):
        with pytest.raises(ImproperParavector):
            angle(Paravector(1, (1, 0, 0)), ONE, RIGHT)
        with pytest.raises(ImproperParavector):
            angle(Paravector(1, (2, 0, 0)), ONE, RIGHT)

    def test_angle_value_must_have_unit_determinant(self):
        from paravec import InvariantViolation

        with pytest.raises(InvariantViolation):
            Angle(Paravector(2, (0, 0, 0)), RIGHT)


class TestAngleComposition:
    def test_identity_composes_neutrally(self):
        a = Paravector(2, (1, 0, 0))
        b = Paravector(2, (0, 1, 0))
        f = angle(a, b, LEFT)
        assert approx_eq(compose_angles(f, Angle.identity(LEFT)).value, f.value)

    def test_two_quarter_turns_make_a_half_turn(self):
        quarter = Angle(
            Paravector(math.cos(math.pi / 4), (0, 0, 1j * math.sin(math.pi / 4))),
            LEFT,
        )
        got = compose_angles(quarter, quarter)
        assert approx_eq(got.value, Paravector(0, (0, 0, 1j)))

    def test_mixed_orientations_refuse_to_compose(self):
        f = Angle.identity(LEFT)
        g = Angle.identity(RIGHT)
        with pytest.raises(OrientationMismatch):
            compose_angles(f, g)


class TestExplement:
    def test_swaps_the_arguments(self):
        a = Paravector(2, (1, 1j, 0))
        b = Paravector(3, (0, 1, 1j))
        assert approx_eq(
            explement(angle(a, b, LEFT)).value, angle(b, a, LEFT).value, TOL8
        )

    def test_identity_is_its_own_explement(self):
        assert explement(Angle.identity(LEFT)).value == ONE

    def test_involution(self):
        a = Paravector(2, (1, 0, 0))
        b = Paravector(2, (0, 1, 0))
        f = angle(a, b, RIGHT)
        assert approx_eq(explement(explement(f)).value, f.value)

    def test_keeps_cosinis_and_negates_the_vector(self):
        a = Paravector(2, (1, 0, 0))
        b = Paravector(2, (0, 1, 1j))
        f = angle(a, b, LEFT)
        e = explement(f)
        assert e.cosinis == f.cosinis
        assert e.sinis == tuple(-z for z in f.sinis)


def test_left_and_right_angles_are_not_explementary():
    # composing the left and the right angle of the same pair does not
    # give the identity; one concrete witness is enough
    a = Paravector(2, (1, 0, 0))
    b = Paravector(2, (0, 1, 0))
    left = angle(a, b, LEFT)
    right = angle(a, b, RIGHT)
    product = left.value * right.value
    assert not approx_eq(product, ONE)
    assert product.s == pytest.approx(7 / 9)


class TestAngleCharacter:
    def test_trigonometric_pair(self):
        w1, w2 = (1.0, 0.5, -0.25), (0.0, 2.0, 1.0)
        a = Paravector(0, tuple(1j * x for x in w1))
        b = Paravector(0, tuple(1j * x for x in w2))
        f = angle(a, b, RIGHT)
        assert f.cosinis.imag == pytest.approx(0.0, abs=1e-12)
        assert all(z.real == pytest.approx(0.0, abs=1e-12) for z in f.dextis)
        m2 = sum(z.imag ** 2 for z in f.dextis)
        assert f.cosinis.real ** 2 + m2 == pytest.approx(1.0)

    def test_hyperbolic_pair(self):
        n = (0.6, 0.8, 0.0)
        a = Paravector(1.5 * math.cosh(0.7), tuple(1.5 * x for x in n))
        b = Paravector(-0.5 * math.cosh(1.1), tuple(0.5 * x for x in n))
        f = angle(a, b, RIGHT)
        assert f.cosinis.imag == pytest.approx(0.0, abs=1e-12)
        assert all(z.imag == pytest.approx(0.0, abs=1e-12) for z in f.dextis)
        d2 = sum(z.real ** 2 for z in f.dextis)
        assert f.cosinis.real ** 2 - d2 == pytest.approx(1.0)
