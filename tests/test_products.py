"""Oriented integrated products, scalar product, vector products."""

import numpy as np
import pytest
from hypothesis import given

import _oracles as oracles
from _strategies import components, paravectors
from paravec import (
    ONE,
    Orientation,
    Paravector,
    Tolerance,
    ValidationError,
    approx_eq,
    classify,
    integrated,
    scalar_product,
    vdot,
    vector_product,
)

A = Paravector(1, (1, 0, 0))
B = Paravector(1, (0, 1, 0))
TOL8 = Tolerance(1e-8, 1e-8)


class TestIntegrated:
    def test_self_product_collapses_to_determinant(self):
        g = Paravector(2 - 1j, (1, 2j, 0.5))
        p = integrated(g, g, Orientation.RIGHT)
        assert isinstance(p, Paravector)
        assert approx_eq(p, Paravector(g.det(), (0, 0, 0)))

    def test_right_example(self):
        got = integrated(A, B, Orientation.RIGHT)
        assert got == Paravector(1, (1, -1, -1j))
        # cross-check through the matrix embedding
        want = oracles.np4(A) @ oracles.np4(B.rev())
        assert np.allclose(oracles.np4(got), want)

    def test_left_example(self):
        got = integrated(A, B, Orientation.LEFT)
        assert got == Paravector(1, (-1, 1, -1j))

    def test_orientation_must_be_an_orientation(self):
        with pytest.raises(TypeError):
            integrated(A, B, "right")

    @given(paravectors(), paravectors())
    def test_scalar_parts_of_both_orientations_agree(self, a, b):
        r = integrated(a, b, Orientation.RIGHT).s
        l = integrated(a, b, Orientation.LEFT).s
        sp = scalar_product(a, b)
        assert r == pytest.approx(sp, abs=1e-9)
        assert l == pytest.approx(sp, abs=1e-9)

    @given(paravectors(), paravectors())
    def test_reversion_swaps_the_arguments(self, a, b):
        for o in Orientation:
            assert approx_eq(
                integrated(a, b, o).rev(), integrated(b, a, o), TOL8
            )

    @given(paravectors(), paravectors(), paravectors())
    def test_additive_in_the_first_argument(self, a, b, c):
        for o in Orientation:
            lhs = integrated(a + b, c, o)
            rhs = integrated(a, c, o) + integrated(b, c, o)
            assert approx_eq(lhs, rhs, TOL8)

    @given(paravectors(), paravectors(), components, components)
    def test_homogeneous_in_complex_scalars(self, a, b, re, im):
        lam = complex(re, im)
        for o in Orientation:
            base = integrated(a, b, o) * lam
            assert approx_eq(integrated(a * lam, b, o), base, TOL8)
            assert approx_eq(integrated(a, b * lam, o), base, TOL8)

    @given(paravectors(), paravectors())
    def test_determinant_factorizes(self, a, b):
        target = a.det() * b.det()
        for o in Orientation:
            d = integrated(a, b, o).det()
            assert abs(d - target) <= 1e-8 * max(1.0, abs(d), abs(target))
        sp = scalar_product(a, b)
        vv = vector_product(a, b, Orientation.RIGHT)
        lhs = sp * sp - vdot(vv, vv)
        assert abs(lhs - target) <= 1e-8 * max(1.0, abs(lhs), abs(target))


class TestScalarProduct:
    def test_self_is_determinant(self):
        g = Paravector(1 + 2j, (0, 1, 1j))
        assert scalar_product(g, g) == pytest.approx(g.det())

    def test_frozen_example(self):
        assert scalar_product(A, B) == pytest.approx(1 + 0j)
        assert integrated(A, B, Orientation.RIGHT).s == pytest.approx(1 + 0j)

    def test_perpendicular_pair(self):
        assert scalar_product(ONE, Paravector(0, (1, 0, 0))) == 0

    @given(paravectors(), paravectors())
    def test_symmetric(self, a, b):
        assert scalar_product(a, b) == pytest.approx(scalar_product(b, a))

    def test_zero_self_product_implies_singular(self):
        g = Paravector(1, (1, 0, 0))
        assert scalar_product(g, g) == 0
        assert classify(g).is_singular

    def test_overflow_raises(self):
        big = Paravector(1e200, (0, 0, 0))
        with pytest.raises(ValidationError):
            scalar_product(big, big)
        with pytest.raises(ValidationError):
            scalar_product(Paravector(0, (1e200, 0, 0)), Paravector(0, (1e200, 0, 0)))


class TestVectorProduct:
    def test_self_product_has_no_vector_part(self):
        g = Paravector(2, (1j, 0, 3))
        assert vector_product(g, g, Orientation.RIGHT) == (0, 0, 0)

    def test_frozen_right_example(self):
        assert vector_product(A, B, Orientation.RIGHT) == (1, -1, -1j)

    def test_pure_vectors_give_scaled_cross(self):
        a = Paravector(0, (1, 0, 0))
        b = Paravector(0, (0, 1, 0))
        assert vector_product(a, b, Orientation.RIGHT) == (0, 0, -1j)

    def test_real_paravectors_relate_orientations_by_conjugation(self):
        # with fully real components the right product is the negated
        # conjugate of the left one; complex components break this
        a = Paravector(1.5, (0.5, -2, 1))
        b = Paravector(-0.25, (1, 2, 3))
        right = vector_product(a, b, Orientation.RIGHT)
        left = vector_product(a, b, Orientation.LEFT)
        assert right == tuple(-z.conjugate() for z in left)

    def test_conjugation_identity_fails_for_complex_components(self):
        a = Paravector(0, (1j, 0, 0))
        b = Paravector(0, (0, 1, 0))
        right = vector_product(a, b, Orientation.RIGHT)
        left = vector_product(a, b, Orientation.LEFT)
        assert right != tuple(-z.conjugate() for z in left)


@given(paravectors(), paravectors())
def test_spatial_embeddings_recover_the_euclidean_dot(a, b):
    w1 = tuple(z.real for z in a.v)
    w2 = tuple(z.real for z in b.v)
    dot = sum(x * y for x, y in zip(w1, w2))
    real_a = Paravector(0, w1)
    real_b = Paravector(0, w2)
    assert scalar_product(real_a, real_b) == pytest.approx(-dot)
    imag_a = Paravector(0, tuple(1j * x for x in w1))
    imag_b = Paravector(0, tuple(1j * x for x in w2))
    assert scalar_product(imag_a, imag_b) == pytest.approx(dot)
