"""Oriented integrated products, scalar product, vector products.

A law that ``paravec.fuzz`` asserts is not restated here; these tests hold frozen
examples, exact or bit identities, other magnitude bands and independent oracles.
"""

import numpy as np
import pytest

import _oracles as oracles
from paravec import (
    ONE,
    Orientation,
    Paravector,
    ValidationError,
    approx_eq,
    classify,
    integrated,
    scalar_product,
    vector_product,
)

A = Paravector(1, (1, 0, 0))
B = Paravector(1, (0, 1, 0))


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


class TestScalarProduct:
    def test_self_is_determinant(self):
        g = Paravector(1 + 2j, (0, 1, 1j))
        assert scalar_product(g, g) == pytest.approx(g.det())

    def test_frozen_example(self):
        assert scalar_product(A, B) == pytest.approx(1 + 0j)
        assert integrated(A, B, Orientation.RIGHT).s == pytest.approx(1 + 0j)

    def test_perpendicular_pair(self):
        assert scalar_product(ONE, Paravector(0, (1, 0, 0))) == 0

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
