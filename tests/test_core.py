"""Ring operations, involutions, determinant/vigor machinery, classification.

A law that ``paravec.fuzz`` asserts is not restated here; these tests hold frozen
examples, exact or bit identities, other magnitude bands and independent oracles.
"""

import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import _oracles as oracles
from _strategies import (
    moderate_paravectors,
    nonsingular_paravectors,
    paravectors,
    proper_paravectors,
    real_vectors,
)
from paravec import (
    DEFAULT_TOL,
    ONE,
    ZERO,
    ImproperParavector,
    InvariantViolation,
    Paravector,
    RotationAxis,
    SingularParavector,
    Tolerance,
    ValidationError,
    angle,
    approx_eq,
    classify,
    is_orthogonal_transform,
    is_singularly_parallel,
    mul,
)
from paravec.wire import from_wire, to_wire

E1 = Paravector(0, (1, 0, 0))
E2 = Paravector(0, (0, 1, 0))


def pv(s, v):
    return Paravector(s, v)


def _times_two_to(p, k):
    """``p`` times ``2**k``, each real part scaled exactly."""
    s, x, y, z = (complex(math.ldexp(c.real, k), math.ldexp(c.imag, k)) for c in (p.s, *p.v))
    return Paravector(s, (x, y, z))


class TestConstruction:
    def test_components_are_normalized_to_complex(self):
        p = Paravector(1, [1, 0, 0])
        assert p.s == 1 + 0j
        assert p.v == (1 + 0j, 0j, 0j)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValidationError):
            Paravector(float("nan"), (0, 0, 0))
        with pytest.raises(ValidationError):
            Paravector(0, (0, complex(0, float("inf")), 0))

    def test_rejects_wrong_vector_arity(self):
        with pytest.raises(ValidationError):
            Paravector(0, (1, 2))
        with pytest.raises(ValidationError):
            Paravector(0, (1, 2, 3, 4))

    def test_equality_is_exact_and_hashable(self):
        a = pv(1 + 2j, (3, 4j, 5))
        b = pv(1 + 2j, (3, 4j, 5))
        assert a == b and hash(a) == hash(b)
        assert a != pv(1 + 2j, (3, 4j, 5 + 1e-12))

    def test_tolerance_validation(self):
        with pytest.raises(ValidationError):
            Tolerance(-1.0, 0.0)

    def test_str_is_compact(self):
        assert str(pv(1 + 1j, (1, 0, 0))) == "{1+1i | (1, 0, 0)}"


class TestAddition:
    def test_identity(self):
        assert ONE + ZERO == ONE

    def test_opposite_element(self):
        a = pv(1 + 1j, (1, 0, 0))
        b = pv(-1 - 1j, (-1, 0, 0))
        assert a + b == ZERO

    def test_componentwise(self):
        assert pv(1, (1, 0, 0)) + pv(2, (0, 1j, 0)) == pv(3, (1, 1j, 0))

    def test_scalar_coercion(self):
        assert pv(1, (1, 0, 0)) + 2 == pv(3, (1, 0, 0))
        assert 2 + pv(1, (1, 0, 0)) == pv(3, (1, 0, 0))
        assert 2 - pv(1, (1, 0, 0)) == pv(1, (-1, 0, 0))


class TestOperatorProtocol:
    """Operands that are neither paravectors nor plain numbers get ``NotImplemented``."""

    G = pv(1, (2, 0, 1j))

    @pytest.mark.parametrize(
        "op",
        [
            lambda g: g + "x",
            lambda g: g - "x",
            lambda g: "x" - g,
            lambda g: g * "x",
            lambda g: "x" * g,
            lambda g: g / "x",
            lambda g: g + True,
            lambda g: g * True,
        ],
        ids=["add", "sub", "rsub", "mul", "rmul", "truediv", "add-bool", "mul-bool"],
    )
    def test_foreign_operand_raises_type_error(self, op):
        with pytest.raises(TypeError):
            op(self.G)

    def test_unary_plus_is_the_operand(self):
        assert +self.G is self.G


class TestMultiplication:
    def test_neutral_element(self):
        g = pv(2 - 1j, (1j, 3, 0.5))
        assert approx_eq(ONE * g, g) and approx_eq(g * ONE, g)

    def test_product_picks_up_imaginary_cross(self):
        # hand expansion, cross-checked against the 4x4 embedding oracle
        a = pv(1, (1, 0, 0))
        b = pv(0, (0, 1, 0))
        got = a * b
        assert got == pv(0, (0, 1, 1j))
        assert np.allclose(oracles.np4(got), oracles.np4(a) @ oracles.np4(b))

    def test_reversed_order_flips_the_cross_term(self):
        a = pv(1, (1, 0, 0))
        b = pv(0, (0, 1, 0))
        got = b * a
        assert got == pv(0, (0, 1, -1j))
        assert np.allclose(oracles.np4(got), oracles.np4(b) @ oracles.np4(a))

    def test_scalar_multiplication_is_componentwise(self):
        g = pv(1 + 1j, (2, 3j, -1))
        assert approx_eq(g * (2 - 1j), pv((1 + 1j) * (2 - 1j), (4 - 2j, 6j + 3, -2 + 1j)))
        assert approx_eq((2 - 1j) * g, g * (2 - 1j))

    def test_division_by_scalar(self):
        g = pv(2, (4, 0, 0))
        assert approx_eq(g / 2, pv(1, (2, 0, 0)))


class TestInvolutions:
    def test_rev_flips_vector_part(self):
        assert ONE.rev() == ONE
        assert pv(1 + 1j, (1, 1j, 0)).rev() == pv(1 + 1j, (-1, -1j, 0))

    def test_conj_conjugates_everything(self):
        assert pv(1, (1, 0, 0)).conj() == pv(1, (1, 0, 0))
        assert pv(1j, (0, 1j, 0)).conj() == pv(-1j, (0, -1j, 0))

    @given(paravectors())
    def test_rev_is_an_involution(self, g):
        assert g.rev().rev() == g

    @given(paravectors())
    def test_conj_commutes_with_rev(self, g):
        assert g.rev().conj() == g.conj().rev()


class TestVigor:
    def test_identity(self):
        assert ONE.vig() == ONE

    def test_frozen_example(self):
        # components a=1, b=(1,0,0), c=(0,1,0); expansion gives {3|(2,0,2)}
        g = pv(1, (1, 1j, 0))
        assert approx_eq(g.vig(), pv(3, (2, 0, 2)))
        scalar, vector = oracles.vig_components(g)
        assert g.vig().s == pytest.approx(scalar)
        assert np.allclose([z.real for z in g.vig().v], vector)

    @given(paravectors())
    def test_vig_matches_component_expansion(self, g):
        scalar, vector = oracles.vig_components(g)
        w = g.vig()
        thr = DEFAULT_TOL.quadratic(max(1.0, abs(scalar)))
        assert abs(w.s - scalar) <= thr
        assert all(abs(w.v[k] - vector[k]) <= thr for k in range(3))


class TestDeterminant:
    def test_singular_example(self):
        assert pv(1, (1, 0, 0)).det() == 0

    def test_complex_example(self):
        # (1+i)^2 - 1 = -1+2i; same through the product with the reversion
        g = pv(1 + 1j, (1, 0, 0))
        assert g.det() == pytest.approx(-1 + 2j)
        assert mul(g, g.rev()).s == pytest.approx(-1 + 2j)

    def test_imaginary_vector_example(self):
        # 1 - (i)^2 = 2, and the 4x4 determinant is its square
        g = pv(1, (0, 1j, 0))
        assert g.det() == pytest.approx(2 + 0j)
        assert np.linalg.det(oracles.np4(g)) == pytest.approx(4 + 0j)

    @given(paravectors())
    def test_matches_component_expansion(self, g):
        d = g.det()
        expected = oracles.det_components(g)
        assert abs(d - expected) <= DEFAULT_TOL.quadratic(max(1.0, abs(d)))


class TestInverse:
    def test_frozen_example(self):
        g = pv(2, (1, 0, 0))
        inv = g.inverse()
        assert approx_eq(inv, pv(2 / 3, (-1 / 3, 0, 0)))
        assert approx_eq(g * inv, ONE)

    def test_identity_is_self_inverse(self):
        assert approx_eq(ONE.inverse(), ONE)

    def test_singular_input_raises(self):
        with pytest.raises(SingularParavector):
            pv(1, (1, 0, 0)).inverse()

    @given(proper_paravectors())
    def test_left_and_right_inverse(self, g):
        inv = g.inverse()
        assert approx_eq(g * inv, ONE, Tolerance(1e-7, 1e-7))
        assert approx_eq(inv * g, ONE, Tolerance(1e-7, 1e-7))

    def test_a_reciprocal_determinant_below_the_normal_range(self):
        # d and its modulus are finite, but 1/d is subnormal and lost its digits
        s = cmath.sqrt(1e308 + 1e308j)
        g = Paravector(s, (0j, 0j, 0j))
        inv = g.inverse()
        assert cmath.isclose(inv.s, 1 / s, rel_tol=1e-15)
        assert inv.v == (0j, 0j, 0j)
        assert approx_eq(inv * g, ONE) and approx_eq(g * inv, ONE)

    @given(nonsingular_paravectors(), st.floats(2.0**509, 2.0**511, exclude_min=True))
    @example(from_wire([4.0, -4.0, 0.0, 0.0, 0.5, 4.0, -4.0, 0.5]), 2.0**511)  # zeros before
    def test_inverse_at_scales_above_2_to_the_509(self, h, scale):
        g = h * (scale / max(map(abs, to_wire(h))))
        assume(cmath.isfinite(oracles.det_components(g)))
        inv = g.inverse()
        assert approx_eq(inv * g, ONE, Tolerance(1e-7, 1e-7))
        assert approx_eq(g * inv, ONE, Tolerance(1e-7, 1e-7))

    @given(moderate_paravectors, st.integers(0, 600))
    # scaled to 2**508, 1/d had a subnormal part and lost its last bits
    @example(Paravector(0.25j, (-0.75 + 0.25j, 1.5 - 1.25j, 0.75 - 1.25j)), 508)
    # scaled to 2**509, multiplying by a float power of two turned a -0 part into 0
    @example(Paravector(1 - 0.5j, (0.75 + 0.5j, complex(-0.0, 0.0), 1 - 1.5j)), 509)
    def test_a_power_of_two_times_a_paravector_inverts_bit_for_bit_alike(self, g, k):
        try:
            want = g.inverse()
        except SingularParavector:
            assume(False)
        try:
            got = _times_two_to(g, k).inverse()
        except ValidationError as err:
            # 2**k g squares past the float range
            assert "determinant overflows" in str(err) and k > 500
            return
        assert repr(_times_two_to(got, k)) == repr(want)


class TestModule:
    def test_frozen_example(self):
        assert pv(2, (1, 0, 0)).module() == pytest.approx(math.sqrt(3))

    def test_singular_has_zero_module(self):
        assert pv(1, (1, 0, 0)).module() == 0.0

    def test_negative_determinant_raises(self):
        with pytest.raises(ImproperParavector):
            pv(1, (2, 0, 0)).module()


class TestNormalize:
    def test_scalar_example(self):
        assert approx_eq(pv(2, (0, 0, 0)).normalize(), ONE)

    def test_frozen_example(self):
        n = pv(2, (1, 0, 0)).normalize()
        r = math.sqrt(3)
        assert approx_eq(n, pv(2 / r, (1 / r, 0, 0)))
        assert n.det() == pytest.approx(1 + 0j)

    def test_singular_input_raises(self):
        with pytest.raises(ImproperParavector):
            pv(1, (1, 0, 0)).normalize()


class TestClassify:
    def test_singular_example(self):
        c = classify(pv(1, (1, 0, 0)))
        assert c.is_singular and not c.is_proper

    def test_unitar_special_orthogonal_example(self):
        t = 0.3
        g = pv(math.cos(t), (0, 0, 1j * math.sin(t)))
        c = classify(g)
        assert c.is_proper and c.is_orthogonal and c.is_special and c.is_unitar
        assert approx_eq(g.vig(), ONE)

    def test_neither_proper_nor_singular(self):
        c = classify(pv(1 + 1j, (1, 0, 0)))
        assert not c.is_proper and not c.is_singular
        assert c.det == pytest.approx(-1 + 2j)

    @given(paravectors())
    def test_proper_and_singular_exclusive(self, g):
        c = classify(g)
        assert not (c.is_proper and c.is_singular)
        if c.is_orthogonal:
            assert c.is_proper


# abs = 0, so rel * scale (or rel * scale**2) alone sets each threshold below;
# each operand pair sits at 0.5 and at 2 times it
_REL = Tolerance(0.0, 1e-6)
_AT_THRESHOLD = pytest.mark.parametrize("factor, verdict", [(0.5, True), (2.0, False)])


class TestVerdictsAtTheThreshold:
    @_AT_THRESHOLD
    def test_approx_eq_weighs_the_largest_difference_against_rel_scale(self, factor, verdict):
        # scale 1000, threshold 1e-3; the only difference sits in an imaginary part
        a = pv(1000, (1, 2j, -3))
        b = pv(1000, (1, 2j + factor * 1e-3j, -3))
        assert approx_eq(a, b, _REL) is verdict
        assert approx_eq(b, a, _REL) is verdict
        assert a.approx_eq(b, _REL) is verdict

    @_AT_THRESHOLD
    def test_unitar_weighs_the_vigor_scalar_against_rel_scale_squared(self, factor, verdict):
        # vig = {c*c | 0}, scale c, threshold 1e-6 * c*c
        c = classify(pv(math.sqrt(1.0 + factor * 1e-6), (0, 0, 0)), _REL)
        assert c.is_proper and c.is_unitar is verdict

    @_AT_THRESHOLD
    def test_unitar_weighs_the_vigor_vector_against_rel_scale_squared(self, factor, verdict):
        # vig = {1 + b*b | (2b, 0, 0)}, scale 1, threshold 1e-6: the vector part decides
        b = factor * 0.5e-6
        c = classify(pv(1, (b, 0, 0)), _REL)
        assert c.is_proper and c.is_unitar is verdict


def _boost(r, n):
    """``{cosh r | sinh r n}`` for a real direction ``n``: determinant one in exact arithmetic."""
    k = math.sinh(r) / math.sqrt(n[0] ** 2 + n[1] ** 2 + n[2] ** 2)
    return Paravector(math.cosh(r), (k * n[0], k * n[1], k * n[2]))


@st.composite
def _det_one_candidates(draw):
    """Paravectors, the same scaled by 2**k, and boosts: determinants near one at every scale."""
    kind = draw(st.sampled_from(["plain", "scaled", "boost"]))
    if kind == "boost":
        return _boost(draw(st.floats(0, 14)), draw(real_vectors()))
    p = draw(paravectors())
    return p * 2.0 ** draw(st.integers(0, 20)) if kind == "scaled" else p


_tolerances = st.builds(Tolerance, st.floats(0, 1), st.floats(0, 1e-6))


class TestOneDeterminantOneRule:
    """``classify`` and ``is_orthogonal_transform`` decide determinant one by the same rule."""

    @given(_det_one_candidates(), st.one_of(st.just(DEFAULT_TOL), _tolerances))
    @example(_boost(12, (1, 0, 0)), DEFAULT_TOL)
    @example(Paravector(math.sqrt(0.5), (0, 0, 0)), Tolerance(0.6, 0))
    def test_classify_and_is_orthogonal_transform_agree(self, p, tol):
        c = classify(p, tol)
        assert c.is_orthogonal == is_orthogonal_transform(p, tol)
        if c.is_orthogonal:
            assert c.is_proper

    def test_a_singular_boost_is_not_orthogonal(self):
        g = _boost(12, (1, 0, 0))  # determinant 1 + 1.9e-6, threshold 6.6 at scale 8.1e4
        c = classify(g)
        assert c.is_singular and not c.is_orthogonal
        assert not is_orthogonal_transform(g)
        with pytest.raises(SingularParavector):
            g.inverse()
        with pytest.raises(ImproperParavector):
            RotationAxis(g)

    def test_an_angle_between_singular_boosts_is_refused(self):
        for r, refused in ((6, True), (5, False)):
            a = Paravector(math.cosh(r), (math.sinh(r), 0, 0))
            b = Paravector(math.cosh(r), (-math.sinh(r), 0, 0))
            if refused:  # its value would be {8.1e4 | ...}: singular to DEFAULT_TOL
                with pytest.raises(InvariantViolation):
                    angle(a, b)
            else:
                assert angle(a, b).value.s.real == pytest.approx(math.cosh(2 * r))

    def test_a_loose_tolerance_does_not_make_a_singular_operand_orthogonal(self):
        h = Paravector(math.sqrt(0.5), (0, 0, 0))  # determinant 0.5, within 0.6 of 0 and of 1
        tol = Tolerance(0.6, 0)
        assert classify(h, tol).is_singular
        assert not is_orthogonal_transform(h, tol)


class TestRingAxioms:
    @given(paravectors(), paravectors())
    def test_add_commutative(self, a, b):
        assert a + b == b + a

    def test_mul_is_not_commutative(self):
        assert E1 * E2 != E2 * E1


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


# Up to sqrt(max_float / 2) ~ 9.48e153 no single complex product inside
# g * rev(g) can overflow, so the product raises exactly when its scalar part
# does; beyond that bound the vector part can overflow on its own (see
# test_overflow_still_raises) while the closed form stays finite.
_wide = st.floats(min_value=-9e153, max_value=9e153, allow_nan=False)


@given(st.lists(_wide, min_size=8, max_size=8))
@example([9e153] * 8)
@example([9e153, 0, 0, 0, 0, 0, 9e153, 9e153])
@example([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0, 0.0])
def test_det_is_bit_identical_to_product_with_reversion(numbers):
    g = from_wire(numbers)
    try:
        want = mul(g, g.rev()).s
    except ValidationError:
        with pytest.raises(ValidationError):
            g.det()
        return
    assert _bits(g.det()) == _bits(want)


@given(paravectors(), paravectors())
def test_arithmetic_results_equal_validated_construction(a, b):
    scaled = (a * 2.0, 2.0 * a, a / 3, a * 1j)
    for r in (a * b, a + b, a - b, -a, a.rev(), a.conj(), *scaled):
        assert type(r) is Paravector
        assert r == Paravector(r.s, r.v)
        assert type(r.s) is complex and type(r.v) is tuple
        assert all(type(z) is complex for z in r.v)


_numbers = st.one_of(
    st.integers(-1000, 1000),
    st.floats(-1e3, 1e3),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)


@given(paravectors(), _numbers)
def test_scaling_by_a_number_equals_the_product(p, k):
    kp = Paravector(k, (0, 0, 0))
    assert p * k == mul(p, kp)
    assert k * p == mul(kp, p)
    if k == 0:
        return
    try:
        want = mul(p, Paravector(1.0 / complex(k), (0, 0, 0)))
    except ValidationError:  # 1/k overflows for a subnormal k
        with pytest.raises(ValidationError):
            p / k
    else:
        assert p / k == want


def test_a_difference_beyond_the_float_range_is_not_close():
    # finite components whose difference has a modulus past the largest float
    big = pv(complex(1.5e308, 1.5e308), (0, 0, 0))
    assert not approx_eq(big, ZERO)
    assert not approx_eq(pv(1e300, (complex(1.5e308, 1.5e308), 0, 0)), ZERO)
    assert not is_singularly_parallel(big, ONE)


def test_overflow_still_raises():
    big = pv(1e300, (1e300, 0, 0))
    with pytest.raises(ValidationError):
        mul(big, big)
    with pytest.raises(ValidationError):
        big * big
    with pytest.raises(ValidationError):
        pv(1.5e308, (0, 0, 0)) + pv(1.5e308, (0, 0, 0))
    with pytest.raises(ValidationError):
        pv(-1.5e308, (0, 0, 0)) - pv(1.5e308, (0, 0, 0))
    with pytest.raises(ValidationError):
        big * 1e10
    with pytest.raises(ValidationError):
        1e10 * big
    with pytest.raises(ValidationError):
        pv(1e160, (0, 0, 0)).inverse()
    # finite components whose sum overflows are still valid results
    assert pv(1.5e308, (1.5e308, 0, 0)) + ZERO == pv(1.5e308, (1.5e308, 0, 0))
    # the closed form stays finite where the product's vector part overflows
    g = pv(0, (0, complex(1e154, 0.8985e154), complex(1e154, -0.8985e154)))
    with pytest.raises(ValidationError):
        mul(g, g.rev())
    assert cmath.isfinite(g.det())
