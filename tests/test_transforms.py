"""Rotations, mirror/axial symmetry, Euler composition, orthogonality.

A law that ``paravec.fuzz`` asserts is not restated here; these tests hold frozen
examples, exact or bit identities, other magnitude bands and independent oracles.
"""

import cmath
import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import _oracles as oracles
from _strategies import (
    complexes,
    coords,
    moderate_complexes,
    moderate_paravectors,
    paravectors,
    real_vectors,
    zero_rich_paravectors,
)
from paravec import (
    ONE,
    DegenerateComposition,
    ImproperParavector,
    IsotropicNormal,
    Orientation,
    Paravector,
    RotationAxis,
    SingularParavector,
    SpatialRotation,
    Tolerance,
    ValidationError,
    approx_eq,
    axial_symmetry,
    compose_mirrors,
    euler_compose,
    is_orthogonal_transform,
    mirror,
    rotate,
    rotate_vector,
    similarity,
    spatial_axis,
)

LEFT, RIGHT = Orientation.LEFT, Orientation.RIGHT
TOL8 = Tolerance(1e-8, 1e-8)

angles = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)


class TestSimilarity:
    def test_scalar_axes_act_trivially(self):
        g = Paravector(1 + 1j, (1, 2j, 3))
        assert approx_eq(similarity(g, Paravector(2 - 1j, (0, 0, 0))), g)

    def test_preserves_the_scalar_component(self):
        g = Paravector(1 + 2j, (0.5, 1j, -1))
        f = Paravector(2, (1, 0, 1j))
        assert similarity(g, f).s == pytest.approx(g.s)

    def test_quarter_turn_example(self):
        t = math.pi / 4
        f = Paravector(math.cos(t), (0, 0, 1j * math.sin(t)))
        g = Paravector(0, (1, 0, 0))
        assert approx_eq(similarity(g, f), Paravector(0, (0, 1, 0)))

    def test_singular_axis_raises(self):
        with pytest.raises(SingularParavector):
            similarity(ONE, Paravector(1, (1, 0, 0)))


class TestRotationAxis:
    def test_needs_unit_determinant(self):
        with pytest.raises(ImproperParavector):
            RotationAxis(Paravector(2, (0, 0, 0)))

    def test_from_paravector_normalizes(self):
        axis = RotationAxis.from_paravector(Paravector(2, (1, 0, 0)))
        assert axis.value.det() == pytest.approx(1 + 0j)

    def test_identity(self):
        assert RotationAxis.identity().value == ONE


class TestRotate:
    def test_identity_axis_fixes_everything(self):
        g = Paravector(1 + 1j, (1, 2, 3j))
        assert approx_eq(rotate(g, RotationAxis.identity()), g)

    def test_quarter_turn_about_z(self):
        axis = spatial_axis(SpatialRotation((0, 0, 1), math.pi / 4))
        g = Paravector(0, (1, 0, 0))
        assert approx_eq(rotate(g, axis, LEFT), Paravector(0, (0, 1, 0)))

    def test_orientation_must_be_an_orientation(self):
        with pytest.raises(TypeError):
            rotate(ONE, RotationAxis.identity(), "left")

    def test_fixes_spatially_parallel_paravectors(self):
        axis = RotationAxis.from_paravector(Paravector(2, (1, 1j, 0.5)))
        g = Paravector(3 - 1j, tuple((0.5 + 2j) * z for z in axis.value.v))
        assert approx_eq(rotate(g, axis, LEFT), g, TOL8)
        assert approx_eq(rotate(g, axis, RIGHT), g, TOL8)


class TestSpatialAxis:
    def test_zero_angle_is_identity(self):
        assert approx_eq(spatial_axis(SpatialRotation((1, 0, 0), 0.0)).value, ONE)

    def test_half_pi_about_z(self):
        got = spatial_axis(SpatialRotation((0, 0, 1), math.pi / 2)).value
        assert approx_eq(got, Paravector(0, (0, 0, 1j)), Tolerance(1e-12, 1e-12))

    @given(real_vectors(min_norm=0.3), angles)
    def test_always_has_unit_determinant(self, axis, phi):
        rot = SpatialRotation.about(axis, phi)
        assert spatial_axis(rot).value.det() == pytest.approx(1 + 0j)

    def test_is_built_and_checked_once(self):
        rot = SpatialRotation.about((1, 2, -1), 0.9)
        axis = spatial_axis(rot)
        assert spatial_axis(rot) is axis
        c, s, n = math.cos(rot.phi), math.sin(rot.phi), rot.n
        fresh = RotationAxis(Paravector(c, (1j * n[0] * s, 1j * n[1] * s, 1j * n[2] * s)))
        assert repr(axis) == repr(fresh) and axis == fresh

    def test_keeping_the_axis_leaves_the_rotation_value_alone(self):
        rot, twin = SpatialRotation((0, 0, 1), 0.7), SpatialRotation((0, 0, 1), 0.7)
        before = repr(rot)
        spatial_axis(rot)
        assert repr(rot) == before == repr(twin)
        assert repr(rot) == "SpatialRotation(n=(0.0, 0.0, 1.0), phi=0.7, axis_defined=True)"
        assert rot == twin and hash(rot) == hash(twin)
        with pytest.raises(AttributeError):
            rot._axis = spatial_axis(twin)
        assert spatial_axis(rot) is not spatial_axis(twin)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda r: pickle.loads(pickle.dumps(r))])
    def test_copies_rotate_bit_identically(self, clone):
        rot = SpatialRotation.about((0.3, -2.0, 1.1), 2.2)
        w = (1.5, -0.25, 3e-3)
        want = rotate_vector(w, rot)
        twin = clone(rot)
        assert twin == rot
        assert repr(rotate_vector(w, twin)) == repr(want)
        assert spatial_axis(twin) == spatial_axis(rot)


class TestRotateVector:
    def test_quarter_turn_example(self):
        got = rotate_vector((1, 0, 0), SpatialRotation((0, 0, 1), math.pi / 4))
        assert np.allclose(got, (0, 1, 0))

    def test_axis_vectors_are_fixed(self):
        rot = SpatialRotation.about((1, 2, -1), 0.9)
        w = tuple(3.5 * c for c in rot.n)
        assert np.allclose(rotate_vector(w, rot), w)

    @given(real_vectors(), real_vectors(min_norm=0.3), angles)
    def test_matches_the_axis_angle_oracle(self, w, axis, phi):
        rot = SpatialRotation.about(axis, phi)
        got = rotate_vector(w, rot)
        want = oracles.rodrigues(w, rot.n, 2.0 * phi)
        assert np.allclose(got, want, atol=1e-9)


class TestEulerCompose:
    def test_doubling_about_z(self):
        r = SpatialRotation((0, 0, 1), math.pi / 4)
        got = euler_compose(r, r)
        assert got.axis_defined
        assert np.allclose(got.n, (0, 0, 1))
        assert got.phi == pytest.approx(math.pi / 2)

    def test_inverse_pair_collapses_to_identity(self):
        r = SpatialRotation.about((1, 2, 3), 0.8)
        back = SpatialRotation(r.n, -0.8)
        got = euler_compose(r, back)
        assert not got.axis_defined
        assert got.phi == 0.0

    def test_two_half_turn_generators(self):
        # half angles pi/2 about x then y compose to pi/2 about -z;
        # verified against sequential axis-angle rotations
        r1 = SpatialRotation((1, 0, 0), math.pi / 2)
        r2 = SpatialRotation((0, 1, 0), math.pi / 2)
        got = euler_compose(r1, r2)
        assert np.allclose(got.n, (0, 0, -1))
        assert got.phi == pytest.approx(math.pi / 2)
        w = (0.3, -1.2, 0.7)
        sequential = oracles.rodrigues(
            oracles.rodrigues(w, r1.n, 2 * r1.phi), r2.n, 2 * r2.phi
        )
        assert np.allclose(rotate_vector(w, got), sequential)


class TestMirror:
    def test_reflects_the_normal_component(self):
        g = Paravector(0, (1j, 2j, 3j))
        got = mirror(g, (0, 0, 1j))
        assert approx_eq(got, Paravector(0, (1j, 2j, -3j)))

    def test_is_an_involution(self):
        g = Paravector(1 + 2j, (0.5, -1j, 2))
        n = (0.6, 0.8, 0.0)
        assert approx_eq(mirror(mirror(g, n), n), g, TOL8)

    def test_flips_the_scalar_sign(self):
        g = Paravector(2 - 1j, (1, 2, 3))
        assert mirror(g, (0, 0, 1j)).s == pytest.approx(-g.s)

    def test_isotropic_normal_raises(self):
        with pytest.raises(IsotropicNormal):
            mirror(ONE, (1, 1j, 0))

    @pytest.mark.parametrize("w", [(1e200, 0, 0), (1e200, 1e200j, 0), (1.2e154 + 0.6e154j, 0, 0)])
    @pytest.mark.parametrize(
        "reflect",
        [
            lambda w: mirror(ONE, w),
            lambda w: axial_symmetry(ONE, w),
            lambda w: compose_mirrors(w, (0, 1, 0)),
        ],
        ids=["mirror", "axial", "compose"],
    )
    def test_a_normal_whose_square_overflows_is_not_isotropic(self, reflect, w):
        # w.w is infinite, NaN, or finite with a modulus past the float range
        with pytest.raises(ValidationError, match="w.w overflows") as raised:
            reflect(w)
        assert not isinstance(raised.value, IsotropicNormal)

    @given(paravectors(), real_vectors(min_norm=0.3))
    def test_matches_the_projection_formula(self, g, w):
        nw = math.sqrt(sum(x * x for x in w))
        n = tuple(x / nw for x in w)
        v = g.v
        vn = sum(v[k] * n[k] for k in range(3))
        expected_vector = tuple(
            -n[k] * vn + (v[k] - n[k] * vn) for k in range(3)
        )
        got = mirror(g, w)
        assert approx_eq(got, Paravector(-g.s, expected_vector), TOL8)


moderate_normals = st.tuples(moderate_complexes, moderate_complexes, moderate_complexes)


class TestHugeNormals:
    # w.w is about 1e308 + 1e308j, where 1/(w.w) once rounded to zero
    HUGE = (cmath.sqrt(1e308 + 1e308j), 0, 0)

    @pytest.mark.parametrize("g", [ONE, Paravector(1, (1, 0, 0))], ids=["one", "g"])
    @pytest.mark.parametrize("reflect", [mirror, axial_symmetry])
    def test_a_huge_normal_reflects_like_a_unit_one(self, reflect, g):
        got = reflect(g, self.HUGE)
        assert approx_eq(got, reflect(g, (1, 0, 0)))
        assert got != Paravector(0, (0, 0, 0))

    @given(moderate_paravectors, moderate_normals, st.integers(0, 600))
    # scaled to about 2**508, w.w is near 2**1018 and 1/(w.w) has a subnormal part
    @example(Paravector(0.5j, (1, 1, 1 - 1.5j)), (-0.25j, 1 - 1.5j, 1.5 - 1j), 507)
    def test_a_power_of_two_times_a_normal_reflects_bit_for_bit_alike(self, g, w, k):
        scaled = tuple(complex(math.ldexp(z.real, k), math.ldexp(z.imag, k)) for z in w)
        for reflect in (mirror, axial_symmetry):
            try:
                want = reflect(g, w)
            except IsotropicNormal:
                assume(False)
            try:
                got = reflect(g, scaled)
            except ValidationError as err:
                # 2**k w squares past the float range
                assert "w.w overflows" in str(err) and k > 500
                continue
            assert repr(got) == repr(want), reflect.__name__


class TestComposeMirrors:
    def test_same_plane_twice_is_the_identity(self):
        axis = compose_mirrors((0, 0, 1), (0, 0, 1))
        assert approx_eq(axis.value, ONE)

    def test_perpendicular_planes_give_a_half_turn(self):
        axis = compose_mirrors((1, 0, 0), (0, 1, 0))
        assert approx_eq(axis.value, Paravector(0, (0, 0, 1j)))

    def test_nearly_isotropic_normal_composes_to_no_axis(self):
        # w1.w1 = 3e-9 passes the isotropy check, but det{w1.w2 | i w1 x w2} does not
        with pytest.raises(DegenerateComposition):
            compose_mirrors((1, 1j * (1 - 1.5e-9), 0), (0.5, 0, 0))

    def test_the_threshold_scales_by_the_product_of_the_normal_scales(self):
        # scales 1e3 and 0.5e-3: det = 5e-9 passes the product's threshold of
        # 1.25e-9, and det = 5e-10 does not; their sum would reject both
        w2 = (0.5e-3, 0, 0)
        compose_mirrors((1e3, 1e3j * (1 - 1e-8), 0), w2)
        with pytest.raises(DegenerateComposition):
            compose_mirrors((1e3, 1e3j * (1 - 1e-9), 0), w2)


class TestAxialSymmetry:
    def test_half_turn_about_z(self):
        g = Paravector(2 - 1j, (1, 2, 3))
        assert approx_eq(axial_symmetry(g, (0, 0, 1)), Paravector(2 - 1j, (-1, -2, 3)))

    def test_is_an_involution(self):
        g = Paravector(1, (1j, 0.5, -2))
        w = (1.0, -1.0, 0.5)
        assert approx_eq(axial_symmetry(axial_symmetry(g, w), w), g, TOL8)

    def test_fixes_spatially_parallel_paravectors(self):
        w = (1.0, 2.0, -0.5)
        g = Paravector(1 + 1j, tuple((2 - 1j) * c for c in w))
        assert approx_eq(axial_symmetry(g, w), g, TOL8)

    def test_preserves_the_scalar(self):
        g = Paravector(3 + 4j, (1, 1j, 0))
        assert axial_symmetry(g, (1, 0, 0)).s == pytest.approx(g.s)


def _outcome(call, *args):
    """``repr`` of the result, signed zeros included, or the error's type and message."""
    try:
        return repr(call(*args))
    except Exception as exc:
        return type(exc), str(exc)


_isotropic = st.builds(
    lambda k, w: tuple(k * z for z in w),
    complexes,
    st.sampled_from([(1, 1j, 0), (0, 2, -2j), (1j, 0, 1), (3, 4, 5j)]),
)
normals = st.one_of(st.tuples(coords, coords, coords), st.tuples(complexes, complexes, complexes),
                    _isotropic)
normal_pairs = st.one_of(
    st.tuples(normals, normals),
    st.builds(lambda w, k: (w, tuple(k * z for z in w)), normals, complexes),
)
tolerances = st.sampled_from([Tolerance(), TOL8, Tolerance(0.0, 0.0)])


class TestReflectionsMatchTheirFirstForm:
    """Bit for bit, errors included, against the copies in ``_oracles``."""

    @given(zero_rich_paravectors, normals, tolerances)
    def test_mirror(self, g, w, tol):
        assert _outcome(mirror, g, w, tol) == _outcome(oracles.reference_mirror, g, w, tol)

    @given(zero_rich_paravectors, normals, tolerances)
    @example(Paravector(1j, (2.5, 1j, 1j)), (-1, 1j, 1j), Tolerance())
    def test_axial_symmetry(self, g, w, tol):
        want = _outcome(oracles.reference_axial_symmetry, g, w, tol)
        assert _outcome(axial_symmetry, g, w, tol) == want

    @given(normal_pairs, tolerances)
    @example(((-1, 0, 0), (1j, 0, 0)), Tolerance())
    def test_compose_mirrors(self, pair, tol):
        want = _outcome(oracles.reference_compose_mirrors, *pair, tol)
        assert _outcome(compose_mirrors, *pair, tol) == want


class TestOrthogonalTransform:
    def test_identity_is_orthogonal(self):
        assert is_orthogonal_transform(ONE)

    def test_unnormalized_paravector_is_not(self):
        assert not is_orthogonal_transform(Paravector(2, (1, 0, 0)))

    def test_normalization_makes_it_orthogonal(self):
        assert is_orthogonal_transform(Paravector(2, (1, 0, 0)).normalize())
