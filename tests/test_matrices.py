"""4x4 and 2x2 matrix representations and their self-contained arithmetic.

A law that ``paravec.fuzz`` asserts is not restated here; these tests hold frozen
examples, exact or bit identities, other magnitude bands and independent oracles.
"""

import cmath
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as oracles
from _strategies import nonsingular_paravectors, paravectors, zero_rich_paravectors
from paravec import (
    ONE,
    Matrix2,
    Matrix4,
    NotAParavectorMatrix,
    Paravector,
    Tolerance,
    ValidationError,
    format_matrix,
    from_matrix4,
    to_matrix4,
    to_pauli,
)
from paravec.matrices import SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z


class TestEmbeddingPattern:
    def test_identity_embeds_as_identity(self):
        assert to_matrix4(ONE) == Matrix4.identity()

    def test_unit_vector_pattern(self):
        got = to_matrix4(Paravector(0, (1, 0, 0)))
        assert got.rows == (
            (0j, 1 + 0j, 0j, 0j),
            (1 + 0j, 0j, 0j, 0j),
            (0j, 0j, 0j, -1j),
            (0j, 0j, 1j, 0j),
        )

    @given(paravectors())
    def test_matches_the_numpy_construction(self, g):
        assert np.array_equal(oracles.mat_of(to_matrix4(g)), oracles.np4(g))

    @given(paravectors())
    def test_reversion_negates_the_vector_blocks(self, g):
        assert np.array_equal(
            oracles.mat_of(to_matrix4(g.rev())), oracles.np4(g.rev())
        )


class TestHomomorphism:
    @given(paravectors(), paravectors())
    def test_sums_map_to_matrix_sums(self, a, b):
        assert to_matrix4(a + b) == to_matrix4(a) + to_matrix4(b)

    @given(paravectors())
    def test_conjugation_is_hermitian_conjugation(self, g):
        assert to_matrix4(g.conj()) == to_matrix4(g).conj_transpose()


class TestRoundTrip:
    @given(paravectors())
    def test_from_matrix4_inverts_to_matrix4(self, g):
        assert from_matrix4(to_matrix4(g)) == g

    def test_identity_reads_back(self):
        assert from_matrix4(Matrix4.identity()) == ONE

    def test_pattern_violation_is_located(self):
        rows = [list(r) for r in to_matrix4(Paravector(1, (2, 3, 4))).rows]
        rows[1][0] += 0.5
        with pytest.raises(NotAParavectorMatrix) as err:
            from_matrix4(Matrix4(rows))
        assert err.value.entry == (1, 0)


# abs = 0, so rel * scale alone sets each threshold below, 1e-3 at the
# largest entry 1000; each perturbation sits at 0.5 and at 2 times it
_REL = Tolerance(0.0, 1e-6)
_AT_THRESHOLD = pytest.mark.parametrize("factor, verdict", [(0.5, True), (2.0, False)])
_G = Paravector(1000, (1, 2j, -3))


def _perturbed(m, i, j, delta):
    rows = [list(r) for r in m.rows]
    rows[i][j] += delta
    return type(m)(rows)


class TestVerdictsAtTheThreshold:
    @_AT_THRESHOLD
    def test_approx_eq_weighs_the_largest_entry_difference(self, factor, verdict):
        m = to_matrix4(_G)
        n = _perturbed(m, 2, 3, factor * 1e-3j)
        assert m.approx_eq(n, _REL) is verdict
        assert n.approx_eq(m, _REL) is verdict
        p = to_pauli(_G)
        assert p.approx_eq(_perturbed(p, 1, 0, factor * 1e-3), _REL) is verdict

    @_AT_THRESHOLD
    def test_from_matrix4_weighs_each_entry_against_the_pattern(self, factor, verdict):
        m = _perturbed(to_matrix4(_G), 3, 1, factor * 1e-3)
        if verdict:
            assert from_matrix4(m, _REL) == _G
        else:
            with pytest.raises(NotAParavectorMatrix) as err:
                from_matrix4(m, _REL)
            assert err.value.entry == (3, 1)


class TestMatrixArithmetic:
    @given(paravectors(), paravectors())
    def test_lu_determinant_against_numpy(self, a, b):
        m = to_matrix4(a) @ to_matrix4(b)
        want = np.linalg.det(oracles.mat_of(m))
        assert m.det() == pytest.approx(want, rel=1e-7, abs=1e-7)

    @given(nonsingular_paravectors(min_det=0.1))
    def test_gauss_jordan_inverse_against_numpy(self, g):
        m = to_matrix4(g)
        want = np.linalg.inv(oracles.mat_of(m))
        assert np.allclose(oracles.mat_of(m.inverse()), want, atol=1e-8)

    @pytest.mark.parametrize(
        "m",
        [Matrix4(((1e200, 0, 0, 0), (0, 1e200, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
         Matrix2(((1e200, 0), (0, 1e200))),
         to_matrix4(Paravector(1e160, (0, 0, 0)))],
        ids=["Matrix4", "Matrix2", "embedding"],
    )
    def test_a_determinant_that_overflows_raises(self, m):
        # as Paravector.det does, instead of returning nan or inf
        with pytest.raises(ValidationError, match="determinant overflows"):
            m.det()

    def test_singular_matrix_has_no_inverse(self):
        with pytest.raises(ValueError):
            to_matrix4(Paravector(1, (1, 0, 0))).inverse()

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValidationError):
            Matrix2(((float("inf"), 0), (0, 1)))

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ValidationError):
            Matrix4(((1, 2), (3, 4)))

    def test_matrices_of_different_sizes_do_not_combine(self):
        with pytest.raises(TypeError):
            Matrix4.identity() + Matrix2.identity()
        with pytest.raises(TypeError):
            Matrix4.identity() @ Matrix2.identity()

    def test_str_is_the_formatted_grid(self):
        m = Matrix2.identity()
        assert str(m) == format_matrix(m.rows)

    @pytest.mark.parametrize("cls", [Matrix2, Matrix4], ids=["Matrix2", "Matrix4"])
    def test_a_difference_beyond_the_float_range_is_not_close(self, cls):
        # as in core.approx_eq, a modulus past the float range is larger than any threshold
        big = _perturbed(cls.identity(), 0, 0, complex(1.5e308, 1.5e308))
        assert not big.approx_eq(cls.identity())
        assert not cls.identity().approx_eq(big)

    def test_matrices_of_different_sizes_are_not_close(self):
        # as with ==, a matrix is never close to one of another type
        assert not Matrix4.identity().approx_eq(Matrix2.identity())
        assert not Matrix2.identity().approx_eq(Matrix4.identity())
        assert not Matrix2.identity().approx_eq(Matrix2.identity().rows)

    @pytest.mark.parametrize(
        "m", [Matrix2.identity(), Matrix4.identity().rows, [[1, 0, 0, 0]] * 4, None],
        ids=["Matrix2", "rows", "list", "None"],
    )
    def test_from_matrix4_takes_only_a_matrix4(self, m):
        with pytest.raises(ValidationError, match="expected a 4x4 matrix"):
            from_matrix4(m)


class TestPauli:
    def test_identity_is_sigma0(self):
        assert to_pauli(ONE) == SIGMA_0

    def test_basis_vectors_are_the_sigma_matrices(self):
        assert to_pauli(Paravector(0, (1, 0, 0))) == SIGMA_X
        assert to_pauli(Paravector(0, (0, 1, 0))) == SIGMA_Y
        assert to_pauli(Paravector(0, (0, 0, 1))) == SIGMA_Z

    def test_sigma_matrices_have_the_textbook_entries(self):
        assert SIGMA_X.rows == ((0j, 1 + 0j), (1 + 0j, 0j))
        assert SIGMA_Y.rows == ((0j, -1j), (1j, 0j))
        assert SIGMA_Z.rows == ((1 + 0j, 0j), (0j, -1 + 0j))

    @given(paravectors())
    def test_matches_the_numpy_combination(self, g):
        assert np.allclose(oracles.mat_of(to_pauli(g)), oracles.np2(g))


def _results(a, b):
    """Each trusted-path result, computed from two paravectors."""
    m, n = to_matrix4(a), to_matrix4(b)
    out = [m, to_pauli(a), m + n, m @ n, to_pauli(a) @ to_pauli(b), m.conj_transpose()]
    for mat in (m, to_pauli(a)):
        try:
            out.append(mat.inverse())
        except ValueError:
            pass
    return out


class TestTrustedResults:
    @given(paravectors(), paravectors())
    def test_results_equal_validated_construction(self, a, b):
        for r in _results(a, b):
            assert type(r) in (Matrix2, Matrix4)
            assert all(type(e) is complex for row in r.rows for e in row)
            assert type(r.rows) is tuple and all(type(row) is tuple for row in r.rows)
            assert r == type(r)(r.rows)

    def test_overflow_still_raises(self):
        big = to_matrix4(Paravector(1e200, (1e200, 0, 0)))
        with pytest.raises(ValidationError):
            big @ big
        huge = Matrix4([[1.5e308] * 4] * 4)
        with pytest.raises(ValidationError):
            huge + huge
        diag = (1e-310, 1.0, 1.0, 1.0)
        tiny = Matrix4([[diag[i] if i == j else 0.0 for j in range(4)] for i in range(4)])
        with pytest.raises(ValidationError):
            tiny.inverse()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_embedding_at_the_float_limit_equals_the_checked_matrix(self, sign):
        big = sign * 1.7e308
        a, x, y, z = complex(big, -big), complex(-big, big), complex(big, big), complex(-big, -big)
        rows = (
            (a, x, y, z),
            (x, a, -1j * z, 1j * y),
            (y, 1j * z, a, -1j * x),
            (z, -1j * y, 1j * x, a),
        )
        got = to_matrix4(Paravector(a, (x, y, z)))
        assert got == Matrix4(rows)
        assert repr(got.rows) == repr(Matrix4(rows).rows)

    def test_product_is_the_row_by_column_sum(self):
        rng = random.Random(20161)
        values = (0.0, -0.0, 1.0, -1.0, 0.5, 3e-7, 2e5)

        def entry():
            return complex(rng.choice(values) * rng.random(), rng.choice(values))

        for _ in range(200):
            m = Matrix4([[entry() for _ in range(4)] for _ in range(4)])
            n = Matrix4([[entry() for _ in range(4)] for _ in range(4)])
            a, b = m.rows, n.rows
            got = (m @ n).rows
            for i in range(4):
                for j in range(4):
                    want = (0j + a[i][0] * b[0][j] + a[i][1] * b[1][j]
                            + a[i][2] * b[2][j] + a[i][3] * b[3][j])
                    assert repr(got[i][j]) == repr(want), (i, j)


@pytest.mark.parametrize("m", [Matrix4.identity(), to_matrix4(ONE) @ to_matrix4(ONE),
                               Matrix2.identity(), to_pauli(ONE)])
def test_matrices_are_immutable(m):
    rows, h = m.rows, hash(m)
    with pytest.raises(AttributeError):
        m.foo = 1
    with pytest.raises(AttributeError):
        m.rows = Matrix4.identity().rows
    with pytest.raises(AttributeError):
        del m.rows
    assert not hasattr(m, "__dict__")
    assert m.rows is rows and hash(m) == h


_signed_zeros = st.sampled_from(
    [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1 + 0j, -1j]
)
_entries = st.one_of(
    _signed_zeros,
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def square_rows(draw, n):
    """Rows of an n x n matrix, often singular, with a zero leading pivot,
    or made of signed zeros and units only."""
    entries = draw(st.sampled_from((_entries, _signed_zeros)))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(("free", "repeated-row", "zero-pivot", "zero-column")))
    if shape == "repeated-row":
        rows[n - 1] = list(rows[0])
    elif shape == "zero-pivot":
        rows[0][0] = 0j
    elif shape == "zero-column":
        for row in rows:
            row[n - 1] = 0j
    return tuple(tuple(row) for row in rows)


def _assert_same_det(cls, rows):
    """The determinant matches the naive one bit for bit; where the naive one
    is not finite, it raises ``ValidationError``."""
    want = oracles.lu_det(rows)
    if not cmath.isfinite(want):
        with pytest.raises(ValidationError, match="determinant overflows"):
            cls(rows).det()
        return
    assert repr(cls(rows).det()) == repr(want)


def _assert_same_inverse(cls, rows):
    """The inverse matches the naive one bit for bit, errors included.

    A naive inverse with an entry that overflowed is a ``ValidationError``."""
    try:
        want = oracles.gauss_jordan_inverse(rows)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            cls(rows).inverse()
        return
    if not all(cmath.isfinite(e) for row in want for e in row):
        with pytest.raises(ValidationError):
            cls(rows).inverse()
        return
    assert repr(cls(rows).inverse().rows) == repr(want)


@pytest.mark.parametrize("cls, n", [(Matrix4, 4), (Matrix2, 2)])
@given(data=st.data())
def test_optimized_algorithms_are_bit_identical_to_the_naive_ones(cls, n, data):
    a = data.draw(square_rows(n))
    b = data.draw(square_rows(n))
    m = cls(a)
    assert repr((m @ cls(b)).rows) == repr(oracles.naive_matmul(a, b))
    _assert_same_det(cls, a)
    _assert_same_inverse(cls, a)


@given(zero_rich_paravectors, zero_rich_paravectors)
def test_embeddings_multiply_det_and_invert_bit_identically(a, b):
    for embed in (to_matrix4, to_pauli):
        m, n = embed(a), embed(b)
        assert repr((m @ n).rows) == repr(oracles.naive_matmul(m.rows, n.rows))
        _assert_same_det(type(m), m.rows)
        _assert_same_inverse(type(m), m.rows)


_TIES = (0j, -0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1 + 0j, -1 + 0j, 1j, -1j, 2 + 0j)


def _tie_rich_corpus(n, embed):
    """Seeded rows of tied entries, then of embedded zero-rich paravectors."""
    rng = random.Random(f"pivots/{n}")
    corpus = [tuple(tuple(rng.choice(_TIES) for _ in range(n)) for _ in range(n))
              for _ in range(2000)]
    for _ in range(500):
        s, x, y, z = (rng.choice(_TIES) for _ in range(4))
        corpus.append(embed(Paravector(s, (x, y, z))).rows)
    return corpus


@pytest.mark.parametrize("cls, n, embed", [(Matrix4, 4, to_matrix4), (Matrix2, 2, to_pauli)])
def test_every_pivot_of_the_kernels_is_taken_bit_identically(cls, n, embed, monkeypatch):
    # Hypothesis need not reach each straight-line swap branch; on this corpus
    # the naive elimination picks every (step, pivot row) pair at least once,
    # recorded through the max() it pivots with, and the kernels match it
    pivots = {"det": set(), "inverse": set()}
    seen = None

    def recording_max(candidates, key):  # candidates is range(step, n)
        pivot = max(candidates, key=key)
        seen.add((candidates.start, pivot))
        return pivot

    monkeypatch.setattr(oracles, "max", recording_max, raising=False)
    corpus = _tie_rich_corpus(n, embed)
    for rows, other in zip(corpus, corpus[1:] + corpus[:1]):
        assert repr((cls(rows) @ cls(other)).rows) == repr(oracles.naive_matmul(rows, other))
        seen = pivots["det"]
        _assert_same_det(cls, rows)
        seen = pivots["inverse"]
        _assert_same_inverse(cls, rows)
    every = {(step, row) for step in range(n) for row in range(step, n)}
    assert pivots == {"det": every, "inverse": every}


def test_format_matrix_gives_a_grid():
    text = format_matrix(to_matrix4(Paravector(1, (0, 0, 1))).rows)
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("[") and lines[0].endswith("]")
    assert "1" in lines[0]
