import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyframes import causality as ca
from skyframes import sky, spinor
from skyframes.errors import (
    NonHermitianError,
    NotFutureDirectedError,
    NotNullError,
    NotUnimodularError,
    ZeroSpinorError,
)

COMPONENTS = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def vec(*c):
    return np.array(c, dtype=float)


class TestPauliTransform:
    def test_unit_time_vector_is_half_identity(self):
        h = spinor.pauli_transform(vec(1, 0, 0, 0))
        assert np.allclose(h, 0.5 * np.eye(2))

    def test_zero_vector(self):
        assert np.allclose(spinor.pauli_transform(vec(0, 0, 0, 0)), 0.0)

    def test_null_z_vector(self):
        h = spinor.pauli_transform(vec(1, 0, 0, 1))
        assert np.allclose(h, [[1, 0], [0, 0]])

    def test_hermitian_by_construction(self):
        rng = np.random.default_rng(0)
        h = spinor.pauli_transform(rng.normal(size=(50, 4)))
        assert np.allclose(h, np.conj(np.swapaxes(h, -1, -2)))


class TestInversePauli:
    def test_half_identity(self):
        assert np.allclose(
            spinor.inverse_pauli(0.5 * np.eye(2, dtype=complex)), vec(1, 0, 0, 0)
        )

    def test_projector(self):
        h = np.array([[1, 0], [0, 0]], dtype=complex)
        assert np.allclose(spinor.inverse_pauli(h), vec(1, 0, 0, 1))

    def test_off_diagonal(self):
        h = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        assert np.allclose(spinor.inverse_pauli(h), vec(0, 1, 0, 0))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            spinor.inverse_pauli(np.array([[0, 1], [0, 0]], dtype=complex))

    @given(st.lists(COMPONENTS, min_size=4, max_size=4))
    def test_roundtrip(self, comps):
        v = np.array(comps)
        out = spinor.inverse_pauli(spinor.pauli_transform(v))
        assert np.allclose(out, v, rtol=0, atol=1e-12 * max(1.0, np.abs(v).max()))


class TestMinkowskiNorm:
    @pytest.mark.parametrize(
        "v,expected",
        [(vec(1, 0, 0, 0), 1.0), (vec(1, 0, 0, 1), 0.0), (vec(0, 2, 0, 0), -4.0)],
    )
    def test_examples(self, v, expected):
        assert spinor.minkowski_norm(v) == pytest.approx(expected)

    @given(st.lists(COMPONENTS, min_size=4, max_size=4))
    def test_four_det_identity(self, comps):
        v = np.array(comps)
        det = np.linalg.det(spinor.pauli_transform(v))
        scale = max(1.0, np.abs(v).max()) ** 2
        assert abs(4.0 * det.real - spinor.minkowski_norm(v)) <= 1e-12 * scale


class TestFactorNull:
    def test_null_z(self):
        assert np.allclose(spinor.factor_null(vec(1, 0, 0, 1)), [1, 0])

    def test_zero_vector_gives_zero_spinor(self):
        assert np.allclose(spinor.factor_null(vec(0, 0, 0, 0)), [0, 0])

    def test_null_x(self):
        psi = spinor.factor_null(vec(1, 1, 0, 0))
        assert np.allclose(psi, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_rejects_timelike(self):
        with pytest.raises(NotNullError):
            spinor.factor_null(vec(1, 0, 0, 0))

    def test_rejects_past_null(self):
        with pytest.raises(NotFutureDirectedError):
            spinor.factor_null(vec(-1, 0, 0, 1))

    def test_phase_convention_leading_component_real_positive(self):
        rng = np.random.default_rng(5)
        psis = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
        v = spinor.inverse_pauli(spinor.outer_square(psis))
        out = spinor.factor_null(v)
        lead = np.where(np.abs(out[:, 0]) > 1e-9, out[:, 0], out[:, 1])
        assert np.all(lead.real > 0)
        assert np.all(np.abs(lead.imag) <= 1e-12 * np.abs(lead))

    def test_outer_product_roundtrip(self):
        rng = np.random.default_rng(11)
        psis = rng.normal(size=(500, 2)) + 1j * rng.normal(size=(500, 2))
        v = spinor.inverse_pauli(spinor.outer_square(psis))
        out = spinor.factor_null(v)
        h = spinor.outer_square(out)
        target = spinor.pauli_transform(v)
        scale = np.maximum(np.abs(v).max(axis=-1), 1.0)
        err = np.abs(h - target).max(axis=(-1, -2))
        assert np.all(err <= 1e-10 * scale)


class TestRelativeTolerances:
    """The nullity, time-direction and Hermiticity tests are relative to the
    input's largest entry, with no floor at 1, so a small input gets the
    verdict of its unit-size multiple; an all-zero input is measured
    against 1."""

    def test_small_timelike_vector_is_not_null(self):
        with pytest.raises(NotNullError):
            spinor.factor_null(vec(1e-6, 0, 0, 0))

    def test_small_past_directed_vector_is_refused(self):
        with pytest.raises(NotFutureDirectedError):
            spinor.factor_null(vec(-1e-12, 1e-12, 0, 0))

    def test_small_non_hermitian_matrix_is_refused(self):
        with pytest.raises(NonHermitianError):
            spinor.inverse_pauli(np.array([[0, 1e-13], [0, 0]], dtype=complex))

    def test_every_power_of_two(self):
        # (5, 3, 4, 0) / 4 times 2^k is exact from k = -1072 (its least
        # entry 3 * 2^-1074) up to k = 1023; psi psi^dagger reproduces the
        # Pauli matrix while its products stay normal floats
        null, timelike = vec(1.25, 0.75, 1.0, 0.0), vec(1, 0, 0, 0)
        past = null * [-1, 1, 1, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(-1072, 1024):
                v = np.ldexp(null, k)
                psi = spinor.factor_null(v)
                h, want = spinor.outer_square(psi), spinor.pauli_transform(v)
                if k >= -1022:
                    assert np.abs(h - want).max() <= 1e-15 * np.abs(want).max(), k
                with pytest.raises(NotNullError):
                    spinor.factor_null(np.ldexp(timelike, k))
                with pytest.raises(NotFutureDirectedError):
                    spinor.factor_null(np.ldexp(past, k))


class TestPowerOfTwoScaled:
    """One exact rescale: a 2^-e for the frexp exponent e of big."""

    def test_exact_at_every_magnitude(self):
        rng = np.random.default_rng(12)
        for k in (-1070, -600, -1, 0, 1, 600, 1000):
            a = np.ldexp(rng.integers(-64, 65, (50, 3)) / 16.0, k)
            big = np.abs(a).max(axis=-1, keepdims=True)
            unit, e = spinor.power_of_two_scaled(a, big)
            assert e.shape == big.shape and np.array_equal(np.ldexp(unit, e), a), k
            top = np.abs(unit).max(axis=-1)
            assert np.all((top == 0.0) | ((0.5 <= top) & (top < 1.0))), k

    def test_zero_big_leaves_a_alone(self):
        unit, e = spinor.power_of_two_scaled(np.array([0.0, -0.0, 3.0]), 0.0)
        assert e == 0 and unit.tolist() == [0.0, -0.0, 3.0]
        assert np.signbit(unit).tolist() == [False, True, False]

    def test_complex_parts_scale_alike(self):
        # a subnormal big: a division by it would overflow
        tiny = 2.0**-1074
        a = np.array([[complex(3 * tiny, -2 * tiny), complex(0, 4 * tiny)], [-0.0, 5 + 4j]])
        big = np.array([[2.0**-1072], [8.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit, e = spinor.power_of_two_scaled(a, big)
        assert e.ravel().tolist() == [-1071, 4]
        assert unit.tolist() == [[0.375 - 0.25j, 0.5j], [0j, 0.3125 + 0.25j]]
        assert np.signbit(unit.real).tolist() == [[False, False], [True, False]]


class TestEuclideanNorm:
    def test_rows_below_the_square_underflow_scale_exactly(self):
        # the scaled norm is np.linalg.norm's of the row times 2^600, times
        # 2^-600: one rounding, where a division by the largest entry and a
        # product with it rounded twice (118 of these 300 rows were an ulp off)
        rng = np.random.default_rng(13)
        v = rng.normal(size=(300, 3)) * 1e-200
        want = np.ldexp(np.linalg.norm(np.ldexp(v, 600), axis=-1), -600)
        assert np.array_equal(spinor.euclidean_norm(v), want)

    def test_zero_and_subnormal_rows(self):
        v = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, -4.0]]) * [[1.0], [2.0**-1074], [1e-200]]
        assert spinor.euclidean_norm(v).tolist() == [0.0, 5 * 2.0**-1074, 5e-200]

    def test_a_nan_row_does_not_hide_a_small_one(self):
        # the batch's least norm was NaN, so no row was scaled and 1e-170 read 0
        v = np.array([[np.nan, 0.0, 0.0], [1e-170, 0.0, 0.0]])
        assert spinor.euclidean_norm(v)[1] == 1e-170
        small = ca.Ball([0.0, 0.0, 0.0], 1e-200)
        assert small.contains_points(v).tolist() == [False, False]

    def test_squares_that_underflow_under_a_raising_error_state(self):
        # a caller's all="raise" turned the harmless underflow of 1e-170's
        # square into FloatingPointError before the scaled copy could run
        v = np.array([[1.0, 1e-170, 0.0], [1e-170, 1e-170, 0.0], [3e-300, 0.0, 4e-300]])
        want = spinor.euclidean_norm(v)
        with np.errstate(all="raise"):
            got = spinor.euclidean_norm(v)
            assert spinor.euclidean_norm(v[0]) == 1.0
        assert got.tobytes() == want.tobytes()
        assert want[0] == 1.0
        scaled = np.linalg.norm(np.ldexp(v[1:], 600), axis=-1)
        assert want[1:].tolist() == np.ldexp(scaled, -600).tolist()

    def test_normal_rows_are_numpys_bit_for_bit(self):
        scales = 10.0 ** np.arange(-150, 150, 1.5)[:, None]
        v = np.random.default_rng(14).normal(size=(200, 4)) * scales
        assert np.array_equal(spinor.euclidean_norm(v), np.linalg.norm(v, axis=-1))


class TestSl2Action:
    def test_identity(self):
        h = spinor.pauli_transform(vec(0.3, -1, 2, 0.5))
        assert np.allclose(spinor.sl2_act(np.eye(2), h), h)

    def test_boost_on_null_vector(self):
        c = np.diag([np.sqrt(2.0), 1 / np.sqrt(2.0)]).astype(complex)
        out = spinor.sl2_act(c, spinor.pauli_transform(vec(1, 0, 0, 1)))
        assert np.allclose(out, spinor.pauli_transform(vec(2, 0, 0, 2)))

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularError):
            spinor.sl2_act(2.0 * np.eye(2), np.eye(2, dtype=complex))

    def test_preserves_determinant_and_norm(self):
        rng = np.random.default_rng(2)
        c = spinor.random_sl2(rng, 100)
        v = rng.normal(size=(100, 4))
        h = spinor.pauli_transform(v)
        out = spinor.sl2_act(c, h)
        det_in = np.linalg.det(h)
        det_out = np.linalg.det(out)
        assert np.all(np.abs(det_in - det_out) <= 1e-10 * np.maximum(1, np.abs(det_in)))
        norm_out = spinor.minkowski_norm(spinor.inverse_pauli(out))
        norm_in = spinor.minkowski_norm(v)
        assert np.allclose(norm_out, norm_in, rtol=0, atol=1e-10 * np.abs(v).max() ** 2)

    def test_orthochronous_on_future_cone(self):
        rng = np.random.default_rng(3)
        c = spinor.random_sl2(rng, 200)
        psis = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
        v = spinor.inverse_pauli(spinor.outer_square(psis))
        out = spinor.inverse_pauli(spinor.sl2_act(c, spinor.pauli_transform(v)))
        assert np.all(out[:, 0] > 0)


class TestSkyDictionary:
    def test_annihilation_pairing(self):
        rng = np.random.default_rng(7)
        xi = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
        psi = spinor.spinor_for_cospinor(xi)
        pairing = np.einsum("na,na->n", xi, psi)
        assert np.allclose(pairing, 0.0)
        back = spinor.cospinor_for_spinor(psi)
        assert np.allclose(back, xi)

    def test_null_vector_vanishes_under_own_covector(self):
        rng = np.random.default_rng(8)
        xi = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
        v = spinor.null_vector_for_cospinor(xi)
        assert np.allclose(spinor.minkowski_norm(v), 0.0, atol=1e-12)
        assert np.allclose(v[:, 0], 1.0)
        h = spinor.pauli_transform(v)
        values = np.einsum("na,nab,nb->n", xi, h, np.conj(xi))
        assert np.all(np.abs(values) <= 1e-12 * np.abs(xi).max(axis=-1) ** 2)

    def test_covector_of_null_vector_roundtrip(self):
        rng = np.random.default_rng(9)
        xi = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
        xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
        v = spinor.null_vector_for_cospinor(xi)
        back = spinor.cospinor_for_null_vector(v)
        # projective comparison: back is xi up to phase
        overlap = np.abs(np.einsum("na,na->n", np.conj(back), xi))
        assert np.allclose(overlap, 1.0, atol=1e-10)

    def test_direction_roundtrip(self):
        rng = np.random.default_rng(10)
        d = rng.normal(size=(100, 3))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        xi = spinor.cospinor_for_direction(d)
        assert np.allclose(spinor.direction_for_cospinor(xi), d, atol=1e-12)

    @pytest.mark.parametrize(
        "fn, arg",
        [
            (spinor.direction_for_cospinor, [0, 0]),
            (spinor.null_vector_for_cospinor, [[1, 0], [0, 0]]),
            (spinor.cospinor_for_null_vector, [0, 0, 0, 0]),
        ],
        ids=["direction", "null-vector", "zero-vector"],
    )
    def test_zero_sky_point_raises(self, recwarn, fn, arg):
        # these returned NaN after a division warning
        with pytest.raises(ZeroSpinorError):
            fn(np.array(arg))
        assert not recwarn.list

    @pytest.mark.parametrize("size", [1e-155, 1e-160])
    @pytest.mark.parametrize("fn", [spinor.direction_for_cospinor, sky.unit_cospinor])
    def test_covector_with_subnormal_squares_is_zero(self, fn, size):
        # its squares are subnormal: the direction came back with length
        # 1.0000636 at 1e-160, while unit_cospinor already refused it
        with pytest.raises(ZeroSpinorError):
            fn(np.array([1.0, 0.3 + 0.2j]) * size)


class TestClosedFormDirection:
    def test_matches_the_pauli_route(self):
        rng = np.random.default_rng(21)
        xi = rng.normal(size=(10_000, 2)) + 1j * rng.normal(size=(10_000, 2))
        psi = spinor.spinor_for_cospinor(spinor.unit_cospinor(xi))
        reference = spinor.inverse_pauli(spinor.outer_square(psi))[..., 1:]
        assert np.abs(spinor.direction_for_cospinor(xi) - reference).max() <= 4.5e-16

    def test_time_component_is_exactly_one(self):
        rng = np.random.default_rng(22)
        xi = rng.normal(size=(1000, 2)) + 1j * rng.normal(size=(1000, 2))
        assert np.all(spinor.null_vector_for_cospinor(xi)[..., 0] == 1.0)

    def test_sky_normaliser_is_the_spinor_one(self):
        assert sky.unit_cospinor is spinor.unit_cospinor


class TestHugeCovectors:
    XI = np.array([1.0, 0.3 + 0.2j])

    @pytest.mark.parametrize("scale", [1e-140, 1.0, 1e160, 1e300, 1e308, 1.7e308])
    def test_scaled_covector_names_the_same_direction(self, scale):
        # above about 1e154 the squared norm overflowed: the direction came
        # back (0, 0, 0) with overflow warnings and the unit row was zero
        expected = spinor.direction_for_cospinor(self.XI)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = spinor.direction_for_cospinor(self.XI * scale)
            unit = sky.unit_cospinor(self.XI * scale)
        assert np.abs(d - expected).max() <= 1e-15
        assert np.linalg.norm(unit) == pytest.approx(1.0, abs=1e-15)
