import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skyframes import sky, spinor
from skyframes.errors import BadCountError, OutOfDomainError, UnsupportedSignatureError


class TestSampleSky:
    def test_small_fibonacci_sample(self):
        s = sky.sample_sky(6)
        assert s.n == 6
        assert np.allclose(np.linalg.norm(s.xi, axis=-1), 1.0, atol=1e-12)
        d = s.directions()
        gram = d @ d.T
        assert np.all(gram[~np.eye(6, dtype=bool)] < 1.0 - 1e-9)  # pairwise distinct

    def test_rejects_small_counts(self):
        with pytest.raises(BadCountError):
            sky.sample_sky(3)

    def test_fibonacci_scheme_takes_no_seed(self):
        # the seed was ignored: the points draw nothing
        with pytest.raises(ValueError, match="takes no seed"):
            sky.sample_sky(8, seed=1)

    def test_random_scheme_is_seed_deterministic(self):
        a = sky.sample_sky(32, scheme="random", seed=4)
        b = sky.sample_sky(32, scheme="random", seed=4)
        assert np.array_equal(a.xi, b.xi)

    def test_cap_counts_quasi_uniform(self):
        # cap of solid angle 4*pi/10 <=> cos(angle) > 0.8
        s = sky.sample_sky(1000)
        d = s.directions()
        for axis in (
            np.array([0.0, 0.0, 1.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([0.6, -0.64, 0.48]),
        ):
            count = int(np.sum(d @ axis > 0.8))
            assert abs(count - 100) <= 15


class TestEvalHomogeneous:
    def test_annihilating_pair(self):
        assert sky.eval_homogeneous([1, 0], (1, 0), np.array([0, 1.0])) == 0

    def test_hermitian_contraction(self):
        val = sky.eval_homogeneous(0.5 * np.eye(2), (1, 1), np.array([1.0, 0]))
        assert val == pytest.approx(0.5)

    def test_rejects_unknown_signature(self):
        with pytest.raises(UnsupportedSignatureError):
            sky.eval_homogeneous(np.eye(2), (3, 1), np.array([1.0, 0]))

    @pytest.mark.parametrize("sig", [(1, 0), (0, 1), (1, 1), (2, 0)])
    def test_bidegree_scaling(self, sig):
        rng = np.random.default_rng(1)
        xi = rng.normal(size=2) + 1j * rng.normal(size=2)
        lam = 0.7 - 1.3j
        if sig == (1, 1):
            coeffs = spinor.pauli_transform(rng.normal(size=4))
        elif sig == (2, 0):
            coeffs = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        else:
            coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
        base = sky.eval_homogeneous(coeffs, sig, xi)
        scaled = sky.eval_homogeneous(coeffs, sig, lam * xi)
        k, l = sig
        assert scaled == pytest.approx(lam**k * np.conj(lam) ** l * base, rel=1e-10)

    def test_real_scaling_shortcut(self):
        coeffs = np.array([1.0, 0.0], dtype=complex)
        xi = np.array([0.3, -0.2 + 0.5j])
        assert sky.eval_homogeneous(coeffs, (1, 0), 2.0 * xi) == pytest.approx(
            2.0 * sky.eval_homogeneous(coeffs, (1, 0), xi)
        )


class TestCelestialTransform:
    def test_unit_time_vector(self):
        f = sky.celestial_transform([1, 0, 0, 0])
        assert f(np.array([1.0, 0])) == pytest.approx(0.5)

    def test_zero_vector_gives_zero_field(self):
        f = sky.celestial_transform([0, 0, 0, 0])
        s = sky.sample_sky(16)
        assert np.allclose(f(s.xi), 0.0)

    def test_null_vector_vanishes_at_its_direction(self):
        f = sky.celestial_transform([1, 0, 0, 1])
        assert f(np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-15)

    def test_values_real(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=4)
        xi = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
        raw = np.einsum(
            "na,ab,nb->n", xi, spinor.pauli_transform(v), np.conj(xi)
        )
        assert np.abs(raw.imag).max() <= 1e-12 * max(np.abs(raw).max(), 1.0)

    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=4))
    def test_homogeneity_weight(self, comps):
        v = np.array(comps)
        xi = np.array([0.4 - 0.1j, 0.8 + 0.2j])
        lam = 1.7 - 0.4j
        a = sky.celestial_eval(v, lam * xi)
        b = abs(lam) ** 2 * sky.celestial_eval(v, xi)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-10)

    def test_nonnegative_iff_causal_future(self):
        rng = np.random.default_rng(3)
        sample = sky.sample_sky(2000)
        for _ in range(50):
            v = rng.normal(size=4) * 2
            vals = sky.celestial_eval(v, sample.xi)
            causal_future = v[0] >= np.linalg.norm(v[1:])
            assert (vals.min() >= -1e-12) == causal_future

    def test_null_future_vanishes_at_exactly_one_point(self):
        rng = np.random.default_rng(4)
        sample = sky.sample_sky(4000)
        for _ in range(10):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = spinor.inverse_pauli(spinor.outer_square(psi))
            vals = sky.celestial_eval(v, sample.xi)
            assert vals.min() >= -1e-12
            zero_xi = spinor.cospinor_for_null_vector(v)
            near_zero = sample.xi[vals < 1e-4 * vals.max()]
            # every almost-zero lies in a small neighbourhood of the direction
            overlap = np.abs(np.einsum("na,a->n", np.conj(near_zero), zero_xi))
            assert np.all(overlap > 0.99)


class TestFieldAlgebra:
    def test_transform_is_linear(self):
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(2, 4))
        lhs = sky.celestial_transform(x + y)
        rhs = sky.celestial_transform(x) + sky.celestial_transform(y)
        assert np.allclose(lhs.matrix, rhs.matrix)
        assert np.allclose(
            (2.5 * sky.celestial_transform(x)).matrix,
            sky.celestial_transform(2.5 * x).matrix,
        )

    def test_difference_feeds_domination(self):
        a = sky.celestial_transform([3, 0, 0, 0])
        b = sky.celestial_transform([1, 0, 0, 0.5])
        diff = a - b
        assert sky.dominates(a, b) == sky.dominates(
            diff, sky.celestial_transform([0, 0, 0, 0])
        )


class TestModulusSquared:
    @pytest.mark.parametrize("z,expected", [(0, 0.0), (1j, 1.0), (3 + 4j, 25.0)])
    def test_examples(self, z, expected):
        assert sky.modulus_squared(z) == pytest.approx(expected)


class TestDominates:
    def test_timelike_dominates_origin(self):
        assert sky.dominates(
            sky.celestial_transform([2, 0, 0, 0]), sky.celestial_transform([0, 0, 0, 0])
        )

    def test_reflexive(self):
        f = sky.celestial_transform([0.3, 1.0, -2.0, 0.1])
        assert sky.dominates(f, f)

    def test_spacelike_incomparable(self):
        a = sky.celestial_transform([0, 2, 0, 0])
        b = sky.celestial_transform([0, 0, 0, 0])
        assert not sky.dominates(a, b)
        assert not sky.dominates(b, a)

    def test_overflowing_difference_is_out_of_domain(self, recwarn):
        # the difference is finite but its eigenvalues are not; this came
        # back False (not dominated) after overflow warnings
        a = sky.celestial_transform([1e308, 0, 0, 0])
        b = sky.celestial_transform([-1e308, 0, 0, 0])
        with pytest.raises(OutOfDomainError):
            sky.dominates(a, b)
        assert not recwarn.list

    def test_partial_order_on_random_triples(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            va, vb, vc = rng.normal(size=(3, 4))
            fa, fb, fc = map(sky.celestial_transform, (va, vb, vc))
            assert sky.dominates(fa, fa)
            if sky.dominates(fa, fb) and sky.dominates(fb, fa):
                assert np.allclose(va, vb, atol=1e-9)
            if sky.dominates(fa, fb) and sky.dominates(fb, fc):
                assert sky.dominates(fa, fc)

    def test_agrees_with_pointwise_comparison(self):
        rng = np.random.default_rng(6)
        sample = sky.sample_sky(10_000)
        va = rng.normal(size=(1000, 4))
        vb = rng.normal(size=(1000, 4))
        ha = spinor.pauli_transform(va)
        hb = spinor.pauli_transform(vb)
        vals_a = np.einsum("pab,na,nb->pn", ha, sample.xi, np.conj(sample.xi)).real
        vals_b = np.einsum("pab,na,nb->pn", hb, sample.xi, np.conj(sample.xi)).real
        margin = (vals_a - vals_b).min(axis=1)
        for k in range(1000):
            dom = sky.dominates(sky.SizeField(matrix=ha[k]), sky.SizeField(matrix=hb[k]))
            if margin[k] > 1e-9:
                assert dom
            elif margin[k] < -1e-9:
                # a dense-sample violation can only certify non-domination
                assert not dom


class TestSemidefiniteScale:
    # the scale, the largest entry modulus, is a chain over the four entries;
    # it must give numpy's own max over the last two axes

    @staticmethod
    def _expected(d, tol=1e-12):
        eig = sky.hermitian_eigenvalues(d)
        scale = np.abs(d).max(axis=(-2, -1))
        return eig[..., 0] >= -tol * scale, eig[..., 1] <= tol * scale

    @pytest.mark.parametrize("shape", [(), (1,), (3000,), (6, 7)])
    def test_matches_numpy_max(self, shape):
        # rank-one fields of sizes up to 1e6 (or 0) plus perturbations of a
        # few tol times the scale, so both verdicts turn on the scale
        rng = np.random.default_rng(len(shape) + sum(shape))
        psi = rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
        size = 10.0 ** rng.uniform(-2.0, 6.0, size=shape)
        size = np.where(rng.random(shape) < 0.1, 0.0, size)  # zero fields: both verdicts
        d = size[..., None, None] * np.einsum("...a,...b->...ab", psi, psi.conj())
        d *= rng.choice([-1.0, 1.0], size=shape)[..., None, None]
        scale = np.abs(d).max(axis=(-2, -1))
        shift = rng.uniform(-3e-12, 3e-12, size=shape) * scale
        d = d + shift[..., None, None] * np.eye(2)
        d[..., 0, 1] = np.where(rng.random(shape) < 0.1, -0.0, d[..., 0, 1])
        got, expected = sky.semidefinite(d), self._expected(d)
        for g, e in zip(got, expected):
            assert np.shape(g) == np.shape(e) and np.array_equal(g, e)
        if shape == (3000,):  # both verdicts occur, with and without each other
            assert {(bool(a), bool(b)) for a, b in zip(*got)} == {
                (True, False), (False, True), (True, True), (False, False)
            }

    def test_zero_rows(self):
        ge, le = sky.semidefinite(np.zeros((0, 2, 2), dtype=complex))
        assert ge.shape == le.shape == (0,) and ge.dtype == le.dtype == bool

    def test_negative_zero_entries(self):
        d = np.array([[-0.0, -0.0], [-0.0, -0.0]], dtype=complex)
        assert [bool(v) for v in sky.semidefinite(d)] == [True, True]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_raise(self, bad, recwarn):
        d = np.zeros((4, 2, 2), dtype=complex)
        d[2, 1, 1] = bad
        with pytest.raises(OutOfDomainError):
            sky.semidefinite(d)
        assert not recwarn.list
