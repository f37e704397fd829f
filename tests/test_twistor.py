import numpy as np
import pytest

from skyframes import minkowski as mk
from skyframes import sky, spinor, twistor as tw
from skyframes.errors import NotNullError, ZeroPiError


def random_pi(rng, n=None):
    shape = 2 if n is None else (n, 2)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestIncidence:
    def test_origin_gives_zero_omega(self):
        z = tw.incidence([0, 0, 0, 0], [1.0, -2.0j])
        assert np.allclose(z.omega, 0.0)

    def test_unit_time_event(self):
        z = tw.incidence([1, 0, 0, 0], [1.0, 0.0])
        assert np.allclose(z.omega, [0.5j, 0.0])

    def test_linearity_in_pi(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=4)
        pi = random_pi(rng)
        lam = 0.3 - 2.2j
        z1 = tw.incidence(x, lam * pi)
        z2 = tw.incidence(x, pi)
        assert np.allclose(z1.omega, lam * z2.omega)

    def test_rejects_zero_pi(self):
        with pytest.raises(ZeroPiError):
            tw.incidence([1, 0, 0, 0], [0.0, 0.0])


class TestNullity:
    def test_incidence_twistors_are_null(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = tw.incidence(rng.normal(size=4), random_pi(rng))
            assert tw.is_null(z)

    def test_plain_pair_constraint_value(self):
        z = tw.Twistor(omega=[1.0, 0.0], pi=[1.0, 0.0])
        assert tw.null_constraint(z) == pytest.approx(2.0)
        assert not tw.is_null(z)

    def test_zero_omega_is_null(self):
        assert tw.is_null(tw.Twistor(omega=[0.0, 0.0], pi=[1.0, 2.0j]))


class TestContraction:
    def test_matches_transform_at_matched_point(self):
        z = tw.incidence([1, 0, 0, 0], [1.0, 0.0])
        tau = tw.contraction(z)
        assert tau.value == pytest.approx(0.5)
        assert sky.celestial_eval([1, 0, 0, 0], tau.xi) == pytest.approx(0.5)

    def test_zero_omega_gives_zero(self):
        tau = tw.contraction(tw.Twistor(omega=[0.0, 0.0], pi=[1.0, 1.0]))
        assert tau.value == 0

    def test_projective_rescaling(self):
        rng = np.random.default_rng(2)
        z = tw.incidence(rng.normal(size=4), random_pi(rng))
        z2 = tw.Twistor(omega=2.0 * z.omega, pi=2.0 * z.pi)
        assert tw.contraction(z2).value == pytest.approx(4.0 * tw.contraction(z).value)

    def test_rejects_zero_pi(self):
        with pytest.raises(ZeroPiError):
            tw.contraction(tw.Twistor(omega=[1.0, 0.0], pi=[0.0, 0.0]))

    def test_composition_with_incidence_is_transform(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(1000):
            r = tw.contraction_matches_transform(rng.normal(size=4), random_pi(rng))
            worst = max(worst, r)
        assert worst <= 1e-12

    def test_null_iff_real_value(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            z = tw.incidence(rng.normal(size=4), random_pi(rng))
            assert tw.contraction(z).is_real()
        count = 0
        while count < 1000:
            z = tw.Twistor(omega=random_pi(rng), pi=random_pi(rng))
            if abs(tw.null_constraint(z)) < 1e-3:
                continue
            count += 1
            assert not tw.contraction(z).is_real()

    def test_sky_point_twistor_reproduces_the_field_value(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=4)
        xi = sky.unit_cospinor(rng.normal(size=2) + 1j * rng.normal(size=2))
        z = tw.twistor_for_sky_point(x, xi)
        assert tw.contraction(z).value == pytest.approx(
            sky.celestial_eval(x, xi), rel=1e-12, abs=1e-14
        )

    def test_same_fiber_means_same_hyperplane(self):
        rng = np.random.default_rng(5)
        pi = random_pi(rng)
        xi = sky.unit_cospinor(np.conj(pi))
        x1 = rng.normal(size=4)
        h = mk.hyperplane_through(x1, xi)
        # slide x1 inside the hyperplane: the twistor contraction is unchanged
        w = rng.normal(size=4)
        x2 = x1 + w - 2.0 * sky.celestial_eval(w, xi) * np.array([1.0, 0, 0, 0])
        t1 = tw.contraction(tw.incidence(x1, pi))
        t2 = tw.contraction(tw.incidence(x2, pi))
        assert t2.value == pytest.approx(t1.value, rel=1e-10, abs=1e-12)
        assert mk.hyperplane_contains(h, x2)


class TestContactForm:
    def test_zero_tangent(self):
        z = tw.incidence([0.3, 0.1, -0.5, 0.2], [1.0, 0.5j])
        assert tw.contact_form(z, [0, 0], [0, 0]) == 0

    def test_reduces_on_zero_omega_line(self):
        rng = np.random.default_rng(6)
        pi = random_pi(rng)
        z = tw.incidence([0, 0, 0, 0], pi)
        d_omega = random_pi(rng)
        d_pi = random_pi(rng)
        val = tw.contact_form(z, d_omega, d_pi)
        assert val == pytest.approx(complex(-1j * (np.conj(pi) @ d_omega)))

    def test_along_event_family_is_transform(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=4)
        pi = random_pi(rng)
        direction = rng.normal(size=4)
        z = tw.incidence(x, pi)
        d_omega = 1j * spinor.pauli_transform(direction) @ pi
        val = tw.contact_form(z, d_omega, np.zeros(2))
        expected = sky.celestial_eval(direction, np.conj(pi))
        assert val.real == pytest.approx(expected, rel=1e-12)
        assert abs(val.imag) <= 1e-12 * max(1.0, abs(val))

    def test_annihilates_the_geodesic_flow(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = spinor.inverse_pauli(spinor.outer_square(psi))
            pi = np.conj(spinor.cospinor_for_null_vector(v))
            x0 = rng.normal(size=4)
            z = tw.incidence(x0, pi)
            d_omega = 1j * spinor.pauli_transform(v) @ pi
            val = tw.contact_form(z, d_omega, np.zeros(2))
            assert abs(val) <= 1e-12

    def test_real_on_constraint_preserving_tangents(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            z = tw.incidence(rng.normal(size=4), random_pi(rng))
            d_omega, d_pi = tw.project_to_constraint(z, random_pi(rng), random_pi(rng))
            val = tw.contact_form(z, d_omega, d_pi)
            assert abs(val.imag) <= 1e-12 * max(1.0, abs(val))

    def test_rejects_non_null_twistor(self):
        z = tw.Twistor(omega=[1.0, 0.0], pi=[1.0, 0.0])
        with pytest.raises(NotNullError):
            tw.contact_form(z, [0, 0], [0, 0])


class TestBroadcast:
    def test_rows_equal_their_one_row_values(self):
        rng = np.random.default_rng(12)
        xs, pis, omegas = rng.normal(size=(6, 4)), random_pi(rng, 6), random_pi(rng, 6)
        incident, plain = tw.incidence(xs, pis), tw.Twistor(omega=omegas, pi=pis)
        d_omega, d_pi = random_pi(rng, 6), random_pi(rng, 6)
        proj = tw.project_to_constraint(incident, d_omega, d_pi)
        contact = tw.contact_form(incident, *proj)
        residuals = tw.contraction_matches_transform(xs, pis)
        for k in range(6):
            one_inc = tw.incidence(xs[k], pis[k])
            one = tw.Twistor(omega=omegas[k], pi=pis[k])
            assert np.array_equal(incident.omega[k], one_inc.omega)
            assert tw.null_constraint(plain)[k] == tw.null_constraint(one)
            assert tw.is_null(incident)[k] == tw.is_null(one_inc)
            assert plain.scale[k] == one.scale
            assert tw.contraction(plain).value[k] == tw.contraction(one).value
            assert tw.contraction(plain).is_real()[k] == tw.contraction(one).is_real()
            one_proj = tw.project_to_constraint(one_inc, d_omega[k], d_pi[k])
            assert np.array_equal(proj[0][k], one_proj[0])
            assert np.array_equal(proj[1][k], one_proj[1])
            assert contact[k] == tw.contact_form(one_inc, *one_proj)
            assert residuals[k] == tw.contraction_matches_transform(xs[k], pis[k])

    def test_one_event_or_one_pi_is_shared_by_the_rows(self):
        rng = np.random.default_rng(13)
        xs, pis = rng.normal(size=(5, 4)), random_pi(rng, 5)
        for x, pi in ((xs[0], pis), (xs, pis[0])):
            rows = np.broadcast_to(x, (5, 4)), np.broadcast_to(pi, (5, 2))
            z, tiled = tw.incidence(x, pi), tw.incidence(*rows)
            assert z.pi.shape == z.omega.shape == (5, 2)
            assert np.array_equal(z.omega, tiled.omega)
            assert np.array_equal(
                tw.contraction_matches_transform(x, pi),
                tw.contraction_matches_transform(*rows),
            )

    def test_one_row_gives_python_scalars(self):
        rng = np.random.default_rng(14)
        z = tw.incidence(rng.normal(size=4), random_pi(rng))
        assert isinstance(z.scale, float)
        assert isinstance(tw.null_constraint(z), float)
        assert isinstance(tw.contraction(z).value, complex)
        assert isinstance(tw.contact_form(z, random_pi(rng), np.zeros(2)), complex)
        assert isinstance(tw.contraction_matches_transform(rng.normal(size=4), z.pi), float)

    def test_a_zero_pi_in_any_row_raises(self):
        pis = np.array([[1.0, 0.5j], [0.0, 0.0]])
        with pytest.raises(ZeroPiError):
            tw.incidence(np.zeros(4), pis)
        with pytest.raises(ZeroPiError):
            tw.contraction(tw.Twistor(omega=np.ones((2, 2)), pi=pis))
