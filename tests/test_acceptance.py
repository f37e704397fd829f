"""End-to-end acceptance checks.

Each test exercises one criterion at its stated tolerance and runtime
budget and prints a single pass/fail line (visible with ``pytest -s``).
"""

import time

import numpy as np
import pytest

from skyframes import causality as ca
from skyframes import frames as fr
from skyframes import manifold as mf
from skyframes import minkowski as mk
from skyframes import sky, spinor, twistor as tw, verify as vf
from skyframes.minkowski import GraphFrame


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status}  {self.name}  [{self.elapsed:.2f}s / {self.seconds:.0f}s]")
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.name} exceeded {self.seconds}s budget: {self.elapsed:.1f}s"
            )
        return False


def test_criterion_1_spinor_roundtrips():
    with _Budget("1 spinor algebra round-trips", 5.0):
        rng = np.random.default_rng(101)
        v = rng.uniform(-5, 5, size=(100_000, 4))
        scale = np.maximum(np.abs(v).max(axis=-1), 1.0)

        back = spinor.inverse_pauli(spinor.pauli_transform(v))
        assert np.all(np.abs(back - v).max(axis=-1) <= 1e-12 * scale)

        det = np.linalg.det(spinor.pauli_transform(v)).real
        norm = spinor.minkowski_norm(v)
        assert np.all(np.abs(4.0 * det - norm) <= 1e-12 * scale**2)

        psi = rng.normal(size=(100_000, 2)) + 1j * rng.normal(size=(100_000, 2))
        null = spinor.inverse_pauli(spinor.outer_square(psi))
        out = spinor.factor_null(null)
        err = np.abs(
            spinor.outer_square(out) - spinor.pauli_transform(null)
        ).max(axis=(-1, -2))
        nscale = np.maximum(np.abs(null).max(axis=-1), 1.0)
        assert np.all(err <= 1e-10 * nscale)


def test_criterion_2_contraction_composed_with_incidence():
    with _Budget("2 contraction after incidence is the transform", 1.0):
        rng = np.random.default_rng(102)
        worst = 0.0
        for _ in range(1000):
            x = rng.uniform(-3, 3, size=4)
            pi = rng.normal(size=2) + 1j * rng.normal(size=2)
            worst = max(worst, tw.contraction_matches_transform(x, pi))
        assert worst <= 1e-12


def test_criterion_3_null_twistor_characterisation():
    with _Budget("3 null twistors are the real fiber of the contraction", 1.0):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            x = rng.uniform(-3, 3, size=4)
            pi = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert tw.contraction(tw.incidence(x, pi)).is_real(tol=1e-12)
        count = 0
        while count < 1000:
            om = rng.normal(size=2) + 1j * rng.normal(size=2)
            pi = rng.normal(size=2) + 1j * rng.normal(size=2)
            z = tw.Twistor(omega=om, pi=pi)
            if abs(tw.null_constraint(z)) < 1e-3:
                continue
            count += 1
            assert not tw.contraction(z).is_real(tol=1e-12)


def test_criterion_4_flat_space_causality_equivalence():
    with _Budget("4 graph order vs interval criterion", 10.0):
        rng = np.random.default_rng(104)
        xs = rng.uniform(-2, 2, size=(100_000, 4))
        ys = rng.uniform(-2, 2, size=(100_000, 4))
        d = xs - ys
        margin = np.abs(np.abs(d[:, 0]) - np.linalg.norm(d[:, 1:], axis=1))
        keep = margin > 1e-9
        dom = mk.causal_compare_batch(xs[keep], ys[keep])
        ivl = mk.interval_compare_batch(xs[keep], ys[keep])
        assert np.array_equal(dom, ivl)


def test_criterion_5_cosmology_sky_images():
    with _Budget("5 comoving sphere images and conformal time", 30.0):
        metric = mf.MetricSpec.flrw(p=2 / 3)
        sample = sky.sample_sky(500)
        event = np.array([1.0, 0, 0, 0])

        closed = fr.FrameSpec(metric=metric, target=fr.Singularity())
        img = fr.sky_image(closed, event, sample)
        r = np.linalg.norm(img.m_points, axis=1)
        assert np.abs(r - 3.0).max() <= 1e-6

        numeric = fr.FrameSpec(metric=metric, target=fr.Singularity(), tracer="numeric")
        img_n = fr.sky_image(numeric, event, sample, with_rank=False)
        r_n = np.linalg.norm(img_n.m_points, axis=1)
        assert np.abs(r_n - 3.0).max() <= 1e-4

        assert abs(mf.conformal_time(metric, 1.0) - 3.0) <= 1e-10


def test_criterion_6_kernel_proportionality(monkeypatch):
    with _Budget("6 contact/normal proportionality on probe bases", 60.0):
        rng = np.random.default_rng(106)
        graph = GraphFrame()
        for _ in range(100):
            x = rng.uniform(-2, 2, size=4)
            xi = sky.unit_cospinor(rng.normal(size=2) + 1j * rng.normal(size=2))
            rep = vf.check_kernel_proportionality(graph, x, xi, tol=1e-9)
            assert rep.passed, rep.max_residual

        geo = fr.FrameSpec(metric=mf.MetricSpec.flrw(p=2 / 3), target=fr.Singularity())
        probes = []
        for _ in range(100):
            x = np.array([rng.uniform(0.4, 1.4), *rng.uniform(-2, 2, size=3)])
            xi = sky.unit_cospinor(rng.normal(size=2) + 1j * rng.normal(size=2))
            probes.append((x, xi))
            rep = vf.check_kernel_proportionality(geo, x, xi, tol=1e-3)
            assert rep.passed, rep.max_residual
        # convergence: halving the event step shrinks the residual >= 3x
        spreads = []
        for step in (4e-3, 2e-3):
            monkeypatch.setattr(fr, "EVENT_FD_STEP", step)
            reps = [vf.check_kernel_proportionality(geo, x, xi, tol=1.0) for x, xi in probes[:10]]
            spreads.append(max(r.residuals[0] for r in reps))
        assert spreads[0] / spreads[1] >= 3.0


def test_criterion_7_flow_of_time():
    with _Budget("7 flow-of-time ratios", 120.0):
        dirs = np.array(
            [[1.0, 0, 0, 0], [1.0, 0.6, 0, 0], [1.0, 0, -0.5, 0.4], [2.0, 0.4, 0.4, -0.4]]
        )
        sample = sky.sample_sky(100)
        graph = GraphFrame()
        rep = vf.check_flow_of_time(
            graph, [0.3, 0.1, -0.5, 0.9], dirs, sample, tol=1e-9
        )
        assert rep.passed, rep.max_residual
        profile = rep.extras["empirical_factor_profile"]
        assert np.abs(profile[~np.isnan(profile)] - 1.0).max() <= 1e-9

        geo = fr.FrameSpec(metric=mf.MetricSpec.flrw(p=2 / 3), target=fr.Singularity())
        rep = vf.check_flow_of_time(
            geo, [1.0, 0.2, -0.1, 0.3], dirs, sample, tol=1e-3
        )
        assert rep.passed, rep.max_residual


def test_criterion_8_contact_annihilation_on_trajectories():
    with _Budget("8 contact form annihilates the integrated flow", 30.0):
        spec = fr.FrameSpec(metric=mf.MetricSpec.flrw(p=2 / 3), target=fr.Singularity())
        rng = np.random.default_rng(108)
        xis = sky.sample_sky(100, scheme="random", seed=108).xi
        xs = np.array(
            [[rng.uniform(0.5, 1.5), *rng.uniform(-1, 1, size=3)] for _ in xis]
        )
        reports = vf.check_contact_annihilation(spec, xs, xis)
        assert len(reports) == 100
        for rep in reports:
            assert rep.max_residual <= 1e-8
            assert rep.extras["max_null_drift"] <= 1e-8


def test_criterion_9_cosmology_causal_order():
    with _Budget("9 sky-image causal order on the comoving boundary", 60.0):
        spec = fr.FrameSpec(metric=mf.MetricSpec.flrw(p=2 / 3), target=fr.Singularity())
        rng = np.random.default_rng(109)

        def eta(t):
            return 3.0 * t ** (1.0 / 3.0)

        n = 10_000
        ts = rng.uniform(0.05, 1.5, size=(2, n))
        ps = rng.uniform(-4, 4, size=(2, n, 3))
        gap = np.linalg.norm(ps[0] - ps[1], axis=1)
        d_eta = eta(ts[0]) - eta(ts[1])
        keep = np.abs(d_eta - gap) > 1e-6
        expected = gap[keep] <= d_eta[keep]
        got = [
            ca.in_causal_past(spec, [ty, *py], [tx, *px])
            for tx, px, ty, py in zip(
                ts[0][keep], ps[0][keep], ts[1][keep], ps[1][keep]
            )
        ]
        assert np.array_equal(np.array(got), expected)

        for _ in range(1000):
            x = np.array([rng.uniform(0.5, 1.5), *rng.uniform(-2, 2, size=3)])
            y = _chain_past(rng, x)
            z = _chain_past(rng, y)
            assert ca.in_causal_past(spec, y, x)
            assert ca.in_causal_past(spec, z, y)
            assert ca.in_causal_past(spec, z, x)


def _chain_past(rng, x):
    eta_x = 3.0 * x[0] ** (1.0 / 3.0)
    eta_y = rng.uniform(0.1, 0.9) * eta_x
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    reach = rng.uniform(0.0, 0.95) * (eta_x - eta_y)
    return np.array([(eta_y / 3.0) ** 3, *(x[1:] + reach * direction)])


def test_criterion_10_integrator_order():
    with _Budget("10 fourth-order endpoint convergence", 10.0):
        metric = mf.MetricSpec.flrw(p=2 / 3)
        x0, v0 = np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0.6, 0.8])
        ref_x, ref_v = mf.flrw_closed_form_ray(metric, x0, v0, 0.4)
        ref = np.concatenate([ref_x, ref_v, [0.4]])
        y0 = mf._bundle_start(metric, x0[None], v0[None])
        errs = []
        for n in (8, 16, 32):
            # one ladder level of n nodes, run up to the reference time;
            # its lambda runs along the past-directed tangent
            res = mf._t_level(metric, mf._key_starts(x0[:1], y0, ref_x[0]), n)
            end = np.concatenate([res.x[0], res.velocity(metric)[0], -res.lam])
            errs.append(np.abs(end - ref).max())
        assert errs[0] / errs[1] >= 12.0
        assert errs[1] / errs[2] >= 12.0
