import json

import numpy as np
import pytest

from skyframes import frames as fr
from skyframes import manifold as mf
from skyframes import sky, verify as vf
from skyframes.errors import DegenerateTangentPlaneError, NoIntersectionError
from skyframes.minkowski import GraphFrame

DIRECTIONS = np.array(
    [[1.0, 0, 0, 0], [1.0, 0.5, 0, 0], [1.0, 0, -0.4, 0.3], [2.0, 0.3, 0.3, -0.3]]
)


@pytest.fixture(scope="module")
def flrw_spec():
    return fr.FrameSpec(metric=mf.MetricSpec.flrw(p=2 / 3), target=fr.Singularity())


class TestContactAnnihilation:
    def test_flat_space_pointwise(self):
        spec = fr.FrameSpec(
            metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0)
        )
        rep = vf.check_contact_annihilation(spec, [0.4, 0.2, -0.7, 0.1], [0.6, 0.8j])
        assert rep.passed
        assert rep.max_residual <= 1e-12

    def test_cosmology_trajectory(self, flrw_spec):
        rep = vf.check_contact_annihilation(flrw_spec, [1.0, 0, 0, 0], [1.0, 0.0])
        assert rep.passed
        assert rep.extras["max_null_drift"] <= 1e-8
        # the start state and the end state of the traced ray
        assert rep.extras["states"] == 2

    def test_probe_count_matches_residuals(self, flrw_spec):
        rep = vf.check_contact_annihilation(flrw_spec, [1.0, 0, 0, 0], [1.0, 0.0])
        assert rep.probe_count == len(rep.residuals) == rep.extras["states"]

    @pytest.mark.parametrize("flrw", [False, True])
    def test_batch_gives_the_per_probe_reports(self, flrw):
        metric = FLRW if flrw else FLAT
        f = fr.FrameSpec(
            metric=metric, target=fr.Singularity() if flrw else fr.CauchySurface(0.0)
        )
        reports = vf.suite_contact(5, n=4, frame=f)
        rng = np.random.default_rng(5)
        xs = vf._random_events(rng, 4, t_floor=f.target_time)
        xis = sky.sample_sky(4, scheme="random", seed=5).xi
        assert len(reports) == 4
        for x, xi, rep in zip(xs, xis, reports):
            one = vf.check_contact_annihilation(f, x, xi)
            assert np.array_equal(one.residuals, rep.residuals)
            assert one.extras == rep.extras and one.probe_count == rep.probe_count
        # one event shared by every sky point
        shared = vf.check_contact_annihilation(f, xs[0], xis)
        assert np.array_equal(shared[0].residuals, reports[0].residuals)
        assert [r.extras["states"] for r in shared[1:]] == [reports[0].extras["states"]] * 3

    def test_suite_integrates_its_rays_in_one_batch(self, monkeypatch):
        batches = []
        trace = mf.trace_past_to_time

        def counting_trace(m, x0, v0, t_target):
            batches.append((len(x0), t_target))
            return trace(m, x0, v0, t_target)

        monkeypatch.setattr(mf, "trace_past_to_time", counting_trace)
        reports = vf.suite_contact(7, n=8)
        assert len(reports) == 8 and all(r.passed for r in reports)
        # one call with 8 rays, down to the singularity cutoff
        assert batches == [(8, fr.SINGULARITY_CUTOFF)]

    @pytest.mark.parametrize("case", ["rotated", "anisotropic"])
    def test_end_state_is_taken_at_its_own_sky_point(self, case):
        # with a rotated tetrad the end sky point is rotated back; in an
        # anisotropic chart the sky point turns along the ray, and the start
        # sky point missed the end state's kernel by up to 9.9e-3
        if case == "rotated":
            rotation = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
            f = fr.FrameSpec(metric=FLRW, target=fr.Singularity(), tetrad_rotation=rotation)
        else:
            metric = mf.metric_from_config(
                {
                    "kind": "custom",
                    "coeffs": ["1", "-1", "-(1 + 0.5*t)**2", "-1"],
                    "bounds": [[0, None], [None, None], [None, None], [None, None]],
                }
            )
            f = fr.FrameSpec(metric=metric, target=fr.CauchySurface(0.0))
        reports = vf.suite_contact(7, n=8, frame=f)
        assert all(r.passed for r in reports)
        assert max(r.max_residual for r in reports) <= 1e-14
        assert max(r.extras["max_null_drift"] for r in reports) <= 1e-14


FLAT = mf.MetricSpec.minkowski()
FLRW = mf.MetricSpec.flrw(p=2 / 3)
PROTOCOL_FRAMES = {
    "graph": GraphFrame(),
    "flat": fr.FrameSpec(metric=FLAT, target=fr.CauchySurface(0.0)),
    "p2/3": fr.FrameSpec(metric=FLRW, target=fr.Singularity()),
    "p2/3-numeric": fr.FrameSpec(
        metric=FLRW, target=fr.Singularity(), tracer="numeric"
    ),
}


class TestFrameProtocol:
    @pytest.mark.parametrize("name", sorted(PROTOCOL_FRAMES))
    def test_probe_value_shapes(self, name):
        frame = PROTOCOL_FRAMES[name]
        xis = sky.sample_sky(5, scheme="random", seed=1).xi
        pv = frame.probe_values([0.9, 0.1, -0.2, 0.05], xis, DIRECTIONS[:3])
        assert pv.theta.shape == pv.rates.shape == (5, 3)
        assert pv.vertical.shape == (5, 2)
        assert pv.regular.shape == pv.arrived.shape == (5,)
        assert pv.regular.dtype == pv.arrived.dtype == bool
        assert np.all(pv.regular)

    def test_default_tolerances(self):
        assert GraphFrame.PROBE_TOL == 1e-9
        assert fr.FrameSpec.PROBE_TOL == 1e-3
        rep = vf.check_kernel_proportionality(
            PROTOCOL_FRAMES["p2/3"], [0.9, 0.1, -0.2, 0.05], [0.7, 0.1 - 0.6j]
        )
        assert rep.tolerance == 1e-3


class TestKernelProportionality:
    def test_graph_frame_ratio_constancy(self):
        frame = GraphFrame()
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=4)
            xi = sky.unit_cospinor(rng.normal(size=2) + 1j * rng.normal(size=2))
            rep = vf.check_kernel_proportionality(frame, x, xi)
            assert rep.passed, rep.max_residual
            assert rep.extras["empirical_factor"] == pytest.approx(1.0, abs=1e-9)

    def test_cosmology_frame_factor(self, flrw_spec):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = np.array([rng.uniform(0.4, 1.4), *rng.normal(size=3)])
            xi = sky.unit_cospinor(rng.normal(size=2) + 1j * rng.normal(size=2))
            rep = vf.check_kernel_proportionality(flrw_spec, x, xi)
            assert rep.passed, rep.max_residual
            expected = 2.0 / float(flrw_spec.metric.scale_factor(x[0]))
            assert rep.extras["empirical_factor"] == pytest.approx(expected, rel=1e-6)
            assert np.all(rep.extras["ratios"] > 0)

    def test_richardson_convergence(self, flrw_spec):
        x = np.array([0.8, 0.1, -0.2, 0.05])
        xi = sky.unit_cospinor(np.array([0.7, 0.1 - 0.6j]))
        r1 = vf.check_kernel_proportionality(flrw_spec, x, xi, event_h=4e-3)
        r2 = vf.check_kernel_proportionality(flrw_spec, x, xi, event_h=2e-3)
        assert r1.residuals[0] / r2.residuals[0] >= 3.0

    def test_numeric_tracer_frame(self):
        geo = fr.FrameSpec(
            metric=mf.MetricSpec.flrw(p=2 / 3),
            target=fr.Singularity(),
            tracer="numeric",
        )
        x = np.array([0.9, 0.1, -0.2, 0.05])
        xi = sky.unit_cospinor(np.array([0.7, 0.1 - 0.6j]))
        rep = vf.check_kernel_proportionality(geo, x, xi)
        assert rep.passed, rep.max_residual
        expected = 2.0 / float(geo.metric.scale_factor(x[0]))
        assert rep.extras["empirical_factor"] == pytest.approx(expected, rel=1e-4)

    def test_flat_geodesic_frame_factor(self):
        geo = fr.FrameSpec(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0))
        rep = vf.check_kernel_proportionality(geo, [1.0, 0.2, -0.3, 0.1], [0.6, 0.8j])
        assert rep.passed
        assert rep.extras["empirical_factor"] == pytest.approx(2.0, rel=1e-6)

    def test_event_on_the_target_raises_no_intersection(self):
        # the past family ray of the time direction starts below the slice
        flat = PROTOCOL_FRAMES["flat"]
        with pytest.raises(NoIntersectionError):
            vf.check_kernel_proportionality(flat, [0.0, 0.3, 0, 0], [0.6, 0.8j])

    def test_rank_deficient_probe_raises_degenerate(self):
        coarse = fr.FrameSpec(metric=FLAT, target=fr.CauchySurface(0.0), rank_tol=1e3)
        with pytest.raises(DegenerateTangentPlaneError):
            vf.check_kernel_proportionality(coarse, [1.0, 0.2, -0.3, 0.1], [0.6, 0.8j])


class TestFlowOfTime:
    def test_graph_frame_identity_factor(self):
        frame = GraphFrame()
        sample = sky.sample_sky(40)
        rep = vf.check_flow_of_time(frame, [0.3, 0.1, -0.5, 0.9], DIRECTIONS, sample)
        assert rep.passed
        profile = rep.extras["empirical_factor_profile"]
        assert np.allclose(profile[~np.isnan(profile)], 1.0, atol=1e-9)

    def test_null_direction_ratio_matches_timelike(self):
        # a null probe direction, away from its own sky point, gives the
        # same ratio as a timelike probe at the same sky point
        frame = GraphFrame()
        sample = sky.sample_sky(24)
        dirs = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 1.0]])
        rep = vf.check_flow_of_time(frame, [0.2, -0.4, 0.6, 0.1], dirs, sample)
        assert rep.passed

    def test_cosmology_direction_independence(self, flrw_spec):
        sample = sky.sample_sky(30)
        x = [1.0, 0.2, -0.1, 0.3]
        rep = vf.check_flow_of_time(flrw_spec, x, DIRECTIONS, sample)
        assert rep.passed
        profile = rep.extras["empirical_factor_profile"]
        assert np.nanmean(profile) == pytest.approx(2.0, rel=1e-6)


class TestContractionIdentity:
    def test_origin_is_exact(self):
        rng = np.random.default_rng(2)
        pis = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
        rep = vf.check_contraction_identity([0.0, 0, 0, 0], pis)
        assert rep.max_residual == 0.0

    def test_random_probes(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=4)
        pis = rng.normal(size=(1000, 2)) + 1j * rng.normal(size=(1000, 2))
        rep = vf.check_contraction_identity(x, pis)
        assert rep.passed and rep.tolerance == 1e-12

    def test_one_event_per_probe(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(40, 4))
        pis = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
        rep = vf.check_contraction_identity(xs, pis)
        assert rep.passed and rep.probe_count == 40
        per_probe = vf.check_contraction_identity(np.tile(xs[0], (40, 1)), pis)
        shared = vf.check_contraction_identity(xs[0], pis)
        assert np.array_equal(per_probe.residuals, shared.residuals)


class TestSuites:
    def test_reports_deterministic_for_fixed_seed(self):
        a = [r.to_json_dict() for r in vf.suite_twistor(7, n=200)]
        b = [r.to_json_dict() for r in vf.suite_twistor(7, n=200)]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_all_mini_suites_pass(self, flrw_spec):
        assert all(r.passed for r in vf.suite_twistor(5, n=100))
        assert all(r.passed for r in vf.suite_contact(5, n=4))
        assert all(r.passed for r in vf.suite_kernel(5, n=4, frame=flrw_spec))
        assert all(r.passed for r in vf.suite_flow(5, n_sky=8, frame=flrw_spec))
        assert all(r.passed for r in vf.suite_kernel(5, n=4, frame=GraphFrame()))
        assert all(r.passed for r in vf.suite_flow(5, n_sky=8, frame=GraphFrame()))

    def test_report_json_schema(self):
        rep = vf.suite_twistor(1, n=10)[0]
        d = rep.to_json_dict()
        assert set(d) == {
            "name",
            "passed",
            "max_residual",
            "tolerance",
            "probe_count",
            "residuals",
            "extras",
        }
