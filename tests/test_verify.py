import json
import re

import numpy as np
import pytest

from skyframes import cli
from skyframes import frames as fr
from skyframes import manifold as mf
from skyframes import sky, spinor, verify as vf
from skyframes import twistor as tw
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

    def test_suite_integrates_its_rays_in_one_batch(self, monkeypatch, flrw_spec):
        batches = []
        trace = mf.trace_past_to_time

        def counting_trace(m, x0, v0, t_target):
            batches.append((len(x0), t_target))
            return trace(m, x0, v0, t_target)

        monkeypatch.setattr(mf, "trace_past_to_time", counting_trace)
        reports = vf.suite_contact(7, flrw_spec, n=8)
        assert len(reports) == 8 and all(r.passed for r in reports)
        # one call with 8 rays, down to the singularity cutoff
        assert batches == [(8, fr.SINGULARITY_CUTOFF)]

    @pytest.mark.parametrize("case", ["anisotropic"])
    def test_end_state_is_taken_at_its_own_sky_point(self, case):
        # in an anisotropic chart the sky point turns along the ray, and the
        # start sky point missed the end state's kernel by up to 9.9e-3
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

    def test_a_ray_that_leaves_the_chart_raises_naming_its_event(self):
        # theta was taken at the state where the ray left the chart, and the
        # check passed
        bounded = mf.MetricSpec.minkowski(
            bounds=[[-np.inf, np.inf], [-2.1, 2.1], [-np.inf, np.inf], [-np.inf, np.inf]]
        )
        f = fr.FrameSpec(metric=bounded, target=fr.CauchySurface(0.0))
        xs = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0], [1.0, 2.05, 0.0, 0.0]])
        # the past rays run along +x, so the last two leave at x = 2.1
        xis = np.tile(spinor.cospinor_for_direction(np.array([-1.0, 0.0, 0.0])), (3, 1))
        with pytest.raises(NoIntersectionError, match=re.escape("[1.0, 2.0, 0.0, 0.0]")):
            vf.check_contact_annihilation(f, xs, xis)
        assert vf.check_contact_annihilation(f, xs[0], xis[0]).passed


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

README_METRIC = mf.metric_from_config(
    {
        "kind": "custom",
        "coeffs": ["1"] + ["-(1 + 0.1*t)**2"] * 3,
        "bounds": [[0, None], [None, None], [None, None], [None, None]],
    }
)
KERNEL_FRAMES = {
    "graph": PROTOCOL_FRAMES["graph"],
    "flat": PROTOCOL_FRAMES["flat"],
    "p2/3": PROTOCOL_FRAMES["p2/3"],
    "readme": fr.FrameSpec(metric=README_METRIC, target=fr.CauchySurface(0.0)),
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

    @pytest.mark.parametrize("name", sorted(PROTOCOL_FRAMES))
    def test_one_event_per_row_or_shared(self, name):
        frame = PROTOCOL_FRAMES[name]
        xis = sky.sample_sky(4, scheme="random", seed=2).xi
        x = np.array([0.9, 0.1, -0.2, 0.05])
        xs = x + np.array([[0.0, 0, 0, 0], [0.1, 0.2, 0, 0], [0.3, 0, 0, -0.1], [0, 0, 0, 0]])
        shared = frame.probe_values(x, xis, DIRECTIONS)
        rows = frame.probe_values(xs, xis, DIRECTIONS)
        for k in (0, 3):  # the rows at the shared event
            for a, b in zip(shared, rows):
                assert np.array_equal(a[k], b[k])
        for k in (1, 2):
            one = frame.probe_values(xs[k], xis[k : k + 1], DIRECTIONS)
            for a, b in zip(one, rows):
                assert np.allclose(a[0], b[k], rtol=1e-12, atol=1e-15)

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

    def test_richardson_convergence(self, flrw_spec, monkeypatch):
        x = np.array([0.8, 0.1, -0.2, 0.05])  # |x| < 1, so the event step is EVENT_FD_STEP
        xi = sky.unit_cospinor(np.array([0.7, 0.1 - 0.6j]))
        spreads = []
        for step in (4e-3, 2e-3):
            monkeypatch.setattr(fr, "EVENT_FD_STEP", step)
            spreads.append(vf.check_kernel_proportionality(flrw_spec, x, xi).residuals[0])
        assert spreads[0] / spreads[1] >= 3.0

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

    def test_rank_deficient_probe_raises_degenerate(self, monkeypatch):
        monkeypatch.setattr(fr, "RANK_TOL", 1e3)
        flat = PROTOCOL_FRAMES["flat"]
        with pytest.raises(DegenerateTangentPlaneError):
            vf.check_kernel_proportionality(flat, [1.0, 0.2, -0.3, 0.1], [0.6, 0.8j])

    @pytest.mark.parametrize("name", ["graph", "flat", "p2/3", "readme"])
    def test_rows_give_the_one_row_reports(self, name):
        frame = KERNEL_FRAMES[name]
        xs, xis = vf._random_rows(7, 6, frame)
        rows = vf.check_kernel_proportionality(frame, xs, xis)
        assert len(rows) == 6 and all(r.passed for r in rows)
        # the closed-form frames give the same bits; the others to rounding
        tol = 0.0 if name in ("graph", "flat") else 1e-12
        for x, xi, rep in zip(xs, xis, rows):
            one = vf.check_kernel_proportionality(frame, x, xi)
            assert np.abs(one.residuals - rep.residuals).max() <= tol
            assert one.extras["empirical_factor"] == pytest.approx(
                rep.extras["empirical_factor"], rel=tol, abs=0.0
            )
            assert np.allclose(one.extras["ratios"], rep.extras["ratios"], rtol=tol, atol=0)
            assert one.tolerance == rep.tolerance and one.probe_count == rep.probe_count
        # one event shared by every sky point
        shared = vf.check_kernel_proportionality(frame, xs[0], xis)
        assert np.abs(shared[0].residuals - rows[0].residuals).max() <= tol

    @pytest.mark.parametrize("n", [1, 25])
    def test_suite_makes_one_project_batch_call(self, monkeypatch, n, flrw_spec):
        calls = []
        project = fr.project_batch

        def counting(f, events, xis):
            calls.append(len(events))
            return project(f, events, xis)

        monkeypatch.setattr(fr, "project_batch", counting)
        reports = vf.suite_kernel(7, flrw_spec, n=n)
        assert len(reports) == n and all(r.passed for r in reports)
        # per row: the base ray, 4 sky-stencil rays and 2 per coordinate axis
        assert calls == [13 * n]

    def test_batch_names_the_event_of_the_first_row_that_misses(self):
        xs = np.array([[1.0, 0.2, -0.3, 0.1], [0.0, 0.3, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]])
        xis = np.tile([0.6, 0.8j], (3, 1))
        with pytest.raises(NoIntersectionError, match=re.escape("[0.0, 0.3, 0.0, 0.0]")):
            vf.check_kernel_proportionality(PROTOCOL_FRAMES["flat"], xs, xis)

    def test_batch_names_the_event_of_the_first_degenerate_row(self, monkeypatch):
        # the image of an event 1e-8 above the slice is below RANK_TOL; the
        # small event step keeps its family rays above the slice
        monkeypatch.setattr(fr, "EVENT_FD_STEP", 1e-12)
        xs = np.array([[1.0, 0.2, -0.3, 0.1], [1e-8, 0.2, -0.3, 0.1], [1e-8, 0.5, 0, 0]])
        xis = np.tile([0.6, 0.8j], (3, 1))
        flat = PROTOCOL_FRAMES["flat"]
        with pytest.raises(DegenerateTangentPlaneError, match=re.escape("[1e-08, 0.2, -0.3, 0.1]")):
            vf.check_kernel_proportionality(flat, xs, xis)
        assert vf.check_kernel_proportionality(flat, xs[0], xis[0]).passed


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


class _EditedProbes:
    """A verifier frame whose probe values are those of `frame`, changed by
    `edit(pv) -> pv`."""

    def __init__(self, frame, edit):
        self.frame, self.edit = frame, edit
        self.PROBE_TOL, self.target_time = frame.PROBE_TOL, frame.target_time

    def probe_values(self, x, xis, directions):
        return self.edit(self.frame.probe_values(x, xis, directions))


def _reference_kernel(pv):
    """Each row's kernel residuals, ratios and median, one row at a time."""
    rows = []
    for theta, rates, vertical in zip(pv.theta, pv.rates, pv.vertical):
        scale_t = max(float(np.abs(theta).max()), 1e-300)
        scale_p = max(float(np.abs(rates).max()), 1e-300)
        keep = np.abs(theta) > vf.KERNEL_SKIP_TOL * scale_t
        ratios = rates[keep] / theta[keep]
        med = float(np.median(ratios))
        sv = np.linalg.svd(np.stack([theta / scale_t, rates / scale_p]), compute_uv=False)
        residuals = [
            float(np.abs(ratios - med).max() / abs(med)),
            sv[1] / sv[0],
            float(np.abs(vertical).max() / scale_p),
            0.0 if np.all(ratios > 0.0) else 1.0,
        ]
        rows.append((np.array(residuals), ratios, med))
    return rows


def _reference_flow(pv):
    """The flow residuals and mean profile, one sample at a time."""
    residuals, profile = [], []
    for theta, rates, regular in zip(pv.theta, pv.rates, pv.regular):
        keep = np.abs(theta) > vf.KERNEL_SKIP_TOL * max(float(np.abs(theta).max()), 1e-300)
        ratios = rates[keep] / theta[keep] if regular else ()
        if len(ratios) == 0:
            profile.append(np.nan)
            continue
        mean = float(np.mean(ratios))
        profile.append(mean)
        residuals.append(float(np.abs(ratios - mean).max() / abs(mean)))
    return np.array(residuals), np.array(profile)


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _drop(theta, b, dropped, factor=1e-12):
    """Move the `dropped` smallest |theta| of row b to factor times its largest."""
    order = np.argsort(-np.abs(theta[b]))
    theta[b, order[len(order) - dropped:]] = factor * np.abs(theta[b]).max()


def _edit_kernel_rows(pv):
    """Rows 0-2 keep 1, 2 and 3 ratios (the others fall 1e-12 below the
    largest |theta|), row 4 has a probe exactly on the edge of the kernel
    band, and row 5 a negative ratio; a batch of one row keeps 2 ratios."""
    theta, rates = pv.theta.copy(), pv.rates.copy()
    if len(theta) == 1:
        _drop(theta, 0, 2)
    else:
        for b, dropped in ((0, 3), (1, 2), (2, 1)):
            _drop(theta, b, dropped)
        _drop(theta, 4, 1, vf.KERNEL_SKIP_TOL)
        rates[5, 0] = -rates[5, 0]
    return pv._replace(theta=theta, rates=rates)


def _edit_flow_rows(pv):
    """Row 1 is not regular, row 2 keeps one ratio and row 3 has a probe on
    the edge of the kernel band; a batch of one row is not regular."""
    theta, rates, regular = pv.theta.copy(), pv.rates.copy(), pv.regular.copy()
    if len(theta) == 1:
        regular[0], rates[0] = False, np.nan
    else:
        regular[1], rates[1] = False, np.nan
        _drop(theta, 2, 3)
        _drop(theta, 3, 1, vf.KERNEL_SKIP_TOL)
    return pv._replace(theta=theta, rates=rates, regular=regular)


ROW_FRAMES = {"graph": GraphFrame(), "p2/3": PROTOCOL_FRAMES["p2/3"]}


class TestRowReportsMatchThePerRowReference:
    """The row operations of the kernel and flow checks give the bits of a
    loop over rows that takes np.median and np.mean of each row's kept
    ratios."""

    @pytest.mark.parametrize("name", sorted(ROW_FRAMES))
    def test_kernel_rows(self, name):
        frame = _EditedProbes(ROW_FRAMES[name], _edit_kernel_rows)
        xs, xis = vf._random_rows(7, 6, frame)
        reports = vf.check_kernel_proportionality(frame, xs, xis)
        reference = _reference_kernel(frame.probe_values(xs, xis, np.eye(4)))
        assert [len(ratios) for _, ratios, _ in reference] == [1, 2, 3, 4, 3, 4]
        assert [res[3] for res, _, _ in reference] == [0.0] * 5 + [1.0]
        # one row given as xi (2,), keeping 2 ratios
        one = vf.check_kernel_proportionality(frame, xs[2], xis[2])
        reports.append(one)
        reference += _reference_kernel(frame.probe_values(xs[2], xis[2:3], np.eye(4)))
        assert len(reference[-1][1]) == 2
        for rep, (residuals, ratios, med) in zip(reports, reference, strict=True):
            assert _same_bits(rep.residuals, residuals)
            assert _same_bits(rep.extras["ratios"], ratios)
            assert _same_bits(rep.extras["empirical_factor"], med)
            assert rep.max_residual == residuals.max()

    @pytest.mark.parametrize("name", sorted(ROW_FRAMES))
    def test_flow_rows(self, name):
        frame = _EditedProbes(ROW_FRAMES[name], _edit_flow_rows)
        x = vf._random_events(np.random.default_rng(3), 1, t_floor=frame.target_time)[0]
        sample = vf._random_sky(3, 8)
        rep = vf.check_flow_of_time(frame, x, DIRECTIONS, sample)
        residuals, profile = _reference_flow(frame.probe_values(x, sample.xi, DIRECTIONS))
        assert len(residuals) == 7 and np.isnan(profile[1])
        assert _same_bits(rep.residuals, residuals)
        assert _same_bits(rep.extras["empirical_factor_profile"], profile)
        # a sample of one sky point, not regular
        with pytest.raises(DegenerateTangentPlaneError, match="no regular samples"):
            vf.check_flow_of_time(frame, x, DIRECTIONS, sky.SkySample(sample.xi[:1]))


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
        a = [cli._report_json(r) for r in vf.suite_twistor(7, n=200)]
        b = [cli._report_json(r) for r in vf.suite_twistor(7, n=200)]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_all_mini_suites_pass(self, flrw_spec):
        assert all(r.passed for r in vf.suite_twistor(5, n=100))
        assert all(r.passed for r in vf.suite_contact(5, flrw_spec, n=4))
        assert all(r.passed for r in vf.suite_kernel(5, n=4, frame=flrw_spec))
        assert all(r.passed for r in vf.suite_flow(5, n_sky=8, frame=flrw_spec))
        assert all(r.passed for r in vf.suite_kernel(5, n=4, frame=GraphFrame()))
        assert all(r.passed for r in vf.suite_flow(5, n_sky=8, frame=GraphFrame()))

    def test_twistor_suite_matches_the_per_row_loop(self):
        # the suite's array expressions against the loop over rows they
        # replaced, written with plain matrix products
        rep_tau, rep_null = vf.suite_twistor(7, n=200)
        rng = np.random.default_rng(7)
        xs = vf._random_events(rng, 200)
        pis = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
        omegas = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
        tau_res, im_null, misclassified = [], [], []
        for x, pi, om in zip(xs, pis, omegas):
            tau = -1j * (np.conj(pi) @ (1j * spinor.pauli_transform(x) @ pi))
            field = sky.celestial_eval(x, np.conj(pi))
            tau_res.append(abs(tau - field) / max(abs(tau), abs(field), 1e-300))
            im_null.append(abs(tau.imag) / max(abs(tau), np.linalg.norm(pi) ** 2))
            if abs(2.0 * np.real(np.conj(pi) @ om)) >= 1e-3:
                value = -1j * (np.conj(pi) @ om)
                scale = max(abs(value), np.linalg.norm(pi) ** 2)
                misclassified.append(float(abs(value.imag) <= 1e-12 * scale))
        assert np.allclose(rep_tau.residuals, tau_res, rtol=0, atol=1e-14)
        n_null = len(im_null)
        assert np.allclose(rep_null.residuals[:n_null], im_null, rtol=0, atol=1e-14)
        assert rep_null.residuals[n_null:].tolist() == misclassified
        assert rep_null.probe_count == n_null + len(misclassified)

    def test_twistor_suite_builds_its_incidence_twistors_once(self, monkeypatch):
        # the contraction check built them, then the null characterisation
        # built them again
        calls, incidence = [], tw.incidence
        monkeypatch.setattr(tw, "incidence", lambda x, pi: calls.append(len(pi)) or incidence(x, pi))
        assert len(vf.suite_twistor(7, n=20)) == 2
        assert calls == [20]

    def test_report_json_schema(self):
        rep = vf.suite_twistor(1, n=10)[0]
        d = cli._report_json(rep)
        assert set(d) == {
            "name",
            "passed",
            "max_residual",
            "tolerance",
            "probe_count",
            "residuals",
            "extras",
        }
