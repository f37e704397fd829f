import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from skyframes import causality as ca
from skyframes import cli
from skyframes import frames as fr
from skyframes import manifold as mf
from skyframes import sky, spinor
from skyframes import verify as vf
from skyframes.errors import (
    DivergentIntegralError,
    NoIntersectionError,
    OutOfDomainError,
    SkyframesError,
    ZeroSpinorError,
)

XI_TO_ZHAT = np.array([1.0 + 0j, 0.0])  # past travel direction +z


@pytest.fixture(scope="module")
def flrw_frame():
    return fr.FrameSpec(metric=mf.MetricSpec.flrw(p=2 / 3), target=fr.Singularity())


@pytest.fixture(scope="module")
def mink_frame():
    return fr.FrameSpec(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0))


@pytest.fixture(scope="module")
def sample100():
    return sky.sample_sky(100)


class TestProjectEvent:
    def test_flat_space_light_ray(self, mink_frame):
        tp = fr.tangent_planes(mink_frame, np.array([[1.0, 0, 0, 0]]), XI_TO_ZHAT[None])
        assert np.allclose(tp.m_points[0], [0, 0, 1])
        assert tp.ranks[0] == 2
        assert tp.lams[0] == pytest.approx(1.0)

    def test_arrival_offset_matches_elapsed_time(self, mink_frame):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = np.array([rng.uniform(0.2, 3.0), *rng.normal(size=3)])
            xi = sky.unit_cospinor(rng.normal(size=2) + 1j * rng.normal(size=2))
            tp = fr.tangent_planes(mink_frame, x[None], xi[None])
            assert tp.reason[0] == mf.ARRIVED and tp.stencil_ok[0]
            assert np.linalg.norm(tp.m_points[0] - x[1:]) == pytest.approx(x[0])

    def test_cosmology_comoving_radius(self, flrw_frame):
        tp = fr.tangent_planes(flrw_frame, np.array([[1.0, 0, 0, 0]]), XI_TO_ZHAT[None])
        assert tp.reason[0] == mf.ARRIVED and tp.stencil_ok[0]
        assert np.linalg.norm(tp.m_points[0]) == pytest.approx(3.0, abs=1e-10)

    def test_event_on_target_surface(self, mink_frame):
        x = np.array([0.0, 0.4, -0.2, 0.7])
        tp = fr.tangent_planes(mink_frame, x[None], XI_TO_ZHAT[None])
        assert tp.reason[0] == mf.ARRIVED and tp.stencil_ok[0]
        assert np.allclose(tp.m_points[0], [0.4, -0.2, 0.7])
        assert tp.lams[0] == 0.0

    def test_event_below_surface_fails(self, mink_frame):
        x = np.array([-1.0, 0, 0, 0])
        tp = fr.tangent_planes(mink_frame, x[None], XI_TO_ZHAT[None])
        assert tp.reason[0] == mf.BELOW_TARGET and not tp.stencil_ok[0]
        assert np.all(np.isnan(tp.m_points[0]))

    def test_outside_domain_fails(self, flrw_frame):
        with pytest.raises(OutOfDomainError):
            fr.tangent_planes(flrw_frame, np.array([[-0.5, 0, 0, 0]]), XI_TO_ZHAT[None])

    def test_batch_with_one_event_outside_the_domain_fails(self, flrw_frame):
        events = np.array([[1.0, 0, 0, 0], [-0.5, 0, 0, 0]])
        with pytest.raises(OutOfDomainError):
            fr.project_batch(flrw_frame, events, np.tile(XI_TO_ZHAT, (2, 1)))

    @pytest.mark.parametrize("tracer", ["auto", "numeric"])
    def test_zero_sky_point_raises(self, tracer):
        # the closed form raised "no finite end point" and the numeric
        # tracer came back with a silent not-ok ray
        f = fr.FrameSpec(
            metric=mf.MetricSpec.flrw(p=2 / 3), target=fr.CauchySurface(0.5), tracer=tracer
        )
        events = np.array([[1.0, 0, 0, 0], [1.0, 0.1, 0, 0]])
        with pytest.raises(ZeroSpinorError):
            fr.project_batch(f, events, np.array([XI_TO_ZHAT, [0, 0]]))

    def test_affine_length_at_p_minus_1(self):
        # a = 1/t: the power-law formula divided 0 by 0; the length from t
        # down to t0 is t ln(t / t0), and the numeric tracer agrees
        metric = mf.MetricSpec.flrw(p=-1.0)
        events = np.array([[2.0, 0.1, 0, 0], [1.5, 0, 0.3, 0]])
        xis = sky.sample_sky(4, scheme="random", seed=1).xi[:2]
        lams = {}
        for tracer in ("auto", "numeric"):
            f = fr.FrameSpec(metric=metric, target=fr.CauchySurface(1.0), tracer=tracer)
            _, lams[tracer], ok, _ = fr.project_batch(f, events, xis)
            assert np.all(ok)
        expected = events[:, 0] * np.log(events[:, 0])
        assert np.allclose(lams["auto"], expected, rtol=1e-14)
        assert np.allclose(lams["numeric"], expected, rtol=1e-5)
        # toward the singularity the length diverges for p <= -1; the
        # numeric tracer's gap closing came back ok with inf (p = -1) or a
        # negative length (p = -1.5), then both tracers raised
        # OutOfDomainError where the expression 1/t raised
        # DivergentIntegralError (the expression stays off the numeric
        # tracer, whose finite-difference a'(t) loses its rays at the cutoff)
        both = ("auto", "numeric")
        for metric, tracers in (
            (mf.MetricSpec.flrw(p=-1.0), both),
            (mf.MetricSpec.flrw(p=-1.5), both),
            (mf.metric_from_config({"kind": "flrw", "a_expr": "1/t"}), both[:1]),
        ):
            for tracer in tracers:
                f = fr.FrameSpec(metric=metric, target=fr.Singularity(), tracer=tracer)
                with pytest.raises(DivergentIntegralError):
                    fr.project_batch(f, events, xis)

    def test_closed_form_overflow_names_the_event(self):
        # the conformal interval t^(3/2) / 1.5 of p = -1/2 overflows to inf;
        # such a ray came back ok, after a RuntimeWarning
        f = fr.FrameSpec(metric=mf.MetricSpec.flrw(p=-0.5), target=fr.Singularity())
        events = np.array([[1.0, 0, 0, 0], [1e308, 0, 0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomainError, match=re.escape("[1e+308, 0.0, 0.0, 0.0]")):
                fr.project_batch(f, events, np.tile(XI_TO_ZHAT, (2, 1)))

    @pytest.mark.parametrize("p, t", [(0.5, 1e308), (2 / 3, 2e185), (2 / 3, 1e-199)])
    def test_power_law_affine_length_is_a_ratio(self, p, t):
        # t^(1+p) / (1+p) / t^p overflowed (an OutOfDomainError for a finite
        # length) or underflowed (lambda = 0, ok) where t / (1+p) does not
        f = fr.FrameSpec(metric=mf.MetricSpec.flrw(p=p), target=fr.Singularity())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xis = np.tile(XI_TO_ZHAT, (2, 1))
            _, lams, ok, _ = fr.project_batch(f, np.array([t, 0, 0, 0]), xis)
        assert np.all(ok) and np.all(np.abs(lams / (t / (1 + p)) - 1.0) <= 1e-15)

    @pytest.mark.parametrize("scale", [1e-140, 1.0, 1e160, 1e300])
    def test_huge_covector_ray_ends_at_distance_one(self, mink_frame, scale):
        # at 1e160 the ray ended at the origin, with ok = True
        xi = np.array([[1.0, 0.3 + 0.2j]]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts, _, ok, _ = fr.project_batch(mink_frame, np.array([[1.0, 0, 0, 0]]), xi)
        assert ok[0]
        assert np.linalg.norm(pts[0]) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("tracer", ["auto", "numeric"])
    def test_zero_rows_give_empty_results(self, tracer):
        # np.abs(t).max() raised numpy's "zero-size array to reduction" error
        f = fr.FrameSpec(metric=mf.MetricSpec.flrw(p=2 / 3), target=fr.Singularity(), tracer=tracer)
        events, xis = np.zeros((0, 4)), np.zeros((0, 2), dtype=complex)
        pts, lams, ok, reason = fr.project_batch(f, events, xis)
        assert pts.shape == (0, 3) and lams.shape == ok.shape == reason.shape == (0,)
        assert ok.dtype == bool and reason.dtype == np.int8
        tp = fr.tangent_planes(f, events, xis, np.eye(4)[1:], normals=True)
        assert tp.m_points.shape == tp.normals.shape == (0, 3)
        assert tp.jacobians.shape == (0, 3, 2) and tp.family.shape == (0, 3, 3)
        assert tp.ranks.shape == tp.reason.shape == tp.stencil_ok.shape == (0,)


class TestReasonCodes:
    """One reason code per ray, from where it failed to the sky image."""

    SLAB = [[None, None], [-2.1, 2.1], [None, None], [None, None]]

    @pytest.mark.parametrize("tracer", ["auto", "numeric"])
    def test_arrived_and_below_target(self, tracer):
        m = mf.MetricSpec.minkowski()
        f = fr.FrameSpec(metric=m, target=fr.CauchySurface(0.5), tracer=tracer)
        events = np.array([[1.0, 0, 0, 0], [0.5, 0, 0, 0], [0.2, 0, 0, 0]])
        pts, _, ok, reason = fr.project_batch(f, events, np.tile(XI_TO_ZHAT, (3, 1)))
        assert reason.dtype == np.int8 and np.array_equal(ok, reason == mf.ARRIVED)
        assert reason.tolist() == [mf.ARRIVED, mf.ARRIVED, mf.BELOW_TARGET]
        assert np.isnan(pts[2]).all()

    @pytest.mark.parametrize("tracer", ["auto", "numeric"])
    def test_left_bounds_on_both_tracers(self, tracer):
        # from x = 2 on the slab |x| < 2.1, rays with a past x over 0.1 leave
        m = mf.metric_from_config({"kind": "minkowski", "bounds": self.SLAB})
        f = fr.FrameSpec(metric=m, target=fr.CauchySurface(0.0), tracer=tracer)
        sample = sky.sample_sky(50)
        pts, _, ok, reason = fr.project_batch(f, np.array([1.0, 2.0, 0, 0]), sample.xi)
        assert set(reason[~ok].tolist()) == {mf.LEFT_BOUNDS} and 0 < ok.sum() < 50
        assert np.array_equal(~ok, np.isnan(pts).all(axis=1))

    def test_non_finite_state_at_the_last_node(self):
        # d g11 / dt = -(t**t)(ln t + 1) is NaN at t = 0, the last node, so
        # n and ln E turn NaN there on every ray of this anisotropic chart
        cfg = {"kind": "custom", "coeffs": ["1", "-(1+t**t)", "-1", "-1"],
               "bounds": [[0, None], [None, None], [None, None], [None, None]]}
        f = fr.FrameSpec(metric=mf.metric_from_config(cfg), target=fr.CauchySurface(0.0))
        sample = sky.sample_sky(50)
        _, _, ok, reason = fr.project_batch(f, np.array([1.0, 0, 0, 0]), sample.xi)
        assert reason.tolist() == [mf.NON_FINITE] * 50
        with pytest.raises(NoIntersectionError):
            fr.sky_image(f, np.array([1.0, 0, 0, 0]), sample)

    def test_sky_image_maps_each_code_to_its_status(self, monkeypatch, mink_frame):
        codes = np.arange(5, dtype=np.int8)
        assert codes.tolist() == [
            mf.ARRIVED, mf.BELOW_TARGET, mf.LEFT_BOUNDS, mf.NON_FINITE, mf.UNSETTLED
        ]
        batch = (np.zeros((5, 3)), np.zeros(5), codes == mf.ARRIVED, codes)
        monkeypatch.setattr(fr, "project_batch", lambda f, x, xis: batch)
        img = fr.sky_image(mink_frame, [1.0, 0, 0, 0], sky.sample_sky(5), with_rank=False)
        assert img.reason is codes  # the image keeps the codes, not a tuple of strings
        failed = ("no_intersection",) * 3
        assert img.status == ("ok", *failed, "integrator_failure")
        assert all(type(s) is str for s in img.status)
        # status strings in place of the codes take the first code of each
        assert dataclasses.replace(img, status=img.status).reason.tolist() == [0, 1, 1, 1, 4]
        assert dataclasses.replace(img, ranks=img.ranks).reason is codes
        assert img.ok_mask.tolist() == [True, False, False, False, False]
        assert img.ok_mask.dtype == img.regular_mask.dtype == bool and not img.regular_mask.any()


class TestTargetLevel:
    """An event lies below the target exactly when t < t_target, on every
    path: the codes of `project_batch` on both tracers, `sky_image`,
    `analytic_region` and the CLI's `causal`.  An event 1e-13 below the
    level was snapped onto it by an on-surface tolerance, so its sky image
    was a point while its ball was refused."""

    TIMES = {"on": 0.5, "ulp-above": float(np.nextafter(0.5, 1.0)), "below": 0.5 - 1e-13}
    METRICS = {
        "flat": (mf.MetricSpec.minkowski(), ["--metric", "minkowski"]),
        "p2/3": (mf.MetricSpec.flrw(p=2 / 3), ["--metric", "flrw", "--p", repr(2 / 3)]),
    }

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("where", TIMES)
    def test_every_path_agrees(self, metric, where, capsys):
        m, flags = self.METRICS[metric]
        x, sample = np.array([self.TIMES[where], 0.1, 0.0, 0.0]), sky.sample_sky(16)
        below = where == "below"
        frames = [fr.FrameSpec(metric=m, target=fr.CauchySurface(0.5), tracer=tracer)
                  for tracer in ("auto", "numeric")]
        for f in frames:
            reason = fr.project_batch(f, x, sample.xi)[3]
            assert set(reason.tolist()) == {mf.BELOW_TARGET if below else mf.ARRIVED}
            if below:
                with pytest.raises(NoIntersectionError):
                    fr.sky_image(f, x, sample)
            else:
                image = fr.sky_image(f, x, sample)
                assert image.ok_mask.all()
                # on the level the image is the event's own point
                assert (image.lams == 0.0).all() == (where == "on")
                assert (image.m_points == x[1:]).all() == (where == "on")
        if below:
            with pytest.raises(NoIntersectionError, match="below the target"):
                ca.analytic_region(frames[0], x)
        else:
            assert (ca.analytic_region(frames[0], x).radius == 0.0) == (where == "on")
        event = ",".join(map(repr, x.tolist()))
        code = cli.main(["causal", *flags, "--target", "cauchy:0.5", f"--x={event}", f"--y={event}"])
        out, err = capsys.readouterr()
        assert code == (1 if below else 0)
        assert err.startswith("NoIntersectionError") if below else out.startswith("equal")

    @pytest.mark.parametrize("metric", ["flat", "p2/3", "readme"])
    def test_a_ray_below_the_target_has_length_zero_on_both_tracers(self, metric):
        # the closed form returned affine_length(t, t_target) for these rays,
        # -9.998e-14 in flat space 1e-13 below the target; the tracer gives 0
        m = (mf.metric_from_config(_README_CHART) if metric == "readme"
             else self.METRICS[metric][0])
        xis = sky.sample_sky(8).xi
        events = np.zeros((8, 4))
        events[:, 0] = [self.TIMES["below"], 0.2, 0.9, self.TIMES["below"]] * 2
        for tracer in ("auto", "numeric"):
            f = fr.FrameSpec(metric=m, target=fr.CauchySurface(0.5), tracer=tracer)
            for x in (events[0], events):  # one shared event, and one per ray
                _, lams, ok, reason = fr.project_batch(f, x, xis)
                below = np.atleast_2d(x)[:, 0] < 0.5
                assert (reason == mf.BELOW_TARGET).tolist() == np.broadcast_to(below, 8).tolist()
                assert lams[~ok].tolist() == [0.0] * int(np.sum(~ok))
                assert not np.signbit(lams[~ok]).any()
                assert np.all(lams[ok] > 0.0), tracer


class TestEventsBelowTheCutoff:
    """The numeric tracer marches toward the singularity down to
    SINGULARITY_CUTOFF, or to the lowest event time below it, and closes
    the rest in conformal time; it stopped every batch at the cutoff and
    refused events below it as lying below the target level."""

    M = mf.MetricSpec.flrw(p=2 / 3)

    # at t = 1e-300 the legs are a = 1e-200: a^2 = 1e-400 underflowed to 0,
    # the null directions divided by it, and no ray arrived
    @pytest.mark.parametrize("t", [5e-10, 1e-30, 1e-300])
    def test_numeric_image_matches_the_closed_form(self, t):
        x, sample = np.array([t, 0.0, 0.0, 0.0]), sky.sample_sky(50)
        closed, numeric = (
            fr.sky_image(fr.FrameSpec(metric=self.M, target=fr.Singularity(), tracer=tracer),
                         x, sample)
            for tracer in ("auto", "numeric")
        )
        assert numeric.ok_mask.all() and np.array_equal(numeric.ranks, closed.ranks)
        radius = 3.0 * t ** (1 / 3)
        assert np.abs(numeric.m_points - closed.m_points).max() <= 1e-14 * radius
        assert np.abs(numeric.lams - closed.lams).max() <= 1e-14 * closed.lams.max()


class TestLegsThatOverflowWhenSquared:
    def test_numeric_image_matches_the_closed_form(self):
        # at t = 1e90 on p = 2, a^2 = 1e360 overflowed: the legs were inf
        m, x = mf.MetricSpec.flrw(p=2.0), np.array([1e90, 0.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed, numeric = (
                fr.sky_image(fr.FrameSpec(metric=m, target=fr.CauchySurface(1e89), tracer=tracer),
                             x, sky.sample_sky(16))
                for tracer in ("auto", "numeric")
            )
        assert numeric.ok_mask.all() and np.array_equal(numeric.ranks, closed.ranks)
        radius = 1e-89 - 1e-90  # the integral of t^-2 from 1e89 to 1e90
        assert np.abs(numeric.m_points - closed.m_points).max() <= 1e-5 * radius
        assert np.abs(numeric.lams - closed.lams).max() <= 1e-5 * closed.lams.max()


class TestFlatSpaceIsThePowerLawOfExponentZero:
    """The flat chart and the FLRW chart of a = t^0 on the flat chart's
    bounds give the same bits on both tracers and in the ball region."""

    FLAT = mf.MetricSpec.minkowski()
    STATIC = mf.MetricSpec.flrw(p=0.0, bounds=FLAT.bounds)
    # above, on and below the target level t = 0.5
    EVENTS = [[1.0, 0.2, 0.0, 0.0], [0.7, -0.1, 0.3, 0.2], [0.5, 0.1, 0.0, 0.0],
              [0.3, 0.0, 0.0, 0.0]]

    def _frames(self, tracer="auto"):
        return [fr.FrameSpec(metric=m, target=fr.CauchySurface(0.5), tracer=tracer)
                for m in (self.FLAT, self.STATIC)]

    def test_flat_space_has_exponent_zero(self):
        assert self.FLAT.exponent == 0.0 and self.STATIC.exponent == 0.0

    @pytest.mark.parametrize("tracer", ["auto", "numeric"])
    def test_project_batch(self, tracer):
        xis = sky.sample_sky(32).xi
        rows = np.array(self.EVENTS)[np.arange(32) % 4]  # one event per ray
        for events in [*map(np.array, self.EVENTS), rows]:
            flat, static = (fr.project_batch(f, events, xis) for f in self._frames(tracer))
            for a, b in zip(flat, static):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_analytic_region(self):
        for event in self.EVENTS[:3]:
            flat, static = (ca.analytic_region(f, np.array(event)) for f in self._frames())
            assert flat.center.tobytes() == static.center.tobytes()
            assert flat.radius.hex() == static.radius.hex()
        for f in self._frames():
            with pytest.raises(NoIntersectionError, match="lies below the target"):
                ca.analytic_region(f, np.array(self.EVENTS[3]))


class TestPowerLawSelfSimilarity:
    """On a = t^p the map t -> c t, x -> c^(1-p) x scales the metric by c^2,
    so it carries null rays to null rays and the singularity to itself;
    with dt/dlambda = 1 at the event, the image of the scaled event is the
    scaled image and lambda scales by c.  With c = 2^(m j) and c^(1-p) =
    2^j (p = 2/3 and m = 3, p = 1/2 and m = 2, flat space to t = 0 and
    m = 1) the scaling is exact, so the oracle is the closed-form image at
    j = 0, over every j whose scaled event is exact and whose image is
    finite.  The closed form keeps it to rounding, the numeric tracer to
    its step-doubling tolerance, and the tangent planes keep rank 2 and
    their normals down to the rank floor of `tangent_planes`, which reads
    a round sphere singular below (ROADMAP item 21), on seeded j."""

    X = np.array([1.5, 0.25, -0.5, 0.75])
    SKY = sky.sample_sky(50)
    #: name: (metric, target, m, (least j, greatest j), least j of rank 2)
    CASES = {
        "p2/3": (mf.MetricSpec.flrw(p=2 / 3), fr.Singularity(), 3, (-357, 341), -26),
        "p1/2": (mf.MetricSpec.flrw(p=0.5), fr.Singularity(), 2, (-536, 511), -25),
        "flat": (mf.MetricSpec.minkowski(), fr.CauchySurface(0.0), 1, (-1072, 1022), -24),
    }

    def _scaled(self, m, j):
        return np.ldexp(self.X, [m * j, j, j, j])

    def _answers(self, metric, target, tracer, call, *args, **kw):
        f = fr.FrameSpec(metric=metric, target=target, tracer=tracer)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return call(f, *args, **kw)

    @pytest.mark.parametrize("case", list(CASES))
    def test_points_and_lambda_scale(self, case):
        metric, target, m, (lo, hi), _ = self.CASES[case]
        assert np.array_equal(np.ldexp(self._scaled(m, lo), [-m * lo, -lo, -lo, -lo]), self.X)
        pts0, lam0, ok0, _ = self._answers(metric, target, "auto", fr.project_batch, self.X,
                                           self.SKY.xi)
        assert ok0.all()
        rng = np.random.default_rng(21)
        for j in sorted({lo, 0, hi, *rng.integers(lo, hi + 1, 24).tolist()}):
            want, lam = np.ldexp(pts0, j), np.ldexp(lam0, m * j)
            size = np.abs(want).max()
            x = self._scaled(m, j)
            pts, lams, ok, _ = self._answers(metric, target, "auto", fr.project_batch, x,
                                             self.SKY.xi)
            assert ok.all(), j
            assert np.all(np.abs(pts - want) <= 1e-13 * size + 2.0**-1074), j
            assert np.all(np.abs(lams - lam) <= 1e-13 * lam), j
            # the numeric tracer, where it answers: every ray but where t is
            # subnormal (a'/a = p/t overflows) or at the top j (lambda
            # overflows on the way), where the rays come back NON_FINITE
            pts, lams, ok, reason = self._answers(metric, target, "numeric", fr.project_batch,
                                                  x, self.SKY.xi)
            assert ok.all() or x[0] < np.finfo(float).tiny or j == hi, j
            assert np.all(ok | (reason == mf.NON_FINITE)), j
            scale = np.maximum(1.0, np.maximum(np.abs(want).max(axis=1), lam))[ok]
            assert np.all(np.abs(pts - want)[ok].max(axis=1) <= 2 * mf.GRID_TOL * scale), j
            assert np.all(np.abs(lams - lam)[ok] <= 2 * mf.GRID_TOL * scale), j

    @pytest.mark.parametrize("tracer", ["auto", "numeric"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_rank_2_and_equal_normals_down_to_the_rank_floor(self, case, tracer, monkeypatch):
        # h, the step of the time family that orients the normals, scales
        # with t, so that x - h stays above the singularity: through |x|,
        # which is t above 1, and through EVENT_FD_STEP below it
        metric, target, m, _, floor = self.CASES[case]

        def planes(j):
            monkeypatch.setattr(fr, "EVENT_FD_STEP", np.ldexp(1e-4, min(m * j, 0)))
            return self._answers(metric, target, tracer, fr.tangent_planes,
                                 self._scaled(m, j), self.SKY.xi, normals=True)

        want = planes(0).normals
        rng = np.random.default_rng(22)
        for j in sorted({floor, 0, *rng.integers(floor, 101, 8).tolist()}):
            tp = planes(j)
            assert np.all(tp.ranks == 2), j
            assert np.abs(tp.normals - want).max() <= 1e-9, j


class TestFrameSpec:
    @pytest.mark.parametrize("step", [0.0, -0.01, np.nan, np.inf])
    def test_rejects_bad_step(self, step):
        with pytest.raises(ValueError, match="step"):
            fr.FrameSpec(
                metric=mf.MetricSpec.minkowski(),
                target=fr.CauchySurface(0.0),
                step=step,
            )

    @pytest.mark.parametrize(
        "metric, t0",
        [
            (mf.MetricSpec.minkowski(bounds=[[0, 5]] + [[-np.inf, np.inf]] * 3), 5.5),
            (mf.MetricSpec.minkowski(bounds=[[0, 5]] + [[-np.inf, np.inf]] * 3), -0.5),
            (mf.MetricSpec.flrw(p=0.5, bounds=[[0, 2]] + [[-np.inf, np.inf]] * 3), 3.0),
            (mf.metric_from_config({"kind": "custom", "coeffs": ["1", "-1", "-1", "-1"],
                                    "bounds": [[0, None]] + [[None, None]] * 3}), -5.0),
        ],
        ids=["flat-above", "flat-below", "flrw-above", "custom-below"],
    )
    def test_target_outside_the_time_range_is_refused(self, metric, t0):
        # the custom and flat charts traced to the slice outside the chart
        with pytest.raises(ValueError, match="outside the chart"):
            fr.FrameSpec(metric=metric, target=fr.CauchySurface(t0))

    def test_target_on_the_ends_of_the_time_range(self):
        metric = mf.MetricSpec.minkowski(bounds=[[0, 5]] + [[-np.inf, np.inf]] * 3)
        for t0 in (0.0, 5.0):
            fr.FrameSpec(metric=metric, target=fr.CauchySurface(t0))
        with pytest.raises(ValueError, match="t0 > 0"):
            fr.FrameSpec(metric=mf.MetricSpec.flrw(p=0.5), target=fr.CauchySurface(0.0))

    @pytest.mark.parametrize("metric", [mf.MetricSpec.minkowski(), mf.MetricSpec.flrw(p=0.5)])
    def test_closed_form_is_not_a_tracer_value(self, metric):
        # "closed_form" was an alias of "auto" on flat and FLRW charts
        with pytest.raises(ValueError, match="unknown tracer 'closed_form'"):
            fr.FrameSpec(metric=metric, target=fr.CauchySurface(1.0), tracer="closed_form")

    def test_the_contact_check_and_project_batch_share_one_trace(self, monkeypatch):
        # both asked manifold for their start directions and their stop
        # level on their own; now each makes one _trace call
        f = fr.FrameSpec(
            metric=mf.MetricSpec.flrw(p=0.5), target=fr.Singularity(), tracer="numeric"
        )
        calls, trace = [], fr._trace
        monkeypatch.setattr(fr, "_trace", lambda *a: calls.append(len(a[1])) or trace(*a))
        events = np.array([[1.0, 0, 0, 0], [1.5, 0.2, -0.1, 0.3]])
        xis = sky.sample_sky(4, scheme="random", seed=2).xi[:2]
        fr.project_batch(f, events, xis)
        vf.check_contact_annihilation(f, events, xis)
        assert calls == [2, 2]


class TestSkyImage:
    def test_flat_image_is_unit_sphere(self, mink_frame, sample100):
        img = fr.sky_image(mink_frame, [1.0, 0, 0, 0], sample100)
        r = np.linalg.norm(img.m_points, axis=1)
        assert np.allclose(r, 1.0, atol=1e-12)
        assert np.all(img.ranks == 2)

    def test_cosmology_image_closed_form(self, flrw_frame):
        sample = sky.sample_sky(500)
        center = np.array([0.3, -0.2, 0.5])
        img = fr.sky_image(flrw_frame, [1.0, *center], sample)
        r = np.linalg.norm(img.m_points - center, axis=1)
        assert np.abs(r - 3.0).max() <= 1e-6
        assert np.all(img.ranks == 2)

    def test_cosmology_image_numeric(self):
        spec = fr.FrameSpec(
            metric=mf.MetricSpec.flrw(p=2 / 3),
            target=fr.Singularity(),
            tracer="numeric",
        )
        sample = sky.sample_sky(120)
        img = fr.sky_image(spec, [1.0, 0, 0, 0], sample, with_rank=False)
        r = np.linalg.norm(img.m_points, axis=1)
        assert np.abs(r - 3.0).max() <= 1e-4

    def test_image_shrinks_toward_the_surface(self, mink_frame, sample100):
        for t in (0.1, 0.01, 0.001):
            img = fr.sky_image(mink_frame, [t, 0.5, 0, 0], sample100, with_rank=False)
            r = np.linalg.norm(img.m_points - [0.5, 0, 0], axis=1)
            assert r.max() == pytest.approx(t, abs=1e-12)

    def test_partial_failures_are_flagged(self, sample100):
        spec = fr.FrameSpec(
            metric=mf.MetricSpec.minkowski(
                bounds=[[-np.inf, np.inf], [-0.6, 0.6], [-10, 10], [-10, 10]]
            ),
            target=fr.CauchySurface(0.0),
            tracer="numeric",
        )
        img = fr.sky_image(spec, [1.0, 0, 0, 0], sample100, with_rank=False)
        status = np.array(img.status)
        assert np.any(status == "no_intersection")
        assert np.any(status == "ok")
        ok_pts = img.m_points[img.ok_mask]
        assert np.abs(ok_pts[:, 0]).max() <= 0.6 + 1e-9

    def test_closed_form_rays_that_end_outside_the_bounds_fail(self):
        # the closed form ignored the chart's spatial bounds: all 50 samples
        # came back ok, 23 of them with x >= 2.1
        inf = np.inf
        metric = mf.MetricSpec.minkowski(bounds=[[-inf, inf], [-2.1, 2.1], [-inf, inf], [-inf, inf]])
        sample = sky.sample_sky(50)
        closed, numeric = (
            fr.sky_image(
                fr.FrameSpec(metric=metric, target=fr.CauchySurface(0.0), tracer=tracer),
                [1.0, 2.0, 0, 0],
                sample,
            )
            for tracer in ("auto", "numeric")
        )
        assert closed.status == numeric.status
        assert closed.status.count("ok") == 27
        assert np.abs(closed.m_points[closed.ok_mask, 0]).max() < 2.1

    def test_all_failures_raise(self):
        spec = fr.FrameSpec(
            metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0)
        )
        with pytest.raises(NoIntersectionError):
            fr.sky_image(spec, [-2.0, 0, 0, 0], sky.sample_sky(8))

    def test_json_and_csv_serialisation(self, mink_frame, tmp_path):
        # the CLI writes an image from its arrays
        img = fr.sky_image(mink_frame, [1.0, 0, 0, 0], sky.sample_sky(16))
        d = cli._image_json(img)
        assert set(d) == {"event", "target", "samples"}
        assert d["target"] == {"kind": "cauchy", "t0": 0.0}
        assert set(d["samples"][0]) == {"xi", "m_point", "rank", "lambda", "status"}
        json.dumps(d)
        path = tmp_path / "img.csv"
        cli._write_csv(path, img)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 17

    def test_rays_build_no_pauli_matrix(self, flrw_frame, sample100, monkeypatch):
        # each ray's direction comes straight from its covector
        def refuse(*args, **kwargs):
            raise AssertionError("a ray went through the Pauli matrix")

        for name in ("inverse_pauli", "outer_square", "check_hermitian"):
            monkeypatch.setattr(spinor, name, refuse)
        image = fr.sky_image(flrw_frame, np.array([1.0, 0, 0, 0]), sample100)
        assert np.all(image.ranks == 2)
        pv = flrw_frame.probe_values([1.0, 0, 0, 0], sample100.xi[:3], np.eye(4))
        assert np.all(np.isfinite(pv.rates))


class TestNonPositiveScaleFactor:
    """An FLRW scale factor is positive (`MetricSpec.scale_factor`): both
    tracers refuse a(t) <= 0 where they first read it, with one error."""

    RNG = np.random.default_rng(11)
    EVENTS = np.column_stack([RNG.uniform(0.8, 2.0, 6), RNG.uniform(-2.0, 2.0, (6, 3))])
    XIS = sky.sample_sky(6, scheme="random", seed=6).xi

    def _frame(self, a_expr, tracer):
        metric = mf.metric_from_config({"kind": "flrw", "a_expr": a_expr})
        return fr.FrameSpec(metric=metric, target=fr.CauchySurface(0.5), tracer=tracer)

    @pytest.mark.parametrize("a_expr", ["-1", "t-2", "0"])
    def test_both_tracers_refuse(self, a_expr):
        # "-1" is flat space (g11 = -a^2), yet the numeric tracer gave the
        # point-mirrored image, and traced "t-2" too; "0" divided by zero
        raised = []
        for tracer in ("numeric", "auto"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SkyframesError) as info:
                    fr.project_batch(self._frame(a_expr, tracer), self.EVENTS, self.XIS)
            raised.append(type(info.value))
        assert raised == [DivergentIntegralError, DivergentIntegralError]

    def test_a_falling_positive_scale_factor_agrees(self):
        numeric, closed = (
            fr.project_batch(self._frame("2-t", tracer), self.EVENTS, self.XIS)
            for tracer in ("numeric", "auto")
        )
        assert np.all(numeric[2]) and np.all(closed[2])
        assert np.abs(numeric[0] - closed[0]).max() <= mf.GRID_TOL


#: ds^2 = N(t)^2 dt^2 - A(t)^2 dx.dx, the README chart (N = 1, A = 1 + 0.1 t,
#: the FLRW chart a = 1 + 0.1 t) and a lapse N = A, each with its conformal
#: interval and affine length from s up to t, written out here.
_T_ALONE = {
    "readme": (
        ["1"] + ["-(1 + 0.1*t)**2"] * 3,
        lambda t, s: 10.0 * np.log((1 + 0.1 * t) / (1 + 0.1 * s)),
        lambda t, s: (t + 0.05 * t**2 - s - 0.05 * s**2) / (1 + 0.1 * t),
    ),
    "lapse": (
        ["(1 + 0.1*t)**2"] + ["-(1 + 0.1*t)**2"] * 3,
        lambda t, s: t - s,
        lambda t, s: ((1 + 0.1 * t) ** 3 - (1 + 0.1 * s) ** 3) / (0.3 * (1 + 0.1 * t) ** 2),
    ),
}


class TestChartsOfTAlone:
    """An isotropic custom chart of t alone is conformal to flat space, so
    under tracer "auto" it takes the closed form, as the FLRW chart it may
    equal does, and its past regions are balls; the numeric tracer stays
    reachable, and checked against the closed form."""

    T_T = 0.3

    def _rays(self, chart, tracer):
        """40 seeded events, the end points and affine lengths of one ray
        each on the tracer, and their exact radii and lengths."""
        coeffs, eta, lam = _T_ALONE[chart]
        metric = mf.metric_from_config(dict(_README_CHART, coeffs=coeffs))
        f = fr.FrameSpec(metric=metric, target=fr.CauchySurface(self.T_T), tracer=tracer)
        rng = np.random.default_rng(11)
        events = np.column_stack([rng.uniform(0.4, 2.5, 40), rng.uniform(-1.0, 1.0, (40, 3))])
        xis = sky.sample_sky(40, scheme="random", seed=12).xi
        pts, lams, ok, _ = fr.project_batch(f, events, xis)
        assert np.all(ok)
        t = events[:, 0]
        return events, pts, lams, eta(t, self.T_T), lam(t, self.T_T)

    @pytest.mark.parametrize("chart", sorted(_T_ALONE))
    def test_closed_form_is_the_exact_sphere(self, monkeypatch, chart):
        def refuse(*args):
            raise AssertionError("the numeric tracer ran")

        monkeypatch.setattr(mf, "trace_past_to_time", refuse)
        events, pts, lams, radius, lam = self._rays(chart, "auto")
        assert np.abs(np.linalg.norm(pts - events[:, 1:], axis=1) - radius).max() <= 1e-12
        assert np.abs(lams - lam).max() <= 1e-12

    @pytest.mark.parametrize("chart", sorted(_T_ALONE))
    def test_numeric_tracer_agrees_with_the_closed_form(self, monkeypatch, chart):
        levels, level = [], mf._t_level
        monkeypatch.setattr(mf, "_t_level", lambda *a: levels.append(a[-1]) or level(*a))
        _, pts, lams, _, _ = self._rays(chart, "numeric")
        assert levels
        _, closed_pts, closed_lams, _, _ = self._rays(chart, "auto")
        # within the tracer's tolerance GRID_TOL * max(1, |end|) of each ray
        ends, closed = np.column_stack([pts, lams]), np.column_stack([closed_pts, closed_lams])
        scale = np.maximum(np.abs(closed).max(axis=1), 1.0)
        assert np.all(np.abs(ends - closed).max(axis=1) <= mf.GRID_TOL * scale)

    def test_the_readme_chart_is_its_flrw_chart(self):
        event, sample = np.array([1.4, 0.2, -0.1, 0.3]), sky.sample_sky(50)
        images = [
            fr.sky_image(fr.FrameSpec(metric=m, target=fr.CauchySurface(self.T_T)), event, sample)
            for m in (
                mf.metric_from_config(_README_CHART),
                mf.MetricSpec.flrw(a_expr="1 + 0.1*t"),
            )
        ]
        assert np.allclose(images[0].m_points, images[1].m_points, rtol=0.0, atol=1e-14)
        assert np.allclose(images[0].lams, images[1].lams, rtol=1e-14, atol=0.0)
        assert images[0].ranks.tolist() == images[1].ranks.tolist() == [2] * 50

    def test_past_regions_are_balls(self, monkeypatch):
        monkeypatch.setattr(ca, "mesh_regions", None)  # never called
        f = fr.FrameSpec(metric=mf.metric_from_config(_README_CHART), target=fr.CauchySurface(0.3))
        rx, ry = ca.past_regions(f, [0.6, 0, 0, 0], [0.45, 0.05, 0, 0])
        assert isinstance(rx, ca.Ball) and isinstance(ry, ca.Ball)
        assert rx.radius == pytest.approx(10.0 * np.log(1.06 / 1.03), rel=1e-15)

    def test_a_lost_signature_between_target_and_event_raises(self):
        # the spatial coefficients turn positive for 0.4 < t < 0.6; the
        # closed form integrates across that band, and names a point of it
        band = ["1"] + ["0.01 - (t-0.5)**2"] * 3
        f = fr.FrameSpec(
            metric=mf.metric_from_config(dict(_README_CHART, coeffs=band)),
            target=fr.CauchySurface(0.0),
        )
        message = re.escape("coefficients do not have signature (+,-,-,-) at [0.5, 0.0, 0.0, 0.0]")
        with np.errstate(over="raise", invalid="raise"):  # as the CLI runs
            with pytest.raises(ValueError, match=message):
                fr.sky_image(f, [1.0, 0, 0, 0], sky.sample_sky(16))
            with pytest.raises(ValueError, match=message):
                ca.in_causal_past(f, [0.8, 0.1, 0, 0], [1.0, 0, 0, 0])
        # above the band the chart is Lorentzian, and its images are spheres
        f = dataclasses.replace(f, target=fr.CauchySurface(0.7))
        image = fr.sky_image(f, [1.0, 0, 0, 0], sky.sample_sky(16))
        assert np.all(image.ok_mask)


class TestQuadrature:
    def test_one_quadrature_per_distinct_time(self, monkeypatch):
        # one quad per ray once (81 for these 8 samples and their 32 stencil
        # rays); now one array quadrature per integrand and ray batch
        calls, batches = [], []
        integral, project = mf._integral, fr.project_batch

        def counting_integral(fn, lo, hi):
            calls.append(len(hi))
            return integral(fn, lo, hi)

        def counting_project(f, events, xis):
            batches.append(len(xis))  # rays: a sky image shares its one event
            return project(f, events, xis)

        metric = mf.metric_from_config({"kind": "flrw", "a_expr": "t**0.6666666666666666"})
        spec = fr.FrameSpec(metric=metric, target=fr.Singularity())
        monkeypatch.setattr(mf, "_integral", counting_integral)
        monkeypatch.setattr(fr, "project_batch", counting_project)
        img = fr.sky_image(spec, [1.0, 0, 0, 0], sky.sample_sky(8))
        assert batches == [40] and calls == [1, 1]  # 1/a and a, over the one time
        assert np.all(img.ok_mask) and np.all(img.ranks == 2)
        assert np.abs(np.linalg.norm(img.m_points, axis=1) - 3.0).max() <= 1e-6

    def test_expression_affine_length_against_its_antiderivative(self):
        # the integral of a = 1 + 0.1 t from t0 is t + 0.05 t^2 - t0 - 0.05 t0^2
        metric = mf.metric_from_config({"kind": "flrw", "a_expr": "1 + 0.1*t"})
        rng = np.random.default_rng(5)
        events = np.column_stack([rng.uniform(0.4, 2.0, 6), rng.normal(size=(6, 3))])
        xis = sky.sample_sky(6, scheme="random", seed=6).xi
        t, t0 = events[:, 0], 0.3
        expected = (t + 0.05 * t**2 - t0 - 0.05 * t0**2) / (1 + 0.1 * t)
        for tracer, rtol in (("auto", 1e-12), ("numeric", 1e-5)):
            f = fr.FrameSpec(metric=metric, target=fr.CauchySurface(t0), tracer=tracer)
            _, lams, ok, _ = fr.project_batch(f, events, xis)
            assert np.all(ok)
            np.testing.assert_allclose(lams, expected, rtol=rtol, atol=0)


class TestSingularityGap:
    def test_expression_and_power_law_tails_agree(self):
        # the affine-length tail was closed for power laws only, so the
        # expression's lambda fell short by t_cut / (1.5 E) here
        res = mf.TraceResult(
            x=np.array([[0.01, 0.1, -0.2, 0.3], [0.01, 0.0, 0.5, 0.0]]),
            n=np.array([[0.0, 0.0, 1.0], [0.6, 0.8, 0.0]]),
            log_e=np.array([0.3, -0.2]),
            lam=np.array([1.0, 2.0]),
            reason=np.zeros(2, dtype=np.int8),
        )
        ends = [
            fr._close_singularity_gap(fr.FrameSpec(metric=metric, target=fr.Singularity()), res)
            for metric in (
                mf.MetricSpec.flrw(p=0.5),
                mf.metric_from_config({"kind": "flrw", "a_expr": "t**0.5"}),
            )
        ]
        (pts_p, lam_p), (pts_a, lam_a) = ends
        assert np.abs(pts_a - pts_p).max() <= 1e-9
        assert np.abs(lam_a - lam_p).max() <= 1e-9
        assert lam_p[0] - 1.0 == pytest.approx(0.01 / (1.5 * np.exp(0.3)), rel=1e-12)


def _stereographic(p):
    """The point of the unit 3-sphere in R^4 whose stereographic image is p (k, 3)."""
    r2 = np.einsum("ki,ki->k", p, p)
    return np.column_stack([(1.0 - r2) / (1.0 + r2), 2.0 * p / (1.0 + r2)[:, None]])


class TestCompactifiedMinkowskiOracle:
    """ds^2 = dT^2 - 4 |dx|^2 / (1 + |x|^2)^2 is the Einstein static universe
    R x S^3 in stereographic coordinates: a past null ray from (T, p) runs
    along a great circle at unit angular speed, so each image point m on
    T = T_T lies at the angle T - T_T from p on the sphere, and the affine
    length with dT/dlambda = 1 is T - T_T.  The chart depends on x, y and
    z, so every ray takes the per-node loop."""

    COEFFS = ["1"] + ["-4/(1+x*x+y*y+z*z)**2"] * 3

    @pytest.mark.parametrize(
        "event, t0, bounds, arrived",
        [
            ([1.0, 0.0, 0.0, 0.0], 0.0, None, 400),
            ([1.2, 0.3, -0.2, 0.1], 0.0, None, 400),
            ([2.0, 0.5, 0.4, -0.3], 0.5, None, 400),
            ([0.8, -0.6, 0.2, 0.4], -0.4, None, 400),
            # rays that pass near the pole run out of the box and leave
            ([2.5, 0.6, 0.4, -0.3], 0.0, [[None, None]] + [[-50, 50]] * 3, 395),
        ],
    )
    def test_image_points_lie_at_the_elapsed_angle(self, event, t0, bounds, arrived):
        config = {"kind": "custom", "coeffs": self.COEFFS}
        if bounds is not None:
            config["bounds"] = bounds
        f = fr.FrameSpec(metric=mf.metric_from_config(config), target=fr.CauchySurface(t0))
        event = np.array(event)
        xis = sky.sample_sky(400).xi
        pts, lams, ok, reason = fr.project_batch(f, np.tile(event, (len(xis), 1)), xis)
        assert ok.sum() == arrived and np.all(reason[~ok] == mf.LEFT_BOUNDS)
        cosine = _stereographic(pts[ok]) @ _stereographic(event[None, 1:])[0]
        elapsed = event[0] - t0
        assert np.abs(np.arccos(np.clip(cosine, -1.0, 1.0)) - elapsed).max() <= 1e-5
        assert np.abs(lams[ok] - elapsed).max() <= 1e-7


#: A chart conformal to flat space in its own coordinates, W diag(1, -1, -1,
#: -1) with W > 0 of t, x, y and z (the W chart of `tools/digests.py`).
W = "1+0.3*x*x+0.1*y*y+0.2*t+0.1*x*z"
W_CHART = {
    "kind": "custom",
    "coeffs": [W, f"-({W})", f"-({W})", f"-({W})"],
    "bounds": [[0, None], [-3, 3], [-3, 3], [-3, 3]],
}


def _scale_n_w0(slope, factor):
    """`_bundle_slope` with the n w0 term of its n slope scaled by factor."""

    def mutant(m, s, y, log):
        out = slope(m, s, y, log)
        out[3:6] += (1.0 - factor) * y[3:6] * out[6]  # out[6] is e0 w0, times dt/ds as out[3:6] is
        return out

    return mutant


def _flip_ln_e(slope):
    """`_bundle_slope` with the sign of the ln E slope flipped."""

    def mutant(m, s, y, log):
        out = slope(m, s, y, log)
        out[6] *= -1.0
        return out

    return mutant


class TestConformallyFlatChartOracle:
    """Null geodesics are conformally invariant up to their parametrisation,
    so on W diag(1, -1, -1, -1) a past null ray from (t, p) is flat space's:
    its image point on t = 0.2 lies at the distance t - 0.2 from p, along
    the ray's own sky direction, and with dt/dlambda = 1 at the event its
    affine length is the line integral of W along that segment over W at
    the event.  W depends on x, y and z, so every ray takes the per-node
    loop (`_march`), and two mutations of its slope, run as negative
    controls, fail the bounds: the points move without the n w0 term, and
    lambda alone moves with the ln E slope's sign flipped."""

    EVENTS = ([1.0, 0.0, 0.0, 0.0], [1.5, 0.3, -0.4, 0.2], [2.2, -0.5, 0.6, 0.1])
    #: Bounds on the radius, direction and lambda errors; the largest errors
    #: of the three events are 1.5e-6, 4.4e-16 and 3.7e-6.
    BOUNDS = (1e-5, 1e-12, 2e-5)

    @staticmethod
    def _errors(event):
        """The largest radius, direction and lambda errors of the 400-sample
        numeric sky image of the event, and its image points."""
        m = mf.metric_from_config(W_CHART)
        f = fr.FrameSpec(metric=m, target=fr.CauchySurface(0.2), tracer="numeric")
        event, sample = np.array(event), sky.sample_sky(400)
        pts, lams, ok, _ = fr.project_batch(f, event, sample.xi)
        assert ok.all()
        off = event[1:] - pts
        radius = np.linalg.norm(off, axis=1)
        # W is quadratic along the straight segment, where Simpson's rule is exact
        ends = np.column_stack([np.full(len(pts), 0.2), pts])
        w = lambda rows: m.metric_diag(rows)[:, 0]  # noqa: E731
        integral = (event[0] - 0.2) * (w(event[None]) + 4 * w((ends + event) / 2) + w(ends)) / 6
        errors = (
            np.abs(radius - (event[0] - 0.2)).max(),
            np.abs(off / radius[:, None] - sample.directions()).max(),
            np.abs(lams - integral / w(event[None])).max(),
        )
        return errors, pts

    @pytest.mark.parametrize("event", EVENTS)
    def test_image_points_directions_and_affine_lengths(self, event):
        errors, _ = self._errors(event)
        assert all(err <= bound for err, bound in zip(errors, self.BOUNDS)), errors

    def test_a_slope_without_its_n_w0_term_moves_the_points(self, monkeypatch):
        # one event: the mutated rays settle late (0.26 s here, 1 s from the others)
        monkeypatch.setattr(mf, "_bundle_slope", _scale_n_w0(mf._bundle_slope, 0.0))
        radius, direction, _ = self._errors(self.EVENTS[0])[0]  # 1.3e-4 and 3e-6
        assert radius > self.BOUNDS[0] and direction > self.BOUNDS[1]

    def test_a_flipped_ln_e_slope_moves_lambda_alone(self, monkeypatch):
        want = [self._errors(event)[1] for event in self.EVENTS]
        monkeypatch.setattr(mf, "_bundle_slope", _flip_ln_e(mf._bundle_slope))
        for event, pts in zip(self.EVENTS, want):
            errors, got = self._errors(event)
            assert np.array_equal(got, pts) and errors[2] > self.BOUNDS[2]


def _scale_n_slope(slope, factor):
    """`_bundle_slope` with its n slope scaled by factor."""

    def mutant(m, s, y, log):
        out = slope(m, s, y, log)
        out[3:6] *= factor
        return out

    return mutant


class TestAnisotropicChartOracle:
    """On a diagonal chart of t alone the covariant momenta g_ii v^i are
    conserved, so with legs e_a = sqrt|g_aa| and the event's unit tetrad
    direction d, q_i = e_i(t_x) d_i fixes each ray: dx^i/dt = (q_i / e_i^2)
    e0 / sqrt(sum_j q_j^2 / e_j^2) and, with dt/dlambda = 1 at the event,
    dlambda/dt = e0 / (e0(t_x) sqrt(sum_j q_j^2 / e_j^2)).  Each end point
    coordinate and each affine length is then one `scipy.integrate.quad`
    from the target to t_x, with the legs written out here, apart from the
    expression compiler.  The charts are anisotropic, so every ray takes
    the per-node loop (`_march`); its rows must match to the ladder's own
    tolerance, GRID_TOL max(1, |end|) (the largest errors, over 200 random
    sky points, are 0.008, 0.14 and 0.69 of it on the three charts), and a
    slope whose n rate is scaled by 0.98 fails by a factor of 100 or more."""

    BOUNDS = [[0, None], [None, None], [None, None], [None, None]]
    #: name: (coefficients, their legs e0..e3 at t, event time, Cauchy target)
    CHARTS = {
        "g22": (["1", "-1", "-(1 + 0.5*t)**2", "-1"],
                lambda t: (1.0, 1.0, 1.0 + 0.5 * t, 1.0), 1.0, 0.0),
        "band": (["1", "-(t-0.5)**2", "-1", "-1"],
                 lambda t: (1.0, abs(t - 0.5), 1.0, 1.0), 1.4, 0.6),
        "three-exponents": (["1", "-(1+t)**2", "-(1+t)**1.2", "-(1+t)**0.5"],
                            lambda t: (1.0, 1.0 + t, (1.0 + t) ** 0.6, (1.0 + t) ** 0.25),
                            2.0, 0.0),
    }

    @staticmethod
    def _quadrature(legs, x, d, t_target):
        """The end point and affine length (4,) of the ray from the event x
        along the unit tetrad direction d, by conserved momenta."""
        e0x, *ex = legs(x[0])
        q = [e * di for e, di in zip(ex, d)]

        def rate(t, i):  # dx^i/dt for i < 3, dlambda/dt for i = 3
            e0, e1, e2, e3 = legs(t)
            u = (q[0] / (e1 * e1), q[1] / (e2 * e2), q[2] / (e3 * e3))
            r = e0 / math.sqrt(q[0] * u[0] + q[1] * u[1] + q[2] * u[2])
            return u[i] * r if i < 3 else r / e0x

        out = [quad(rate, t_target, x[0], args=(i,), epsabs=1e-13, epsrel=1e-13) for i in range(4)]
        assert max(err for _, err in out) < 1e-10
        (dx, _), (dy, _), (dz, _), (lam, _) = out
        return np.array([x[1] - dx, x[2] - dy, x[3] - dz, lam])

    def _errors(self, chart):
        """The errors of the numeric tracer's 200 rows (end point, lambda)
        in units of GRID_TOL max(1, |end|)."""
        coeffs, legs, t_x, t_target = self.CHARTS[chart]
        m = mf.metric_from_config({"kind": "custom", "coeffs": coeffs, "bounds": self.BOUNDS})
        f = fr.FrameSpec(metric=m, target=fr.CauchySurface(t_target), tracer="numeric")
        x, sample = np.array([t_x, 0.1, -0.2, 0.3]), sky.sample_sky(200, "random", seed=5)
        pts, lams, ok, _ = fr.project_batch(f, x, sample.xi)
        assert ok.all()
        want = np.array([self._quadrature(legs, x.tolist(), d, t_target)
                         for d in sample.directions().tolist()])
        scale = mf.GRID_TOL * np.maximum(1.0, np.abs(want).max(axis=1))
        return np.abs(np.column_stack([pts, lams]) - want).max(axis=1) / scale

    @pytest.mark.parametrize("chart", list(CHARTS))
    def test_end_points_and_affine_lengths(self, chart):
        assert self._errors(chart).max() <= 1.0

    @pytest.mark.parametrize("chart", list(CHARTS))
    def test_a_scaled_n_slope_fails(self, monkeypatch, chart):
        monkeypatch.setattr(mf, "_bundle_slope", _scale_n_slope(mf._bundle_slope, 0.98))
        assert self._errors(chart).max() > 100.0


class TestConformalInvariance:
    """Null rays depend only on the conformal class: multiplying every
    coefficient of a chart by a positive W of t, x, y and z keeps each ray
    as a point set, so the numeric tracer gives the scaled chart the image
    points and arrival codes of the unscaled one, to twice the ladder's
    tolerance, GRID_TOL max(1, |end|).  Only lambda moves, dlambda_W = (W /
    W(event)) dlambda with dt/dlambda = 1 at the event; on a flat chart the
    ray is straight and lambda is the integral of W along it over W at the
    event.  The charts are the CI anisotropic chart, the S^3 chart and flat
    space cut in x, so that some rays leave it; W varies along each ray, so
    every scaled ray takes the per-node loop (`_march`), and a slope whose
    n w0 term is scaled by 0.98 fails (the unscaled charts have w0 = 0 and
    do not see it).  The largest errors of the three, in units of the
    bound, are 0.013, 0.014 and 0.25 for the points and 0.095 for lambda;
    the mutant's are 2.2, 9.3 and 5.9."""

    FREE = [[0, None], [None, None], [None, None], [None, None]]
    #: name: (coefficients, bounds, event, Cauchy target)
    CHARTS = {
        "anisotropic": (["1", "-1", "-(1 + 0.5*t)**2", "-1"], FREE, [1.5, 0.3, -0.4, 0.2], 0.0),
        "S3": (["1"] + ["-4/(1+x*x+y*y+z*z)**2"] * 3, FREE, [1.2, 0.3, -0.2, 0.1], 0.0),
        "flat-cut-in-x": (["1", "-1", "-1", "-1"], [[0, None], [-1.6, 1.6]] + FREE[2:],
                          [1.5, 0.9, -0.4, 0.2], 0.2),
    }

    @staticmethod
    def _w(seed):
        """A positive W of t >= 0, x, y and z, at most cubic along a straight ray."""
        a, b, c, d, e, g = np.random.default_rng(seed).uniform(0.1, 0.5, 6).tolist()
        return f"1 + {a!r}*t + ({b!r}*x + {g!r}*z)**2 + {c!r}*y*y + {d!r}*z*z + {e!r}*t*x*x"

    def _errors(self, chart):
        """The largest point and lambda errors of the scaled chart's 100
        numeric rows in units of 2 GRID_TOL max(1, |end|), lambda's where
        the ray is straight (else NaN)."""
        coeffs, bounds, x, t0 = self.CHARTS[chart]
        w = self._w(list(self.CHARTS).index(chart))
        sample, x = sky.sample_sky(100, "random", seed=9), np.array(x)
        answers = []
        for cs in (coeffs, [f"({w})*({c})" for c in coeffs]):
            m = mf.metric_from_config({"kind": "custom", "coeffs": cs, "bounds": bounds})
            f = fr.FrameSpec(metric=m, target=fr.CauchySurface(t0), tracer="numeric")
            answers.append(fr.project_batch(f, x, sample.xi))
        (pts, _, ok, reason), (pts_w, lams_w, _, reason_w) = answers
        assert np.array_equal(reason_w, reason) and ok.sum() > 50 and np.all(lams_w[ok] > 0.0)
        scale = 2.0 * mf.GRID_TOL * np.maximum(1.0, np.abs(pts[ok]).max(axis=1))
        points = (np.abs(pts_w - pts)[ok].max(axis=1) / scale).max()
        lam = np.nan
        if chart.startswith("flat"):  # Simpson's rule is exact for a cubic
            ends = np.column_stack([np.full(ok.sum(), t0), pts[ok]])
            w_at = lambda rows: m.metric_diag(rows)[:, 0]  # noqa: E731
            integral = (x[0] - t0) * (w_at(x[None]) + 4 * w_at((ends + x) / 2) + w_at(ends)) / 6
            want = integral / w_at(x[None])
            lam = (np.abs(lams_w[ok] - want) / (2.0 * mf.GRID_TOL * np.maximum(1.0, want))).max()
        return points, lam

    @pytest.mark.parametrize("chart", list(CHARTS))
    def test_a_conformal_factor_keeps_points_and_arrival(self, chart):
        points, lam = self._errors(chart)
        assert points <= 1.0 and (np.isnan(lam) or lam <= 1.0), (points, lam)

    @pytest.mark.parametrize("chart", list(CHARTS))
    def test_a_scaled_n_w0_term_fails(self, monkeypatch, chart):
        monkeypatch.setattr(mf, "_bundle_slope", _scale_n_w0(mf._bundle_slope, 0.98))
        assert self._errors(chart)[0] > 1.0


class TestUnsettledNumericImage:
    def test_grid_cap_image_stays_small(self, monkeypatch):
        # a = 1/t to the singularity: the central-difference a'(t) reaches
        # t < 0 near the cutoff, so no level settles and all 320 rays march
        # up to GRID_CAP; the affine tail from the cutoff to t = 0 diverges
        m = mf.metric_from_config({"kind": "flrw", "a_expr": "1/t"})
        spec = fr.FrameSpec(metric=m, target=fr.Singularity(), tracer="numeric")
        sample = sky.sample_sky(64, scheme="random", seed=0)
        levels, level = [], mf._t_level  # the levels of a chart of t alone
        monkeypatch.setattr(mf, "_t_level", lambda *a: levels.append(a[-1]) or level(*a))
        tracemalloc.start()
        try:
            with pytest.raises(DivergentIntegralError):
                fr.sky_image(spec, np.array([1.0, 0.1, -0.2, 0.3]), sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert levels[-1] == mf.GRID_CAP
        assert peak < 64 * 2**20


class TestGeodesicFlowInvariance:
    def test_projection_constant_along_the_flow(self, flrw_frame):
        # moving the event along the null geodesic of a sky point leaves
        # the image point of that sky point unchanged
        x = np.array([1.0, 0.1, -0.3, 0.2])
        for k in (3, 11, 29):
            xi = sky.sample_sky(64).xi[k]
            d = spinor.direction_for_cospinor(xi[None, :])
            v = mf.future_null_directions(flrw_frame.metric, x[None, :], d)
            # the event moves back along the traced past ray
            moved = mf.trace_past_to_time(flrw_frame.metric, x[None, :], v, 0.95).x[0]
            tp = fr.tangent_planes(flrw_frame, np.stack([x, moved]), np.stack([xi, xi]))
            assert np.all(tp.reason == mf.ARRIVED) and np.all(tp.stencil_ok)
            assert np.linalg.norm(tp.m_points[1] - tp.m_points[0]) <= 1e-6


class TestNormalProjection:
    def test_tangent_vectors_project_to_zero(self, mink_frame):
        x = np.array([1.0, 0, 0, 0])
        tp = fr.tangent_planes(mink_frame, x[None], XI_TO_ZHAT[None], normals=True)
        for col in tp.jacobians[0].T:
            assert abs(tp.normals[0] @ col) <= 1e-10

    def test_outward_normal_is_positive_unit(self, mink_frame):
        tp = fr.tangent_planes(
            mink_frame, np.array([[1.0, 0, 0, 0]]), XI_TO_ZHAT[None], normals=True
        )
        assert tp.normals[0] @ [0, 0, 1.0] == pytest.approx(1.0, abs=1e-9)

    def test_linearity(self, mink_frame):
        rng = np.random.default_rng(1)
        x = np.array([1.0, 0.2, 0.1, -0.4])
        xi = sky.unit_cospinor(rng.normal(size=2) + 1j * rng.normal(size=2))
        w1, w2 = rng.normal(size=(2, 3))
        tp = fr.tangent_planes(mink_frame, x[None], xi[None], normals=True)
        n_hat = tp.normals[0]
        assert n_hat @ (w1 + w2) == pytest.approx(n_hat @ w1 + n_hat @ w2, abs=1e-10)

    def test_degenerate_plane_raises(self, mink_frame):
        tp = fr.tangent_planes(
            mink_frame, np.array([[0.0, 0.3, 0, 0]]), XI_TO_ZHAT[None], normals=True
        )
        assert tp.ranks[0] < 2 and np.all(np.isnan(tp.normals[0]))


class TestSkyImageDerivative:
    def test_flat_cauchy_frame_factor_two(self, mink_frame):
        # d(image)/dx against the transform of the direction: constant 2
        rng = np.random.default_rng(2)
        x = np.array([1.0, 0.3, -0.1, 0.2])
        for _ in range(5):
            xi = sky.unit_cospinor(rng.normal(size=2) + 1j * rng.normal(size=2))
            d = rng.normal(size=4)
            theta = fr.theta_value(mink_frame, x, xi, d)
            if abs(theta) < 1e-3:
                continue
            deriv = mink_frame.probe_values(x, xi[None], d).rates[0, 0]
            assert deriv / theta == pytest.approx(2.0, abs=1e-7)

    def test_flow_direction_gives_zero(self, flrw_frame):
        x = np.array([1.0, 0, 0, 0])
        xi = sky.unit_cospinor(np.array([0.6, 0.8j]))
        v = mf.future_null_directions(
            flrw_frame.metric, x[None, :], spinor.direction_for_cospinor(xi[None, :])
        )[0]
        deriv = flrw_frame.probe_values(x, xi[None], v).rates[0, 0]
        assert abs(deriv) <= 1e-7

    def test_richardson_second_order(self, flrw_frame, monkeypatch):
        x = np.array([0.9, 0.1, 0.2, -0.1])  # |x| < 1, so the event step is EVENT_FD_STEP
        xi = sky.unit_cospinor(np.array([0.5 - 0.3j, 0.7]))
        d = np.array([1.0, 0.4, -0.2, 0.1])
        exact_ratio = 2.0 / float(flrw_frame.metric.scale_factor(x[0]))
        theta = fr.theta_value(flrw_frame, x, xi, d)
        res = []
        for step in (4e-3, 2e-3):
            monkeypatch.setattr(fr, "EVENT_FD_STEP", step)
            deriv = flrw_frame.probe_values(x, xi[None], d).rates[0, 0]
            res.append(abs(deriv / theta - exact_ratio))
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.35)


class TestThetaBroadcast:
    @pytest.mark.parametrize("frame", ["mink_frame", "flrw_frame"])
    def test_matches_scalar_rows_bit_for_bit(self, frame, request):
        f = request.getfixturevalue(frame)
        rng = np.random.default_rng(9)
        x = np.array([1.1, 0.3, -0.2, 0.5])
        xis = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
        dirs = rng.normal(size=(5, 4))
        batch = fr.theta_value(f, x, xis[:, None, :], dirs)
        rows = [[fr.theta_value(f, x, xi, d) for d in dirs] for xi in xis]
        assert batch.shape == (12, 5)
        assert np.array_equal(batch, np.array(rows))

    def test_scalar_row_is_a_float(self, flrw_frame):
        out = fr.theta_value(flrw_frame, [1.0, 0, 0, 0], XI_TO_ZHAT, [1.0, 0, 0, 0])
        assert isinstance(out, float)


# ---------------------------------------------------------------------------
# The batched tangent-plane kernel against the per-sample chain it replaced.


def _reference_stencil(unit):
    """The four stencil covectors (..., 4, 2) of the unit covectors (..., 2),
    normalised by np.linalg.norm."""
    delta = np.stack([-np.conj(unit[..., 1]), np.conj(unit[..., 0])], axis=-1)
    h = fr.SKY_FD_STEP
    raw = np.stack(
        [unit + h * delta, unit - h * delta, unit + 1j * h * delta, unit - 1j * h * delta],
        axis=-2,
    )
    return raw / np.linalg.norm(raw, axis=-1, keepdims=True)


def _reference_jacobian(pts, h):
    return np.stack([(pts[0] - pts[1]) / (2 * h), (pts[2] - pts[3]) / (2 * h)], axis=-1)


def _reference_sky_image(f, x, sample):
    """Base rays, one stencil batch, then a Jacobian and an SVD per sample."""
    x = np.asarray(x, dtype=float)
    events = np.tile(x, (sample.n, 1))
    pts, lams, ok, reason = fr.project_batch(f, events, sample.xi)
    stencils = _reference_stencil(sky.unit_cospinor(sample.xi)).reshape(-1, 2)
    spts, _, sok, _ = fr.project_batch(f, np.repeat(events, 4, axis=0), stencils)
    ranks = np.zeros(sample.n, dtype=int)
    for k in range(sample.n):
        if not (ok[k] and np.all(sok[4 * k : 4 * k + 4])):
            continue
        jac = _reference_jacobian(spts[4 * k : 4 * k + 4], fr.SKY_FD_STEP)
        sv = np.linalg.svd(jac, compute_uv=False)
        ranks[k] = int(np.sum(sv > fr.RANK_TOL * max(1.0, float(sv.max()))))
    status = tuple(
        "ok" if good else ("integrator_failure" if bad else "no_intersection")
        for good, bad in zip(ok, reason == mf.UNSETTLED)
    )
    if not np.any(ok):
        raise NoIntersectionError("every sky sample failed to reach the target")
    return pts, ranks, lams, status


def _reference_derivative(f, x, xi, direction):
    """Oriented normal and normal family derivative, one small batch each."""
    x = np.asarray(x, dtype=float)
    stencil = _reference_stencil(sky.unit_cospinor(xi))
    spts, _, _, _ = fr.project_batch(f, np.tile(x, (4, 1)), stencil)
    n_hat = np.linalg.svd(_reference_jacobian(spts, fr.SKY_FD_STEP))[0][:, 2]

    def displacement(d, step):
        events = np.stack([x + step * d, x - step * d])
        xis = np.tile(sky.unit_cospinor(xi), (2, 1))
        pts, _, _, _ = fr.project_batch(f, events, xis)
        return (pts[0] - pts[1]) / (2.0 * step)

    h = fr.EVENT_FD_STEP * max(1.0, float(np.abs(x).max()))
    if float(n_hat @ displacement(np.array([1.0, 0, 0, 0]), h)) < 0.0:
        n_hat = -n_hat
    return n_hat, float(n_hat @ displacement(np.asarray(direction, float), h))


#: Frame keywords, event and sample of each case; a "rank_tol" key is the
#: case's `frames.RANK_TOL` (`_equivalence_case`).
_EQUIVALENCE_CASES = {
    "minkowski": (
        dict(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.25)),
        [1.7, 0.3, -0.2, 0.5],
        sky.sample_sky(300, scheme="random", seed=4),
    ),
    "flrw_closed_form": (
        dict(metric=mf.MetricSpec.flrw(p=2 / 3), target=fr.Singularity()),
        [1.0, 0.3, -0.2, 0.5],
        sky.sample_sky(800),
    ),
    "flrw_numeric": (
        dict(metric=mf.MetricSpec.flrw(p=0.5), target=fr.CauchySurface(0.4),
             tracer="numeric"),
        [1.2, 0.1, 0.0, 0.0],
        sky.sample_sky(16, scheme="random", seed=2),
    ),
    "on_surface": (
        dict(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0)),
        [0.0, 0.4, -0.2, 0.7],
        sky.sample_sky(50),
    ),
    "flrw_cauchy": (
        dict(metric=mf.MetricSpec.flrw(p=0.5), target=fr.CauchySurface(0.3)),
        [0.9, 0.1, 0.2, -0.1],
        sky.sample_sky(200, scheme="random", seed=4),
    ),
    # Close to the surface the singular values sit at RANK_TOL, up to
    # rounding, so the three ranks all occur.
    "rank_threshold": (
        dict(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0)),
        [5e-8, 0.3, -0.2, 0.5],
        sky.sample_sky(200, scheme="random", seed=4),
    ),
    # A threshold just under sigma1 in a conformal sky map, where sigma2 is
    # within 2e-11 of sigma1: a sigma2 that cancels in sigma1^2 - sigma2^2
    # drops to rank 1.
    "near_conformal": (
        dict(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.25),
             rank_tol=1.0 - 1e-9),
        [1.7, 0.3, -0.2, 0.5],
        sky.sample_sky(300, scheme="random", seed=4),
    ),
    "rank_zero": (
        dict(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0),
             rank_tol=1e3),
        [1.0, 0.0, 0.0, 0.0],
        sky.sample_sky(50),
    ),
    "partial_failures": (
        dict(
            metric=mf.MetricSpec.minkowski(
                bounds=[[-np.inf, np.inf], [-0.6, 0.6], [-10, 10], [-10, 10]]
            ),
            target=fr.CauchySurface(0.0),
            tracer="numeric",
        ),
        [1.0, 0.0, 0.0, 0.0],
        sky.sample_sky(60),
    ),
    # Jacobian entries near 1e160, whose squares overflow.
    "far_event": (
        dict(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0)),
        [1e160, 0.0, 0.0, 0.0],
        sky.sample_sky(50),
    ),
    # The only slice whose chart metric is not Euclidean, so the sky map is
    # not conformal: sigma2 / sigma1 ranges from about 0.67 to 1.
    "anisotropic_slice": (
        dict(
            metric=mf.metric_from_config(
                {
                    "kind": "custom",
                    "coeffs": ["1", "-1", "-(1 + 0.5*t)**2", "-1"],
                    "bounds": [[0, None], [None, None], [None, None], [None, None]],
                }
            ),
            target=fr.CauchySurface(1.0),
        ),
        [2.0, 0.1, 0.0, -0.2],
        sky.sample_sky(40, scheme="random", seed=3),
    ),
}


_RANK_TOL = fr.RANK_TOL


def _equivalence_case(case, monkeypatch):
    """The frame, event and sample of a case, with its RANK_TOL set (the
    module's own unless the case names one)."""
    kwargs, x, sample = _EQUIVALENCE_CASES[case]
    kwargs = dict(kwargs)
    monkeypatch.setattr(fr, "RANK_TOL", kwargs.pop("rank_tol", _RANK_TOL))
    return fr.FrameSpec(**kwargs), x, sample


class TestTangentPlaneKernel:
    @pytest.mark.parametrize("case", sorted(_EQUIVALENCE_CASES))
    def test_sky_image_matches_per_sample_reference(self, case, monkeypatch):
        spec, x, sample = _equivalence_case(case, monkeypatch)
        pts, ranks, lams, status = _reference_sky_image(spec, x, sample)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by zero or overflow in any case
            img = fr.sky_image(spec, x, sample)
        assert np.array_equal(img.m_points, pts, equal_nan=True)
        assert np.array_equal(img.ranks, ranks)
        assert np.array_equal(img.lams, lams)
        assert img.status == status

    def test_reference_cases_cover_every_rank_and_status(self, monkeypatch):
        ranks, status = set(), set()
        for case in _EQUIVALENCE_CASES:
            spec, x, sample = _equivalence_case(case, monkeypatch)
            img = fr.sky_image(spec, x, sample)
            ranks |= set(img.ranks.tolist())
            status |= set(img.status)
        assert ranks == {0, 1, 2}
        assert status == {"ok", "no_intersection"}

    def test_all_failures_raise_like_the_reference(self, mink_frame):
        spec = mink_frame
        sample = sky.sample_sky(8)
        with pytest.raises(NoIntersectionError):
            _reference_sky_image(spec, [-2.0, 0, 0, 0], sample)
        with pytest.raises(NoIntersectionError):
            fr.sky_image(spec, [-2.0, 0, 0, 0], sample)

    @pytest.mark.parametrize(
        "case",
        [
            "minkowski",
            "flrw_closed_form",
            "flrw_cauchy",
            "flrw_numeric",
            "anisotropic_slice",
        ],
    )
    def test_normal_frame_and_derivative_match_reference(self, case, monkeypatch):
        spec, x, _ = _equivalence_case(case, monkeypatch)
        rng = np.random.default_rng(11)
        for step in (fr.EVENT_FD_STEP, 2e-3):
            monkeypatch.setattr(fr, "EVENT_FD_STEP", step)
            xi = rng.normal(size=2) + 1j * rng.normal(size=2)
            d = np.array([1.0, *rng.uniform(-0.5, 0.5, size=3)])
            n_ref, deriv_ref = _reference_derivative(spec, x, xi, d)
            tp = fr.tangent_planes(spec, np.array([x]), xi[None], d, normals=True)
            assert np.abs(tp.normals[0] - n_ref).max() <= 1e-12
            deriv = tp.normals[0] @ (tp.family[0, 0] / (2.0 * tp.family_h[0]))
            assert deriv == pytest.approx(deriv_ref, rel=1e-12, abs=1e-12)

    def test_one_ray_batch_per_call(self, flrw_frame, monkeypatch):
        rows = []
        project = fr.project_batch

        def counting(f, events, xis):
            rows.append(len(xis))  # rays: a sky image shares its one event
            return project(f, events, xis)

        monkeypatch.setattr(fr, "project_batch", counting)
        fr.sky_image(flrw_frame, [1.0, 0, 0, 0], sky.sample_sky(37), with_rank=True)
        assert rows == [5 * 37]
        rows.clear()
        fr.tangent_planes(
            flrw_frame, np.array([[1.0, 0.1, 0, 0]]), XI_TO_ZHAT[None], normals=True
        )
        assert len(rows) == 1

    def test_batched_normals_are_oriented_unit_vectors(self, flrw_frame):
        sample = sky.sample_sky(40)
        x = np.array([1.0, 0.2, -0.1, 0.3])
        events = np.tile(x, (40, 1))
        tp = fr.tangent_planes(flrw_frame, events, sample.xi, normals=True)
        assert np.all(tp.ranks == 2)
        assert np.allclose(np.linalg.norm(tp.normals, axis=1), 1.0, atol=1e-12)
        # the image is the comoving sphere of radius 3 about x: outward normals
        radial = (tp.m_points - x[1:]) / 3.0
        assert np.allclose(tp.normals, radial, atol=1e-6)


# One event shared by every ray against its tiled (B, 4) rows.

_README_CHART = {
    "kind": "custom",
    "coeffs": ["1", "-(1 + 0.1*t)**2", "-(1 + 0.1*t)**2", "-(1 + 0.1*t)**2"],
    "bounds": [[0, None], [None, None], [None, None], [None, None]],
}

#: A frame and its events: above the target, on it (lambda = 0) where the
#: target is a slice, and below it (no_intersection).
_SHARED_CASES = {
    "flat_cauchy0": (
        dict(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0)),
        [[1.3, 0.2, -0.1, 0.4], [0.0, 0.2, -0.1, 0.4], [-0.5, 0.2, -0.1, 0.4]],
    ),
    "p2/3_singularity": (
        dict(metric=mf.MetricSpec.flrw(p=2 / 3), target=fr.Singularity()),
        [[1.0, 0.2, -0.1, 0.4], [0.05, 1.0, 2.0, -3.0]],
    ),
    "p2/3_cauchy0.25": (
        dict(metric=mf.MetricSpec.flrw(p=2 / 3), target=fr.CauchySurface(0.25)),
        [[0.9, 0.2, -0.1, 0.4], [0.25, 0.2, -0.1, 0.4], [0.1, 0.2, -0.1, 0.4]],
    ),
    "a_expr_cauchy0.3": (
        dict(
            metric=mf.metric_from_config({"kind": "flrw", "a_expr": "t**0.6666666666666666"}),
            target=fr.CauchySurface(0.3),
        ),
        [[1.1, 0.2, -0.1, 0.4], [0.3, 0.2, -0.1, 0.4], [0.2, 0.2, -0.1, 0.4]],
    ),
    "readme_custom": (
        dict(metric=mf.metric_from_config(_README_CHART), target=fr.CauchySurface(0.3)),
        [[1.0, 0.2, -0.1, 0.4], [0.3, 0.2, -0.1, 0.4], [0.1, 0.2, -0.1, 0.4]],
    ),
    "readme_custom_numeric": (
        dict(
            metric=mf.metric_from_config(_README_CHART),
            target=fr.CauchySurface(0.3),
            tracer="numeric",
        ),
        [[1.0, 0.2, -0.1, 0.4], [0.3, 0.2, -0.1, 0.4], [0.1, 0.2, -0.1, 0.4]],
    ),
}


def _int_view(a):
    a = np.ascontiguousarray(a)
    return a.view(np.int64) if a.dtype == float else a


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(_int_view(a), _int_view(b))


def _plane_fields(tp):
    return {k: getattr(tp, k) for k in fr.TangentPlanes.__dataclass_fields__}


class TestSharedEvent:
    @pytest.mark.parametrize("case", sorted(_SHARED_CASES))
    def test_one_event_gives_the_bits_of_its_tiled_rows(self, case):
        kwargs, events = _SHARED_CASES[case]
        spec = fr.FrameSpec(**kwargs)
        sample = sky.sample_sky(24, scheme="random", seed=7)
        dirs = np.array([[0.0, 1.0, 0.0, 0.0], [0.3, 0.0, -0.2, 1.0]])
        statuses = set()
        for x in map(np.array, events):
            rows = np.tile(x, (sample.n, 1))
            shared = fr.project_batch(spec, x, sample.xi)
            tiled = fr.project_batch(spec, rows, sample.xi)
            assert all(map(_same_bits, shared, tiled))
            for kw in ({}, dict(directions=dirs, normals=True)):
                one = _plane_fields(fr.tangent_planes(spec, x, sample.xi, **kw))
                many = _plane_fields(fr.tangent_planes(spec, rows, sample.xi, **kw))
                assert one.keys() == many.keys()
                for key, value in one.items():
                    assert (value is None) == (many[key] is None), key
                    assert value is None or _same_bits(value, many[key]), key
            for with_rank in (True, False):
                pts, lams, ok, reason = tiled
                ranks = np.zeros(sample.n, dtype=int)
                if with_rank:
                    tp = fr.tangent_planes(spec, rows, sample.xi)
                    pts, lams, reason, ranks = tp.m_points, tp.lams, tp.reason, tp.ranks
                    ok = reason == mf.ARRIVED
                if not np.any(ok):
                    with pytest.raises(NoIntersectionError, match="every sky sample failed"):
                        fr.sky_image(spec, x, sample, with_rank=with_rank)
                    statuses.add("no_intersection")
                    continue
                img = fr.sky_image(spec, x, sample, with_rank=with_rank)
                assert _same_bits(img.event, x)
                assert img.target == spec.target and img.sample is sample
                assert _same_bits(img.m_points, pts) and _same_bits(img.lams, lams)
                assert _same_bits(img.ranks, ranks)
                failed = np.where(reason == mf.UNSETTLED, "integrator_failure", "no_intersection")
                assert img.status == tuple(np.where(ok, "ok", failed).tolist())
                statuses |= set(img.status)
                if x[0] == spec.target_time:
                    assert np.all(img.lams == 0.0)
        assert statuses == {"ok", "no_intersection"} or case == "p2/3_singularity"

    @pytest.mark.parametrize("case", sorted(_SHARED_CASES))
    @pytest.mark.parametrize("x", [[1.0, np.nan, 0.0, 0.0], [1.0, 0.0, np.inf, 0.0]])
    def test_an_event_outside_the_chart_raises_the_same_text(self, case, x):
        spec = fr.FrameSpec(**_SHARED_CASES[case][0])
        sample = sky.sample_sky(6)
        message = "^an event lies outside the chart domain$"
        for events in (np.array(x), np.tile(x, (sample.n, 1))):
            with pytest.raises(OutOfDomainError, match=message):
                fr.project_batch(spec, events, sample.xi)
            with pytest.raises(OutOfDomainError, match=message):
                fr.tangent_planes(spec, events, sample.xi)
        with pytest.raises(OutOfDomainError, match=message):
            fr.sky_image(spec, x, sample)

    def test_a_ray_with_no_finite_end_names_the_event(self):
        spec = fr.FrameSpec(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(-1.7e308))
        x, sample = np.array([1e308, 0.0, 0.0, 0.0]), sky.sample_sky(6)
        message = re.escape(f"the ray from {x.tolist()} has no finite end point or length")
        for events in (x, np.tile(x, (sample.n, 1))):
            # no numpy warning first: t - t0 overflowed outside the quiet block
            with pytest.raises(OutOfDomainError, match=message), warnings.catch_warnings():
                warnings.simplefilter("error")
                fr.project_batch(spec, events, sample.xi)

    @pytest.mark.parametrize("events", [np.zeros(3), np.zeros((2, 3)), np.zeros((1, 2, 4))])
    def test_events_of_another_shape_are_refused(self, mink_frame, events):
        with pytest.raises(ValueError, match="one event"):
            fr.project_batch(mink_frame, events, sky.sample_sky(4).xi)


# Column chains against numpy's own reductions over the short trailing axes.


def _numpy_planes(f, tp, events, xis, ok):
    """h, the arrival masks, ranks and oriented normals of tangent_planes
    with numpy's reductions, from its Jacobians and the arrival mask ok of
    its ray batch; the last direction is the time axis."""
    b = len(events)
    h = fr.EVENT_FD_STEP * np.maximum(1.0, np.abs(events).max(axis=1))
    stencil_ok = ok[b : 5 * b].reshape(b, 4).all(axis=1)
    family_ok = ok[5 * b :].reshape(b, -1).all(axis=1)
    jac = tp.jacobians
    scale = np.abs(jac).max(axis=(1, 2))
    scale = np.where(scale > 0.0, scale, 1.0)
    c1, c2 = np.moveaxis(jac / scale[:, None, None], 2, 0)
    cross = np.cross(c1, c2)
    area = np.linalg.norm(cross, axis=1)
    sq1, sq2 = np.einsum("rk,rk->r", c1, c1), np.einsum("rk,rk->r", c2, c2)
    gap = np.hypot(sq1 - sq2, 2.0 * np.einsum("rk,rk->r", c1, c2))
    s1 = np.sqrt((sq1 + sq2 + gap) / 2.0)
    s2 = area / np.where(s1 > 0.0, s1, 1.0)
    thresh = fr.RANK_TOL * np.maximum(1.0 / scale, s1)
    arrived = (tp.reason == mf.ARRIVED) & stencil_ok
    ranks = np.where(arrived, (s1 > thresh).astype(int) + (s2 > thresh), 0)
    normals = cross / np.where(ranks == 2, area, np.nan)[:, None]
    flip = np.einsum("rk,rk->r", normals, tp.family[:, -1]) < 0.0
    normals[flip] = -normals[flip]
    return h, stencil_ok, family_ok, ranks, normals


def _bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestColumnChains:
    #: A flat chart cut at |x| < 1.6, so some stencil and family rays fail
    #: and their Jacobians hold NaN.
    CUT = [[-np.inf, np.inf], [-1.6, 1.6], [-np.inf, np.inf], [-np.inf, np.inf]]
    BOUNDED = fr.FrameSpec(
        metric=mf.MetricSpec.minkowski(bounds=CUT), target=fr.CauchySurface(0.0)
    )

    @pytest.mark.parametrize("shape", [(0,), (1,), (500,), (3, 7)])
    def test_sky_stencil_matches_the_numpy_norm(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        xi = rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
        special = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(np.nan, 1.0)]
        special += [complex(np.inf, 0.0), complex(0.0, -np.inf)]
        pick = rng.random(xi.shape) < 0.2
        xi[pick] = rng.choice(special, size=int(pick.sum()))
        with np.errstate(all="ignore"):
            assert _bits(fr._sky_stencil(xi), _reference_stencil(xi))

    @pytest.mark.parametrize("k", [0, 3])
    def test_tangent_planes_match_numpy_reductions(self, k, monkeypatch):
        rng = np.random.default_rng(k)
        b = 400
        events = np.column_stack(
            [rng.uniform(0.5, 2.5, b), rng.uniform(-1.0, 1.0, b), rng.uniform(-3.0, 3.0, (b, 2))]
        )
        events[rng.random((b, 4)) < 0.1] = -0.0  # on the target too
        xis = rng.normal(size=(b, 2)) + 1j * rng.normal(size=(b, 2))
        xis[rng.random(b) < 0.1, rng.integers(2)] = -0.0
        dirs = np.vstack([rng.normal(size=(k, 4)), [1.0, 0.0, 0.0, 0.0]])
        batches, project = [], fr.project_batch

        def dropping(f, events, xis):  # and a few arrived rays in every column
            pts, lams, ok, reason = project(f, events, xis)
            ok &= rng.random(len(ok)) < 0.97
            reason[~ok & (reason == mf.ARRIVED)] = mf.LEFT_BOUNDS
            batches.append((xis, ok))
            return pts, lams, ok, reason

        monkeypatch.setattr(fr, "project_batch", dropping)
        tp = fr.tangent_planes(self.BOUNDED, events, xis, dirs, normals=True)
        (rays, ok), = batches
        stencil = _reference_stencil(sky.unit_cospinor(xis)).reshape(-1, 2)
        assert _bits(rays[b : 5 * b], stencil)
        h, stencil_ok, family_ok, ranks, normals = _numpy_planes(self.BOUNDED, tp, events, xis, ok)
        assert _bits(tp.family_h, h) and np.any(h > fr.EVENT_FD_STEP)
        assert np.array_equal(tp.stencil_ok, stencil_ok)
        assert np.array_equal(tp.family_ok, family_ok)
        assert np.array_equal(tp.ranks, ranks) and _bits(tp.normals, normals)
        # every mask and rank occurs, so each chain decides something
        assert set(tp.ranks.tolist()) == {0, 2} and 0 < tp.stencil_ok.sum() < b
        assert 0 < tp.family_ok.sum() < b and np.isnan(tp.jacobians).any()

    def test_no_directions_leave_every_family_arrived(self):
        events = np.array([[1.0, 1.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        tp = fr.tangent_planes(self.BOUNDED, events, np.tile(XI_TO_ZHAT, (2, 1)))
        assert tp.family_ok.tolist() == [True, True] and tp.family.shape == (2, 0, 3)
        assert tp.family_h.tolist() == (fr.EVENT_FD_STEP * np.array([1.5, 1.0])).tolist()
        tp = fr.tangent_planes(self.BOUNDED, np.zeros((0, 4)), np.zeros((0, 2), dtype=complex))
        assert tp.family_ok.shape == tp.stencil_ok.shape == tp.family_h.shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_events_are_outside_the_chart(self, bad):
        events = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, bad, 0.0]])
        lo, hi = self.BOUNDED.metric.bounds.T
        assert not np.all(np.all((events > lo) & (events < hi), axis=-1))
        with pytest.raises(OutOfDomainError, match="outside the chart domain"):
            fr.tangent_planes(self.BOUNDED, events, np.tile(XI_TO_ZHAT, (2, 1)))

    def test_project_batch_masks_match_numpy_reductions(self):
        # p = 1/2 to the singularity: rays end at x - 2 sqrt(t) d; huge
        # times overflow, and only an arrived ray with no finite end raises
        f = fr.FrameSpec(
            metric=mf.MetricSpec.flrw(p=0.5, bounds=[[0, np.inf]] + self.CUT[1:]),
            target=fr.Singularity(),
        )
        rng = np.random.default_rng(7)
        b = 3000
        events = np.column_stack([rng.uniform(0.01, 0.5, b), rng.uniform(-1.0, 1.0, (b, 3))])
        events[rng.random((b, 4)) < 0.1] *= -0.0
        events[:, 0] = np.abs(events[:, 0]) + 0.01
        xis = rng.normal(size=(b, 2)) + 1j * rng.normal(size=(b, 2))
        pts, lams, ok, _ = fr.project_batch(f, events, xis)
        ends = events[:, 1:] - 2.0 * np.sqrt(events[:, :1]) * spinor.direction_for_cospinor(xis)
        lo, hi = f.metric.bounds.T
        reached = np.column_stack([events[:, 0], ends])
        inside = np.all((reached > lo) & (reached < hi), axis=-1)
        assert np.array_equal(ok, inside) and 0 < ok.sum() < b
        assert np.allclose(pts[ok], ends[ok], rtol=0.0, atol=1e-14)
        # an arrived ray whose end overflows along one axis alone: the event
        # and the conformal time are 1e308, the direction is minus that axis
        for axis in range(3):
            event = np.array([1e308, 0.0, 0.0, 0.0])
            event[1 + axis] = 1e308
            flat = fr.FrameSpec(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0))
            xi = spinor.cospinor_for_direction(-np.eye(3)[axis])
            with pytest.raises(OutOfDomainError, match="no finite end point or length"):
                fr.project_batch(flat, np.array([[1.0, 0, 0, 0], event]), np.array([xi, xi]))
        # an arrived ray whose affine length alone overflows: on e0 = A =
        # sqrt((t - 2)^2 + 1e-320) the conformal interval is t, and the
        # length from t = 2 is 8/3 over e0 A = 1e-320 there
        legs = "(t-2)**2 + 1e-320"
        metric = mf.metric_from_config({"kind": "custom", "coeffs": [legs] + [f"-({legs})"] * 3})
        f = fr.FrameSpec(metric=metric, target=fr.CauchySurface(0.0))
        huge = np.array([[2.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        with np.errstate(all="ignore"):
            eta = mf.conformal_time(f.metric, huge[:, 0], 0.0)
            lam = mf.affine_length(f.metric, huge[:, 0], 0.0)
        assert np.all(np.isfinite(eta)) and not np.all(np.isfinite(lam))
        with pytest.raises(OutOfDomainError, match="no finite end point or length"):
            fr.project_batch(f, huge, xis[:2])


def _answer(call):
    """What a frame call gives: its arrays, or its exception's type and message."""
    try:
        out = call()
    except Exception as exc:
        return type(exc), str(exc)
    return list(out) if isinstance(out, tuple) else list(_plane_fields(out).values())


class TestOneErrorState:
    """Both tracers answer alike under any numpy error state: the same bits,
    or the same exception.  The closed form once kept a caller's raising
    state, so a far event (its end point overflows) and a subnormal one
    (its rank's 1 / scale overflows) raised FloatingPointError before the
    frame's own checks ran."""

    #: name: (metric, target)
    FRAMES = {
        "flat": (mf.MetricSpec.minkowski(), fr.CauchySurface(0.0)),
        "flat-far": (mf.MetricSpec.minkowski(), fr.CauchySurface(-1.7e308)),
        "p2/3": (mf.MetricSpec.flrw(p=2 / 3), fr.Singularity()),
    }
    SKY = sky.sample_sky(8, scheme="random", seed=3)
    DIRS = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.3, -0.2, 0.1]])

    def _events(self, seed):
        rng = np.random.default_rng(seed)
        events = np.column_stack([rng.uniform(0.2, 3.0, 4), rng.uniform(-1.0, 1.0, (4, 3))])
        return [*events, np.array([1e308, 0.0, 0.0, 0.0]), np.array([1.3e-310, 0.0, 0.0, 0.0])]

    def _under_both_states(self, call):
        with np.errstate(all="raise"):
            raising = _answer(call)
        with warnings.catch_warnings(record=True) as caught, np.errstate(
            over="warn", divide="warn", invalid="warn", under="ignore"  # numpy's default
        ):
            warnings.simplefilter("always")
            default = _answer(call)
        assert not caught, [str(w.message) for w in caught]
        if isinstance(default, tuple):
            assert raising == default
        else:
            assert len(raising) == len(default)
            assert all(_bits(np.asarray(a), np.asarray(b)) for a, b in zip(raising, default))
        return default

    @pytest.mark.parametrize("tracer", ["auto", "numeric"])
    @pytest.mark.parametrize("frame", list(FRAMES))
    def test_bits_or_exception_do_not_depend_on_the_error_state(self, frame, tracer):
        metric, target = self.FRAMES[frame]
        f = fr.FrameSpec(metric=metric, target=target, tracer=tracer)
        events = self._events(len(frame))
        answers = []
        for x in events:
            answers.append(self._under_both_states(lambda: fr.project_batch(f, x, self.SKY.xi)))
            answers.append(self._under_both_states(
                lambda: fr.tangent_planes(f, x, self.SKY.xi, self.DIRS, normals=True)))
        rows, xis = np.stack(events), self.SKY.xi[: len(events)]
        answers.append(self._under_both_states(lambda: fr.project_batch(f, rows, xis)))
        answers.append(self._under_both_states(lambda: fr.tangent_planes(f, rows, xis)))
        # arrays to compare in every frame; the far target's end points
        # overflow and raise (the 1.3e-310 event's time family once left
        # p = 2/3's t > 0 and raised too)
        assert any(isinstance(a, list) for a in answers)
        raising = {("flat-far", "auto")}
        assert any(isinstance(a, tuple) for a in answers) == ((frame, tracer) in raising)

    def test_the_far_and_subnormal_events_get_the_frame_s_own_verdicts(self):
        far = fr.FrameSpec(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(-1.7e308))
        x = [1e308, 0.0, 0.0, 0.0]
        message = "the ray from [1e+308, 0.0, 0.0, 0.0] has no finite end point or length"
        with np.errstate(all="raise"):
            assert _answer(lambda: fr.project_batch(far, x, self.SKY.xi)) == (
                OutOfDomainError, message)
            f = fr.FrameSpec(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0))
            tp = fr.tangent_planes(f, [1.3e-310, 0.0, 0.0, 0.0], self.SKY.xi)
        # every ray arrives, and the image reads singular below the rank floor
        assert np.all(tp.reason == mf.ARRIVED) and np.all(tp.stencil_ok)
        assert np.all(tp.ranks == 0)


class TestEventFamiliesNearTheBounds:
    """The event families x +- h d of a row near the chart's bounds stay in
    it: h = EVENT_FD_STEP * s where the default h = EVENT_FD_STEP * max(1,
    |x|) would leave, s the step at which the first family meets a bound.
    The families once left the chart and `project_batch` raised "an event
    lies outside the chart domain", naming no event."""

    P23 = fr.FrameSpec(metric=mf.MetricSpec.flrw(p=2 / 3), target=fr.Singularity())
    #: flat space cut at |x| < 1
    CUT = fr.FrameSpec(
        metric=mf.MetricSpec.minkowski(
            bounds=[[-np.inf, np.inf], [-1, 1], [-np.inf, np.inf], [-np.inf, np.inf]]
        ),
        target=fr.CauchySurface(0.0),
    )

    @pytest.mark.parametrize("tracer", ["auto", "numeric"])
    def test_probe_values_answer_by_the_singularity(self, tracer):
        f = dataclasses.replace(self.P23, tracer=tracer)
        pv = f.probe_values([5e-5, 0, 0, 0], sky.sample_sky(4).xi, np.eye(4))
        assert np.all(pv.arrived) and np.all(pv.regular)
        assert np.all(np.isfinite(pv.rates))

    def test_probe_values_answer_by_a_spatial_bound(self):
        pv = self.CUT.probe_values([1e-5, 0.99995, 0, 0], sky.sample_sky(4).xi, np.eye(4))
        assert np.all(pv.arrived) and np.all(pv.regular)
        assert np.all(np.isfinite(pv.rates))

    @pytest.mark.parametrize("tracer", ["auto", "numeric"])
    @pytest.mark.parametrize("t", [5e-5, 1e-7])
    def test_the_kernel_check_passes_by_the_singularity(self, tracer, t):
        f = dataclasses.replace(self.P23, tracer=tracer)
        xis = sky.sample_sky(4, scheme="random", seed=1).xi
        reports = vf.check_kernel_proportionality(f, [t, 0.1, -0.2, 0.05], xis)
        assert all(r.passed for r in reports)
        assert max(r.max_residual for r in reports) < 1e-4

    def test_family_h_keeps_the_default_rule_away_from_the_bounds(self):
        # two rows far from t = 0 keep their h and their bits beside a row
        # by it, which keeps the default h along a direction that moves no t
        rows = np.array([[2.0, 0.3, -0.2, 0.1], [5e-5, 0.1, 0, 0], [3.0, 1.5, 0, 0]])
        dirs = np.array([[1.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        xis = sky.sample_sky(4, scheme="random", seed=2).xi[:3]
        tp = fr.tangent_planes(self.P23, rows, xis, dirs, normals=True)
        assert tp.family_h.tolist() == [fr.EVENT_FD_STEP * t for t in (2.0, 5e-5, 3.0)]
        assert np.all(tp.family_ok)
        far = fr.tangent_planes(self.P23, rows[[0, 2]], xis[[0, 2]], dirs, normals=True)
        for name, value in _plane_fields(far).items():
            assert _bits(getattr(tp, name)[[0, 2]], value), name
        spatial = fr.tangent_planes(self.P23, rows[1], xis[:1], dirs[1:])
        assert spatial.family_h.tolist() == [fr.EVENT_FD_STEP]

    def test_s_is_the_step_at_which_the_first_family_meets_a_bound(self):
        # at x = 0.99995 the family along (0, 2, 0, 0) meets x = 1 at s =
        # (1 - 0.99995) / 2; the time axis of the normals moves no bound
        x = np.array([1e-5, 0.99995, 0.0, 0.0])
        tp = fr.tangent_planes(self.CUT, x, sky.sample_sky(4).xi, [[0.0, 2.0, 0.0, 0.0]],
                               normals=True)
        assert tp.family_h.tolist() == [fr.EVENT_FD_STEP * ((1.0 - 0.99995) / 2.0)] * 4
        assert np.all(tp.family_ok)
