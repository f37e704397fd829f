import json
import re
import warnings

import numpy as np
import pytest

from skyframes import frames as fr
from skyframes import manifold as mf
from skyframes import sky, spinor
from skyframes.errors import NoIntersectionError, OutOfDomainError

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
            assert tp.ok[0] and tp.stencil_ok[0]
            assert np.linalg.norm(tp.m_points[0] - x[1:]) == pytest.approx(x[0])

    def test_cosmology_comoving_radius(self, flrw_frame):
        tp = fr.tangent_planes(flrw_frame, np.array([[1.0, 0, 0, 0]]), XI_TO_ZHAT[None])
        assert tp.ok[0] and tp.stencil_ok[0]
        assert np.linalg.norm(tp.m_points[0]) == pytest.approx(3.0, abs=1e-10)

    def test_event_on_target_surface(self, mink_frame):
        x = np.array([0.0, 0.4, -0.2, 0.7])
        tp = fr.tangent_planes(mink_frame, x[None], XI_TO_ZHAT[None])
        assert tp.ok[0] and tp.stencil_ok[0]
        assert np.allclose(tp.m_points[0], [0.4, -0.2, 0.7])
        assert tp.lams[0] == 0.0

    def test_event_below_surface_fails(self, mink_frame):
        x = np.array([-1.0, 0, 0, 0])
        tp = fr.tangent_planes(mink_frame, x[None], XI_TO_ZHAT[None])
        assert not tp.ok[0] and not tp.stencil_ok[0]
        assert np.all(np.isnan(tp.m_points[0]))

    def test_outside_domain_fails(self, flrw_frame):
        with pytest.raises(OutOfDomainError):
            fr.tangent_planes(flrw_frame, np.array([[-0.5, 0, 0, 0]]), XI_TO_ZHAT[None])

    def test_batch_with_one_event_outside_the_domain_fails(self, flrw_frame):
        events = np.array([[1.0, 0, 0, 0], [-0.5, 0, 0, 0]])
        with pytest.raises(OutOfDomainError):
            fr.project_batch(flrw_frame, events, np.tile(XI_TO_ZHAT, (2, 1)))


    def test_affine_length_at_p_minus_1(self):
        # a = 1/t: the power-law formula divided 0 by 0; the length from t
        # down to t0 is t ln(t / t0), and the numeric tracer agrees
        metric = mf.MetricSpec.flrw(p=-1.0)
        events = np.array([[2.0, 0.1, 0, 0], [1.5, 0, 0.3, 0]])
        xis = sky.sample_sky(4, scheme="random", seed=1).xi[:2]
        lams = {}
        for tracer in ("closed_form", "numeric"):
            f = fr.FrameSpec(metric=metric, target=fr.CauchySurface(1.0), tracer=tracer)
            _, lams[tracer], ok, _ = fr.project_batch(f, events, xis)
            assert np.all(ok)
        expected = events[:, 0] * np.log(events[:, 0])
        assert np.allclose(lams["closed_form"], expected, rtol=1e-14)
        assert np.allclose(lams["numeric"], expected, rtol=1e-5)
        # toward the singularity the length diverges for p <= -1; the
        # numeric tracer's gap closing came back ok with inf (p = -1) or a
        # negative length (p = -1.5)
        for p in (-1.0, -1.5):
            for tracer in ("closed_form", "numeric"):
                metric = mf.MetricSpec.flrw(p=p)
                f = fr.FrameSpec(metric=metric, target=fr.Singularity(), tracer=tracer)
                with pytest.raises(OutOfDomainError, match="no finite end point or length"):
                    fr.project_batch(f, events, xis)

    def test_closed_form_overflow_names_the_event(self):
        # the affine length t^(3/2) / (1.5 a) overflowed to inf and the ray
        # came back ok, after a RuntimeWarning
        f = fr.FrameSpec(metric=mf.MetricSpec.flrw(p=0.5), target=fr.Singularity())
        events = np.array([[1.0, 0, 0, 0], [1e308, 0, 0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomainError, match=re.escape("[1e+308, 0.0, 0.0, 0.0]")):
                fr.project_batch(f, events, np.tile(XI_TO_ZHAT, (2, 1)))


class TestFrameSpec:
    @pytest.mark.parametrize("step", [0.0, -0.01, np.nan, np.inf])
    def test_rejects_bad_step(self, step):
        with pytest.raises(ValueError, match="step"):
            fr.FrameSpec(
                metric=mf.MetricSpec.minkowski(),
                target=fr.CauchySurface(0.0),
                step=step,
            )


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

    def test_all_failures_raise(self):
        spec = fr.FrameSpec(
            metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0)
        )
        with pytest.raises(NoIntersectionError):
            fr.sky_image(spec, [-2.0, 0, 0, 0], sky.sample_sky(8))

    def test_json_and_csv_serialisation(self, mink_frame, tmp_path):
        img = fr.sky_image(mink_frame, [1.0, 0, 0, 0], sky.sample_sky(16))
        d = img.to_json_dict()
        assert set(d) == {"event", "target", "samples"}
        assert set(d["samples"][0]) == {"xi", "m_point", "rank", "lambda", "status"}
        json.dumps(d)
        path = tmp_path / "img.csv"
        img.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 17


class TestGeodesicFlowInvariance:
    def test_projection_constant_along_the_flow(self, flrw_frame):
        # moving the event along the null geodesic of a sky point leaves
        # the image point of that sky point unchanged
        x = np.array([1.0, 0.1, -0.3, 0.2])
        for k in (3, 11, 29):
            xi = sky.sample_sky(64).xi[k]
            d = fr.sky_directions(flrw_frame, xi[None, :])
            v = mf.future_null_directions(flrw_frame.metric, x[None, :], d)
            # the event moves back along the traced past ray
            moved = mf.trace_past_to_time(flrw_frame.metric, x[None, :], v, 0.95).x[0]
            tp = fr.tangent_planes(flrw_frame, np.stack([x, moved]), np.stack([xi, xi]))
            assert np.all(tp.ok) and np.all(tp.stencil_ok)
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
            flrw_frame.metric, x[None, :], fr.sky_directions(flrw_frame, xi[None, :])
        )[0]
        deriv = flrw_frame.probe_values(x, xi[None], v).rates[0, 0]
        assert abs(deriv) <= 1e-7

    def test_richardson_second_order(self, flrw_frame):
        x = np.array([0.9, 0.1, 0.2, -0.1])
        xi = sky.unit_cospinor(np.array([0.5 - 0.3j, 0.7]))
        d = np.array([1.0, 0.4, -0.2, 0.1])
        exact_ratio = 2.0 / float(flrw_frame.metric.scale_factor(x[0]))
        theta = fr.theta_value(flrw_frame, x, xi, d)
        res = []
        for h in (4e-3, 2e-3):
            deriv = flrw_frame.probe_values(x, xi[None], d, h).rates[0, 0]
            res.append(abs(deriv / theta - exact_ratio))
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.35)

    def test_independent_of_tetrad_rotation(self, flrw_frame):
        # a rotated spatial tetrad relabels sky points; values at matched
        # labels agree to the differencing order
        theta_rot = 0.7
        rot = np.array(
            [
                [np.cos(theta_rot), -np.sin(theta_rot), 0],
                [np.sin(theta_rot), np.cos(theta_rot), 0],
                [0, 0, 1.0],
            ]
        )
        spec_rot = fr.FrameSpec(
            metric=flrw_frame.metric, target=fr.Singularity(), tetrad_rotation=rot
        )
        x = np.array([1.0, 0.2, 0.0, -0.3])
        xi = sky.unit_cospinor(np.array([0.3 + 0.4j, 0.85]))
        d_lab = spinor.direction_for_cospinor(xi)
        xi_plain = sky.unit_cospinor(spinor.cospinor_for_direction(rot @ d_lab))
        direction = np.array([1.0, -0.2, 0.4, 0.3])
        a = spec_rot.probe_values(x, xi[None], direction).rates[0, 0]
        b = flrw_frame.probe_values(x, xi_plain[None], direction).rates[0, 0]
        assert a == pytest.approx(b, rel=1e-6, abs=1e-8)
        ta = fr.theta_value(spec_rot, x, xi, direction)
        tb = fr.theta_value(flrw_frame, x, xi_plain, direction)
        assert ta == pytest.approx(tb, rel=1e-12)


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


def _reference_stencil(f, xi):
    xi = sky.unit_cospinor(xi)
    delta = np.array([-np.conj(xi[1]), np.conj(xi[0])])
    h = fr.SKY_FD_STEP
    raw = np.stack(
        [xi + h * delta, xi - h * delta, xi + 1j * h * delta, xi - 1j * h * delta]
    )
    return raw / np.linalg.norm(raw, axis=-1, keepdims=True)


def _reference_jacobian(pts, h):
    return np.stack([(pts[0] - pts[1]) / (2 * h), (pts[2] - pts[3]) / (2 * h)], axis=-1)


def _reference_sky_image(f, x, sample):
    """Base rays, one stencil batch, then a Jacobian and an SVD per sample."""
    x = np.asarray(x, dtype=float)
    events = np.tile(x, (sample.n, 1))
    pts, lams, ok, lost = fr.project_batch(f, events, sample.xi)
    stencils = np.concatenate([_reference_stencil(f, xi) for xi in sample.xi])
    spts, _, sok, _ = fr.project_batch(f, np.repeat(events, 4, axis=0), stencils)
    ranks = np.zeros(sample.n, dtype=int)
    for k in range(sample.n):
        if not (ok[k] and np.all(sok[4 * k : 4 * k + 4])):
            continue
        jac = _reference_jacobian(spts[4 * k : 4 * k + 4], fr.SKY_FD_STEP)
        sv = np.linalg.svd(jac, compute_uv=False)
        ranks[k] = int(np.sum(sv > f.rank_tol * max(1.0, float(sv.max()))))
    status = tuple(
        "ok" if good else ("integrator_failure" if bad else "no_intersection")
        for good, bad in zip(ok, lost)
    )
    if not np.any(ok):
        raise NoIntersectionError("every sky sample failed to reach the target")
    return pts, ranks, lams, status


def _reference_derivative(f, x, xi, direction, h=None):
    """Oriented normal and normal family derivative, one small batch each."""
    x = np.asarray(x, dtype=float)
    spts, _, _, _ = fr.project_batch(f, np.tile(x, (4, 1)), _reference_stencil(f, xi))
    n_hat = np.linalg.svd(_reference_jacobian(spts, fr.SKY_FD_STEP))[0][:, 2]

    def displacement(d, step):
        events = np.stack([x + step * d, x - step * d])
        xis = np.tile(sky.unit_cospinor(xi), (2, 1))
        pts, _, _, _ = fr.project_batch(f, events, xis)
        return (pts[0] - pts[1]) / (2.0 * step)

    h_default = fr.EVENT_FD_STEP * max(1.0, float(np.abs(x).max()))
    if float(n_hat @ displacement(np.array([1.0, 0, 0, 0]), h_default)) < 0.0:
        n_hat = -n_hat
    step = h_default if h is None else h
    return n_hat, float(n_hat @ displacement(np.asarray(direction, float), step))


_ROT = np.array(
    [[np.cos(0.7), -np.sin(0.7), 0.0], [np.sin(0.7), np.cos(0.7), 0.0], [0.0, 0.0, 1.0]]
)

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
    "tetrad_rotation": (
        dict(metric=mf.MetricSpec.flrw(p=2 / 3), target=fr.Singularity(),
             tetrad_rotation=_ROT),
        [1.0, 0.2, 0.0, -0.3],
        sky.sample_sky(500),
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
    # Close to the surface the singular values sit at rank_tol, up to
    # rounding, so the three ranks all occur.
    "rank_threshold": (
        dict(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0),
             rank_tol=1e-7),
        [5e-8, 0.3, -0.2, 0.5],
        sky.sample_sky(200, scheme="random", seed=4),
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
}


class TestTangentPlaneKernel:
    @pytest.mark.parametrize("case", sorted(_EQUIVALENCE_CASES))
    def test_sky_image_matches_per_sample_reference(self, case):
        kwargs, x, sample = _EQUIVALENCE_CASES[case]
        spec = fr.FrameSpec(**kwargs)
        pts, ranks, lams, status = _reference_sky_image(spec, x, sample)
        img = fr.sky_image(spec, x, sample)
        assert np.array_equal(img.m_points, pts, equal_nan=True)
        assert np.array_equal(img.ranks, ranks)
        assert np.array_equal(img.lams, lams)
        assert img.status == status

    def test_reference_cases_cover_every_rank_and_status(self):
        ranks, status = set(), set()
        for kwargs, x, sample in _EQUIVALENCE_CASES.values():
            img = fr.sky_image(fr.FrameSpec(**kwargs), x, sample)
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
            "tetrad_rotation",
            "flrw_numeric",
        ],
    )
    def test_normal_frame_and_derivative_match_reference(self, case):
        kwargs, x, _ = _EQUIVALENCE_CASES[case]
        spec = fr.FrameSpec(**kwargs)
        rng = np.random.default_rng(11)
        for h in (None, 2e-3):
            xi = rng.normal(size=2) + 1j * rng.normal(size=2)
            d = np.array([1.0, *rng.uniform(-0.5, 0.5, size=3)])
            n_ref, deriv_ref = _reference_derivative(spec, x, xi, d, h)
            tp = fr.tangent_planes(spec, np.array([x]), xi[None], d, h, normals=True)
            assert np.abs(tp.normals[0] - n_ref).max() <= 1e-12
            deriv = tp.normals[0] @ (tp.family[0, 0] / (2.0 * tp.family_h[0]))
            assert deriv == pytest.approx(deriv_ref, rel=1e-12, abs=1e-12)

    def test_one_ray_batch_per_call(self, flrw_frame, monkeypatch):
        rows = []
        project = fr.project_batch

        def counting(f, events, xis):
            rows.append(len(events))
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
