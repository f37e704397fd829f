import ast
import decimal
import math
import re
import warnings

import numpy as np
import pytest

from skyframes import _expressions as ex
from skyframes import frames as fr
from skyframes import manifold as mf
from skyframes import sky, spinor
from skyframes.errors import DivergentIntegralError, OutOfDomainError


@pytest.fixture(scope="module")
def flrw():
    return mf.MetricSpec.flrw(p=2 / 3)


class TestChristoffel:
    def test_flat_metric_vanishes(self):
        m = mf.MetricSpec.minkowski()
        v = np.random.default_rng(0).normal(size=(5, 4))
        acc = m.geodesic_acceleration(np.tile([0.3, 1, -2, 5], (5, 1)), v)
        assert np.allclose(acc, 0.0)

    def test_linear_scale_factor_closed_form(self):
        # a = t: Gamma^0_ii = a a' = 2 and Gamma^i_0i = a'/a = 1/2 at t = 2
        m = mf.MetricSpec.flrw(p=1.0)
        v = np.random.default_rng(1).normal(size=(5, 4))
        acc = m.geodesic_acceleration(np.tile([2.0, 0, 0, 0], (5, 1)), v)
        assert acc[:, 0] == pytest.approx(-2.0 * np.sum(v[:, 1:] ** 2, axis=-1))
        assert acc[:, 1:] == pytest.approx(-v[:, :1] * v[:, 1:])

    def test_finite_difference_matches_analytic_flrw(self, flrw):
        custom = mf.MetricSpec.custom_diagonal(
            ["1"] + ["-t**1.3333333333333333"] * 3,
            bounds=[[0.05, np.inf], [-10, 10], [-10, 10], [-10, 10]],
        )
        pt = np.tile([0.7, 0.1, 0.2, -0.3], (10, 1))
        v = np.random.default_rng(2).normal(size=(10, 4))
        acc = custom.geodesic_acceleration(pt, v)
        assert np.allclose(acc, flrw.geodesic_acceleration(pt, v), atol=1e-6)


README_METRIC = {
    "kind": "custom",
    "coeffs": ["1", "-(1 + 0.1*t)**2", "-(1 + 0.1*t)**2", "-(1 + 0.1*t)**2"],
    "bounds": [[0, None], [None, None], [None, None], [None, None]],
}

# Every operator of the grammar, all four names and a variable exponent;
# the box keeps the base z of z**t positive.
EVERY_OPERATOR_METRIC = {
    "kind": "custom",
    "coeffs": [
        "1 + 0.5*t*x/(2 + y*y)",
        "-(1 + 0.1*t*x)**2/(2 + y*y) - z**t",
        "-(1 + 0.1*t)**2",
        "-(+z)**2 - 1",
    ],
    "bounds": [[0.1, 1.0], [0.1, 1.0], [-1.0, 1.0], [0.1, 1.0]],
}


def _central_differences(m, x, h=1e-6):
    out = np.empty(x.shape[:-1] + (4, 4))
    for b in range(4):
        step = np.zeros(4)
        step[b] = h
        out[..., b, :] = (m.metric_diag(x + step) - m.metric_diag(x - step)) / (2 * h)
    return out


class TestMetricJet:
    @pytest.mark.parametrize("cfg", [README_METRIC, EVERY_OPERATOR_METRIC])
    def test_exact_partials_match_central_differences(self, cfg):
        m = mf.metric_from_config(cfg)
        rng = np.random.default_rng(5)
        x = rng.uniform([0.2, 0.2, -0.8, 0.2], [0.9, 0.9, 0.8, 0.9], size=(40, 4))
        g, dg = m._metric_jet(x.T)  # the rows t, x, y, z
        assert g.shape == (4, 40) and dg.shape == (4, 4, 40)
        assert np.array_equal(g.T, m.metric_diag(x))
        np.testing.assert_allclose(
            np.moveaxis(dg, -1, 0), _central_differences(m, x), rtol=1e-6, atol=1e-9
        )

    def test_every_partial_of_the_operator_metric_is_exercised(self):
        m = mf.metric_from_config(EVERY_OPERATOR_METRIC)
        _, dg = m._metric_jet(np.array([0.5, 0.5, 0.5, 0.5]))
        # d/dt, d/dx, d/dy and d/dz of g_11 are all nonzero
        assert np.all(dg[:, 1] != 0.0)

    def test_constant_coefficients_broadcast(self):
        m = mf.metric_from_config(README_METRIC)
        x = np.full((3, 2, 4), 0.5)
        g, dg = m._metric_jet(np.moveaxis(x, -1, 0))
        assert g.shape == (4, 3, 2) and dg.shape == (4, 4, 3, 2)
        assert np.all(g[0] == 1.0) and np.all(dg[1:] == 0.0)
        assert m.metric_diag(x).shape == (3, 2, 4)
        one_g, one_dg = m._metric_jet(np.array([2.0, 0, 0, 0]))
        assert one_g.shape == (4,) and one_dg.shape == (4, 4)
        assert one_dg[0, 1] == pytest.approx(-0.24, rel=1e-12)

    def test_acceleration_matches_the_callable_metric(self):
        expr = mf.metric_from_config(README_METRIC)
        rng = np.random.default_rng(6)
        x = rng.uniform(0.1, 2.0, size=(30, 4))
        v = rng.normal(size=(30, 4))
        # the diagonal-metric connection, from central-difference partials
        g, dg = expr.metric_diag(x), _central_differences(expr, x)
        v_dot_grad = np.einsum("...b,...ba->...a", v, dg)
        grad_quad = np.einsum("...ab,...b->...a", dg, v**2)
        np.testing.assert_allclose(
            expr.geodesic_acceleration(x, v),
            -(2.0 * v * v_dot_grad - grad_quad) / (2.0 * g),
            rtol=1e-8,
            atol=1e-12,
        )

    def test_one_compiled_evaluation_per_acceleration(self, monkeypatch):
        m = mf.metric_from_config(README_METRIC)
        calls = {"jet": 0, "values": 0, "metric_diag": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        exprs = m._expressions
        monkeypatch.setattr(exprs, "jet", counting("jet", exprs.jet))
        monkeypatch.setattr(exprs, "values", counting("values", exprs.values))
        monkeypatch.setattr(
            mf.MetricSpec, "metric_diag", counting("metric_diag", mf.MetricSpec.metric_diag)
        )
        m.geodesic_acceleration(np.full((7, 4), 0.5), np.ones((7, 4)))
        assert calls == {"jet": 1, "values": 0, "metric_diag": 0}


ANISOTROPIC_METRIC = dict(README_METRIC, coeffs=["1", "-1", "-(1 + 0.5*t)**2", "-1"])

#: FLRW with a lapse: ds^2 = A^2 (dt^2 - dx.dx), A = 1 + 0.1 t, so e0 = A;
#: its null rays are straight lines at unit coordinate speed.
LAPSE_METRIC = dict(README_METRIC, coeffs=["(1 + 0.1*t)**2"] + ["-(1 + 0.1*t)**2"] * 3)


def _point_major_slope(m, s, y):
    """The custom-metric sky-bundle slope in ln t, computed point by point:
    the jet as (B, 4) coefficients and (B, 4 [b], 4 [a]) partials."""
    t, n = np.exp(s), y[3:6]
    g, dg = m._metric_jet(np.vstack([t, y[:3]]))
    g, dg = g.T, np.moveaxis(dg, -1, 0)
    e = np.sqrt(np.abs(g))
    ut = np.column_stack([-1.0 / e[:, 0], n.T / e[:, 1:]])
    quad, dot = np.einsum("rac,rc->ra", dg, ut**2), np.einsum("rc,rca->ra", ut, dg)
    w, e0 = (e * (quad - ut * dot) / (2.0 * g)).T, e[:, 0]
    out = np.empty_like(y)
    out[:3], out[3:6] = -(e0 / e[:, 1:].T) * n, -e0 * (w[1:] + n * w[0])
    out[6], out[7] = e0 * w[0], -e0 * np.exp(-y[6])
    return t * out


class TestBundleSlope:
    @pytest.mark.parametrize("cfg", [README_METRIC, ANISOTROPIC_METRIC], ids=["readme", "aniso"])
    def test_row_layout_matches_the_point_major_formula(self, cfg):
        m = mf.metric_from_config(cfg)
        rng = np.random.default_rng(11)
        y = np.vstack([rng.uniform(-1, 1, (3, 160)), rng.normal(size=(5, 160))])
        y[3:6] /= np.linalg.norm(y[3:6], axis=0)
        s = np.log(rng.uniform(0.3, 0.6, 160))
        got, want = mf._bundle_slope(m, s, y, True), _point_major_slope(m, s, y)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want).max(axis=1, keepdims=True))


class TestExpressionDerivatives:
    @pytest.mark.parametrize(
        "src, name, expected",
        [
            ("x/2", "x", "0.5"),
            ("-(1 + 0.1*t)**2", "t", "-(2.0 * (1 + 0.1 * t) * 0.1)"),
            ("x**t", "x", "t * x ** (t - 1)"),
            ("x**t", "t", "x ** t * _log(x)"),
            ("t*t*7", "y", "0"),
        ],
    )
    def test_rules_and_folding(self, src, name, expected):
        assert ast.unparse(ex._diff(ex._parse_expression(src), name)) == expected

    @pytest.mark.parametrize(
        "coeffs",
        [
            ["1", "-1", "-1"],
            ["1", "-1", "-1", "_log(t)"],
            ["1", "-1", "-1", "log(t)"],
            ["1", "-1", "-1", "-1/0"],
            ["1", "-1", "-1", -1],
        ],
    )
    def test_bad_sources_raise_value_error(self, coeffs):
        with pytest.raises(ValueError):
            mf.metric_from_config({"kind": "custom", "coeffs": coeffs})

    @pytest.mark.parametrize(
        "src",
        [" 1", "1 +", "", "+".join(["t"] * 3000), "**".join(["t"] * 3000),
         "*".join(["t"] * 600)],
        ids=["indent", "dangling", "empty", "sum-3000", "power-3000", "product-600"],
    )
    def test_malformed_sources_raise_a_value_error_naming_them(self, src):
        # an IndentationError, two SyntaxErrors, a RecursionError and a
        # MemoryError from the parser, and a RecursionError from the
        # derivatives got through as such
        with pytest.raises(ValueError, match="metric expression") as err:
            mf.metric_from_config({"kind": "custom", "coeffs": [src, "-1", "-1", "-1"]})
        assert repr(src)[:12] in str(err.value)


def _count_metric_calls(monkeypatch):
    """Counts of the `metric_diag` and `_metric_jet` calls made from now on."""
    calls = {"metric_diag": 0, "jet": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        mf.MetricSpec, "metric_diag", counting("metric_diag", mf.MetricSpec.metric_diag)
    )
    monkeypatch.setattr(
        mf.MetricSpec, "_metric_jet", counting("jet", mf.MetricSpec._metric_jet)
    )
    return calls


def _t_march(m, t0, y0, t_target, n):
    """The march of n nodes on a chart of t alone, as a level of the ladder
    runs it: one `_t_level` of every ray, the starts keyed by `_key_starts`."""
    return mf._t_level(m, mf._key_starts(t0, y0, t_target), n)


def _march_errors(m, x0, v0, lam, levels):
    """Largest end-point errors (x, v, lambda) of `_t_march` at each number
    of nodes against the power-law ray at the affine parameter lam > 0; the
    march runs up to the reference time, lambda falling."""
    ref_x, ref_v = mf.flrw_closed_form_ray(m, x0, v0, lam)
    y0 = mf._bundle_start(m, x0[None], v0[None])
    errs = []
    for n in levels:
        res = _t_march(m, x0[:1], y0, ref_x[0], n)
        got = np.concatenate([res.x[0], res.velocity(m)[0], -res.lam])
        errs.append(np.abs(got - np.concatenate([ref_x, ref_v, [lam]])).max())
    return errs


class TestIntegrator:
    """The one tracer, `trace_past_to_time`, and its march `_march`."""

    def test_flat_space_straight_line(self):
        m = mf.MetricSpec.minkowski()
        x0, v0 = np.array([[3.0, 0, 0, 0]]), np.array([[1.0, 0, 0, 1]])
        for level in (0.0, -1.0, -2.5):  # marched in t, exact on a line
            res = mf.trace_past_to_time(m, x0, v0, level)
            lam = 3.0 - level
            assert np.allclose(res.x[0], x0[0] - lam * v0[0], atol=1e-12)
            assert res.lam[0] == pytest.approx(lam, abs=1e-12)
            assert res.ok[0] and not res.lost[0]

    def test_static_cosmology_reduces_to_flat(self):
        m = mf.MetricSpec.flrw(p=0.0)
        x0, v0 = np.array([[1.5, 0, 0, 0]]), np.array([[1, 0.6, 0.8, 0]])
        res = mf.trace_past_to_time(m, x0, v0, 0.0)
        assert np.allclose(res.x[0], x0[0] - 1.5 * v0[0], atol=1e-10)
        assert np.allclose(res.velocity(m), v0, atol=1e-12)

    def test_convergence_is_fourth_order(self, flrw):
        x0, v0 = np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0, 1.0])
        errs = _march_errors(flrw, x0, v0, 0.4, (8, 16, 32))
        assert errs[0] / errs[1] >= 12.0
        assert errs[1] / errs[2] >= 12.0

    def test_null_constraint_held_along_trajectory(self, flrw):
        x0, v0 = np.array([[1.0, 0, 0, 0]]), np.array([[1.0, 0, 0.6, 0.8]])
        for level in (0.9, 0.5, 0.1):
            res = mf.trace_past_to_time(flrw, x0, v0, level)
            assert res.ok[0] and res.x[0, 0] == level
            v = res.velocity(flrw)[0]
            assert abs(flrw.norm(res.x[0], v)) <= 1e-8 * np.abs(v).max() ** 2
            assert v[0] > 0.0

    def test_affine_rescaling_traces_same_point_set(self, flrw):
        kappa = 2.0
        x0 = np.array([[1.0, 0.2, 0, 0], [1.0, 0.2, 0, 0]])
        v0 = np.array([[1.0, 0, 0, 1.0], [kappa, 0, 0, kappa]])
        res = mf.trace_past_to_time(flrw, x0, v0, 0.3)
        assert np.allclose(res.x[0], res.x[1], atol=1e-12)
        assert res.lam[0] == pytest.approx(kappa * res.lam[1], rel=1e-12)

    def test_boundary_stop_at_domain_edge(self):
        # the ray stops at the first node past the z = 1 edge, not ok
        m = mf.MetricSpec.minkowski(
            bounds=[[-np.inf, np.inf], [-10, 10], [-10, 10], [-1.0, 1.0]]
        )
        x0, v0 = np.array([[3.0, 0, 0, 0]]), np.array([[1.0, 0, 0, -1.0]])
        res = mf.trace_past_to_time(m, x0, v0, 0.0)
        assert not res.ok[0] and not res.lost[0]
        assert 1.0 < res.x[0, 3] <= 1.0 + 3.0 / mf.GRID_START
        assert res.x[0, 0] == pytest.approx(3.0 - res.x[0, 3], abs=1e-12)

    def test_closed_form_matches_integrator_to_the_past(self, flrw):
        x0, v0 = np.array([1.0, 0, 0, 0]), np.array([1.0, 0.6, 0, 0.8])
        ref_x, _ = mf.flrw_closed_form_ray(flrw, x0, v0, -0.3)
        res = mf.trace_past_to_time(flrw, x0[None], v0[None], ref_x[0])
        ref = np.append(ref_x, 0.3)
        err = np.abs(np.append(res.x[0], res.lam[0]) - ref).max()
        assert err <= mf.GRID_TOL * np.abs(ref).max()


BOUNDED_FLRW = mf.MetricSpec.flrw(
    p=2 / 3, bounds=[[0.0, np.inf], [-10, 10], [-10, 10], [-1.0, 1.0]]
)


#: Coordinates on, inside and beyond the bounds of BOX, and non-finite ones.
SPECIAL_COORDS = [0.0, -0.0, 1.0, -1.0, 2.9, -2.9, 3.5, np.nan, np.inf, -np.inf]
BOX = [[0, np.inf]] + [[-2.9, 2.9]] * 3


class TestInDomain:
    # the four coordinate tests are chained column by column; they must
    # give numpy's own all() over the last axis

    @pytest.mark.parametrize("shape", [(0, 4), (4,), (1, 4), (2000, 4), (7, 5, 4)])
    def test_matches_numpy_all(self, shape):
        m = mf.MetricSpec.flrw(p=2 / 3, bounds=BOX)
        rng = np.random.default_rng(len(shape) * 10 + shape[0])
        x = np.where(
            rng.random(shape) < 0.5,
            rng.choice(SPECIAL_COORDS, size=shape),
            rng.uniform(-4.0, 4.0, size=shape),
        )
        lo, hi = m.bounds[:, 0], m.bounds[:, 1]
        expected = np.all((x > lo) & (x < hi), axis=-1)
        got = m.in_domain(x)
        assert np.shape(got) == expected.shape and np.asarray(got).dtype == bool
        assert np.array_equal(got, expected)


class TestBatchedIntegrator:
    # Rows from different times down to t = 0.5; the fourth runs into the
    # z = 1 edge of the chart.
    X0 = np.array(
        [
            [1.0, 0, 0, 0],
            [1.2, 0.3, -0.2, 0.1],
            [0.8, 0, 0, 0.5],
            [1.0, 0, 0, 0.9],
            [0.9, 0, 0.1, 0],
        ]
    )
    DIRS = np.array(
        [[0, 0.6, 0.8], [0.6, 0, -0.8], [1.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]]
    )

    def test_batch_matches_single_row_calls(self):
        # the batch shares its number of nodes, so its rows agree with the
        # single-row traces to the grid tolerance
        m = BOUNDED_FLRW
        v0 = mf.future_null_directions(m, self.X0, self.DIRS)
        res = mf.trace_past_to_time(m, self.X0, v0, 0.5)
        assert res.ok.tolist() == [True, True, True, False, True]
        assert res.x[3, 3] > 1.0 and not np.any(res.lost)
        for b in range(len(self.X0)):
            one = mf.trace_past_to_time(m, self.X0[b : b + 1], v0[b : b + 1], 0.5)
            assert one.ok[0] == res.ok[b] and one.lost[0] == res.lost[b]
            if res.ok[b]:
                end = np.append(res.x[b], res.lam[b])
                err = np.abs(end - np.append(one.x[0], one.lam[0])).max()
                assert err <= 2.0 * mf.GRID_TOL * max(1.0, np.abs(end).max())

    def test_one_metric_evaluation_per_lockstep_step(self, monkeypatch):
        # one jet per RK4 stage of each node, for the whole live batch, also
        # after the rows that leave the chart are compacted away; the
        # anisotropic chart takes the per-node loop
        m = mf.metric_from_config(
            dict(ANISOTROPIC_METRIC, bounds=[[0, None], [None, None], [None, None], [-1, 1]])
        )
        v0 = mf.future_null_directions(m, self.X0, self.DIRS)
        calls = _count_metric_calls(monkeypatch)
        levels = _record_levels(monkeypatch)
        res = mf.trace_past_to_time(m, self.X0, v0, 0.5)
        assert res.ok.tolist() == [True, True, True, False, True]
        assert calls == {"metric_diag": 1, "jet": 4 * sum(n for n, _ in levels)}

    def test_bad_inputs(self, flrw):
        x0 = np.array([[1.0, 0, 0, 0]])
        v0 = np.array([[1.0, 0, 0, 1.0]])
        with pytest.raises(ValueError, match="batched"):
            mf.trace_past_to_time(flrw, x0[0], v0[0], 0.5)
        with pytest.raises(OutOfDomainError, match="below the target"):
            mf.trace_past_to_time(flrw, x0, v0, 1.5)
        with pytest.raises(OutOfDomainError, match=re.escape("[-1.0, -0.0, -0.0, -0.0]")):
            mf.trace_past_to_time(flrw, -x0, v0, -2.0)
        res = mf.trace_past_to_time(flrw, x0, [[1.0, 0, 0, np.nan]], 0.5)
        assert not res.ok[0]


class TestConformalTime:
    def test_static_factor(self):
        assert mf.conformal_time(mf.MetricSpec.flrw(p=0.0), 5.0) == pytest.approx(5.0)

    def test_matter_era_exponent(self):
        assert mf.conformal_time(mf.MetricSpec.flrw(p=2 / 3), 1.0) == pytest.approx(
            3.0, rel=1e-10
        )

    def test_radiation_era_exponent(self):
        assert mf.conformal_time(mf.MetricSpec.flrw(p=0.5), 4.0) == pytest.approx(
            4.0, rel=1e-10
        )

    def test_quadrature_path_matches_closed_form(self):
        m = mf.MetricSpec.flrw(a_expr="t ** (2 / 3)")
        assert mf.conformal_time(m, 1.0) == pytest.approx(3.0, rel=1e-9)

    def test_divergent_exponent(self):
        with pytest.raises(DivergentIntegralError):
            mf.conformal_time(mf.MetricSpec.flrw(p=1.5), 1.0)

    def test_divergent_quadrature(self):
        with pytest.raises(DivergentIntegralError):
            mf.conformal_time(mf.MetricSpec.flrw(a_expr="t"), 1.0)

    @pytest.mark.parametrize("a_expr", ["t-0.5", "t-0.3"])
    def test_scale_factor_through_zero_diverges(self, a_expr):
        # t-0.5 vanishes at a quadrature node (it used to raise ZeroDivisionError);
        # t-0.3 changes sign, where quadrature returned a finite principal value
        m = mf.metric_from_config({"kind": "flrw", "a_expr": a_expr})
        with pytest.raises(DivergentIntegralError):
            mf.conformal_time(m, 1.0)

    @pytest.mark.parametrize("p", [2 / 3, 0.5, -1.0])
    def test_a_float_time_matches_its_element_of_the_array_call(self, p):
        # Python's float power differed from numpy's array power in the last
        # bit on about 4.6% of these times at p = 2/3
        m = mf.MetricSpec.flrw(p=p)
        times = np.random.default_rng(3).uniform(1e-3, 10.0, size=2000)
        singles = [mf.conformal_time(m, t) for t in times.tolist()]
        assert all(type(eta) is float for eta in singles)
        assert singles == mf.conformal_time(m, times).tolist()

    @pytest.mark.parametrize(
        "metric",
        [mf.MetricSpec.minkowski(), mf.MetricSpec.flrw(p=2 / 3), mf.MetricSpec.flrw(p=-1.0)],
        ids=["minkowski", "p2/3", "p-1"],
    )
    def test_a_float_a_0d_and_a_1_element_array_agree_bit_for_bit(self, metric):
        # the scalar path tests t <= 0 on the float; its arithmetic is the array's
        bits = lambda v: np.float64(v).tobytes()
        for t in np.random.default_rng(8).uniform(1e-3, 10.0, size=300).tolist() + [np.nan]:
            for t_from in (0.0, 0.3):
                got = [mf.conformal_time(metric, s, t_from) for s in (t, np.array(t))]
                one = mf.conformal_time(metric, np.array([t]), t_from)
                assert [type(v) for v in got] == [float, float] and one.shape == (1,)
                assert bits(got[0]) == bits(got[1]) == bits(one[0])

    @pytest.mark.parametrize("t", [0.0, -0.0, -1e-300, -np.inf], ids=repr)
    def test_times_at_or_below_zero_raise_on_every_path(self, t, recwarn):
        m = mf.MetricSpec.flrw(p=2 / 3)
        for s in (t, np.array(t), np.array([t]), np.array([1.0, t])):
            with pytest.raises(OutOfDomainError, match="defined for t > 0"):
                mf.conformal_time(m, s)
        assert not recwarn.list

    def test_nan_time_gives_nan_without_a_warning(self, recwarn):
        m = mf.MetricSpec.flrw(p=2 / 3)
        assert math.isnan(mf.conformal_time(m, math.nan))
        assert math.isnan(mf.conformal_time(m, np.array(math.nan)))
        assert np.isnan(mf.conformal_time(m, np.array([math.nan, 1.0]))).tolist() == [True, False]
        assert not recwarn.list

    def test_quadrature_over_an_array_of_repeated_times(self):
        m = mf.metric_from_config({"kind": "flrw", "a_expr": "t**0.5"})
        t = np.array([[1.0, 0.25, 1.0], [0.25, 4.0, 1.0]])
        eta = mf.conformal_time(m, t)
        assert eta.shape == t.shape
        assert eta.tolist() == [[mf.conformal_time(m, s) for s in row] for row in t.tolist()]

    @pytest.mark.parametrize(
        "cfg, t_from, expected",
        [
            ({"p": 1.5}, 0.3, (0.3**-0.5 - 1.0) / 0.5),
            ({"p": 1.0}, 0.3, math.log(1.0 / 0.3)),
            ({"a_expr": "t**1.5"}, 0.3, (0.3**-0.5 - 1.0) / 0.5),
            ({"a_expr": "t-0.5"}, 0.6, math.log(5.0)),
        ],
        ids=["p1.5", "p1", "expr-t**1.5", "expr-t-0.5"],
    )
    def test_interval_from_a_cauchy_slice(self, cfg, t_from, expected):
        # each used to raise, as eta was taken from t = 0, where it diverges
        m = mf.metric_from_config(dict(cfg, kind="flrw"))
        assert mf.conformal_time(m, 1.0, t_from) == pytest.approx(expected, rel=1e-13)
        assert mf.conformal_time(m, t_from, 1.0) == pytest.approx(-expected, rel=1e-13)
        assert mf.conformal_time(m, t_from, t_from) == 0.0

    @pytest.mark.parametrize("a_expr", ["t*1e308*10", "-t*1e308*10"])
    def test_infinite_scale_factor_is_refused(self, a_expr):
        # 1/a was 0 at every node, so the interval came back 0
        m = mf.metric_from_config({"kind": "flrw", "a_expr": a_expr})
        with pytest.raises(DivergentIntegralError, match=r"inf at t = 0\.75 is not finite"):
            mf.conformal_time(m, np.array([1.0, 0.75]), 0.5)

    @pytest.mark.parametrize(
        "a_expr, t_from, interval",
        [("t**-0.5", 0.0, 2 / 3), ("1/(t-0.5)", 0.5, 0.125)],
        ids=["singularity", "target"],
    )
    def test_infinite_scale_factor_at_the_lower_end_is_left_out(self, a_expr, t_from, interval):
        # a is inf at t_from (the singularity 0, or a target time), where
        # 1/a still integrates
        m = mf.metric_from_config({"kind": "flrw", "a_expr": a_expr})
        assert mf.conformal_time(m, 1.0, t_from) == pytest.approx(interval, rel=1e-12)

    def test_negative_scale_factor_is_refused(self):
        # 1/a is finite on [0, 1], so only the sign check stops -ln 2
        m = mf.metric_from_config({"kind": "flrw", "a_expr": "-1-t"})
        refusal = "scale factor -2 at t = 1 is not positive"
        with pytest.raises(DivergentIntegralError, match=refusal):
            mf.conformal_time(m, 1.0)

    @pytest.mark.parametrize("p", [2 / 3, 0.5, -1.0])
    def test_power_law_interval_is_the_difference_of_its_ends(self, p):
        # the closed-form images keep their bytes from 2 t_from up; below it
        # the difference cancels and the interval is taken from t - t_from
        m = mf.MetricSpec.flrw(p=p)
        times = np.random.default_rng(5).uniform(0.6, 10.0, size=200)
        eta = mf.conformal_time(m, times, 0.3)
        assert eta.tolist() == (mf.conformal_time(m, times) - mf.conformal_time(m, 0.3)).tolist()

    @pytest.mark.parametrize("p, k, t_from", [(2 / 3, -1, 0.5), (1.0, -1, 0.3), (2 / 3, 1, 0.5)],
                             ids=["eta-p2/3", "eta-p1", "lambda-p2/3"])
    def test_power_law_interval_near_its_target_keeps_its_digits(self, p, k, t_from):
        # t^q / q - t_from^q / q cancelled: one ulp above t_from = 0.5, the
        # p = 2/3 conformal interval was 2.5 times the true one; the affine
        # length (k = 1) is that integral over a(t) = t^p
        m = mf.MetricSpec.flrw(p=p)
        ulp = math.nextafter(t_from, 1.0) - t_from
        for d in [ulp, 1e-13, 1e-10, -1e-13, 0.4 * t_from, -0.4 * t_from]:
            t = t_from + d
            with decimal.localcontext(prec=50):  # exact in the float exponent and ends
                q, a, b = 1 + k * decimal.Decimal(p), decimal.Decimal(t), decimal.Decimal(t_from)
                want = (a / b).ln() if q == 0 else (a**q - b**q) / q
                want = float(want / a ** decimal.Decimal(p) if k > 0 else want)
            got = mf._scale_integral(m, t, t_from, k)
            assert abs(got - want) <= 1e-15 * abs(want), d

    @pytest.mark.parametrize(
        "a_expr", ["t**1.5", "1e20 * t"], ids=["t**1.5", "1e20*t"]
    )
    def test_divergent_quadrature_never_comes_back_finite(self, a_expr):
        # quad's extrapolation returned -2.0 for t**1.5
        with pytest.raises(DivergentIntegralError):
            mf.conformal_time(mf.MetricSpec.flrw(a_expr=a_expr), 1.0)

    def test_steep_but_convergent_quadrature(self):
        m = mf.MetricSpec.flrw(a_expr="t**0.9")
        assert mf.conformal_time(m, 1.0) == pytest.approx(10.0, rel=1e-9)

    def test_needs_positive_time(self):
        with pytest.raises(OutOfDomainError):
            mf.conformal_time(mf.MetricSpec.flrw(p=0.5), 0.0)
        with pytest.raises(OutOfDomainError):
            mf.conformal_time(mf.MetricSpec.flrw(p=0.5), np.array([1.0, -0.1]))

    @pytest.mark.parametrize(
        "metric",
        [
            mf.MetricSpec.minkowski(),
            mf.MetricSpec.flrw(p=2 / 3),
            mf.MetricSpec.flrw(a_expr="t**0.5"),
        ],
    )
    def test_arrays_match_scalar_calls(self, metric):
        ts = np.array([[0.2, 1.0], [2.5, 4.0]])
        out = mf.conformal_time(metric, ts)
        assert out.shape == ts.shape
        scalar = [[mf.conformal_time(metric, float(t)) for t in row] for row in ts]
        assert np.allclose(out, scalar, rtol=1e-14, atol=0.0)


def _integral_per_call(fn, lo, hi):
    """`manifold._integral` as it was before its rule became a table built
    at import: the nodes and weights of every level computed on each call,
    by the same formulas in the same order."""
    rows, total = np.arange(len(hi)), np.zeros(len(hi))
    for level in range(mf._TS_LEVELS):
        h = mf._TS_STEP / 2**level
        j = np.arange(-int(mf._TS_RANGE / h), int(mf._TS_RANGE / h) + 1)
        u = h * (j if level == 0 else j[j % 2 == 1])
        q = np.exp(-np.pi * np.abs(np.sinh(u)))
        gap = (hi[rows, None] - lo) * (q / (1 + q))
        t = np.where(u <= 0, lo + gap, hi[rows, None] - gap)
        inner, f = gap != 0, np.zeros(t.shape)
        with np.errstate(all="ignore"):
            f[inner] = fn(t[inner])
            terms = gap * (np.pi * np.cosh(u) / (1 + q)) * f
        new = total[rows] / 2 + h * terms.sum(axis=1)
        settled = np.abs(new - total[rows]) <= mf._TS_TOL * np.abs(new)
        total[rows], rows = new, rows[~settled]
        if not len(rows):
            return total
    raise AssertionError("quadrature did not converge")


class TestQuadratureRule:
    """`_integral` reads its nodes and weights from a table built once at
    import, calls the integrand once for levels 0 and 1, and keeps the bits
    of the rule computed on every call, one call per level."""

    @staticmethod
    def _cases():
        """(fn, lo, hi): the integrands e0 / A and e0 A of the README chart
        and of a = t^0.5 over several times, and the steep 1 / t^0.9."""
        times = np.array([0.31, 0.45, 0.6, 1.0, 2.5, 7.0])
        readme = mf.metric_from_config(README_METRIC)
        root, steep = (mf.MetricSpec.flrw(a_expr=a) for a in ("t**0.5", "t**0.9"))
        runs = [(m, lo, times, c) for m, lo in ((readme, 0.3), (root, 0.0), (root, 0.3))
                for c in (np.divide, np.multiply)]
        runs.append((steep, 0.0, np.array([1.0]), np.divide))
        return [(lambda s, m=m, c=c: c(*mf._t_legs(m, s, rate=False)[:2]), lo, hi)
                for m, lo, hi, c in runs]

    def test_table_keeps_the_bits_of_the_per_call_rule(self):
        for fn, lo, hi in self._cases():
            assert mf._integral(fn, lo, hi).tobytes() == _integral_per_call(fn, lo, hi).tobytes()

    def test_one_ulp_on_one_weight_moves_the_bits(self, monkeypatch):
        # the comparison above sees a table that is off by one ulp
        rule = list(mf._TS_RULE)
        steps, left, frac, weight = rule[0]
        weight = weight.copy()
        node = (0, 0, weight.shape[-1] // 2 - 2)  # level 0's u = -1: most nodes' ulp is lost in the sum
        weight[node] = np.nextafter(weight[node], np.inf)
        rule[0] = (steps, left, frac, weight)
        monkeypatch.setattr(mf, "_TS_RULE", tuple(rule))
        assert any(mf._integral(fn, lo, hi).tobytes() != _integral_per_call(fn, lo, hi).tobytes()
                   for fn, lo, hi in self._cases())

    @staticmethod
    def _readme(k=np.divide):
        return lambda s, m=mf.metric_from_config(README_METRIC): k(*mf._t_legs(m, s, rate=False)[:2])

    @staticmethod
    def _assert_same_bits(fn, lo, hi):
        assert mf._integral(fn, lo, hi).tobytes() == _integral_per_call(fn, lo, hi).tobytes()

    def test_many_times_that_settle_at_different_levels(self):
        hi = 0.3 + 10.0 ** np.random.default_rng(44).uniform(-12, 1.5, 200)
        for k in (np.divide, np.multiply):
            self._assert_same_bits(self._readme(k), 0.3, hi)
        levels, fn = set(), self._readme()  # one fn call for levels 0 and 1, then one per level
        for t in hi:
            calls = []
            mf._integral(lambda s: calls.append(s) or fn(s), 0.3, np.array([t]))
            levels.add(len(calls))
        assert len(levels) > 1

    @pytest.mark.parametrize("t", [0.3000001, 0.45, 0.6, 1.0, 2.5, 7.0, 40.0])
    def test_single_times(self, t):
        for k in (np.divide, np.multiply):
            self._assert_same_bits(self._readme(k), 0.3, np.array([t]))

    def test_empty_intervals_settle_at_level_0(self):
        # a zero-width row has no inner node, sums to 0 and settles at
        # level 0; beside wider rows, level 1 reads the unsettled rows only
        calls, readme = [], self._readme()
        fn = lambda s: calls.append(s.size) or readme(s)
        assert mf._integral(fn, 0.3, np.array([0.3])).tolist() == [0.0] and calls == [0]
        for hi in ([0.3, 1.0, 0.3, 2.0], [1.0, 0.3]):
            self._assert_same_bits(fn, 0.3, np.array(hi))

    @pytest.mark.parametrize("lo", [0.0, 1e-300, 0.3, 2.0])
    def test_one_ulp_wide_intervals(self, lo):
        # nodes (hi - lo) q / (1 + q) from an end: below 1e-300 some gaps
        # underflow to 0, and at 0 every one does
        hi = np.array([np.nextafter(lo, np.inf), 1.0])
        for k in (np.divide, np.multiply):
            self._assert_same_bits(self._readme(k), lo, hi)

    @staticmethod
    def _level_nodes(lo, hi):
        """The inner nodes of levels 0 and 1 as a call per level sees them."""
        calls = []
        _integral_per_call(lambda s: calls.append(s.copy()) or np.ones(s.shape), lo, hi)
        return calls[:2]

    def test_a_non_finite_term_is_named_by_its_level(self):
        # terms of level 0 are tested before those of level 1, so a bad node
        # on each names level 0's, and a bad node on level 1 alone its own
        hi = np.array([1.0])
        level0, level1 = self._level_nodes(0.0, hi)
        bad0, bad1 = level0[10], level1[5]
        for bad, named in (([bad1, bad0], bad0), ([bad1], bad1)):
            fn = lambda s, bad=bad: np.where(np.isin(s, bad), np.inf, 1.0)
            with pytest.raises(DivergentIntegralError,
                               match=re.escape(f"integrand inf at t = {named:.12g}")):
                mf._integral(fn, 0.0, hi)

    def test_an_error_the_integrand_raises_names_the_level_0_node_first(self):
        # one call holds every level-0 node, row by row, before any level-1
        # node, so the first bad node is the one a call per level meets
        hi = np.array([1.0, 2.0])
        level0, level1 = self._level_nodes(0.0, hi)
        row0_level1, row1_level0 = level1[5], level0[len(level0) - 5]
        assert row0_level1 < 1.0 < row1_level0

        def fn(s):
            bad = np.isin(s, [row0_level1, row1_level0])
            if bad.any():
                raise DivergentIntegralError(f"bad at t = {s[bad][0]!r}")
            return np.ones(s.shape)

        for integral in (mf._integral, _integral_per_call):
            with pytest.raises(DivergentIntegralError, match=re.escape(f"t = {row1_level0!r}")):
                integral(fn, 0.0, hi)

    def test_no_rule_arithmetic_per_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the rule is rebuilt")

        fn, lo, hi = self._cases()[0]
        want, arange, ranges = mf._integral(fn, lo, hi), np.arange, []
        for name in ("sinh", "cosh", "exp"):
            monkeypatch.setattr(np, name, refuse)
        monkeypatch.setattr(np, "arange", lambda *args: ranges.append(args) or arange(*args))
        assert mf._integral(fn, lo, hi).tobytes() == want.tobytes()
        assert ranges == [(len(hi),)]  # the row index; no node index

    @pytest.mark.parametrize("config", [README_METRIC, {"kind": "flrw", "a_expr": "t**0.5"}],
                             ids=["readme", "a_expr"])
    def test_one_time_takes_no_sort_and_keeps_its_bits(self, config, monkeypatch):
        m, t = mf.metric_from_config(config), 1.37
        many = np.array([2.0, t, 0.8, t, 2.0, 5.0])
        want = {fn: fn(m, many, 0.3)[1] for fn in (mf.conformal_time, mf.affine_length)}
        assert all(want[fn] == fn(m, many, 0.3)[3] for fn in want)
        unique, sorts = np.unique, []

        def counting_unique(*args, **kwargs):
            sorts.append(np.shape(args[0]))
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        for fn, value in want.items():
            for one in (t, np.array(t), np.array([t])):
                got = fn(m, one, 0.3)
                assert np.shape(got) == np.shape(one)  # a 0-d time, as a float, gives a float
                assert np.asarray(got).tobytes() == np.full(np.shape(one), value).tobytes()
        assert sorts == []
        mf.conformal_time(m, many, 0.3)
        assert sorts == [(6,)]


class TestFutureNullDirections:
    def test_flat_space_dictionary(self):
        # the covector (1, 0) labels the null vector annihilated by it
        m = mf.MetricSpec.minkowski()
        sample = sky.SkySample(xi=np.array([[1.0 + 0j, 0.0]]))
        v = mf.future_null_directions(m, np.zeros((1, 4)), sample.directions())[0]
        assert np.allclose(v, [1, 0, 0, -1])
        psi = spinor.factor_null(v)
        assert abs(sample.xi[0] @ psi) <= 1e-14

    def test_antipodal_points_give_opposite_spatial_parts(self):
        m = mf.MetricSpec.minkowski()
        d = np.array([[0.0, 0.6, 0.8], [0.0, -0.6, -0.8]])
        v = mf.future_null_directions(m, np.zeros((2, 4)), d)
        assert np.allclose(v[0, 1:], -v[1, 1:])

    def test_null_at_random_cosmology_points(self, flrw):
        rng = np.random.default_rng(1)
        sample = sky.sample_sky(50, scheme="random", seed=2)
        for _ in range(10):
            x = np.array([rng.uniform(0.2, 3.0), *rng.normal(size=3)])
            v = mf.future_null_directions(
                flrw, np.tile(x, (sample.n, 1)), sample.directions()
            )
            assert np.abs(flrw.norm(x, v)).max() <= 1e-12
            assert np.allclose(v[:, 0], 1.0)

    def test_one_event_per_ray(self, flrw):
        rng = np.random.default_rng(3)
        xs = np.column_stack([rng.uniform(0.2, 3.0, 20), rng.normal(size=(20, 3))])
        d = sky.sample_sky(20, scheme="random", seed=4).directions()
        v = mf.future_null_directions(flrw, xs, d)
        assert np.abs(flrw.norm(xs, v)).max() <= 1e-12
        for k in range(20):
            one = mf.future_null_directions(flrw, xs[k : k + 1], d[k : k + 1])
            assert np.array_equal(v[k], one[0])


class TestConfig:
    def test_power_law_config(self):
        m = mf.metric_from_config({"kind": "flrw", "p": 0.5})
        assert m.exponent == 0.5

    def test_expression_config(self):
        m = mf.metric_from_config(
            {
                "kind": "custom",
                "coeffs": ["1", "-(1 + 0.1*t)**2", "-(1 + 0.1*t)**2", "-(1+0.1*t)**2"],
                "bounds": [[0, None], [None, None], [None, None], [None, None]],
            }
        )
        g = m.metric_diag(np.array([2.0, 0, 0, 0]))
        assert g[1] == pytest.approx(-1.44)

    def test_expression_rejects_calls(self):
        with pytest.raises(ValueError, match="disallowed syntax"):
            mf.metric_from_config({"kind": "flrw", "a_expr": "__import__('os')"})

    def test_expression_rejects_unknown_names(self):
        # a scale factor is a function of t only; x was read as 0
        for src, name in (("t + q", "q"), ("t + x", "x")):
            with pytest.raises(ValueError, match=f"unknown name '{name}'"):
                mf.metric_from_config({"kind": "flrw", "a_expr": src})

    @pytest.mark.parametrize("cfg", [{"p": 0.5, "a_expr": "t**0.5"}, {}], ids=["both", "neither"])
    def test_flrw_takes_exactly_one_scale_factor(self, cfg):
        # with both, p won and the expression was dropped
        with pytest.raises(ValueError, match="give exactly one of the exponent p"):
            mf.metric_from_config(dict(cfg, kind="flrw"))

    @pytest.mark.parametrize("src", ["t*2**3/7", "-1e400*t*t-1", "t+1e400-1e400"])
    def test_constant_parts_are_checked_not_folded(self, src):
        # the check evaluates parts in float arithmetic; the tree keeps its
        # constants, and an infinite or NaN part passes to the signature guards
        assert ast.dump(ex._parse_expression(src)) == ast.dump(ast.parse(src, mode="eval").body)

    @pytest.mark.parametrize("src", ["2**0.5/3", "-(7/3)**-2", "2**1023*1.5", "3**40+1"])
    def test_constant_values_are_pythons(self, src):
        # folded constants keep the value the compiled expression computes
        assert ex._constant(ex._parse_expression(f"t+({src})").right) == float(eval(src))

    def test_nan_coefficient_is_a_lost_signature(self):
        # (1+t)**1.2 is NaN for t < -1: the chart was built, with warnings,
        # and the first ray there raised OutOfDomainError
        cfg = {"kind": "custom", "coeffs": ["1", "-(1+t)**2", "-(1+t)**1.2", "-(1+t)**0.5"]}
        with warnings.catch_warnings(), pytest.raises(ValueError) as err:
            warnings.simplefilter("error")
            mf.metric_from_config(cfg)
        point = re.search(r"at \[([^,]+),", str(err.value))
        assert "do not have signature" in str(err.value) and float(point[1]) < -1.0

    def test_signature_checked_on_grid(self):
        with pytest.raises(ValueError):
            mf.MetricSpec.custom_diagonal(["-1"] * 4)

    def test_scale_factor_expression(self):
        m = mf.metric_from_config({"kind": "flrw", "a_expr": "t**0.5"})
        assert mf.conformal_time(m, 4.0) == pytest.approx(4.0, rel=1e-8)


class TestTracePastToTime:
    def test_flat_space_target(self):
        m = mf.MetricSpec.minkowski()
        x0 = np.array([[1.0, 0, 0, 0], [2.0, 1, 0, 0]])
        v0 = np.array([[1.0, 0, 0, 1], [1.0, 1, 0, 0]])
        res = mf.trace_past_to_time(m, x0, v0, 0.0)
        assert np.all(res.ok)
        assert np.allclose(res.x[:, 0], 0.0, atol=1e-10)
        assert np.allclose(res.x[0], [0, 0, 0, -1], atol=1e-10)
        assert np.allclose(res.x[1], [0, -1, 0, 0], atol=1e-10)
        assert np.allclose(res.lam, [1.0, 2.0], atol=1e-10)

    def test_spatial_domain_exit_flags_ray(self):
        m = mf.MetricSpec.minkowski(
            bounds=[[-np.inf, np.inf], [-0.5, 0.5], [-10, 10], [-10, 10]]
        )
        x0 = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]])
        v0 = np.array([[1.0, 1, 0, 0], [1.0, 0, 0, 1]])
        res = mf.trace_past_to_time(m, x0, v0, 0.0)
        assert not res.ok[0]
        assert res.ok[1]


def _record_levels(monkeypatch):
    """(n, result) of every grid level the tracer marches, in order, with
    the arrays copied as they were returned: a `_t_level` of the keyed
    starts on a chart of t alone, else a `_march`; both take n last."""
    levels = []

    def recording(level):
        def wrapper(*args):
            res = level(*args)
            frozen = {k: np.copy(v) for k, v in vars(res).items()}
            levels.append((args[-1], mf.TraceResult(**frozen)))
            return res

        return wrapper

    for name in ("_march", "_t_level"):
        monkeypatch.setattr(mf, name, recording(getattr(mf, name)))
    return levels


def _record_settles(monkeypatch):
    """The masks of the rows that each `_settled` call settles, in order."""
    masks, settled = [], mf._settled
    monkeypatch.setattr(mf, "_settled", lambda c, f: masks.append(settled(c, f)) or masks[-1])
    return masks


def _passes(coarse, fine):
    """The step-doubling test of two levels over the rows that arrived at both."""
    both = coarse.ok & fine.ok
    end = np.column_stack([fine.x[both, 1:], fine.lam[both]])
    ref = np.column_stack([coarse.x[both, 1:], coarse.lam[both]])
    err = np.abs(end - ref).max(axis=1) / 15.0
    return bool(np.all(err <= mf.GRID_TOL * np.maximum(np.abs(end).max(axis=1), 1.0)))


def _rays(m, times, seed=0):
    """Future null rays from (t, 0.1, -0.2, 0.3) along seeded directions."""
    x0 = np.array([[t, 0.1, -0.2, 0.3] for t in times])
    dirs = np.random.default_rng(seed).normal(size=(len(times), 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return x0, mf.future_null_directions(m, x0, dirs)


class TestCoordinateTimeGrid:
    @pytest.mark.parametrize("metric", ["flrw", "aniso"])
    def test_one_metric_evaluation_per_grid_node(self, monkeypatch, metric):
        if metric == "flrw":
            m = mf.MetricSpec.flrw(p=2 / 3)
        else:
            m = mf.metric_from_config(ANISOTROPIC_METRIC)
        x0, v0 = _rays(m, [0.6, 1.0, 1.5, 0.7])
        calls = _count_metric_calls(monkeypatch)
        levels = _record_levels(monkeypatch)
        res = mf.trace_past_to_time(m, x0, v0, 0.5)
        assert np.all(res.ok)
        sizes = [n for n, _ in levels]
        assert sizes[:2] == [mf.GRID_START, 2 * mf.GRID_START]
        # metric_diag for the anisotropic start legs only (FLRW legs are
        # a(t)); at each grid node the per-node loop's jet once per RK4
        # stage, FLRW's slope in closed form
        assert calls["metric_diag"] == (1 if metric == "aniso" else 0)
        assert calls["jet"] == (4 * sum(sizes) if metric == "aniso" else 0)

    @pytest.mark.parametrize("t_target, graded", [(0.5, True), (0.0, False)])
    def test_levels_start_at_four_and_ln_t_nodes_are_graded(
        self, monkeypatch, t_target, graded
    ):
        m = mf.metric_from_config(ANISOTROPIC_METRIC)  # one step per node
        x0, v0 = _rays(m, [1.0, 0.8])
        steps = []
        rk4 = mf._rk4_step
        monkeypatch.setattr(
            mf, "_rk4_step", lambda rhs, y, h: steps.append(h.copy()) or rk4(rhs, y, h)
        )
        levels = _record_levels(monkeypatch)
        mf.trace_past_to_time(m, x0, v0, t_target)
        assert mf.GRID_START == 4 and levels[0][0] == 4
        first = np.array(steps[:4])  # (node, row)
        span = (np.log(t_target) - np.log(x0[:, 0])) if graded else t_target - x0[:, 0]
        assert np.allclose(first.sum(axis=0), span, rtol=1e-13)
        # node k at the fraction (k/4)^2 of each row's span in ln t
        weights = np.array([1, 3, 5, 7]) / 16 if graded else np.full(4, 0.25)
        assert np.allclose(first, weights[:, None] * span, rtol=1e-13)

    @pytest.mark.parametrize(
        "t_target, times", [(0.5, [0.6, 1.0, 1.7, 0.5]), (0.0, [0.6, 1.0, 1.7, 0.2])]
    )
    def test_arrived_rows_land_on_the_level_exactly(self, t_target, times):
        # a level above 0 is marched in ln t (one row starts on it), the
        # level 0 in t
        m = mf.metric_from_config(README_METRIC)
        x0, v0 = _rays(m, times)
        res = mf.trace_past_to_time(m, x0, v0, t_target)
        assert np.all(res.ok)
        assert np.all(res.x[:, 0] == t_target)

    def test_grid_stops_at_the_first_level_whose_estimate_passes(self, monkeypatch):
        # toward the singularity cutoff of a matter-era cosmology
        m = mf.MetricSpec.flrw(p=2 / 3)
        x0, v0 = _rays(m, [1.0] * 6, seed=3)
        levels = _record_levels(monkeypatch)
        res = mf.trace_past_to_time(m, x0, v0, 1e-9)
        sizes = [n for n, _ in levels]
        assert sizes == [mf.GRID_START * 2**k for k in range(len(sizes))]
        assert len(sizes) >= 3
        assert all(np.all(r.ok) and len(r.ok) == 6 for _, r in levels)
        verdicts = [_passes(a, b) for (_, a), (_, b) in zip(levels, levels[1:])]
        assert verdicts == [False] * (len(verdicts) - 1) + [True]
        last = levels[-1][1]
        assert np.array_equal(res.x, last.x) and np.array_equal(res.lam, last.lam)
        assert np.all(res.ok) and not np.any(res.lost)

    def test_returned_levels_do_not_change_afterwards(self, monkeypatch):
        # the result was built on the first level's arrays, so writing the
        # finer levels into it rewrote that level after it was returned
        m = mf.MetricSpec.flrw(p=2 / 3)
        x0, v0 = _rays(m, [1.0] * 6, seed=3)
        returned = []
        level = mf._t_level  # the levels of a chart of t alone

        def keeping(*args):
            res = level(*args)
            returned.append((res, {k: np.copy(v) for k, v in vars(res).items()}))
            return res

        monkeypatch.setattr(mf, "_t_level", keeping)
        mf.trace_past_to_time(m, x0, v0, 1e-9)
        assert len(returned) >= 2
        for res, frozen in returned:
            for name, value in frozen.items():
                assert np.array_equal(getattr(res, name), value), name

    @pytest.mark.parametrize("p", [1.0, -1.0, 2 / 3])
    def test_closed_form_ray_against_the_scale_integrals(self, p):
        # p = 1 and p = -1 divided by zero; the past ray from t0 (v0 = 1)
        # moves by the conformal interval along its direction and has the
        # affine length from t0 down to its time
        m = mf.MetricSpec.flrw(p=p)
        x0, n = np.array([1.3, 0.1, -0.2, 0.4]), np.array([0.6, 0.0, 0.8])
        v0 = mf.future_null_directions(m, x0[None], n[None])[0]
        for lam in (-0.05, -0.3, -0.6):
            x, v = mf.flrw_closed_form_ray(m, x0, v0, lam)
            assert 0.0 < x[0] < x0[0]
            eta = mf.conformal_time(m, x[0], x0[0])
            assert np.allclose(x[1:], x0[1:] + eta * n, rtol=0, atol=1e-14)
            assert mf.affine_length(m, x0[0], x[0]) == pytest.approx(-lam, rel=1e-13)
            assert abs(m.norm(x, v)) <= 1e-14 and v[0] > 0.0

    def test_cauchy_trace_matches_the_closed_form(self):
        m = mf.MetricSpec.flrw(p=2 / 3)
        p, t_target = 2 / 3, 0.25
        x0, v0 = _rays(m, [1.0, 0.8, 1.3, 0.5], seed=5)
        res = mf.trace_past_to_time(m, x0, v0, t_target)
        assert np.all(res.ok)
        for b in range(len(x0)):
            cmag = x0[b, 0] ** p * v0[b, 0]
            lam = (t_target ** (1 + p) - x0[b, 0] ** (1 + p)) / ((1 + p) * cmag)
            ref_x, _ = mf.flrw_closed_form_ray(m, x0[b], v0[b], lam)
            assert ref_x[0] == pytest.approx(t_target, rel=1e-12)
            ref = np.append(ref_x[1:], -lam)
            end = np.append(res.x[b, 1:], res.lam[b])
            assert np.abs(end - ref).max() <= mf.GRID_TOL * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize(
        "metric, t_target",
        [("readme", 0.3), ("readme", 0.0), ("lapse", 0.3), ("lapse", 0.0), (2 / 3, 0.25),
         (0.5, 0.2), (2 / 3, 1e-9), (0.5, 1e-9)],
        ids=["readme-0.3", "readme-0", "lapse-0.3", "lapse-0", "p0.667-0.25", "p0.5-0.2",
             "p0.667-cutoff", "p0.5-cutoff"],
    )
    def test_end_points_match_the_exact_references(self, metric, t_target):
        # conformally flat charts: the end point lies eta(t0) - eta(t_target)
        # along the start direction, and lambda integrates e0 a(t) / (a(t0) v0),
        # with the lapse e0 = a on the lapse chart
        if metric == "readme":
            m = mf.metric_from_config(README_METRIC)
            eta = lambda t: 10.0 * np.log1p(0.1 * t)
            lam = lambda t0, t1: (t0 - t1 + 0.05 * (t0**2 - t1**2)) / (1 + 0.1 * t0)
        elif metric == "lapse":
            m = mf.metric_from_config(LAPSE_METRIC)
            eta = lambda t: t
            cube = lambda t: (1 + 0.1 * t) ** 3 / 0.3
            lam = lambda t0, t1: (cube(t0) - cube(t1)) / (1 + 0.1 * t0) ** 2
        else:
            p = metric
            m = mf.MetricSpec.flrw(p=p)
            eta = lambda t: t ** (1 - p) / (1 - p)
            lam = lambda t0, t1: (t0 ** (1 + p) - t1 ** (1 + p)) / ((1 + p) * t0**p)
        times = np.array([1.0, 0.8, 1.3, 0.5, 1.2, 2.0])
        x0 = np.column_stack([times, np.tile([0.1, -0.2, 0.3], (6, 1))])
        dirs = np.random.default_rng(5).normal(size=(6, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        res = mf.trace_past_to_time(m, x0, mf.future_null_directions(m, x0, dirs), t_target)
        assert np.all(res.ok) and np.all(res.x[:, 0] == t_target)
        gap = eta(times) - eta(t_target)
        ref = np.column_stack([x0[:, 1:] - gap[:, None] * dirs, lam(times, t_target)])
        end = np.column_stack([res.x[:, 1:], res.lam])
        scale = np.maximum(np.abs(ref).max(axis=1), 1.0)
        assert np.all(np.abs(end - ref).max(axis=1) <= mf.GRID_TOL * scale)

    def test_rows_leaving_the_domain_leave_the_others_unchanged(self, monkeypatch):
        m = mf.metric_from_config(
            dict(README_METRIC, bounds=[[0, None], [-0.3, 0.3], [None, None], [None, None]])
        )
        x0 = np.array([[1.0, 0, 0, 0]] * 5 + [[0.8, 0.1, 0, 0]])
        dirs = np.array(
            [[0, 1.0, 0], [1.0, 0, 0], [0, 0.6, 0.8], [-1.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]]
        )
        v0 = mf.future_null_directions(m, x0, dirs)
        stay = np.array([True, False, True, False, True, True])
        levels = _record_levels(monkeypatch)
        full = mf.trace_past_to_time(m, x0, v0, 0.5)
        sizes = [n for n, _ in levels]
        levels.clear()
        kept = mf.trace_past_to_time(m, x0[stay], v0[stay], 0.5)
        assert [n for n, _ in levels] == sizes
        assert full.ok.tolist() == stay.tolist() and not np.any(full.lost)
        for name in ("x", "n", "log_e", "lam", "ok", "lost"):
            assert np.array_equal(getattr(full, name)[stay], getattr(kept, name))

    def test_rows_that_failed_at_both_levels_settle(self, monkeypatch):
        # a matter-era chart cut at |x|, |y|, |z| < 2.9, to the singularity
        # cutoff: row 0 leaves it at N = 4 and at N = 8 while the arrived
        # rows' estimate still fails; it used to march again at 16 and 32
        m = mf.MetricSpec.flrw(p=2 / 3, bounds=BOX)
        x0 = np.tile([1.0, 0.1, -0.2, 0.3], (6, 1))
        dirs = sky.sample_sky(6, scheme="random", seed=0).directions()
        v0 = mf.future_null_directions(m, x0, dirs)
        levels = _record_levels(monkeypatch)
        res = mf.trace_past_to_time(m, x0, v0, 1e-9)
        assert [(n, len(r.ok)) for n, r in levels] == [(4, 6), (8, 6), (16, 5), (32, 5)]
        assert not np.any(levels[0][1].ok[:1] | levels[1][1].ok[:1])
        assert res.ok.tolist() == [False] + [True] * 5 and not np.any(res.lost)
        assert res.lam[0] == levels[1][1].lam[0]  # from the level that settled it
        levels.clear()
        alone = mf.trace_past_to_time(m, x0[1:], v0[1:], 1e-9)
        assert [n for n, _ in levels] == [4, 8, 16, 32]
        for name, value in vars(alone).items():
            assert getattr(res, name)[1:].tobytes() == value.tobytes(), name

    def test_rows_unsettled_at_the_cap_come_back_lost(self, monkeypatch):
        # no step-doubling estimate passes a negative tolerance, so no row
        # settles
        m = mf.metric_from_config(README_METRIC)
        x0, v0 = _rays(m, [0.6, 1.0, 1.5])
        monkeypatch.setattr(mf, "GRID_TOL", -1.0)
        monkeypatch.setattr(mf, "GRID_CAP", 4 * mf.GRID_START)
        levels = _record_levels(monkeypatch)
        res = mf.trace_past_to_time(m, x0, v0, 0.5)
        assert [n for n, _ in levels] == [mf.GRID_START * 2**k for k in range(3)]
        assert not np.any(res.ok) and np.all(res.lost)
        assert res.reason.dtype == np.int8 and np.all(res.reason == mf.UNSETTLED)


class TestRowMajorStates:
    # The README chart's scale on x alone, an anisotropic chart that takes
    # the per-node loop, cut at x = 0.4652002: the ray along +x moves as on
    # the README chart and ends at 0.46520033 on the first level and at
    # 0.46520017 on the second, so it leaves at the last node first and
    # then arrives, and refines alone; the ray from x = 0.3 along +x leaves
    # halfway on every level
    BOUNDED = dict(
        README_METRIC,
        coeffs=["1", "-(1 + 0.1*t)**2", "-1", "-1"],
        bounds=[[0, None], [-1, 0.4652002], [None, None], [None, None]],
    )
    X0 = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0], [1.0, 0.3, 0, 0]])
    DIRS = np.array([[-1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0]])

    def test_every_stepped_state_is_row_major(self, monkeypatch):
        seen, level = [], [0]  # (level, rows, C-contiguous) per RK4 stage
        march, rk4 = mf._march, mf._rk4_step

        def marching(m, t0, y0, t_target, n):
            level[0] = n
            return march(m, t0, y0, t_target, n)

        def stepping(rhs, y, h):
            def spy(c, y):
                seen.append((level[0], y.shape[1], y.flags.c_contiguous))
                return rhs(c, y)

            return rk4(spy, y, h)

        monkeypatch.setattr(mf, "_march", marching)
        monkeypatch.setattr(mf, "_rk4_step", stepping)
        m = mf.metric_from_config(self.BOUNDED)
        res = mf.trace_past_to_time(m, self.X0, mf.future_null_directions(m, self.X0, self.DIRS), 0.5)
        assert res.ok.tolist() == [True, True, False] and not np.any(res.lost)
        widths = {n: [w for k, w, _ in seen if k == n] for n, _, _ in seen}
        assert list(widths) == [4, 8, 16]
        first, compacted, gathered = widths[4][0] == 3, min(widths[4]) == 2, widths[16][0] == 1
        assert first and compacted and gathered
        assert all(contiguous for _, _, contiguous in seen)

    def test_a_column_major_start_marches_to_the_same_bits(self):
        m = mf.metric_from_config(self.BOUNDED)
        y0 = mf._bundle_start(m, self.X0, mf.future_null_directions(m, self.X0, self.DIRS))
        assert y0.flags.c_contiguous
        rows = mf._march(m, self.X0[:, 0], y0, 0.5, 8)
        cols = mf._march(m, self.X0[:, 0], np.asfortranarray(y0), 0.5, 8)
        assert rows.ok.tolist() == [True, True, False]
        for name, value in vars(rows).items():
            assert getattr(cols, name).tobytes() == value.tobytes(), name


def _node_by_node_slope(m, s, y, log):
    """The flat and FLRW slope of whole (8, B) sky-bundle states, for the
    node-by-node reference march."""
    t = np.exp(s) if log else s
    n, e0, speed, dn, dlog_e = y[3:6], 1.0, 1.0, 0.0, 0.0  # flat space
    if m.kind == "flrw":
        speed = 1.0 / m.scale_factor(t)
        dlog_e = -m.scale_factor_dot(t) * speed
    out = np.empty_like(y)
    out[:3], out[3:6], out[6], out[7] = -speed * n, dn, dlog_e, -e0 * np.exp(-y[6])
    return (t if log else 1.0) * out


def _node_by_node_march(m, t0, y0, t_target, n):
    """The reference of `_t_level`: the per-node loop that stepped the
    (8, B) states of flat and FLRW charts, with its numpy axis reductions."""
    log = t_target > 0.0
    s0 = np.log(t0) if log else t0
    span = (math.log(t_target) if log else t_target) - s0
    nodes = (np.arange(n + 1) / n) ** (2 if log else 1)
    y, t = y0.copy(), np.full(len(t0), float(t_target))
    reason = np.full(len(t0), mf.ARRIVED, dtype=np.int8)
    live, yl = np.arange(len(t0)), y0
    for k in range(1, n + 1):
        s, hk = s0 + nodes[k - 1] * span, (nodes[k] - nodes[k - 1]) * span
        yl = mf._rk4_step(lambda c, y: _node_by_node_slope(m, s + c * hk, y, log), yl, hk)
        yl[3:6] /= np.sqrt(np.sum(yl[3:6] ** 2, axis=0))
        inside = (yl[:3].T > m.bounds[1:, 0]) & (yl[:3].T < m.bounds[1:, 1])
        keep = np.all(inside, axis=1) & np.all(np.isfinite(yl[3:]), axis=0)
        if not keep.all():
            gone = live[~keep]
            y[:, gone], t[gone] = yl[:, ~keep], (np.exp(s + hk) if log else s + hk)[~keep]
            finite = np.all(np.isfinite(y[:, gone]), axis=0)
            reason[gone] = np.where(finite, mf.LEFT_BOUNDS, mf.NON_FINITE)
            live, yl, s0, span = live[keep], np.compress(keep, yl, 1), s0[keep], span[keep]
    y[:, live] = yl
    return mf.TraceResult(np.column_stack([t, y[:3].T]), y[3:6].T, y[6], y[7], reason)


#: (metric, target level, start times) of the t-only march checks; the
#: starts repeat and differ, and on BOX some rays leave the chart.
T_ONLY_CASES = {
    "flat-0": (lambda: mf.MetricSpec.minkowski(), 0.0, [3.0, 1.0, 1.0, 0.5, 2.0, 3.0]),
    "p0.667-cutoff": (lambda: mf.MetricSpec.flrw(p=2 / 3), 1e-9, [1.0, 1.0, 0.8, 1.3, 1.0, 2.0]),
    "p0.5-cauchy0.2": (lambda: mf.MetricSpec.flrw(p=0.5), 0.2, [1.0, 0.8, 1.3, 1.0, 0.5, 0.2]),
    "a_expr-0.3": (
        lambda: mf.metric_from_config({"kind": "flrw", "a_expr": "t**0.6666666666666666"}),
        0.3,
        [1.1, 1.1, 0.9, 2.0, 0.5, 1.1],
    ),
    "box-cutoff": (lambda: mf.MetricSpec.flrw(p=2 / 3, bounds=BOX), 1e-9, [1.0] * 4 + [1.5, 2.0]),
}


def _t_only_rays(name, nan_v0=False):
    """(metric, level, x0, v0) of a case: points in (-2.5, 2.5)^3, seeded
    directions; with nan_v0 the third ray's velocity is NaN."""
    make, level, times = T_ONLY_CASES[name]
    m = make()
    rng = np.random.default_rng(1)
    x0 = np.column_stack([times, rng.uniform(-2.5, 2.5, (len(times), 3))])
    v0 = mf.future_null_directions(m, x0, sky.sample_sky(len(times)).directions())
    if nan_v0:
        v0[2] = np.nan
    return m, level, x0, v0


def _assert_matches_node_by_node(got, want):
    """ln E, lambda, ok, lost and the times byte-equal; end points and n
    within 1e-14 max(1, |end|), NaN where the reference has NaN."""
    for name in ("log_e", "lam", "ok", "lost"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.x[:, 0].tobytes() == want.x[:, 0].tobytes()
    for name in ("x", "n"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(np.isnan(a), np.isnan(b)), name
        gap = np.abs(np.nan_to_num(a) - np.nan_to_num(b))
        assert np.all(gap <= 1e-14 * np.maximum(1.0, np.abs(np.nan_to_num(b)))), name


class TestTOnlyMarch:
    """Flat and FLRW charts march each distinct start once (`_t_level`)."""

    @pytest.mark.parametrize("nan_v0", [False, True], ids=["finite", "nan-v0"])
    @pytest.mark.parametrize("case", list(T_ONLY_CASES))
    def test_matches_the_node_by_node_march(self, case, nan_v0):
        m, level, x0, v0 = _t_only_rays(case, nan_v0)
        with np.errstate(all="ignore"):
            y0 = mf._bundle_start(m, x0, v0)
            for n in (4, 8, 16, 32):
                got = _t_march(m, x0[:, 0], y0, level, n)
                want = _node_by_node_march(m, x0[:, 0], y0, level, n)
                _assert_matches_node_by_node(got, want)
        if case == "box-cutoff":
            assert 0 < np.count_nonzero(got.ok) < len(got.ok)
        assert not (nan_v0 and got.ok[2])

    def test_a_negative_zero_start_keeps_its_sign(self):
        # flat space adds -0.0 to ln E on the way down to 0; starts that
        # differ only in the sign of a zero ln E are marched apart
        m, level, x0, v0 = _t_only_rays("flat-0")
        y0 = mf._bundle_start(m, x0, v0)
        y0[6, ::2] = -0.0
        got = _t_march(m, x0[:, 0], y0, level, 4)
        _assert_matches_node_by_node(got, _node_by_node_march(m, x0[:, 0], y0, level, 4))
        assert np.signbit(got.log_e).tolist() == [True, False] * 3

    @pytest.mark.parametrize("case", list(T_ONLY_CASES))
    def test_traces_match_the_node_by_node_march(self, monkeypatch, case):
        m, level, x0, v0 = _t_only_rays(case, nan_v0=True)
        got = mf.trace_past_to_time(m, x0, v0, level)
        monkeypatch.setattr(mf, "_t_only", lambda m: False)  # each level a `_march`
        monkeypatch.setattr(mf, "_march", _node_by_node_march)
        want = mf.trace_past_to_time(m, x0, v0, level)
        _assert_matches_node_by_node(got, want)

    @pytest.mark.parametrize("case", ["flat-0", "p0.667-cutoff", "box-cutoff"])
    def test_a_row_does_not_depend_on_its_companions(self, case):
        m, level, x0, v0 = _t_only_rays(case)
        y0 = mf._bundle_start(m, x0, v0)
        batches = {
            "alone": [0],
            "duplicates": [0, 0, 0, 0, 0],
            "distinct starts": [3, 4, 0, 5, 2],
        }
        for n in (4, 16):
            rows = {}
            for name, index in batches.items():
                res = _t_march(m, x0[index, 0], np.take(y0, index, 1), level, n)
                rows[name] = [getattr(res, f)[index.index(0)].tobytes() for f in vars(res)]
            assert rows["duplicates"] == rows["alone"]
            assert rows["distinct starts"] == rows["alone"]

    def test_rk4_steps_per_level_do_not_grow_with_nodes(self, monkeypatch):
        m, level, x0, v0 = _t_only_rays("p0.667-cutoff")
        y0 = mf._bundle_start(m, x0, v0)
        steps = []
        rk4 = mf._rk4_step
        monkeypatch.setattr(
            mf, "_rk4_step", lambda rhs, y, h: steps.append(h.size) or rk4(rhs, y, h)
        )
        sizes = (4, 16, 64, 256, 1024)
        assert sizes[-1] * (len(x0) + 5) <= mf._BLOCK_CELLS  # one block each
        counts = []
        for n in sizes:
            steps.clear()
            _t_march(m, x0[:, 0], y0, level, n)
            counts.append(len(steps))
            assert all(size == 4 * n for size in steps)  # 4 distinct starts
        # the lambda pass; the D and ln E increments take no stage states
        assert counts == [1] * len(sizes)

    @pytest.mark.parametrize("case", ["p0.5-cauchy0.2", "box-cutoff"])
    def test_blocks_carry_the_rows_to_the_same_bits(self, monkeypatch, case):
        m, level, x0, v0 = _t_only_rays(case, nan_v0=True)
        y0 = mf._bundle_start(m, x0, v0)
        whole = _t_march(m, x0[:, 0], y0, level, 64)
        monkeypatch.setattr(mf, "_BLOCK_CELLS", 3 * (len(x0) + 5))  # a few nodes a block
        blocked = _t_march(m, x0[:, 0], y0, level, 64)
        for name, value in vars(whole).items():
            assert getattr(blocked, name).tobytes() == value.tobytes(), name


def _two_pass_slope(m, s, y, log):
    """The flat and FLRW slope of the rows D, ln E and lambda (3, R) that
    the two-pass reference evaluates at every stage of both steps."""
    t = np.exp(s) if log else s
    speed, dlog_e = 1.0, 0.0  # flat space
    if m.kind == "flrw":
        speed = 1.0 / m.scale_factor(t)
        dlog_e = -m.scale_factor_dot(t) * speed
    out = np.empty_like(y)
    out[0], out[1], out[2] = -speed, dlog_e, -1.0 * np.exp(-y[1])
    return (t if log else 1.0) * out


def _two_pass_march(m, t0, y0, t_target, n):
    """The reference of the stage lookups in `_t_level`: the t-only march
    whose two `_rk4_step` calls evaluate the slope at each of their eight
    stages, a(t) and a'(t) included."""
    log = t_target > 0.0
    nodes = (np.arange(n + 1) / n) ** (2 if log else 1)
    keys = np.column_stack([t0, y0[6], y0[7]]).view(np.dtype((np.void, 24)))
    _, first, start = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    b, u = len(t0), len(first)
    s0 = np.log(t0[first]) if log else t0[first]
    span = (math.log(t_target) if log else t_target) - s0
    x0, n = y0[:3], y0[3:6] / np.sqrt(np.sum(y0[3:6] ** 2, axis=0))
    state = np.vstack([np.zeros(u), y0[6:, first]])[:, None]
    t, end = np.full(b, float(t_target)), np.empty((3, b))
    reason = np.full(b, mf.ARRIVED, dtype=np.int8)
    live = np.arange(b)
    block = max(1, mf._BLOCK_CELLS // (b + u + 1))
    for k0 in range(0, len(nodes) - 1, block):
        if not len(live):
            break
        k1 = min(len(nodes) - 1, k0 + block)
        s = (s0 + nodes[k0:k1, None] * span).ravel()
        h = ((nodes[k0 + 1 : k1 + 1] - nodes[k0:k1])[:, None] * span).ravel()
        rhs = lambda c, y: _two_pass_slope(m, s + c * h, y, log)
        state = np.concatenate([state[:, -1:], np.empty((3, k1 - k0, u))], axis=1)
        y = np.full((3, len(h)), -0.0)
        state[:2, 1:] = mf._rk4_step(rhs, y, h)[:2].reshape(2, -1, u)
        np.cumsum(state[:2], axis=1, out=state[:2])
        y[1] = state[1, :-1].ravel()
        state[2, 1:] = mf._rk4_step(rhs, y, h)[2].reshape(-1, u)
        np.cumsum(state[2], axis=0, out=state[2])
        at = start[live]
        d = state[0, 1:][:, at]
        points = x0[:, None, live] + n[:, None, live] * d
        finite = (np.isfinite(state[1, 1:]) & np.isfinite(state[2, 1:]))[:, at]
        left = ~(mf._inside(m, points.reshape(3, -1)).reshape(d.shape) & finite)
        gone = left.any(axis=0)
        k, g, at = left.argmax(axis=0)[gone], live[gone], at[gone]
        t_end = s.reshape(-1, u)[k, at] + h.reshape(-1, u)[k, at]
        t[g], end[:, g] = np.exp(t_end) if log else t_end, state[:, k + 1, at]
        rows = np.vstack([x0[:, g] + n[:, g] * end[0, g], end[1:, g]])
        finite = np.all(np.isfinite(rows), axis=0)
        reason[g] = np.where(finite, mf.LEFT_BOUNDS, mf.NON_FINITE)
        live = live[~gone]
    end[:, live] = state[:, -1, start[live]]
    x = np.column_stack([t, (x0 + n * end[0]).T])
    return mf.TraceResult(x, n.T, end[1], end[2], reason)


class TestStageLookups:
    """`_t_level` evaluates its slope factors once per stage time and both
    steps look them up; flat and FLRW traces keep every bit."""

    @pytest.mark.parametrize("nan_v0", [False, True], ids=["finite", "nan-v0"])
    @pytest.mark.parametrize("case", list(T_ONLY_CASES))
    def test_matches_the_two_pass_march_bit_for_bit(self, case, nan_v0):
        m, level, x0, v0 = _t_only_rays(case, nan_v0)
        with np.errstate(all="ignore"):
            y0 = mf._bundle_start(m, x0, v0)
            for n in (4, 8, 16, 32, 64):
                got = _t_march(m, x0[:, 0], y0, level, n)
                want = _two_pass_march(m, x0[:, 0], y0, level, n)
                for name, value in vars(want).items():
                    assert getattr(got, name).tobytes() == value.tobytes(), (name, n)

    @pytest.mark.parametrize("case", ["p0.5-cauchy0.2", "box-cutoff"])
    def test_blocks_match_the_two_pass_march_bit_for_bit(self, monkeypatch, case):
        m, level, x0, v0 = _t_only_rays(case, nan_v0=True)
        monkeypatch.setattr(mf, "_BLOCK_CELLS", 3 * (len(x0) + 5))  # a few nodes a block
        with np.errstate(all="ignore"):
            y0 = mf._bundle_start(m, x0, v0)
            got = _t_march(m, x0[:, 0], y0, level, 64)
            want = _two_pass_march(m, x0[:, 0], y0, level, 64)
        for name, value in vars(want).items():
            assert getattr(got, name).tobytes() == value.tobytes(), name

    @pytest.mark.parametrize("case", ["p0.667-cutoff", "a_expr-0.3"])
    def test_three_scale_factor_evaluations_per_node(self, monkeypatch, case):
        # a(t) once per stage time c = 0, 1/2, 1, over all nodes x starts
        # of the block at once; the two steps used to evaluate it 8 times
        m, level, x0, v0 = _t_only_rays(case)
        y0 = mf._bundle_start(m, x0, v0)
        sizes, scale = [], mf.MetricSpec.scale_factor
        counting = lambda self, t: sizes.append(np.size(t)) or scale(self, t)
        monkeypatch.setattr(mf.MetricSpec, "scale_factor", counting)
        _t_march(m, x0[:, 0], y0, level, 64)
        starts = len(np.unique(np.column_stack([x0[:, 0], y0[6]]), axis=0))
        assert sizes == [64 * starts] * 3


class TestNodeKeepChains:
    # the per-node test of the custom-chart loop chains its rows; it must
    # give numpy's axis reductions on the (B, 3) transpose and the rows

    @pytest.mark.parametrize("bounds", [BOX, None], ids=["box", "unbounded"])
    @pytest.mark.parametrize("width", [0, 1, 7, 500])
    def test_matches_the_axis_reductions(self, bounds, width):
        m = mf.MetricSpec.minkowski(bounds=bounds)
        rng = np.random.default_rng(width)
        y = np.where(
            rng.random((8, width)) < 0.3,
            rng.choice(SPECIAL_COORDS, size=(8, width)),
            rng.uniform(-4.0, 4.0, size=(8, width)),
        )
        if width:
            y[:, 0] = 0.0  # a zero row
        inside = (y[:3].T > m.bounds[1:, 0]) & (y[:3].T < m.bounds[1:, 1])
        keep = np.all(inside, axis=1) & np.all(np.isfinite(y[3:]), axis=0)
        finite = np.all(np.isfinite(y), axis=0)
        codes = np.where(keep, mf.ARRIVED, np.where(finite, mf.LEFT_BOUNDS, mf.NON_FINITE))
        got = mf._node_fate(m, y)
        assert np.array_equal(got == mf.ARRIVED, keep) and np.array_equal(got, codes)
        every = {mf.ARRIVED, mf.NON_FINITE} | ({mf.LEFT_BOUNDS} if bounds else set())
        assert width < 500 or set(got.tolist()) == every


class TestRunTimeSignatureGuard:
    # g11 is positive for 0.4 < t < 0.6 and negative on every point of the
    # construction-time grid (t = 0.002, 1, 1.998)
    BAND = dict(README_METRIC, coeffs=["1", "0.01 - (t-0.5)**2", "-1", "-1"])

    def test_integrator_names_the_first_wrong_node(self):
        # marched in t to the level 0 in steps of 0.25, the first stage to
        # reach the band is the second step's last, at t = 0.5
        m = mf.metric_from_config(self.BAND)
        x0 = np.array([[1.0, 0, 0, 0], [1.0, 0.2, 0, 0]])
        v0 = mf.future_null_directions(m, x0, np.array([[0, 1.0, 0], [0, 0, 1.0]]))
        message = re.escape("(+,-,-,-) at [0.5, 0.0, -0.5, 0.0]")
        with pytest.raises(ValueError, match=message):
            mf.trace_past_to_time(m, x0, v0, 0.0)
        # every stage above the band passes
        assert np.all(mf.trace_past_to_time(m, x0, v0, 0.625).ok)

    def test_integrator_names_a_nan_node(self):
        # g11 is NaN for 0.4 < t < 0.6, between the construction-time grid
        # points; the rays turned NaN and came back not ok, with no reason
        m = mf.metric_from_config(
            dict(README_METRIC, coeffs=["1", "-((t-0.5)**2 - 0.01)**0.5 - 1", "-1", "-1"])
        )
        x0 = np.array([[1.0, 0, 0, 0], [1.0, 0.2, 0, 0]])
        v0 = mf.future_null_directions(m, x0, np.array([[0, 1.0, 0], [0, 0, 1.0]]))
        with pytest.raises(ValueError, match=re.escape("(+,-,-,-) at [0.5, ")):
            mf.trace_past_to_time(m, x0, v0, 0.0)

    def test_tracer_raises_inside_the_bounds_only(self):
        m = mf.metric_from_config(self.BAND)
        x0, v0 = _rays(m, [1.0, 0.9])
        with pytest.raises(ValueError, match="do not have signature"):
            mf.trace_past_to_time(m, x0, v0, 0.2)
        # g11 = x*x - 0.0901 is wrong beyond |x| = 0.30017, outside the
        # bounds; a row that steps out there comes back not ok, as before
        m = mf.metric_from_config(
            dict(
                README_METRIC,
                coeffs=["1", "x*x - 0.0901", "-1", "-1"],
                bounds=[[0, None], [-0.3, 0.3], [None, None], [None, None]],
            )
        )
        x0 = np.array([[1.0, 0.29, 0, 0], [1.0, 0, 0, 0]])
        v0 = mf.future_null_directions(m, x0, np.array([[-1.0, 0, 0], [0, 0, 1.0]]))
        res = mf.trace_past_to_time(m, x0, v0, 0.5)
        assert res.ok.tolist() == [False, True]
        assert m.metric_diag(res.x[0])[1] > 0.0 and not m.in_domain(res.x[0])


def _on_the_loop(cfg):
    """The metric of cfg with its t-only route switched off, so that
    `_march` steps it node by node with `_bundle_slope`."""
    m = mf.metric_from_config(cfg)
    m._expressions.t_jet = None
    return m


def _count_routes(monkeypatch):
    """Counts of the `_t_level` calls and of the `_metric_jet` calls (the
    per-node loop's) made from now on, and the n of each `_march` call."""
    calls = _count_metric_calls(monkeypatch)
    t_level, march = mf._t_level, mf._march
    calls.update(t_level=0, march=[])

    def counting(*args):
        calls["t_level"] += 1
        return t_level(*args)

    monkeypatch.setattr(mf, "_t_level", counting)
    monkeypatch.setattr(mf, "_march", lambda *a: calls["march"].append(a[-1]) or march(*a))
    return calls


#: The signature error of a chart of t alone whose signature is first read
#: lost at the stage time t = 0.5, named at the point of the bounds nearest
#: the origin (`_t_legs`).
REFUSED_AT_HALF = re.escape("(+,-,-,-) at [0.5, 0.0, 0.0, 0.0]")


def _assert_refused_on_the_ladder(monkeypatch, m, x0, v0):
    """The trace of (x0, v0) to the level 0 on the chart of t alone m raises
    REFUSED_AT_HALF from its first level, with no `_march` and no
    `_metric_jet` call."""
    calls = _count_routes(monkeypatch)
    with pytest.raises(ValueError, match=REFUSED_AT_HALF):
        mf.trace_past_to_time(m, x0, v0, 0.0)
    assert calls["t_level"] == 1 and calls["march"] == [] and calls["jet"] == 0


def _assert_matches_the_loop(got, want):
    """ok, lost and the times equal; end points, n, ln E and lambda within
    1e-14 max(1, |end|), NaN where the loop has NaN."""
    for name in ("ok", "lost"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
    assert got.x[:, 0].tobytes() == want.x[:, 0].tobytes()
    for name in ("x", "n", "log_e", "lam"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(np.isnan(a), np.isnan(b)), name
        gap = np.abs(np.nan_to_num(a) - np.nan_to_num(b))
        assert np.all(gap <= 1e-14 * np.maximum(1.0, np.abs(np.nan_to_num(b)))), name


class TestIsotropicCustomCharts:
    """Custom charts of t alone with three equal spatial coefficients take
    `_t_level`; the others keep the per-node loop."""

    @pytest.mark.parametrize(
        "coeffs",
        [
            README_METRIC["coeffs"],
            LAPSE_METRIC["coeffs"],
            ["1", "-1", "-1", "-1"],
            ["1", "-(1 + 0.1*t)**2", "-(1+0.1*t)**2", "- ( 1 + 0.1 * t ) ** 2 "],
        ],
        ids=["readme", "lapse", "flat", "whitespace"],
    )
    def test_take_the_t_only_march(self, monkeypatch, coeffs):
        m = mf.metric_from_config(dict(README_METRIC, coeffs=coeffs))
        assert m._expressions.t_jet is not None
        x0, v0 = _rays(m, [1.0, 0.8])
        calls = _count_routes(monkeypatch)
        assert np.all(mf.trace_past_to_time(m, x0, v0, 0.3).ok)
        assert calls["t_level"] >= 2 and calls["jet"] == 0 and calls["march"] == []

    @pytest.mark.parametrize(
        "cfg",
        [
            ANISOTROPIC_METRIC,
            dict(
                README_METRIC,
                coeffs=["1", "x*x - 0.0901", "-1", "-1"],
                bounds=[[0, None], [-0.3, 0.3], [None, None], [None, None]],
            ),
        ],
        ids=["aniso", "x-dependent"],
    )
    def test_other_charts_keep_the_loop(self, monkeypatch, cfg):
        m = mf.metric_from_config(cfg)
        assert m._expressions.t_jet is None
        x0, v0 = _rays(m, [1.0, 0.8])
        x0[:, 1] = 0.0
        calls = _count_routes(monkeypatch)
        mf.trace_past_to_time(m, x0, v0, 0.5)
        assert calls["t_level"] == 0 and calls["jet"] > 0

    @pytest.mark.parametrize(
        "cfg, level",
        [(README_METRIC, 0.3), (dict(README_METRIC, bounds=BOX), 0.0),
         (LAPSE_METRIC, 1e-9), (dict(LAPSE_METRIC, bounds=BOX), 0.3)],
        ids=["readme", "readme-box", "lapse", "lapse-box"],
    )
    @pytest.mark.parametrize("nan_v0", [False, True], ids=["finite", "nan-v0"])
    def test_matches_the_per_node_loop(self, monkeypatch, cfg, level, nan_v0):
        m, loop = mf.metric_from_config(cfg), _on_the_loop(cfg)
        times = [1.0, 1.0, 0.8, 1.3, 1.0, 2.0]
        rng = np.random.default_rng(1)
        x0 = np.column_stack([times, rng.uniform(-2.5, 2.5, (len(times), 3))])
        v0 = mf.future_null_directions(m, x0, sky.sample_sky(len(times)).directions())
        if nan_v0:
            v0[2] = np.nan
        with np.errstate(all="ignore"):
            y0 = mf._bundle_start(m, x0, v0)
            for n in (4, 8, 16, 32):
                got = _t_march(m, x0[:, 0], y0, level, n)
                _assert_matches_the_loop(got, mf._march(loop, x0[:, 0], y0, level, n))
        got = mf.trace_past_to_time(m, x0, v0, level)
        _assert_matches_the_loop(got, mf.trace_past_to_time(loop, x0, v0, level))
        if cfg["bounds"] is BOX:
            assert 0 < np.count_nonzero(got.ok) < len(got.ok)
        assert not (nan_v0 and got.ok[2])

    def test_three_coefficient_evaluations_per_node(self, monkeypatch):
        # (g00, g11, d g11 / dt) once per stage time c = 0, 1/2, 1, over
        # all nodes x starts at once
        m = mf.metric_from_config(README_METRIC)
        x0, v0 = _rays(m, [1.0, 1.0, 0.8])
        y0 = mf._bundle_start(m, x0, v0)
        sizes, jet = [], m._expressions.t_jet
        monkeypatch.setattr(
            m._expressions, "t_jet", lambda rows: sizes.append(rows[0].size) or jet(rows)
        )
        _t_march(m, x0[:, 0], y0, 0.3, 64)
        assert sizes == [64 * 2] * 3

    def test_three_leg_evaluations_per_conformal_time(self, monkeypatch):
        # the event, levels 0 and 1 together (25 + 24 inner nodes) and level
        # 2 (50), each from the coefficients alone: no d g11 / dt
        m = mf.metric_from_config(README_METRIC)
        sizes, jets = [], []
        for name, seen in (("values", sizes), ("t_jet", jets)):
            spied = getattr(m._expressions, name)
            monkeypatch.setattr(m._expressions, name,
                                lambda rows, f=spied, seen=seen: seen.append(rows[0].size) or f(rows))
        mf.conformal_time(m, 1.0, 0.3)
        assert sizes == [1, 25 + 24, 50] and jets == []


class TestIsotropicSignatureGuard:
    # g11 = g22 = g33 is positive for 0.4 < t < 0.6 and negative on every
    # point of the construction-time grid (t = 0.002, 1, 1.998)
    BAND = dict(README_METRIC, coeffs=["1"] + ["0.01 - (t-0.5)**2"] * 3)

    def test_both_routes_name_the_first_stage_in_the_band(self):
        # marched in t to the level 0 in steps of 0.25, the first stage to
        # reach the band is the second step's last, at t = 0.5; the chart of
        # t alone is refused there at the point of the bounds nearest the
        # origin, and the loop names ray 0's point, moved along -y
        x0 = np.array([[1.0, 0, 0, 0], [1.0, 0.2, 0, 0]])
        named = []
        for m in (mf.metric_from_config(self.BAND), _on_the_loop(self.BAND)):
            v0 = mf.future_null_directions(m, x0, np.array([[0, 1.0, 0], [0, 0, 1.0]]))
            with pytest.raises(ValueError, match=re.escape("(+,-,-,-) at [0.5, ")) as err:
                mf.trace_past_to_time(m, x0, v0, 0.0)
            point = re.search(r"at \[(.*)\]", str(err.value))[1]
            named.append(np.array(point.split(", "), dtype=float))
            # every stage above the band passes
            assert np.all(mf.trace_past_to_time(m, x0, v0, 0.625).ok)
        assert named[0].tolist() == [0.5, 0.0, 0.0, 0.0]
        assert named[1][[0, 1, 3]].tolist() == [0.5, 0.0, 0.0] and named[1][2] < -1.0

    def test_the_band_level_never_takes_the_per_node_loop(self, monkeypatch):
        # the first level meets the band, and `_t_legs` refuses it there
        m = mf.metric_from_config(self.BAND)
        x0 = np.array([[1.0, 0, 0, 0], [1.0, 0.2, 0, 0]])
        v0 = mf.future_null_directions(m, x0, np.array([[0, 1.0, 0], [0, 0, 1.0]]))
        _assert_refused_on_the_ladder(monkeypatch, m, x0, v0)

    @pytest.mark.parametrize("route", ["t-only", "loop"])
    def test_rays_that_left_the_chart_before_the_band(self, monkeypatch, route):
        # rays along x leave |x| < 0.3 at the first node of each level,
        # long before the band: the loop does not raise, while the chart of
        # t alone is refused at the first stage time in the band, as an
        # FLRW chart whose a(t) <= 0 there is
        cfg = dict(self.BAND, bounds=[[0, None], [-0.3, 0.3], [None, None], [None, None]])
        m = mf.metric_from_config(cfg) if route == "t-only" else _on_the_loop(cfg)
        x0 = np.array([[1.0, 0.1, 0, 0], [1.0, -0.1, 0.5, 0]])
        v0 = mf.future_null_directions(m, x0, np.array([[-1.0, 0, 0], [1.0, 0, 0]]))
        if route == "t-only":
            _assert_refused_on_the_ladder(monkeypatch, m, x0, v0)
            return
        res = mf.trace_past_to_time(m, x0, v0, 0.0)
        assert not np.any(res.ok) and np.all(res.x[:, 0] == 0.875)
        assert np.all(np.abs(res.x[:, 1]) > 0.3)
        with pytest.raises(ValueError, match="do not have signature"):
            mf.trace_past_to_time(m, x0, mf.future_null_directions(m, x0, np.eye(3)[1:]), 0.0)

    @pytest.mark.parametrize("route", ["t-only", "loop"])
    def test_a_ray_whose_affine_length_overflowed(self, monkeypatch, route):
        # E = 1e-308 makes lambda infinite at the first node; the ray has left
        # there, inside the chart, before its later stages reach the band:
        # the loop does not raise, and the chart of t alone is refused
        m = mf.metric_from_config(self.BAND) if route == "t-only" else _on_the_loop(self.BAND)
        x0, v0 = np.array([[1.0, 0, 0, 0]]), np.array([[1e-308, 0, 1.0, 0]])
        if route == "t-only":
            _assert_refused_on_the_ladder(monkeypatch, m, x0, v0)
            return
        res = mf.trace_past_to_time(m, x0, v0, 0.0)
        assert not res.ok[0] and res.lam[0] == np.inf and m.in_domain(res.x[0])


#: g11 overflows to -inf for |t - 0.5| < 0.048 and is -1 on every point of
#: the construction-time grid (t = 0.002, 1, 1.998).
OVERFLOW_BAND = "-1 - 10**(400 - 40000*(t-0.5)**2)"


class TestInfiniteCoefficients:
    """A coefficient of the right sign that is infinite inside the chart
    fails the signature guards; the rays turned NaN and came back not ok,
    with no reason."""

    @pytest.mark.parametrize("slots", [1, 3], ids=["per-node", "isotropic"])
    def test_construction_names_the_point(self, slots):
        coeffs = ["1"] + ["-1e400*t*t-1"] * slots + ["-1"] * (3 - slots)
        with pytest.raises(ValueError, match=re.escape("(+,-,-,-) at [0.002, ")):
            mf.metric_from_config(dict(README_METRIC, coeffs=coeffs))

    @pytest.mark.parametrize("route", ["per-node", "t-only", "isotropic-loop"])
    def test_tracer_names_the_first_infinite_stage(self, monkeypatch, route):
        # marched in t to the level 0 in steps of 0.25, the first stage in
        # the band is the second step's last, at t = 0.5: the loop names
        # the live ray's point there, and the chart of t alone the point of
        # the bounds nearest the origin
        slots = 1 if route == "per-node" else 3
        cfg = dict(README_METRIC, coeffs=["1"] + [OVERFLOW_BAND] * slots + ["-1"] * (3 - slots))
        m = _on_the_loop(cfg) if route == "isotropic-loop" else mf.metric_from_config(cfg)
        assert (m._expressions.t_jet is not None) == (route == "t-only")
        x0 = np.array([[1.0, 0, 0, 0], [1.0, 0.2, 0, 0]])
        v0 = mf.future_null_directions(m, x0, np.array([[0, 1.0, 0], [0, 0, 1.0]]))
        if route == "t-only":
            _assert_refused_on_the_ladder(monkeypatch, m, x0, v0)
        else:
            with pytest.raises(ValueError, match=re.escape("(+,-,-,-) at [0.5, 0.0, -0.5, 0.0]")):
                mf.trace_past_to_time(m, x0, v0, 0.0)
        assert np.all(mf.trace_past_to_time(m, x0, v0, 0.625).ok)  # above the band

    @pytest.mark.parametrize("route", ["t-only", "loop"])
    def test_an_infinite_lapse_names_the_first_stage(self, monkeypatch, route):
        # g00 = +inf in the band
        cfg = dict(README_METRIC, coeffs=["1 + 10**(400 - 40000*(t-0.5)**2)", "-1", "-1", "-1"])
        m = mf.metric_from_config(cfg) if route == "t-only" else _on_the_loop(cfg)
        x0 = np.array([[1.0, 0, 0, 0], [1.0, 0.2, 0, 0]])
        v0 = mf.future_null_directions(m, x0, np.array([[0, 1.0, 0], [0, 0, 1.0]]))
        if route == "t-only":
            _assert_refused_on_the_ladder(monkeypatch, m, x0, v0)
            return
        with pytest.raises(ValueError, match=re.escape("(+,-,-,-) at [0.5, 0.0, -0.5, 0.0]")):
            mf.trace_past_to_time(m, x0, v0, 0.0)

    @pytest.mark.parametrize("route", ["t-only", "loop"])
    def test_an_infinite_coefficient_on_an_open_bound_is_exempt(self, route):
        # g11 = -1/t is -inf at t = 0, the open end of [0, null]; the last
        # stage of the march to the level 0 sits there, and the rays leave
        # at that node with ln E NaN instead of raising
        cfg = dict(README_METRIC, coeffs=["1"] + ["-1/t"] * 3)
        m = mf.metric_from_config(cfg) if route == "t-only" else _on_the_loop(cfg)
        x0 = np.array([[1.0, 0, 0, 0], [1.0, 0.2, 0, 0]])
        v0 = mf.future_null_directions(m, x0, np.array([[0, 1.0, 0], [0, 0, 1.0]]))
        res = mf.trace_past_to_time(m, x0, v0, 0.0)
        assert not np.any(res.ok) and res.x[:, 0].tolist() == [0.0, 0.0]

    def test_the_band_chart_still_raises(self):
        m = mf.metric_from_config(dict(README_METRIC, coeffs=["1", "-(t-0.5)**2", "-1", "-1"]))
        x0 = np.array([[1.0, 0, 0, 0]])
        v0 = mf.future_null_directions(m, x0, np.array([[0, 1.0, 0]]))
        with pytest.raises(ValueError, match=re.escape("(+,-,-,-) at [0.5, 0.0, -0.5, 0.0]")):
            mf.trace_past_to_time(m, x0, v0, 0.0)


class TestLadderOnStarts:
    """On a chart of t alone the ladder keys the starts once, and each level
    marches the starts of its rays and places the rays, testing each on the
    last node of a block first; the levels keep the bits of the march that
    tests every node (`_two_pass_march`)."""

    # a = 1 + t^2 to the level 0 from t = 1: the past ray along +x moves
    # D = 0.78539813 on the first level and 0.78539816 on the second, so
    # under x < 0.78539815 the ray from x = 0 arrives at N = 4 and leaves
    # at the last node of N = 8 only; from x = 0.001 it leaves at the last
    # node of both, from x = 0.3 at an interior node of both, and along -y
    # it stays
    CFG = {
        "kind": "flrw",
        "a_expr": "1 + t*t",
        "bounds": [[0, None], [-2.0, 0.78539815], [-2.0, 2.0], [None, None]],
    }
    X0 = np.array([[1.0, 0, 0, 0], [1.0, 0.3, 0, 0], [1.0, 0, 0, 0], [1.0, 0.001, 0, 0]])
    DIRS = np.array([[-1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0]])

    def test_rays_leave_at_the_last_node_an_interior_node_or_the_finer_level(
        self, monkeypatch
    ):
        m = mf.metric_from_config(self.CFG)
        v0 = mf.future_null_directions(m, self.X0, self.DIRS)
        y0 = mf._bundle_start(m, self.X0, v0)
        levels = _record_levels(monkeypatch)
        got = mf.trace_past_to_time(m, self.X0, v0, 0.0)
        (n4, coarse), (n8, fine) = levels[:2]
        assert (n4, n8) == (4, 8) and len(fine.ok) == 4
        assert coarse.ok.tolist() == [True, False, True, False]
        assert fine.ok.tolist() == [False, False, True, False]
        assert coarse.x[1, 0] > 0.0 and fine.x[1, 0] > 0.0  # interior nodes
        assert coarse.x[3, 0] == fine.x[3, 0] == fine.x[0, 0] == 0.0  # the last ones
        for n, level in levels[:2]:
            want = _two_pass_march(m, self.X0[:, 0], y0, 0.0, n)
            for name, value in vars(want).items():
                assert getattr(level, name).tobytes() == value.tobytes(), (name, n)
        assert got.ok.tolist() == [False, False, True, False]
        monkeypatch.setattr(mf, "_t_only", lambda m: False)  # each level a `_march`
        monkeypatch.setattr(mf, "_march", _two_pass_march)
        want = mf.trace_past_to_time(m, self.X0, v0, 0.0)
        for name, value in vars(want).items():
            assert getattr(got, name).tobytes() == value.tobytes(), name

    @pytest.mark.parametrize("tracer", ["numeric", "auto"])
    def test_a_scale_factor_that_changes_sign_is_refused(self, tracer):
        # a = t - 0.55 turned D back at t = 0.55, so the ray along +x left
        # |x| < 1 at an interior node of a block whose last node was inside,
        # and every ray scanned every node; now both tracers refuse the
        # chart where they first read a <= 0
        bounds = [[0, None], [-1, 1], [None, None], [None, None]]
        m = mf.metric_from_config({"kind": "flrw", "a_expr": "t - 0.55", "bounds": bounds})
        f = fr.FrameSpec(metric=m, target=fr.CauchySurface(0.3), tracer=tracer)
        xis = spinor.cospinor_for_direction(np.array([[-1.0, 0, 0], [0, 1.0, 0]]))
        refusal = r"scale factor -\S+ at t = \S+ is not positive"
        with pytest.raises(DivergentIntegralError, match=refusal):
            fr.project_batch(f, np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]]), xis)

    @pytest.mark.parametrize("case", list(T_ONLY_CASES))
    def test_one_start_keeps_the_bits_of_many(self, case):
        # a sky image's rays share one start, which `_key_starts` spots
        # without `np.unique`; keyed among the rays of other starts, they
        # go through `np.unique` and must come back with the same bytes
        m, level, others, v_others = _t_only_rays(case, nan_v0=True)
        x0 = np.tile(others[0], (24, 1))
        v0 = mf.future_null_directions(m, x0, sky.sample_sky(24).directions())
        x, v = np.concatenate([others, x0]), np.concatenate([v_others, v0])
        with np.errstate(all="ignore"):
            one = mf._key_starts(x0[:, 0], mf._bundle_start(m, x0, v0), level)
            many = mf._key_starts(x[:, 0], mf._bundle_start(m, x, v), level)
            assert len(one.s0) == 1 and len(many.s0) > 1
            for n in (4, 8, 16, 32):
                got, among = mf._t_level(m, one, n), mf._t_level(m, many, n)
                for name, value in vars(got).items():
                    assert value.tobytes() == getattr(among, name)[6:].tobytes(), (name, n)

    #: A box about the anisotropic chart g22 = -(1 + 3t)^2: of the 12 rays
    #: from THREE_STARTS to the level 0, two leave it at N = 4 and 8 and
    #: settle there with the NaN ray, while the others refine to N = 32, on
    #: the per-node loop (`_march`).
    STIFF_BOX = {
        "kind": "custom",
        "coeffs": ["1", "-1", "-(1 + 3*t)**2", "-1"],
        "bounds": [[0, None]] + [[-1.5, 1.5]] * 3,
    }
    THREE_STARTS = [1.0] * 4 + [1.5] * 4 + [2.0] * 4

    @pytest.mark.parametrize(
        "cfg, level, times, width",
        [
            ({"kind": "flrw", "p": 2 / 3, "bounds": BOX}, 1e-9, [1.0] * 12, 2.5),
            ({"kind": "flrw", "a_expr": "1/t"}, 1e-9, [1.0] * 12, 2.5),
            ({"kind": "flrw", "p": 2 / 3, "bounds": BOX}, 1e-9, [1.0, 1.5, 0.8] * 4, 2.5),
            (STIFF_BOX, 0.0, THREE_STARTS, 1.0),
        ],
        ids=["box-cutoff", "grid-cap", "box-cutoff-starts", "anisotropic-box-starts"],
    )
    def test_each_row_is_the_level_that_settled_it(self, monkeypatch, cfg, level, times, width):
        # rows that fail at two levels settle early, the others when their
        # estimate passes, or never (a = 1/t: the central-difference a'(t)
        # reaches t < 0 near the level); each level holds the unsettled
        # rows only, as a march of those rows gathered from the batch gives
        # them, and each row of the result is, byte for byte, the level
        # that settled it (or, unsettled, the last one, lost)
        m, rng = mf.metric_from_config(cfg), np.random.default_rng(2)
        x0 = np.column_stack([times, rng.uniform(-width, width, (12, 3))])
        v0 = mf.future_null_directions(m, x0, sky.sample_sky(12).directions())
        v0[3] = np.nan
        reference = _two_pass_march if mf._t_only(m) else mf._march
        levels, settles, keys = _record_levels(monkeypatch), _record_settles(monkeypatch), []
        key_starts = mf._key_starts
        monkeypatch.setattr(mf, "_key_starts", lambda *a: keys.append(key_starts(*a)) or keys[-1])
        with np.errstate(all="ignore"):
            got = mf.trace_past_to_time(m, x0, v0, level)
            y0 = mf._bundle_start(m, x0, v0)

        def assert_gathered(n, res, rows):  # the level of the rows marched from the batch's
            with np.errstate(all="ignore"):
                want = reference(m, x0[rows, 0], y0[:, rows], level, n)
            for name, value in vars(want).items():
                assert getattr(res, name).tobytes() == value.tobytes(), (name, n)

        live, coarse, settled_at = np.arange(12), levels[0][1], np.zeros(12, dtype=int)
        assert_gathered(*levels[0], live)
        for n, fine in levels[1:]:
            assert_gathered(n, fine, live)
            done = (coarse.ok & fine.ok & _passes(coarse, fine)) | ~(coarse.ok | fine.ok)
            for name, value in vars(fine).items():
                assert getattr(got, name)[live[done]].tobytes() == value[done].tobytes(), name
            settled_at[live[done]] = n
            live, coarse = live[~done], mf.TraceResult(*(v[~done] for v in vars(fine).values()))
        for name in ("x", "n", "log_e", "lam"):
            assert getattr(got, name)[live].tobytes() == getattr(coarse, name).tobytes(), name
        assert not got.ok[live].any() and got.lost[live].all()
        assert not got.lost[settled_at > 0].any()
        assert len(np.unique(settled_at)) >= 2
        apart = [done for done in settles if 0 < done.sum() < len(done)]
        assert apart  # the batch settled apart: a level settled some of its rows only
        if mf._t_only(m):  # keyed once, and again for the rows left after each such settle
            assert [len(k.start) for k in keys] == [12] + [np.count_nonzero(~d) for d in apart]
            assert len(keys[0].s0) == len(set(times)) + 1  # the NaN ray keys its own
        else:
            assert keys == []
        if cfg.get("a_expr"):
            assert levels[-1][0] == mf.GRID_CAP and 0 < len(live) < 12

    @pytest.mark.parametrize("cells", [None, 40], ids=["one-block", "blocks"])
    @pytest.mark.parametrize("case", ["flat-0", "p0.5-cauchy0.2", "box-cutoff"])
    def test_one_start_per_ray_keeps_the_bits(self, monkeypatch, case, cells):
        # the contact suite's shape: each ray its own start
        make, level, _ = T_ONLY_CASES[case]
        m, rng = make(), np.random.default_rng(4)
        times = np.linspace(1.0, 2.0, 24)
        x0 = np.column_stack([times, rng.uniform(-2.5, 2.5, (24, 3))])
        v0 = mf.future_null_directions(m, x0, sky.sample_sky(24).directions())
        v0[3], v0[5, 0] = np.nan, 1e-308  # E = 1e-308: lambda overflows inside the chart
        if cells:
            monkeypatch.setattr(mf, "_BLOCK_CELLS", cells)  # a node or two a block
        got = mf.trace_past_to_time(m, x0, v0, level)
        with np.errstate(invalid="ignore"):
            assert len(mf._key_starts(x0[:, 0], mf._bundle_start(m, x0, v0), level).s0) == 24
        monkeypatch.setattr(mf, "_t_only", lambda m: False)
        monkeypatch.setattr(mf, "_march", _two_pass_march)
        want = mf.trace_past_to_time(m, x0, v0, level)
        for name, value in vars(want).items():
            assert getattr(got, name).tobytes() == value.tobytes(), name
        assert not (got.ok[3] or got.ok[5]) and got.lam[5] == np.inf
        if case == "box-cutoff":
            assert 0 < np.count_nonzero(got.ok) < 23

    @pytest.mark.parametrize(
        "bounds",
        [[[0, None]] + [[-2.2, 2.2]] * 3, [[0, None], [-2.1, 2.1], [None, None], [None, None]]],
        ids=["box", "slab"],
    )
    @pytest.mark.parametrize("level", [0.3, 0.0, 1e-9])
    def test_a_flat_custom_chart_matches_the_per_node_loop(self, bounds, level):
        # the isotropic chart on the ladder and forced onto the loop
        cfg = {"kind": "custom", "coeffs": ["1", "-1", "-1", "-1"], "bounds": bounds}
        m, loop = mf.metric_from_config(cfg), _on_the_loop(cfg)
        times = [1.0] * 8 + [1.5, 0.9, 1.2, 1.0]
        rng = np.random.default_rng(1)
        x0 = np.column_stack([times, rng.uniform(-2.0, 2.0, (len(times), 3))])
        v0 = mf.future_null_directions(m, x0, sky.sample_sky(len(times)).directions())
        got, want = (mf.trace_past_to_time(c, x0, v0, level) for c in (m, loop))
        assert got.ok.tolist() == want.ok.tolist() and got.lost.tolist() == want.lost.tolist()
        for name in ("log_e", "lam"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert np.all(np.abs(got.x - want.x) <= 1e-14 * np.maximum(1.0, np.abs(want.x)))
        assert 0 < np.count_nonzero(got.ok) < len(times)

    @pytest.mark.parametrize("route", ["t-only", "loop"])
    def test_a_lapse_that_vanishes_names_the_point(self, route):
        # g00 = (t - 0.5)^2 vanishes at the stage t = 0.5 of the march to 0
        # in steps of 0.25, where every slope stays finite; the last nodes
        # of the rays pass, and their stages are checked all the same
        cfg = dict(README_METRIC, coeffs=["(t-0.5)**2", "-1", "-1", "-1"])
        m = mf.metric_from_config(cfg) if route == "t-only" else _on_the_loop(cfg)
        x0 = np.array([[1.0, 0, 0, 0], [1.0, 0.2, 0, 0]])
        v0 = mf.future_null_directions(m, x0, np.array([[0, 1.0, 0], [0, 0, 1.0]]))
        with pytest.raises(ValueError, match=re.escape("(+,-,-,-) at [0.5, 0.0, ")):
            mf.trace_past_to_time(m, x0, v0, 0.0)

    @pytest.mark.parametrize("route", ["t-only", "loop"])
    def test_the_band_chart_names_a_stage_point(self, monkeypatch, route):
        # ray 0 has E = 1e-308, so its lambda overflows at the first node,
        # inside the chart; its stage at t = 0.5 comes first in the order
        # node, stage, ray but has left, and the loop names ray 1's; the
        # chart of t alone is refused at that time, whichever rays are live
        cfg = TestIsotropicSignatureGuard.BAND
        m = mf.metric_from_config(cfg) if route == "t-only" else _on_the_loop(cfg)
        x0 = np.array([[1.0, 0.2, 0, 0], [1.0, 0, 0, 0]])
        v0 = mf.future_null_directions(m, x0, np.array([[0, 1.0, 0], [0, 1.0, 0]]))
        v0[0] *= 1e-308
        if route == "t-only":
            for rays in (slice(None), slice(1)):
                _assert_refused_on_the_ladder(monkeypatch, m, x0[rays], v0[rays])
            return
        with pytest.raises(ValueError, match=re.escape("(+,-,-,-) at [0.5, 0.0, -")):
            mf.trace_past_to_time(m, x0, v0, 0.0)
        assert not mf.trace_past_to_time(m, x0[:1], v0[:1], 0.0).ok[0]


class TestLevelsThatRefuseOrStopEarly:
    """`_t_level` refuses a level that loses its signature, as the closed
    form does, and stops scanning blocks once every ray has left."""

    #: g11 = -((t - 1/2)^2 - 1e-4) turns positive for |t - 1/2| < 0.01.
    LOST = "-((t-0.5)**2 - 0.0001)"
    BOX = [[-np.inf, np.inf]] + [[-0.3, 0.3]] * 3

    @pytest.mark.parametrize("bounds", [None, BOX], ids=["unbounded", "box"])
    def test_a_level_that_loses_its_signature_is_refused(self, monkeypatch, bounds):
        # both tracers refuse the chart at the first time they read in the
        # band, t = 0.5, where the closed form integrates and the first level
        # marches, also in the box, which every ray leaves before t = 0.51
        cfg = {"kind": "custom", "coeffs": ["1"] + [self.LOST] * 3}
        if bounds is not None:
            cfg["bounds"] = bounds
        m = mf.metric_from_config(cfg)
        assert mf._t_only(m)
        calls = _count_routes(monkeypatch)
        for tracer in ("auto", "numeric"):
            f = fr.FrameSpec(metric=m, target=fr.CauchySurface(0.0), tracer=tracer)
            with pytest.raises(ValueError, match=REFUSED_AT_HALF):
                fr.sky_image(f, [1.0, 0, 0, 0], sky.sample_sky(16))
        assert calls["t_level"] == 1 and calls["march"] == [] and calls["jet"] == 0

    def test_a_level_stops_once_every_ray_has_left(self, monkeypatch):
        box = [[0.0, np.inf]] + [[-0.1, 0.1]] * 3
        m = mf.metric_from_config({"kind": "flrw", "p": 2 / 3, "bounds": box})
        f = fr.FrameSpec(metric=m, target=fr.CauchySurface(0.2), tracer="numeric")
        x0 = np.tile([1.5, 0.0, 0.0, 0.0], (16, 1))
        dirs = spinor.direction_for_cospinor(sky.sample_sky(16).xi)
        whole = fr._trace(f, x0, dirs)[1]
        assert np.all(whole.reason == mf.LEFT_BOUNDS)
        monkeypatch.setattr(mf, "_BLOCK_CELLS", 2 * (16 + 2))  # two nodes a block
        blocks, level, rates = [], mf._t_level, mf._t_rates
        monkeypatch.setattr(
            mf, "_t_level", lambda m, st, n: blocks.append([n, 0]) or level(m, st, n)
        )
        monkeypatch.setattr(
            mf, "_t_rates", lambda *a: blocks[-1].__setitem__(1, blocks[-1][1] + 1) or rates(*a)
        )
        blocked = fr._trace(f, x0, dirs)[1]
        for name, value in vars(whole).items():
            assert getattr(blocked, name).tobytes() == value.tobytes(), name
        # three stage lookups a block, in fewer blocks than the level's n / 2
        assert blocks and all(calls % 3 == 0 and calls < 3 * n // 2 for n, calls in blocks)
