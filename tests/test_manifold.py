import re

import numpy as np
import pytest

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
        g, dg = m._metric_jet(x)
        assert g.shape == (40, 4) and dg.shape == (40, 4, 4)
        assert np.array_equal(g, m.metric_diag(x))
        np.testing.assert_allclose(dg, _central_differences(m, x), rtol=1e-6, atol=1e-9)

    def test_every_partial_of_the_operator_metric_is_exercised(self):
        m = mf.metric_from_config(EVERY_OPERATOR_METRIC)
        _, dg = m._metric_jet(np.array([0.5, 0.5, 0.5, 0.5]))
        # d/dt, d/dx, d/dy and d/dz of g_11 are all nonzero
        assert np.all(dg[:, 1] != 0.0)

    def test_constant_coefficients_broadcast(self):
        m = mf.metric_from_config(README_METRIC)
        x = np.full((3, 2, 4), 0.5)
        g, dg = m._metric_jet(x)
        assert g.shape == (3, 2, 4) and dg.shape == (3, 2, 4, 4)
        assert np.all(g[..., 0] == 1.0) and np.all(dg[..., 1:, :] == 0.0)
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
        import ast

        assert ast.unparse(mf._diff(mf._parse_expression(src), name)) == expected

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


def _march_errors(m, x0, v0, lam, levels):
    """Largest end-point errors (x, v, lambda) of `_march` at each number
    of nodes against the power-law ray at the affine parameter lam > 0; the
    march runs up to the reference time, lambda falling."""
    ref_x, ref_v = mf.flrw_closed_form_ray(m, x0, v0, lam)
    y0 = mf._bundle_start(m, x0[None], v0[None])
    errs = []
    for n in levels:
        res = mf._march(m, x0[:1], y0, ref_x[0], n)
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
        # after the rows that leave the chart are compacted away
        m = mf.metric_from_config(
            dict(README_METRIC, bounds=[[0, None], [None, None], [None, None], [-1, 1]])
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
        m = mf.MetricSpec.flrw(a=lambda t: t ** (2 / 3))
        assert mf.conformal_time(m, 1.0) == pytest.approx(3.0, rel=1e-9)

    def test_divergent_exponent(self):
        with pytest.raises(DivergentIntegralError):
            mf.conformal_time(mf.MetricSpec.flrw(p=1.5), 1.0)

    def test_divergent_quadrature(self):
        with pytest.raises(DivergentIntegralError):
            mf.conformal_time(mf.MetricSpec.flrw(a=lambda t: t), 1.0)

    @pytest.mark.parametrize("a_expr", ["t-0.5", "t-0.3"])
    def test_scale_factor_through_zero_diverges(self, a_expr):
        # t-0.5 vanishes at a quadrature node (it used to raise ZeroDivisionError);
        # t-0.3 changes sign, where quadrature returned a finite principal value
        m = mf.metric_from_config({"kind": "flrw", "a_expr": a_expr})
        with pytest.raises(DivergentIntegralError):
            mf.conformal_time(m, 1.0)

    def test_steep_but_convergent_quadrature(self):
        m = mf.MetricSpec.flrw(a=lambda t: t**0.9)
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
            mf.MetricSpec.flrw(a=lambda t: t**0.5),
        ],
    )
    def test_arrays_match_scalar_calls(self, metric):
        ts = np.array([[0.2, 1.0], [2.5, 4.0]])
        out = mf.conformal_time(metric, ts)
        assert out.shape == ts.shape
        scalar = [[mf.conformal_time(metric, float(t)) for t in row] for row in ts]
        assert np.allclose(out, scalar, rtol=1e-14, atol=0.0)


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
        with pytest.raises(ValueError):
            mf.compile_expression("__import__('os')")

    def test_expression_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            mf.compile_expression("t + q")

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
    the arrays copied as they were returned."""
    levels = []
    march = mf._march

    def recording(*args):
        res = march(*args)
        frozen = {k: np.copy(v) for k, v in vars(res).items()}
        levels.append((args[-1], mf.TraceResult(**frozen)))
        return res

    monkeypatch.setattr(mf, "_march", recording)
    return levels


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
    @pytest.mark.parametrize("metric", ["flrw", "readme"])
    def test_one_metric_evaluation_per_grid_node(self, monkeypatch, metric):
        if metric == "flrw":
            m = mf.MetricSpec.flrw(p=2 / 3)
        else:
            m = mf.metric_from_config(README_METRIC)
        x0, v0 = _rays(m, [0.6, 1.0, 1.5, 0.7])
        calls = _count_metric_calls(monkeypatch)
        levels = _record_levels(monkeypatch)
        res = mf.trace_past_to_time(m, x0, v0, 0.5)
        assert np.all(res.ok)
        sizes = [n for n, _ in levels]
        assert sizes[:2] == [mf.GRID_START, 2 * mf.GRID_START]
        # metric_diag for the start legs only; at each grid node a custom
        # metric's jet once per RK4 stage, FLRW's slope in closed form
        assert calls["metric_diag"] == 1
        assert calls["jet"] == (4 * sum(sizes) if metric == "readme" else 0)

    @pytest.mark.parametrize("t_target, graded", [(0.5, True), (0.0, False)])
    def test_levels_start_at_four_and_ln_t_nodes_are_graded(
        self, monkeypatch, t_target, graded
    ):
        m = mf.metric_from_config(README_METRIC)
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
        march = mf._march

        def keeping(*args):
            res = march(*args)
            returned.append((res, {k: np.copy(v) for k, v in vars(res).items()}))
            return res

        monkeypatch.setattr(mf, "_march", keeping)
        mf.trace_past_to_time(m, x0, v0, 1e-9)
        assert len(returned) >= 2
        for res, frozen in returned:
            for name, value in frozen.items():
                assert np.array_equal(getattr(res, name), value), name

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
        [("readme", 0.3), ("readme", 0.0), (2 / 3, 0.25), (0.5, 0.2), (2 / 3, 1e-9),
         (0.5, 1e-9)],
        ids=["readme-0.3", "readme-0", "p0.667-0.25", "p0.5-0.2", "p0.667-cutoff",
             "p0.5-cutoff"],
    )
    def test_end_points_match_the_exact_references(self, metric, t_target):
        # conformally flat charts: the end point lies eta(t0) - eta(t_target)
        # along the start direction, and lambda integrates a(t) / (a(t0) v0)
        if metric == "readme":
            m = mf.metric_from_config(README_METRIC)
            eta = lambda t: 10.0 * np.log1p(0.1 * t)
            lam = lambda t0, t1: (t0 - t1 + 0.05 * (t0**2 - t1**2)) / (1 + 0.1 * t0)
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
