import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skyframes
from skyframes import frames as fr
from skyframes import manifold as mf
from skyframes import cli, sky
from skyframes.cli import CHOICES, CONFIG_TYPES, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CAUSAL = ("causal", "--x", "1,0,0,0", "--y", "0.5,0,0,0")
FLOW = ("verify", "--suite", "flow", "--n", "4")


class TestPauli:
    def test_null_vector_with_factorisation(self, capsys):
        code, out, _ = run(capsys, "pauli", "--vec", "1,0,0,1", "--factor")
        assert code == 0
        assert "norm: 0" in out
        assert "spinor: [1+0j, 0+0j]" in out

    def test_zero_vector(self, capsys):
        code, out, _ = run(capsys, "pauli", "--vec", "0,0,0,0")
        assert code == 0
        assert "norm: 0" in out

    def test_arity_error_exits_2(self, capsys):
        code, _, err = run(capsys, "pauli", "--vec", "1,0,0")
        assert code == 2
        assert "expected 4 components" in err

    def test_factor_of_non_null_exits_1(self, capsys):
        code, _, err = run(capsys, "pauli", "--vec", "1,0,0,0", "--factor")
        assert code == 1
        assert "NotNull" in err

    def test_factor_of_huge_non_null_exits_1(self, capsys):
        code, out, err = run(capsys, "pauli", "--vec", "1e300,0,0,0", "--factor")
        assert code == 1
        assert err.startswith("NotNullError") and "spinor" not in out

    def test_factor_of_huge_null_vector(self, capsys):
        code, out, _ = run(capsys, "pauli", "--vec", "1e300,1e300,0,0", "--factor")
        assert code == 0
        assert "norm: 0" in out and "nan" not in out
        spinor_line = next(line for line in out.splitlines() if line.startswith("spinor:"))
        components = [complex(c) for c in spinor_line[len("spinor: ["):-1].split(", ")]
        assert all(np.isfinite(c) for c in components)
        assert abs(components[0]) == pytest.approx(np.sqrt(5e299), rel=1e-9)


class TestSkyImage:
    def test_cosmology_sphere(self, capsys, tmp_path):
        out_path = tmp_path / "img.json"
        code, out, _ = run(
            capsys,
            "sky-image",
            "--metric", "flrw", "--p", "0.6666666666666666",
            "--event", "1,0,0,0", "--target", "singularity",
            "--n", "500", "--out", str(out_path),
        )
        assert code == 0
        assert "regular fraction: 1.000" in out
        payload = json.loads(out_path.read_text())
        pts = np.array([s["m_point"] for s in payload["samples"]])
        assert np.abs(np.linalg.norm(pts, axis=1) - 3.0).max() <= 1e-4

    @pytest.mark.parametrize(
        "flags, target, radius",
        [
            (("--p", "1.5"), "cauchy:0.3", (0.3**-0.5 - 1.0) / 0.5),
            (("--p", "1"), "cauchy:0.3", np.log(1.0 / 0.3)),
            (("--a-expr", "t-0.5"), "cauchy:0.6", np.log(5.0)),
        ],
        ids=["p1.5", "p1", "expr-t-0.5"],
    )
    def test_cauchy_slice_under_a_divergent_conformal_time(self, capsys, tmp_path, flags, target, radius):
        # exited 1 with DivergentIntegralError: eta was taken from t = 0
        out_path = tmp_path / "img.json"
        code, _, err = run(
            capsys, "sky-image", "--metric", "flrw", *flags, "--target", target,
            "--event", "1,0,0,0", "--n", "50", "--out", str(out_path),
        )
        assert code == 0, err
        pts = np.array([s["m_point"] for s in json.loads(out_path.read_text())["samples"]])
        assert np.abs(np.linalg.norm(pts, axis=1) - radius).max() <= 1e-12

    def test_count_validation_exits_2(self, capsys):
        code, _, err = run(
            capsys, "sky-image", "--metric", "flrw", "--p", "0.67",
            "--event", "1,0,0,0", "--n", "3",
        )
        assert code == 2
        assert "BadCount" in err

    def test_graph_frame_zero_section(self, capsys, tmp_path):
        out_path = tmp_path / "graph.json"
        code, out, _ = run(
            capsys,
            "sky-image", "--metric", "minkowski", "--frame", "graph",
            "--event", "0,0,0,0", "--n", "16", "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert all(s["height"] == 0.0 for s in payload["samples"])

    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "img.csv"
        code, _, _ = run(
            capsys,
            "sky-image", "--metric", "minkowski", "--event", "1,0,0,0",
            "--target", "cauchy:0", "--n", "8", "--format", "csv",
            "--out", str(out_path),
        )
        assert code == 0
        assert len(out_path.read_text().strip().splitlines()) == 9


    def test_graph_frame_csv(self, capsys, tmp_path):
        # the graph frame's CSV had no test of its own
        paths = tmp_path / "graph.json", tmp_path / "graph.csv"
        for path, fmt in zip(paths, ("json", "csv")):
            code, out, _ = run(
                capsys, "sky-image", "--frame", "graph", "--event", "1,0.3,0,0",
                "--n", "16", "--format", fmt, "--out", str(path),
            )
            assert code == 0 and out.startswith("samples: 16  height range: [")
        rows = paths[1].read_text().splitlines()
        assert rows[0] == "d1,d2,d3,height" and len(rows) == 17
        heights = [s["height"] for s in json.loads(paths[0].read_text())["samples"]]
        assert [float(row.split(",")[3]) for row in rows[1:]] == heights
        directions = sky.sample_sky(16).directions()
        assert np.array([[float(c) for c in row.split(",")[:3]] for row in rows[1:]]).tolist() == (
            directions.tolist()
        )

    def test_closed_form_rays_stay_in_a_bounded_chart(self, capsys, tmp_path):
        # all 50 samples came back ok, 23 of them with x >= 2.1
        cfg = tmp_path / "bounded.json"
        bounds = [[None, None], [-2.1, 2.1], [None, None], [None, None]]
        cfg.write_text(json.dumps({"kind": "minkowski", "bounds": bounds}))
        out_path = tmp_path / "img.json"
        code, _, err = run(
            capsys, "--config", str(cfg), "sky-image", "--event", "1,2,0,0", "--n", "50",
            "--out", str(out_path),
        )
        assert code == 0, err
        samples = json.loads(out_path.read_text())["samples"]
        status = [s["status"] for s in samples]
        assert status.count("ok") == 27 and status.count("no_intersection") == 23
        assert all(-2.1 < s["m_point"][0] < 2.1 for s in samples if s["status"] == "ok")

    def test_failed_samples_write_null_points(self, capsys, tmp_path):
        # the 23 failed samples wrote bare NaN tokens before
        bounds = [[None, None], [-2.1, 2.1], [None, None], [None, None]]
        cfg = tmp_path / "bounded.json"
        cfg.write_text(json.dumps({"kind": "minkowski", "bounds": bounds}))
        out_path = tmp_path / "img.json"
        code, _, err = run(
            capsys, "--config", str(cfg), "sky-image", "--event", "1,2,0,0", "--n", "50",
            "--out", str(out_path),
        )
        assert code == 0, err

        def refuse(token):
            raise ValueError(f"non-finite JSON token {token}")

        samples = json.loads(out_path.read_text(), parse_constant=refuse)["samples"]
        failed = [s["m_point"] for s in samples if s["status"] != "ok"]
        assert len(failed) == 23 and all(m is None for m in failed)
        metric = mf.metric_from_config({"kind": "minkowski", "bounds": bounds})
        f = fr.FrameSpec(metric=metric, target=fr.CauchySurface(0.0))
        image = fr.sky_image(f, [1.0, 2.0, 0.0, 0.0], sky.sample_sky(50))
        ok = [s["m_point"] for s in samples if s["status"] == "ok"]
        assert ok == image.m_points[image.ok_mask].tolist()


class TestCausal:
    def test_past_relation(self, capsys):
        code, out, _ = run(
            capsys,
            "causal", "--metric", "flrw", "--p", "0.6666666666666666",
            "--x", "1,0,0,0", "--y", "0.125,0,0,0",
        )
        assert code == 0
        assert out.splitlines()[0] == "y_past_of_x"
        assert "radius_x: 3" in out

    @pytest.mark.parametrize("frame", [(), ("--frame", "graph")], ids=["flat", "graph"])
    def test_separation_whose_square_underflows(self, capsys, frame):
        # 1e-170 squared is 0: both frames printed equal, with separation: 0
        code, out, _ = run(
            capsys, "causal", "--metric", "minkowski", *frame, "--target", "cauchy:0",
            "--x", "1e-200,0,0,0", "--y", "1e-200,1e-170,0,0",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "spacelike"
        assert lines[1:] == ([] if frame else [
            "radius_x: 1e-200  radius_y: 1e-200  separation: 1e-170",
            "margin_y_in_x: -1e-170  margin_x_in_y: -1e-170",
        ])

    def test_each_past_region_is_built_once(self, capsys, monkeypatch):
        times = []
        conformal_time = mf.conformal_time

        def counting(m, t, *rest):
            times.append((t, *rest))
            return conformal_time(m, t, *rest)

        monkeypatch.setattr(mf, "conformal_time", counting)
        code, out, _ = run(
            capsys,
            "causal", "--metric", "flrw", "--p", "0.6666666666666666",
            "--x", "1,0,0,0", "--y", "0.125,0,0,0",
        )
        assert code == 0 and "radius_y: 1.5" in out
        # the frame's check that the singularity is reachable, then one
        # radius per event (the verdict and the radii share the two balls)
        assert times == [(1.0,), (1.0, 0.0), (0.125, 0.0)]

    def test_identical_events(self, capsys):
        code, out, _ = run(
            capsys, "causal", "--metric", "flrw", "--p", "0.67",
            "--x", "1,2,3,4", "--y", "1,2,3,4",
        )
        assert code == 0
        assert out.splitlines()[0] == "equal"

    def test_spacelike_pair(self, capsys):
        code, out, _ = run(
            capsys, "causal", "--metric", "flrw", "--p", "0.6666666666666666",
            "--x", "1,4,0,0", "--y", "1,0,0,0",
        )
        assert code == 0
        assert out.splitlines()[0] == "spacelike"

    def test_scale_factor_expression(self, capsys):
        code, out, _ = run(
            capsys, "causal", "--metric", "flrw",
            "--a-expr", "t**0.6666666666666666",
            "--x", "1,0,0,0", "--y", "0.125,0,0,0",
        )
        assert code == 0
        assert out.splitlines()[0] == "y_past_of_x"

    @pytest.mark.parametrize(
        "p, radius",
        [("1.5", lambda t: (t**-0.5 - 0.3**-0.5) / -0.5), ("1", lambda t: np.log(t / 0.3))],
        ids=["p1.5", "p1"],
    )
    def test_cauchy_slice_under_a_divergent_conformal_time(self, capsys, p, radius):
        code, out, err = run(
            capsys, "causal", "--metric", "flrw", "--p", p, "--target", "cauchy:0.3",
            "--x", "1,0,0,0", "--y", "0.5,0.1,0,0",
        )
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "y_past_of_x"
        assert lines[1] == (
            f"radius_x: {radius(1.0):.12g}  radius_y: {radius(0.5):.12g}  separation: 0.1"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("--metric", "minkowski", "--target", "cauchy:0",
             "--x", "1e-10,0,0,0", "--y", "0.5e-10,0,0,0"),
            ("--metric", "flrw", "--a-expr", "1e12*t", "--target", "cauchy:0.5",
             "--x", "1,0,0,0", "--y", "0.75,0,0,0"),
        ],
        ids=["flat-1e-10", "radii-1e-13"],
    )
    def test_timelike_pair_of_small_balls(self, capsys, argv):
        # printed equal: an absolute slack of 1e-9 made each ball contain the other
        code, out, err = run(capsys, "causal", *argv)
        assert code == 0, err
        assert out.splitlines()[0] == "y_past_of_x"

    def test_infinite_scale_factor_exits_1(self, capsys):
        # printed equal with radius_x: 0, as 1 / a(t) was 0 at every node
        code, out, err = run(
            capsys, "causal", "--metric", "flrw", "--a-expr", "t*1e308*10",
            "--target", "cauchy:0.5", "--x", "1,0,0,0", "--y", "0.75,0,0,0",
        )
        assert code == 1 and out == ""
        assert err.startswith("DivergentIntegralError: ") and len(err.splitlines()) == 1
        assert "scale factor inf at t = 1 " in err

    def test_pole_of_the_scale_factor_at_the_target_is_allowed(self, capsys):
        # a = 1/(t - 0.5) is inf at the target time, where 1/a integrates
        code, out, _ = run(
            capsys, "causal", "--metric", "flrw", "--a-expr", "1/(t-0.5)",
            "--target", "cauchy:0.5", "--x", "1,0,0,0", "--y", "0.75,0,0,0",
        )
        assert code == 0
        verdict, radii = out.splitlines()[:2]
        assert verdict == "y_past_of_x"
        assert radii == "radius_x: 0.125  radius_y: 0.03125  separation: 0"

    def test_graph_frame_compare(self, capsys):
        code, out, _ = run(
            capsys, "causal", "--metric", "minkowski", "--frame", "graph",
            "--x", "2,0,0,0", "--y", "0,0,0,0",
        )
        assert code == 0
        assert out.strip() == "y_past_of_x"


README_METRIC = {
    "kind": "custom",
    "coeffs": ["1"] + ["-(1 + 0.1*t)**2"] * 3,
    "bounds": [[0, None], [None, None], [None, None], [None, None]],
}


class TestCausalOneBatch:
    def test_custom_metric_query_traces_one_batch(self, capsys, tmp_path, monkeypatch):
        # four batches of 400 rays (two per direction) before
        calls = []
        original = skyframes.frames.project_batch

        def counting(f, events, xis):
            calls.append(len(events))
            return original(f, events, xis)

        monkeypatch.setattr(skyframes.frames, "project_batch", counting)
        cfg = tmp_path / "custom.json"
        cfg.write_text(json.dumps(README_METRIC))
        code, out, _ = run(
            capsys, "--config", str(cfg), "causal", "--metric", "custom",
            "--target", "cauchy:0.3", "--x", "0.6,0,0,0", "--y", "0.45,0.05,0,0",
        )
        assert code == 0 and out == "y_past_of_x\n"
        assert calls == [800]

    def test_identical_events_on_the_custom_metric(self, capsys, tmp_path):
        # the parity vote printed spacelike, where the ball path prints equal
        cfg = tmp_path / "custom.json"
        cfg.write_text(json.dumps(README_METRIC))
        code, out, _ = run(
            capsys, "--config", str(cfg), "causal", "--metric", "custom",
            "--target", "cauchy:0.3", "--x", "0.6,0,0,0", "--y", "0.6,0,0,0",
        )
        assert code == 0 and out == "equal\n"


class TestCausalErrors:
    @pytest.mark.parametrize(
        "argv, error",
        [
            (("--metric", "minkowski", "--x=-1,0,0,0", "--y", "0.5,0,0,0"),
             "NoIntersectionError"),
            (("--metric", "flrw", "--p", "0.5", "--target", "cauchy:0.5",
              "--x", "0.3,0,0,0", "--y", "1,0,0,0"), "NoIntersectionError"),
            (("--metric", "minkowski", "--x=1e308,0,0,0", "--y=-1e308,1e308,1e308,0",
              "--target", "cauchy:-1.7e308"), "OutOfDomainError"),
            (("--frame", "graph", "--x=1e308,0,0,0", "--y=-1e308,0,0,0"),
             "OutOfDomainError"),
        ],
        ids=["flat-below", "cosmology-below", "radius-overflow", "graph-overflow"],
    )
    def test_typed_error_and_exit_1(self, capsys, recwarn, argv, error):
        # a ValueError (exit 2), a NaN margin or a wrong spacelike (exit 0) before
        code, out, err = run(capsys, "causal", *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"{error}: ") and len(err.splitlines()) == 1
        assert not recwarn.list

    def test_ball_outside_a_bounded_chart(self, capsys, tmp_path):
        # printed y_past_of_x with a ball about x = 2 that reached x = 3
        cfg = tmp_path / "bounded.json"
        bounds = [[None, None], [-2.1, 2.1], [None, None], [None, None]]
        cfg.write_text(json.dumps({"kind": "minkowski", "bounds": bounds}))
        argv = ("--config", str(cfg), "causal", "--x", "1,2,0,0", "--y", "0.2,2.05,0.5,0")
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == (
            "NoIntersectionError: the past region of [1.0, 2.0, 0.0, 0.0] leaves the chart\n"
        )
        code, out, _ = run(capsys, *argv[:3], "--x", "0.5,0,0,0", "--y", "0.2,0.1,0.1,0")
        assert code == 0 and out.splitlines()[0] == "y_past_of_x"

    def test_event_after_the_chart_exits_1(self, capsys, tmp_path):
        # printed y_past_of_x for x at t = 5 on a chart of 0 < t < 2, whose
        # sky image exits 1
        cfg = tmp_path / "slab.json"
        bounds = [[0, 2], [None, None], [None, None], [None, None]]
        cfg.write_text(json.dumps({"kind": "minkowski", "bounds": bounds}))
        for command in (CAUSAL[:1] + ("--x", "5,0,0,0", "--y", "1,0,0,0"),
                        ("sky-image", "--event", "5,0,0,0", "--n", "20")):
            code, out, err = run(capsys, "--config", str(cfg), *command, "--target", "cauchy:0")
            assert code == 1 and out == ""
            assert err == "OutOfDomainError: an event lies outside the chart domain\n"


#: The flat geodesic frame, the graph frame and the p = 2/3 singularity frame.
_CAUSAL_FRAMES = (
    ("--metric", "minkowski"),
    ("--metric", "minkowski", "--frame", "graph"),
    ("--metric", "flrw", "--p", "0.6666666666666666", "--target", "singularity"),
)
_EVENTS = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4
)


@pytest.mark.parametrize("frame", _CAUSAL_FRAMES, ids=["flat", "graph", "cosmology"])
@settings(max_examples=50, deadline=None)
@given(x=_EVENTS, y=_EVENTS)
def test_causal_on_any_finite_events_ends_in_an_exit_code(frame, x, y):
    events = ["--x=" + ",".join(map(repr, x)), "--y=" + ",".join(map(repr, y))]
    argv = ["causal", *frame, *events]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1), err.getvalue()
    assert "nan" not in out.getvalue() and "inf" not in out.getvalue()
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]


class TestNonFiniteResults:
    @pytest.mark.parametrize(
        "argv, error",
        [
            (("causal", "--metric", "flrw", "--p", "-1", "--target", "cauchy:1",
              "--x=1e308,0,0,0", "--y=1,0,0,0"), "OutOfDomainError"),
            (("pauli", "--vec=1e308,0,0,1e308"), "OutOfDomainError"),
            (("sky-image", "--frame", "graph", "--event=1e308,0,0,1e308", "--n", "8"),
             "OutOfDomainError"),
            (("sky-image", "--metric", "flrw", "--p", "0.5", "--event=1e308,0,0,0"),
             "OutOfDomainError"),
            (("sky-image", "--metric", "flrw", "--p", "-1.5", "--event=1,0,0,0", "--n", "8"),
             "DivergentIntegralError"),
        ],
        ids=["conformal-time-power", "pauli", "graph-heights", "affine-length",
             "divergent-affine-length"],
    )
    def test_typed_error_and_exit_1(self, capsys, recwarn, argv, error):
        # a raw OverflowError (or, for the affine length to the singularity
        # at p < -1, ZeroDivisionError) traceback, and inf or NaN with exit 0;
        # the divergent affine length then raised OutOfDomainError, where the
        # same integral of an expression raises DivergentIntegralError
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"{error}: ") and len(err.splitlines()) == 1
        assert not recwarn.list


def _ends_cleanly(argv):
    """Run the CLI in process: a documented exit code, no non-finite number
    on stdout, no traceback or warning."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    text = out.getvalue().lower()
    assert code in (0, 1, 2), err.getvalue()
    assert "nan" not in text and "inf" not in text
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]


@settings(max_examples=50, deadline=None)
@given(v=_EVENTS, factor=st.booleans())
def test_pauli_on_any_finite_vector_ends_in_an_exit_code(v, factor):
    _ends_cleanly(["pauli", "--vec=" + ",".join(map(repr, v))] + ["--factor"] * factor)


@pytest.mark.parametrize("frame", _CAUSAL_FRAMES, ids=["flat", "graph", "cosmology"])
@settings(max_examples=50, deadline=None)
@given(x=_EVENTS)
def test_sky_image_on_any_finite_event_ends_in_an_exit_code(frame, x):
    _ends_cleanly(["sky-image", *frame, "--event=" + ",".join(map(repr, x)), "--n", "8"])


class TestVerify:
    @pytest.mark.parametrize("p", ["1", "1.5"])
    def test_contact_suite_runs_on_the_cli_frame(self, capsys, tmp_path, p):
        # the suite rebuilt a singularity frame, whose conformal time
        # diverges for p >= 1, and exited 1
        out_path = tmp_path / "contact.json"
        code, out, err = run(
            capsys, "verify", "--metric", "flrw", "--p", p, "--target", "cauchy:0.5",
            "--suite", "contact", "--n", "4", "--out", str(out_path),
        )
        assert code == 0, err
        payload = json.loads(out_path.read_text())
        assert payload["passed"] and len(payload["reports"]) == 4

    @pytest.mark.parametrize("a_expr", ["-1", "t-2", "0"])
    def test_non_positive_scale_factor_exits_1(self, capsys, recwarn, tmp_path, a_expr):
        # -1 (flat space, as g11 = -a^2) and t-2 passed on rays the numeric
        # tracer marched the wrong way; 0 warned of a division by zero first
        out_path = tmp_path / "contact.json"
        code, out, err = run(
            capsys, "verify", "--suite", "contact", "--metric", "flrw", f"--a-expr={a_expr}",
            "--target", "cauchy:0.5", "--n", "4", "--out", str(out_path),
        )
        assert code == 1 and out == "" and not out_path.exists()
        assert err.startswith("DivergentIntegralError: ") and len(err.splitlines()) == 1
        assert not recwarn.list

    def test_graph_frame_checks_the_target(self, capsys, tmp_path):
        # the geodesic frame of the contact suite is built for every suite
        code, out, err = run(
            capsys, "verify", "--frame", "graph", "--metric", "minkowski",
            "--target", "singularity", "--suite", "flow",
            "--out", str(tmp_path / "flow.json"),
        )
        assert code == 2 and out == ""
        assert err == "ValueError: singularity target needs an flrw metric\n"

    def test_contact_suite_at_p_minus_1(self, capsys, tmp_path):
        # the affine span of the old fixed-step check was a fraction of the
        # span to t = 0, which divided 0 by 0 for a = 1/t (OutOfDomainError)
        out_path = tmp_path / "contact.json"
        code, out, err = run(
            capsys, "verify", "--metric", "flrw", "--p", "-1", "--target", "cauchy:1",
            "--suite", "contact", "--n", "4", "--out", str(out_path),
        )
        assert code == 0, err
        payload = json.loads(out_path.read_text())
        assert payload["passed"] and len(payload["reports"]) == 4

    @pytest.mark.parametrize(
        "case",
        ["bounded-chart", "expression-scale-factor", "bounded-chart-theorem1", "bounded-chart-flow"],
    )
    def test_contact_rays_that_never_arrive_exit_1(self, capsys, tmp_path, case):
        # the bounded chart passed all 25 reports, with theta taken where 2
        # rays left it; the expression scale factor wrote NaN residuals (its
        # central-difference a'(t) takes a at t < 0 near the cutoff); theorem1
        # passed on closed-form rays that ended outside the chart, and flow
        # wrote NaN into its profile for probe rays that left it
        out_path = tmp_path / "report.json"
        cfg = tmp_path / "bounded.json"
        bounds = [[None, None], [-2.1, 2.1], [None, None], [None, None]]
        if case == "expression-scale-factor":
            argv = ("verify", "--metric", "flrw", "--a-expr", "t**0.6666666666666666",
                    "--target", "singularity", "--n", "4", "--suite", "contact")
        elif case == "bounded-chart-flow":
            bounds[0][0] = 0
            cfg.write_text(json.dumps({"kind": "custom", "coeffs": ["1", "-1", "-1", "-1"],
                                       "bounds": bounds}))
            argv = ("--config", str(cfg), "verify", "--target", "cauchy:0", "--seed", "7",
                    "--n", "25", "--suite", "flow")
        else:
            cfg.write_text(json.dumps({"kind": "minkowski", "bounds": bounds}))
            suite = "theorem1" if case.endswith("theorem1") else "contact"
            argv = ("--config", str(cfg), "verify", "--seed", "7", "--n", "25", "--suite", suite)
        code, out, err = run(capsys, *argv, "--out", str(out_path))
        assert code == 1 and out == ""
        assert err.startswith("NoIntersectionError: ")
        assert len(err.splitlines()) == 1
        assert not out_path.exists()
        if case in ("bounded-chart", "expression-scale-factor"):
            assert err.startswith("NoIntersectionError: the ray from [")

    def test_theorem1_names_the_event_of_the_contact_suite(self, capsys, tmp_path):
        cfg = tmp_path / "bounded.json"
        bounds = [[None, None], [-2.1, 2.1], [None, None], [None, None]]
        cfg.write_text(json.dumps({"kind": "minkowski", "bounds": bounds}))
        events = []
        for suite in ("contact", "theorem1"):
            code, _, err = run(
                capsys, "--config", str(cfg), "verify", "--seed", "7", "--n", "25",
                "--suite", suite, "--out", str(tmp_path / "report.json"),
            )
            assert code == 1
            events.append(err[err.index("["):err.index("]") + 1])
        assert events[0] == events[1]

    def test_twistor_suite_passes(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        code, out, _ = run(
            capsys, "verify", "--suite", "twistor", "--seed", "7",
            "--n", "1000", "--out", str(out_path),
        )
        assert code == 0
        assert "pass  contraction_identity" in out
        payload = json.loads(out_path.read_text())
        assert payload["passed"] is True

    def test_flow_suite_graph_frame(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        code, out, _ = run(
            capsys, "verify", "--suite", "flow", "--metric", "minkowski",
            "--frame", "graph", "--seed", "3", "--n", "20",
            "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["reports"][0]["max_residual"] <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_flow_suite_under_four_samples(self, capsys, tmp_path, n):
        # exited 2 with BadCountError: the sample was drawn n sky points
        # long; it is now the first n of the four-point draw
        out_path = tmp_path / "rep.json"
        code, _, err = run(capsys, "verify", "--suite", "flow", "--n", str(n),
                           "--out", str(out_path))
        assert code == 0 and err == ""
        (report,) = json.loads(out_path.read_text())["reports"]
        assert report["probe_count"] == 4 * n  # n sky points, four directions

    def test_reports_byte_identical(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                capsys, "verify", "--suite", "all", "--seed", "7",
                "--n", "60", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "flrw", "p": 0.6666666666666666}))
        code, out, _ = run(
            capsys, "--config", str(cfg), "causal",
            "--x", "1,0,0,0", "--y", "0.125,0,0,0",
        )
        assert code == 0
        assert out.splitlines()[0] == "y_past_of_x"

    @pytest.mark.parametrize(
        "a_expr, code, error",
        [("2", 0, None), ("1/0", 2, "ValueError"), ("0", 1, "DivergentIntegralError")],
        ids=["constant", "no-finite-value", "vanishing"],
    )
    def test_constant_scale_factor_expressions(self, capsys, tmp_path, a_expr, code, error):
        # a raw TypeError (a constant a(t) came back as a Python int) and raw
        # ZeroDivisionError tracebacks
        out_path = tmp_path / "rep.json"
        result, out, err = run(
            capsys, "verify", "--metric", "flrw", "--a-expr", a_expr, "--target", "cauchy:0.5",
            "--suite", "theorem1", "--n", "4", "--out", str(out_path),
        )
        assert result == code and "Traceback" not in err
        if error is None:
            assert err == "" and json.loads(out_path.read_text())["passed"]
        else:
            assert err.startswith(f"{error}: ") and len(err.splitlines()) == 1

    def test_unknown_suite_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2

    @pytest.mark.parametrize(
        "suite, n",
        [("theorem1", "0"), ("twistor", "0"), ("contact", "0"), ("flow", "0"),
         ("all", "-1")],
    )
    def test_count_below_one_exits_2(self, capsys, tmp_path, suite, n):
        # theorem1 and twistor used to pass a run that checked nothing
        out_path = tmp_path / "rep.json"
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--n", n, "--out", str(out_path)
        )
        assert code == 2
        assert err == f"ValueError: n must be at least 1, got {n}\n" and out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_must_be_finite_and_non_negative(self, capsys, tmp_path, tol):
        # nan failed every report (exit 1) and inf passed every report
        code, out, err = run(
            capsys, "verify", "--suite", "flow", "--n", "4", "--tol", tol,
            "--out", str(tmp_path / "rep.json"),
        )
        assert code == 2
        assert "tol must be finite and non-negative" in err and out == ""


class TestOneParserPerProcess:
    def test_in_process_calls_stay_independent(self, capsys, tmp_path, monkeypatch):
        # main() parses with the module's one parser: what one call gives or
        # reads (a config target, a flag's value) reaches no later call
        monkeypatch.chdir(tmp_path)
        verify = ["verify", "--suite", "all", "--seed", "3", "--n", "8"]
        parsed = vars(cli.PARSER.parse_args(verify))
        assert parsed["target"] is None and parsed["metric"] is None
        first = run(capsys, *verify, "--out", "first.json")
        assert first[0] == 0 and first[2] == ""
        code, out, _ = run(capsys, "sky-image", "--event", "1,0,0,0")
        assert code == 0 and out.startswith("samples: 500  ")
        code, out, err = run(capsys, "verify", "--suite", "all", "--format", "csv")
        assert (code, out) == (2, "") and "unrecognized arguments: --format csv" in err
        (tmp_path / "cfg.json").write_text(json.dumps({"target": "cauchy:0.2", "metric": "flrw",
                                                      "p": 0.5, "seed": 5, "n": 3}))
        code, out, _ = run(capsys, "--config", "cfg.json", *verify[:3], "--out", "cfg.json.out")
        assert code == 0
        assert json.loads((tmp_path / "cfg.json.out").read_text())["seed"] == 5
        assert run(capsys, *verify, "--out", "again.json") == first
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "first.json").read_bytes()
        assert vars(cli.PARSER.parse_args(verify)) == parsed


class TestGraphFrameNeedsFlatSpace:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "theorem1", "--n", "4"],
            ["verify", "--suite", "flow", "--n", "4"],
            ["causal", "--x", "1,0,0,0", "--y", "0.5,0,0,0"],
            ["sky-image", "--event", "1,0,0,0", "--n", "4"],
        ],
    )
    def test_non_flat_metric_exits_2(self, capsys, tmp_path, argv):
        # verify and causal used to run the flat graph frame or the geodesic one
        out_flag = [] if argv[0] == "causal" else ["--out", str(tmp_path / "out.json")]
        code, out, err = run(
            capsys, *argv, "--frame", "graph", "--metric", "flrw", "--p", "0.5", *out_flag
        )
        assert code == 2
        assert "the graph frame is defined over the flat metric" in err
        assert not (tmp_path / "out.json").exists()


class _ReadKeys(dict):
    """Settings that record each key a command looks up."""

    def __init__(self, opts, read):
        super().__init__(opts)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


#: Runs that between them give each command every flag it takes.
_FLAG_RUNS = {
    "pauli": [("--vec", "1,0,0,1", "--factor")],
    "sky-image": [
        ("--metric", "flrw", "--p", "0.5", "--target", "cauchy:0.5", "--frame", "geodesic",
         "--n", "8", "--out", "img.csv", "--format", "csv", "--event", "1,0,0,0"),
        ("--metric", "flrw", "--a-expr", "t**0.5", "--event", "1,0,0,0", "--n", "8",
         "--out", "img.json"),
    ],
    "causal": [
        ("--metric", "flrw", "--p", "0.5", "--target", "singularity", "--frame", "geodesic",
         "--x", "1,0,0,0", "--y", "0.25,0,0,0"),
        ("--metric", "flrw", "--a-expr", "t**0.5", *CAUSAL[1:]),
    ],
    "verify": [
        ("--metric", "flrw", "--p", "0.5", "--target", "cauchy:0.5", "--frame", "geodesic",
         "--n", "4", "--seed", "3", "--tol", "1e-3", "--out", "rep.json", "--suite", "all"),
        ("--metric", "flrw", "--a-expr", "t**0.5", "--suite", "twistor", "--n", "4",
         "--out", "rep.json"),
    ],
}


#: Per command: a run it takes, and each flag it no longer takes (18 of
#: the 46), with a value the flag took.
_NOT_TAKEN = {
    ("pauli", "--vec", "1,0,0,1"): (
        "--metric flrw", "--p 0.5", "--a-expr t", "--target singularity", "--frame graph",
        "--n 5", "--seed 1", "--tol -1", "--out x.json", "--format csv",
    ),
    ("sky-image", "--event", "1,0,0,0", "--n", "8"): ("--seed 3", "--tol 1"),
    CAUSAL: ("--n 2", "--seed 1", "--tol nan", "--out x.json", "--format csv"),
    ("verify", "--suite", "twistor", "--n", "4"): ("--format csv",),
}


def _flags(parser):
    """The destinations of a parser's flags, --help aside."""
    return [action.dest for action in parser._actions if action.dest != "help"]


class TestFlagsPerCommand:
    def test_each_command_reads_every_flag_it_takes(self, monkeypatch, tmp_path, capsys):
        # every command took all ten common flags, read or not (46 in all)
        monkeypatch.chdir(tmp_path)
        commands = cli.PARSER._subparsers._group_actions[0].choices
        counts = {}
        for name, parser in commands.items():
            func, read, given = parser.get_default("func"), set(), set()
            wrapped = lambda opts, f=func: f(_ReadKeys(opts, read))  # noqa: E731
            monkeypatch.setitem(parser._defaults, "func", wrapped)
            for argv in _FLAG_RUNS[name]:
                read.clear()
                assert main([name, *argv]) == 0, capsys.readouterr().err
                flags = {flag[2:].replace("-", "_") for flag in argv if flag.startswith("--")}
                looked_up = {"metric" if key == "kind" else key for key in read}  # main's merge
                assert flags <= looked_up, (name, flags - looked_up)
                given |= flags
            assert given == set(_flags(parser)), name
            counts[name] = len(given)
        assert counts == {"pauli": 2, "sky-image": 9, "causal": 7, "verify": 10}

    @pytest.mark.parametrize(
        "argv, flag",
        [
            pytest.param(argv, flag, id=f"{argv[0]} {flag}")
            for argv, flags in _NOT_TAKEN.items()
            for flag in flags
        ],
    )
    def test_a_flag_the_command_does_not_take_exits_2(self, monkeypatch, tmp_path, capsys,
                                                       argv, flag):
        # each exited 0 with the flag ignored: causal --out wrote nothing,
        # sky-image --seed drew the same sky, verify --format csv wrote JSON
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, *flag.split())
        assert code == 2 and out == "" and list(tmp_path.iterdir()) == []
        assert err == f"skyframes {argv[0]}: error: unrecognized arguments: {flag}\n"

    def test_p_and_a_expr_together_exit_2(self, capsys, tmp_path):
        # p won, from a flag or from the config: the radius was 2, of p = 0.5
        argv = ("causal", "--metric", "flrw", "--a-expr", "t**0.6666666666666666",
                "--target", "singularity", "--x", "1,0,0,0", "--y", "0.125,0,0,0")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"metric": "flrw", "p": 0.5}))
        message = "ValueError: give exactly one of the exponent p or the expression a_expr\n"
        for both in (run(capsys, *argv, "--p", "0.5"), run(capsys, "--config", str(cfg), *argv)):
            assert both == (2, "", message)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.splitlines()[1].startswith("radius_x: 3  ")


class TestConfigKeys:
    def _run_config(self, capsys, tmp_path, cfg, *argv):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return run(capsys, "--config", str(path), *argv)

    @pytest.mark.parametrize("target", [[], ["--target", "singularity"]])
    def test_metric_key_reads_like_the_flag(self, capsys, tmp_path, target):
        # a(t) = t^(1/2) to the singularity: eta = 2 sqrt(t), radius 2 at t = 1
        code, out, _ = self._run_config(
            capsys, tmp_path, {"metric": "flrw", "p": 0.5},
            "causal", "--x", "1,0,0,0", "--y", "0.25,0,0,0", *target,
        )
        assert code == 0
        assert out.splitlines()[0] == "y_past_of_x"
        assert "radius_x: 2  radius_y: 1 " in out

    @pytest.mark.parametrize(
        "cfg, argv, key",
        [
            ({"metric": "minkowski", "frame": "grph"}, CAUSAL, "frame"),
            ({"metric": "minkowski", "frame": ""}, CAUSAL, "frame"),
            ({"format": "xml"}, ("sky-image", "--event", "1,0,0,0", "--n", "8"), "format"),
        ],
    )
    def test_values_outside_the_flag_choices_exit_2(self, capsys, tmp_path, cfg, argv, key):
        # these ran the geodesic frame or wrote JSON, and exited 0
        code, out, err = self._run_config(capsys, tmp_path, cfg, *argv)
        allowed = ", ".join(CHOICES[key])
        message = f"config key {key!r} must be one of {allowed}, got {cfg[key]!r}"
        assert code == 2 and out == "" and err == f"ValueError: {message}\n"

    @pytest.mark.parametrize("target, frame", [("cauchyx", "geodesic"), ("csv", "graph")])
    def test_targets_are_checked_whatever_the_frame(self, capsys, tmp_path, target, frame):
        # "cauchyx" read as the slice t = 0, and the graph frame ignored the target
        cfg = {"metric": "minkowski", "frame": frame, "target": target}
        code, out, err = self._run_config(capsys, tmp_path, cfg, *CAUSAL)
        assert code == 2 and out == ""
        assert err == f"ValueError: unknown target {target!r}\n"
        code, out, err = run(capsys, *CAUSAL, "--frame", frame, "--target", target)
        assert code == 2 and out == "" and "--target" in err

    def test_flags_override_the_metric_key(self, capsys, tmp_path):
        code, out, _ = self._run_config(
            capsys, tmp_path, {"metric": "flrw", "p": 0.5},
            "causal", "--metric", "minkowski", "--x", "1,0,0,0", "--y", "0.25,0,0,0",
        )
        assert code == 0
        assert "radius_x: 1  radius_y: 0.25 " in out

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({"kind": "flrw", "p": 0.5, "pp": 1}, "unknown config key 'pp'"),
            ({"metric": "flrw", "exponent": 0.5}, "unknown config key 'exponent'"),
            ({"metric": "flrw", "kind": "custom", "p": 0.5}, "disagree"),
            ([["kind", "flrw"]], "one JSON object"),
        ],
    )
    def test_bad_config_exits_2(self, capsys, tmp_path, cfg, message):
        code, _, err = self._run_config(
            capsys, tmp_path, cfg, "causal", "--x", "1,0,0,0", "--y", "0.25,0,0,0"
        )
        assert code == 2
        assert message in err

    @pytest.mark.parametrize(
        "cfg, argv, message",
        [
            ({"bounds": 3}, CAUSAL, "config key 'bounds' must be a JSON array"),
            ({"kind": "custom", "coeffs": 5}, CAUSAL, "key 'coeffs' must be a JSON array"),
            ({"kind": "flrw", "p": [1]}, CAUSAL, "key 'p' must be a JSON number"),
            ({"target": 5}, CAUSAL, "key 'target' must be a JSON string"),
            ({"n": True}, CAUSAL, "key 'n' must be a JSON integer"),
            ({"tol": "nan"}, FLOW, "key 'tol' must be a JSON number"),
            ({"tol": float("nan")}, FLOW, "tol must be finite"),
            ({"out": 5}, FLOW, "key 'out' must be a JSON string"),
            ({"bounds": [3]}, CAUSAL, "bounds must be four [lo, hi] pairs"),
            ({"bounds": [[0, 1]]}, CAUSAL, "bounds must be four [lo, hi] pairs"),
        ],
    )
    def test_wrong_json_type_exits_2(self, capsys, tmp_path, cfg, argv, message):
        # these raised a TypeError or AttributeError traceback, or exited 0
        # (out = 5 wrote to file descriptor 5; one pair of bounds broadcast)
        code, out, err = self._run_config(capsys, tmp_path, cfg, *argv)
        assert code == 2
        assert err.startswith("ValueError: ") and message in err
        assert err.count("\n") == 1 and out == ""


def _radius_x(out, _):
    return out.splitlines()[1].split()[1]


def _report(field):
    return lambda out, cwd: json.loads((cwd / "rep.json").read_text())[field]


SKY = ("sky-image", "--frame", "graph", "--event", "1,0,0,0")
TWISTOR = ("verify", "--suite", "twistor", "--n", "4")
CAUSAL_RADII = ("causal", "--x", "1,0,0,0", "--y", "0.5,0,0,0")

#: Per key: the config, the command, the flag, how to read the outcome, and
#: the outcome under the config alone and under the flag.
_PRECEDENCE = {
    "n": ({"n": 8}, (*SKY, "--out", "img.json"), ("--n", "12"),
          lambda out, cwd: len(json.loads((cwd / "img.json").read_text())["samples"]), 8, 12),
    "seed": ({"seed": 3}, (*TWISTOR, "--out", "rep.json"), ("--seed", "5"), _report("seed"), 3, 5),
    "format": ({"format": "csv"}, (*SKY, "--n", "8", "--out", "img.out"), ("--format", "json"),
               lambda out, cwd: (cwd / "img.out").read_text()[0], "d", "{"),
    "out": ({"out": "config.json"}, TWISTOR, ("--out", "flag.json"),
            lambda out, cwd: sorted(p.name for p in cwd.glob("*.json") if p.name != "cfg.json"),
            ["config.json"], ["flag.json"]),
    "target": ({"target": "cauchy:0.25"}, CAUSAL_RADII, ("--target", "cauchy:0.5"),
               _radius_x, "0.75", "0.5"),
    "frame": ({"frame": "graph"}, CAUSAL_RADII, ("--frame", "geodesic"),
              lambda out, cwd: len(out.splitlines()), 1, 3),
    "metric": ({"metric": "flrw", "p": 0.5}, CAUSAL_RADII, ("--metric", "minkowski"),
               _radius_x, "2", "1"),
    "kind": ({"kind": "flrw", "p": 0.5}, CAUSAL_RADII, ("--metric", "minkowski"),
             _radius_x, "2", "1"),
    "p": ({"metric": "flrw", "p": 0.5}, CAUSAL_RADII, ("--p", "0.6666666666666666"),
          _radius_x, "2", "3"),
    "tol": ({"tol": 0.01}, (*FLOW, "--out", "rep.json"), ("--tol", "0.02"),
            lambda out, cwd: json.loads((cwd / "rep.json").read_text())["reports"][0]["tolerance"],
            0.01, 0.02),
}


@pytest.mark.parametrize("key", list(_PRECEDENCE))
def test_a_flag_beats_the_config_which_beats_the_default(capsys, tmp_path, monkeypatch, key):
    cfg, argv, flag, outcome, from_config, from_flag = _PRECEDENCE[key]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    for extra, expected in (((), from_config), (flag, from_flag)):
        for path in tmp_path.iterdir():
            if path.name != "cfg.json":
                path.unlink()
        code, out, err = run(capsys, "--config", "cfg.json", *argv, *extra)
        assert code == 0, err
        assert outcome(out, tmp_path) == expected


_BOOLS, _TEXTS = st.booleans(), st.text(max_size=8)
_LISTS = st.lists(st.integers(-3, 3), max_size=3)
_DICTS = st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2)

#: Values of any JSON type but the key's own.  No example holds a large
#: number, so none can ask for a big sky sample.
_WRONG_TYPED = {
    "string": _BOOLS | _LISTS | _DICTS,
    "number": _BOOLS | _TEXTS | _LISTS | _DICTS,
    "integer": _BOOLS | _TEXTS | _LISTS | _DICTS,
    "array": _BOOLS | _TEXTS | _DICTS,
}


@pytest.mark.parametrize("key", sorted(CONFIG_TYPES))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_wrong_typed_config_values_exit_2(tmp_path_factory, key, data):
    value = data.draw(_WRONG_TYPED[CONFIG_TYPES[key]], label=key)
    path = tmp_path_factory.getbasetemp() / "wrong_typed.json"
    path.write_text(json.dumps({key: value}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--config", str(path), *CAUSAL])
    message = f"config key {key!r} must be a JSON {CONFIG_TYPES[key]}"
    assert code == 2 and err.getvalue() == f"ValueError: {message}\n"


#: The valid values of the string keys that take a fixed set; examples also
#: draw near misses and any text.  No example sets `coeffs` or `a_expr`, so
#: none can start a numeric trace.
_STRING_VALUES = {
    "frame": CHOICES["frame"],
    "format": CHOICES["format"],
    "metric": CHOICES["metric"],
    "target": ("singularity", "cauchy", "cauchy:0.25", "cauchy:0.75"),
}
_NEAR_MISSES = ("", "grph", "Graph", "xml", "cauchyx", "cauchy:x", "singularity ")


def _is_valid(key, value):
    if key == "target":
        return value in ("singularity", "cauchy") or value.startswith("cauchy:")
    return value in CHOICES[key]


@settings(max_examples=50, deadline=None)
@given(
    values=st.dictionaries(
        st.sampled_from(sorted(_STRING_VALUES)),
        st.sampled_from(sorted({v for vs in _STRING_VALUES.values() for v in vs}))
        | st.sampled_from(_NEAR_MISSES)
        | st.text(max_size=12),
    )
)
def test_string_config_values_end_in_an_exit_code(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "string_values.json"
    path.write_text(json.dumps(values))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--config", str(path), *CAUSAL])
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    if not all(_is_valid(key, value) for key, value in values.items()):
        assert code == 2, (values, err.getvalue())


class TestNonFiniteAndDegenerateInputs:
    @pytest.mark.parametrize(
        "key, src, part",
        [
            ("a_expr", "t+0/0", "0 / 0"),
            ("a_expr", "t+0**-9", "0 ** (-9)"),
            ("a_expr", "t-(-1)**0.5+2", "(-1) ** 0.5"),
            ("a_expr", "t*10**10**10", "10 ** 10 ** 10"),
            ("a_expr", "t*10**400", "10 ** 400"),
            ("a_expr", "t*(10**300*10**300)**10**300", "10 ** 300 * 10 ** 300"),
            ("coeffs", "-1-(-1)**0.5*0-t*t", "(-1) ** 0.5"),
        ],
    )
    def test_constant_part_without_a_real_value_exits_2_in_one_line(
        self, capsys, recwarn, tmp_path, key, src, part
    ):
        # 0/0 and 0**-9 raised ZeroDivisionError; (-1)**0.5 printed numpy's
        # ComplexWarning and exited 0 with the imaginary part dropped;
        # 10**10**10 ran as an integer power that did not finish in minutes,
        # and 10**400 exited 1 as out of float range.  In float arithmetic
        # the last product would be inf and its power would pass
        if key == "coeffs":
            cfg = tmp_path / "custom.json"
            cfg.write_text(json.dumps({"kind": "custom", "coeffs": ["1", src, "-1", "-1"]}))
            argv = ("--config", str(cfg), *CAUSAL)
        else:
            argv = ("sky-image", "--metric", "flrw", "--a-expr", src, "--event", "1,0,0,0",
                    "--target", "cauchy:0.5", "--n", "8", "--out", str(tmp_path / "i.json"))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and not recwarn.list
        message = f"metric expression {src!r} has a part {part!r} with no real float value"
        assert err == f"ValueError: {message}\n"
        assert not (tmp_path / "i.json").exists()

    def test_nan_vector_exits_2(self, capsys):
        code, out, err = run(capsys, "pauli", "--vec", "1,0,0,nan", "--factor")
        assert code == 2
        assert "finite" in err and "nan" not in out

    @pytest.mark.parametrize("x", ["inf,0,0,0", "1,-inf,0,0"])
    def test_infinite_event_exits_2(self, capsys, x):
        code, out, err = run(capsys, "causal", "--x", x, "--y", "0,0,0,0")
        assert code == 2
        assert "finite" in err and out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "flags",
        [
            ("--metric", "minkowski", "--target", "cauchy:{}"),
            ("--metric", "flrw", "--p", "{}"),
        ],
        ids=["target", "p"],
    )
    def test_non_finite_target_time_or_exponent_exits_2(self, capsys, flags, value):
        # both used to give NaN radii with exit 0
        argv = [flag.format(value) for flag in flags]
        code, out, err = run(
            capsys, "causal", *argv, "--x", "1,0,0,0", "--y", "0.5,0,0,0"
        )
        assert code == 2
        assert f"must be finite, got {value}" in err and out == ""

    def test_divergent_expression_to_the_singularity_exits_1(self, capsys, tmp_path):
        # exited 0 with a sphere of radius 2: quad regularised the integral
        code, out, err = run(
            capsys, "sky-image", "--metric", "flrw", "--a-expr", "t**1.5",
            "--target", "singularity", "--event", "1,0,0,0",
            "--out", str(tmp_path / "img.json"),
        )
        assert code == 1 and out == ""
        assert err.startswith("DivergentIntegralError: ") and len(err.splitlines()) == 1

    def test_vanishing_scale_factor_is_a_domain_error(self, capsys):
        code, _, err = run(
            capsys, "causal", "--metric", "flrw", "--a-expr", "t-0.5",
            "--x", "1,0,0,0", "--y", "0.5,0,0,0",
        )
        assert code == 1
        assert err.startswith("DivergentIntegralError")


ANISOTROPIC_COEFFS = ["1", "-1", "-(1 + 0.5*t)**2", "-1"]


class TestCustomMetric:
    def test_sky_image_through_expression_metric(self, capsys, tmp_path):
        # a flat chart written as custom coefficients runs the numeric tracer
        cfg = tmp_path / "metric.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "custom",
                    "coeffs": ["1", "-1", "-1", "-1"],
                    "target": "cauchy:0",
                }
            )
        )
        out_path = tmp_path / "img.json"
        code, out, _ = run(
            capsys,
            "--config", str(cfg),
            "sky-image", "--event", "1,0,0,0", "--n", "60",
            "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        pts = np.array([s["m_point"] for s in payload["samples"]])
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-8

    def test_contact_suite_draws_events_inside_the_chart(self, capsys, tmp_path):
        # the chart starts at t = 0; the suite used to draw events at t < 0
        cfg = tmp_path / "custom.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "custom",
                    "coeffs": ["1"] + ["-(1 + 0.1*t)**2"] * 3,
                    "bounds": [[0, None], [None, None], [None, None], [None, None]],
                }
            )
        )
        out_path = tmp_path / "contact.json"
        code, _, err = run(
            capsys,
            "--config", str(cfg),
            "verify", "--metric", "custom", "--target", "cauchy:0",
            "--suite", "contact", "--seed", "7", "--n", "4", "--out", str(out_path),
        )
        assert code == 0, err
        payload = json.loads(out_path.read_text())
        assert payload["passed"] and len(payload["reports"]) == 4

    def test_anisotropic_contact_suite_passes(self, capsys, tmp_path):
        # the sky point of a ray turns along it when only g_22 grows; the
        # check used to hold the start sky point fixed and failed at 9.9e-3
        cfg = tmp_path / "anisotropic.json"
        cfg.write_text(json.dumps(dict(README_METRIC, coeffs=ANISOTROPIC_COEFFS)))
        out_path = tmp_path / "contact.json"
        code, _, err = run(
            capsys, "--config", str(cfg), "verify", "--metric", "custom",
            "--target", "cauchy:0", "--suite", "contact", "--seed", "7", "--n", "4",
            "--out", str(out_path),
        )
        assert code == 0, err
        reports = json.loads(out_path.read_text())["reports"]
        assert len(reports) == 4
        assert max(max(r["residuals"]) for r in reports) <= 1e-8

    def test_signature_lost_inside_the_chart_exits_2(self, capsys, tmp_path):
        # g11 vanishes at t = 0.5, between the points the construction-time
        # check samples; every ray used to come back no_intersection (exit 1)
        cfg = tmp_path / "degenerate.json"
        coeffs = ["1", "-(t-0.5)**2", "-1", "-1"]
        cfg.write_text(json.dumps(dict(README_METRIC, coeffs=coeffs)))
        code, out, err = run(
            capsys, "--config", str(cfg), "sky-image", "--metric", "custom",
            "--target", "cauchy:0", "--event", "1,0,0,0", "--n", "100",
            "--out", str(tmp_path / "img.json"),
        )
        assert code == 2 and out == ""
        assert err.startswith(
            "ValueError: coefficients do not have signature (+,-,-,-) at [0.5, "
        )

    def test_nan_coefficient_inside_the_chart_exits_2(self, capsys, tmp_path):
        # (1+t)**1.2 is NaN for t < -1; the image exited 1 with
        # "OutOfDomainError: out of float range: invalid value ..."
        cfg = tmp_path / "nan.json"
        coeffs = ["1", "-(1+t)**2", "-(1+t)**1.2", "-(1+t)**0.5"]
        cfg.write_text(json.dumps({"kind": "custom", "coeffs": coeffs}))
        code, out, err = run(
            capsys, "--config", str(cfg), "sky-image", "--metric", "custom",
            "--target", "cauchy:-1.8", "--event=-0.5,0,0,0",
            "--out", str(tmp_path / "img.json"),
        )
        assert code == 2 and out == ""
        assert err.startswith("ValueError: coefficients do not have signature (+,-,-,-) at [-")

    @pytest.mark.parametrize(
        "src",
        [" 1", "1 +", "", "+".join(["t"] * 3000)],
        ids=["indent", "dangling", "empty", "sum-3000"],
    )
    def test_malformed_coefficient_exits_2(self, capsys, tmp_path, src):
        # " 1" printed an IndentationError traceback and exited 1
        cfg = tmp_path / "malformed.json"
        cfg.write_text(json.dumps(dict(README_METRIC, coeffs=[src, "-1", "-1", "-1"])))
        code, out, err = run(
            capsys, "--config", str(cfg), "causal", "--metric", "custom",
            "--target", "cauchy:0.3", "--x", "0.6,0,0,0", "--y", "0.45,0.05,0,0",
        )
        assert code == 2 and out == ""
        assert err.startswith(f"ValueError: metric expression {src!r} ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("slots", [1, 3], ids=["per-node", "isotropic"])
    def test_infinite_coefficient_exits_2(self, capsys, tmp_path, slots):
        # g = -inf on the chart exited 1 with "0/400 sky samples ... arrived"
        cfg = tmp_path / "infinite.json"
        coeffs = ["1"] + ["-1e400*t*t-1"] * slots + ["-1"] * (3 - slots)
        cfg.write_text(json.dumps(dict(README_METRIC, coeffs=coeffs)))
        code, out, err = run(
            capsys, "--config", str(cfg), "causal", "--metric", "custom",
            "--target", "cauchy:0.3", "--x", "0.6,0,0,0", "--y", "0.45,0.05,0,0",
        )
        assert code == 2 and out == ""
        assert err.startswith(
            "ValueError: coefficients do not have signature (+,-,-,-) at [0.002, "
        )

    @pytest.mark.parametrize("command", ["causal", "sky-image"])
    @pytest.mark.parametrize(
        "coeff",
        ["-1-x**-2", "-1-(x-0.3)**-2", "-1-(x*1e200)**2"],
        ids=["pole-on-the-grid", "pole-at-the-event", "overflow"],
    )
    def test_non_finite_coefficient_exits_2_in_one_line(
        self, capsys, recwarn, tmp_path, command, coeff
    ):
        # a pole printed numpy's "divide by zero" RuntimeWarning before the
        # exit-2 line, and an overflowing square exited 1 with
        # "OutOfDomainError: out of float range"
        cfg = tmp_path / "non_finite.json"
        cfg.write_text(json.dumps({"kind": "custom", "coeffs": ["1", coeff, "-1", "-1"]}))
        where = {
            "causal": ("--x", "1,0.3,0,0", "--y", "0.5,0.3,0,0"),
            "sky-image": ("--event", "1,0.3,0,0", "--n", "20", "--out", str(tmp_path / "i.json")),
        }[command]
        code, out, err = run(
            capsys, "--config", str(cfg), command, "--metric", "custom",
            "--target", "cauchy:0", *where,
        )
        assert code == 2 and out == ""
        assert err.startswith("ValueError: coefficients do not have signature (+,-,-,-) at [")
        assert len(err.splitlines()) == 1
        assert not recwarn.list

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: rays of the compactified chart run out to x ~ 5e82, "
        "where its coefficients underflow to 0, and the signature guard names that point",
    )
    def test_compactified_minkowski_chart_is_lorentzian_everywhere(self, capsys, tmp_path):
        # the Einstein static universe's chart ["1", -4/(1+r^2)^2 x 3] has the
        # signature at every point, yet its sky image exits 2
        cfg = tmp_path / "compactified.json"
        coeffs = ["1"] + ["-4/(1+x*x+y*y+z*z)**2"] * 3
        cfg.write_text(json.dumps({"kind": "custom", "coeffs": coeffs}))
        code, _, err = run(
            capsys, "--config", str(cfg), "sky-image", "--metric", "custom",
            "--target", "cauchy:0", "--event", "2.5,0.6,0.4,-0.3", "--n", "100",
            "--out", str(tmp_path / "img.json"),
        )
        assert code != 2, err

    def test_target_below_the_chart_exits_2(self, capsys, tmp_path):
        # the rays were traced through t < 0, where the signature is never
        # checked, and the image exited 0
        cfg = tmp_path / "custom.json"
        cfg.write_text(json.dumps(README_METRIC))
        code, out, err = run(
            capsys, "--config", str(cfg), "sky-image", "--metric", "custom",
            "--target", "cauchy:-5", "--event", "1,0,0,0", "--n", "8",
            "--out", str(tmp_path / "img.json"),
        )
        assert code == 2 and out == ""
        assert err == "ValueError: target time -5.0 is outside the chart's [0.0, inf]\n"

    @pytest.mark.parametrize("step", ["0", "-0.01"])
    def test_bad_step_exits_2(self, capsys, tmp_path, step):
        # the tracer sizes its own grid, and the contact check runs on it,
        # so there is no step flag any more
        cfg = tmp_path / "custom.json"
        cfg.write_text(json.dumps(README_METRIC))
        code, out, err = run(
            capsys,
            "--config", str(cfg),
            "sky-image", "--metric", "custom", "--event", "1,0,0,0",
            "--target", "cauchy:0.5", "--n", "4", "--step", step,
        )
        assert code == 2 and out == ""
        assert f"unrecognized arguments: --step {step}" in err

    def test_step_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "custom.json"
        cfg.write_text(json.dumps(dict(README_METRIC, step=0.01)))
        code, out, err = run(
            capsys, "--config", str(cfg), "verify", "--metric", "custom",
            "--target", "cauchy:0", "--suite", "contact", "--n", "4",
        )
        assert code == 2 and out == ""
        assert err == "ValueError: unknown config key 'step'\n"


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    src = str(Path(skyframes.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, skyframes.cli; "
        "print([m for m in ('scipy.spatial', 'scipy.integrate') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_expression_sky_image_leaves_scipy_integrate_unloaded(tmp_path):
    # the conformal interval and the affine length used scipy.integrate.quad
    src = str(Path(skyframes.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    argv = [
        "sky-image", "--metric", "flrw", "--a-expr", "t**0.6666666666666666",
        "--target", "singularity", "--event", "1,0,0,0", "--n", "50",
        "--out", str(tmp_path / "img.json"),
    ]
    code = (
        "import sys; from skyframes.cli import main; "
        f"assert main({argv!r}) == 0; print('scipy.integrate' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "False"
