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
        "argv",
        [
            ("causal", "--metric", "flrw", "--p", "-1", "--target", "cauchy:1",
             "--x=1e308,0,0,0", "--y=1,0,0,0"),
            ("pauli", "--vec=1e308,0,0,1e308"),
            ("sky-image", "--frame", "graph", "--event=1e308,0,0,1e308", "--n", "8"),
            ("sky-image", "--metric", "flrw", "--p", "0.5", "--event=1e308,0,0,0"),
            ("sky-image", "--metric", "flrw", "--p", "-1.5", "--event=1,0,0,0", "--n", "8"),
        ],
        ids=["conformal-time-power", "pauli", "graph-heights", "affine-length",
             "divergent-affine-length"],
    )
    def test_typed_error_and_exit_1(self, capsys, recwarn, argv):
        # a raw OverflowError (or, for the affine length to the singularity
        # at p < -1, ZeroDivisionError) traceback, and inf or NaN with exit 0
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("OutOfDomainError: ") and len(err.splitlines()) == 1
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
        code, out, err = run(
            capsys, *argv, "--frame", "graph", "--metric", "flrw", "--p", "0.5",
            "--out", str(tmp_path / "out.json"),
        )
        assert code == 2
        assert "the graph frame is defined over the flat metric" in err
        assert not (tmp_path / "out.json").exists()


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
