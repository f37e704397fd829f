"""tools/digests.py: the same tree gives the same digests twice."""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_of_the_working_tree_agree(digests):
    # the smallest image of every chart, each run in a fresh interpreter
    pattern = "sky/*/n16/e0"
    first, second = (digests.digests(ROOT / "src", pattern) for _ in range(2))
    assert set(first) == {f"sky/{chart}/n16/e0" for chart in digests.CHARTS}
    assert first == second and digests.differences(first, second) == {}
    for outputs in first.values():  # every image ran: no error in place of its outputs
        assert "error" not in outputs and "planes.jacobians" in outputs
        assert "image.json" in outputs
        assert len(set(outputs.values())) > 1


def test_the_matrix_covers_both_tracers_errors_and_the_cli(digests):
    names = list(digests.cases())
    near = len(digests.NEAR_CHARTS) * len(digests.NEAR)
    legs, apart, lost = len(digests.LEGS), len(digests.APART), 2 * len(digests.LOST)
    total = 10 * 3 * 3 + near + legs + apart + lost + 4 + len(digests.CLI) + len(digests.GRAMMAR)
    assert len(names) == len(set(names)) == total == 164
    assert near == 15 and legs == 2 and apart == 2 and lost == 4
    assert {"readme", "readme-numeric", "p2/3-numeric"} <= set(digests.NEAR_CHARTS)
    assert {digests.CHARTS[c][2] for c in digests.CHARTS} == {"auto", "numeric"}
    assert sum(name.startswith("cli/verify/") for name in names) == 6
    # mesh-path verdicts on the two curved charts of x, y and z
    assert {digests.CLI[f"causal/{c}-mesh"][0]["kind"] for c in ("W", "S3")} == {"custom"}
    # a null pauli vector and the two radii that underflow above the target
    assert {"cli/pauli/null-7,2,3,6", "cli/causal/p3-radius-underflow",
            "cli/causal/p-1-radius-underflow"} <= set(names)
    # the closed form's float-range extremes
    assert {"cli/sky-image/far-end-overflow", "cli/sky-image/subnormal-event"} <= set(names)


def test_both_tracers_refuse_the_lost_cases_alike(digests):
    # a chart of t alone whose signature is lost about t = 0.5 raises the
    # same error on the closed form and on the numeric ladder, boxed or not
    runs = digests.digests(ROOT / "src", "lost/*")
    error = "ValueError: coefficients do not have signature (+,-,-,-) at [0.5, 0.0, 0.0, 0.0]"
    assert runs == {f"lost/{name}/{tracer}": {"error": digests._digest(error)}
                    for name in digests.LOST for tracer in ("auto", "numeric")}


def test_the_grammar_cases_give_errors_or_values(digests):
    # README's error examples fail to build; the other bodies give their
    # values and partials on the grid, or a(t)
    runs = digests.digests(ROOT / "src", "grammar/*")
    assert set(runs) == {f"grammar/{name}" for name in digests.GRAMMAR}
    errors = {name.split("/")[1] for name, outputs in runs.items() if set(outputs) == {"error"}}
    assert errors == set(list(digests.GRAMMAR)[:13])
    for name, (slot, _) in digests.GRAMMAR.items():
        if name not in errors:
            want = {"scale_factor"} if slot == "a_expr" else {"metric_diag", "jet.g", "jet.dg"}
            assert set(runs[f"grammar/{name}"]) == want


@pytest.mark.parametrize("name, route", [("p2/3-box", "_t_level"), ("anisotropic-box", "_march")])
def test_the_apart_cases_settle_apart(digests, monkeypatch, name, route):
    # some rays leave the box while the others refine, so that a level
    # settles some rows of a batch only, on each route of the tracer
    from skyframes import manifold as mf

    masks, calls, settled = [], {"_t_level": 0, "_march": 0}, mf._settled
    monkeypatch.setattr(mf, "_settled", lambda c, f: masks.append(settled(c, f)) or masks[-1])
    for level in calls:
        def counted(*args, level=level, fn=getattr(mf, level)):
            calls[level] += 1
            return fn(*args)

        monkeypatch.setattr(mf, level, counted)
    outputs = digests.cases()[f"apart/{name}"]()
    assert any(0 < mask.sum() < len(mask) for mask in masks)
    assert calls[route] > 0 and sum(calls.values()) == calls[route]
    status = outputs["image.status"].split("\n")
    assert len(status) == 200 and 0 < status.count("ok") < 200


def test_differences_name_the_outputs_that_moved(digests):
    old = {"a": {"x": "1", "y": "2"}, "b": {"x": "1"}, "gone": {"x": "1"}}
    new = {"a": {"x": "1", "y": "3"}, "b": {"x": "1"}, "new": {"error": "4"}}
    assert digests.differences(new, old) == {"a": ["y"], "gone": ["x"], "new": ["error"]}


def test_near_target_cases_refuse_the_event_below_the_level(digests):
    runs = digests.digests(ROOT / "src", "near/flat/*", values=True)
    assert set(runs) == {f"near/flat/{where}" for where in digests.NEAR}
    assert runs["near/flat/on"]["image.m_points"] == [[0.1, 0.0, 0.0]] * 16
    assert runs["near/flat/on"]["image.lams"] == [0.0] * 16
    assert runs["near/flat/below"]["image.error"] is None  # text: no values
    assert runs["near/flat/below"]["project_batch[2]"] == [False] * 16


def test_largest_relative_difference(digests):
    nan, inf = float("nan"), float("inf")
    rel = digests.largest_relative_difference
    assert rel([1.0, nan, -0.0], [1.0, nan, 0.0]) == 0.0
    assert rel([[1.0, 2.0]], [[1.0, 2.0 + 2**-51]]) == 2**-52 / (1 + 2**-52)
    assert rel([1.0, 0.0], [1.0, 1e-300]) == 1.0
    assert rel([nan], [1.0]) == inf and rel([True, False], [True, True]) == 1.0
    assert rel([1.0], [1.0, 2.0]) is None and rel(None, [1.0]) is None


def test_one_line_per_case_without_against(digests, monkeypatch):
    runs = {"sky/flat/n16/e0": {"x": "1"}, "error/nan-event": {"error": "2"}}
    monkeypatch.setattr(digests, "digests", lambda src, pattern: runs)
    out = io.StringIO()
    with redirect_stdout(out):
        assert digests.main([]) == 0
    lines = out.getvalue().splitlines()
    assert [line.split()[0] for line in lines] == ["error/nan-event", "sky/flat/n16/e0"]
