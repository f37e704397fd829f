"""The compare mode of tools/bench_record.py on synthetic records."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(label, ops_per_s, p50_ms, ref_ms, cold_s):
    entry = lambda value: {"median": value, "runs": [value]}  # noqa: E731
    return {
        "label": label,
        "provenance": {},
        "workloads": {
            "sky_numeric": {
                "metrics": {
                    "ops_per_s": dict(entry(ops_per_s), unit="1/s"),
                    "op_p50_ms": dict(entry(p50_ms), unit="ms"),
                },
                "ref_ms": {"p0.5_n48": entry(ref_ms)},
                "failed": 0,
            }
        },
        "cold_cli_s": {"causal_flrw": entry(cold_s)},
    }


def _write(tmp_path, label, *values):
    path = tmp_path / f"BENCH_{label}.json"
    path.write_text(json.dumps(_record(label, *values)))
    return path


BETTER = {"ops_per_s": "higher", "op_p50_ms": "lower"}


def test_compares_with_the_newest_earlier_record(bench_record, tmp_path):
    _write(tmp_path, 7, 1.0, 1.0, 1.0, 1.0)  # older: not the base
    _write(tmp_path, 30, 100.0, 1.0, 2.0, 0.30)
    path = _write(tmp_path, 31, 70.0, 1.1, 3.0, 0.20)
    _write(tmp_path, 32, 1.0, 1.0, 1.0, 1.0)  # newer: not the base
    out = io.StringIO()
    flagged = bench_record.compare(path, BETTER, out)
    text = out.getvalue()
    assert text.splitlines()[0] == "BENCH_31.json against BENCH_30.json"
    # 30% fewer ops per second and 50% more ref ms are regressions; 10%
    # more p50 is not, and a faster cold command is a gain
    assert flagged == ["sky_numeric.ops_per_s", "sky_numeric.ref_ms.p0.5_n48"]
    assert "x0.700  REGRESSION" in text and "x1.500  REGRESSION" in text
    assert "x1.100\n" in text and "x0.667\n" in text
    assert text.splitlines()[-1] == "2 regression(s) over 20%"


def test_a_first_record_has_nothing_to_compare(bench_record, tmp_path):
    path = _write(tmp_path, 31, 70.0, 1.1, 3.0, 0.2)
    out = io.StringIO()
    assert bench_record.compare(path, BETTER, out) == []
    assert "no earlier" in out.getvalue()


def test_compare_mode_reports_and_exits_0(bench_record, tmp_path, capsys):
    _write(tmp_path, 30, 100.0, 1.0, 2.0, 0.30)
    path = _write(tmp_path, 31, 10.0, 9.0, 20.0, 3.0)
    assert bench_record.main(["--compare", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "4 regression(s) over 20%"


@pytest.mark.parametrize("flag", [False, True])
def test_provenance_says_whether_the_interpreter_writes_bytecode(bench_record, monkeypatch, flag):
    # without a bytecode cache every cold command compiles src/ again
    monkeypatch.setattr("sys.dont_write_bytecode", flag)
    provenance = bench_record._provenance(20)
    assert provenance["dont_write_bytecode"] is flag
    assert provenance["seconds"] == 20 and provenance["seed"] == bench_record.SEED
