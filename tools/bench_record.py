"""Record the benchmark in BENCH_<label>.json, or compare two records.

Run from the repository root:

    python3 tools/bench_record.py --label 31
    python3 tools/bench_record.py --compare BENCH_31.json

The record mode runs `perfbench/run.py` on every workload of
BENCHMARK.json, RUNS times each at seed SEED, the workloads in turn within
each round, at the benchmark's run length.  It writes BENCH_<label>.json
at the repository root, which holds:

* per workload, the median over the runs of each metric of the final JSON
  line, and of each op kind's median reference milliseconds (the `ref ms`
  lines), with every run's value beside it and the failed op count;
* provenance: the git SHA (and whether the tree had changes), the numpy
  and scipy versions, `nproc`, the interpreter's path and whether it
  writes bytecode (`sys.dont_write_bytecode`: without a bytecode cache,
  every cold command compiles `src/` again), since per-kind times of
  small ops shift with how the interpreter is started;
* cold-process wall times of the README `causal` and `sky-image`
  commands, the median of COLD fresh interpreters each.

The compare mode prints, for every metric the two records share, the
ratio of the given record's value to that of the newest earlier record
(the largest label below its own), and flags a change worse than 20% in
the metric's direction (BENCHMARK.json's `better` for the end-to-end
metrics; lower for op kinds and cold wall times).  It reports and does
not gate: its exit code is 0 whatever it finds.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: A change worse than this share of the earlier value is flagged.
REGRESSION = 0.20

#: The seed of every run, the runs per workload, and the fresh interpreters
#: per cold command; a record keeps them in its provenance.
SEED, RUNS, COLD = 3, 3, 5

#: The README commands timed from a cold interpreter; {tmp} is a scratch
#: directory for their output files.
COLD_COMMANDS = {
    "causal_flrw": ["causal", "--metric", "flrw", "--p", "0.6666666666666666",
                    "--x", "1,0,0,0", "--y", "0.125,0,0,0"],
    "sky_image_flrw_n500": ["sky-image", "--metric", "flrw", "--p", "0.6666666666666666",
                            "--event", "1,0,0,0", "--target", "singularity", "--n", "500",
                            "--out", "{tmp}/image.json"],
    "sky_image_graph": ["sky-image", "--metric", "minkowski", "--frame", "graph",
                        "--event", "0,0,0,0"],
}

#: One `ref ms` line of perfbench/run.py.
KIND_LINE = re.compile(
    r"^(\S+)\s+ops\s+\d+\s+failed\s+\d+\s+median\s+(\S+) ref ms\s+\S+ wall ms$"
)


def _benchmark():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run_workload(workload, seconds):
    """The final JSON line and the per-kind median ref ms of one run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    kinds = {m[1]: float(m[2]) for m in map(KIND_LINE.match, lines) if m}
    return json.loads(lines[-1]), kinds


def _cold_seconds(argv):
    """Wall times of `python -m skyframes.cli argv` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        command = [sys.executable, "-m", "skyframes.cli"] + [a.format(tmp=tmp) for a in argv]
        for _ in range(COLD):
            t0 = perf_counter()
            subprocess.run(command, env=env, capture_output=True, check=True)
            times.append(perf_counter() - t0)
    return times


def _git(*args):
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _provenance(seconds):
    import numpy
    import scipy

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "python": sys.executable,
        "python_version": sys.version.split()[0],
        "dont_write_bytecode": sys.dont_write_bytecode,
        "seed": SEED,
        "seconds": seconds,
        "runs": RUNS,
    }


def _median_entry(values):
    return {"median": statistics.median(values), "runs": values}


def record(label):
    """Measure and write BENCH_<label>.json; returns its path."""
    bench = _benchmark()
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    lines = {name: [] for name in names}
    kinds = {name: [] for name in names}
    for _ in range(RUNS):
        for name in names:
            line, per_kind = _run_workload(name, seconds)
            lines[name].append(line)
            kinds[name].append(per_kind)
    workloads = {}
    for name in names:
        metrics = {}
        for metric, entry in lines[name][0]["metrics"].items():
            values = [line["metrics"][metric]["value"] for line in lines[name]]
            metrics[metric] = dict(_median_entry(values), unit=entry["unit"])
        ref_ms = {kind: _median_entry([k[kind] for k in kinds[name]]) for kind in kinds[name][0]}
        failed = sum(line["failed"] for line in lines[name])
        workloads[name] = {"metrics": metrics, "ref_ms": ref_ms, "failed": failed}
    cold_s = {name: _median_entry(_cold_seconds(a)) for name, a in COLD_COMMANDS.items()}
    out = {
        "label": label,
        "provenance": _provenance(seconds),
        "workloads": workloads,
        "cold_cli_s": cold_s,
    }
    path = ROOT / f"BENCH_{label}.json"
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _flat(rec, better):
    """{metric name: (median, 'higher' or 'lower')} of a record."""
    out = {}
    for workload, entry in rec["workloads"].items():
        for metric, value in entry["metrics"].items():
            out[f"{workload}.{metric}"] = (value["median"], better.get(metric, "lower"))
        for kind, value in entry["ref_ms"].items():
            out[f"{workload}.ref_ms.{kind}"] = (value["median"], "lower")
    for name, value in rec["cold_cli_s"].items():
        out[f"cold_cli_s.{name}"] = (value["median"], "lower")
    return out


def _label(path):
    match = re.fullmatch(r"BENCH_(\d+)\.json", Path(path).name)
    return int(match[1]) if match else None


def earlier_record(path):
    """The newest BENCH_<n>.json beside path with n below path's label."""
    label = _label(path)
    earlier = [p for p in Path(path).parent.glob("BENCH_*.json")
               if _label(p) is not None and _label(p) < label]
    return max(earlier, key=_label, default=None)


def compare(path, better=None, out=None):
    """Print each shared metric's ratio against the newest earlier record
    and flag regressions beyond REGRESSION; returns the flagged names.
    Lines go to out, standard output by default."""
    if better is None:
        better = {m["name"]: m["better"] for m in _benchmark()["end_to_end"]}
    base_path = earlier_record(path)
    if base_path is None:
        print(f"{Path(path).name}: no earlier BENCH_<n>.json to compare with", file=out)
        return []
    with open(path) as fh:
        new = _flat(json.load(fh), better)
    with open(base_path) as fh:
        old = _flat(json.load(fh), better)
    print(f"{Path(path).name} against {base_path.name}", file=out)
    flagged = []
    for name in sorted(set(new) & set(old)):
        (value, direction), (base, _) = new[name], old[name]
        ratio = value / base if base else float("nan")
        worse = ratio < 1.0 - REGRESSION if direction == "higher" else ratio > 1.0 + REGRESSION
        flag = "  REGRESSION" if worse else ""
        print(f"{name:56s} {base:12.5g} -> {value:12.5g}  x{ratio:.3f}{flag}", file=out)
        if worse:
            flagged.append(name)
    for name in sorted(set(new) ^ set(old)):
        print(f"{name:56s} in one record only", file=out)
    print(f"{len(flagged)} regression(s) over {REGRESSION:.0%}", file=out)
    return flagged


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--label", type=int, help="measure and write BENCH_<label>.json")
    mode.add_argument("--compare", metavar="BENCH_FILE", help="compare a record")
    args = ap.parse_args(argv)
    if args.compare:
        compare(args.compare)
        return 0
    path = record(args.label)
    print(f"wrote {path.name}")
    compare(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
