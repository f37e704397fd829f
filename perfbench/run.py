"""Benchmark runner for skyframes.

Run from the repository root:

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Workloads: sky_numeric, closed_form, verify, causal_mesh (workloads.py and
BENCHMARK.json say why each was chosen).  A run repeats the workload's op
cycle until --seconds have passed, always finishing the cycle it is in, and
checks every op against its oracle.

With --trace 0 it reports the end-to-end metrics.  Op times are in
reference seconds (see hostspeed.py): each op's wall time is rescaled by a
short calibration kernel timed around it, which takes out most of the
slowdown that other tenants of a shared machine cause.  The wall times are
printed beside them.  Set-up time is plain wall time, the median of
SETUP_REPEATS fresh interpreters.

With --trace 1 it runs whole cycles untraced for half the time, replays
exactly those ops with every layer wrapped (tracing.py), and reports the
per-layer metrics per cycle, self times in reference seconds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full result, with provenance
and every op's wall time, and the raw spans of traced runs go to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Fresh interpreters started per run to measure set-up; the median counts.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up time: a fresh interpreter imports the CLI and builds the inputs.


def setup_probe(args, workdir):
    """Child side: import like the entry point, build the inputs, report."""
    from skyframes.cli import main  # noqa: F401 - the console-script import

    import workloads

    workloads.build(args.workload, args.seed, workdir)
    print("ready", flush=True)
    return 0


def measure_setup(args, workdir):
    """Wall seconds of each set-up probe, in raw time: the calibration
    kernel does not track import-bound work, so it is not applied here."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = perf_counter() - t0
                proc.communicate(timeout=SETUP_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        walls.append(elapsed)
    return walls


# ---------------------------------------------------------------------------
# The timed loop.


@dataclass
class Timings:
    """Per-op kind, wall seconds and failure (None when the oracle passed),
    plus the calibration kernel times around the ops."""

    kinds: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    kernel: list = field(default_factory=list)
    cycles: int = 0

    def reference(self):
        return hostspeed.reference_times(self.walls, self.kernel)

    def passed(self):
        return sum(f is None for f in self.failures)


def run_cycles(ops, seconds=None, cycles=None, tracer=None, fit=False):
    """Run whole cycles of ops: exactly `cycles`, or until `seconds` pass.

    With `fit`, stop instead before a cycle that would end past `seconds`
    at the mean cycle time so far; at least one cycle always runs.  The
    calibration kernel runs before each op and after the last.  The oracle
    check runs outside the timed call and with tracing paused.
    """
    t = Timings()
    t_start = perf_counter()

    def another_cycle():
        if cycles is not None:
            return t.cycles < cycles
        if t.cycles == 0:
            return True
        elapsed = perf_counter() - t_start
        if fit:
            return elapsed * (t.cycles + 1) / t.cycles <= seconds
        return elapsed < seconds

    while another_cycle():
        for op in ops:
            t.kernel.append(hostspeed.kernel_seconds())
            if tracer is not None:
                tracer.op = len(t.walls)
                tracer.enabled = True
            t0 = perf_counter()
            try:
                result = op.call()
                failure = None
            except Exception as exc:  # a failed op is counted, the run goes on
                failure = f"raised {type(exc).__name__}: {exc}"
            wall = perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            if failure is None:
                try:
                    failure = op.check(result)
                except Exception as exc:
                    failure = f"oracle could not read the result: {type(exc).__name__}: {exc}"
            if failure is not None:
                print(f"op {len(t.walls)} {op.kind} FAILED: {failure}")
            t.kinds.append(op.kind)
            t.walls.append(wall)
            t.failures.append(failure)
        t.cycles += 1
    t.kernel.append(hostspeed.kernel_seconds())
    return t


def end_to_end_metrics(t, ops, setup_walls):
    """End-to-end metrics of an untraced run; op times in reference seconds.

    Throughput is the cycle's ops over the sum of each slot's median time
    across the run's cycles.  The op median is the median, over the
    cycle's slots, of the median time of the slot's op kind.  Medians keep
    a stall that hits a few ops from moving either much.
    """
    ref = t.reference()
    slot_s = np.median(ref.reshape(t.cycles, len(ops)), axis=0)
    kinds = np.array(t.kinds)
    kind_s = {kind: np.median(ref[kinds == kind]) for kind in set(t.kinds)}
    ok = t.passed() / len(t.walls)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (float(np.median(setup_walls)), "s"),
        "ops_per_s": (ok * len(ops) / float(slot_s.sum()), "1/s"),
        "op_p50_ms": (1e3 * float(np.median([kind_s[op.kind] for op in ops])), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_frac": (ok, "ratio"),
    }


def per_kind(t):
    ref = t.reference()
    out = {}
    for kind in dict.fromkeys(t.kinds):
        idx = [i for i, k in enumerate(t.kinds) if k == kind]
        out[kind] = {
            "ops": len(idx),
            "failed": sum(t.failures[i] is not None for i in idx),
            "median_ref_ms": 1e3 * float(np.median(ref[idx])),
            "median_wall_ms": 1e3 * float(np.median([t.walls[i] for i in idx])),
        }
    return out


# ---------------------------------------------------------------------------
# Provenance.


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _openblas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args, ops, cycles):
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "openblas_threads": _openblas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_cycle": len(ops),
        "cycles": cycles,
    }


# ---------------------------------------------------------------------------


def run(args, workdir):
    import tracing
    import workloads

    ops = workloads.build(args.workload, args.seed, workdir)
    summary = {}
    if args.trace:
        # Fit the untraced cycles into half the time, so that with the
        # traced replay the run takes about --seconds.
        base = run_cycles(ops, seconds=args.seconds / 2, fit=True)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_cycles(ops, cycles=base.cycles, tracer=tracer)
        finally:
            tracer.restore()
        overhead = traced.reference().sum() / base.reference().sum() - 1.0
        scale = hostspeed.REFERENCE_S / float(np.median(traced.kernel))
        metrics = tracer.metrics(traced.cycles, overhead, time_scale=scale)
        summary["layers_by_kind"] = layers_by_kind(tracer, traced, scale)
        OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / "results" / f"spans-{args.workload}-seed{args.seed}.npz")
        timings = [base, traced]
    else:
        setup_walls = measure_setup(args, workdir)
        timed = run_cycles(ops, seconds=args.seconds)
        metrics = end_to_end_metrics(timed, ops, setup_walls)
        summary["setup_wall_s"] = setup_walls
        timings = [timed]
    return ops, timings, metrics, summary


def layers_by_kind(tracer, t, scale):
    """Self time per layer for each op kind: where each kind spends its time."""
    op_of = np.array(tracer.op_of, dtype=np.int32)
    out = {}
    for kind in dict.fromkeys(t.kinds):
        idx = [i for i, k in enumerate(t.kinds) if k == kind]
        totals = tracer.layer_totals(np.isin(op_of, idx))
        out[kind] = {
            layer: busy * scale for layer, (_, busy) in totals.items() if busy > 0
        }
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "skyframes" / "__init__.py").is_file():
        print(f"perfbench: no skyframes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"tmp-{os.getpid()}"
    if args.setup_probe:
        return setup_probe(args, workdir)

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops, timings, metrics, summary = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(t.walls) for t in timings)
    failed = attempted - sum(t.passed() for t in timings)
    prov = provenance(args, ops, timings[0].cycles)
    kinds = [per_kind(t) for t in timings]
    print("provenance " + json.dumps(prov, sort_keys=True))
    for kind, e in kinds[0].items():
        print(
            f"{kind:32s} ops {e['ops']:4d}  failed {e['failed']:3d}  median "
            f"{e['median_ref_ms']:10.2f} ref ms {e['median_wall_ms']:10.2f} wall ms"
        )
    for kind, layers in summary.get("layers_by_kind", {}).items():
        top = sorted(layers.items(), key=lambda kv: -kv[1])[:3]
        print(f"{kind:32s} self s: " + ", ".join(f"{k} {v:.3f}" for k, v in top))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "provenance": prov,
        "per_kind": kinds,
        "ops": [list(zip(t.kinds, t.walls, t.failures)) for t in timings],
        "kernel_s": [t.kernel for t in timings],
        **summary,
        **result,
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
