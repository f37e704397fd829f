"""The benchmark's workloads: seeded inputs, the timed call, and the oracle.

Each workload is a fixed cycle of op slots.  The slot list (kinds and
sizes) is the same for every seed; the seed draws the events, sky samples,
pairs and verify seeds that go into the slots.  An op is one call into the
public API; its check compares the result with an independent reference
and returns None when it passes, or a one-line description of the mismatch.

Independent references: the conformal-time radii eta(t) - eta(t_target),
written out here from the scale factor; `minkowski.interval_compare_batch`;
the exact verdicts of the custom metric a(t) = 1 + 0.1 t; and the
byte-identical report of an earlier op with the same seed and metric.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from skyframes import causality as ca
from skyframes import cli
from skyframes import frames as fr
from skyframes import manifold as mf
from skyframes import minkowski as mk
from skyframes import sky

WORKLOADS = ("sky_numeric", "closed_form", "verify", "causal_mesh")

#: The matter era a(t) = t^(2/3) given as an expression.
A_EXPR = "t**0.6666666666666666"

#: The README custom metric: conformally flat with a(t) = 1 + 0.1 t.
CUSTOM_METRIC = {
    "kind": "custom",
    "coeffs": ["1", "-(1 + 0.1*t)**2", "-(1 + 0.1*t)**2", "-(1 + 0.1*t)**2"],
    "bounds": [[0, None], [None, None], [None, None], [None, None]],
}

NUMERIC_RADIUS_TOL = 1e-4  # criterion 5, numeric tracer
CLOSED_RADIUS_TOL = 1e-6  # criterion 5, closed form
PAIR_MARGIN = 1e-9  # criterion 4: pairs this close to the null cone are skipped
BALL_MARGIN = 1e-6  # criterion 9
VERIFY_N = 8


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# Conformal time, written out independently of the program.


def eta_power(p):
    return lambda t: np.asarray(t, float) ** (1.0 - p) / (1.0 - p)


def eta_custom(t):
    """a(t) = 1 + 0.1 t gives eta(t) = 10 ln(1 + 0.1 t)."""
    return 10.0 * np.log1p(0.1 * np.asarray(t, float))


# ---------------------------------------------------------------------------
# Oracles.


def sky_image_mismatch(image, event, radius, tol):
    """Every sample ok, rank 2, at distance `radius` from the event."""
    status = np.asarray(image.status)
    bad = int(np.count_nonzero(status != "ok"))
    if bad:
        return f"{bad}/{status.size} samples not ok"
    low_rank = int(np.count_nonzero(np.asarray(image.ranks) != 2))
    if low_rank:
        return f"{low_rank}/{status.size} samples below rank 2"
    dist = np.linalg.norm(image.m_points - np.asarray(event)[1:], axis=1)
    err = float(np.max(np.abs(dist - radius)))
    if not err <= tol:
        return f"image radius off by {err:.3e} > {tol:.0e}"
    return None


def codes_mismatch(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    if got.shape != expected.shape:
        return f"{got.shape} verdicts for {expected.shape} pairs"
    wrong = int(np.count_nonzero(got != expected))
    if wrong:
        return f"{wrong}/{expected.size} causal verdicts differ from the reference"
    return None


def report_mismatch(result, first):
    """Exit 0, every report passes, same bytes as `first` (when given)."""
    code, text = result
    if code != 0:
        return f"verify exited with {code}"
    payload = json.loads(text)
    failed = [r["name"] for r in payload["reports"] if not r["passed"]]
    if failed or not payload["passed"]:
        return f"failing reports: {sorted(set(failed))}"
    if first is not None and text != first:
        at = next(
            (k for k, (a, b) in enumerate(zip(text, first)) if a != b),
            min(len(text), len(first)),
        )
        return f"report differs from the first one for its seed at byte {at}"
    return None


# ---------------------------------------------------------------------------
# Building the workloads.


def _rng(seed, workload):
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _sub_seed(rng):
    return int(rng.integers(2**31))


def _image_op(kind, spec, event, sample, radius, tol):
    return Op(
        kind=kind,
        call=lambda: fr.sky_image(spec, event, sample, with_rank=True),
        check=lambda image: sky_image_mismatch(image, event, radius, tol),
    )


def _flrw(p=None, a_expr=None):
    cfg = {"kind": "flrw", "p": p} if a_expr is None else {"kind": "flrw", "a_expr": a_expr}
    return mf.metric_from_config(cfg)


def _target(t0):
    return fr.Singularity() if t0 is None else fr.CauchySurface(t0)


# (kind, scale-factor config, exponent for the reference eta, target t0 or
# None for the singularity, event time, sky size)
SKY_NUMERIC = (
    ("p0.667_singularity_n32", {"p": 2 / 3}, 2 / 3, None, 1.0, 32),
    ("p0.5_singularity_n96", {"p": 0.5}, 0.5, None, 1.2, 96),
    ("p0.667_cauchy0.25_n200", {"p": 2 / 3}, 2 / 3, 0.25, 0.9, 200),
    ("aexpr_cauchy0.3_n64", {"a_expr": A_EXPR}, 2 / 3, 0.3, 1.1, 64),
    ("p0.5_cauchy0.2_n48", {"p": 0.5}, 0.5, 0.2, 1.0, 48),
)

#: The same matter era as an expression, traced to the singularity.  It
#: fails at the current commit (finite-difference a'(t) evaluates a at
#: t < 0), and a workload may not hold failing ops, so it is kept out of
#: the cycle; the self-check tracks it as an expected failure.
KNOWN_DEFECT = ("aexpr_singularity_n64", {"a_expr": A_EXPR}, 2 / 3, None, 1.0, 64)


def sky_numeric_op(rng, slot):
    kind, scale, p, t0, t, n = slot
    spec = fr.FrameSpec(
        metric=_flrw(**scale), target=_target(t0), tracer="numeric", step=1e-3
    )
    event = np.array([t, *rng.uniform(-2.0, 2.0, size=3)])
    sample = sky.sample_sky(n, scheme="random", seed=_sub_seed(rng))
    eta = eta_power(p)
    radius = float(eta(t) - (0.0 if t0 is None else eta(t0)))
    return _image_op(kind, spec, event, sample, radius, NUMERIC_RADIUS_TOL)


def build_sky_numeric(seed):
    rng = _rng(seed, "sky_numeric")
    return [sky_numeric_op(rng, slot) for slot in SKY_NUMERIC]


def _pairs_op(rng, n=100_000):
    xs = rng.uniform(-2.0, 2.0, size=(n, 4))
    ys = rng.uniform(-2.0, 2.0, size=(n, 4))
    d = xs - ys
    keep = np.abs(np.abs(d[:, 0]) - np.linalg.norm(d[:, 1:], axis=1)) > PAIR_MARGIN
    xs, ys = xs[keep], ys[keep]
    return Op(
        kind="pairs_1e5",
        call=lambda: mk.causal_compare_batch(xs, ys),
        check=lambda codes: codes_mismatch(codes, mk.interval_compare_batch(xs, ys)),
    )


def _ball_op(rng, n=2000):
    """Analytic-ball queries on the p = 2/3 boundary frame (criterion 9)."""
    spec = fr.FrameSpec(metric=_flrw(p=2 / 3), target=fr.Singularity())
    eta = eta_power(2 / 3)
    ts = rng.uniform(0.05, 1.5, size=(2, 2 * n))
    ps = rng.uniform(-4.0, 4.0, size=(2, 2 * n, 3))
    gap = np.linalg.norm(ps[0] - ps[1], axis=1)
    d_eta = eta(ts[0]) - eta(ts[1])
    keep = np.flatnonzero(np.abs(d_eta - gap) > BALL_MARGIN)[:n]
    xs = np.column_stack([ts[0][keep], ps[0][keep]])
    ys = np.column_stack([ts[1][keep], ps[1][keep]])
    expected = gap[keep] <= d_eta[keep]
    return Op(
        kind="ball_queries_2000",
        call=lambda: [ca.in_causal_past(spec, y, x) for x, y in zip(xs, ys)],
        check=lambda got: codes_mismatch(got, expected),
    )


def build_closed_form(seed):
    rng = _rng(seed, "closed_form")
    mink = fr.FrameSpec(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0))
    flrw = fr.FrameSpec(metric=_flrw(p=2 / 3), target=fr.Singularity())
    eta = eta_power(2 / 3)

    def image(spec, t, n):
        event = np.array([t, *rng.uniform(-2.0, 2.0, size=3)])
        sample = sky.sample_sky(n, scheme="random", seed=_sub_seed(rng))
        if spec is mink:
            kind, radius = f"minkowski_cauchy0_n{n}", t
        else:
            kind, radius = f"p0.667_singularity_n{n}", float(eta(t))
        return _image_op(kind, spec, event, sample, radius, CLOSED_RADIUS_TOL)

    return [
        image(mink, 1.5, 500),
        image(flrw, 1.0, 2000),
        _pairs_op(rng),
        image(mink, 1.2, 5000),
        _ball_op(rng),
        image(flrw, 0.8, 20_000),
        _pairs_op(rng),
    ]


FLRW_FLAGS = ["--metric", "flrw", "--p", "0.6666666666666666", "--target", "singularity"]


def build_verify(seed, workdir):
    """CLI verify runs, alternating the flat and the p = 2/3 boundary frame.

    Each (metric, seed) pair recurs once per cycle, and every recurrence
    must reproduce the first report byte for byte.  The flat runs cost
    nearly the same for every seed (fixed affine span); the cosmology runs
    vary with the drawn event times.
    """
    rng = _rng(seed, "verify")
    seeds = [_sub_seed(rng) % 10_000 for _ in range(5)]
    slots = [("minkowski", k) for k in seeds]
    for j, k in enumerate(seeds[:4]):
        slots.insert(2 * j + 1, ("flrw", k))
    first = {}

    def op(metric, k):
        out = os.path.join(workdir, f"verify-{metric}-{k}.json")
        argv = ["verify", "--suite", "all", "--seed", str(k), "--n", str(VERIFY_N)]
        argv += ["--out", out] + (FLRW_FLAGS if metric == "flrw" else [])

        def call():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                return cli.main(argv)

        def check(code):
            with open(out) as fh:
                text = fh.read()
            os.remove(out)
            mismatch = report_mismatch((code, text), first.get((metric, k)))
            first.setdefault((metric, k), text)
            return mismatch

        return Op(kind=f"verify_{metric}_n{VERIFY_N}", call=call, check=check)

    return [op(metric, k) for metric, k in slots]


# (kind, event time of x, event time of y, sky size, y inside the past of x)
CAUSAL_MESH = (
    ("inside_n64", 0.6, 0.45, 64, True),
    ("outside_n96", 0.55, 0.45, 96, False),
    ("inside_n48", 0.65, 0.4, 48, True),
)
MESH_TARGET_T0 = 0.3
#: Verdict margin as a share of the radius of x's past region; the chord
#: error of a Fibonacci mesh with 48 or more vertices is below 5%.
MESH_MARGIN = 0.15


def build_causal_mesh(seed):
    """Mesh-path causal queries on the custom metric, Cauchy-slice target.

    The pairs are drawn with the seed so that the exact verdict (compare the
    comoving gap with eta(x) - eta(y)) clears the null boundary by
    MESH_MARGIN of the region radius, well beyond the mesh chord error.
    """
    rng = _rng(seed, "causal_mesh")
    spec = fr.FrameSpec(
        metric=mf.metric_from_config(CUSTOM_METRIC),
        target=fr.CauchySurface(MESH_TARGET_T0),
    )
    ops = []
    for kind, tx, ty, n, inside in CAUSAL_MESH:
        d_eta = float(eta_custom(tx) - eta_custom(ty))
        margin = MESH_MARGIN * float(eta_custom(tx) - eta_custom(MESH_TARGET_T0))
        if inside:
            gap = rng.uniform(0.0, d_eta - margin)
        else:
            gap = rng.uniform(d_eta + margin, d_eta + 3 * margin)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        px = rng.uniform(-1.0, 1.0, size=3)
        x = np.array([tx, *px])
        y = np.array([ty, *(px + gap * direction)])
        expected = bool(gap <= d_eta)
        sample = sky.sample_sky(n)
        ops.append(
            Op(
                kind=kind,
                call=lambda x=x, y=y, sample=sample: ca.in_causal_past(spec, y, x, sample),
                check=lambda got, expected=expected: codes_mismatch(got, expected),
            )
        )
    return ops


def build(workload, seed, workdir):
    if workload == "sky_numeric":
        return build_sky_numeric(seed)
    if workload == "closed_form":
        return build_closed_form(seed)
    if workload == "verify":
        return build_verify(seed, workdir)
    if workload == "causal_mesh":
        return build_causal_mesh(seed)
    raise ValueError(f"unknown workload {workload!r}")

