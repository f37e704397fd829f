"""Command-line surface: transforms, sky images, causal queries, verification.

Exit codes: 0 on success, 1 on a domain or verification failure, 2 on a
usage or configuration error.  All randomness is seeded; reports with the
same configuration and seed are byte-identical.  This is the one module
that writes files: the JSON of both sky-image types and of the verify
report, and both CSV layouts, built from the arrays the library returns.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from . import causality as ca
from . import frames as fr
from . import manifold as mf
from . import verify as vf
from . import errors, minkowski, sky, spinor
from .minkowski import GraphFrame

USAGE_ERROR, DOMAIN_ERROR = 2, 1

#: The JSON type of each key a config file may hold: the flags of every
#: command, as one file serves them all, plus the metric schema of
#: `manifold.metric_from_config` (`metric` and `kind` both name the kind).
CONFIG_TYPES = {
    "metric": "string", "p": "number", "a_expr": "string", "target": "string",
    "frame": "string", "n": "integer", "seed": "integer", "tol": "number",
    "out": "string", "format": "string", "kind": "string", "coeffs": "array",
    "bounds": "array",
}

_JSON_TYPES = {"string": str, "number": (int, float), "integer": int, "array": list}

#: The values of the flags with fixed choices and of their config keys.
CHOICES = {"metric": ("minkowski", "flrw", "custom"), "frame": ("geodesic", "graph"),
           "format": ("json", "csv")}


def _parse_vec(text):
    """The four finite components of an event or a vector."""
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 4:
        raise ValueError(f"expected 4 components, got {len(parts)}")
    vec = np.array([float(p) for p in parts])
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"components must be finite, got {text!r}")
    return vec


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("a config file holds one JSON object")
    unknown = sorted(set(cfg) - CONFIG_TYPES.keys())
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    for key, val in cfg.items():
        kind = CONFIG_TYPES[key]
        if isinstance(val, bool) or not isinstance(val, _JSON_TYPES[kind]):
            raise ValueError(f"config key {key!r} must be a JSON {kind}")
        if key in CHOICES and val not in CHOICES[key]:
            allowed = ", ".join(CHOICES[key])
            raise ValueError(f"config key {key!r} must be one of {allowed}, got {val!r}")
    if "target" in cfg:  # parsed like the --target flag, whatever the frame
        cfg["target"] = target_surface(cfg["target"])
    if "metric" in cfg:  # the --metric flag's name for the kind
        if cfg.get("kind", cfg["metric"]) != cfg["metric"]:
            raise ValueError("config keys 'metric' and 'kind' disagree")
    return cfg


def target_surface(text):
    """The surface named by `singularity`, `cauchy` or `cauchy:<t0>`."""
    if text == "singularity":
        return fr.Singularity()
    if text == "cauchy" or text.startswith("cauchy:"):
        return fr.CauchySurface(float(text.partition(":")[2] or 0.0))
    raise ValueError(f"unknown target {text!r}")


def _graph_frame(opts, metric):
    """Whether the graph frame is asked for; it exists only over flat space."""
    if opts.get("frame") != "graph":
        return False
    if metric.kind != "minkowski":
        raise ValueError("the graph frame is defined over the flat metric")
    return True


def _frame_spec(opts, metric):
    default = fr.CauchySurface(0.0) if metric.kind == "minkowski" else fr.Singularity()
    return fr.FrameSpec(metric=metric, target=opts.get("target", default))


def _write_json(path, payload):
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _image_json(image):
    """The JSON payload of a sky image of either frame, built column by
    column: per sample its covector (Re, Im of both components) and the
    graph's height, or its M point (null unless ok), rank, affine length
    and status."""
    xi = image.sample.xi
    columns = {"xi": np.stack([xi.real, xi.imag], axis=-1).reshape(-1, 4).tolist()}
    head = {"event": image.event.tolist()}
    if isinstance(image, minkowski.GraphSkyImage):
        columns["height"] = image.heights.tolist()
    else:
        head["target"] = dataclasses.asdict(image.target)
        ok = image.ok_mask.tolist()
        columns |= {"m_point": [m if k else None for m, k in zip(image.m_points.tolist(), ok)],
                    "rank": image.ranks.tolist(), "lambda": image.lams.tolist(),
                    "status": image.status}
    return {**head, "samples": [dict(zip(columns, row)) for row in zip(*columns.values())]}


def _write_csv(path, image):
    """A sky image's CSV: the graph's directions and heights, or the M
    points of the ok samples, each value its float repr."""
    if isinstance(image, minkowski.GraphSkyImage):
        header = ["d1", "d2", "d3", "height"]
        rows = np.column_stack([image.sample.directions(), image.heights])
    else:
        header, rows = ["m1", "m2", "m3"], image.m_points[image.ok_mask]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(c) for c in row] for row in rows.tolist())


def _report_json(report):
    """The JSON payload of a `verify.VerificationReport`."""
    return dict(
        name=report.name, passed=bool(report.passed), max_residual=report.max_residual,
        tolerance=report.tolerance, probe_count=report.probe_count,
        residuals=np.asarray(report.residuals, dtype=float).ravel().tolist(),
        extras={k: np.asarray(v).tolist() for k, v in report.extras.items()},
    )


def cmd_pauli(opts):
    vec = _parse_vec(opts["vec"])
    h = spinor.pauli_transform(vec)
    psi = spinor.factor_null(vec) if opts["factor"] else None
    unit, e = spinor.power_of_two_scaled(vec, np.abs(vec).max())  # exact, unlike vec / max
    norm = float(np.ldexp(spinor.minkowski_norm(unit), 2 * e))
    print("matrix:")
    for row in h:
        print("  [" + ", ".join(f"{z.real:+.12g}{z.imag:+.12g}j" for z in row) + "]")
    print(f"norm: {norm:.12g}")
    if psi is not None:
        print(f"spinor: [{psi[0]:.12g}, {psi[1]:.12g}]")
    return 0


def cmd_sky_image(opts):
    sample = sky.sample_sky(int(opts.get("n", 500)))
    event = _parse_vec(opts["event"])
    metric = mf.metric_from_config(opts)
    if _graph_frame(opts, metric):
        image = minkowski.sky_image_minkowski(event, sample)
        summary = f"height range: [{image.heights.min():.6g}, {image.heights.max():.6g}]"
    else:
        image = fr.sky_image(_frame_spec(opts, metric), event, sample)
        pts = image.m_points[image.ok_mask]
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        summary = (
            f"regular fraction: {float(np.mean(image.regular_mask)):.3f}  bounding box: "
            f"[{lo[0]:.6g}, {lo[1]:.6g}, {lo[2]:.6g}] .. [{hi[0]:.6g}, {hi[1]:.6g}, {hi[2]:.6g}]"
        )
    print(f"samples: {sample.n}  {summary}")
    if opts.get("format") == "csv":
        _write_csv(opts.get("out") or "sky_image.csv", image)
    else:
        _write_json(opts.get("out"), _image_json(image))
    return 0


def cmd_causal(opts):
    x = _parse_vec(opts["x"])
    y = _parse_vec(opts["y"])
    metric = mf.metric_from_config(opts)
    if _graph_frame(opts, metric):
        print(minkowski.causal_compare(x, y).value)
        return 0
    spec = _frame_spec(opts, metric)
    rx, ry = ca.past_regions(spec, x, y)
    print(ca.causal_relation(rx, ry).value)
    if isinstance(rx, ca.Ball):
        gap = ca.separation(rx, ry)
        print(
            f"radius_x: {rx.radius:.12g}  radius_y: {ry.radius:.12g}  "
            f"separation: {gap:.12g}"
        )
        print(
            f"margin_y_in_x: {rx.radius - ry.radius - gap:.12g}  "
            f"margin_x_in_y: {ry.radius - rx.radius - gap:.12g}"
        )
    return 0


def cmd_verify(opts):
    seed = int(opts.get("seed", 0))
    n = int(opts.get("n", 200))
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    tol = opts.get("tol")
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    metric = mf.metric_from_config(opts)
    suite = opts["suite"]
    graph = _graph_frame(opts, metric)
    spec = _frame_spec(opts, metric)
    frame = GraphFrame() if graph else spec

    reports = []
    if suite in ("twistor", "all"):
        reports += vf.suite_twistor(seed, n=n)
    if suite in ("contact", "all"):
        reports += vf.suite_contact(seed, n=min(n, 25), frame=spec)
    if suite in ("theorem1", "all"):
        reports += vf.suite_kernel(seed, n=min(n, 25), frame=frame, tol=tol)
    if suite in ("flow", "all"):
        reports += vf.suite_flow(seed, n_sky=min(n, 25), frame=frame, tol=tol)

    payload = {
        "suite": suite,
        "seed": seed,
        "reports": [_report_json(r) for r in reports],
        "passed": all(r.passed for r in reports),
    }
    _write_json(opts.get("out", "verify_report.json"), payload)
    for r in reports:
        flag = "pass" if r.passed else "FAIL"
        print(f"{flag}  {r.name}: max residual {r.max_residual:.3e} <= {r.tolerance:.1e}")
    return 0 if payload["passed"] else DOMAIN_ERROR


def _build_parser():
    parser = argparse.ArgumentParser(prog="skyframes")
    parser.add_argument("--config", help="JSON config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    frame_flags = argparse.ArgumentParser(add_help=False)  # the metric and frame of a command
    frame_flags.add_argument("--metric", choices=CHOICES["metric"])
    frame_flags.add_argument("--p", type=float, help="power-law scale-factor exponent")
    frame_flags.add_argument("--a-expr", dest="a_expr", help="scale factor a(t) expression")
    frame_flags.add_argument("--target", type=target_surface, help="cauchy:t0 or singularity")
    frame_flags.add_argument("--frame", choices=CHOICES["frame"])

    p = sub.add_parser("pauli", help="transform a 4-vector")
    p.add_argument("--vec", required=True, help="four comma-separated components")
    p.add_argument("--factor", action="store_true", help="also factor a null vector")
    p.set_defaults(func=cmd_pauli)

    p = sub.add_parser("sky-image", parents=[frame_flags], help="project a sky to M")
    p.add_argument("--n", type=int)
    p.add_argument("--out")
    p.add_argument("--format", choices=CHOICES["format"])
    p.add_argument("--event", required=True)
    p.set_defaults(func=cmd_sky_image)

    p = sub.add_parser("causal", parents=[frame_flags], help="order two events")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=cmd_causal)

    p = sub.add_parser("verify", parents=[frame_flags], help="run verification suites")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--out")
    p.add_argument(
        "--suite",
        required=True,
        choices=["contact", "theorem1", "flow", "twistor", "all"],
    )
    p.set_defaults(func=cmd_verify)
    return parser


#: The one parser of the process: each parse makes a fresh namespace and
#: reads nothing a parse before it left behind.
PARSER = _build_parser()


def main(argv=None):
    try:
        args, unknown = PARSER.parse_known_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    if unknown:  # a flag the command does not take: one line, not the usage
        print(f"skyframes {args.command}: error: unrecognized arguments: {' '.join(unknown)}",
              file=sys.stderr)
        return USAGE_ERROR
    try:
        # One settings mapping: every flag given beats the config, which
        # beats each command's defaults.
        opts = _load_config(args.config)
        opts.update((key, val) for key, val in vars(args).items() if val is not None)
        opts["kind"] = opts.get("metric", opts.get("kind", "minkowski"))
        with np.errstate(over="raise", invalid="raise"):  # no inf or NaN results
            try:
                return args.func(opts)
            except (FloatingPointError, OverflowError) as exc:  # numpy's or a float's
                raise errors.OutOfDomainError(f"out of float range: {exc.args[-1]}")
    except (errors.BadCountError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except errors.SkyframesError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
