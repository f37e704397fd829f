"""Digests of a fixed matrix of outputs, to show that a change keeps their
bits, or to list the cases whose bits it moves.

Run from the repository root:

    python3 tools/digests.py                   # one line per case of this tree
    python3 tools/digests.py --against HEAD~1  # the cases that differ from HEAD~1

A case is a sky image, a CLI command or an expected error on one chart.
The near-target cases are sky images of events on a nonzero Cauchy
target, one ulp above it and 1e-13 below it; the legs cases are
numeric-tracer images of events where a(t)^2 under- or overflows; the
apart cases are numeric-tracer images on bounded charts whose rays settle
on different grid levels.
Its digest holds, per output, the SHA-256 of an array's dtype, shape and
bytes, of a file's or stdout's bytes, or of an error's type and message.
The outputs are read through names that older trees have too, so that
`--against` compares like with like: `project_batch(...)` items 0 to 2,
the fields of `TangentPlanes` other than the base ray's fate, the fields
and status strings of `SkyImage` and its JSON bytes (the CLI's payload
function where the tree has one, else the image's `to_json_dict`), and
the CLI's exit codes, stdout, stderr and output files.

`--against REV` unpacks REV's `src/` with `git archive` into a temporary
directory and runs the matrix on each tree in a fresh interpreter.  It
prints the cases that differ, with the outputs that differ in each and,
for an array of one shape in both trees, its largest relative difference
(the cases that differ run once more on each tree for their values), and
exits 0 whatever it finds.  Commit no digests: numpy's SIMD loops may give
other last bits on another CPU, so compare two trees on one host.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import glob
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Sky sizes of every chart, and its three events (those of the conformally
#: flat W chart; the slab events start at x = 2, by the slab's edge).
SIZES = (16, 200, 2000)
EVENTS = ((1.0, 0.0, 0.0, 0.0), (1.5, 0.3, -0.4, 0.2), (2.2, -0.5, 0.6, 0.1))
SLAB_EVENTS = ((1.0, 2.0, 0.0, 0.0), (1.5, 2.0, -0.4, 0.2), (2.2, 1.9, 0.6, 0.1))

P23 = {"kind": "flrw", "p": 0.6666666666666666}
README_CHART = {
    "kind": "custom",
    "coeffs": ["1", "-(1 + 0.1*t)**2", "-(1 + 0.1*t)**2", "-(1 + 0.1*t)**2"],
    "bounds": [[0, None], [None, None], [None, None], [None, None]],
}
ANISOTROPIC = {
    "kind": "custom",
    "coeffs": ["1", "-1", "-(1 + 0.5*t)**2", "-1"],
    "bounds": [[0, None], [None, None], [None, None], [None, None]],
}
W = "1+0.3*x*x+0.1*y*y+0.2*t+0.1*x*z"
W_CHART = {
    "kind": "custom",
    "coeffs": [W, f"-({W})", f"-({W})", f"-({W})"],
    "bounds": [[0, None], [-3, 3], [-3, 3], [-3, 3]],
}
#: The compactified chart: the Einstein static universe R x S^3 in stereographic
#: coordinates, bounded so that rays near the pole leave the box.
S3_CHART = {
    "kind": "custom",
    "coeffs": ["1"] + ["-4/(1+x*x+y*y+z*z)**2"] * 3,
    "bounds": [[None, None], [-50, 50], [-50, 50], [-50, 50]],
}
SLAB = {"kind": "minkowski", "bounds": [[None, None], [-2.1, 2.1], [None, None], [None, None]]}

#: name: (metric config, target, tracer, events).  The README chart, a
#: custom chart of t alone, takes the closed form, and on the numeric
#: tracer its levels march in array operations (`_t_level`); the
#: anisotropic and W charts march node by node (`_march`).
CHARTS = {
    "flat": ({"kind": "minkowski"}, "cauchy:0", "auto", EVENTS),
    "p2/3": (P23, "singularity", "auto", EVENTS),
    "p2/3-numeric": (P23, "singularity", "numeric", EVENTS),
    "a_expr": ({"kind": "flrw", "a_expr": "t**0.6666666666666666"}, "cauchy:0.3", "auto", EVENTS),
    "readme": (README_CHART, "cauchy:0.3", "auto", EVENTS),
    "readme-numeric": (README_CHART, "cauchy:0.3", "numeric", EVENTS),
    "anisotropic": (ANISOTROPIC, "cauchy:0", "auto", EVENTS),
    "W": (W_CHART, "cauchy:0.2", "auto", EVENTS),
    "slab": (SLAB, "cauchy:0", "auto", SLAB_EVENTS),
    "slab-numeric": (SLAB, "cauchy:0", "numeric", SLAB_EVENTS),
}

#: name: (metric config, Cauchy target, tracer) of the near-target cases.
NEAR_CHARTS = {
    "flat": ({"kind": "minkowski"}, "cauchy:0.5", "auto"),
    "p2/3": (P23, "cauchy:0.5", "auto"),
    "p2/3-numeric": (P23, "cauchy:0.5", "numeric"),
    "readme": (README_CHART, "cauchy:0.3", "auto"),
    "readme-numeric": (README_CHART, "cauchy:0.3", "numeric"),
}
NEAR = ("on", "ulp-above", "below")

#: name: (metric config, target, event) of the legs cases, numeric-tracer
#: images at times where a(t) is a float and a(t)^2 is not.
LEGS = {
    "p2/3-t1e-300": (P23, "singularity", (1e-300, 0.0, 0.0, 0.0)),
    "p2-t1e90": ({"kind": "flrw", "p": 2.0}, "cauchy:1e89", (1e90, 0.0, 0.0, 0.0)),
}

#: name: (metric config, target, event) of the apart cases, 200-sample
#: numeric-tracer images in a box that some rays leave at the first two
#: grid levels while the others refine, so that each batch settles apart:
#: on FLRW the ladder keys the starts again (`_t_level`), on the stiff
#: anisotropic chart it marches node by node (`_march`).
APART = {
    "p2/3-box": (dict(P23, bounds=[[0, None]] + [[-2.9, 2.9]] * 3), "singularity",
                 (1.5, 0.3, -0.4, 0.2)),
    "anisotropic-box": (dict(ANISOTROPIC, coeffs=["1", "-1", "-(1 + 3*t)**2", "-1"],
                             bounds=[[0, None]] + [[-1.5, 1.5]] * 3), "cauchy:0",
                        (1.5, 0.3, -0.4, 0.2)),
}

#: Event families of the tangent planes with families.
DIRECTIONS = ((0.0, 1.0, 0.0, 0.0), (0.3, 0.0, -0.2, 1.0))

#: The fields of `TangentPlanes` that every tree has.
PLANE_FIELDS = (
    "m_points", "lams", "stencil_ok", "jacobians", "ranks", "normals", "family",
    "family_ok", "family_h",
)

#: name: (config file or None, argv); {tmp} is the case's scratch directory.
CLI = {
    "sky-image/p2/3-n500": (None, ["sky-image", "--metric", "flrw", "--p", "0.6666666666666666",
                                   "--event", "1,0,0,0", "--target", "singularity", "--n",
                                   "500", "--out", "{tmp}/out"]),
    "sky-image/slab-csv": (SLAB, ["sky-image", "--event", "1,2,0,0", "--n", "50", "--format",
                                  "csv", "--out", "{tmp}/out"]),
    "sky-image/readme-n200": (README_CHART, ["sky-image", "--target", "cauchy:0.3", "--event",
                                             "0.6,0,0,0", "--n", "200", "--out", "{tmp}/out"]),
    "sky-image/p2/3-csv": (None, ["sky-image", "--metric", "flrw", "--p", "0.6666666666666666",
                                  "--event", "1,0,0,0", "--n", "200", "--format", "csv",
                                  "--out", "{tmp}/out"]),
    "sky-image/graph": (None, ["sky-image", "--metric", "minkowski", "--frame", "graph",
                               "--event", "0,0,0,0", "--n", "50"]),
    "sky-image/graph-csv": (None, ["sky-image", "--metric", "minkowski", "--frame", "graph",
                                   "--event", "1,0.5,-0.25,0", "--n", "50", "--format", "csv",
                                   "--out", "{tmp}/out"]),
    "causal/p2/3-ball": (None, ["causal", "--metric", "flrw", "--p", "0.6666666666666666",
                                "--x", "1,0,0,0", "--y", "0.125,0,0,0"]),
    # the README chart, of t alone, takes the ball path; the names are those
    # of the trees where it meshed, so that `--against` pairs them
    "causal/readme-mesh": (README_CHART, ["causal", "--target", "cauchy:0.3", "--x", "0.6,0,0,0",
                                          "--y", "0.45,0.05,0,0"]),
    "causal/readme-mesh-spacelike": (README_CHART, ["causal", "--target", "cauchy:0.3", "--x",
                                                    "0.6,0,0,0", "--y", "0.6,0.3,0,0"]),
    # curved charts of x, y and z: meshes of rays marched node by node
    "causal/W-mesh": (W_CHART, ["causal", "--target", "cauchy:0.2", "--x", "1.5,0.3,-0.4,0.2",
                                "--y", "1,0.2,-0.3,0.1"]),
    "causal/W-mesh-spacelike": (W_CHART, ["causal", "--target", "cauchy:0.2", "--x",
                                          "1.5,0.3,-0.4,0.2", "--y", "1.2,0.9,-0.4,0.2"]),
    "causal/S3-mesh": (S3_CHART, ["causal", "--target", "cauchy:0", "--x", "1.2,0.3,-0.2,0.1",
                                  "--y", "0.6,0.2,-0.1,0.1"]),
    "causal/S3-mesh-spacelike": (S3_CHART, ["causal", "--target", "cauchy:0", "--x",
                                            "1.2,0.3,-0.2,0.1", "--y", "1.1,-0.3,-0.2,0.1"]),
    "causal/graph": (None, ["causal", "--metric", "minkowski", "--frame", "graph", "--x",
                            "1,0,0,0", "--y", "0.5,0.3,0,0"]),
    "causal/slab-error": (SLAB, ["causal", "--x", "1,2,0,0", "--y", "0.2,2.05,0.5,0"]),
    # radii that underflow to 0 above the target: refused, not read equal
    "causal/p3-radius-underflow": (None, ["causal", "--metric", "flrw", "--p", "3", "--target",
                                          "cauchy:1e300", "--x=1.5e308,0,0,0", "--y=1e300,0,0,0"]),
    "causal/p-1-radius-underflow": (None, ["causal", "--metric", "flrw", "--p", "-1", "--target",
                                           "cauchy:1e-300", "--x=1e-300,0,0,0",
                                           "--y=1.5e-300,0,0,0"]),
    # a null vector whose largest component is not a power of two
    "pauli/null-7,2,3,6": (None, ["pauli", "--vec", "7,2,3,6"]),
    # float-range extremes of the closed form: an end point that overflows
    # names its ray, and a subnormal event's image reads singular
    "sky-image/far-end-overflow": (None, ["sky-image", "--metric", "minkowski", "--target",
                                          "cauchy:-1.7e308", "--event=1e308,0,0,0", "--n", "8"]),
    "sky-image/subnormal-event": (None, ["sky-image", "--metric", "minkowski",
                                         "--event=1.3e-310,0,0,0", "--n", "8"]),
}
for _seed in (1, 3, 7):
    for _name, _flags in (("flat", []), ("p2/3", ["--metric", "flrw", "--p", str(P23["p"])])):
        CLI[f"verify/{_name}-seed{_seed}"] = (None, ["verify", "--suite", "all", "--seed",
                                                    str(_seed), *_flags, "--out", "{tmp}/out"])


def _digest(value):
    """The SHA-256 of an array's dtype, shape and bytes, of text, or of None."""
    import numpy as np

    if value is None or isinstance(value, str):
        data = str(value).encode()
    else:
        a = np.ascontiguousarray(value)
        data = f"{a.dtype.str}{a.shape}".encode() + a.tobytes()
    return hashlib.sha256(data).hexdigest()


def _frame(config, target, tracer):
    from skyframes import frames as fr
    from skyframes import manifold as mf
    from skyframes.cli import target_surface

    return fr.FrameSpec(metric=mf.metric_from_config(config), target=target_surface(target),
                        tracer=tracer)


def _sky_case(chart, n, k):
    """The outputs of a sky image of the chart's k-th event with n samples."""
    import numpy as np

    config, target, tracer, events = CHARTS[chart]
    return _sky_outputs(_frame(config, target, tracer), np.array(events[k]), n)


def _near_case(chart, where):
    """The outputs of a 16-sample sky image of an event at x = (0.1, 0, 0)
    on the chart's target level, one ulp above it or 1e-13 below it."""
    import numpy as np

    f = _frame(*NEAR_CHARTS[chart])
    level = f.target_time
    t = {"on": level, "ulp-above": np.nextafter(level, np.inf), "below": level - 1e-13}[where]
    return _sky_outputs(f, np.array([t, 0.1, 0.0, 0.0]), 16)


def _legs_case(name):
    """The outputs of a 16-sample numeric-tracer sky image of a legs case,
    without the event families (at t = 1e-300 their events leave t > 0)."""
    import numpy as np

    config, target, event = LEGS[name]
    return _sky_outputs(_frame(config, target, "numeric"), np.array(event), 16, families=False)


def _apart_case(name):
    """The outputs of a 200-sample numeric-tracer sky image of an apart case."""
    import numpy as np

    config, target, event = APART[name]
    return _sky_outputs(_frame(config, target, "numeric"), np.array(event), 200)


def _sky_outputs(f, x, n, families=True):
    """The outputs of the sky image of the event x with n samples on the
    frame f, with the tangent planes of the event families unless told
    not; an image none of whose rays arrived gives its error as its image
    output."""
    import numpy as np
    from skyframes import frames as fr
    from skyframes import sky
    from skyframes.errors import NoIntersectionError

    sample = sky.sample_sky(n)
    out = _batch(fr.project_batch(f, x, sample.xi))
    if n < 2000:  # the image's 5n rays are these planes' rays
        tp = fr.tangent_planes(f, x, sample.xi)
        out.update((f"planes.{name}", getattr(tp, name)) for name in PLANE_FIELDS)
        if families:
            rows = np.tile(x, (n, 1))
            tp = fr.tangent_planes(f, rows, sample.xi, np.array(DIRECTIONS), normals=True)
            out.update((f"families.{name}", getattr(tp, name)) for name in PLANE_FIELDS)
    try:
        img = fr.sky_image(f, x, sample)
    except NoIntersectionError as exc:
        out["image.error"] = f"{type(exc).__name__}: {exc}"
        return out
    out.update(("image." + name, getattr(img, name)) for name in ("m_points", "ranks", "lams"))
    out["image.status"] = "\n".join(img.status)
    out["image.json"] = json.dumps(_image_json(img), sort_keys=True)
    return out


def _image_json(image):
    """An image's JSON payload: through `cli._image_json` where the tree has
    it, else through the image's own `to_json_dict`, as older trees wrote."""
    from skyframes import cli

    payload = getattr(cli, "_image_json", None)
    return image.to_json_dict() if payload is None else payload(image)


def _batch(out):
    """Items 0 to 2 of a `project_batch` result, by name."""
    return {f"project_batch[{i}]": value for i, value in enumerate(out[:3])}


def _error_case(name):
    """A batch or image that raises (its error is the output), or whose
    rays all fail."""
    from skyframes import frames as fr
    from skyframes import sky

    sample = sky.sample_sky(16)
    frame = {chart: _frame(*CHARTS[chart][:3]) for chart in ("flat", "p2/3", "a_expr")}
    if name == "nan-event":
        return _batch(fr.project_batch(frame["flat"], [1.0, float("nan"), 0, 0], sample.xi))
    if name == "inf-event":
        tp = fr.tangent_planes(frame["p2/3"], [1.0, 0, float("inf"), 0], sample.xi)
        return {"planes.m_points": tp.m_points}
    if name == "below-target":
        image = fr.sky_image(frame["a_expr"], [0.2, 0, 0, 0], sample)
        return {"image.status": "\n".join(image.status)}
    # d g11 / dt is NaN at t = 0, the level, so every ray turns non-finite there
    t_to_the_t = _frame(dict(ANISOTROPIC, coeffs=["1", "-(1+t**t)", "-1", "-1"]), "cauchy:0",
                        "auto")
    return _batch(fr.project_batch(t_to_the_t, [1.0, 0, 0, 0], sample.xi))


def _cli_case(name):
    """A command's exit code, stdout, stderr and output file."""
    from skyframes.cli import main

    config, argv = CLI[name]
    with tempfile.TemporaryDirectory() as tmp:
        prefix = []
        if config is not None:
            Path(tmp, "config.json").write_text(json.dumps(config))
            prefix = ["--config", str(Path(tmp, "config.json"))]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(prefix + [a.format(tmp=tmp) for a in argv])
        out = {"exit": str(code), "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
        if Path(tmp, "out").exists():
            out["file"] = Path(tmp, "out").read_bytes().decode()  # CSV keeps its \r\n
    return out


def cases():
    """The case names, in order, each with its function of no arguments."""
    table = {}
    for chart in CHARTS:
        for n in SIZES:
            for k in range(3):
                table[f"sky/{chart}/n{n}/e{k}"] = lambda c=chart, n=n, k=k: _sky_case(c, n, k)
    for chart in NEAR_CHARTS:
        for where in NEAR:
            table[f"near/{chart}/{where}"] = lambda c=chart, w=where: _near_case(c, w)
    for name in LEGS:
        table[f"legs/{name}"] = lambda name=name: _legs_case(name)
    for name in APART:
        table[f"apart/{name}"] = lambda name=name: _apart_case(name)
    for name in ("nan-event", "inf-event", "below-target", "non-finite"):
        table[f"error/{name}"] = lambda name=name: _error_case(name)
    for name in CLI:
        table[f"cli/{name}"] = lambda name=name: _cli_case(name)
    return table


def _values(value):
    """An output as JSON: an array's entries as nested lists, None for text."""
    import numpy as np

    return None if value is None or isinstance(value, str) else np.asarray(value).tolist()


def _run_cases(patterns, values=False):
    """{case: {output: digest}} of this interpreter's skyframes for the cases
    whose names match one of the glob patterns, or with values the outputs
    themselves (`_values`); a case that raises gives its error's type and
    message as its one output."""
    out = {}
    for name, case in cases().items():
        if not any(fnmatch.fnmatchcase(name, pattern) for pattern in patterns):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                outputs = case()
            except Exception as exc:  # noqa: BLE001 - the error text is the output
                outputs = {"error": f"{type(exc).__name__}: {exc}"}
        out[name] = {key: (_values if values else _digest)(v) for key, v in outputs.items()}
    return out


def digests(src, *patterns, values=False):
    """Run the cases matching one of the glob patterns (default: all) on the
    package under src in a fresh interpreter; returns {case: {output:
    digest}}, or with values {case: {output: `_values`}}."""
    src = Path(src).resolve()
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", str(src), "--cases",
            *(patterns or ["*"]), *(["--values"] if values else [])]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # no bytecode files in either tree
    done = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tempfile.gettempdir())
    if done.returncode:
        raise RuntimeError(f"the cases did not run on {src}:\n{done.stderr}")
    return json.loads(done.stdout)


def differences(new, old):
    """{case: [outputs that differ]} of two runs; a case in one run only
    differs in every output."""
    out = {}
    for case in sorted(set(new) | set(old)):
        a, b = new.get(case, {}), old.get(case, {})
        moved = sorted(key for key in set(a) | set(b) if a.get(key) != b.get(key))
        if moved:
            out[case] = moved
    return out


def largest_relative_difference(new, old):
    """The largest |new - old| / max(|new|, |old|) over the entries of two
    arrays (`_values`) of one shape: 0 where entries are equal or both NaN,
    inf where one is NaN; None for text or arrays of two shapes."""
    import numpy as np

    if new is None or old is None or np.shape(new) != np.shape(old):
        return None
    a, b = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel[np.isnan(rel)] = np.inf
    rel[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
    return float(rel.max(initial=0.0))


def _archive(rev, into):
    """Unpack the src/ tree of the git revision rev under into."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)
    return Path(into, "src")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="REV", help="compare with the src/ of a git revision")
    ap.add_argument("--cases", nargs="+", default=["*"], metavar="GLOB",
                    help="only the cases whose names match one of these globs")
    ap.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    ap.add_argument("--values", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:  # in the fresh interpreter: the package under SRC, nothing else
        sys.path.insert(0, args.worker)
        import skyframes

        if not Path(skyframes.__file__).resolve().is_relative_to(args.worker):
            raise RuntimeError(f"skyframes came from {skyframes.__file__}, not {args.worker}")
        print(json.dumps(_run_cases(args.cases, args.values), sort_keys=True))
        return 0
    new = digests(ROOT / "src", *args.cases)
    if args.against is None:
        for case, outputs in sorted(new.items()):
            print(case, _digest(json.dumps(outputs, sort_keys=True)))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        old_src = _archive(args.against, tmp)
        old = digests(old_src, *args.cases)
        moved = differences(new, old)
        new_values = old_values = {}
        if moved:  # the values of the cases that differ, for their relative differences
            names = [glob.escape(case) for case in moved]
            new_values, old_values = (digests(src, *names, values=True)
                                      for src in (ROOT / "src", old_src))
    print(f"{len(new)} cases of this tree against {args.against}")
    for case, outputs in moved.items():
        a, b = new_values.get(case, {}), old_values.get(case, {})
        rel = {key: largest_relative_difference(a.get(key), b.get(key)) for key in outputs}
        text = [key if rel[key] is None else f"{key} ({rel[key]:.3g})" for key in outputs]
        print(f"differs: {case}: {', '.join(text)}")
    print(f"{len(moved)} of {len(set(new) | set(old))} cases differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
