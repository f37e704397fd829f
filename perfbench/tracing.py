"""Span tracing of the skyframes layers, applied from outside the package.

`Tracer.install` replaces every public function of the traced modules, and
the hot public methods named in `HOT_METHODS`, with a wrapper that records
one span per call: name, start, end, parent span and the op it belongs to.
Every ``skyframes.*`` module attribute that holds an original function is
rebound, so names imported with ``from .sky import sample_sky`` are traced
too.  `restore` puts the originals back.  Spans are kept in compact arrays
and turned into per-layer calls and self time at the end of the run.

Only calls made while `enabled` is true are recorded; the harness switches
it off around its own oracle checks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "spinor",
    "sky",
    "minkowski",
    "twistor",
    "manifold",
    "frames",
    "verify",
    "causality",
    "cli",
)

HOT_METHODS = (
    ("manifold", "MetricSpec", "geodesic_acceleration"),
    ("manifold", "MetricSpec", "metric_diag"),
    ("causality", "Mesh", "contains_points"),
)

#: Ray directions used by `Mesh.contains_points`; each point is tested
#: against every triangle once per direction.
MESH_RAY_DIRECTIONS = 3


def _points(x):
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


# Layer-specific counters, keyed by the span name.  Each hook receives the
# counter dict, the call's positional arguments and its result.


def _count_accel(c, args, result):
    c["manifold.accel_points"] += _points(args[1])


def _count_trace(c, args, result):
    c["manifold.traced_rays"] += result.ok.size
    c["manifold.traced_ok"] += int(np.count_nonzero(result.ok))
    c["manifold.lost_rays"] += int(np.count_nonzero(result.lost))


def _count_trajectory(c, args, result):
    c["manifold.scalar_states"] += len(result)


def _count_project(c, args, result):
    c["frames.rays"] += np.shape(args[1])[0]
    c["frames.rays_ok"] += int(np.count_nonzero(result[2]))


def _count_image(c, args, result):
    c["frames.samples"] += result.sample.n


def _count_mesh(c, args, result):
    mesh, pts = args[0], np.atleast_2d(args[1])
    c["causality.mesh_points"] += len(pts)
    c["causality.point_triangle_tests"] += (
        len(pts) * len(mesh.triangles) * MESH_RAY_DIRECTIONS
    )


def _count_reports(c, args, result):
    c["verify.reports"] += len(result)


def _count_pairs(c, args, result):
    c["minkowski.pairs"] += int(np.size(result))


HOOKS = {
    "manifold.MetricSpec.geodesic_acceleration": _count_accel,
    "manifold.trace_past_to_time": _count_trace,
    "manifold.integrate_null_geodesic": _count_trajectory,
    "frames.project_batch": _count_project,
    "frames.sky_image": _count_image,
    "causality.Mesh.contains_points": _count_mesh,
    "verify.suite_twistor": _count_reports,
    "verify.suite_contact": _count_reports,
    "verify.suite_kernel": _count_reports,
    "verify.suite_flow": _count_reports,
    "minkowski.causal_compare_batch": _count_pairs,
    "minkowski.causal_compare": _count_pairs,
}

#: Span names whose call count is a per-layer metric of its own.
CALL_COUNTS = {
    "manifold.accel_evals": "manifold.MetricSpec.geodesic_acceleration",
    "manifold.metric_evals": "manifold.MetricSpec.metric_diag",
    "manifold.conformal_time_calls": "manifold.conformal_time",
}

#: Hook counters reported as they are (per cycle).
COUNTERS = (
    "manifold.accel_points",
    "manifold.traced_rays",
    "manifold.lost_rays",
    "manifold.scalar_states",
    "frames.rays",
    "causality.mesh_points",
    "causality.point_triangle_tests",
    "verify.reports",
    "minkowski.pairs",
)

#: Ratio metrics: (numerator counter, denominator counter).
RATIOS = {
    "manifold.ray_ok_frac": ("manifold.traced_ok", "manifold.traced_rays"),
    "frames.rays_per_sample": ("frames.rays", "frames.samples"),
    "frames.ray_ok_frac": ("frames.rays_ok", "frames.rays"),
}


def metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s")]
    return names + [*CALL_COUNTS, *COUNTERS, *RATIOS, "trace.overhead_frac"]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = -1
        self.names = []  # span name table; name ids index it
        self.layer_of = []  # layer index per name id
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = defaultdict(int)
        self._patches = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {
            layer: importlib.import_module(f"skyframes.{layer}") for layer in LAYERS
        }
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(layer, f"{layer}.{attr}", obj)
        # Rebind every module attribute that holds an original, including
        # names one module imported from another.
        package = importlib.import_module("skyframes")
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        for layer, cls_name, method in HOT_METHODS:
            cls = getattr(modules[layer], cls_name)
            original = vars(cls)[method]
            name = f"{layer}.{cls_name}.{method}"
            self._patch(cls, method, self._wrap(layer, name, original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, layer, qualname, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(LAYERS.index(layer))
        hook = HOOKS.get(qualname)
        tracer = self
        names, parents, ops = self.name, self.parent, self.op_of
        starts, ends, stack = self.start, self.end, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per-span duration minus the time its child spans cover."""
        start = np.array(self.start, dtype=float)
        dur = np.array(self.end, dtype=float) - start
        parent = np.array(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return dur - child

    def layer_totals(self, span_mask=None):
        """(calls, self seconds) per layer, optionally over a subset of spans."""
        layer = np.asarray(self.layer_of, dtype=int)[
            np.array(self.name, dtype=np.int32)
        ]
        own = self.self_times()
        if span_mask is not None:
            layer, own = layer[span_mask], own[span_mask]
        calls = np.bincount(layer, minlength=len(LAYERS))
        busy = np.bincount(layer, weights=own, minlength=len(LAYERS))
        return {
            name: (int(calls[k]), float(busy[k])) for k, name in enumerate(LAYERS)
        }

    def metrics(self, cycles, overhead_frac, time_scale=1.0):
        """Per-layer metrics; counts and self times are per traced cycle,
        and self times are multiplied by `time_scale`."""
        totals = {}
        for layer, (calls, busy) in self.layer_totals().items():
            totals[f"{layer}.calls"] = calls
            totals[f"{layer}.self_s"] = busy * time_scale
        per_name = np.bincount(
            np.array(self.name, dtype=np.int32), minlength=len(self.names)
        )
        for metric, span_name in CALL_COUNTS.items():
            totals[metric] = int(per_name[self.names.index(span_name)])
        for counter in COUNTERS:
            totals[counter] = self.counts[counter]
        out = {
            name: (value / cycles, "s/cycle" if name.endswith("_s") else "count/cycle")
            for name, value in totals.items()
        }
        for name, (num, den) in RATIOS.items():
            den = self.counts[den]
            out[name] = (self.counts[num] / den if den else 0.0, "ratio")
        out["trace.overhead_frac"] = (overhead_frac, "ratio")
        return {name: out[name] for name in metric_names()}

    def save(self, path):
        """Write the raw spans (compressed) for later inspection."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            op=np.array(self.op_of, dtype=np.int32),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
        )

