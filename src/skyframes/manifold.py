"""Diagonal Lorentzian metrics and null-geodesic integration.

Supported metric kinds: flat space, spatially flat expanding cosmologies
(power law a(t) = t^p in closed form, or a scale-factor function of cosmic
time with a central-difference a'(t)), and user-supplied diagonal metrics
whose four coefficients are arithmetic expressions of the chart point;
those are differentiated symbolically once, when the metric is built.
Signature is (+, -, -, -) and the coordinate time direction is future.
Null geodesics are integrated with one classical 4th-order step; after
every step the time component of the velocity is rescaled onto the null
cone, which keeps the spatial direction and dumps the drift into the
affine parameter.  Both drivers are batched: `integrate_null_rays` steps
rays in the affine parameter to given ends, and `trace_past_to_time`
marches them in t (or ln t) on a shared grid, sized by step doubling, that
ends on the target level; one ray is a batch of one.

The spinor <-> direction dictionary at a curved point uses the fixed
orthonormal tetrad aligned with the coordinate axes (well-defined for
diagonal metrics); derived quantities are checked elsewhere to be
independent of that choice.
"""

from __future__ import annotations

import ast
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConstraintLostError, DivergentIntegralError, OutOfDomainError

#: Nullity tolerance for geodesic states, relative to the squared velocity scale.
GEODESIC_NULL_TOL = 1e-8

#: Pre-renormalisation drift beyond which a trajectory is abandoned.
CONSTRAINT_LOST_TOL = 1e-4

_TINY_T = 1e-30  # floor of the times at which scale factors are evaluated

#: Grid of `trace_past_to_time`: the first level, the cap (rows unsettled
#: there come back lost) and the step-doubling tolerance.
GRID_START, GRID_CAP, GRID_TOL = 8, 2**15, 1e-5


def _default_bounds(t_open_zero):
    lo = 0.0 if t_open_zero else -math.inf
    return np.array([[lo, math.inf]] + [[-math.inf, math.inf]] * 3)


@dataclass(frozen=True)
class MetricSpec:
    """A diagonal metric on a chart, plus domain bounds (4, 2)."""

    kind: str
    exponent: float | None = None
    scale_factor_fn: Callable | None = None
    coeff_sources: tuple | None = None
    bounds: np.ndarray = field(default_factory=lambda: _default_bounds(False))
    _expressions: _ExpressionMetric | None = field(
        default=None, repr=False, compare=False
    )

    # -- constructors -----------------------------------------------------

    @staticmethod
    def minkowski(bounds=None):
        b = _default_bounds(False) if bounds is None else np.asarray(bounds, float)
        return MetricSpec(kind="minkowski", bounds=b)

    @staticmethod
    def flrw(p=None, a=None, bounds=None):
        """Spatially flat cosmology ds^2 = dt^2 - a(t)^2 dx.dx, t > 0."""
        if (p is None) == (a is None):
            raise ValueError("give exactly one of the exponent p or a callable a")
        if p is not None and not math.isfinite(float(p)):
            raise ValueError(f"exponent p must be finite, got {p}")
        b = _default_bounds(True) if bounds is None else np.asarray(bounds, float)
        return MetricSpec(
            kind="flrw",
            exponent=None if p is None else float(p),
            scale_factor_fn=a,
            bounds=b,
        )

    @staticmethod
    def custom_diagonal(sources, bounds=None):
        """Four coefficient expressions of t, x, y, z, signature checked on
        a coarse grid over (a clipped box of) the declared bounds.  Their
        partials are exact and come with the values from one compiled
        evaluation.
        """
        b = _default_bounds(False) if bounds is None else np.asarray(bounds, float)
        m = MetricSpec(
            kind="custom",
            coeff_sources=tuple(sources),
            bounds=b,
            _expressions=_ExpressionMetric(sources),
        )
        m._check_signature()
        return m

    # -- evaluation --------------------------------------------------------

    def scale_factor(self, t):
        t = np.maximum(np.asarray(t, dtype=float), _TINY_T)
        if self.exponent is not None:
            return t**self.exponent
        return self.scale_factor_fn(t)

    def scale_factor_dot(self, t):
        t = np.maximum(np.asarray(t, dtype=float), _TINY_T)
        if self.exponent is not None:
            p = self.exponent
            return p * t ** (p - 1.0) if p != 0.0 else np.zeros_like(t)
        h = 1e-7 * np.maximum(1.0, np.abs(t))
        return (self.scale_factor_fn(t + h) - self.scale_factor_fn(t - h)) / (2 * h)

    def metric_diag(self, x):
        """Diagonal metric coefficients at chart points x (..., 4)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "minkowski":
            out = np.empty(x.shape, dtype=float)
            out[..., 0] = 1.0
            out[..., 1:] = -1.0
            return out
        if self.kind == "flrw":
            a2 = self.scale_factor(x[..., 0]) ** 2
            out = np.empty(x.shape, dtype=float)
            out[..., 0] = 1.0
            out[..., 1] = out[..., 2] = out[..., 3] = 1.0
            out[..., 1:] *= -a2[..., None]
            return out
        return self._expressions.values(x)

    def norm(self, x, v):
        """g(v, v) at x; broadcasts over leading axes."""
        g = self.metric_diag(x)
        return np.sum(g * np.asarray(v, dtype=float) ** 2, axis=-1)

    def tetrad_diag(self, x):
        """Norms of the coordinate axes: (sqrt(g00), sqrt(-gii))."""
        g = self.metric_diag(x)
        return np.sqrt(np.abs(g))

    def in_domain(self, x):
        """Strict interior test; NaN coordinates count as outside."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        inside = (x > lo) & (x < hi)
        return np.all(inside, axis=-1)

    # -- differential structure --------------------------------------------

    def _metric_jet(self, x):
        """(g, dg) of an expression metric: the coefficients (..., 4 [a])
        and their exact partials d g_aa / d x^b (..., 4 [b], 4 [a])."""
        x = np.asarray(x, dtype=float)
        jet = self._expressions.jet(x)
        return jet[..., :4], jet[..., 4:].reshape(x.shape[:-1] + (4, 4))

    def geodesic_acceleration(self, x, v):
        """-Gamma^a_{bc} v^b v^c for the diagonal metric; vectorised."""
        if self.kind == "minkowski":
            return np.zeros_like(np.asarray(v, dtype=float))
        v = np.asarray(v, dtype=float)
        if self.kind == "flrw":
            t = np.asarray(x, dtype=float)[..., 0]
            a = self.scale_factor(t)
            ad = self.scale_factor_dot(t)
            acc = np.empty_like(v)
            acc[..., 0] = -a * ad * np.sum(v[..., 1:] ** 2, axis=-1)
            acc[..., 1:] = (-2.0 * ad / a * v[..., 0])[..., None] * v[..., 1:]
            return acc
        g, dg = self._metric_jet(x)  # dg is (..., b, a)
        v_dot_grad = np.einsum("...b,...ba->...a", v, dg)
        grad_quad = np.einsum("...ab,...b->...a", dg, v**2)
        return -(2.0 * v * v_dot_grad - grad_quad) / (2.0 * g)

    def _check_signature(self):
        box = np.clip(self.bounds, -2.0, 2.0)
        lo = box[:, 0] + 1e-3 * (box[:, 1] - box[:, 0])
        hi = box[:, 1] - 1e-3 * (box[:, 1] - box[:, 0])
        axes = [np.linspace(lo[k], hi[k], 3) for k in range(4)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
        _require_signature(self, grid, self.metric_diag(grid))


def _require_signature(m: MetricSpec, x, g):
    """Raise ValueError at the first point of x (B, 4) inside the bounds
    whose coefficients g are not (+, -, -, -)."""
    signed = g * [1.0, -1.0, -1.0, -1.0]
    if not signed.min(initial=1.0) > 0.0:  # a row is wrong or NaN
        wrong = np.any(signed <= 0.0, axis=-1) & m.in_domain(x)
        if np.any(wrong):
            point = x[wrong][0].tolist()
            raise ValueError(f"coefficients do not have signature (+,-,-,-) at {point}")


def _check_start(m: MetricSpec, x, v):
    """Reject start states (B, 4) outside the domain, not null or not
    future-directed; returns the squared velocity scales (B,)."""
    outside = ~m.in_domain(x)
    if np.any(outside):
        raise OutOfDomainError(f"state at {x[outside][0].tolist()} outside the domain")
    scale2 = np.maximum(np.abs(v).max(axis=-1), 1.0) ** 2
    if not np.all(np.abs(m.norm(x, v)) <= GEODESIC_NULL_TOL * scale2):
        raise ConstraintLostError("initial velocity is not null")
    if np.any(v[:, 0] <= 0.0):
        raise ConstraintLostError("initial velocity is not future-directed")
    return scale2


def _rk4_step(rhs, y, h):
    """One classical step of dy/ds = rhs(c, y) for the states y (B, k) over
    the per-row steps h (B,); c is the stage's fraction of the step."""
    h = h[:, None]
    k1 = rhs(0.0, y)
    k2 = rhs(0.5, y + 0.5 * h * k1)
    k3 = rhs(0.5, y + 0.5 * h * k2)
    k4 = rhs(1.0, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _renormalise(m: MetricSpec, x, v, time_sign):
    """Accept stepped states (B, 4) with one metric evaluation at x: the
    null drift |g(v, v)| of each step, and v with its time component
    rescaled so that g(v, v) = 0 (spatial parts kept)."""
    g = m.metric_diag(x)
    if m.kind == "custom":  # flat and FLRW coefficients have the signature
        _require_signature(m, x, g)
    rad = -np.sum(g[..., 1:] * v[..., 1:] ** 2, axis=-1) / g[..., 0]
    out = v.copy()
    out[..., 0] = time_sign * np.sqrt(np.maximum(rad, 0.0))
    return np.abs(np.sum(g * v**2, axis=-1)), out


def _bisect_step(rhs, y, h, inside):
    """Bracket (lo, hi) on the fraction of each step h (B,) from (x, v) (B,
    8) at which x stops being `inside` (a per-row test, monotone along the
    step), after 60 halvings.  Only the rows given are stepped."""
    lo = np.zeros(len(h))
    hi = np.ones(len(h))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        kept = inside(_rk4_step(rhs, y, mid * h)[:, :4])
        lo = np.where(kept, mid, lo)
        hi = np.where(kept, hi, mid)
    return lo, hi


# ---------------------------------------------------------------------------
# Batched integration of null rays to affine-parameter ends.


@dataclass(frozen=True)
class RayStates:
    """Every state of a lockstep batch of B rays, S steps long.

    Row b holds count[b] states; its later slots repeat its last state.
    """

    x: np.ndarray  # (S+1, B, 4) chart points
    v: np.ndarray  # (S+1, B, 4) future-directed null velocities
    lam: np.ndarray  # (S+1, B) affine parameters, 0 at the start
    count: np.ndarray  # (B,) states per row
    boundary_hit: np.ndarray  # (B,) bool, True where the ray left the domain


def integrate_null_rays(m: MetricSpec, x0, v0, lam_end, step):
    """Integrate null rays from lambda = 0 to the affine ends lam_end (B,).

    x0, v0 (B, 4) are events and future null velocities; a negative end
    runs into the past.  Each row takes steps of +-step, then the
    remainder, in lockstep with the others, and is frozen once done.  A ray
    that leaves the domain stops on its edge (the step bisected to 1e-12
    in the crossing fraction) with its boundary flag set.  Raises
    ConstraintLostError when a step drifts off the null cone by more than
    CONSTRAINT_LOST_TOL times the squared start velocity scale.
    """
    if not step > 0.0:
        raise ValueError("step must be positive")
    x = np.asarray(x0, dtype=float)
    v = np.asarray(v0, dtype=float)
    span = np.broadcast_to(np.asarray(lam_end, dtype=float), x.shape[:1])
    if not np.all(np.isfinite(span)):
        raise ValueError("affine ends must be finite")
    scale2 = _check_start(m, x, v)

    def rhs(c, y):  # (x, v) -> (v, acceleration)
        acc = m.geodesic_acceleration(y[:, :4], y[:, 4:])
        return np.concatenate([y[:, 4:], acc], axis=1)

    sgn = np.copysign(1.0, span)
    n_full = (np.abs(span) // step).astype(int)
    rest = span - sgn * step * n_full
    n_steps = n_full + (np.abs(rest) > 1e-15 * np.maximum(1.0, np.abs(span)))

    xs = np.empty((int(n_steps.max(initial=0)) + 1,) + x.shape)
    vs = np.empty_like(xs)
    lams = np.zeros(xs.shape[:2])
    xs[0], vs[0] = x, v
    count = np.ones(len(x), dtype=int)
    hit = np.zeros(len(x), dtype=bool)
    for k in range(len(xs) - 1):
        rows = np.flatnonzero((k < n_steps) & ~hit)
        if not len(rows):
            break
        h = np.where(k < n_full, sgn * step, rest)[rows]
        y = np.concatenate([xs[k, rows], vs[k, rows]], axis=1)
        yn = _rk4_step(rhs, y, h)
        out = ~m.in_domain(yn[:, :4])
        if out.any():
            frac, _ = _bisect_step(rhs, y[out], h[out], m.in_domain)
            h[out] *= frac
            yn[out] = _rk4_step(rhs, y[out], h[out])
            hit[rows[out]] = True
            keep = ~out
            keep[out] = frac > 0.0
            rows, yn, h = rows[keep], yn[keep], h[keep]
        drift, vn = _renormalise(m, yn[:, :4], yn[:, 4:], time_sign=1.0)
        if (drift > CONSTRAINT_LOST_TOL * scale2[rows]).any():
            raise ConstraintLostError(f"null constraint drifted to {drift.max():.3e}")
        xs[k + 1], vs[k + 1], lams[k + 1] = xs[k], vs[k], lams[k]
        xs[k + 1, rows], vs[k + 1, rows] = yn[:, :4], vn
        lams[k + 1, rows] += h
        count[rows] += 1
    n = count.max(initial=1)
    return RayStates(x=xs[:n], v=vs[:n], lam=lams[:n], count=count, boundary_hit=hit)


# ---------------------------------------------------------------------------
# Batched tracing of past-directed rays to a coordinate-time level.


@dataclass(frozen=True)
class TraceResult:
    x: np.ndarray  # (B, 4) end points
    u: np.ndarray  # (B, 4) past-directed tangents at the end points
    lam: np.ndarray  # (B,) affine length along the past-directed tangent
    ok: np.ndarray  # (B,) bool
    lost: np.ndarray  # (B,) bool, drifted off the null cone or unsettled at GRID_CAP


def _march(m: MetricSpec, x0, u0, t_target, n):
    """March past-directed rays (x0, u0) (B, 4) in n equal steps of s (ln t
    above a level > 0, else t) down to t_target.  The state is the spatial
    point, u and lambda; t is the grid's, so the last node is the level
    itself.  ok marks the rows that arrived."""
    log = t_target > 0.0
    s0 = np.log(x0[:, 0]) if log else x0[:, 0]
    h = ((math.log(t_target) if log else t_target) - s0) / n

    def points(t, xs):
        x = np.empty((len(xs), 4))
        x[:, 0], x[:, 1:] = t, xs
        return x

    def deriv(s, y):  # d/ds of (x, u, lambda) is dt/ds / u0 times (u, acc, 1)
        t = np.exp(s) if log else s
        u = y[:, 3:7]
        rate = ((t if log else 1.0) / u[:, 0])[:, None]
        acc = m.geodesic_acceleration(points(t, y[:, :3]), u)
        return np.concatenate([rate * u[:, 1:], rate * acc, rate], axis=1)

    y = np.concatenate([x0[:, 1:], u0, np.zeros((len(x0), 1))], axis=1)
    t, lost, live = x0[:, 0].copy(), np.zeros(len(x0), dtype=bool), np.arange(len(x0))
    for k in range(1, n + 1):
        if not len(live):
            break
        s, hk = s0[live] + (k - 1) * h[live], h[live]
        yn = _rk4_step(lambda c, y: deriv(s + c * hk, y), y[live], hk)
        t[live] = t_target if k == n else (np.exp(s + hk) if log else s + hk)
        scale2 = np.maximum(np.abs(yn[:, 3:7]).max(axis=-1), 1.0) ** 2
        x = points(t[live], yn[:, :3])
        drift, yn[:, 3:7] = _renormalise(m, x, yn[:, 3:7], time_sign=-1.0)
        y[live] = yn
        bad = drift > CONSTRAINT_LOST_TOL * scale2
        lost[live[bad]] = True
        inside = (x[:, 1:] > m.bounds[1:, 0]) & (x[:, 1:] < m.bounds[1:, 1])
        live = live[np.all(inside, axis=-1) & ~bad]
    ok = np.isin(np.arange(len(x0)), live)
    return TraceResult(x=points(t, y[:, :3]), u=y[:, 3:7], lam=y[:, 7], ok=ok, lost=lost)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def trace_past_to_time(m: MetricSpec, x0, v0, t_target):
    """March past-directed null rays from (x0, v0-future) (B, 4) down to
    t = t_target; arrived rows land on the level exactly.

    Each row takes N equal steps of s (ln t above a level > 0, else t)
    from its own start.  The batch shares N, doubling from GRID_START: a
    level settles the rows that arrived at it and at the level before once
    every such row's step-doubling estimate |fine - coarse| / 15 (end point
    and lambda) is within GRID_TOL * max(1, |end|), and the rows that
    failed at both without drifting off the null cone.  The others refine
    alone; at GRID_CAP they come back not ok and lost.  Rows that leave the
    spatial domain or turn non-finite come back not ok.
    """
    x0 = np.asarray(x0, dtype=float)
    u0 = -np.asarray(v0, dtype=float)  # past-directed tangent
    if x0.ndim == 1:
        raise ValueError("trace_past_to_time is batched; pass (B, 4) arrays")
    t_tol = 1e-12 * max(1.0, float(np.abs(x0[:, 0]).max(initial=0.0)))
    if np.any(x0[:, 0] < t_target - t_tol):
        raise OutOfDomainError("some start events lie below the target level")

    n, rows = GRID_START, np.arange(len(x0))
    first = _march(m, x0, u0, t_target, n)
    x, u, lam, arrived = first.x, first.u, first.lam, first.ok
    ok, lost = np.zeros(len(x0), dtype=bool), np.ones(len(x0), dtype=bool)
    while len(rows) and n < GRID_CAP:
        n *= 2
        fine = _march(m, x0[rows], u0[rows], t_target, n)
        both = arrived[rows] & fine.ok
        end = np.column_stack([fine.x[both, 1:], fine.lam[both]])
        err = np.abs(end - np.column_stack([x[rows][both, 1:], lam[rows][both]]))
        scale = np.maximum(np.abs(end).max(axis=-1, initial=0.0), 1.0)
        done = both | ~(arrived[rows] | fine.ok | fine.lost)
        done &= np.all(err.max(axis=-1, initial=0.0) <= 15.0 * GRID_TOL * scale)
        x[rows], u[rows], lam[rows], arrived[rows] = fine.x, fine.u, fine.lam, fine.ok
        ok[rows[done]], lost[rows[done]] = fine.ok[done], fine.lost[done]
        rows = rows[~done]
    return TraceResult(x=x, u=u, lam=lam, ok=ok, lost=lost)


# ---------------------------------------------------------------------------
# Conformal chart utilities.


def conformal_time(m: MetricSpec, t):
    """eta(t): integral of 1/a from the initial singularity to cosmic time t.

    t is a float or an array of times.  Closed form for power-law scale
    factors (p < 1); adaptive quadrature with relative error below 1e-10
    otherwise.
    """
    t = np.array(t, dtype=float) if np.ndim(t) else float(t)
    if m.kind == "minkowski":
        return t
    if m.kind != "flrw":
        raise ValueError("conformal time needs an expanding-cosmology metric")
    if np.less_equal(t, 0.0).any():  # one ufunc call; np.any costs more on floats
        raise OutOfDomainError("conformal time is defined for t > 0")
    if m.exponent is not None:
        p = m.exponent
        if p >= 1.0:
            raise DivergentIntegralError(f"integral of t^-{p} diverges at 0")
        return t ** (1.0 - p) / (1.0 - p)
    if np.ndim(t):
        return np.array([conformal_time(m, s) for s in t.ravel()]).reshape(t.shape)
    from scipy import integrate

    def inverse_scale_factor(s):
        a = float(m.scale_factor(s))
        if not a > 0.0:  # a zero (or a sign change) makes 1/a diverge
            raise DivergentIntegralError(f"the scale factor is {a:.3g} at t = {s:.12g}")
        return 1.0 / a

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(inverse_scale_factor, 0.0, t, limit=500, epsrel=1e-12)
    if not math.isfinite(val) or err > 1e-10 * max(abs(val), 1.0):
        raise DivergentIntegralError("quadrature did not converge")
    return float(val)


def future_null_directions(m: MetricSpec, events, directions):
    """Future null velocities (v0 = 1) at events (B, 4), one per ray.

    directions (B, 3) are the unit spatial directions in the coordinate-axis
    tetrad; the chart legs rescale them onto the null cone.  Domain checks
    belong to the callers (frames.project_batch raises OutOfDomainError).
    """
    events = np.asarray(events, dtype=float)
    tet = m.tetrad_diag(events)
    v = np.empty_like(events)
    v[:, 0] = 1.0
    v[:, 1:] = directions * (tet[:, :1] / tet[:, 1:])
    return v


def flrw_closed_form_ray(m: MetricSpec, x0, v0, lam):
    """Exact power-law ray (x, v) at affine parameter lam from the event x0
    (4,) with the future null velocity v0 (4,) at lam = 0 (oracle quality)."""
    if m.kind != "flrw" or m.exponent is None:
        raise ValueError("closed form needs a power-law scale factor")
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    p = m.exponent
    t0 = float(x0[0])
    a0 = t0**p
    cmag = a0 * float(v0[0])
    uhat = v0[1:] / np.linalg.norm(v0[1:])
    tp = t0 ** (1.0 + p) + (1.0 + p) * cmag * lam
    if tp <= 0.0:
        raise OutOfDomainError("closed-form ray leaves t > 0")
    t = tp ** (1.0 / (1.0 + p))
    eta0 = t0 ** (1.0 - p) / (1.0 - p)
    eta1 = t ** (1.0 - p) / (1.0 - p)
    xs = x0[1:] + (eta1 - eta0) * uhat
    v = np.empty(4)
    v[0] = cmag / t**p
    v[1:] = (cmag / t ** (2.0 * p)) * uhat
    return np.concatenate([[t], xs]), v


# ---------------------------------------------------------------------------
# Configuration: restricted arithmetic expressions and metric assembly.

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Constant,
    ast.Name,
    ast.Load,
)

_EXPR_NAMES = ("t", "x", "y", "z")

#: Globals of every compiled expression.  The user grammar has no calls;
#: only derivatives of variable exponents use the private logarithm.
_EVAL_GLOBALS = {"__builtins__": {}, "_log": np.log}


def _parse_expression(src: str):
    """The AST body of an arithmetic expression of t, x, y, z.

    Grammar: numbers, the four names, +, -, *, /, ** and unary minus.
    """
    if not isinstance(src, str):
        raise ValueError(f"metric expression {src!r} is not a string")
    tree = ast.parse(src, mode="eval")
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"disallowed syntax in metric expression: {src!r}")
        if isinstance(node, ast.Name) and node.id not in _EXPR_NAMES:
            raise ValueError(f"unknown name {node.id!r} in metric expression")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ValueError("only numeric constants are allowed")
    return tree.body


def _compile(body):
    tree = ast.fix_missing_locations(ast.Expression(body=body))
    return compile(tree, "<metric-expression>", "eval")


def _chart_names(xpt):
    return {name: xpt[..., k] for k, name in enumerate(_EXPR_NAMES)}


def compile_expression(src: str):
    """Compile an arithmetic expression of t, x, y, z into a chart-point fn."""
    code = _compile(_parse_expression(src))

    def fn(xpt):
        xpt = np.asarray(xpt, dtype=float)
        return eval(code, _EVAL_GLOBALS, _chart_names(xpt))  # noqa: S307 - AST-filtered

    return fn


# Symbolic derivatives over the same grammar.  The builders fold the
# constants 0 and 1 and any operation on two constants.


def _num(value):
    return ast.Constant(value=value)


def _is(node, value):
    return isinstance(node, ast.Constant) and node.value == value


def _constant(node):
    """The value of a tree without names, or None if it has a name."""
    if any(isinstance(n, ast.Name) for n in ast.walk(node)):
        return None
    try:
        value = eval(_compile(node), _EVAL_GLOBALS)  # noqa: S307 - AST-filtered
        value = float(value)
    except (ArithmeticError, TypeError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"metric expression {ast.unparse(node)!r} has no finite value")
    return value


def _binop(a, op, b):
    node = ast.BinOp(left=a, op=op, right=b)
    if isinstance(a, ast.Constant) and isinstance(b, ast.Constant):
        return _num(_constant(node))
    return node


def _neg(a):
    if isinstance(a, ast.Constant):
        return _num(-a.value)
    return ast.UnaryOp(op=ast.USub(), operand=a)


def _add(a, b):
    if _is(a, 0):
        return b
    return a if _is(b, 0) else _binop(a, ast.Add(), b)


def _sub(a, b):
    if _is(a, 0):
        return _neg(b)
    return a if _is(b, 0) else _binop(a, ast.Sub(), b)


def _mul(a, b):
    if _is(a, 0) or _is(b, 0):
        return _num(0)
    if _is(a, 1):
        return b
    return a if _is(b, 1) else _binop(a, ast.Mult(), b)


def _div(a, b):
    if _is(a, 0):
        return _num(0)
    return a if _is(b, 1) else _binop(a, ast.Div(), b)


def _pow(a, b):
    if _is(b, 0):
        return _num(1)
    return a if _is(b, 1) else _binop(a, ast.Pow(), b)


def _log(a):
    return ast.Call(func=ast.Name(id="_log", ctx=ast.Load()), args=[a], keywords=[])


def _diff(node, name):
    """d node / d name for a parsed expression body."""
    if isinstance(node, ast.Constant):
        return _num(0)
    if isinstance(node, ast.Name):
        return _num(1 if node.id == name else 0)
    if isinstance(node, ast.UnaryOp):
        d = _diff(node.operand, name)
        return _neg(d) if isinstance(node.op, ast.USub) else d
    u, v = node.left, node.right
    du, dv = _diff(u, name), _diff(v, name)
    if isinstance(node.op, ast.Add):
        return _add(du, dv)
    if isinstance(node.op, ast.Sub):
        return _sub(du, dv)
    if isinstance(node.op, ast.Mult):
        return _add(_mul(du, v), _mul(u, dv))
    if isinstance(node.op, ast.Div):
        return _sub(_div(du, v), _div(_mul(u, dv), _mul(v, v)))
    if _is(dv, 0):  # c * u**(c - 1) * u', also for exponents free of `name`
        c = _constant(v)
        c = v if c is None else _num(c)
        return _mul(_mul(c, _pow(u, _sub(c, _num(1)))), du)
    # u**v * (v' log(u) + v u' / u)
    return _mul(_pow(u, v), _add(_mul(dv, _log(u)), _div(_mul(v, du), u)))


class _FusedExpressions:
    """Expression bodies evaluated by one code object, one slot per body.

    Bodies without names are folded to constants when compiled, and a body
    that repeats an earlier one is computed once.
    """

    def __init__(self, bodies):
        self.slots = len(bodies)
        self.constants, self.computed, distinct = [], [], {}
        for slot, body in enumerate(bodies):
            value = _constant(body)
            if value is not None:
                if value != 0.0:  # the output starts from zeros
                    self.constants.append((slot, value))
                continue
            index = distinct.setdefault(ast.dump(body), (len(distinct), body))[0]
            self.computed.append((slot, index))
        elts = [body for _, body in distinct.values()]
        self.code = _compile(ast.Tuple(elts=elts, ctx=ast.Load()))

    def __call__(self, xpt):
        """Every body's value at the chart points xpt (..., 4), with the
        slots along the last axis."""
        out = np.zeros(xpt.shape[:-1] + (self.slots,))
        values = eval(self.code, _EVAL_GLOBALS, _chart_names(xpt))  # noqa: S307
        for slot, value in self.constants:
            out[..., slot] = value
        for slot, index in self.computed:
            out[..., slot] = values[index]
        return out


class _ExpressionMetric:
    """Compiled coefficient expressions of a diagonal metric: `values`
    gives the 4 coefficients, `jet` the coefficients followed by their
    16 partials d g_aa / d x^b in (b, a) order."""

    def __init__(self, sources):
        if len(sources) != 4:
            raise ValueError("custom metric needs four coefficient expressions")
        coeffs = [_parse_expression(src) for src in sources]
        partials = [_diff(c, name) for name in _EXPR_NAMES for c in coeffs]
        self.values = _FusedExpressions(coeffs)
        self.jet = _FusedExpressions(coeffs + partials)


def metric_from_config(cfg: dict) -> MetricSpec:
    """Build a MetricSpec from a plain mapping (the file/CLI schema)."""
    kind = cfg.get("kind", "minkowski")
    bounds = cfg.get("bounds")
    if bounds is not None:
        if np.shape(bounds) != (4, 2) or not all(
            c is None or type(c) in (int, float) for pair in bounds for c in pair
        ):
            raise ValueError("bounds must be four [lo, hi] pairs of numbers or null")
        bounds = np.array(
            [[-math.inf if lo is None else lo, math.inf if hi is None else hi]
             for lo, hi in bounds],
            dtype=float,
        )
    if kind == "minkowski":
        return MetricSpec.minkowski(bounds=bounds)
    if kind == "flrw":
        if "p" in cfg and cfg["p"] is not None:
            return MetricSpec.flrw(p=float(cfg["p"]), bounds=bounds)
        if "a_expr" in cfg and cfg["a_expr"] is not None:
            fn = compile_expression(cfg["a_expr"])
            a = lambda t: fn(np.stack([t, t * 0, t * 0, t * 0], axis=-1))
            return MetricSpec.flrw(a=a, bounds=bounds)
        raise ValueError("flrw metric needs 'p' or 'a_expr'")
    if kind == "custom":
        sources = tuple(cfg.get("coeffs") or ())
        return MetricSpec.custom_diagonal(sources, bounds=bounds)
    raise ValueError(f"unknown metric kind {kind!r}")
