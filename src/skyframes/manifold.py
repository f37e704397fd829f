"""Diagonal Lorentzian metrics and null-geodesic integration.

Supported metric kinds: flat space, spatially flat expanding cosmologies
(power law a(t) = t^p in closed form, or a scale-factor function of cosmic
time with a central-difference a'(t)), and user-supplied diagonal metrics
whose four coefficients are arithmetic expressions of the chart point;
those are differentiated symbolically once, when the metric is built.
Signature is (+, -, -, -) and the coordinate time direction is future.
Null geodesics are integrated by one batched tracer (one ray is a batch
of one), `trace_past_to_time`: it marches sky-bundle states (spatial
point, tetrad direction of the ray, ln of its tetrad energy, affine
length), null by construction, with a classical 4th-order step in t or
graded ln t on a shared grid, sized by step doubling, that ends on the
target level.

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

from .errors import DivergentIntegralError, OutOfDomainError

_TINY_T = 1e-30  # floor of the times at which scale factors are evaluated

#: Grid of `trace_past_to_time`: the first level, the cap (rows unsettled
#: there come back lost) and the step-doubling tolerance.
GRID_START, GRID_CAP, GRID_TOL = 4, 2**15, 1e-5


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
        """-Gamma^a_{bc} v^b v^c for the diagonal metric; vectorised.  No
        tracer calls it; the benchmark's per-layer counters still hook it."""
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


def _rk4_step(rhs, y, h):
    """One classical step of dy/ds = rhs(c, y) for the states y over the
    steps h, broadcast against y; c is the stage's fraction of the step."""
    k1 = rhs(0.0, y)
    k2 = rhs(0.5, y + 0.5 * h * k1)
    k3 = rhs(0.5, y + 0.5 * h * k2)
    k4 = rhs(1.0, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# ---------------------------------------------------------------------------
# Batched tracing of past-directed rays to a coordinate-time level.


@dataclass(frozen=True)
class TraceResult:
    x: np.ndarray  # (B, 4) end points
    n: np.ndarray  # (B, 3) unit tetrad directions of the past-directed tangents
    log_e: np.ndarray  # (B,) ln of the tetrad energies E = e0 |u0|
    lam: np.ndarray  # (B,) affine length along the past-directed tangent
    ok: np.ndarray  # (B,) bool
    lost: np.ndarray  # (B,) bool, unsettled at GRID_CAP

    def velocity(self, m: MetricSpec):
        """Future chart velocities (B, 4) of the rays: the tetrad components
        (E, -E n) over the legs at x."""
        tetrad = np.column_stack([np.ones(len(self.n)), -self.n])
        return np.exp(self.log_e)[:, None] * tetrad / m.tetrad_diag(self.x)


def _bundle_start(m: MetricSpec, x0, v0):
    """Sky-bundle states (8, B) of the future null rays (x0, v0) (B, 4):
    the past-directed tangent -v0 in the tetrad, and lambda = 0."""
    u0 = -(m.tetrad_diag(x0) * np.asarray(v0, dtype=float)).T
    n0 = u0[1:] / np.linalg.norm(u0[1:], axis=0)
    return np.vstack([x0[:, 1:].T, n0, np.log(-u0[0]), np.zeros(len(x0))])


def _bundle_slope(m: MetricSpec, s, y, log):
    """d/ds of sky-bundle states y (8, B) at s (B,), t = e^s if log else s.
    With the legs e_a = sqrt|g_aa|, the tetrad components (-E, E n) of the
    past-directed tangent u change at d/dlambda = E^2 W, W quadratic in u/E."""
    t = np.exp(s) if log else s
    n, e0, speed, dn, dlog_e = y[3:6], 1.0, 1.0, 0.0, 0.0  # flat space
    if m.kind == "custom":
        x = np.column_stack([t, y[:3].T])
        g, dg = m._metric_jet(x)  # dg is (B, b, a)
        _require_signature(m, x, g)
        e = np.sqrt(np.abs(g))
        ut = np.column_stack([-1.0 / e[:, 0], n.T / e[:, 1:]])  # u / E
        quad, dot = np.einsum("rac,rc->ra", dg, ut**2), np.einsum("rc,rca->ra", ut, dg)
        w, e0 = (e * (quad - ut * dot) / (2.0 * g)).T, e[:, 0]
        speed, dn, dlog_e = e0 / e[:, 1:].T, -e0 * (w[1:] + n * w[0]), e0 * w[0]
    elif m.kind == "flrw":  # n is conserved and ln E falls with ln a
        speed = 1.0 / m.scale_factor(t)
        dlog_e = -m.scale_factor_dot(t) * speed
    out = np.empty_like(y)
    out[:3], out[3:6], out[6], out[7] = -speed * n, dn, dlog_e, -e0 * np.exp(-y[6])
    return (t if log else 1.0) * out  # dt/ds d/dt


def _march(m: MetricSpec, t0, y0, t_target, n):
    """March past-directed rays from the times t0 (B,) and the states y0
    (8, B): the spatial point, the unit tetrad direction n of the tangent,
    ln E for the tetrad energy E = e0 |u0|, and lambda.  n steps of s lead
    to t_target: ln t above a level > 0, node k at the fraction (k/n)^2 of
    each row's span, else t in equal steps.  The last node is the level
    itself; a node's accept is n /= |n|.  ok marks the rows that arrived.
    A level above t0 runs the same rays to the future, lambda falling."""
    log = t_target > 0.0
    s0 = np.log(t0) if log else t0
    span = (math.log(t_target) if log else t_target) - s0
    nodes = (np.arange(n + 1) / n) ** (2 if log else 1)
    y, t = y0.copy(), np.full(len(t0), float(t_target))
    live, yl = np.arange(len(t0)), y0  # the rows still marching, and their states
    for k in range(1, n + 1):
        s, hk = s0 + nodes[k - 1] * span, (nodes[k] - nodes[k - 1]) * span
        yl = _rk4_step(lambda c, y: _bundle_slope(m, s + c * hk, y, log), yl, hk)
        yl[3:6] /= np.sqrt(np.sum(yl[3:6] ** 2, axis=0))
        inside = (yl[:3].T > m.bounds[1:, 0]) & (yl[:3].T < m.bounds[1:, 1])
        keep = np.all(inside, axis=1) & np.all(np.isfinite(yl[3:]), axis=0)
        if not keep.all():  # rows leave with their state at this node
            gone = live[~keep]
            y[:, gone], t[gone] = yl[:, ~keep], (np.exp(s + hk) if log else s + hk)[~keep]
            live, yl, s0, span = live[keep], yl[:, keep], s0[keep], span[keep]
    y[:, live] = yl
    ok = np.isin(np.arange(len(t0)), live)
    x, lost = np.column_stack([t, y[:3].T]), np.zeros(len(t0), dtype=bool)
    return TraceResult(x, y[3:6].T, y[6], y[7], ok, lost)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def trace_past_to_time(m: MetricSpec, x0, v0, t_target):
    """March past-directed null rays from (x0, v0-future) (B, 4) down to
    t = t_target in sky-bundle variables (`_march`), null by construction;
    arrived rows land on the level exactly.

    The batch shares the number N of steps, doubling from GRID_START: a
    level settles the rows that arrived at it and at the level before once
    every such row's step-doubling estimate |fine - coarse| / 15 (end point
    and lambda) is within GRID_TOL * max(1, |end|), and the rows that
    failed at both.  The others refine alone; at GRID_CAP they come back
    not ok and lost.  Rows that leave the spatial domain or turn non-finite
    come back not ok.  Raises OutOfDomainError for a start event outside
    the domain or below the level.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        raise ValueError("trace_past_to_time is batched; pass (B, 4) arrays")
    outside = ~m.in_domain(x0)
    if np.any(outside):
        raise OutOfDomainError(f"start event {x0[outside][0].tolist()} outside the domain")
    t_tol = 1e-12 * max(1.0, float(np.abs(x0[:, 0]).max(initial=0.0)))
    if np.any(x0[:, 0] < t_target - t_tol):
        raise OutOfDomainError("some start events lie below the target level")
    y0 = _bundle_start(m, x0, v0)

    n, rows = GRID_START, np.arange(len(x0))
    res = {k: np.copy(v) for k, v in vars(_march(m, x0[:, 0], y0, t_target, n)).items()}
    while len(rows) and n < GRID_CAP:
        n *= 2
        fine = _march(m, x0[rows, 0], y0[:, rows], t_target, n)
        both = res["ok"][rows] & fine.ok
        coarse = rows[both]
        end = np.column_stack([fine.x[both, 1:], fine.lam[both]])
        err = np.abs(end - np.column_stack([res["x"][coarse, 1:], res["lam"][coarse]]))
        scale = np.maximum(np.abs(end).max(axis=-1, initial=0.0), 1.0)
        done = both | ~(res["ok"][rows] | fine.ok)
        done &= np.all(err.max(axis=-1, initial=0.0) <= 15.0 * GRID_TOL * scale)
        for name, value in vars(fine).items():
            res[name][rows] = value
        rows = rows[~done]
    res["ok"][rows], res["lost"][rows] = False, True
    return TraceResult(**res)


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
