"""Diagonal Lorentzian metrics and null-geodesic integration.

Supported metric kinds: spatially flat cosmologies, with the legs (1, a,
a, a) (power law a(t) = t^p in closed form, flat space being t^0, or a
scale-factor function of cosmic time with a central-difference a'(t)),
and user-supplied diagonal metrics whose four coefficients are arithmetic
expressions of the chart point, differentiated symbolically once.
Signature is (+, -, -, -) and the coordinate time direction is future.
Null geodesics are integrated by one batched tracer (one ray is a batch
of one), `trace_past_to_time`: it marches sky-bundle states (spatial
point, tetrad direction of the ray, ln of its tetrad energy, affine
length), null by construction, with a classical 4th-order step in t or
graded ln t on a shared grid, sized by step doubling, that ends on the
target level.  The states are row-major (8, B) arrays, one contiguous row
per variable: a refined level gathers its rows with `np.take`, along
axis 1, as a fancy index `y[:, rows]` would come back column-major.  On a
flat or FLRW chart, or a custom chart of t alone with three equal spatial
coefficients (FLRW with a lapse, ds^2 = N(t)^2 dt^2 - A(t)^2 dx.dx,
detected when the metric is built), the slope depends on t alone, n is
conserved and a ray is a straight comoving line.  There the tracer keys
the distinct starts (t0, ln E, lambda) once (a sky image's rays share
one), and each level of the ladder (`_t_level`) marches the displacement
along n, ln E and lambda of those starts, all nodes of a block in array
operations, and places each ray at x0 + n D; as every leg is positive
(an FLRW scale factor is, `MetricSpec.scale_factor`), D only grows, so a
ray inside and finite at a block's last node was so at every node, and
only the others scan the block's nodes.  Each level's result holds the
unsettled rows only, and the ladder writes a row out, and re-keys the
starts, only when rows settle, so a batch that settles whole on one level
is that level's result.  Any other custom chart, and a level of one of t
alone that loses its signature, steps every state node by node with
`_bundle_slope` (`_march`, the one place that names where a ray meets a
lost signature), compacting the rows that leave with `np.compress`.  A ray
comes back with one int8 reason code: ARRIVED, BELOW_TARGET (its event,
in `frames.project_batch`), LEFT_BOUNDS, NON_FINITE (its point, n, ln E or
lambda where it left, whatever its bounds) or UNSETTLED (at GRID_CAP).

A chart of t alone is read one way, by its legs (e0(t), A(t)) (`_t_legs`):
(1, a) on a flat or FLRW chart, from `MetricSpec.scale_factor`, the one
place that refuses a(t) <= 0 or NaN, so the two tracers refuse the same
charts with the same error, and (sqrt(g00), sqrt(-g11)) on an isotropic
custom chart.  The tracer's slopes read them (`_t_rates`), and so do the
two integrals, which share one ladder: `conformal_time`, the integral of
e0 / A from the target time t_from, and `affine_length`, the affine length
of a ray down to it; closed form for power laws, else the tanh-sinh
`_integral`.

The spinor <-> direction dictionary at a curved point uses the fixed
orthonormal tetrad aligned with the coordinate axes (well-defined for
diagonal metrics); a rotated tetrad is the same frame with relabelled sky
points.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .errors import DivergentIntegralError, OutOfDomainError

#: Grid of `trace_past_to_time`: the first level, the cap (rows unsettled
#: there come back UNSETTLED) and the step-doubling tolerance.
GRID_START, GRID_CAP, GRID_TOL = 4, 2**15, 1e-5

#: Nodes times (rays + starts) in one block of `_t_level`, which bounds
#: its memory whatever the number of nodes.
_BLOCK_CELLS = 2**16


def _default_bounds(t_open_zero):
    lo = 0.0 if t_open_zero else -math.inf
    return np.array([[lo, math.inf]] + [[-math.inf, math.inf]] * 3)


@dataclass(frozen=True)
class MetricSpec:
    """A diagonal metric on a chart, plus domain bounds (4, 2)."""

    kind: str
    exponent: float | None = None
    bounds: np.ndarray = field(default_factory=lambda: _default_bounds(False))
    # compiled: the coefficients of a custom metric, or a(t) of an FLRW one
    _expressions: _ExpressionMetric | _FusedExpressions | None = field(
        default=None, repr=False, compare=False
    )

    # -- constructors -----------------------------------------------------

    @staticmethod
    def minkowski(bounds=None):
        """Flat space: the power law a = t^0, at t of either sign."""
        b = _default_bounds(False) if bounds is None else np.asarray(bounds, float)
        return MetricSpec(kind="minkowski", exponent=0.0, bounds=b)

    @staticmethod
    def flrw(p=None, a_expr=None, bounds=None):
        """Spatially flat cosmology ds^2 = dt^2 - a(t)^2 dx.dx, t > 0, with
        a = t^p or the expression a_expr of t, compiled once."""
        if (p is None) == (a_expr is None):
            raise ValueError("give exactly one of the exponent p or the expression a_expr")
        if p is not None and not math.isfinite(float(p)):
            raise ValueError(f"exponent p must be finite, got {p}")
        b = _default_bounds(True) if bounds is None else np.asarray(bounds, float)
        if p is not None:
            return MetricSpec(kind="flrw", exponent=float(p), bounds=b)
        a = _FusedExpressions([_parse_expression(a_expr, names=("t",))])
        return MetricSpec(kind="flrw", bounds=b, _expressions=a)

    @staticmethod
    def custom_diagonal(sources, bounds=None):
        """Four coefficient expressions of t, x, y, z, signature checked on
        a coarse grid over (a clipped box of) the declared bounds.  Their
        partials are exact and come with the values from one compiled
        evaluation.
        """
        b = _default_bounds(False) if bounds is None else np.asarray(bounds, float)
        m = MetricSpec(kind="custom", bounds=b, _expressions=_ExpressionMetric(sources))
        m._check_signature()
        return m

    # -- evaluation --------------------------------------------------------

    def scale_factor(self, t):
        """a(t) at the times t.  The FLRW frame needs a > 0: a value <= 0 or
        NaN raises DivergentIntegralError naming the first such time, as
        every reader of a (the legs, the tracer's slopes, the integrals)
        comes here.  +inf passes: 1/a = 0 is the limit at the lower end of a
        conformal interval, and `_scale_integral` refuses it at event times."""
        t = np.asarray(t, dtype=float)
        a = t**self.exponent if self.exponent is not None else self._expressions([t])[0]
        if not a.min(initial=np.inf) > 0.0:  # also for NaN
            a, t = np.broadcast_arrays(a, t)
            bad = ~(a > 0.0)
            value, at = a[bad][0], t[bad][0]
            word = "positive" if math.isfinite(value) else "finite"
            message = f"scale factor {value:.12g} at t = {at:.12g} is not {word}"
            raise DivergentIntegralError(message)
        return a

    def scale_factor_dot(self, t):
        t = np.asarray(t, dtype=float)
        if self.exponent is not None:
            p = self.exponent
            return p * t ** (p - 1.0) if p != 0.0 else np.zeros_like(t)
        h = 1e-7 * np.maximum(1.0, np.abs(t))
        a = self._expressions
        return (a([t + h])[0] - a([t - h])[0]) / (2 * h)

    def metric_diag(self, x):
        """Diagonal metric coefficients at chart points x (..., 4)."""
        x = np.asarray(x, dtype=float)
        if self.kind != "custom":
            return _SIGNATURE[:, 0] * self.tetrad_diag(x) ** 2
        # a pole or an overflow gives inf or NaN, which the signature guards name
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            g = self._expressions.values(np.moveaxis(x, -1, 0))
        return np.moveaxis(g, 0, -1)

    def norm(self, x, v):
        """g(v, v) at x; broadcasts over leading axes."""
        g = self.metric_diag(x)
        return np.sum(g * np.asarray(v, dtype=float) ** 2, axis=-1)

    def tetrad_diag(self, x):
        """The legs, norms of the coordinate axes: (1, a, a, a) with a(t) =
        `scale_factor` on a flat or FLRW chart, else (sqrt(g00), sqrt(-gii))."""
        if self.kind == "custom":
            return np.sqrt(np.abs(self.metric_diag(x)))
        x = np.asarray(x, dtype=float)
        legs = np.empty(x.shape)
        legs[..., 0], legs[..., 1:] = 1.0, self.scale_factor(x[..., 0])[..., None]
        return legs

    def in_domain(self, x):
        """Strict interior test; NaN coordinates count as outside.  The
        verdicts of the four coordinates are chained column by column, as in
        `frames`."""
        x = np.asarray(x, dtype=float)
        inside = (x > self.bounds[:, 0]) & (x < self.bounds[:, 1])
        return reduce(np.logical_and, [inside[..., k] for k in range(4)])

    # -- differential structure --------------------------------------------

    def _metric_jet(self, rows):
        """(g, dg) of an expression metric at the points whose coordinates
        are the rows t, x, y, z (4, ...): the coefficients (4 [a], ...) and
        their exact partials d g_aa / d x^b (4 [b], 4 [a], ...)."""
        jet = self._expressions.jet(rows)
        return jet[:4], jet[4:].reshape((4, 4) + jet.shape[1:])

    def geodesic_acceleration(self, x, v):
        """-Gamma^a_{bc} v^b v^c for the diagonal metric; vectorised.  No
        tracer calls it; the benchmark's per-layer counters still hook it."""
        v = np.asarray(v, dtype=float)
        if self.kind != "custom":
            t = np.asarray(x, dtype=float)[..., 0]
            a = self.scale_factor(t)
            ad = self.scale_factor_dot(t)
            acc = np.empty_like(v)
            acc[..., 0] = -a * ad * np.sum(v[..., 1:] ** 2, axis=-1)
            acc[..., 1:] = (-2.0 * ad / a * v[..., 0])[..., None] * v[..., 1:]
            return acc
        g, dg = self._metric_jet(np.moveaxis(np.asarray(x, dtype=float), -1, 0))
        v = np.moveaxis(v, -1, 0)  # rows, as g (a, ...) and dg (b, a, ...)
        v_dot_grad = np.einsum("b...,ba...->a...", v, dg)
        grad_quad = np.einsum("ab...,b...->a...", dg, v**2)
        return np.moveaxis(-(2.0 * v * v_dot_grad - grad_quad) / (2.0 * g), 0, -1)

    def _check_signature(self):
        box = np.clip(self.bounds, -2.0, 2.0)
        lo = box[:, 0] + 1e-3 * (box[:, 1] - box[:, 0])
        hi = box[:, 1] - 1e-3 * (box[:, 1] - box[:, 0])
        axes = [np.linspace(lo[k], hi[k], 3) for k in range(4)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(4, -1)
        _require_signature(self, grid, self.metric_diag(grid.T).T)


#: The signs of the (+, -, -, -) signature, one per coefficient row.
_SIGNATURE = np.array([[1.0], [-1.0], [-1.0], [-1.0]])


def _require_signature(m: MetricSpec, rows, g):
    """Raise ValueError naming the first point inside the bounds whose
    coefficients g (4, B) are not finite with signature (+, -, -, -); the
    coordinates of the points are the rows t, x, y, z (4, B)."""
    signed = g * _SIGNATURE
    if not 0.0 < signed.min(initial=1.0) <= signed.max(initial=1.0) < np.inf:  # wrong, inf or NaN
        x = np.column_stack(rows)
        wrong = ~np.all((signed > 0.0) & (signed < np.inf), axis=0) & m.in_domain(x)
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

#: The reason codes of `TraceResult.reason`, named in the module docstring.
ARRIVED, BELOW_TARGET, LEFT_BOUNDS, NON_FINITE, UNSETTLED = range(5)


@dataclass(frozen=True)
class TraceResult:
    """Where the rays of a batch stopped, and why: one reason code each."""

    x: np.ndarray  # (B, 4) end points
    n: np.ndarray  # (B, 3) unit tetrad directions of the past-directed tangents
    log_e: np.ndarray  # (B,) ln of the tetrad energies E = e0 |u0|
    lam: np.ndarray  # (B,) affine length along the past-directed tangent
    reason: np.ndarray  # (B,) int8
    ok = property(lambda self: self.reason == ARRIVED)  # (B,) bool masks of two codes
    lost = property(lambda self: self.reason == UNSETTLED)

    def velocity(self, m: MetricSpec):
        """Future chart velocities (B, 4) of the rays: the tetrad components
        (E, -E n) over the legs at x."""
        tetrad = np.column_stack([np.ones(len(self.n)), -self.n])
        return np.exp(self.log_e)[:, None] * tetrad / m.tetrad_diag(self.x)


def _bundle_start(m: MetricSpec, x0, v0):
    """Row-major sky-bundle states (8, B) of the future null rays (x0, v0)
    (B, 4): the past-directed tangent -v0 in the tetrad, and lambda = 0."""
    u0 = -(m.tetrad_diag(x0) * np.asarray(v0, dtype=float)).T
    y = np.empty((8, len(x0)))
    y[:3], y[3:6] = x0[:, 1:].T, u0[1:] / np.linalg.norm(u0[1:], axis=0)
    y[6], y[7] = np.log(-u0[0]), 0.0
    return y


def _bundle_slope(m: MetricSpec, s, y, log):
    """d/ds of sky-bundle states y (8, B) on a custom chart at s (B,), t =
    e^s if log else s.  With the legs e_a = sqrt|g_aa|, the tetrad
    components (-E, E n) of the past-directed tangent u change at d/dlambda
    = E^2 W, W quadratic in u/E.  Only `_march` comes here; flat, FLRW and
    isotropic charts of t alone take `_t_rates`, this slope with t-partials
    only, on every level that keeps its signature."""
    t, n = np.exp(s) if log else s, y[3:6]
    rows = (t, *y[:3])
    g, dg = m._metric_jet(rows)  # g is (a, B) and dg (b, a, B)
    _require_signature(m, rows, g)
    e = np.sqrt(np.abs(g))
    ut = np.concatenate([-1.0 / e[:1], n / e[1:]])  # u / E
    quad, dot = np.einsum("acr,cr->ar", dg, ut**2), np.einsum("cr,car->ar", ut, dg)
    w, e0 = e * (quad - ut * dot) / (2.0 * g), e[0]
    out = np.empty_like(y)
    out[:3], out[3:6], out[6] = -(e0 / e[1:]) * n, -e0 * (w[1:] + n * w[0]), e0 * w[0]
    out[7] = -e0 * np.exp(-y[6])
    return (t if log else 1.0) * out  # dt/ds d/dt


def _t_legs(m: MetricSpec, t, rate=True):
    """(e0, A, d ln A / dt or None without rate, lost) at the times t (R,)
    of a chart of t alone, ds^2 = e0^2 dt^2 - A^2 dx.dx, lost telling
    whether some (g00, g11) are not finite with the signature (+, -, -, -):
    (1, a, a'/a) on flat and FLRW charts, never lost (`scale_factor`
    refuses a <= 0), and (sqrt(g00), sqrt(-g11), (d g11 / dt) / (2 g11))
    on isotropic custom charts from one evaluation of the coefficients,
    `t_jet` with the rate and `values` (no partial) without.  The callers
    run it under a quiet error state: the legs of a lost signature are NaN."""
    if m.kind != "custom":
        a = m.scale_factor(t)
        return 1.0, a, m.scale_factor_dot(t) * (1.0 / a) if rate else None, False
    g = (m._expressions.t_jet if rate else m._expressions.values)((t,))
    signed = g[:2] * _SIGNATURE[:2]  # (g00, -g11)
    lost = not 0.0 < signed.min(initial=1.0) <= signed.max(initial=1.0) < np.inf
    e0, a = np.sqrt(signed)
    return e0, a, g[2] / (2.0 * g[1]) if rate else None, lost


def _t_rates(m: MetricSpec, s, log):
    """The slope factors of a chart of t alone at the stage times s (R,),
    t = e^s if log else s: the rows d/ds of the displacement D along the
    tetrad direction n, d/ds of ln E and -e0 dt/ds, the factor of e^-ln E
    in d lambda / ds (3, R); and whether the signature is lost there
    (`_t_legs`).

    This is `_bundle_slope` with t-partials only.  With the legs e0 and A,
    D moves at -e0 / A and ln E at -d ln A / dt, while the slope of n,
    w[1:] + n w0, cancels identically, so n is conserved (in flat space,
    a = 1, ln E keeps a rate of +0.0)."""
    t = np.exp(s) if log else s
    e0, a, rate, lost = _t_legs(m, t)
    rates = np.empty((3, len(s)))
    rates[2] = -e0
    np.divide(rates[2], a, out=rates[0])  # -e0 / a is -(e0 / a) bit for bit
    np.subtract(0.0, rate, out=rates[1])
    if log:
        rates *= t  # dt/ds d/dt
    return rates, lost


def _t_slope(rates, y):
    """d/ds of the rows ln E and lambda y (2, R) of `_t_level` at a stage
    whose `_t_rates` rows are rates: d lambda / dt = -e0 e^-ln E."""
    out = np.empty_like(y)
    out[0], out[1] = rates[1], rates[2] * np.exp(-y[0])
    return out


def _inside(m: MetricSpec, points):
    """Strict spatial bounds test of the points whose coordinates are the
    rows x, y, z (3, B), chained row by row; NaN counts as outside."""
    return reduce(np.logical_and, (points > m.bounds[1:, :1]) & (points < m.bounds[1:, 1:]))


def _node_fate(m: MetricSpec, y):
    """The codes of rays at a node from their rows there y (k, B), point, n
    (`_t_level` leaves it out), ln E and lambda: NON_FINITE if one is not
    finite, else LEFT_BOUNDS outside the spatial bounds, else ARRIVED."""
    finite = reduce(np.logical_and, np.isfinite(y))
    return np.where(finite, np.where(_inside(m, y[:3]), ARRIVED, LEFT_BOUNDS), NON_FINITE)


def _t_only(m: MetricSpec):
    """Whether the slope of m depends on t alone: flat, FLRW, or custom and
    isotropic in t alone (`t_jet`)."""
    return m.kind != "custom" or m._expressions.t_jet is not None


def _march(m: MetricSpec, t0, y0, t_target, n):
    """March past-directed rays from the times t0 (B,) and the row-major
    states y0 (8, B): the spatial point, the unit tetrad direction n of the
    tangent, ln E for the tetrad energy E = e0 |u0|, and lambda.  n steps
    of s lead to t_target: ln t above a level > 0, node k at the fraction
    (k/n)^2 of each row's span, else t in equal steps.  The last node is the
    level itself.  A row leaves, with its state and time at that node, at
    the first node where its point is outside the spatial bounds or its n,
    ln E or lambda is not finite, with its code (`_node_fate`).  A level
    above t0 runs the same rays to the future, lambda falling.

    The per-node loop of a custom chart, for every level of one that is
    anisotropic or depends on x, y or z, and of the levels that `_t_level`
    gives None for: the (8, B) states step node by node with `_bundle_slope`,
    which names the first stage point (node, stage, row) inside the domain
    that loses the signature; a node's accept is n /= |n|."""
    log = t_target > 0.0
    nodes = (np.arange(n + 1) / n) ** (2 if log else 1)
    s0 = np.log(t0) if log else t0
    span = (math.log(t_target) if log else t_target) - s0
    y, t = y0.copy(), np.full(len(t0), float(t_target))
    reason = np.full(len(t0), ARRIVED, dtype=np.int8)
    live, yl = np.arange(len(t0)), y0  # the rows still marching, and their states
    for k in range(1, n + 1):
        s, hk = s0 + nodes[k - 1] * span, (nodes[k] - nodes[k - 1]) * span
        yl = _rk4_step(lambda c, y: _bundle_slope(m, s + c * hk, y, log), yl, hk)
        yl[3:6] /= np.sqrt(np.sum(yl[3:6] ** 2, axis=0))
        keep = (fate := _node_fate(m, yl)) == ARRIVED
        if not keep.all():  # rows leave with their state at this node
            gone = live[~keep]
            y[:, gone], t[gone] = yl[:, ~keep], (np.exp(s + hk) if log else s + hk)[~keep]
            reason[gone] = fate[~keep]
            live, yl, s0, span = live[keep], np.compress(keep, yl, 1), s0[keep], span[keep]
    y[:, live] = yl
    return TraceResult(np.column_stack([t, y[:3].T]), y[3:6].T, y[6], y[7], reason)


@dataclass(frozen=True)
class _Starts:
    """A batch of rays on a chart of t alone, keyed by `_key_starts`: every
    start is the start of one of the rays at least, in `np.unique` order."""

    start: np.ndarray  # (B,) each ray's start
    s0: np.ndarray  # (U,) s of each start
    span: np.ndarray  # (U,) from s0 to the level
    y0: np.ndarray  # (3, U) D = 0, ln E and lambda at node 0
    x0: np.ndarray  # (3, B) the rays' start points
    n: np.ndarray  # (3, B) their unit tetrad directions
    t_target: float
    log: bool


def _key_starts(t0, y0, t_target):
    """The rays of the times t0 (B,) and states y0 (8, B), keyed by their
    distinct starts (t0, ln E, lambda), bit for bit, for the levels
    `_t_level` marches to t_target until some of them settle.  A batch
    whose 24-byte keys are all equal, as every sky image's are, is one
    start without a sort; any other goes to `np.unique`."""
    log = t_target > 0.0
    keys = np.column_stack([t0, y0[6], y0[7]])
    bits = keys.view(np.uint64)  # (B, 3)
    if len(bits) and (bits == bits[0]).all():
        first, start = np.zeros(1, dtype=np.intp), np.zeros(len(bits), dtype=np.intp)
    else:
        keys = keys.view(np.dtype((np.void, 24))).ravel()
        _, first, start = np.unique(keys, return_index=True, return_inverse=True)
    s0 = np.log(t0[first]) if log else t0[first]
    span = (math.log(t_target) if log else t_target) - s0
    n = y0[3:6] / np.sqrt(np.sum(y0[3:6] ** 2, axis=0))
    state = np.vstack([np.zeros(len(first)), y0[6:, first]])
    return _Starts(start, s0, span, state, y0[:3], n, float(t_target), log)


def _t_level(m: MetricSpec, st: _Starts, n):
    """The march of n nodes (as `_march` steps it) for the rays of st on a
    chart whose slope depends on t alone: flat, FLRW, or custom and
    isotropic in t alone; None if the coefficients lose their signature at
    a stage, for `_march` to name the point.  n is conserved, so a ray's
    node points are its start point plus n times a displacement D, and the
    rows D, ln E and lambda are marched once per start, the nodes of a
    block side by side in one row.  The slope factors `_t_rates` are
    evaluated once per block at each stage fraction c = 0, 1/2 and 1.  The
    slopes of D and ln E do not depend on the state, so their RK4
    increments are h/6 (k1 + 2 k2 + 2 k2 + k4), which `np.cumsum` adds in
    the node-by-node order, so ln E has the bits of a node-by-node march;
    an `_rk4_step` from ln E at each node gives the lambda increments.

    Each ray leaves, with its code, at its first node not ARRIVED by
    `_node_fate`, and is placed from its start's states.  A ray is tested on
    the block's last node only, and scans the block only if it fails there.
    Every D slope, -e0 / A, is <= 0 (both legs are positive: a level of a
    custom chart that loses its signature gives None, and
    `MetricSpec.scale_factor` refuses an FLRW a <= 0), so the D increments
    of a start all have one sign and D only grows toward the past: each
    coordinate of x0 + n D moves one way (IEEE rounding is monotone; a NaN
    increment leaves D NaN up to the last node), and a non-finite ln E or
    lambda stays so.  A ray inside the bounds at the node before the block
    (or at its start, which `trace_past_to_time` checks) and inside and
    finite at the last node was inside at every node; the others scan the
    block node by node for the one they leave at.  The blocks carry the
    three rows on and hold O(block (rays + starts)) floats, `_BLOCK_CELLS`
    in all, scan included."""
    nodes = (np.arange(n + 1) / n) ** (2 if st.log else 1)
    at, s0, span, state = st.start, st.s0, st.span, st.y0[:, None]
    x0, dirs = st.x0, st.n  # a non-finite n shows in x0 + n D
    b, u = len(at), len(s0)
    x, end = np.empty((b, 4)), np.empty((3, b))  # end points, and the state where rays stop
    x[:, 0] = st.t_target
    reason = np.full(b, ARRIVED, dtype=np.int8)  # ARRIVED: still marching
    block = max(1, _BLOCK_CELLS // (b + u + 1))
    for k0 in range(0, n, block):
        if not np.any(reason == ARRIVED):
            break
        k1 = min(n, k0 + block)
        s = (s0 + nodes[k0:k1, None] * span).ravel()  # (nodes x starts)
        h = ((nodes[k0 + 1 : k1 + 1] - nodes[k0:k1])[:, None] * span).ravel()
        rate = {}
        for c in (0.0, 0.5, 1.0):
            rate[c], lost = _t_rates(m, s + c * h, st.log)
            if lost:
                return None
        state = np.concatenate([state[:, -1:], np.empty((3, k1 - k0, u))], axis=1)
        r0, rh, r1 = (rate[c][:2] for c in (0.0, 0.5, 1.0))  # the D and ln E slopes
        state[:2, 1:] = ((h / 6.0) * (r0 + 2.0 * rh + 2.0 * rh + r1)).reshape(2, -1, u)
        np.cumsum(state[:2], axis=1, out=state[:2])
        y = np.full((2, len(h)), -0.0)  # -0.0 + dy is dy
        y[0] = state[1, :-1].ravel()  # ln E at each node, lambda from -0.0
        state[2, 1:] = _rk4_step(lambda c, y: _t_slope(rate[c], y), y, h)[1].reshape(-1, u)
        np.cumsum(state[2], axis=0, out=state[2])
        finite = np.isfinite(state[1, 1:]) & np.isfinite(state[2, 1:])  # (nodes, starts)
        last = x0 + dirs * state[0, -1, at]  # the rays that may leave in this block
        scan = np.flatnonzero((reason == ARRIVED) & ~(_inside(m, last) & finite[-1, at]))
        if not len(scan):
            continue
        a = at[scan]
        d = state[0, 1:][:, a]
        points = x0[:, None, scan] + dirs[:, None, scan] * d  # (3, nodes, rays)
        left = ~(_inside(m, points.reshape(3, -1)).reshape(d.shape) & finite[:, a])
        gone = left.any(axis=0)
        k, g, a = left.argmax(axis=0)[gone], scan[gone], a[gone]
        t_end = s.reshape(-1, u)[k, a] + h.reshape(-1, u)[k, a]
        x[g, 0], end[:, g] = np.exp(t_end) if st.log else t_end, state[:, k + 1, a]
        reason[g] = _node_fate(m, np.vstack([points[:, k, np.flatnonzero(gone)], end[1:, g]]))
    np.copyto(end, np.take(state[:, -1], at, 1), where=reason == ARRIVED)
    x[:, 1:] = (x0 + dirs * end[0]).T
    return TraceResult(x, dirs.T, end[1], end[2], reason)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def trace_past_to_time(m: MetricSpec, x0, v0, t_target):
    """March past-directed null rays from (x0, v0-future) (B, 4) down to
    t = t_target in sky-bundle variables (`_march`), null by construction;
    arrived rows land on the level exactly.

    The batch shares the number N of steps, doubling from GRID_START: a
    level settles the rows that arrived at it and at the level before once
    every such row's step-doubling estimate |fine - coarse| / 15 (end point
    and lambda) is within GRID_TOL * max(1, |end|), and, whatever the
    estimate, the rows that failed at both, which keep this level's state.
    The others refine alone; at GRID_CAP they come back UNSETTLED.  Each
    level gives the unsettled rows only (`_settled` compares it with the
    level before), and each row comes back with the state and code of the
    level that settled it: a batch that settles whole on one level is that
    level's result, and only a batch whose rows settle apart is assembled.
    The ladder holds one copy of the unsettled rows' times and states,
    compressed when some settle, and each level takes it as it is: on a
    chart of t alone, `_t_level` with their starts keyed anew after each
    such settle; on any other chart, and at a level that `_t_level` gives
    None for (a lost signature), a `_march`.  Raises OutOfDomainError for a
    start event outside the domain or below the level, t < t_target
    exactly; a start on the level ends at its own point with lambda 0.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        raise ValueError("trace_past_to_time is batched; pass (B, 4) arrays")
    outside = ~m.in_domain(x0)
    if np.any(outside):
        raise OutOfDomainError(f"start event {x0[outside][0].tolist()} outside the domain")
    if np.any(x0[:, 0] < t_target):
        raise OutOfDomainError("some start events lie below the target level")
    live, t0, y0 = np.arange(len(x0)), x0[:, 0], _bundle_start(m, x0, v0)  # the unsettled rows
    starts = _key_starts(t0, y0, t_target) if _t_only(m) else None

    def level(n):
        res = None if starts is None else _t_level(m, starts, n)
        return res or _march(m, t0, y0, t_target, n)

    parts, n = [], GRID_START  # (rows of the batch, their result) as they settle
    coarse = level(n)
    while len(live) and n < GRID_CAP:
        n *= 2
        fine = level(n)
        done = _settled(coarse, fine)
        if done.all():  # the common case: every live row settles on this level
            parts.append((live, fine))
            live = live[:0]
        elif done.any():
            parts.append((live[done], _rows(fine, done)))
            live, t0, fine = live[~done], t0[~done], _rows(fine, ~done)
            y0 = np.compress(~done, y0, 1)
            if starts is not None:
                starts = _key_starts(t0, y0, t_target)
        coarse = fine
    if len(live):  # unsettled at GRID_CAP: the last level's state
        parts.append((live, replace(coarse, reason=np.full(len(live), UNSETTLED, np.int8))))
    if len(parts) == 1:
        return parts[0][1]
    fields = vars(coarse).values()
    out = TraceResult(*(np.empty((len(x0),) + v.shape[1:], v.dtype) for v in fields))
    for rows, res in parts:
        for name, value in vars(res).items():
            getattr(out, name)[rows] = value
    return out


def _settled(coarse: TraceResult, fine: TraceResult):
    """The rows (B,) that the level fine settles after the level coarse:
    all the rows that arrived at both, once every one of them passes the
    step-doubling estimate, and the rows that failed at both.  The
    estimate's maxima over the end point and lambda are column chains."""
    both = coarse.ok & fine.ok
    end = (fine.x[:, 1], fine.x[:, 2], fine.x[:, 3], fine.lam)
    ref = (coarse.x[:, 1], coarse.x[:, 2], coarse.x[:, 3], coarse.lam)
    err = reduce(np.maximum, [np.abs(e - r) for e, r in zip(end, ref)])
    scale = np.maximum(reduce(np.maximum, [np.abs(e) for e in end]), 1.0)
    estimate_ok = np.all((err <= 15.0 * GRID_TOL * scale) | ~both)
    return (both & estimate_ok) | ~(coarse.ok | fine.ok)


def _rows(res: TraceResult, mask):
    """The rows of res where mask (B,) is set."""
    return TraceResult(*(np.compress(mask, v, 0) for v in vars(res).values()))


# ---------------------------------------------------------------------------
# Conformal chart utilities.


#: `_integral`: the node range in u, the first step, the levels, the level tolerance.
_TS_RANGE, _TS_STEP, _TS_LEVELS, _TS_TOL = 6.5, 0.5, 8, 1e-13


def _ts_rule():
    """`_integral`'s rule, one row per integrand call: levels 0 and 1 share
    the first, as level 0 compares its estimate with 0 and so settles only
    a row whose sum is 0 (or overflows), and each later level has its own.
    A row holds the step h and the count of new nodes u of each of its
    levels (every node at level 0), and, stacked level by level (levels, 1,
    nodes), whether u <= 0, the fraction q / (1 + q) of the interval between
    a node and its nearer end, and the weight pi cosh u / (1 + q) of that
    gap.  Level 1's 26 nodes are padded to level 0's 27 with a node of
    fraction 0, on an end, whose term is never read."""
    levels = []
    for level in range(_TS_LEVELS):
        h = _TS_STEP / 2**level
        j = np.arange(-int(_TS_RANGE / h), int(_TS_RANGE / h) + 1)
        u = h * (j if level == 0 else j[j % 2 == 1])  # new nodes only
        q = np.exp(-np.pi * np.abs(np.sinh(u)))  # underflows to 0 before |u| = 6.2
        levels.append((h, u <= 0, q / (1 + q), np.pi * np.cosh(u) / (1 + q)))
    rule = []
    for row in (levels[:2], *([level] for level in levels[2:])):
        width = len(row[0][1])  # the first level has the most nodes
        pad = lambda a: np.concatenate([a, np.zeros(width - len(a), a.dtype)])  # False, 0 and 0
        steps = tuple((h, len(left)) for h, left, _, _ in row)
        rule.append((steps, *(np.stack([pad(lv[k]) for lv in row])[:, None] for k in (1, 2, 3))))
    return tuple(rule)


_TS_RULE = _ts_rule()


def conformal_time(m: MetricSpec, t, t_from=0.0):
    """The conformal interval from t_from (default: the initial singularity)
    to t on a chart of t alone (`_t_only`), the integral of e0 / A over
    [t_from, t]; t - t_from in flat space.  t is a float or an array; a
    float gives a float, computed with the array's arithmetic (Python's
    float power can differ in the last bit)."""
    return _scale_integral(m, t, t_from, -1)


def affine_length(m: MetricSpec, t, t_from):
    """The affine length of the past null ray from t (an array) down to
    t_from on a chart of t alone, with dt/dlambda = 1 at t: the integral of
    e0 A over [t_from, t], over (e0 A)(t); t - t_from in flat space."""
    return _scale_integral(m, t, t_from, 1)


def _scale_integral(m: MetricSpec, t, t_from, k):
    """The integral of e0 A^k over [t_from, t] for k = -1, and for k = +1
    the same over (e0 A)(t), from the legs of `_t_legs`; floats and arrays
    as in `conformal_time`.  A power law t^p (FLRW, t > 0) integrates to
    t^q / q with q = 1 + k p (ln(t / t_from) at q = 0; t - t_from, at any
    t, for flat space's t^0), which diverges from 0 for q <= 0; from
    t_from / 2 up to 2 t_from, where the ends' difference cancels, it is
    t_from^q expm1(q g) / q with g = log1p(d / t_from) of the exact
    difference d = t - t_from (Sterbenz).  Its affine length is a ratio, as
    t^q under- or overflows where the length does not: t / q from 0, else
    t (1 - (t_from / t)^q) / q, or -t expm1(-q g) / q near t_from.  Any
    other chart takes one `_integral` over the distinct times (one time
    as it is, without a sort), with legs finite at each of them (an
    infinite a, as of 't*1e308*10', raises DivergentIntegralError naming
    the time) and Lorentzian at every node (`_lorentzian_legs`).  The end
    t_from is exempt, as the quadrature leaves out its end nodes: there A
    may overflow (1/t at 0, 1/(t - 0.5) at 0.5) while the integral of
    e0 / A converges."""
    t = np.array(t, dtype=float)
    p = m.exponent
    if p == 0.0:
        return t - t_from if t.ndim else float(t) - t_from
    if m.kind == "flrw" and (
        t_from < 0.0 or (np.less_equal(t, 0.0).any() if t.ndim else float(t) <= 0.0)
    ):
        raise OutOfDomainError("scale-factor integrals are defined for t > 0")
    if p is None:  # one quadrature over the distinct times
        if t.size == 1:  # one time, as of an event or a sky image: no sort
            times, inverse = t.reshape(1), slice(None)
        else:
            times, inverse = np.unique(t.ravel(), return_inverse=True)
        with np.errstate(all="ignore"):  # a non-finite value is named below
            e0, a = _lorentzian_legs(m, times)
        bad = ~np.isfinite(a)  # +inf passes `scale_factor`, and 1 / a would pass as 0
        if np.any(bad):
            message = f"scale factor {a[bad][0]} at t = {times[bad][0]:.12g} is not finite"
            raise DivergentIntegralError(message)
        combine = np.multiply if k > 0 else np.divide  # e0 A or e0 / A
        out = _integral(lambda s: combine(*_lorentzian_legs(m, s)), t_from, times)
        out = (out / (e0 * a) if k > 0 else out)[inverse].reshape(t.shape)
    elif (q := 1.0 + k * p) <= 0.0 and t_from == 0.0:
        raise DivergentIntegralError(f"integral of t^{k * p} diverges at 0")
    elif t_from > 0.0:
        d = t - t_from
        near = (d < t_from) & (d >= -0.5 * t_from)
        g = np.log1p(np.where(near, d, 0.0) / t_from)
        if q == 0.0:
            out = np.where(near, g, np.log(t / t_from)) * (t if k > 0 else 1.0)
        elif k > 0:
            out = np.where(near, -t * np.expm1(-q * g), t * (1.0 - (t_from / t) ** q)) / q
        else:
            far = t**q / q - np.array(t_from) ** q / q
            out = np.where(near, np.array(t_from) ** q * np.expm1(q * g) / q, far)
    else:
        out = t / q if k > 0 else t**q / q
    return out if t.ndim else float(out)


def _lorentzian_legs(m: MetricSpec, t):
    """The legs (e0, A) of `_t_legs`; a lost signature raises its ValueError
    (`_require_signature`) at the first such time and the spatial point of
    the bounds nearest the origin, as it does not depend on x, y and z."""
    e0, a, _, lost = _t_legs(m, t, rate=False)
    if lost:
        lo, hi = m.bounds[1:].T
        x = np.empty((len(t), 4))
        x[:, 0], x[:, 1:] = t, np.clip(0.0, np.nextafter(lo, hi), np.nextafter(hi, lo))
        _require_signature(m, x.T, m.metric_diag(x).T)
    return e0, a


def _integral(fn, lo, hi):
    """Integrals of fn >= 0 from lo to each time of the array hi: tanh-sinh
    quadrature, level by level for the times whose last two levels differ,
    one fn call for levels 0 and 1 together and one per later level.  With
    q = exp(-pi |sinh u|) a node lies gap = (hi - lo) q / (1 + q) from its
    nearer end and weighs gap pi cosh u / (1 + q), so nodes reach the float
    floor at a singular end and nothing overflows.  A node on an end (gap
    0) weighs 0 and fn is not called there, so a(0) = 0 at the singularity
    is never read.  Each level takes its sum, its settle test and its
    non-finite term from its own nodes: a non-finite term, or levels that
    never agree (terms that do not decay at an end), raise
    DivergentIntegralError; the sign of fn is the caller's
    (`MetricSpec.scale_factor`).  fn sees level 0's nodes row by row, then
    level 1's, so an error fn raises itself names the node of a call per
    level, unless level 0 has a non-finite term or settles that node's row
    (a sum of 0), which a call per level would find before reading level
    1.  The nodes and weights are built once, at import (`_TS_RULE`)."""
    rows, total = np.arange(len(hi)), np.zeros(len(hi))
    for steps, left, frac, weight in _TS_RULE:
        end = hi[rows, None]
        gap = (end - lo) * frac  # (levels, rows, nodes)
        t = np.where(left, lo + gap, end - gap)
        inner, f = gap != 0, np.zeros(t.shape)  # nodes on an end are left out
        with np.errstate(all="ignore"):  # a non-finite term is named below
            f[inner] = fn(t[inner])
            terms = gap * weight * f
        keep = slice(None)  # a row of the rule holds at most two levels
        for level, (h, n) in enumerate(steps):
            part = terms[level, keep, :n]  # the rows unsettled at the level before
            bad = ~np.isfinite(part)
            if bad.any():
                value, at = f[level, keep, :n][bad][0], t[level, keep, :n][bad][0]
                raise DivergentIntegralError(f"integrand {value:.3g} at t = {at:.12g}")
            last = total[rows]
            new = last / 2 + h * part.sum(axis=1)
            settled = np.abs(new - last) <= _TS_TOL * np.abs(new)
            keep = ~settled
            total[rows], rows = new, rows[keep]
            if not len(rows):
                return total
    raise DivergentIntegralError("quadrature did not converge")


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
    (4,) with the future null velocity v0 (4,) at lam = 0 (oracle quality);
    p = -1 and p = 1 take the logarithmic forms of `_scale_integral`."""
    if m.kind != "flrw" or m.exponent is None:
        raise ValueError("closed form needs a power-law scale factor")
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    p = m.exponent
    t0 = float(x0[0])
    cmag = t0**p * float(v0[0])
    uhat = v0[1:] / np.linalg.norm(v0[1:])
    tp = t0 ** (1.0 + p) + (1.0 + p) * cmag * lam
    if tp <= 0.0:
        raise OutOfDomainError("closed-form ray leaves t > 0")
    t = t0 * math.exp(cmag * lam) if p == -1.0 else tp ** (1.0 / (1.0 + p))
    q = 1.0 - p
    eta = math.log(t / t0) if q == 0.0 else t**q / q - t0**q / q
    xs = x0[1:] + eta * uhat
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


def _power(a, b):
    """a ** b; an integer power past the float range is refused before it
    is computed (10**10**10 would take minutes and gigabytes)."""
    if isinstance(a, int) and isinstance(b, int) and b > 0 and abs(a) > 1:
        if b * (abs(a).bit_length() - 1) > 1024:
            raise OverflowError("integer power past the float range")
    return a**b


#: The Python operation of each operator of the grammar.
_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: _power, ast.USub: operator.neg,
    ast.UAdd: operator.pos,
}


def _value(node):
    """The value of a tree as its compiled code computes it (Python int and
    float arithmetic), or None if it names a variable.  Every part without
    names is computed once, and one with no real float value (0/0, 0**-9,
    (-1)**0.5, an integer past the float range such as 10**400) raises
    ArithmeticError naming the part; inf and NaN pass."""
    if isinstance(node, ast.Name):
        return None
    args = ()
    if not isinstance(node, ast.Constant):
        parts = (node.operand,) if isinstance(node, ast.UnaryOp) else (node.left, node.right)
        args = [_value(part) for part in parts]
        if None in args:
            return None
    try:
        value = node.value if isinstance(node, ast.Constant) else _OPS[type(node.op)](*args)
        float(value)  # TypeError if complex, OverflowError past the float range
    except (ArithmeticError, TypeError):
        raise ArithmeticError(ast.unparse(node)) from None
    return value


def _parse_expression(src: str, names=_EXPR_NAMES):
    """The AST body of an arithmetic expression of the chart variables
    names, a leading part of t, x, y, z.

    Grammar: numbers, the names, +, -, *, /, ** and unary minus.  Every
    part without names must have a real float value (`_value`); the tree
    keeps its own constants.
    """
    if not isinstance(src, str):
        raise ValueError(f"metric expression {src!r} is not a string")
    try:
        tree = ast.parse(src, mode="eval")
        for node in ast.walk(tree):
            if not isinstance(node, _ALLOWED_NODES):
                raise ValueError(f"disallowed syntax in metric expression: {src!r}")
            if isinstance(node, ast.Name) and node.id not in names:
                known = ", ".join(names)
                raise ValueError(f"unknown name {node.id!r} in {src!r}, an expression of {known}")
            if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
                raise ValueError("only numeric constants are allowed")
        _value(tree.body)
    except SyntaxError as exc:  # IndentationError too
        raise ValueError(f"metric expression {src!r} does not parse: {exc.msg}") from exc
    except (RecursionError, MemoryError) as exc:  # the stack limits of the parser or `_value`
        raise ValueError(f"metric expression {src!r} nests too deeply to parse") from exc
    except ArithmeticError as exc:  # a part named by `_value`
        message = f"metric expression {src!r} has a part {exc.args[0]!r} with no real float value"
        raise ValueError(message) from exc
    return tree.body


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
        value = float(_value(node))
    except ArithmeticError:
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
        tree = ast.Expression(body=ast.Tuple(elts=elts, ctx=ast.Load()))
        self.code = compile(ast.fix_missing_locations(tree), "<metric-expression>", "eval")

    def __call__(self, rows):
        """Every body's value at the chart points whose coordinates are the
        rows t, x, y, z (4, ...), or the first k rows for bodies of the
        first k variables, with the slots along the first axis (slots, ...)."""
        out = np.zeros((self.slots,) + np.shape(rows[0]))
        values = eval(self.code, _EVAL_GLOBALS, dict(zip(_EXPR_NAMES, rows)))  # noqa: S307
        for slot, value in self.constants:
            out[slot] = value
        for slot, index in self.computed:
            out[slot] = values[index]
        return out


class _ExpressionMetric:
    """Compiled coefficient expressions of a diagonal metric: `values`
    gives the 4 coefficients, `jet` the coefficients followed by their
    16 partials d g_aa / d x^b in (b, a) order.  On an isotropic chart of
    t alone, ds^2 = g00(t) dt^2 + g11(t) dx.dx (the coefficients name t
    only, so every x, y and z partial folds to 0, and the three spatial
    ones parse to the same tree), `t_jet` gives (g00, g11, d g11 / dt)
    from the row t; on any other chart it is None."""

    def __init__(self, sources):
        if len(sources) != 4:
            raise ValueError("custom metric needs four coefficient expressions")
        coeffs = [_parse_expression(src) for src in sources]
        try:
            partials = [_diff(c, name) for name in _EXPR_NAMES for c in coeffs]
            self.values = _FusedExpressions(coeffs)
            self.jet = _FusedExpressions(coeffs + partials)
        except RecursionError as exc:
            raise ValueError(f"metric expressions {list(sources)!r} nest too deeply") from exc
        names = {n.id for c in coeffs for n in ast.walk(c) if isinstance(n, ast.Name)}
        isotropic = len({ast.dump(c) for c in coeffs[1:]}) == 1
        t_only = names <= {"t"} and isotropic
        self.t_jet = _FusedExpressions([coeffs[0], coeffs[1], partials[1]]) if t_only else None


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
        return MetricSpec.flrw(p=cfg.get("p"), a_expr=cfg.get("a_expr"), bounds=bounds)
    if kind == "custom":
        sources = tuple(cfg.get("coeffs") or ())
        return MetricSpec.custom_diagonal(sources, bounds=bounds)
    raise ValueError(f"unknown metric kind {kind!r}")
