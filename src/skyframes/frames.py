"""Conformal reference frames built by projecting skies along null geodesics.

The target 3-manifold M is a constant-time slice of the chart or, for
expanding cosmologies, the initial conformal boundary at cosmic time zero
(comoving coordinates).  Each sky point of an event is carried to M by
the past-directed null geodesic it represents; regularity of the image is
the numerical rank of the map's Jacobian in the two sky parameters.

One kernel, `tangent_planes`, traces a batch of rows with their sky
stencils and event-family pairs in a single `project_batch` call (one
event may be shared by every ray, as in a sky image, and the closed form
then does its per-event work once); it
ranks the Jacobians and orients their normals in closed form from their
two columns, and gives the event-family differences.  Sky images and the
verifier's probe values (`FrameSpec.probe_values`) are built on it; a
caller with one row passes a batch of one and reads row 0.

Reductions over a short trailing axis of a batch (coordinates, stencil
rays, Jacobian entries) are column chains, `functools.reduce` of an
elementwise ufunc over the columns, as numpy reduces such an axis one row
at a time.  The chains keep numpy's bits: max and `and` are exact in any
order, a sum adds its columns left to right as numpy does, and a norm is
the square root of the summed `(x.conj() * x).real`, which is what
`np.linalg.norm` computes.  A chain over no columns starts from its
identity.

Two tracers are available: a conformal-chart closed form (a chart of t
alone, `manifold._t_only`: flat space, a spatially flat cosmology or an
isotropic custom chart ds^2 = N(t)^2 dt^2 - A(t)^2 dx.dx, projects onto
straight comoving lines, the conformal interval the integral of N / A),
which `tracer="auto"` takes there, and the numeric `manifold.trace_past_to_time`
behind `_trace`, which marches a batch in t (ln t toward the singularity)
on one grid and lands on the target level.  Toward the singularity it
stops at a small cutoff time (or at the lowest event time, when lower) and
closes the rest along the ray's conserved direction in conformal time, far
below the image tolerances.  An event lies below the target when t <
t_target, with no tolerance.  Both run with numpy's errors ignored,
whatever the caller's state: a ray that fails is masked or named.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import manifold as mf
from . import sky as skymod
from . import spinor
from .errors import NoIntersectionError, OutOfDomainError
from .sky import SkySample
from .spinor import PAULI_FACTOR

#: Cosmic time down to which the numeric tracer marches toward the
#: singularity; the rest of the way is closed in conformal time.
SINGULARITY_CUTOFF = 1e-9

#: Central-difference steps: the sky stencil, and event families (`tangent_planes`).
SKY_FD_STEP, EVENT_FD_STEP = 1e-5, 1e-4

#: Rank threshold of a sky Jacobian's singular values, times max(1, sigma_max).
RANK_TOL = 1e-7

#: The sky-image status of each reason code of `manifold.TraceResult`.
_STATUS = np.array(["ok"] + ["no_intersection"] * 3 + ["integrator_failure"], dtype=object)


@dataclass(frozen=True)
class CauchySurface:
    t0: float
    kind: str = field(default="cauchy", init=False)


@dataclass(frozen=True)
class Singularity:
    kind: str = field(default="singularity", init=False)


class ProbeValues(NamedTuple):
    """What a frame answers for B rows (event, sky point) and k directions."""

    theta: np.ndarray  # (B, k) contact-form values on the horizontal probes
    rates: np.ndarray  # (B, k) normal-projection rates along the event families
    vertical: np.ndarray  # (B, 2) normal projections of the two sky directions
    regular: np.ndarray  # (B,) bool, the row's values are defined
    arrived: np.ndarray  # (B,) bool, every stencil and family ray arrived


@dataclass(frozen=True)
class FrameSpec:
    """A metric, a target surface and the tracer that projects onto it."""

    #: Default verifier tolerance: probe values are finite differences.
    PROBE_TOL = 1e-3

    metric: mf.MetricSpec
    target: CauchySurface | Singularity
    step: float = 1e-3  # read by nothing; kept, checked, while perfbench passes it
    tracer: str = "auto"  # auto (closed form on a chart of t alone) | numeric

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if self.target.kind == "cauchy" and not math.isfinite(self.target.t0):
            raise ValueError(f"target time must be finite, got {self.target.t0}")
        if self.target.kind == "singularity":
            if self.metric.kind != "flrw":
                raise ValueError("singularity target needs an flrw metric")
            # eta(0+) must be finite for the boundary to be reachable.
            mf.conformal_time(self.metric, 1.0)
        elif not self.metric.bounds[0, 0] <= self.target.t0 <= self.metric.bounds[0, 1]:
            lo, hi = self.metric.bounds[0]
            raise ValueError(f"target time {self.target.t0} is outside the chart's [{lo}, {hi}]")
        elif self.metric.kind == "flrw" and self.target.t0 <= 0.0:
            raise ValueError("cauchy slice of an flrw chart needs t0 > 0")
        if self.tracer not in ("auto", "numeric"):
            raise ValueError(f"unknown tracer {self.tracer!r}")

    @property
    def target_time(self) -> float:
        if self.target.kind == "singularity":
            return 0.0
        return self.target.t0

    def probe_values(self, x, xis, directions) -> ProbeValues:
        """Probe values at the sky points xis (B, 2) of the events x, one
        event (4,) shared by every row or one per row (B, 4).

        Values are taken at the unit representatives.  One tangent_planes
        batch gives each row's oriented normal, the normal rates along the
        event families x +- h d for the directions (k, 4), with the h of
        `tangent_planes`, and the normal projections of the sky-stencil Jacobian.
        """
        xis = np.atleast_2d(np.asarray(xis, dtype=complex))
        xs = np.broadcast_to(np.asarray(x, dtype=float), (len(xis), 4))
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        tp = tangent_planes(self, xs, xis, dirs, normals=True)
        n_hat = tp.normals[:, :, None]
        rates = (tp.family / (2 * tp.family_h)[:, None, None]) @ n_hat
        return ProbeValues(
            theta=theta_value(self, xs[:, None, :], xis[:, None, :], dirs),
            rates=rates[..., 0],
            vertical=(np.swapaxes(tp.jacobians, 1, 2) @ n_hat)[..., 0],
            regular=tp.family_ok & (tp.ranks == 2),
            arrived=tp.stencil_ok & tp.family_ok,
        )


@dataclass(frozen=True, init=False)
class SkyImage:
    """Sampled image of a sky in M, kept in full including singular samples."""

    event: np.ndarray
    target: CauchySurface | Singularity
    sample: SkySample
    m_points: np.ndarray  # (n, 3)
    ranks: np.ndarray  # (n,) int
    lams: np.ndarray  # (n,)
    reason: np.ndarray  # (n,) int8, each ray's code (`manifold`); `status` maps them

    def __init__(self, event, target, sample, m_points, ranks, lams, reason, status=None):
        # status strings in place of the codes (`dataclasses.replace(image,
        # status=...)`) give each sample the first code of its string
        if status is not None:
            reason = np.array([list(_STATUS).index(s) for s in status], dtype=np.int8)
        for f, value in zip(fields(self), (event, target, sample, m_points, ranks, lams, reason)):
            object.__setattr__(self, f.name, value)

    status = property(lambda self: tuple(_STATUS[self.reason]))  # (n,) str
    ok_mask = property(lambda self: self.reason == mf.ARRIVED)
    regular_mask = property(lambda self: (self.ranks == 2) & self.ok_mask)


@np.errstate(all="ignore")  # every non-finite value is named or masked below
def project_batch(f: FrameSpec, events, xis):
    """Project rays (an event and a sky point each) onto the target surface.

    events: one event (4,) shared by every ray, or (B, 4), one per ray;
    xis: (B, 2).  Returns (m_points (B, 3), lams (B,), ok (B,) bool, reason
    (B,) int8), ok = reason == ARRIVED, in the codes of `manifold`: below
    the target BELOW_TARGET (with lams 0 on both tracers), a traced ray the
    tracer's code, an end point outside the chart's spatial bounds
    LEFT_BOUNDS.  The closed form does its per-event work once per event
    row and broadcasts it over the rays, with the bits of the tiled rows.
    Raises ZeroSpinorError for a zero xi, OutOfDomainError when an event
    leaves the chart or an arrived ray has no finite end point or affine
    length, and DivergentIntegralError when the affine length to the
    target diverges.
    """
    events = np.asarray(events, dtype=float)
    xis = np.asarray(xis, dtype=complex)
    if events.shape[-1:] != (4,) or events.ndim > 2:
        raise ValueError("project_batch expects one event (4,) or (B, 4) events")
    if not np.all(f.metric.in_domain(events)):
        raise OutOfDomainError("an event lies outside the chart domain")
    b = len(xis)
    closed = f.tracer == "auto" and mf._t_only(f.metric)
    rows = events.reshape(-1, 4)  # (1, 4) when one event is shared
    if not closed and len(rows) != b:  # the tracer takes one row per ray
        rows = np.broadcast_to(rows, (b, 4))
    t, t_target = rows[:, 0], f.target_time
    below = t < t_target
    reason = _per_ray(np.where(below, np.int8(mf.BELOW_TARGET), np.int8(mf.ARRIVED)), b)
    dirs = spinor.direction_for_cospinor(xis)
    if closed:
        eta = mf.conformal_time(f.metric, t, t_target)
        m_points = rows[:, 1:] - eta[:, None] * dirs
        lams = np.where(below, 0.0, mf.affine_length(f.metric, t, t_target))
    else:
        m_points, lams = np.empty((b, 3)), np.zeros(b)
        if np.any(march := ~below):
            _, res = _trace(f, rows[march], dirs[march])
            singular = f.target.kind == "singularity"
            ends = _close_singularity_gap(f, res) if singular else (res.x[:, 1:], res.lam)
            m_points[march], lams[march] = ends
            reason[march] = res.reason
    lams = _per_ray(lams, b)
    ok = reason == mf.ARRIVED
    bad = ok & ~reduce(np.logical_and, map(np.isfinite, m_points.T), np.isfinite(lams))
    if np.any(bad):
        ray = _per_ray(rows, b)[bad][0]
        raise OutOfDomainError(f"the ray from {ray.tolist()} has no finite end point or length")
    # An arrived end point outside the spatial bounds left them: a straight
    # closed-form ray leaves the box exactly when its end point does.
    reason[ok & ~mf._inside(f.metric, m_points.T)] = mf.LEFT_BOUNDS
    ok = reason == mf.ARRIVED
    m_points[~ok] = np.nan
    return m_points, lams, ok, reason


def _per_ray(a, b):
    """The per-event array a (E, ...) over b rays: itself when E = b, else
    its one row repeated."""
    return a if len(a) == b else np.repeat(a, b, axis=0)


def _trace(f: FrameSpec, events, dirs):
    """Trace rays from the events (B, 4) along the future null directions
    dirs (B, 3) to the target level in one batch; returns v0 (B, 4) and the
    TraceResult.  Toward the singularity the level is SINGULARITY_CUTOFF,
    or the lowest event time where that is below it."""
    v0 = mf.future_null_directions(f.metric, events, dirs)
    stop_t = f.target_time
    if f.target.kind == "singularity":
        stop_t = min(SINGULARITY_CUTOFF, float(events[:, 0].min()))
    return v0, mf.trace_past_to_time(f.metric, events, v0, stop_t)


def _close_singularity_gap(f: FrameSpec, res: mf.TraceResult):
    """End points and affine lengths of rays traced to the cutoff time,
    continued to eta = 0.  The tetrad direction n of a ray is conserved in
    a spatially flat cosmology, so the remaining displacement is exactly
    the leftover conformal time times n; the affine length gains the
    closed-form tail, scaled from v0 = 1 to the ray's energy E."""
    t_cut = res.x[:, 0]
    pts = res.x[:, 1:] + mf.conformal_time(f.metric, t_cut)[:, None] * res.n
    return pts, res.lam + mf.affine_length(f.metric, t_cut, 0.0) * np.exp(-res.log_e)


def _sky_stencil(xi):
    """Four perturbed unit covectors (..., 4, 2) around the unit covectors
    xi (..., 2): a central pair for each of the two sky chart directions."""
    delta = np.stack([-np.conj(xi[..., 1]), np.conj(xi[..., 0])], axis=-1)
    h = SKY_FD_STEP
    raw = np.stack(
        [xi + h * delta, xi - h * delta, xi + 1j * h * delta, xi - 1j * h * delta],
        axis=-2,
    )
    sq = (raw.conj() * raw).real  # the squares np.linalg.norm sums
    raw /= np.sqrt(sq[..., 0] + sq[..., 1])[..., None]  # in place: no third copy
    return raw


_TIME_AXIS = np.array([1.0, 0.0, 0.0, 0.0])


@dataclass(frozen=True)
class TangentPlanes:
    """Projected points and image tangent planes of a batch of B rows."""

    m_points: np.ndarray  # (B, 3) base points, NaN where the base ray failed
    lams: np.ndarray  # (B,)
    reason: np.ndarray  # (B,) int8, the base ray's reason code (project_batch)
    stencil_ok: np.ndarray  # (B,) bool, all four sky-stencil rays arrived
    jacobians: np.ndarray  # (B, 3, 2), M-point against the sky parameters
    ranks: np.ndarray  # (B,) int, 0 unless the base and stencil rays arrived
    normals: np.ndarray | None  # (B, 3), NaN below rank 2
    family: np.ndarray  # (B, k, 3), p(x + h d) - p(x - h d) per direction d
    family_ok: np.ndarray  # (B,) bool, every family ray arrived
    family_h: np.ndarray  # (B,)


@np.errstate(all="ignore")  # failed rays are masked, and their ranks read 0
def tangent_planes(f: FrameSpec, events, xis, directions=None, normals=False):
    """Project B (event, sky point) rows together with their tangent planes.

    events: one event (4,) shared by every row, or (B, 4); xis: (B, 2).
    One project_batch call traces each row's base ray (xi as given), four
    sky-stencil rays and, for every event family direction d in directions
    (k, 4), the pair x +- h d; stencil and family rays use the unit
    representative of xi.  Without family directions a shared event goes
    to project_batch once, for all 5B rays.  h is per row EVENT_FD_STEP *
    max(1, |x|), or EVENT_FD_STEP * s where those families would leave the
    chart, s the step at which the first of them meets a bound.  The rank
    counts singular values of the central-difference Jacobian above
    RANK_TOL * max(1, sigma_max), in closed form from its columns c1, c2.
    With normals, rank-2 rows get the unit normal c1 x c2 / |c1 x c2| of the
    image surface, oriented so that moving the event to the future along the
    time axis (traced unless it is among the directions) is positive.
    """
    events = np.asarray(events, dtype=float)
    unit = skymod.unit_cospinor(xis)
    b = len(unit)
    rows = np.broadcast_to(events, (b, 4))
    dirs = np.atleast_2d(np.zeros((0, 4)) if directions is None else directions)
    k = dirs.shape[0]
    if normals and not np.any(np.all(dirs == _TIME_AXIS, axis=1)):
        dirs = np.vstack([dirs, _TIME_AXIS])
    h = EVENT_FD_STEP * np.maximum(1.0, reduce(np.maximum, np.abs(rows).T))
    stencil_xis = _sky_stencil(unit).reshape(-1, 2)
    if events.ndim == 1 and not len(dirs):
        ray_events = events
    else:  # the families x +- h d (B, k, 2, 4), at EVENT_FD_STEP s where they would leave
        pm = np.array([[1.0], [-1.0]]) * np.asarray(dirs, dtype=float)[:, None]  # (k, 2, 4)
        fam_events = rows[:, None, None] + h[:, None, None, None] * pm
        if not np.all(inside := f.metric.in_domain(fam_events).all(axis=(1, 2))):
            room = np.minimum(rows - f.metric.bounds[:, 0], f.metric.bounds[:, 1] - rows)
            s = np.min(room[:, None, None] / np.abs(pm), (1, 2, 3), initial=np.inf)  # d = 0: inf
            h = np.where(inside, h, EVENT_FD_STEP * s)
            fam_events = rows[:, None, None] + h[:, None, None, None] * pm
        ray_events = np.concatenate([rows, np.repeat(rows, 4, 0), fam_events.reshape(-1, 4)])
    pts, lams, ok, reason = project_batch(
        f, ray_events, np.concatenate([xis, stencil_xis, np.repeat(unit, 2 * len(dirs), 0)])
    )
    stencil = pts[b : 5 * b].reshape(b, 4, 3)
    fam_pts = pts[5 * b :].reshape(b, len(dirs), 2, 3)
    family = fam_pts[:, :, 0] - fam_pts[:, :, 1]
    stencil_ok = reduce(np.logical_and, ok[b : 5 * b].reshape(b, 4).T)
    every = np.ones(b, dtype=bool)  # the chain's identity, for no directions
    family_ok = reduce(np.logical_and, ok[5 * b :].reshape(b, 2 * len(dirs)).T, every)

    diffs = [stencil[:, 0] - stencil[:, 1], stencil[:, 2] - stencil[:, 3]]
    jac = np.stack(diffs, axis=-1) / (2 * SKY_FD_STEP)
    # Singular values s1 >= s2 of each Jacobian from its columns c1, c2, in
    # units of its largest entry so that no square overflows:
    # s1 s2 = |c1 x c2| and s1^2 - s2^2 = hypot(|c1|^2 - |c2|^2, 2 c1.c2).
    scale = reduce(np.maximum, np.abs(jac).reshape(b, 6).T)
    scale = np.where(scale > 0.0, scale, 1.0)
    c1, c2 = np.moveaxis(jac / scale[:, None, None], 2, 0)
    cross = np.cross(c1, c2)
    area = np.sqrt(reduce(np.add, (cross * cross).T))
    sq1, sq2 = np.einsum("rk,rk->r", c1, c1), np.einsum("rk,rk->r", c2, c2)
    gap = np.hypot(sq1 - sq2, 2.0 * np.einsum("rk,rk->r", c1, c2))
    s1 = np.sqrt((sq1 + sq2 + gap) / 2.0)
    s2 = area / np.where(s1 > 0.0, s1, 1.0)
    thresh = RANK_TOL * np.maximum(1.0 / scale, s1)  # RANK_TOL * max(1, sigma1)
    ranks = np.where(ok[:b] & stencil_ok, (s1 > thresh).astype(int) + (s2 > thresh), 0)
    n_hat = None
    if normals:
        n_hat = cross / np.where(ranks == 2, area, np.nan)[:, None]
        orient = np.flatnonzero(np.all(dirs == _TIME_AXIS, axis=1))[0]
        flip = np.einsum("rk,rk->r", n_hat, family[:, orient]) < 0.0
        n_hat[flip] = -n_hat[flip]
    return TangentPlanes(
        m_points=pts[:b],
        lams=lams[:b],
        reason=reason[:b],
        stencil_ok=stencil_ok,
        jacobians=jac,
        ranks=ranks,
        normals=n_hat,
        family=family[:, :k],
        family_ok=family_ok,
        family_h=h,
    )


def sky_image(f: FrameSpec, x, sample: SkySample, with_rank=True) -> SkyImage:
    """Project every sample of the sky of x, keeping singular samples flagged.

    The event x goes to project_batch once, shared by every ray; with ranks
    the base and stencil rays go out as one batch of 5n rays."""
    x = np.asarray(x, dtype=float)
    if with_rank:
        tp = tangent_planes(f, x, sample.xi)
        pts, lams, reason, ranks = tp.m_points, tp.lams, tp.reason, tp.ranks
    else:
        pts, lams, _, reason = project_batch(f, x, sample.xi)
        ranks = np.zeros(sample.n, dtype=int)
    if not np.any(reason == mf.ARRIVED):
        raise NoIntersectionError("every sky sample failed to reach the target")
    return SkyImage(x, f.target, sample, pts, ranks, lams, reason)


def theta_value(f: FrameSpec, x, xi, direction):
    """Contact-form value on a horizontal probe, at the unit representative.

    Evaluates the (1,1)-homogeneous field of the probe's orthonormal-frame
    components at the sky point.  Broadcasts over the leading axes of x
    (..., 4), xi (..., 2) and direction (..., 4); a single row gives a float.
    """
    x = np.asarray(x, dtype=float)
    w_tet = f.metric.tetrad_diag(x) * np.asarray(direction, dtype=float)
    d = spinor.direction_for_cospinor(xi)
    # A (1, 3) @ (3, 1) product per row sums like the vector dot product.
    dot = (d[..., None, :] @ w_tet[..., 1:, None])[..., 0, 0]
    return PAULI_FACTOR * (w_tet[..., 0] - dot)
