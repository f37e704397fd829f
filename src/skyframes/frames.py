"""Conformal reference frames built by projecting skies along null geodesics.

The target 3-manifold M is a constant-time slice of the chart or, for
expanding cosmologies, the initial conformal boundary at cosmic time zero
(comoving coordinates).  Each sky point of an event is carried to M by
the past-directed null geodesic it represents; regularity of the image is
the numerical rank of the map's Jacobian in the two sky parameters.

One kernel, `tangent_planes`, traces a batch of rows with their sky
stencils and event-family pairs in a single `project_batch` call, and
ranks the Jacobians with one batched SVD; it also gives the oriented
normals and the event-family differences.  Sky images and the verifier's
probe values (`FrameSpec.probe_values`) are built on it; a caller with one
row passes a batch of one and reads row 0.

Two tracers are available: a conformal-chart closed form (flat space and
spatially flat cosmologies project onto straight comoving lines) and the
numeric `manifold.trace_past_to_time`, which marches a batch in t (ln t
toward the singularity) on one grid and lands on the target level.  Toward
the singularity it stops at a small cutoff time and closes the rest along
the ray's conserved direction in conformal time, far below the image
tolerances.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
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

#: Central-difference steps: the sky stencil, and event families per max(1, |x|).
SKY_FD_STEP, EVENT_FD_STEP = 1e-5, 1e-4


@dataclass(frozen=True)
class CauchySurface:
    t0: float
    kind: str = field(default="cauchy", init=False)

    def to_json_dict(self):
        return {"kind": "cauchy", "t0": self.t0}


@dataclass(frozen=True)
class Singularity:
    kind: str = field(default="singularity", init=False)

    def to_json_dict(self):
        return {"kind": "singularity"}


class ProbeValues(NamedTuple):
    """What a frame answers for B sky points of one event and k directions."""

    theta: np.ndarray  # (B, k) contact-form values on the horizontal probes
    rates: np.ndarray  # (B, k) normal-projection rates along the event families
    vertical: np.ndarray  # (B, 2) normal projections of the two sky directions
    regular: np.ndarray  # (B,) bool, the row's values are defined
    arrived: np.ndarray  # (B,) bool, every stencil and family ray arrived


@dataclass(frozen=True)
class FrameSpec:
    """A metric, a target surface and the projection/differencing settings."""

    #: Default verifier tolerance: probe values are finite differences.
    PROBE_TOL = 1e-3

    metric: mf.MetricSpec
    target: CauchySurface | Singularity
    step: float = 1e-3  # read by nothing; kept, checked, while perfbench passes it
    tracer: str = "auto"  # auto | closed_form | numeric
    rank_tol: float = 1e-7
    tetrad_rotation: np.ndarray | None = None

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
        elif self.metric.kind == "flrw" and self.target.t0 <= 0.0:
            raise ValueError("cauchy slice of an flrw chart needs t0 > 0")
        if self.tracer not in ("auto", "closed_form", "numeric"):
            raise ValueError(f"unknown tracer {self.tracer!r}")
        if self.tracer == "closed_form" and self.metric.kind == "custom":
            raise ValueError("closed-form tracing needs a conformally flat chart")

    def resolved_tracer(self) -> str:
        if self.tracer != "auto":
            return self.tracer
        return "numeric" if self.metric.kind == "custom" else "closed_form"

    @property
    def target_time(self) -> float:
        if self.target.kind == "singularity":
            return 0.0
        return self.target.t0

    def probe_values(self, x, xis, directions, h=None) -> ProbeValues:
        """Probe values at the sky points xis (B, 2) of the event x (4,).

        Values are taken at the unit representatives.  One tangent_planes
        batch gives each row's oriented normal, the normal rates along the
        event families x +- h d for the directions (k, 4), and the normal
        projections of the sky-stencil Jacobian.
        """
        x = np.asarray(x, dtype=float)
        xis = np.atleast_2d(np.asarray(xis, dtype=complex))
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        tp = tangent_planes(
            self, np.tile(x, (len(xis), 1)), xis, dirs, h=h, normals=True
        )
        n_hat = tp.normals[:, :, None]
        rates = (tp.family / (2 * tp.family_h)[:, None, None]) @ n_hat
        return ProbeValues(
            theta=theta_value(self, x, xis[:, None, :], dirs),
            rates=rates[..., 0],
            vertical=(np.swapaxes(tp.jacobians, 1, 2) @ n_hat)[..., 0],
            regular=tp.family_ok & (tp.ranks == 2),
            arrived=tp.stencil_ok & tp.family_ok,
        )


@dataclass(frozen=True)
class SkyImage:
    """Sampled image of a sky in M, kept in full including singular samples."""

    event: np.ndarray
    target: CauchySurface | Singularity
    sample: SkySample
    m_points: np.ndarray  # (n, 3)
    ranks: np.ndarray  # (n,) int
    lams: np.ndarray  # (n,)
    status: tuple  # (n,) of str

    @property
    def regular_mask(self):
        return (self.ranks == 2) & (np.array(self.status) == "ok")

    @property
    def ok_mask(self):
        return np.array(self.status) == "ok"

    def to_json_dict(self):
        return {
            "event": [float(c) for c in self.event],
            "target": self.target.to_json_dict(),
            "samples": [
                {
                    "xi": [z.real, z.imag, w.real, w.imag],
                    "m_point": [float(c) for c in m],
                    "rank": int(r),
                    "lambda": float(l),
                    "status": s,
                }
                for (z, w), m, r, l, s in zip(
                    self.sample.xi, self.m_points, self.ranks, self.lams, self.status
                )
            ],
        }

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m1", "m2", "m3"])
            for m, s in zip(self.m_points, self.status):
                if s == "ok":
                    writer.writerow([repr(float(c)) for c in m])


def sky_directions(f: FrameSpec, xis):
    """Unit spatial tetrad directions (..., 3) of the sky points xis (..., 2)."""
    d = spinor.direction_for_cospinor(np.asarray(xis, dtype=complex))
    if f.tetrad_rotation is not None:
        d = d @ np.asarray(f.tetrad_rotation, float).T
    return d


def _lam_closed_form(f: FrameSpec, times, t_target):
    """Affine length of the past ray from t down to t_target, v0(start) = 1."""
    m = f.metric
    times = np.asarray(times, float)
    if m.kind == "minkowski":
        return times - t_target
    if m.exponent is not None:
        p = m.exponent
        if p <= -1.0 and t_target == 0.0:  # the integral of a from 0 diverges
            return np.full_like(times, np.inf)
        if p == -1.0:  # a = 1/t integrates to a logarithm
            return times * np.log(times / t_target)
        num = times ** (1.0 + p) - t_target ** (1.0 + p)
        return num / ((1.0 + p) * m.scale_factor(times))
    from scipy.integrate import quad

    vals = []
    for t in np.atleast_1d(times):
        integral, _ = quad(lambda s: float(m.scale_factor(s)), t_target, float(t))
        vals.append(integral / float(m.scale_factor(t)))
    return np.asarray(vals)


def project_batch(f: FrameSpec, events, xis):
    """Project rays (one event + sky point each) onto the target surface.

    events: (B, 4), xis: (B, 2).  Returns (m_points (B, 3), lams (B,),
    ok (B,) bool, lost (B,) bool); lost marks rays left unsettled by the
    tracer's grid.  Raises OutOfDomainError when an event leaves the chart
    or an arrived ray has no finite end point or affine length; rays whose
    event lies below the target come back not ok.
    """
    events = np.asarray(events, dtype=float)
    xis = np.asarray(xis, dtype=complex)
    if events.ndim != 2:
        raise ValueError("project_batch expects (B, 4) events")
    if not np.all(f.metric.in_domain(events)):
        raise OutOfDomainError("an event lies outside the chart domain")
    t = events[:, 0]
    t_target = f.target_time
    t_tol = 1e-12 * max(1.0, float(np.abs(t).max()))
    on_surface = np.abs(t - t_target) <= t_tol
    below = t < t_target - t_tol

    ok, lost = ~below, np.zeros(len(events), dtype=bool)
    if f.resolved_tracer() == "closed_form":
        # numpy's warnings off, as a non-finite ray raises below; an error
        # state set to raise (the CLI's) still raises first
        quiet = {k: "ignore" if v == "warn" else v for k, v in np.geterr().items()}
        with np.errstate(**quiet):
            eta = mf.conformal_time(f.metric, t)
            # An array, so the target level takes the same arithmetic as eta
            # (numpy and scalar powers can differ in the last bit).
            eta_target = 0.0 if f.target.kind == "singularity" else float(
                mf.conformal_time(f.metric, np.array([f.target.t0]))[0]
            )
            m_points = events[:, 1:] - (eta - eta_target)[:, None] * sky_directions(f, xis)
            lams = _lam_closed_form(f, t, t_target)
    else:
        m_points, lams = np.empty((len(events), 3)), np.zeros(len(events))
        march = ok & ~on_surface
        if np.any(march):
            dirs = sky_directions(f, xis[march])
            v0 = mf.future_null_directions(f.metric, events[march], dirs)
            singular = f.target.kind == "singularity"
            stop_t = SINGULARITY_CUTOFF if singular else t_target
            res = mf.trace_past_to_time(f.metric, events[march], v0, stop_t)
            ends = _close_singularity_gap(f, res) if singular else (res.x[:, 1:], res.lam)
            m_points[march], lams[march] = ends
            ok[march], lost[march] = res.ok, res.lost
    m_points[on_surface] = events[on_surface, 1:]
    lams[on_surface] = 0.0
    bad = ok & ~(np.isfinite(lams) & np.all(np.isfinite(m_points), axis=1))
    if np.any(bad):
        raise OutOfDomainError(
            f"the ray from {events[bad][0].tolist()} has no finite end point or length"
        )
    m_points[~ok] = np.nan
    return m_points, lams, ok, lost


def _close_singularity_gap(f: FrameSpec, res: mf.TraceResult):
    """End points and affine lengths of rays traced to the cutoff time,
    continued to eta = 0.  The tetrad direction n of a ray is conserved in
    a spatially flat cosmology, so the remaining displacement is exactly
    the leftover conformal time times n."""
    m, t_cut, lam = f.metric, res.x[:, 0], res.lam
    pts = res.x[:, 1:] + mf.conformal_time(m, t_cut)[:, None] * res.n
    if m.exponent is not None:
        p = m.exponent
        if p <= -1.0:  # the integral of a down to t = 0 diverges
            return pts, np.full_like(lam, np.inf)
        cmag = m.scale_factor(t_cut) * np.exp(res.log_e)
        lam = lam + t_cut ** (1.0 + p) / ((1.0 + p) * np.maximum(cmag, 1e-300))
    return pts, lam


def _sky_stencil(xi):
    """Four perturbed unit covectors (..., 4, 2) around the unit covectors
    xi (..., 2): a central pair for each of the two sky chart directions."""
    delta = np.stack([-np.conj(xi[..., 1]), np.conj(xi[..., 0])], axis=-1)
    h = SKY_FD_STEP
    raw = np.stack(
        [xi + h * delta, xi - h * delta, xi + 1j * h * delta, xi - 1j * h * delta],
        axis=-2,
    )
    return raw / np.linalg.norm(raw, axis=-1, keepdims=True)


_TIME_AXIS = np.array([1.0, 0.0, 0.0, 0.0])


@dataclass(frozen=True)
class TangentPlanes:
    """Projected points and image tangent planes of a batch of B rows."""

    m_points: np.ndarray  # (B, 3) base points, NaN where the base ray failed
    lams: np.ndarray  # (B,)
    ok: np.ndarray  # (B,) bool, the base ray reached the target
    lost: np.ndarray  # (B,) bool, the base ray was unsettled at the tracer's grid cap
    stencil_ok: np.ndarray  # (B,) bool, all four sky-stencil rays arrived
    jacobians: np.ndarray  # (B, 3, 2), M-point against the sky parameters
    ranks: np.ndarray  # (B,) int, 0 unless the base and stencil rays arrived
    normals: np.ndarray | None  # (B, 3), NaN below rank 2
    family: np.ndarray  # (B, k, 3), p(x + h d) - p(x - h d) per direction d
    family_ok: np.ndarray  # (B,) bool, every family ray arrived
    family_h: np.ndarray  # (B,)


def tangent_planes(f: FrameSpec, events, xis, directions=None, h=None, normals=False):
    """Project B (event, sky point) rows together with their tangent planes.

    events: (B, 4), xis: (B, 2).  One project_batch call traces each row's
    base ray (xi as given), four sky-stencil rays and, for every event
    family direction d in directions (k, 4), the pair x +- h d; stencil
    and family rays use the unit representative of xi.  h defaults per
    row to EVENT_FD_STEP * max(1, |x|).  The rank counts singular values
    of the central-difference Jacobian above rank_tol * max(1, sigma_max).
    With normals, rank-2 rows get the unit normal of the image surface,
    oriented so that moving the event to the future along the time axis
    (traced for this unless it is among the directions) is positive.
    """
    events = np.asarray(events, dtype=float)
    b = events.shape[0]
    unit = skymod.unit_cospinor(xis)
    dirs = np.atleast_2d(np.zeros((0, 4)) if directions is None else directions)
    k = dirs.shape[0]
    if normals and not np.any(np.all(dirs == _TIME_AXIS, axis=1)):
        dirs = np.vstack([dirs, _TIME_AXIS])
    if h is None:
        h = EVENT_FD_STEP * np.maximum(1.0, np.abs(events).max(axis=1))
    h = np.broadcast_to(np.asarray(h, dtype=float), (b,))
    shift = h[:, None, None] * np.asarray(dirs, dtype=float)[None]
    fam_events = np.stack([events[:, None] + shift, events[:, None] - shift], axis=2)
    stencil_xis = _sky_stencil(unit).reshape(-1, 2)
    pts, lams, ok, lost = project_batch(
        f,
        np.concatenate([events, np.repeat(events, 4, 0), fam_events.reshape(-1, 4)]),
        np.concatenate([xis, stencil_xis, np.repeat(unit, 2 * len(dirs), 0)]),
    )
    stencil = pts[b : 5 * b].reshape(b, 4, 3)
    fam_pts = pts[5 * b :].reshape(b, len(dirs), 2, 3)
    family = fam_pts[:, :, 0] - fam_pts[:, :, 1]
    stencil_ok = ok[b : 5 * b].reshape(b, 4).all(axis=1)
    family_ok = ok[5 * b :].reshape(b, 2 * len(dirs)).all(axis=1)

    diffs = [stencil[:, 0] - stencil[:, 1], stencil[:, 2] - stencil[:, 3]]
    jac = np.stack(diffs, axis=-1) / (2 * SKY_FD_STEP)
    ranks = np.zeros(b, dtype=int)
    good = ok[:b] & stencil_ok
    if np.any(good):
        sv = np.linalg.svd(jac[good], compute_uv=False)
        thresh = f.rank_tol * np.maximum(1.0, sv.max(axis=-1))
        ranks[good] = np.sum(sv > thresh[:, None], axis=-1)
    n_hat = None
    if normals:
        n_hat = np.full((b, 3), np.nan)
        reg = ranks == 2
        if np.any(reg):
            u = np.linalg.svd(jac[reg])[0][..., 2]
            orient = np.flatnonzero(np.all(dirs == _TIME_AXIS, axis=1))[0]
            flip = np.einsum("rk,rk->r", u, family[reg, orient]) < 0.0
            u[flip] = -u[flip]
            n_hat[reg] = u
    return TangentPlanes(
        m_points=pts[:b],
        lams=lams[:b],
        ok=ok[:b],
        lost=lost[:b],
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

    With ranks the base and stencil rays go out as one batch of 5n rays."""
    x = np.asarray(x, dtype=float)
    events = np.tile(x, (sample.n, 1))
    if with_rank:
        tp = tangent_planes(f, events, sample.xi)
        pts, lams, ok, lost, ranks = tp.m_points, tp.lams, tp.ok, tp.lost, tp.ranks
    else:
        pts, lams, ok, lost = project_batch(f, events, sample.xi)
        ranks = np.zeros(sample.n, dtype=int)
    status = tuple(
        "ok" if good else ("integrator_failure" if bad else "no_intersection")
        for good, bad in zip(ok, lost)
    )
    if not np.any(ok):
        raise NoIntersectionError("every sky sample failed to reach the target")
    return SkyImage(
        event=x,
        target=f.target,
        sample=sample,
        m_points=pts,
        ranks=ranks,
        lams=lams,
        status=status,
    )


def theta_value(f: FrameSpec, x, xi, direction):
    """Contact-form value on a horizontal probe, at the unit representative.

    Evaluates the (1,1)-homogeneous field of the probe's orthonormal-frame
    components at the sky point, honouring the frame's tetrad rotation.
    Broadcasts over the leading axes of x (..., 4), xi (..., 2) and
    direction (..., 4); a single row gives a float.
    """
    x = np.asarray(x, dtype=float)
    w_tet = f.metric.tetrad_diag(x) * np.asarray(direction, dtype=float)
    d = sky_directions(f, skymod.unit_cospinor(xi))
    # A (1, 3) @ (3, 1) product per row sums like the vector dot product.
    dot = (d[..., None, :] @ w_tet[..., 1:, None])[..., 0, 0]
    val = PAULI_FACTOR * (w_tet[..., 0] - dot)
    return float(val) if np.ndim(val) == 0 else val
