"""Numerical checks of the frame identities.

Four check families: annihilation of the contact form on the geodesic
flow and on vertical directions; proportionality (with positive ratio) of
the contact form and the normal projection on probe bases of the
6-dimensional tangent of the skies bundle; direction-independence of the
ratio between image derivatives and the transform of the direction (the
flow-of-time identity); and agreement of the twistor contraction composed
with incidence against the transform of the event.

Probes are seeded and reports are deterministic given the frame and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import frames as fr
from . import manifold as mf
from . import twistor as tw
from .minkowski import GraphFrame
from .sky import SkySample, celestial_eval, sample_sky, unit_cospinor

#: Probe values of the transform below this (relative) size are treated as
#: lying in the kernel and skipped when forming ratios.
KERNEL_SKIP_TOL = 1e-8


@dataclass(frozen=True)
class VerificationReport:
    name: str
    residuals: np.ndarray
    tolerance: float
    probe_count: int
    extras: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if len(self.residuals) else 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_json_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "probe_count": self.probe_count,
            "residuals": [float(r) for r in np.asarray(self.residuals).ravel()],
            "extras": {
                k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in self.extras.items()
            },
        }


def _default_lam_end(f: fr.FrameSpec, x):
    """A past affine span staying safely inside the chart domain."""
    t = float(np.asarray(x, float)[0])
    if f.metric.kind == "flrw":
        lam_to_zero = float(fr._lam_closed_form(f, np.array([t]), 0.0)[0])
        return -0.6 * lam_to_zero
    return -1.0


def check_contact_annihilation(
    f: fr.FrameSpec, x, xi, lam_end=None, step=None
) -> VerificationReport:
    """Contact form on the flow direction, pointwise and along a trajectory.

    The sky point is held fixed along the ray (its tetrad direction is
    conserved in the supported metrics), so the trajectory residuals
    measure real integrator drift rather than re-derived zeros.
    """
    x = np.asarray(x, dtype=float)
    xi = unit_cospinor(xi)
    step = f.step if step is None else step
    lam_end = _default_lam_end(f, x) if lam_end is None else lam_end

    v0 = fr._tetrad_null_vectors(f, x[None, :], xi[None, :])[0]
    residuals = [abs(fr.theta_value(f, x, xi, v0))]
    vertical = 0.0  # the form factors through the horizontal projection
    residuals.append(vertical)

    state = mf.NullGeodesicState(x=x, v=v0)
    traj = mf.integrate_null_geodesic(f.metric, state, lam_end, step)
    drift = []
    for st in traj.states:
        residuals.append(abs(fr.theta_value(f, st.x, xi, st.v / st.v[0])))
        drift.append(abs(float(f.metric.norm(st.x, st.v))))
    return VerificationReport(
        name="contact_annihilation",
        residuals=np.asarray(residuals),
        tolerance=1e-8,
        probe_count=len(residuals),
        extras={"max_null_drift": max(drift), "states": len(traj)},
    )


_COORD_DIRS = np.eye(4)


def _geodesic_probe_values(f: fr.FrameSpec, x, xi, event_h):
    """theta and normal-projection values on the standard 6-probe basis.

    One kernel row: the sky stencil gives the tangent plane and its
    oriented normal, the coordinate-direction families the horizontal
    probes.
    """
    x = np.asarray(x, dtype=float)
    xi = unit_cospinor(xi)
    tp = fr.tangent_planes(
        f, x[None, :], xi[None, :], directions=_COORD_DIRS, h=event_h, normals=True
    )
    if not (tp.stencil_ok[0] and tp.family_ok[0]):
        raise fr.NoIntersectionError("a probe ray misses the target surface")
    if tp.ranks[0] < 2:
        raise fr.DegenerateTangentPlaneError("probe point is not regular")
    # Co-oriented normal: the future time axis has positive transform.
    n_hat = tp.normals[0]
    p_horiz = (tp.family[0] / (2 * tp.family_h[0])) @ n_hat
    theta_horiz = np.array([fr.theta_value(f, x, xi, d) for d in _COORD_DIRS])
    p_vert = tp.jacobians[0].T @ n_hat
    return theta_horiz, p_horiz, p_vert


def _graph_probe_values(frame: GraphFrame, x, xi, event_h):
    x = np.asarray(x, dtype=float)
    xi = unit_cospinor(xi)
    h_ev = event_h if event_h is not None else 1e-4 * max(1.0, float(np.abs(x).max()))
    theta_horiz = np.array([frame.theta(x, xi, d) for d in _COORD_DIRS])
    p_horiz = np.array(
        [
            (celestial_eval(x + h_ev * d, xi) - celestial_eval(x - h_ev * d, xi))
            / (2 * h_ev)
            for d in _COORD_DIRS
        ]
    )
    p_vert = np.zeros(2)
    return theta_horiz, p_horiz, p_vert


def check_kernel_proportionality(
    frame, x, xi, tol=None, event_h=None
) -> VerificationReport:
    """The two functionals on the 6-probe basis are positive multiples.

    Checks: the 2 x 6 value matrix has numerical rank one, all ratios over
    probes outside the kernel agree (the spread about the median is the
    reported residual), every such ratio is positive, and both functionals
    vanish on vertical probes.
    """
    if isinstance(frame, GraphFrame):
        theta_h, p_h, p_vert = _graph_probe_values(frame, x, xi, event_h)
        tol = 1e-9 if tol is None else tol
    else:
        f = frame.spec if isinstance(frame, fr.GeodesicFrame) else frame
        theta_h, p_h, p_vert = _geodesic_probe_values(f, x, xi, event_h)
        tol = 1e-3 if tol is None else tol

    scale_t = max(float(np.abs(theta_h).max()), 1e-300)
    scale_p = max(float(np.abs(p_h).max()), 1e-300)
    keep = np.abs(theta_h) > KERNEL_SKIP_TOL * scale_t
    ratios = p_h[keep] / theta_h[keep]
    med = float(np.median(ratios))
    spread = float(np.abs(ratios - med).max() / abs(med))

    mat = np.stack([theta_h / scale_t, p_h / scale_p])
    sv = np.linalg.svd(mat, compute_uv=False)
    rank_one_defect = float(sv[1] / sv[0])

    vert_resid = float(np.abs(p_vert).max() / max(scale_p, 1e-300))
    positive = bool(np.all(ratios > 0.0))
    residuals = np.array([spread, rank_one_defect, vert_resid, 0.0 if positive else 1.0])
    return VerificationReport(
        name="kernel_proportionality",
        residuals=residuals,
        tolerance=tol,
        probe_count=6,
        extras={"ratios": ratios, "empirical_factor": med},
    )


def check_flow_of_time(
    frame, x, directions, sample: SkySample, tol=None, event_h=None
) -> VerificationReport:
    """Ratio of image derivative to the transform of the direction.

    At each regular sky sample the ratio is formed for every direction
    whose transform is outside the kernel band; the residual is the spread
    over directions at fixed sky point, relative to the per-point mean.
    The per-point mean profile is reported as the empirical frame factor.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    x = np.asarray(x, dtype=float)
    if isinstance(frame, GraphFrame):
        tol = 1e-9 if tol is None else tol
        r = _graph_flow_ratios(frame, x, directions, sample, event_h)
    else:
        f = frame.spec if isinstance(frame, fr.GeodesicFrame) else frame
        tol = 1e-3 if tol is None else tol
        r = _geodesic_flow_ratios(f, x, directions, sample, event_h)

    residuals = []
    profile = []
    for ratios in r:
        if len(ratios) == 0:
            profile.append(np.nan)
            continue
        mean = float(np.mean(ratios))
        profile.append(mean)
        residuals.append(float(np.abs(ratios - mean).max() / abs(mean)))
    if not residuals:
        raise fr.DegenerateTangentPlaneError("no regular samples to probe")
    return VerificationReport(
        name="flow_of_time",
        residuals=np.asarray(residuals),
        tolerance=tol,
        probe_count=sample.n * directions.shape[0],
        extras={"empirical_factor_profile": np.asarray(profile)},
    )


def _graph_flow_ratios(frame, x, directions, sample, event_h):
    h_ev = event_h if event_h is not None else 1e-4 * max(1.0, float(np.abs(x).max()))
    out = []
    for xi in sample.xi:
        theta = celestial_eval(directions, np.tile(xi, (len(directions), 1)))
        keep = np.abs(theta) > KERNEL_SKIP_TOL * max(float(np.abs(theta).max()), 1e-300)
        num = np.array(
            [
                (celestial_eval(x + h_ev * d, xi) - celestial_eval(x - h_ev * d, xi))
                / (2 * h_ev)
                for d in directions
            ]
        )
        out.append(num[keep] / theta[keep])
    return out


def _geodesic_flow_ratios(f, x, directions, sample, event_h):
    """One kernel batch over the sky points, a family pair per direction."""
    tp = fr.tangent_planes(
        f, np.tile(x, (sample.n, 1)), sample.xi, directions, h=event_h, normals=True
    )
    out = []
    for k, xi in enumerate(sample.xi):
        if not tp.family_ok[k] or tp.ranks[k] < 2:
            out.append(np.array([]))
            continue
        n_hat = tp.normals[k]
        nums = np.array([float(n_hat @ d) for d in tp.family[k]]) / (2 * tp.family_h[k])
        thetas = np.array([fr.theta_value(f, x, xi, d) for d in directions])
        keep = np.abs(thetas) > KERNEL_SKIP_TOL * max(
            float(np.abs(thetas).max()), 1e-300
        )
        out.append(nums[keep] / thetas[keep])
    return out


def check_contraction_identity(x, pis, tol=1e-12) -> VerificationReport:
    """Contraction after incidence equals the transform of the event.

    x is one event (4,) shared by every pi, or one event per pi (n, 4).
    """
    pis = np.atleast_2d(np.asarray(pis, dtype=complex))
    xs = np.broadcast_to(np.asarray(x, dtype=float), (len(pis), 4))
    residuals = np.array(
        [tw.contraction_matches_transform(xk, pi) for xk, pi in zip(xs, pis)]
    )
    return VerificationReport(
        name="contraction_identity",
        residuals=residuals,
        tolerance=tol,
        probe_count=len(pis),
    )


# ---------------------------------------------------------------------------
# Seeded suites (shared by the CLI and the acceptance tests).


def _random_events(rng, n, box=2.0, metric=None, t_floor=None):
    x = rng.uniform(-box, box, size=(n, 4))
    if metric is not None and metric.kind == "flrw":
        t_floor = max(0.0, t_floor if t_floor is not None else 0.0)
    if t_floor is not None:
        x[:, 0] = rng.uniform(t_floor + 0.3, t_floor + 1.5, size=n)
    return x


def _event_floor(frame):
    """Lowest usable event time for a frame, None when unrestricted."""
    if isinstance(frame, GraphFrame):
        return None
    return frame.spec.target_time


def suite_twistor(seed, n=1000):
    rng = np.random.default_rng(seed)
    xs = _random_events(rng, n)
    pis = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    rep_tau = check_contraction_identity(xs, pis)

    # Null characterisation: incidence twistors have real contraction,
    # decisively non-null twistors do not.
    im_null = []
    misclassified = []
    for x, pi in zip(xs, pis):
        z = tw.incidence(x, pi)
        tau = tw.contraction(z)
        scale = max(abs(tau.value), float(np.linalg.norm(pi)) ** 2, 1e-300)
        im_null.append(abs(tau.value.imag) / scale)
    omegas = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    for om, pi in zip(omegas, pis):
        z = tw.Twistor(omega=om, pi=pi)
        if abs(tw.null_constraint(z)) < 1e-3:
            continue
        misclassified.append(1.0 if tw.contraction(z).is_real() else 0.0)
    rep_null = VerificationReport(
        name="null_characterization",
        residuals=np.concatenate([np.asarray(im_null), np.asarray(misclassified)]),
        tolerance=1e-12,
        probe_count=len(im_null) + len(misclassified),
    )
    return [rep_tau, rep_null]


def _frame_for(metric_kind, frame_kind, p=2 / 3, t0=0.0, tracer="auto"):
    if frame_kind == "graph":
        return GraphFrame()
    if metric_kind == "flrw":
        metric = mf.MetricSpec.flrw(p=p)
        target = fr.Singularity()
    else:
        metric = mf.MetricSpec.minkowski()
        target = fr.CauchySurface(t0)
    return fr.GeodesicFrame(fr.FrameSpec(metric=metric, target=target, tracer=tracer))


def suite_contact(seed, n=20, metric=None, step=1e-3):
    metric = mf.MetricSpec.flrw(p=2 / 3) if metric is None else metric
    rng = np.random.default_rng(seed)
    f = fr.FrameSpec(
        metric=metric,
        target=fr.Singularity() if metric.kind == "flrw" else fr.CauchySurface(0.0),
        step=step,
    )
    xs = _random_events(rng, n, metric=metric)
    xis = sample_sky(max(n, 4), scheme="random", seed=seed).xi[:n]
    return [check_contact_annihilation(f, x, xi) for x, xi in zip(xs, xis)]


def suite_kernel(seed, n=25, frame=None, tol=None):
    frame = _frame_for("flrw", "geodesic") if frame is None else frame
    rng = np.random.default_rng(seed)
    metric = None if isinstance(frame, GraphFrame) else frame.spec.metric
    xs = _random_events(rng, n, metric=metric, t_floor=_event_floor(frame))
    xis = sample_sky(max(n, 4), scheme="random", seed=seed).xi[:n]
    return [
        check_kernel_proportionality(frame, x, xi, tol=tol) for x, xi in zip(xs, xis)
    ]


def suite_flow(seed, n_sky=25, frame=None, tol=None):
    frame = _frame_for("flrw", "geodesic") if frame is None else frame
    rng = np.random.default_rng(seed)
    metric = None if isinstance(frame, GraphFrame) else frame.spec.metric
    x = _random_events(rng, 1, metric=metric, t_floor=_event_floor(frame))[0]
    dirs = np.array(
        [[1.0, 0, 0, 0], [1.0, 0.5, 0, 0], [1.0, 0, -0.4, 0.3], [2.0, 0.3, 0.3, -0.3]]
    )
    sample = sample_sky(n_sky, scheme="random", seed=seed)
    return [check_flow_of_time(frame, x, dirs, sample, tol=tol)]
