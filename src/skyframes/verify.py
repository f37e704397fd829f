"""Numerical checks of the frame identities.

Four check families: annihilation of the contact form on the geodesic
flow, at the start and the end of rays traced by the one tracer
`manifold.trace_past_to_time`, each state at its own sky point;
proportionality (with positive ratio) of the contact form and the normal
projection on probe bases of the 6-dimensional tangent of the skies
bundle; direction-independence of the ratio between image derivatives and
the transform of the direction (the flow-of-time identity); and agreement
of the twistor contraction composed with incidence against the transform
of the event.

The proportionality and flow checks take any frame that answers
`probe_values(x, xis, directions, h)` and carries `PROBE_TOL` and
`target_time`: a `frames.FrameSpec` or a `minkowski.GraphFrame`.
Probes are seeded and reports are deterministic given the frame and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import frames as fr
from . import manifold as mf
from . import twistor as tw
from .errors import DegenerateTangentPlaneError, NoIntersectionError
from .sky import SkySample, sample_sky, unit_cospinor
from .spinor import cospinor_for_direction

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
            "extras": {k: np.asarray(v).tolist() for k, v in self.extras.items()},
        }


def check_contact_annihilation(f: fr.FrameSpec, x, xi):
    """Contact form on the flow direction at the start and the end of each
    ray, each at its own point of the skies bundle.

    The rays are traced in one `manifold.trace_past_to_time` batch down to
    the frame's target (to `frames.SINGULARITY_CUTOFF` toward the
    singularity).  theta is evaluated on v / v0: at the start with the given
    sky point and velocity; at the end with the sky point of the traced
    future direction -n (rotated back through the frame's tetrad rotation)
    and the velocity rebuilt from (n, E) and the legs.  The tracer's states
    are null by construction, so the residuals measure the round trip from
    the frame's sky dictionary to the tracer's state and back;
    `max_null_drift` is the largest |g(v / v0, v / v0)|.  x is one event
    (4,) shared by every sky point, or one event per sky point (n, 4).  One
    sky point xi (2,) gives one report; xi (n, 2) gives a list of n reports.
    """
    m = f.metric
    xis = unit_cospinor(np.atleast_2d(xi))
    xs = np.broadcast_to(np.asarray(x, dtype=float), (len(xis), 4))
    v0 = mf.future_null_directions(m, xs, fr.sky_directions(f, xis))
    stop_t = fr.SINGULARITY_CUTOFF if f.target.kind == "singularity" else f.target_time
    end = mf.trace_past_to_time(m, xs, v0, stop_t)
    rotation = np.eye(3) if f.tetrad_rotation is None else f.tetrad_rotation
    xi_end = cospinor_for_direction(-end.n @ np.asarray(rotation, float))
    theta, drift = [], []
    for x_s, xi_s, v in ((xs, xis, v0), (end.x, xi_end, end.velocity(m))):
        v_hat = v / v[:, :1]
        theta.append(np.abs(fr.theta_value(f, x_s, xi_s, v_hat)))
        drift.append(np.abs(m.norm(x_s, v_hat)))
    theta, drift = np.column_stack(theta), np.column_stack(drift)
    reports = [
        VerificationReport(
            name="contact_annihilation",
            residuals=theta[b],
            tolerance=1e-8,
            probe_count=2,
            extras={"max_null_drift": float(drift[b].max()), "states": 2},
        )
        for b in range(len(xis))
    ]
    return reports[0] if np.ndim(xi) == 1 else reports


_COORD_DIRS = np.eye(4)


def _kept_ratios(theta, rates):
    """Rates over contact-form values, skipping probes in the kernel band."""
    keep = np.abs(theta) > KERNEL_SKIP_TOL * max(float(np.abs(theta).max()), 1e-300)
    return rates[keep] / theta[keep]


def check_kernel_proportionality(
    frame, x, xi, tol=None, event_h=None
) -> VerificationReport:
    """The two functionals on the 6-probe basis are positive multiples.

    The probes are the four coordinate event directions (horizontal) and
    the two sky directions (vertical).  Checks: the 2 x 4 horizontal value
    matrix has numerical rank one, all ratios over probes outside the
    kernel agree (the spread about the median is the reported residual),
    every such ratio is positive, and the normal projection vanishes on
    vertical probes.
    """
    pv = frame.probe_values(x, unit_cospinor(xi)[None, :], _COORD_DIRS, h=event_h)
    if not pv.arrived[0]:
        raise NoIntersectionError("a probe ray misses the target surface")
    if not pv.regular[0]:
        raise DegenerateTangentPlaneError("probe point is not regular")
    theta_h, p_h = pv.theta[0], pv.rates[0]
    tol = frame.PROBE_TOL if tol is None else tol

    scale_t = max(float(np.abs(theta_h).max()), 1e-300)
    scale_p = max(float(np.abs(p_h).max()), 1e-300)
    ratios = _kept_ratios(theta_h, p_h)
    med = float(np.median(ratios))
    spread = float(np.abs(ratios - med).max() / abs(med))

    mat = np.stack([theta_h / scale_t, p_h / scale_p])
    sv = np.linalg.svd(mat, compute_uv=False)
    rank_one_defect = float(sv[1] / sv[0])

    vert_resid = float(np.abs(pv.vertical[0]).max() / max(scale_p, 1e-300))
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
    pv = frame.probe_values(x, sample.xi, directions, h=event_h)
    tol = frame.PROBE_TOL if tol is None else tol

    residuals = []
    profile = []
    for theta, rates, regular in zip(pv.theta, pv.rates, pv.regular):
        ratios = _kept_ratios(theta, rates) if regular else ()
        if len(ratios) == 0:
            profile.append(np.nan)
            continue
        mean = float(np.mean(ratios))
        profile.append(mean)
        residuals.append(float(np.abs(ratios - mean).max() / abs(mean)))
    if not residuals:
        raise DegenerateTangentPlaneError("no regular samples to probe")
    return VerificationReport(
        name="flow_of_time",
        residuals=np.asarray(residuals),
        tolerance=tol,
        probe_count=sample.n * directions.shape[0],
        extras={"empirical_factor_profile": np.asarray(profile)},
    )


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


def _random_events(rng, n, box=2.0, t_floor=None):
    """Events in a box; with t_floor the times lie in t_floor + [0.3, 1.5]."""
    x = rng.uniform(-box, box, size=(n, 4))
    if t_floor is not None:
        x[:, 0] = rng.uniform(t_floor + 0.3, t_floor + 1.5, size=n)
    return x


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


def _default_frame():
    return fr.FrameSpec(metric=mf.MetricSpec.flrw(p=2 / 3), target=fr.Singularity())


def suite_contact(seed, n=20, frame=None):
    frame = _default_frame() if frame is None else frame
    rng = np.random.default_rng(seed)
    xs = _random_events(rng, n, t_floor=frame.target_time)
    xis = sample_sky(max(n, 4), scheme="random", seed=seed).xi[:n]
    return check_contact_annihilation(frame, xs, xis)


def suite_kernel(seed, n=25, frame=None, tol=None):
    frame = _default_frame() if frame is None else frame
    rng = np.random.default_rng(seed)
    xs = _random_events(rng, n, t_floor=frame.target_time)
    xis = sample_sky(max(n, 4), scheme="random", seed=seed).xi[:n]
    return [
        check_kernel_proportionality(frame, x, xi, tol=tol) for x, xi in zip(xs, xis)
    ]


def suite_flow(seed, n_sky=25, frame=None, tol=None):
    frame = _default_frame() if frame is None else frame
    rng = np.random.default_rng(seed)
    x = _random_events(rng, 1, t_floor=frame.target_time)[0]
    dirs = np.array(
        [[1.0, 0, 0, 0], [1.0, 0.5, 0, 0], [1.0, 0, -0.4, 0.3], [2.0, 0.3, 0.3, -0.3]]
    )
    sample = sample_sky(n_sky, scheme="random", seed=seed)
    return [check_flow_of_time(frame, x, dirs, sample, tol=tol)]
