"""Numerical checks of the frame identities.

Four check families: annihilation of the contact form on the geodesic
flow, at the start and the end of rays traced by the frame's one numeric
ray batch `frames._trace`, each state at its own sky point;
proportionality (with positive ratio) of the contact form and the normal
projection on probe bases of the 6-dimensional tangent of the skies
bundle; direction-independence of the ratio between image derivatives and
the transform of the direction (the flow-of-time identity); and agreement
of the twistor contraction composed with incidence against the transform
of the event.

Every check takes rows and makes one batch call for all of them: x is one
event (4,) shared by every row or one event per row (n, 4), beside sky
points xi (n, 2), a `SkySample` or twistor pis (n, 2).  The contact and
proportionality checks give a list of one report per row, or one report
for one sky point xi (2,).  In every frame check a row whose rays miss the
target raises naming its event.  The proportionality and flow checks take
any frame that answers `probe_values(x, xis, directions)` and carries
`PROBE_TOL` and `target_time`: a `frames.FrameSpec` or a
`minkowski.GraphFrame`; they form their residuals as row operations over
the (B, k) probe values, with one kept-ratio rule (`_kept_ratios`).  A
report computes its maximum once.  Probes are seeded and reports are
deterministic given the frame and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import frames as fr
from . import twistor as tw
from .errors import DegenerateTangentPlaneError, NoIntersectionError
from .sky import SkySample, sample_sky
from .spinor import cospinor_for_direction, direction_for_cospinor

#: Probe values of the transform below this (relative) size are treated as
#: lying in the kernel and skipped when forming ratios.
KERNEL_SKIP_TOL = 1e-8

#: Tolerance of the contraction identity, relative to the larger side.
CONTRACTION_TOL = 1e-12


@dataclass(frozen=True)
class VerificationReport:
    name: str
    residuals: np.ndarray
    tolerance: float
    probe_count: int
    extras: dict = field(default_factory=dict)

    @cached_property  # read by passed and the CLI's report and summary line
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if len(self.residuals) else 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def check_contact_annihilation(f: fr.FrameSpec, x, xi):
    """Contact form on the flow direction at the start and the end of each
    ray, each at its own point of the skies bundle.

    The rays go out in one `frames._trace` batch, numeric whatever the
    frame's tracer ("auto" or "numeric"), down to the frame's target (to
    the singularity cutoff toward the singularity).  theta is evaluated on
    v / v0: at the start with the given sky point and velocity; at the end
    with the sky point of the traced future direction -n and the velocity
    rebuilt from (n, E) and the legs.  The tracer's states are null by
    construction, so the residuals measure the round trip from the frame's
    sky dictionary to the tracer's state and back; `max_null_drift` is the
    largest |g(v / v0, v / v0)|.  A ray that leaves the chart or turns
    non-finite raises `NoIntersectionError`.
    """
    m = f.metric
    xis = np.atleast_2d(np.asarray(xi, dtype=complex))
    xs = np.broadcast_to(np.asarray(x, dtype=float), (len(xis), 4))
    v0, end = fr._trace(f, xs, direction_for_cospinor(xis))
    xi_end = cospinor_for_direction(-end.n)
    if not end.ok.all():
        event = xs[np.argmin(end.ok)].tolist()
        raise NoIntersectionError(f"the ray from {event} did not reach the target")
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


def _kept_ratios(theta, rates, rows):
    """Rates over contact-form values (B, k), NaN at the probes in a row's
    kernel band and in the rows not in rows (B,), and the kept mask."""
    scale = np.maximum(np.abs(theta).max(axis=1), 1e-300)
    keep = (np.abs(theta) > KERNEL_SKIP_TOL * scale[:, None]) & rows[:, None]
    return np.divide(rates, theta, out=np.full(theta.shape, np.nan), where=keep), keep


def _spread(ratios, keep, centre):
    """Each row's largest distance of a kept ratio from its centre, relative
    to the centre."""
    return np.where(keep, np.abs(ratios - centre[:, None]), 0.0).max(axis=1) / np.abs(centre)


def check_kernel_proportionality(frame, x, xi, tol=None):
    """The two functionals on the 6-probe basis are positive multiples.

    The probes are the four coordinate event directions (horizontal) and
    the two sky directions (vertical).  Checks: the 2 x 4 horizontal value
    matrix has numerical rank one, all ratios over probes outside the
    kernel agree (the spread about the median is the reported residual),
    every such ratio is positive, and the normal projection vanishes on
    vertical probes.  All rows go to one `probe_values` call and every
    residual is a row operation over the (B, 4) values; a row whose probes
    miss the target or are not regular raises naming its event.
    """
    xis = np.atleast_2d(np.asarray(xi, dtype=complex))
    xs = np.broadcast_to(np.asarray(x, dtype=float), (len(xis), 4))
    pv = frame.probe_values(xs, xis, _COORD_DIRS)
    if not pv.arrived.all():
        event = xs[np.argmin(pv.arrived)].tolist()
        raise NoIntersectionError(f"a probe ray of {event} misses the target surface")
    if not pv.regular.all():
        event = xs[np.argmin(pv.regular)].tolist()
        raise DegenerateTangentPlaneError(f"the probe point of {event} is not regular")
    tol = frame.PROBE_TOL if tol is None else tol
    ratios, keep = _kept_ratios(pv.theta, pv.rates, pv.regular)
    # each row's median: the kept ratios lead a sort (NaN goes last), and
    # an even count takes the mean of its two middle values
    ordered, count = np.sort(ratios, axis=1), keep.sum(axis=1, keepdims=True)
    med = np.take_along_axis(ordered, (count - 1) // 2, axis=1)[:, 0]
    even = count[:, 0] % 2 == 0
    med[even] = (med[even] + np.take_along_axis(ordered, count // 2, axis=1)[even, 0]) / 2
    scale_t = np.maximum(np.abs(pv.theta).max(axis=1), 1e-300)[:, None]
    scale_p = np.maximum(np.abs(pv.rates).max(axis=1), 1e-300)[:, None]
    values = np.stack([pv.theta / scale_t, pv.rates / scale_p], axis=1)  # (B, 2, 4)
    sv = np.linalg.svd(values, compute_uv=False)
    residuals = np.column_stack([
        _spread(ratios, keep, med),
        sv[:, 1] / sv[:, 0],
        np.abs(pv.vertical).max(axis=1) / scale_p[:, 0],
        np.where(ordered[:, 0] > 0.0, 0.0, 1.0),  # the least kept ratio leads
    ])
    reports = [
        VerificationReport(
            name="kernel_proportionality",
            residuals=residuals[b],
            tolerance=tol,
            probe_count=6,
            extras={"ratios": ratios[b, keep[b]], "empirical_factor": float(med[b])},
        )
        for b in range(len(xis))
    ]
    return reports[0] if np.ndim(xi) == 1 else reports


def check_flow_of_time(frame, x, directions, sample: SkySample, tol=None) -> VerificationReport:
    """Ratio of image derivative to the transform of the direction.

    At each regular sky sample the ratio is formed for every direction
    whose transform is outside the kernel band; the residual is the spread
    over directions at fixed sky point, relative to the per-point mean.
    The per-point mean profile (NaN at a sample with no ratio) is reported
    as the empirical frame factor.  A sample whose probe rays miss the
    target raises naming its event.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    pv = frame.probe_values(x, sample.xi, directions)
    if not pv.arrived.all():
        event = np.broadcast_to(x, (sample.n, 4))[np.argmin(pv.arrived)].tolist()
        raise NoIntersectionError(f"a probe ray of {event} misses the target surface")
    tol = frame.PROBE_TOL if tol is None else tol
    ratios, keep = _kept_ratios(pv.theta, pv.rates, pv.regular)
    count = keep.sum(axis=1)
    ok = count > 0
    if not ok.any():
        raise DegenerateTangentPlaneError("no regular samples to probe")
    profile = np.full(len(count), np.nan)
    profile[ok] = np.where(keep, ratios, 0.0)[ok].sum(axis=1) / count[ok]
    return VerificationReport(
        name="flow_of_time",
        residuals=_spread(ratios[ok], keep[ok], profile[ok]),
        tolerance=tol,
        probe_count=sample.n * directions.shape[0],
        extras={"empirical_factor_profile": profile},
    )


def check_contraction_identity(x, pis) -> VerificationReport:
    """Contraction after incidence equals the transform of the event."""
    pis = np.atleast_2d(np.asarray(pis, dtype=complex))
    return _contraction_report(x, tw.contraction(tw.incidence(x, pis)))


def _contraction_report(x, tau: tw.TwistorContraction) -> VerificationReport:
    """The contraction identity on the contractions tau of incidence twistors of x."""
    return VerificationReport(
        name="contraction_identity",
        residuals=tw.contraction_residual(x, tau),
        tolerance=CONTRACTION_TOL,
        probe_count=len(tau.pi),
    )


# ---------------------------------------------------------------------------
# Seeded suites (shared by the CLI and the acceptance tests).


def _random_events(rng, n, t_floor=None):
    """Events in the box [-2, 2]^4; with t_floor the times lie in t_floor +
    [0.3, 1.5]."""
    x = rng.uniform(-2.0, 2.0, size=(n, 4))
    if t_floor is not None:
        x[:, 0] = rng.uniform(t_floor + 0.3, t_floor + 1.5, size=n)
    return x


def suite_twistor(seed, n=1000):
    rng = np.random.default_rng(seed)
    xs = _random_events(rng, n)
    pis = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    tau = tw.contraction(tw.incidence(xs, pis))
    rep_tau = _contraction_report(xs, tau)

    # Null characterisation: incidence twistors have real contraction,
    # decisively non-null twistors do not.
    im_null = np.abs(tau.value.imag) / tau.scale
    omegas = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    z = tw.Twistor(omega=omegas, pi=pis)
    decisive = np.abs(tw.null_constraint(z)) >= 1e-3
    misclassified = tw.contraction(z).is_real()[decisive].astype(float)
    residuals = np.concatenate([im_null, misclassified])
    rep_null = VerificationReport(
        name="null_characterization",
        residuals=residuals,
        tolerance=1e-12,
        probe_count=len(residuals),
    )
    return [rep_tau, rep_null]


def _random_sky(seed, n):
    """n seeded random sky points, any n >= 1: the first n of a draw of at
    least the four that `sample_sky` needs."""
    return SkySample(sample_sky(max(n, 4), scheme="random", seed=seed).xi[:n])


def _random_rows(seed, n, frame):
    """n seeded events above the frame's target and n random sky points."""
    rng = np.random.default_rng(seed)
    return _random_events(rng, n, t_floor=frame.target_time), _random_sky(seed, n).xi


def suite_contact(seed, frame, n=20):
    return check_contact_annihilation(frame, *_random_rows(seed, n, frame))


def suite_kernel(seed, frame, n=25, tol=None):
    return check_kernel_proportionality(frame, *_random_rows(seed, n, frame), tol=tol)


def suite_flow(seed, frame, n_sky=25, tol=None):
    rng = np.random.default_rng(seed)
    x = _random_events(rng, 1, t_floor=frame.target_time)[0]
    dirs = np.array(
        [[1.0, 0, 0, 0], [1.0, 0.5, 0, 0], [1.0, 0, -0.4, 0.3], [2.0, 0.3, 0.3, -0.3]]
    )
    return [check_flow_of_time(frame, x, dirs, _random_sky(seed, n_sky), tol=tol)]
