"""Twistors: incidence with events, nullity, contraction, contact form.

A twistor is a pair (omega, pi) of two-component complex vectors, taken
projectively when comparing; pi != 0 marks the affine part.  The
contraction sends a twistor to a complex (1,1)-homogeneous value over the
sky point of pi, real exactly on null twistors.  The matched covector for
comparisons with size fields is the componentwise conjugate of pi.

All functions broadcast over leading axes as in `spinor`: omega, pi and
tangents (..., 2), events (..., 4).  One row gives numpy scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotNullError, ZeroPiError
from .sky import celestial_eval
from .spinor import pauli_transform

#: Slack of `is_null`, relative to |pi| |omega|.
NULL_TWISTOR_TOL = 1e-10


def _pair(a, b):
    """conj(a) . b over the last axis."""
    return np.einsum("...a,...a->...", np.conj(a), b)


@dataclass(frozen=True)
class Twistor:
    omega: np.ndarray  # (..., 2) complex
    pi: np.ndarray  # (..., 2) complex

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=complex))
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=complex))

    @property
    def scale(self):
        norms = np.linalg.norm(self.pi, axis=-1) * np.linalg.norm(self.omega, axis=-1)
        return np.maximum(norms, 1e-300)


def _require_pi(pi):
    pi = np.asarray(pi, dtype=complex)
    if np.any(np.linalg.norm(pi, axis=-1) < 1e-150):
        raise ZeroPiError("affine twistor operations need pi != 0")
    return pi


def incidence(x, pi) -> Twistor:
    """Twistor lying on the lifted sky of x: omega = i (matrix of x) pi."""
    pi = _require_pi(pi)
    omega = 1j * np.einsum("...ab,...b->...a", pauli_transform(x), pi)
    return Twistor(omega=omega, pi=np.broadcast_to(pi, omega.shape))


def null_constraint(z: Twistor):
    """conj(pi) . omega + conj of it; zero exactly on null twistors."""
    return 2.0 * np.real(_pair(z.pi, z.omega))


def is_null(z: Twistor):
    return np.abs(null_constraint(z)) <= NULL_TWISTOR_TOL * z.scale


@dataclass(frozen=True)
class TwistorContraction:
    """Value of the contraction at the representative pi of its sky point."""

    pi: np.ndarray
    value: complex | np.ndarray

    @property
    def xi(self) -> np.ndarray:
        """Matched covector on the un-conjugated sky: componentwise conjugate."""
        return np.conj(self.pi)

    def is_real(self, tol: float = 1e-12):
        scale = np.maximum(np.abs(self.value), np.linalg.norm(self.pi, axis=-1) ** 2)
        return np.abs(self.value.imag) <= tol * np.maximum(scale, 1e-300)


def contraction(z: Twistor) -> TwistorContraction:
    """The complex size -i conj(pi) . omega over the sky point of pi."""
    _require_pi(z.pi)
    return TwistorContraction(pi=z.pi, value=-1j * _pair(z.pi, z.omega))


def contact_form(z: Twistor, d_omega, d_pi):
    """-i (conj(pi) . d_omega + conj(omega) . d_pi) on a null affine twistor.

    Real-valued when (d_omega, d_pi) preserves the null constraint.
    """
    _require_pi(z.pi)
    if not np.all(is_null(z)):
        raise NotNullError("contact form lives on the null hypersurface")
    return -1j * (_pair(z.pi, d_omega) + _pair(z.omega, d_pi))


def project_to_constraint(z: Twistor, d_omega, d_pi):
    """Remove the component of a tangent that violates the null constraint.

    The constraint gradient with respect to the real inner product on C^4
    is (pi, omega); the projection subtracts its multiple.  A zero gradient
    leaves the tangent as it is.
    """
    grad_o, grad_p = z.pi, z.omega
    norm2 = np.real(_pair(grad_o, grad_o) + _pair(grad_p, grad_p))
    dn = 2.0 * np.real(_pair(grad_o, d_omega) + _pair(grad_p, d_pi))
    lam = (dn / (2.0 * np.where(norm2 == 0.0, 1.0, norm2)))[..., None]
    return d_omega - lam * grad_o, d_pi - lam * grad_p


def twistor_for_sky_point(x, xi) -> Twistor:
    """Incidence twistor of the event x at the sky point P(xi)."""
    return incidence(x, np.conj(np.asarray(xi, dtype=complex)))


def contraction_matches_transform(x, pi):
    """Residual of contraction(incidence(x, pi)) against the size field of x."""
    tau = contraction(incidence(x, pi))
    rhs = celestial_eval(np.asarray(x, float), tau.xi)
    scale = np.maximum(np.maximum(np.abs(tau.value), np.abs(rhs)), 1e-300)
    return np.abs(tau.value - rhs) / scale
