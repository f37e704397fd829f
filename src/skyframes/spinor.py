"""Algebraic spinor correspondence between 4-vectors and Hermitian 2x2 matrices.

All functions broadcast over leading axes: a "vector" argument may be any
array of shape (..., 4), a matrix argument (..., 2, 2), a spinor (..., 2).
Conventions used throughout the toolkit:

* metric signature (+, -, -, -), index 0 is time, c = 1;
* the real factor of the vector -> matrix map is ``PAULI_FACTOR`` (= 1/2);
* null factorisation phase: first nonzero spinor component real positive;
* a sky point is represented by a nonzero covector ``xi`` in C^2*; its
  null direction is the future null vector ``v`` annihilated by ``xi`` in
  the sense that the covector form of ``v`` is ``xi^dagger xi``
  (equivalently, the factorisation spinor of ``v`` pairs to zero with
  ``xi``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    NonHermitianError,
    NotFutureDirectedError,
    NotNullError,
    NotUnimodularError,
    ZeroSpinorError,
)

#: Real factor of the vector -> Hermitian matrix map.  Other common choices
#: are 1/sqrt(2) and 1; every identity below is stated for 1/2.
PAULI_FACTOR = 0.5

#: Hermiticity tolerance, relative to the largest matrix entry.
HERMITIAN_TOL = 1e-12

#: Nullity tolerance for factorisation, relative to (largest component)^2.
NULL_TOL = 1e-10

#: Tolerance of |det C - 1| for an SL(2, C) element C.
UNIMODULAR_TOL = 1e-12

#: Norm below which a covector counts as zero: its squares are subnormal,
#: so no normalisation of it is accurate.
ZERO_NORM = 1e-150

#: Magnitude below which a square is subnormal or 0 (about 1.5e-154), so a
#: length or an eigenvalue taken from squares loses its bits (1e-170 reads 0).
SQUARE_UNDERFLOW = math.sqrt(np.finfo(float).tiny)


def _scale(a):
    """Largest absolute entry over the trailing axes, 1 where every entry is 0."""
    a = np.asarray(a)
    flat = np.abs(a).reshape(a.shape[: a.ndim - 1] + (-1,)) if a.ndim else np.abs(a)
    s = flat.max(axis=-1) if a.ndim else flat
    return np.where(s == 0.0, 1.0, s)


def power_of_two_scaled(a, big):
    """(a 2^-e, e), e the frexp exponent of big (0 where big is 0), which
    broadcasts against a: the one rescale against under- and overflow.  It
    takes big, a's largest |entry|, into [1/2, 1) exactly, where a division
    by big rounds, and scales a complex a's real and imaginary parts alike."""
    e = np.frexp(big)[1]
    if np.iscomplexobj(a):  # ldexp is real: scale each (re, im) pair
        pairs = np.stack([np.real(a), np.imag(a)], axis=-1)
        return np.ldexp(pairs, -e[..., None]).view(complex)[..., 0], e
    return np.ldexp(a, -e), e


@np.errstate(under="ignore")  # whatever the caller's state: the scaled copy mends it
def euclidean_norm(v):
    """Euclidean norms over the last axis of v (..., k), those of
    np.linalg.norm(v, axis=-1) bit for bit down to SQUARE_UNDERFLOW; a row
    whose norm is below it is taken on its `power_of_two_scaled` copy."""
    v = np.asarray(v, dtype=float)
    out = np.linalg.norm(v, axis=-1)
    if np.fmin.reduce(out, axis=None, initial=np.inf) < SQUARE_UNDERFLOW:  # NaN rows aside
        u, e = power_of_two_scaled(v, np.abs(v).max(axis=-1, keepdims=True))
        out = np.where(out < SQUARE_UNDERFLOW, np.ldexp(np.linalg.norm(u, axis=-1), e[..., 0]), out)
    return out


def pauli_transform(v):
    """Map a 4-vector (..., 4) to its Hermitian 2x2 image (..., 2, 2)."""
    v = np.asarray(v, dtype=float)
    h = np.empty(v.shape[:-1] + (2, 2), dtype=complex)
    h[..., 0, 0] = v[..., 0] + v[..., 3]
    h[..., 0, 1] = v[..., 1] + 1j * v[..., 2]
    h[..., 1, 0] = v[..., 1] - 1j * v[..., 2]
    h[..., 1, 1] = v[..., 0] - v[..., 3]
    h *= PAULI_FACTOR
    return h


def check_hermitian(h):
    """Raise NonHermitianError unless h is Hermitian within HERMITIAN_TOL."""
    h = np.asarray(h, dtype=complex)
    dev = np.abs(h - np.conj(np.swapaxes(h, -1, -2))).max()
    bound = HERMITIAN_TOL * float(np.abs(h).max(initial=0.0))
    if dev > bound:
        raise NonHermitianError(f"deviation {dev:.3e} exceeds {bound:.3e}")
    return h


def inverse_pauli(h):
    """Invert pauli_transform.  Input must be Hermitian (`check_hermitian`)."""
    h = check_hermitian(h)
    v = np.empty(h.shape[:-2] + (4,), dtype=float)
    v[..., 0] = (h[..., 0, 0].real + h[..., 1, 1].real) / (2.0 * PAULI_FACTOR)
    v[..., 3] = (h[..., 0, 0].real - h[..., 1, 1].real) / (2.0 * PAULI_FACTOR)
    off = 0.5 * (h[..., 0, 1] + np.conj(h[..., 1, 0]))
    v[..., 1] = off.real / PAULI_FACTOR
    v[..., 2] = off.imag / PAULI_FACTOR
    return v


def minkowski_norm(v):
    """eta(v, v) = (v0)^2 - (v1)^2 - (v2)^2 - (v3)^2."""
    v = np.asarray(v, dtype=float)
    return v[..., 0] ** 2 - v[..., 1] ** 2 - v[..., 2] ** 2 - v[..., 3] ** 2


def outer_square(psi):
    """psi psi^dagger, a rank-one Hermitian matrix (..., 2, 2)."""
    psi = np.asarray(psi, dtype=complex)
    return psi[..., :, None] * np.conj(psi[..., None, :])


def factor_null(v):
    """Factor a future null vector as psi psi^dagger = pauli_transform(v).

    The zero vector maps to the zero spinor.  Raises NotNullError when
    eta(v,v) exceeds NULL_TOL relative to the squared component scale, and
    NotFutureDirectedError for v0 < 0.
    """
    v = np.asarray(v, dtype=float)
    scale = _scale(v)
    # The norm of v / scale cannot overflow, where eta(v, v) and scale**2 can.
    rel = np.abs(minkowski_norm(v / np.expand_dims(scale, -1)))
    if np.any(rel > NULL_TOL):
        raise NotNullError(f"relative norm {float(rel.max()):.3e} exceeds {NULL_TOL:.1e}")
    if np.any(v[..., 0] < -NULL_TOL * scale):
        raise NotFutureDirectedError("time component is negative")

    h = pauli_transform(v)
    d0 = np.maximum(h[..., 0, 0].real, 0.0)
    d1 = np.maximum(h[..., 1, 1].real, 0.0)
    use0 = d0 >= d1
    pivot = np.where(use0, d0, d1)
    root = np.sqrt(pivot)
    # Column of the pivot diagonal entry, divided by its square root,
    # reproduces a rank-one PSD matrix exactly.
    with np.errstate(divide="ignore", invalid="ignore"):
        col0 = np.where(use0, root, h[..., 0, 1] / root)
        col1 = np.where(use0, h[..., 1, 0] / root, root)
    psi = np.stack([col0, col1], axis=-1)
    psi = np.where(root[..., None] > 0.0, psi, 0.0)

    # Phase convention: first component above threshold made real positive.
    mag = np.abs(psi)
    lead = np.where(mag[..., 0] > 1e-12 * _scale(psi), psi[..., 0], psi[..., 1])
    lead_mag = np.abs(lead)
    with np.errstate(divide="ignore", invalid="ignore"):
        phase = np.where(lead_mag > 0.0, np.conj(lead) / lead_mag, 1.0)
    return psi * phase[..., None]


def sl2_act(c, h):
    """Conjugate a Hermitian matrix by an SL(2, C) element: C h C^dagger."""
    c = np.asarray(c, dtype=complex)
    det = c[..., 0, 0] * c[..., 1, 1] - c[..., 0, 1] * c[..., 1, 0]
    if np.any(np.abs(det - 1.0) > UNIMODULAR_TOL):
        raise NotUnimodularError(f"det deviates by {np.abs(det - 1.0).max():.3e}")
    h = np.asarray(h, dtype=complex)
    return c @ h @ np.conj(np.swapaxes(c, -1, -2))


def random_sl2(rng, n=None):
    """Seeded random SL(2, C) elements, det normalised to exactly one."""
    shape = (2, 2) if n is None else (n, 2, 2)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    det = c[..., 0, 0] * c[..., 1, 1] - c[..., 0, 1] * c[..., 1, 0]
    while np.any(np.abs(det) < 1e-3):  # pragma: no cover - measure-zero retry
        c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        det = c[..., 0, 0] * c[..., 1, 1] - c[..., 0, 1] * c[..., 1, 0]
    return c / np.sqrt(det)[..., None, None]


# ---------------------------------------------------------------------------
# Dictionary between sky covectors, spinors and null directions.
#
# cospinor_for_spinor and spinor_for_cospinor are mutual annihilators under
# the dual pairing xi_A psi^A; the composition round-trips exactly.  The unit
# xi = (a, b) names the null vector (1, d) with Pauli image psi psi^dagger,
# psi = (-b, a), and d is written out so no ray builds that matrix.


def spinor_for_cospinor(xi):
    """The spinor annihilated by the covector xi: psi = (-xi2, xi1)."""
    xi = np.asarray(xi, dtype=complex)
    return np.stack([-xi[..., 1], xi[..., 0]], axis=-1)


def cospinor_for_spinor(psi):
    """The covector annihilating psi: xi = (psi2, -psi1)."""
    psi = np.asarray(psi, dtype=complex)
    return np.stack([psi[..., 1], -psi[..., 0]], axis=-1)


def unit_cospinor(xi):
    """Rows xi (..., 2) over their norms hypot(|xi1|, |xi2|), which cannot
    overflow; ZeroSpinorError where a norm is below ZERO_NORM."""
    xi = np.asarray(xi, dtype=complex)
    nrm = np.hypot(np.abs(xi[..., 0]), np.abs(xi[..., 1]))
    if np.any(nrm < ZERO_NORM):
        raise ZeroSpinorError("a sky point needs a nonzero covector")
    return xi / nrm[..., None]


def direction_for_cospinor(xi):
    """Unit spatial direction (..., 3) of the null vector of P(xi): the
    Pauli components of psi psi^dagger for the unit xi = (a, b)."""
    xi = unit_cospinor(xi)
    # real arithmetic: numpy rounds a batch of complex products unlike one row
    ar, ai, br, bi = xi[..., 0].real, xi[..., 0].imag, xi[..., 1].real, xi[..., 1].imag
    cr, ci = br * ar + bi * ai, bi * ar - br * ai  # xi2 conj(xi1) = cr + i ci
    return np.stack([-2.0 * cr, -2.0 * ci, (br * br + bi * bi) - (ar * ar + ai * ai)], -1)


def null_vector_for_cospinor(xi):
    """Future null 4-vector (1, d) of the sky point P(xi): the direction at
    which the (1,1)-homogeneous field of the returned vector vanishes, so the
    contact form evaluated at xi kills it."""
    d = direction_for_cospinor(xi)
    return np.concatenate([np.ones(d.shape[:-1] + (1,)), d], axis=-1)


def cospinor_for_null_vector(v):
    """Unit covector representing the sky point of the future null vector v."""
    return unit_cospinor(cospinor_for_spinor(factor_null(v)))


def cospinor_for_direction(d):
    """Inverse of direction_for_cospinor on unit vectors (a fixed section)."""
    d = np.asarray(d, dtype=float)
    ct = np.clip(d[..., 2], -1.0, 1.0)
    half = 0.5 * np.arccos(ct)
    phi = np.arctan2(d[..., 1], d[..., 0])
    psi = np.stack(
        [np.cos(half) + 0j, np.sin(half) * np.exp(-1j * phi)], axis=-1
    )
    return cospinor_for_spinor(psi)
