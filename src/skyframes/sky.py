"""The sky as CP^1: samples, homogeneous line-bundle values, size fields.

A sky point is a nonzero covector xi in C^2* taken projectively.  A size
field is a real (1,1)-homogeneous function on C^2*; the image of the
vector -> field transform is always polynomial with a Hermitian 2x2
coefficient matrix, and that matrix is the one representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import spinor
from .errors import BadCountError, OutOfDomainError, UnsupportedSignatureError
from .spinor import unit_cospinor  # the one covector normaliser, re-exported

#: Bidegrees of homogeneity with a supported evaluation rule.
SUPPORTED_SIGNATURES = {(1, 0), (0, 1), (1, 1), (2, 0)}

#: Slack of `semidefinite`, relative to the largest entry.
SEMIDEFINITE_TOL = 1e-12

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class SkySample:
    """A finite set of unit covector representatives of sky points."""

    xi: np.ndarray  # (n, 2) complex, unit rows

    @property
    def n(self) -> int:
        return self.xi.shape[0]

    def directions(self) -> np.ndarray:
        """Unit vectors on S^2: spatial parts of the sampled null directions."""
        return spinor.direction_for_cospinor(self.xi)


def sample_sky(n, scheme="fibonacci", seed=None):
    """Draw n distinct unit covectors; fibonacci is quasi-uniform on S^2 and
    draws nothing, so it takes no seed."""
    if n < 4:
        raise BadCountError(f"need at least 4 sky samples, got {n}")
    if scheme == "fibonacci":
        if seed is not None:
            raise ValueError("the fibonacci sky draws nothing, so it takes no seed")
        i = np.arange(n)
        theta = 2.0 * np.pi * i / _GOLDEN
        cos_phi = 1.0 - 2.0 * (i + 0.5) / n
        sin_phi = np.sqrt(np.maximum(0.0, 1.0 - cos_phi**2))
        d = np.stack(
            [np.cos(theta) * sin_phi, np.sin(theta) * sin_phi, cos_phi], axis=-1
        )
        xi = spinor.cospinor_for_direction(d)
    elif scheme == "random":
        rng = np.random.default_rng(seed)
        xi = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    else:
        raise ValueError(f"unknown sampling scheme {scheme!r}")
    return SkySample(xi=unit_cospinor(xi))


def eval_homogeneous(coeffs, signature, xi):
    """Value at xi of a section with the given homogeneity bidegree.

    Coefficient conventions: (1,0) takes a spinor acting as the linear
    functional xi_A w^A; (0,1) the conjugate-linear counterpart; (1,1) a
    Hermitian matrix contracted as xi H xi^dagger; (2,0) a pair of spinors
    (rows of a 2x2 array) whose two linear factors are multiplied.
    """
    signature = tuple(signature)
    if signature not in SUPPORTED_SIGNATURES:
        raise UnsupportedSignatureError(f"bidegree {signature} not supported")
    xi = np.asarray(xi, dtype=complex)
    coeffs = np.asarray(coeffs, dtype=complex)
    if signature == (1, 0):
        return xi @ coeffs
    if signature == (0, 1):
        return np.conj(xi) @ coeffs
    if signature == (1, 1):
        return _contract(coeffs, xi)
    return (xi @ coeffs[0]) * (xi @ coeffs[1])


def _contract(matrix, xi):
    """xi H xi^dagger for matrices (..., 2, 2) and complex xi rows (..., 2)."""
    return np.einsum("...a,...ab,...b->...", xi, matrix, np.conj(xi))


@dataclass(frozen=True)
class SizeField:
    """A real (1,1)-homogeneous function on C^2*, xi -> xi H xi^dagger,
    given by its Hermitian coefficient matrix H."""

    matrix: np.ndarray

    def __post_init__(self):
        m = spinor.check_hermitian(self.matrix)
        object.__setattr__(self, "matrix", np.asarray(m, dtype=complex))

    def __call__(self, xi):
        return _contract(self.matrix, np.asarray(xi, dtype=complex)).real

    def __add__(self, other):
        return SizeField(matrix=self.matrix + other.matrix)

    def __sub__(self, other):
        return SizeField(matrix=self.matrix - other.matrix)

    def __mul__(self, scalar):
        return SizeField(matrix=self.matrix * float(scalar))

    __rmul__ = __mul__


def celestial_transform(v):
    """The 4-vector as a signed size field: xi -> xi_A v^{AA'} conj(xi)_{A'}."""
    return SizeField(matrix=spinor.pauli_transform(v))


def celestial_eval(v, xi):
    """Direct evaluation of the transform of v (..., 4) at xi (..., 2)."""
    return _contract(spinor.pauli_transform(v), np.asarray(xi, dtype=complex)).real


def modulus_squared(zeta):
    """Fiberwise squared modulus, the section of sizes |zeta|^2."""
    return np.abs(np.asarray(zeta)) ** 2


def hermitian_eigenvalues(h):
    """Closed-form eigenvalues of Hermitian 2x2 matrices, ascending."""
    h = np.asarray(h, dtype=complex)
    tr = (h[..., 0, 0] + h[..., 1, 1]).real
    det = (h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]).real
    disc = np.sqrt(np.maximum(tr**2 - 4.0 * det, 0.0))
    return np.stack([(tr - disc) / 2.0, (tr + disc) / 2.0], axis=-1)


def semidefinite(d):
    """Bool arrays (d >= 0, d <= 0) on the sky for Hermitian differences d
    (..., 2, 2): the extreme eigenvalues against SEMIDEFINITE_TOL times the
    largest entry, so the boundary counts as dominated at every scale;
    OutOfDomainError where an eigenvalue is not finite.  Where the largest
    entry is below `spinor.SQUARE_UNDERFLOW`, whose squares underflow, the
    eigenvalues are those of d's `spinor.power_of_two_scaled` copy, as a
    division by a subnormal entry would overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        eig = hermitian_eigenvalues(d)
    if not np.all(np.isfinite(eig)):
        raise OutOfDomainError("a size-field difference exceeds float range")
    a = np.abs(d)
    scale = reduce(np.maximum, (a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]))
    if scale.min(initial=np.inf) < spinor.SQUARE_UNDERFLOW:  # other rows scale by 2^0
        big = np.where(scale < spinor.SQUARE_UNDERFLOW, scale, 0.0)[..., None, None]
        unit, e = spinor.power_of_two_scaled(d, big)
        eig, scale = hermitian_eigenvalues(unit), np.ldexp(scale, -e[..., 0, 0])
    slack = SEMIDEFINITE_TOL * scale
    return eig[..., 0] >= -slack, eig[..., 1] <= slack


def dominates(a: SizeField, b: SizeField) -> bool:
    """Pointwise a >= b on the sky: the difference is semidefinite."""
    return bool(semidefinite(a.matrix - b.matrix)[0])
