"""The translation-invariant conformal frame of flat space.

The target 3-manifold is the total space of the signed bundle of sizes,
trivialised as (sky point, real height); the image of the sky of an event
x is the graph of the (1,1)-homogeneous field of x.  Level sets of the
frame map are the null hyperplanes of flat space, and the pointwise order
of graphs reproduces the causal order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import sky as skymod
from . import spinor
from .errors import OutOfDomainError
from .frames import ProbeValues
from .sky import SkySample, celestial_eval

#: Slack of `hyperplane_contains`, relative to max(|y|, |chi|, 1).
HYPERPLANE_TOL = 1e-10


@dataclass(frozen=True)
class GraphSkyImage:
    """Sky image of an event as a graph of heights over a sky sample."""

    event: np.ndarray  # (4,)
    sample: SkySample
    heights: np.ndarray  # (n,) real


def sky_image_minkowski(x, sample: SkySample) -> GraphSkyImage:
    """Heights of the graph image: the field of x at each unit sample point;
    OutOfDomainError where they overflow."""
    x = np.asarray(x, dtype=float)
    heights = celestial_eval(x, sample.xi)
    if not np.all(np.isfinite(heights)):
        raise OutOfDomainError(f"the graph of {x.tolist()} overflows")
    return GraphSkyImage(event=x, sample=sample, heights=heights)


@dataclass(frozen=True)
class NullHyperplane:
    """Level set { y : field-of-y at xi equals chi } for a fixed sky point."""

    xi: np.ndarray  # (2,) complex, nonzero
    chi: float


def hyperplane_through(x, xi) -> NullHyperplane:
    """The null hyperplane through event x with normal direction P(xi)."""
    xi = skymod.unit_cospinor(xi)
    return NullHyperplane(xi=xi, chi=float(celestial_eval(x, xi)))


def hyperplane_contains(h: NullHyperplane, y) -> bool:
    y = np.asarray(y, dtype=float)
    scale = max(float(np.abs(y).max(initial=0.0)), abs(h.chi), 1.0)
    return bool(abs(float(celestial_eval(y, h.xi)) - h.chi) <= HYPERPLANE_TOL * scale)


class CausalOrder(enum.Enum):
    EQUAL = "equal"
    Y_PAST_OF_X = "y_past_of_x"
    X_PAST_OF_Y = "x_past_of_y"
    SPACELIKE = "spacelike"

    @classmethod
    def of(cls, y_past_of_x: bool, x_past_of_y: bool) -> CausalOrder:
        """The order given by the two one-way past relations."""
        if y_past_of_x:
            return cls.EQUAL if x_past_of_y else cls.Y_PAST_OF_X
        return cls.X_PAST_OF_Y if x_past_of_y else cls.SPACELIKE


def causal_compare(x, y) -> CausalOrder:
    """Order two events by pointwise comparison of their size-field graphs,
    as a batch of one; OutOfDomainError where their difference overflows."""
    return list(CausalOrder)[int(causal_compare_batch(x, y))]


def causal_compare_batch(xs, ys):
    """Vectorised causal_compare; returns integer codes (0=equal, 1=y past,
    2=x past, 3=spacelike), the positions of the CausalOrder members, from
    the field of x - y being >= 0 or <= 0 on the sky (`sky.semidefinite`)."""
    with np.errstate(over="ignore", invalid="ignore"):
        # 2 (x - y) has the verdict of x - y, and its transform halves it exactly
        d = spinor.pauli_transform(2.0 * (np.asarray(xs, float) - np.asarray(ys, float)))
    y_past, x_past = skymod.semidefinite(d)
    return np.select([y_past & x_past, y_past, x_past], [0, 1, 2], default=3)


def interval_compare_batch(xs, ys):
    """Classical interval criterion, same codes; the independent oracle.  Each
    difference is scaled exactly, by a power of two, so no square overflows."""
    d = np.asarray(xs, float) - np.asarray(ys, float)
    d = spinor.power_of_two_scaled(d, np.abs(d).max(axis=-1, keepdims=True))[0]
    dt = d[..., 0]
    dr = spinor.euclidean_norm(d[..., 1:])
    equal = (dt == 0.0) & (dr == 0.0)
    y_past = (dt >= dr) & ~equal
    x_past = (-dt >= dr) & ~equal
    return np.select([equal, y_past, x_past], [0, 1, 2], default=3)


class GraphFrame:
    """The graph frame as a verifier frame; everything is exact linear algebra.

    The normal line at a sample is trivialised by the vertical (fiber)
    direction of the height bundle, so probe values come out as plain reals
    with no finite differencing.
    """

    #: Default verifier tolerance: probe values are exact up to rounding.
    PROBE_TOL = 1e-9
    #: No target slice: events anywhere in flat space have a graph image.
    target_time = None

    def probe_values(self, x, xis, directions) -> ProbeValues:
        """Probe values at the sky points xis (B, 2) of the events x, (4,)
        or (B, 4).

        The contact form is evaluated through the null direction of each
        sky point; the image moves along an event family by the transform
        of the direction (the height is linear in the event), and the sky
        directions are tangent to the graph.  x does not enter.
        """
        xis = skymod.unit_cospinor(np.atleast_2d(xis))
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        null_dirs = spinor.direction_for_cospinor(xis)
        theta = spinor.PAULI_FACTOR * (dirs[:, 0] - null_dirs @ dirs[:, 1:].T)
        every = np.ones(len(xis), dtype=bool)
        return ProbeValues(
            theta=theta,
            rates=celestial_eval(dirs, xis[:, None, :]),
            vertical=np.zeros((len(xis), 2)),
            regular=every,
            arrived=every,
        )
