"""Causal order from sky images on the target 3-manifold.

The past region of an event is its full sky image together with the
interior.  On a chart of t alone (`manifold._t_only`: flat, FLRW, or an
isotropic custom chart ds^2 = N(t)^2 dt^2 - A(t)^2 dx.dx), conformal to
flat space, the image is an exact comoving sphere of radius the integral
of N / A, so regions are analytic balls and every query is closed form;
elsewhere the skies of a query go out in one ray batch (`mesh_regions`),
each image cloud is triangulated over the outward-oriented sky
triangulation, one convex hull per arrival mask of the batch, and
containment is the generalized winding number of the outer mesh at the
vertices of the inner one: 0 outside, +-1 inside and in between on the
surface, so a mesh region, like a ball, is closed.  Two balls about the
mesh's vertex centroid decide most points without it, and a verdict stops
at the first point beyond the bounding ball.

Every distance between points or centres is `separation` (two balls) or
`spinor.euclidean_norm` (rows), scaled where its squares would underflow,
and every verdict widens by one relative slack, `BALL_TOL`.  Regions have
no JSON form.

Finite unions of regions form a join-semilattice under concatenation,
with disjointness from a compact region as the basic open-set predicate.

Experimental: this module encodes a causal order re-derived from sky
images; outside conformally flat cosmologies it can differ from the
path-based relation of general relativity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import frames as fr
from . import manifold as mf
from . import spinor
from .errors import InsufficientSamplesError, NoIntersectionError, OutOfDomainError
from .minkowski import CausalOrder
from .sky import SkySample, sample_sky

#: The one slack of every region verdict, relative to the radii: it widens
#: a ball, both radii of a mesh's shell and the surface band of a mesh, so
#: that verdicts do not depend on the scale of the events.
BALL_TOL = 1e-9

#: Three coordinate differences below this have a finite sum of squares
#: (`separation`).
_SQUARE_SAFE = 2.0**510

#: Points per winding-number pass in Mesh.contains_points; bounds the
#: (points x triangles) temporaries of a query.
MESH_POINT_CHUNK = 128


@dataclass(frozen=True)
class Ball:
    center: np.ndarray  # (3,)
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not self.radius >= 0.0:  # also for NaN
            raise ValueError("ball radius must be non-negative")

    def bounding_sphere(self):
        return self.center, self.radius

    def contains_points(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return spinor.euclidean_norm(pts - self.center) <= self.radius * (1.0 + BALL_TOL)


@dataclass(frozen=True)
class Mesh:
    """Closed oriented triangulated surface; containment is its winding number."""

    vertices: np.ndarray  # (nv, 3)
    triangles: np.ndarray  # (nt, 3) int

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "triangles", np.asarray(self.triangles, dtype=int))

    def _edge_counts(self):
        """How many triangles share each undirected edge."""
        edges = np.sort(self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        return np.unique(edges, axis=0, return_counts=True)[1]

    def is_closed(self) -> bool:
        return bool(np.all(self._edge_counts() == 2))

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self._edge_counts()) + len(self.triangles)

    def bounding_sphere(self):
        with np.errstate(over="ignore", invalid="ignore"):  # inf beyond float range
            center = self.vertices.mean(axis=0)
            radius = float(spinor.euclidean_norm(self.vertices - center).max())
        return center, radius

    def contains_points(self, pts):
        """Whether each point lies in the closed region the mesh bounds.

        Two balls about the vertex centroid c decide most points: beyond
        the bounding radius R a point is outside, and nearer than r, a lower
        bound on the distance from c to the surface, it has c's winding
        number.  In the shell between them, both radii widened by BALL_TOL,
        a point within BALL_TOL R of a triangle is on the surface, so
        contained, also on a sharp edge, and the rest take the winding
        pass.  That geometry multiplies up to four lengths of up to 2 R, so it
        runs on the copy scaled about c by `spinor.power_of_two_scaled`, at
        every R; an R beyond float range raises OutOfDomainError."""
        unit, *ball = self._bounding_ball(pts)
        return unit._shell_verdict(*ball)

    def _bounding_ball(self, pts):
        """The mesh and the points (k, 3) scaled about c to a bounding radius
        in [1/2, 1), the points' distances from c and that radius on the
        scaled copy, and whether each point lies in the widened bounding
        ball: the one prefilter of `contains_points` and `_contains`."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        center, radius = self.bounding_sphere()
        if not radius < math.inf:
            raise OutOfDomainError("the bounding radius of a mesh exceeds float range")
        with np.errstate(over="ignore", invalid="ignore"):  # a point that far is outside
            scaled, e = spinor.power_of_two_scaled(np.vstack([pts, self.vertices]) - center, radius)
            pts, unit = scaled[: len(pts)], Mesh(scaled[len(pts) :], self.triangles)
            dist, radius = spinor.euclidean_norm(pts), np.ldexp(radius, -e)
        return unit, pts, dist, radius, dist <= radius * (1.0 + BALL_TOL)

    def _shell_verdict(self, pts, dist, radius, out):
        """`contains_points` on the scaled copy (self) from its `_bounding_ball`
        prefilter out, which it refines in place and returns."""
        # r: along its computed normal n a triangle lies between the heights
        # of its corners, so a rounded n still bounds its distance from c
        # from below; a plane through c or a degenerate triangle gives 0
        corners = self.vertices[self.triangles]  # (nt, 3, 3)
        normal = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        height = np.einsum("tck,tk->tc", corners, normal)
        gap = np.maximum(np.maximum(height.min(axis=1), -height.max(axis=1)), 0.0)
        gap /= np.maximum(np.linalg.norm(normal, axis=1), np.finfo(float).tiny)
        inner = gap.min(initial=radius)
        # the shell is widened by BALL_TOL on both sides, far above the
        # rounding of a distance, so it holds the whole surface band
        core = dist < inner * (1.0 - BALL_TOL)
        if np.any(core):
            out[core] = self._winding_contains(np.zeros((1, 3)))[0]
        shell = np.flatnonzero(out & ~core)
        shell = shell[self._surface_distance(pts[shell]) > BALL_TOL * radius]
        out[shell] = self._winding_contains(pts[shell])
        return out

    def _surface_distance(self, pts):
        """The least distance from each point (k, 3) to a triangle: to its
        plane where the point projects inside it, else to its nearest edge
        (a degenerate triangle has its edges alone)."""
        corners = [self.vertices[self.triangles[:, i]] for i in range(3)]  # (nt, 3)
        normal = np.cross(corners[1] - corners[0], corners[2] - corners[0])
        area = np.linalg.norm(normal, axis=1)
        edges = [(u, v - u) for u, v in zip(corners, corners[1:] + corners[:1])]
        dot = lambda u, v: np.einsum("ptk,tk->pt", u, v)
        out = np.empty(len(pts))
        for start in range(0, len(pts), MESH_POINT_CHUNK):
            p = pts[start : start + MESH_POINT_CHUNK, None, :]  # (points, 1, 3)
            inside, dist = area > 0.0, np.inf
            for u, e in edges:
                w = p - u  # (points, nt, 3)
                inside = inside & (dot(np.cross(e, w), normal) >= 0.0)
                along = dot(w, e) / np.maximum(np.einsum("tk,tk->t", e, e), np.finfo(float).tiny)
                foot = np.clip(along, 0.0, 1.0)[..., None] * e
                dist = np.minimum(dist, np.linalg.norm(w - foot, axis=-1))
            height = np.abs(dot(p - corners[0], normal)) / np.where(area > 0.0, area, 1.0)
            out[start : start + MESH_POINT_CHUNK] = np.where(inside, height, dist).min(axis=1)
        return out

    def _winding_contains(self, pts):
        """|w| > 1/4 for the generalized winding number w at each point (k, 3):
        the sum of the triangles' solid angles (Van Oosterom & Strackee) over
        4 pi, 0 outside, +-1 inside and about +-1/2 on the surface itself."""
        corners = [self.vertices[self.triangles[:, i]] for i in range(3)]  # (nt, 3)
        dot = lambda u, v: np.einsum("ptk,ptk->pt", u, v)
        w = np.zeros(len(pts))
        for start in range(0, len(pts), MESH_POINT_CHUNK):
            chunk = slice(start, start + MESH_POINT_CHUNK)
            a, b, c = (v - pts[chunk, None, :] for v in corners)  # (points, nt, 3)
            la, lb, lc = (np.sqrt(dot(v, v)) for v in (a, b, c))
            # a point at a corner: atan2(0, 0) = 0 for the triangles that share it
            denom = la * lb * lc + dot(a, b) * lc + dot(a, c) * lb + dot(b, c) * la
            w[chunk] = np.arctan2(dot(a, np.cross(b, c)), denom).sum(axis=1)
        return np.abs(w) / (2 * np.pi) > 0.25


Region = Ball | Mesh


@dataclass(frozen=True)
class ClosedSetUnion:
    """Finite union of regions; the empty union is the semilattice bottom."""

    regions: tuple = ()


def join(b1: ClosedSetUnion, b2: ClosedSetUnion) -> ClosedSetUnion:
    return ClosedSetUnion(regions=tuple(b1.regions) + tuple(b2.regions))


def analytic_region(f: fr.FrameSpec, x) -> Ball | None:
    """Exact ball region when the chart is of t alone, else None.

    Raises OutOfDomainError for an event outside the chart domain (the
    `in_domain` test of `project_batch`, on all four coordinates, before
    any other) or when the radius of an event above the target overflows or
    underflows to 0, and NoIntersectionError below the target or when the
    ball is not strictly inside the chart's spatial bounds (the end-point
    test of `project_batch`)."""
    if not mf._t_only(f.metric):
        return None
    x = np.asarray(x, dtype=float)
    t, cx, cy, cz = event = x.tolist()
    (t_lo, t_hi), (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = f.metric.bounds.tolist()
    if not t_lo < t < t_hi:
        raise OutOfDomainError("an event lies outside the chart domain")
    radius = mf.conformal_time(f.metric, t, f.target_time)
    if (
        f.target_time <= t
        and (t == f.target_time or 0.0 < radius < math.inf)
        and x_lo + radius < cx < x_hi - radius
        and y_lo + radius < cy < y_hi - radius
        and z_lo + radius < cz < z_hi - radius
    ):
        return Ball(center=x[1:], radius=radius)
    # A ball inside the spatial bounds has its centre inside them, so only a
    # failed ball test needs the spatial part of the domain test.
    if not (x_lo < cx < x_hi and y_lo < cy < y_hi and z_lo < cz < z_hi):  # NaN is outside
        raise OutOfDomainError("an event lies outside the chart domain")
    if t < f.target_time:
        raise NoIntersectionError(f"event {event} lies below the target")
    if not 0.0 < radius < math.inf:  # the event lies above the target
        raise OutOfDomainError(f"the past region of {event} {'over' if radius else 'under'}flows")
    raise NoIntersectionError(f"the past region of {event} leaves the chart")


def mesh_regions(f: fr.FrameSpec, events, sample: SkySample | None = None) -> list[Mesh]:
    """Past regions of the events (k, 4), meshed over the convex hulls of
    their arrived sky directions, each triangle turned outward; the k
    skies (default: 400 Fibonacci points each) go out in one project_batch
    call.  Events whose arrival masks match share one hull, whose read-only
    triangle array their meshes hold.  An event with under 90% of its
    samples arrived raises InsufficientSamplesError, or NoIntersectionError
    with none."""
    from scipy.spatial import ConvexHull

    events = np.atleast_2d(np.asarray(events, dtype=float))
    sample = sample_sky(400) if sample is None else sample
    k, n = len(events), sample.n
    rays = np.repeat(events, n, axis=0), np.tile(sample.xi, (k, 1))
    pts, _, ok, _ = fr.project_batch(f, *rays)
    directions, hulls, meshes = sample.directions(), {}, []
    for x, cloud, arrived in zip(events, pts.reshape(k, n, 3), ok.reshape(k, n)):
        if arrived.mean() < 0.9:
            error = InsufficientSamplesError if arrived.any() else NoIntersectionError
            raise error(f"{arrived.sum()}/{n} sky samples of {x.tolist()} arrived")
        triangles = hulls.get(key := arrived.tobytes())
        if triangles is None:
            dirs = directions[arrived]
            triangles = ConvexHull(dirs).simplices.astype(int)
            inward = np.linalg.det(dirs[triangles]) < 0  # the origin is inside the hull
            triangles[inward] = triangles[inward, ::-1]
            triangles.flags.writeable = False  # shared by the meshes of this mask
            hulls[key] = triangles
        meshes.append(Mesh(vertices=cloud[arrived], triangles=triangles))
    return meshes


def past_regions(f: fr.FrameSpec, x, y, sample: SkySample | None = None):
    """The past regions of x and y: analytic balls, or meshes from one batch."""
    balls = analytic_region(f, x), analytic_region(f, y)
    return tuple(mesh_regions(f, [x, y], sample)) if balls[0] is None else balls


def separation(a: Ball, b: Ball) -> float:
    """The distance between the centres of two balls: np.linalg.norm's, bit
    for bit, down to `spinor.SQUARE_UNDERFLOW`, below which the squares
    underflow and `spinor.euclidean_norm` scales them; inf where it overflows.
    The difference is taken in Python floats, which flag no overflow, and
    its sum of squares is d.dot(d), np.linalg.norm's own, under a quiet
    error state only where a square can under- or overflow."""
    (ax, ay, az), (bx, by, bz) = a.center.tolist(), b.center.tolist()
    dx, dy, dz = abs(ax - bx), abs(ay - by), abs(az - bz)  # |d| has d's squares
    d, lo, hi = np.array((dx, dy, dz)), spinor.SQUARE_UNDERFLOW, _SQUARE_SAFE
    if (lo <= dx < hi or not dx) and (lo <= dy < hi or not dy) and (lo <= dz < hi or not dz):
        return math.sqrt(d.dot(d))  # every square is 0 or normal: none flags
    with np.errstate(over="ignore", under="ignore"):  # inf beyond float range
        gap = math.sqrt(d.dot(d))
    return gap if gap >= spinor.SQUARE_UNDERFLOW else float(spinor.euclidean_norm(d))


def _contains(outer: Region, inner: Region) -> bool:
    """Whether the inner region lies in the outer one (closed): exactly for
    two balls, else at the inner region's `_boundary_cloud` points, where an
    outer mesh stops at its bounding-ball prefilter if that puts a point
    outside."""
    if isinstance(outer, Ball) and isinstance(inner, Ball):
        reach = separation(outer, inner) + inner.radius
        if not math.isfinite(reach):
            raise OutOfDomainError("the separation of the past regions overflows")
        return reach <= outer.radius * (1.0 + BALL_TOL)
    if isinstance(outer, Ball):
        return bool(np.all(outer.contains_points(_boundary_cloud(inner))))
    unit, pts, dist, radius, out = outer._bounding_ball(_boundary_cloud(inner))
    return bool(np.all(out) and np.all(unit._shell_verdict(pts, dist, radius, out)))


def in_causal_past(f: fr.FrameSpec, y, x, sample: SkySample | None = None) -> bool:
    """Whether the sky image of y lies inside the past region of x (closed).

    Charts of t alone compare the exact image spheres; other frames
    test the arrived image samples of y against the mesh of x, where a
    sample beyond the bounding ball of x answers False without the shell
    geometry of `Mesh.contains_points`.
    """
    return _contains(*past_regions(f, x, y, sample))


def causal_relation(rx: Region, ry: Region) -> CausalOrder:
    """The CausalOrder of two events from their past regions rx and ry."""
    return CausalOrder.of(_contains(rx, ry), _contains(ry, rx))


def locale_disjoint(b: ClosedSetUnion, k: Region) -> bool:
    """Membership of b in the basic open set of sets missing the compact k."""
    return all(_regions_disjoint(r, k) for r in b.regions)


def _regions_disjoint(a: Region, b: Region) -> bool:
    if isinstance(a, Ball) and isinstance(b, Ball):
        return separation(a, b) > (a.radius + b.radius) * (1.0 + BALL_TOL)
    return _sampled_disjoint(a, b)


def _boundary_cloud(r: Region):
    if isinstance(r, Ball):
        dirs = sample_sky(128).directions()
        return r.center + r.radius * dirs
    return r.vertices


def _sampled_disjoint(a: Region, b: Region) -> bool:
    (ca, ra), (cb, rb) = a.bounding_sphere(), b.bounding_sphere()
    if _regions_disjoint(Ball(ca, ra), Ball(cb, rb)):
        return True
    pa, pb = _boundary_cloud(a), _boundary_cloud(b)
    # Solid regions: mutual containment of boundary samples means overlap.
    if np.any(b.contains_points(pa)) or np.any(a.contains_points(pb)):
        return False
    sep = spinor.euclidean_norm(pa[:, None, :] - pb[None, :, :]).min()
    return bool(sep > (ra + rb) * BALL_TOL)
