"""Causal order from sky images on the target 3-manifold.

The past region of an event is its full sky image together with the
interior.  For conformally flat charts the image is an exact comoving
sphere, so regions are analytic balls and every query is closed form; for
general frames the image sample cloud is triangulated over the sky
triangulation and membership falls back to ray-casting parity.

Finite unions of regions form a join-semilattice under concatenation,
with disjointness from a compact region as the basic open-set predicate.

Experimental: this module encodes a causal order re-derived from sky
images; outside conformally flat cosmologies it can differ from the
path-based relation of general relativity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import frames as fr
from . import manifold as mf
from .errors import InsufficientSamplesError
from .sky import SkySample, sample_sky

#: Closed-containment slack for analytic balls.
BALL_TOL = 1e-9

#: Points per ray-parity pass in Mesh.contains_points; bounds the
#: (points x triangles) temporaries of a query.
MESH_POINT_CHUNK = 128

_RAY_DIRECTIONS = np.array(
    [
        [0.57735027, 0.57735027, 0.57735027],
        [0.85065081, -0.52573111, 0.0],
        [-0.23907380, 0.36604169, 0.89938078],
    ]
)


@dataclass(frozen=True)
class Ball:
    center: np.ndarray  # (3,)
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius < 0.0:
            raise ValueError("ball radius must be non-negative")

    def contains_points(self, pts, tol=BALL_TOL):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.linalg.norm(pts - self.center, axis=-1) <= self.radius + tol

    def to_json_dict(self):
        return {
            "kind": "ball",
            "center": [float(c) for c in self.center],
            "radius": float(self.radius),
        }


@dataclass(frozen=True)
class Mesh:
    """Closed triangulated surface; containment is odd ray-crossing parity."""

    vertices: np.ndarray  # (nv, 3)
    triangles: np.ndarray  # (nt, 3) int

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "triangles", np.asarray(self.triangles, dtype=int))

    def is_closed(self) -> bool:
        edges = {}
        for tri in self.triangles:
            for a, b in ((0, 1), (1, 2), (2, 0)):
                key = tuple(sorted((int(tri[a]), int(tri[b]))))
                edges[key] = edges.get(key, 0) + 1
        return all(count == 2 for count in edges.values())

    def euler_characteristic(self) -> int:
        edges = set()
        for tri in self.triangles:
            for a, b in ((0, 1), (1, 2), (2, 0)):
                edges.add(tuple(sorted((int(tri[a]), int(tri[b])))))
        return len(self.vertices) - len(edges) + len(self.triangles)

    def bounding_sphere(self):
        center = self.vertices.mean(axis=0)
        radius = float(np.linalg.norm(self.vertices - center, axis=-1).max())
        return center, radius

    def contains_points(self, pts, tol=BALL_TOL):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        votes = np.zeros(len(pts), dtype=int)
        for start in range(0, len(pts), MESH_POINT_CHUNK):
            chunk = slice(start, start + MESH_POINT_CHUNK)
            for d in _RAY_DIRECTIONS:
                votes[chunk] += _ray_parity(self, pts[chunk], d)
        return votes >= 2

    def to_json_dict(self):
        return {
            "kind": "mesh",
            "vertices": [[float(c) for c in v] for v in self.vertices],
            "triangles": [[int(i) for i in t] for t in self.triangles],
        }


def _ray_parity(mesh: Mesh, pts, direction):
    """1 where a ray from each point crosses the surface an odd number of times.

    Vectorised Moller-Trumbore over (points x triangles).
    """
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    e1 = mesh.vertices[mesh.triangles[:, 1]] - v0
    e2 = mesh.vertices[mesh.triangles[:, 2]] - v0
    d = np.asarray(direction, dtype=float)
    p = np.cross(d, e2)  # (nt, 3)
    det = np.einsum("tk,tk->t", e1, p)
    good = np.abs(det) > 1e-14
    inv = np.where(good, 1.0 / np.where(good, det, 1.0), 0.0)
    s = pts[:, None, :] - v0[None, :, :]  # (np, nt, 3)
    uu = np.einsum("ptk,tk->pt", s, p) * inv
    q = np.cross(s, e1[None, :, :])
    vv = np.einsum("ptk,k->pt", q, d) * inv
    tt = np.einsum("ptk,tk->pt", q, e2) * inv
    hit = (
        good[None, :]
        & (uu >= 0.0)
        & (vv >= 0.0)
        & (uu + vv <= 1.0)
        & (tt > 1e-12)
    )
    return hit.sum(axis=1) % 2


Region = Ball | Mesh


@dataclass(frozen=True)
class ClosedSetUnion:
    """Finite union of regions; the empty union is the semilattice bottom."""

    regions: tuple = ()


def join(b1: ClosedSetUnion, b2: ClosedSetUnion) -> ClosedSetUnion:
    return ClosedSetUnion(regions=tuple(b1.regions) + tuple(b2.regions))


def analytic_region(f: fr.FrameSpec, x) -> Ball | None:
    """Exact ball region when the chart is conformally flat, else None."""
    x = np.asarray(x, dtype=float)
    if f.metric.kind == "minkowski":
        return Ball(center=x[1:], radius=float(x[0] - f.target.t0))
    if f.metric.kind == "flrw":
        eta = mf.conformal_time(f.metric, float(x[0]))
        eta_t = (
            0.0
            if f.target.kind == "singularity"
            else mf.conformal_time(f.metric, f.target.t0)
        )
        return Ball(center=x[1:], radius=eta - eta_t)
    return None


def region_of(f: fr.FrameSpec, x, sample: SkySample | None = None,
              representation="auto") -> Region:
    """The past region of x: its full sky image together with the interior."""
    if representation not in ("auto", "ball", "mesh"):
        raise ValueError(f"unknown representation {representation!r}")
    if representation in ("auto", "ball"):
        ball = analytic_region(f, x)
        if ball is not None:
            return ball
        if representation == "ball":
            raise ValueError("no analytic ball for this frame")
    if sample is None:
        sample = sample_sky(400)
    image = fr.sky_image(f, x, sample, with_rank=False)
    ok = image.ok_mask
    if ok.mean() < 0.9:
        raise InsufficientSamplesError(
            f"only {int(ok.sum())}/{sample.n} samples reached the target"
        )
    return mesh_from_image(image)


def mesh_from_image(image: fr.SkyImage) -> Mesh:
    """Triangulate the image cloud over the sphere triangulation of the sky."""
    from scipy.spatial import ConvexHull

    ok = image.ok_mask
    dirs = image.sample.directions()[ok]
    hull = ConvexHull(dirs)
    return Mesh(vertices=image.m_points[ok], triangles=hull.simplices)


def in_causal_past(f: fr.FrameSpec, y, x, sample: SkySample | None = None) -> bool:
    """Whether the sky image of y lies inside the past region of x (closed).

    Conformally flat charts compare the exact image spheres; other frames
    test every image sample of y against the region by ray parity.
    """
    ball_x = analytic_region(f, x)
    ball_y = analytic_region(f, y)
    if ball_x is not None and ball_y is not None:
        gap = float(np.linalg.norm(ball_x.center - ball_y.center))
        return gap + ball_y.radius <= ball_x.radius + BALL_TOL
    region_x = region_of(f, x, sample=sample)
    if sample is None:
        sample = sample_sky(400)
    image_y = fr.sky_image(f, y, sample, with_rank=False)
    ok = image_y.ok_mask
    if ok.mean() < 0.9:
        raise InsufficientSamplesError("sky image of y is mostly missing")
    return bool(np.all(region_x.contains_points(image_y.m_points[ok])))


def locale_disjoint(b: ClosedSetUnion, k: Region) -> bool:
    """Membership of b in the basic open set of sets missing the compact k."""
    return all(_regions_disjoint(r, k) for r in b.regions)


def _regions_disjoint(a: Region, b: Region) -> bool:
    if isinstance(a, Ball) and isinstance(b, Ball):
        gap = float(np.linalg.norm(a.center - b.center))
        return gap > a.radius + b.radius + BALL_TOL
    return _sampled_disjoint(a, b)


def _bounding(r: Region):
    if isinstance(r, Ball):
        return r.center, r.radius
    return r.bounding_sphere()


def _boundary_cloud(r: Region):
    if isinstance(r, Ball):
        dirs = sample_sky(128).directions()
        return r.center + r.radius * dirs
    return r.vertices


def _strictly_inside(r: Region, pts):
    if isinstance(r, Ball):
        return r.contains_points(pts, tol=-BALL_TOL)
    return r.contains_points(pts)


def _sampled_disjoint(a: Region, b: Region) -> bool:
    ca, ra = _bounding(a)
    cb, rb = _bounding(b)
    if float(np.linalg.norm(ca - cb)) > ra + rb + BALL_TOL:
        return True
    pa, pb = _boundary_cloud(a), _boundary_cloud(b)
    # Solid regions: mutual containment of boundary samples means overlap.
    if np.any(_strictly_inside(b, pa)) or np.any(_strictly_inside(a, pb)):
        return False
    sep = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=-1).min()
    return bool(sep > BALL_TOL)
