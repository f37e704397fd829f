import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyframes import causality as ca
from skyframes import frames as fr
from skyframes import manifold as mf
from skyframes import minkowski as mk
from skyframes import sky
from skyframes.errors import (
    InsufficientSamplesError,
    NoIntersectionError,
    OutOfDomainError,
)


@pytest.fixture(scope="module")
def flrw_frame():
    return fr.FrameSpec(metric=mf.MetricSpec.flrw(p=2 / 3), target=fr.Singularity())


def eta(t, p=2 / 3):
    return t ** (1 - p) / (1 - p)


def random_flrw_events(rng, n):
    out = np.empty((n, 4))
    out[:, 0] = rng.uniform(0.05, 1.5, size=n)
    out[:, 1:] = rng.uniform(-4, 4, size=(n, 3))
    return out


class TestRegionOf:
    def test_cosmology_ball(self, flrw_frame):
        region = ca.analytic_region(flrw_frame, [1.0, 0, 0, 0])
        assert isinstance(region, ca.Ball)
        assert np.allclose(region.center, 0.0)
        assert region.radius == pytest.approx(3.0, rel=1e-12)

    def test_event_on_surface_gives_degenerate_ball(self):
        spec = fr.FrameSpec(
            metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.5)
        )
        region = ca.analytic_region(spec, [0.5, 1.0, 2.0, 3.0])
        assert region.radius == pytest.approx(0.0)
        assert np.allclose(region.center, [1, 2, 3])

    def test_mesh_is_closed_sphere(self, flrw_frame):
        [region] = ca.mesh_regions(flrw_frame, [[1.0, 0, 0, 0]], sky.sample_sky(200))
        assert isinstance(region, ca.Mesh)
        assert region.is_closed()
        assert region.euler_characteristic() == 2

    def test_insufficient_samples(self):
        spec = fr.FrameSpec(
            metric=mf.MetricSpec.minkowski(
                bounds=[[-np.inf, np.inf], [-0.2, 0.2], [-10, 10], [-10, 10]]
            ),
            target=fr.CauchySurface(0.0),
            tracer="numeric",
        )
        with pytest.raises(InsufficientSamplesError):
            ca.mesh_regions(spec, [[1.0, 0, 0, 0]], sky.sample_sky(100))


class TestBallErrors:
    @pytest.mark.parametrize(
        "metric, target, x",
        [
            (mf.MetricSpec.minkowski(), fr.CauchySurface(0.0), [-1.0, 0.0, 0.0, 0.0]),
            (mf.MetricSpec.flrw(p=0.5), fr.CauchySurface(0.5), [0.3, 0.0, 0.0, 0.0]),
        ],
    )
    def test_event_below_the_target(self, metric, target, x):
        # used to end in "ValueError: ball radius must be non-negative"
        spec = fr.FrameSpec(metric=metric, target=target)
        with pytest.raises(NoIntersectionError, match=re.escape(f"event {x}")):
            ca.analytic_region(spec, x)

    @pytest.mark.parametrize(
        "p, radius",
        [(1.5, (0.3**-0.5 - 1.0) / 0.5), (1.0, np.log(1.0 / 0.3))],
        ids=["p1.5", "p1"],
    )
    def test_cauchy_slice_under_a_divergent_conformal_time(self, p, radius):
        # raised DivergentIntegralError: eta was taken from t = 0
        spec = fr.FrameSpec(metric=mf.MetricSpec.flrw(p=p), target=fr.CauchySurface(0.3))
        region = ca.analytic_region(spec, [1.0, 0.5, 0.0, 0.0])
        assert region.radius == pytest.approx(radius, rel=1e-14)
        assert np.array_equal(region.center, [0.5, 0.0, 0.0])

    @pytest.mark.parametrize(
        "x, leaves",
        [([1.0, 2.0, 0.0, 0.0], True), ([0.2, 2.05, 0.5, 0.0], True),
         ([0.5, 0.0, 0.0, 0.0], False), ([1.0, 1.0, 5.0, 0.0], False)],
    )
    def test_ball_outside_the_spatial_bounds(self, x, leaves):
        # the ball about x = 2 reached x = 3 in the box |x| < 2.1
        bounds = [[-np.inf, np.inf], [-2.1, 2.1], [-np.inf, np.inf], [-np.inf, np.inf]]
        spec = fr.FrameSpec(metric=mf.MetricSpec.minkowski(bounds), target=fr.CauchySurface(0.0))
        if leaves:
            with pytest.raises(NoIntersectionError, match=re.escape(f"region of {x}")):
                ca.analytic_region(spec, x)
        else:
            region = ca.analytic_region(spec, x)
            assert region.center.tolist() == x[1:] and region.radius == x[0]

    def test_radius_overflow(self, recwarn):
        spec = fr.FrameSpec(
            metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(-1.7e308)
        )
        with pytest.raises(OutOfDomainError):
            ca.analytic_region(spec, [1e308, 0, 0, 0])
        assert not recwarn.list

    def test_separation_overflow(self, recwarn):
        spec = fr.FrameSpec(
            metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(-1.0)
        )
        x, y = [1.0, 1e308, 0, 0], [0.5, -1e308, 0, 0]
        with pytest.raises(OutOfDomainError):
            ca.in_causal_past(spec, y, x)
        with pytest.raises(OutOfDomainError):
            ca.causal_relation(*ca.past_regions(spec, x, y))
        assert not recwarn.list


class TestBallContainment:
    def test_reach_is_numpys_norm_bit_for_bit(self):
        # the outer radius is set to the reach by np.linalg.norm, give or take
        # an ulp, so any other rounding of the separation flips verdicts
        rng = np.random.default_rng(4)
        verdicts = []
        for _ in range(2000):
            a = ca.Ball(rng.uniform(-4, 4, 3) * 10.0 ** rng.integers(-3, 4), rng.uniform(0, 2))
            gap = rng.normal(size=3) * 10.0 ** rng.integers(-8, 2)
            b = ca.Ball(a.center + gap, rng.uniform(0, 2))
            reach = float(np.linalg.norm(a.center - b.center)) + b.radius
            edge = reach / (1.0 + ca.BALL_TOL)
            for radius in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                outer = ca.Ball(a.center, max(radius, 0.0))
                expected = reach <= outer.radius * (1.0 + ca.BALL_TOL)
                assert ca._contains(outer, b) == expected
                verdicts.append(expected)
        assert 0.2 < np.mean(verdicts) < 0.9


class TestVerdictsAtEveryScale:
    """Both causal paths, the balls of the flat frame on t = 0 and the
    spinor fields of `causal_compare_batch`, give the interval verdict of
    pairs clear of the null cone by 1e-3 of their scale, at every scale:
    their slacks are relative (an absolute slack of 1e-9 made every ball
    contain every other below about 1e-9, and the spinor path's floor of 1
    called spacelike pairs equal below about 1e-12)."""

    FLAT = fr.FrameSpec(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-12, 9), st.integers(0, 2**32 - 1))
    def test_both_paths_match_the_interval_criterion(self, exponent, seed):
        scale, rng = 10.0**exponent, np.random.default_rng(seed)
        events = np.empty((2, 200, 4))
        events[..., 0] = rng.uniform(0.01, 1.0, (2, 200)) * scale
        events[..., 1:] = rng.uniform(-0.5, 0.5, (2, 200, 3)) * scale
        d = events[0] - events[1]
        clear = np.abs(np.abs(d[:, 0]) - np.linalg.norm(d[:, 1:], axis=1)) > 1e-3 * scale
        xs, ys = events[0, clear], events[1, clear]
        expected = mk.interval_compare_batch(xs, ys)
        assert np.array_equal(mk.causal_compare_batch(xs, ys), expected)
        orders = list(mk.CausalOrder)
        balls = [orders.index(ca.causal_relation(*ca.past_regions(self.FLAT, x, y)))
                 for x, y in zip(xs, ys)]
        assert balls == expected.tolist()

    @pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300])
    def test_separations_whose_squares_underflow(self, scale):
        # below about 1.5e-154 a squared separation is subnormal or 0, and
        # the three verdicts called the spacelike pairs equal
        pairs = [
            ([2.0, 0, 0, 0], [2.0, 1.0, 0, 0], 3),
            ([2.0, 0, 0, 0], [1.0, 0, 0.5, 0], 1),
            ([1.0, 0.5, 0, 0], [2.0, 0, 0, 0], 2),
            ([1.0, 0, 0, 0], [1.0, 0, 0, 1e30], 3),
        ]
        xs, ys, codes = zip(*pairs)
        xs, ys = np.array(xs) * scale, np.array(ys) * scale
        assert mk.interval_compare_batch(xs, ys).tolist() == list(codes)
        assert mk.causal_compare_batch(xs, ys).tolist() == list(codes)
        orders = list(mk.CausalOrder)
        balls = [orders.index(ca.causal_relation(*ca.past_regions(self.FLAT, x, y)))
                 for x, y in zip(xs, ys)]
        assert balls == list(codes)

    def test_ball_slacks_at_a_small_scale(self):
        a, b = ca.Ball([0.0, 0, 0], 1e-12), ca.Ball([3e-12, 0, 0], 1e-12)
        assert not a.contains_points([[2e-12, 0, 0]])[0]
        assert a.contains_points([[1e-12, 0, 0]])[0]
        assert ca._regions_disjoint(a, b)
        assert not ca._regions_disjoint(a, ca.Ball([2e-12, 0, 0], 1e-12))
        # the sampled path, which meshes take, slacks the same way at
        # every scale
        for scale in (1e-12, 1.0, 1e9):
            unit = ca.Ball([0.0, 0, 0], scale)
            assert ca._sampled_disjoint(unit, ca.Ball([3 * scale, 0, 0], scale))
            assert not ca._sampled_disjoint(unit, ca.Ball([1.5 * scale, 0, 0], scale))
        spacelike = mk.causal_compare([1e-14, 0, 0, 0], [0.5e-14, 0, 2e-14, 0])
        assert spacelike is mk.CausalOrder.SPACELIKE


def _octahedron(scale):
    """The closed outward-oriented octahedron with vertices at +-scale e_i."""
    vertices = scale * np.vstack([np.eye(3), -np.eye(3)])
    triangles = []
    for sx, sy, sz in np.ndindex(2, 2, 2):
        tri = [sx * 3, 1 + sy * 3, 2 + sz * 3]
        triangles.append(tri if (sx + sy + sz) % 2 == 0 else tri[::-1])
    return ca.Mesh(vertices=vertices, triangles=triangles)


class TestDistancesWhoseSquaresUnderflow:
    """Every distance between points or centres scales below
    `spinor.SQUARE_UNDERFLOW`: two 1e-200 regions 1e-170 apart are disjoint,
    where an unscaled norm read the gap as 0."""

    NEAR, FAR = ca.Ball([0.0, 0, 0], 1e-200), ca.Ball([1e-170, 0, 0], 1e-200)

    def test_ball_containment_of_a_far_point(self):
        assert self.NEAR.contains_points([[1e-170, 0, 0]]).tolist() == [False]
        assert self.NEAR.contains_points([[0.5e-200, 0, 0]]).tolist() == [True]

    def test_two_balls_are_disjoint(self):
        assert ca._regions_disjoint(self.NEAR, self.FAR)
        assert not ca._regions_disjoint(self.NEAR, ca.Ball([1.5e-200, 0, 0], 1e-200))

    def test_the_sampled_path(self):
        assert ca._sampled_disjoint(self.NEAR, self.FAR)

    def test_the_locale(self):
        assert ca.locale_disjoint(ca.ClosedSetUnion(regions=(self.NEAR,)), self.FAR)

    def test_a_small_mesh_holds_no_far_point(self):
        mesh = _octahedron(1e-200)
        assert mesh.is_closed()
        assert mesh.bounding_sphere()[1] == 1e-200
        assert mesh.contains_points([[1e-170, 0, 0]]).tolist() == [False]

    def test_a_small_mesh_and_a_far_ball_are_disjoint(self):
        assert ca._regions_disjoint(_octahedron(1e-200), self.FAR)

    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e-150, 1e-200, 1e-300])
    def test_a_small_mesh_holds_what_it_holds_at_scale_1(self, scale):
        # at 1e-100, 1e-200 and 1e-300 the point just outside a face read as
        # inside, and at 1e-150 the points off the vertices read as outside:
        # the triangle geometry's products of four lengths rounded to 0
        pts = np.array([[0.55, 0.55, 0.55], [0.3, 0.3, 0.3], [0.1, -0.2, 0.05], [1.0, 0, 0]])
        inside = [False, True, True, True]
        assert _octahedron(scale).contains_points(pts * scale).tolist() == inside


class TestInCausalPast:
    def test_conformal_criterion_agreement(self, flrw_frame):
        rng = np.random.default_rng(0)
        xs = random_flrw_events(rng, 10_000)
        ys = random_flrw_events(rng, 10_000)
        gap = np.linalg.norm(xs[:, 1:] - ys[:, 1:], axis=1)
        d_eta = eta(xs[:, 0]) - eta(ys[:, 0])
        margin = np.abs(d_eta - gap)
        keep = margin > 1e-6
        expected = gap[keep] <= d_eta[keep]
        got = np.array(
            [
                ca.in_causal_past(flrw_frame, y, x)
                for x, y in zip(xs[keep], ys[keep])
            ]
        )
        assert np.array_equal(got, expected)

    def test_event_in_its_own_past_region(self, flrw_frame):
        x = np.array([0.8, 1.0, -2.0, 0.5])
        assert ca.in_causal_past(flrw_frame, x, x)

    def test_overlapping_spheres_are_spacelike(self, flrw_frame):
        # separation strictly between the radius gap and the radius sum
        x = np.array([1.0, 0, 0, 0])  # radius 3
        y = np.array([0.5**3, 2.5, 0, 0])  # radius 1.5, |dp| = 2.5
        assert not ca.in_causal_past(flrw_frame, y, x)
        assert not ca.in_causal_past(flrw_frame, x, y)

    def test_transitive_on_constructed_chains(self, flrw_frame):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = np.array([rng.uniform(0.5, 1.5), *rng.uniform(-2, 2, size=3)])
            y = _point_in_past(rng, x)
            z = _point_in_past(rng, y)
            assert ca.in_causal_past(flrw_frame, y, x)
            assert ca.in_causal_past(flrw_frame, z, y)
            assert ca.in_causal_past(flrw_frame, z, x)

    def test_graph_side_predicate_matches_compare_in_flat_space(self):
        # the past predicate restated on graphs: every height of y at or
        # below the height of x over the whole sky
        rng = np.random.default_rng(7)
        sample = sky.sample_sky(2000)
        xs = rng.uniform(-2, 2, size=(10_000, 4))
        ys = rng.uniform(-2, 2, size=(10_000, 4))
        # vectorised heights: n_pairs x n_sky
        import skyframes.spinor as spinor_mod

        ha = np.einsum(
            "pab,na,nb->pn",
            spinor_mod.pauli_transform(xs),
            sample.xi,
            np.conj(sample.xi),
        ).real
        hb = np.einsum(
            "pab,na,nb->pn",
            spinor_mod.pauli_transform(ys),
            sample.xi,
            np.conj(sample.xi),
        ).real
        margin = (ha - hb).min(axis=1)
        keep = np.abs(margin) > 1e-2  # clear of the sampling band
        codes = mk.causal_compare_batch(xs[keep], ys[keep])
        y_past = np.isin(codes, (0, 1))
        assert np.array_equal(y_past, margin[keep] > 0)

    def test_matches_graph_frame_order_in_flat_space(self):
        spec = fr.FrameSpec(
            metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(-10.0)
        )
        rng = np.random.default_rng(2)
        for _ in range(500):
            x, y = rng.uniform(-2, 2, size=(2, 4))
            order = mk.causal_compare(x, y)
            y_past = ca.in_causal_past(spec, y, x)
            assert y_past == (
                order in (mk.CausalOrder.Y_PAST_OF_X, mk.CausalOrder.EQUAL)
            )


    def test_relation_matches_the_two_one_way_verdicts(self):
        spec = fr.FrameSpec(
            metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(-10.0)
        )
        rng = np.random.default_rng(2)
        for _ in range(500):
            x, y = rng.uniform(-2, 2, size=(2, 4))
            expected = mk.CausalOrder.of(
                ca.in_causal_past(spec, y, x), ca.in_causal_past(spec, x, y)
            )
            assert ca.causal_relation(*ca.past_regions(spec, x, y)) is expected


def _point_in_past(rng, x, p=2 / 3):
    eta_x = eta(x[0])
    eta_y = rng.uniform(0.1, 0.9) * eta_x
    t_y = (eta_y * (1 - p)) ** (1 / (1 - p))
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    reach = rng.uniform(0.0, 0.95) * (eta_x - eta_y)
    return np.array([t_y, *(x[1:] + reach * direction)])


class TestMeshPath:
    def test_mesh_and_ball_representations_agree(self, flrw_frame):
        rng = np.random.default_rng(3)
        sample = sky.sample_sky(120)
        agree = checked = 0
        while checked < 1000:
            x = random_flrw_events(rng, 1)[0]
            y = random_flrw_events(rng, 1)[0]
            bx = ca.analytic_region(flrw_frame, x)
            by = ca.analytic_region(flrw_frame, y)
            gap = float(np.linalg.norm(bx.center - by.center))
            margin = bx.radius - by.radius - gap
            # stay clear of the band where mesh discretisation bites
            if abs(margin) < 0.05 * max(bx.radius, 1.0):
                continue
            checked += 1
            ball_ans = ca.in_causal_past(flrw_frame, y, x)
            [mesh_x] = ca.mesh_regions(flrw_frame, [x], sample)
            img_y = fr.sky_image(flrw_frame, y, sample, with_rank=False)
            mesh_ans = bool(np.all(mesh_x.contains_points(img_y.m_points)))
            agree += ball_ans == mesh_ans
        assert agree == checked

    def test_ray_parity_on_a_ball_mesh(self, flrw_frame):
        [mesh] = ca.mesh_regions(flrw_frame, [[1.0, 0, 0, 0]], sky.sample_sky(300))
        inside = np.array([[0, 0, 0], [1.0, 1.0, 1.0], [2.5, 0, 0]])
        outside = np.array([[3.5, 0, 0], [0, 0, -4.0], [10, 10, 10]])
        assert np.all(mesh.contains_points(inside))
        assert not np.any(mesh.contains_points(outside))

    def test_chunked_query_matches_points_one_by_one(self, flrw_frame):
        [mesh] = ca.mesh_regions(flrw_frame, [[1.0, 0, 0, 0]], sky.sample_sky(200))
        rng = np.random.default_rng(8)
        pts = rng.uniform(-4.0, 4.0, size=(3 * ca.MESH_POINT_CHUNK + 17, 3))
        batched = mesh.contains_points(pts)
        single = np.array([mesh.contains_points(p)[0] for p in pts])
        assert np.array_equal(batched, single)
        assert 0 < batched.sum() < len(pts)

    @pytest.mark.parametrize(
        "y, inside",
        [([0.4, 0.1, 0.05, 0.0], True), ([0.4, 0.3, 0.0, 0.0], False)],
    )
    def test_custom_metric_query_matches_exact_verdict(self, y, inside):
        # a(t) = 1 + 0.1 t is conformally flat with eta(t) = 10 ln(1 + 0.1 t),
        # so y is in the past of x exactly when |y - x| <= eta(x) - eta(y)
        metric = mf.metric_from_config(
            {
                "kind": "custom",
                "coeffs": ["1"] + ["-(1 + 0.1*t)**2"] * 3,
                "bounds": [[0, None], [None, None], [None, None], [None, None]],
            }
        )
        f = fr.FrameSpec(metric=metric, target=fr.CauchySurface(0.3))
        x, y = np.array([0.65, 0.0, 0.0, 0.0]), np.array(y)
        eta_custom = lambda t: 10.0 * np.log1p(0.1 * t)
        exact = np.linalg.norm(y[1:] - x[1:]) <= eta_custom(x[0]) - eta_custom(y[0])
        assert exact == inside
        assert ca.in_causal_past(f, y, x, sky.sample_sky(48)) is inside

    def test_custom_metric_event_is_in_its_own_past_region(self):
        # the parity vote held 174 of the 400 vertices of this mesh
        f = fr.FrameSpec(
            metric=mf.metric_from_config(README_METRIC), target=fr.CauchySurface(0.3)
        )
        x = [0.6, 0.0, 0.0, 0.0]
        assert ca.in_causal_past(f, x, x)
        assert ca.causal_relation(*ca.past_regions(f, x, x)) is mk.CausalOrder.EQUAL

    @pytest.mark.parametrize(
        "ball, ball_holds_mesh, mesh_holds_ball",
        [
            (ca.Ball([0, 0, 0], 2.0), True, False),  # the mesh deep inside the ball
            (ca.Ball([0, 0, 0], 0.1), False, True),  # the ball deep inside the mesh
            (ca.Ball([3, 0, 0], 0.5), False, False),  # apart
            (ca.Ball([0.3, 0, 0], 0.1), False, False),  # across the mesh's surface
        ],
        ids=["mesh-in-ball", "ball-in-mesh", "apart", "across"],
    )
    def test_a_ball_and_a_mesh_compare_in_both_orders(
        self, ball, ball_holds_mesh, mesh_holds_ball
    ):
        # (Ball, Mesh) raised AttributeError on Mesh.center and (Mesh, Ball)
        # on Ball.vertices; the mesh is the sky image of radius
        # 10 ln(1.06 / 1.03) = 0.287 about the origin
        f = fr.FrameSpec(
            metric=mf.metric_from_config(README_METRIC), target=fr.CauchySurface(0.3)
        )
        [mesh] = ca.mesh_regions(f, [[0.6, 0.0, 0.0, 0.0]], sky.sample_sky(48))
        radii = np.linalg.norm(mesh.vertices, axis=1)
        assert np.allclose(radii, 10.0 * np.log(1.06 / 1.03), rtol=1e-6)
        order = mk.CausalOrder.of(ball_holds_mesh, mesh_holds_ball)
        assert ca.causal_relation(ball, mesh) is order
        assert ca.causal_relation(mesh, ball) is mk.CausalOrder.of(mesh_holds_ball, ball_holds_mesh)

    def test_dented_mesh_matches_its_radial_oracle(self):
        mesh, radius = _dented_mesh(sky.sample_sky(400))
        rng = np.random.default_rng(9)
        pts = rng.uniform(-1.4, 1.4, size=(6000, 3))
        norms = np.linalg.norm(pts, axis=1)
        r = radius(pts / norms[:, None])
        keep = np.abs(norms - r) > 0.05
        assert np.array_equal(mesh.contains_points(pts[keep]), norms[keep] < r[keep])
        assert np.all(mesh.contains_points(mesh.vertices))

    def test_every_directed_edge_appears_once(self, flrw_frame):
        [mesh] = ca.mesh_regions(flrw_frame, [[1.0, 0, 0, 0]], sky.sample_sky(200))
        edges = mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        assert len(np.unique(edges, axis=0)) == len(edges)
        assert set(map(tuple, edges)) == set(map(tuple, edges[:, ::-1]))

    def test_no_points_give_an_empty_answer(self, flrw_frame):
        [mesh] = ca.mesh_regions(flrw_frame, [[1.0, 0, 0, 0]], sky.sample_sky(60))
        inside = mesh.contains_points(np.empty((0, 3)))
        assert inside.shape == (0,) and inside.dtype == bool


def _radial_mesh(sample, radius, center=(0.0, 0.0, 0.0)):
    """The outward-oriented sky triangulation with the vertex of each sky
    direction d at center + radius(d) d."""
    from scipy.spatial import ConvexHull

    dirs = sample.directions()
    triangles = ConvexHull(dirs).simplices
    inward = np.linalg.det(dirs[triangles]) < 0
    triangles[inward] = triangles[inward, ::-1]
    return ca.Mesh(vertices=np.add(center, radius(dirs)[:, None] * dirs), triangles=triangles)


def _dented_mesh(sample):
    """A star-shaped, non-convex mesh over the sky and its radius function."""

    def radius(d):
        return 1.0 - 0.4 * np.exp(-6.0 * np.sum((d - [1.0, 0.0, 0.0]) ** 2, axis=-1))

    return _radial_mesh(sample, radius), radius


def _sphere(sample, radius=1.0, center=(0.0, 0.0, 0.0)):
    return _radial_mesh(sample, lambda d: np.full(len(d), radius), center)


def _plane_radius(mesh):
    """The least distance from the vertex centroid to a triangle's plane."""
    c = mesh.vertices.mean(axis=0)
    a, b, d = (mesh.vertices[mesh.triangles[:, i]] for i in range(3))
    n = np.cross(b - a, d - a)
    return float(np.min(np.abs(np.sum(n * (a - c), axis=1)) / np.linalg.norm(n, axis=1)))


@pytest.fixture
def pass_points(monkeypatch):
    """Points per winding pass of Mesh.contains_points."""
    calls = []
    original = ca.Mesh._winding_contains

    def counting(mesh, pts):
        calls.append(len(pts))
        return original(mesh, pts)

    monkeypatch.setattr(ca.Mesh, "_winding_contains", counting)
    return calls


#: 11^3 points over a box around the unit sphere.
GRID = np.stack(np.meshgrid(*[np.linspace(-1.3, 1.3, 11)] * 3), axis=-1).reshape(-1, 3)


class TestBallPrefilter:
    """Mesh.contains_points against the winding pass alone."""

    @staticmethod
    def _agrees(mesh, pts):
        got = mesh.contains_points(pts)
        assert np.array_equal(got, mesh._winding_contains(pts))
        return got

    def test_balls_decide_the_points_off_the_shell(self, pass_points):
        mesh = _sphere(sky.sample_sky(200))
        got = self._agrees(mesh, GRID)
        # the centroid once, then the shell points alone
        assert pass_points[0] == 1 and pass_points[1] < 0.05 * len(GRID)
        assert 0 < got.sum() < len(GRID)

    def test_shell_point_and_points_at_distance_r(self, pass_points):
        mesh = _sphere(sky.sample_sky(200))
        c, big = mesh.bounding_sphere()
        r = _plane_radius(mesh)
        assert 0.9 < r < big
        u = np.array([0.6, 0.0, 0.8])
        shell = c + np.outer([r, r * (1 + 1e-6), (r + big) / 2], u)
        assert np.all(self._agrees(mesh, shell)[:2])
        assert pass_points[0] == 3
        core = (c + r * (1 - 1e-6) * u)[None]
        assert np.all(self._agrees(mesh, core))
        assert pass_points[2] == 1  # the centroid alone

    def test_points_beyond_the_bounding_radius_are_outside(self, pass_points):
        mesh = _sphere(sky.sample_sky(200))
        c, big = mesh.bounding_sphere()
        dirs = sky.sample_sky(50).directions()
        pts = c + big * np.concatenate([(1 + 1e-6) * dirs, 3.0 * dirs, 1e6 * dirs])
        assert not np.any(self._agrees(mesh, pts))
        assert pass_points[0] == 0

    def test_dented_mesh(self):
        mesh, _ = _dented_mesh(sky.sample_sky(400))
        got = self._agrees(mesh, GRID)
        assert 0 < got.sum() < len(GRID)

    def test_two_spheres_whose_centroid_is_outside(self, pass_points):
        sample = sky.sample_sky(120)
        left, right = (_sphere(sample, 0.5, (x, 0.0, 0.0)) for x in (-0.7, 0.7))
        mesh = ca.Mesh(
            vertices=np.vstack([left.vertices, right.vertices]),
            triangles=np.vstack([left.triangles, right.triangles + len(left.vertices)]),
        )
        c, _ = mesh.bounding_sphere()
        assert not mesh._winding_contains(c[None])[0]
        got = self._agrees(mesh, GRID)
        assert pass_points[1] == 1  # the centroid decided points near it
        assert 0 < got.sum() < len(GRID)

    def test_mesh_with_a_degenerate_triangle(self, pass_points):
        # a vertex on an edge of the first triangle, which splits into two,
        # with the sliver (b, m, a) closing the surface
        mesh = _sphere(sky.sample_sky(200))
        (a, b, d), m = mesh.triangles[0], len(mesh.vertices)
        sliver = ca.Mesh(
            vertices=np.vstack([mesh.vertices, (mesh.vertices[a] + mesh.vertices[b]) / 2]),
            triangles=np.vstack([mesh.triangles[1:], [[a, m, d], [m, b, d], [b, m, a]]]),
        )
        assert sliver.is_closed()
        c, big = sliver.bounding_sphere()
        self._agrees(sliver, GRID)
        # r is 0, so every point within R takes the pass
        assert pass_points[0] == np.count_nonzero(np.linalg.norm(GRID - c, axis=1) <= big)

    def test_vertices_are_contained_without_the_pass(self, pass_points):
        mesh, _ = _dented_mesh(sky.sample_sky(400))
        assert np.all(mesh.contains_points(mesh.vertices))
        assert pass_points == [0]


#: A closed outward-oriented tetrahedron whose edge (0, 0, 0)-(1, 0, 0) has
#: an interior dihedral angle of 0.1 rad, so its winding number there is
#: about 0.1 / 2 pi, below the pass's 1/4.
SHARP = ca.Mesh(
    vertices=[[0, 0, 0], [1.0, 0, 0], [0.5, 1.0, 0.05], [0.5, 1.0, -0.05]],
    triangles=[[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]],
)


class TestSurfacePoints:
    """A shell point within BALL_TOL R of a triangle is on the surface."""

    def test_sharp_tetrahedron_is_closed_and_outward(self):
        assert SHARP.is_closed()
        assert SHARP._winding_contains(np.array([[0.5, 0.5, 0.0]]))[0]
        a, b, c = (SHARP.vertices[SHARP.triangles[:, i]] for i in range(3))
        assert np.einsum("tk,tk->t", a, np.cross(b, c)).sum() > 0.0  # six times the volume

    def test_midpoint_of_a_sharp_edge_is_contained(self, pass_points):
        edge = np.array([[0.5, 0.0, 0.0]])
        assert not SHARP._winding_contains(edge)[0]
        assert SHARP.contains_points(edge).tolist() == [True]
        assert pass_points[-1] == 0

    def test_face_centre_is_contained(self, pass_points):
        centre = SHARP.vertices[SHARP.triangles[0]].mean(axis=0)[None]
        assert SHARP.contains_points(centre).tolist() == [True]
        assert pass_points[-1] == 0

    def test_points_off_the_surface_take_the_pass(self, pass_points):
        _, radius = SHARP.bounding_sphere()
        off = 10 * ca.BALL_TOL * radius
        pts = np.array([[0.5, -off, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.1]])
        assert SHARP.contains_points(pts).tolist() == [False, True, False]
        assert pass_points[-1] == 2  # (0.5, 0.5, 0) is the centroid c, in the core

    def test_distance_to_a_degenerate_triangle_is_to_its_edges(self):
        mesh = ca.Mesh(vertices=[[0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]], triangles=[[0, 1, 2]])
        pts = np.array([[0.5, 0.0, 0.0], [1.5, 2.0, 0.0], [3.0, 0.0, 0.0]])
        with np.errstate(all="raise"):
            assert np.allclose(mesh._surface_distance(pts), [0.0, 2.0, 1.0], rtol=0, atol=1e-15)


README_METRIC = {
    "kind": "custom",
    "coeffs": ["1"] + ["-(1 + 0.1*t)**2"] * 3,
    "bounds": [[0, None], [None, None], [None, None], [None, None]],
}


@pytest.fixture
def project_calls(monkeypatch):
    """Rays per frames.project_batch call."""
    calls = []
    original = fr.project_batch

    def counting(f, events, xis):
        calls.append(len(events))
        return original(f, events, xis)

    monkeypatch.setattr(fr, "project_batch", counting)
    return calls


class TestOneRayBatch:
    F = fr.FrameSpec(
        metric=mf.metric_from_config(README_METRIC), target=fr.CauchySurface(0.3)
    )

    def test_query_traces_both_skies_in_one_batch(self, project_calls):
        # the sky of x and the sky of y used to go out in two batches
        x, y = [0.65, 0.0, 0.0, 0.0], [0.4, 0.1, 0.05, 0.0]
        assert ca.in_causal_past(self.F, y, x, sky.sample_sky(48))
        assert project_calls == [2 * 48]

    @pytest.mark.parametrize(
        "y, expected",
        [
            ([0.4, 0.1, 0.05, 0.0], mk.CausalOrder.Y_PAST_OF_X),
            ([0.4, 0.3, 0.0, 0.0], mk.CausalOrder.SPACELIKE),
        ],
    )
    def test_relation_from_one_batch(self, project_calls, y, expected):
        x = [0.65, 0.0, 0.0, 0.0]
        assert ca.causal_relation(*ca.past_regions(self.F, x, y, sky.sample_sky(48))) is expected
        assert project_calls == [2 * 48]

    def test_mesh_regions_default_to_400_samples(self, project_calls):
        events = [[0.6, 0, 0, 0], [0.5, 0.1, 0, 0], [0.7, 0, 0, 0]]
        meshes = ca.mesh_regions(self.F, events)
        assert project_calls == [3 * 400]
        assert [len(m.vertices) for m in meshes] == [400] * 3
        assert all(m.is_closed() for m in meshes)

    def test_event_with_no_arrived_sample_is_named(self):
        with pytest.raises(NoIntersectionError, match=r"0/16 sky samples of \[0\.2, "):
            ca.mesh_regions(self.F, [[0.6, 0, 0, 0], [0.2, 0, 0, 0]], sky.sample_sky(16))


class TestLocale:
    def test_empty_union_is_disjoint_from_everything(self):
        k = ca.Ball(center=[0, 0, 0], radius=5.0)
        assert ca.locale_disjoint(ca.ClosedSetUnion(), k)

    def test_separated_balls(self):
        b = ca.ClosedSetUnion(regions=(ca.Ball(center=[0, 0, 0], radius=1.0),))
        assert ca.locale_disjoint(b, ca.Ball(center=[3, 0, 0], radius=1.0))

    def test_overlapping_balls(self):
        b = ca.ClosedSetUnion(regions=(ca.Ball(center=[0, 0, 0], radius=2.0),))
        assert not ca.locale_disjoint(b, ca.Ball(center=[3, 0, 0], radius=1.5))

    def test_join_laws_against_disjointness(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            balls = [
                ca.Ball(center=rng.uniform(-3, 3, size=3), radius=rng.uniform(0.1, 1))
                for _ in range(3)
            ]
            b1 = ca.ClosedSetUnion(regions=(balls[0],))
            b2 = ca.ClosedSetUnion(regions=(balls[1],))
            k = balls[2]
            joined = ca.join(b1, b2)
            assert ca.locale_disjoint(joined, k) == (
                ca.locale_disjoint(b1, k) and ca.locale_disjoint(b2, k)
            )
            assert ca.locale_disjoint(ca.join(b1, ca.ClosedSetUnion()), k) == (
                ca.locale_disjoint(b1, k)
            )
            assert ca.locale_disjoint(ca.join(b1, b1), k) == ca.locale_disjoint(b1, k)

    def test_mesh_disjointness(self, flrw_frame):
        sample = sky.sample_sky(80)
        mesh_far, mesh_in = ca.mesh_regions(
            flrw_frame, [[0.2**1.5, 9.0, 9.0, 9.0], [0.2**1.5, 0.0, 0.0, 0.0]], sample
        )
        big = ca.Ball(center=[0, 0, 0], radius=3.0)
        assert ca.locale_disjoint(ca.ClosedSetUnion(regions=(mesh_far,)), big)
        assert not ca.locale_disjoint(ca.ClosedSetUnion(regions=(mesh_in,)), big)

