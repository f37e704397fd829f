import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyframes import causality as ca
from skyframes import frames as fr
from skyframes import manifold as mf
from skyframes import minkowski as mk
from skyframes import sky, spinor
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


#: A sky point (a unit covector) for a one-ray batch.
XI_ONE = np.array([[1.0 + 0j, 0.0 + 0j]])


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_non_finite_spatial_coordinate_is_out_of_domain(self, flrw_frame, bad, axis):
        # raised NoIntersectionError ("leaves the chart") while the ray path
        # raised OutOfDomainError for the same event
        x = [1.0, 0.0, 0.0, 0.0]
        x[axis] = bad
        message = "an event lies outside the chart domain"
        with pytest.raises(OutOfDomainError, match=message):
            fr.project_batch(flrw_frame, [x], XI_ONE)
        with pytest.raises(OutOfDomainError, match=message):
            ca.analytic_region(flrw_frame, x)
        with pytest.raises(OutOfDomainError, match=message):
            ca.in_causal_past(flrw_frame, [0.5, 0.0, 0.0, 0.0], x)

    def test_event_outside_a_box_chart_is_out_of_domain(self):
        bounds = [[-np.inf, np.inf], [-2.1, 2.1], [-np.inf, np.inf], [-np.inf, np.inf]]
        spec = fr.FrameSpec(metric=mf.MetricSpec.minkowski(bounds), target=fr.CauchySurface(0.0))
        with pytest.raises(OutOfDomainError, match="an event lies outside the chart domain"):
            ca.analytic_region(spec, [1.0, 3.0, 0.0, 0.0])

    @pytest.mark.parametrize("radius", [np.nan, -1.0, -1e-300])
    def test_ball_refuses_a_nan_or_negative_radius(self, radius):
        # a NaN radius constructed: the check was radius < 0
        with pytest.raises(ValueError, match="ball radius must be non-negative"):
            ca.Ball([0.0, 0.0, 0.0], radius)

    def test_radius_overflow(self, recwarn):
        spec = fr.FrameSpec(
            metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(-1.7e308)
        )
        with pytest.raises(OutOfDomainError):
            ca.analytic_region(spec, [1e308, 0, 0, 0])
        assert not recwarn.list

    @pytest.mark.parametrize(
        "p, target, above, on",
        [(3.0, 1e300, [1.5e308, 0.0, 0.0, 0.0], [1e300, 0.0, 0.0, 0.0]),
         (-1.0, 1e-300, [1.5e-300, 0.0, 0.0, 0.0], [1e-300, 0.0, 0.0, 0.0])],
        ids=["p3", "p-1"],
    )
    def test_radius_that_underflows(self, p, target, above, on):
        # the radius of the event above the target (about 5e-601 and 6e-601)
        # was 0, as was that of the event on it, so the two read equal
        spec = fr.FrameSpec(metric=mf.MetricSpec.flrw(p=p), target=fr.CauchySurface(target))
        assert ca.analytic_region(spec, on).radius == 0.0
        with pytest.raises(OutOfDomainError, match=re.escape(f"region of {above} underflows")):
            ca.analytic_region(spec, above)
        with pytest.raises(OutOfDomainError):
            ca.causal_relation(*ca.past_regions(spec, above, on))

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

    def test_separation_whose_square_overflows(self):
        # finite centres 2^520 apart: d.dot(d) overflowed outside the quiet
        # block, so a RuntimeWarning came before the typed error
        x, y = np.ldexp([2.0, 1.0, 0, 0], 520), np.ldexp([1.0, 0.0, 0, 0], 520)
        spec = fr.FrameSpec(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rx, ry = ca.past_regions(spec, x, y)
            assert ca.separation(rx, ry) == np.inf
            with pytest.raises(OutOfDomainError, match="separation of the past regions"):
                ca.causal_relation(rx, ry)

    def test_separation_is_numpys_norm_at_powers_of_two(self):
        # seeded centres scaled by 2^k, down to where the squares underflow
        # (`spinor.euclidean_norm` scales them there) and up past 1e150
        # apart, where the squares leave the fast path, to an infinite norm
        rng = np.random.default_rng(44)
        apart = []
        for k in (*range(-505, 1023, 9), *range(495, 516)):  # 2^495 is 1e149
            for a, b in np.ldexp(rng.uniform(-1.0, 1.0, (20, 2, 3)), k):
                with np.errstate(over="ignore"):
                    want = np.linalg.norm(a - b)
                if want >= spinor.SQUARE_UNDERFLOW:
                    got = ca.separation(ca.Ball(a, 1.0), ca.Ball(b, 1.0))
                    assert np.float64(got).tobytes() == want.tobytes(), (k, a, b)
                    apart.append(want)
        apart = np.array(apart)
        assert apart.min() < 1e-150 and apart.max() == np.inf
        assert np.count_nonzero((1e150 <= apart) & (apart < np.inf)) > 100

    @pytest.mark.parametrize("far", [([5e307, 0, 0], [-5e307, 0, 0]), ([1e308, 0, 0], [-1e308, 0, 0])],
                             ids=["square-overflows", "difference-overflows"])
    def test_far_centres_raise_no_floating_point_error(self, far):
        a, b = (ca.Ball(c, 1.0) for c in far)
        with np.errstate(all="raise"):
            assert ca.separation(a, b) == np.inf
            with pytest.raises(OutOfDomainError, match="separation of the past regions"):
                ca._contains(a, b)


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


class TestPowersOfTwo:
    """Flat space on t = 0 is scale-invariant: seeded events on a 2^-4 grid,
    of size at most 4, scaled by 2^k for k from -1070 to 1016, with warnings
    as errors.  Such a scaling is exact (2^k times them is a multiple of
    2^-1074 below 2^1019) and keeps the causal order, so the oracle is the
    k = 0 answer: every answer equals it, or the call raises
    OutOfDomainError, as the causal paths and meshes do once squares of
    lengths overflow (coordinates of about 2^511 and up, README)."""

    K = range(-1070, 1017)
    FLAT = fr.FrameSpec(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0))
    ANSWERED_BELOW = 509  # no refusal below it: coordinates under 2^511

    @staticmethod
    def _pairs(seed, n):
        rng = np.random.default_rng(seed)
        xs, ys = (rng.integers(-32, 33, (n, 4)) / 16.0 for _ in range(2))
        xs[:, 0], ys[:, 0] = rng.integers(1, 65, (2, n)) / 16.0  # above t = 0
        xs[: n // 4], ys[: n // 4] = ys[: n // 4], xs[: n // 4].copy()
        return xs, ys

    @staticmethod
    def _answers(call, k, *args):
        """call on the arguments scaled by 2^k, with warnings as errors; None
        where it refuses them with OutOfDomainError."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return call(*(np.ldexp(a, k) for a in args))
            except OutOfDomainError:
                return None

    def _check(self, call, ks, want, *args):
        refused = []
        for k in ks:
            got = self._answers(call, k, *args)
            if got is None:
                refused.append(k)
            else:
                assert np.array_equal(got, want), k
        assert min(refused, default=np.inf) >= self.ANSWERED_BELOW
        return refused

    def test_spinor_and_interval_verdicts(self):
        xs, ys = self._pairs(37, 40)
        want = mk.interval_compare_batch(xs, ys)
        assert set(want.tolist()) == {1, 2, 3}
        assert np.array_equal(mk.causal_compare_batch(xs, ys), want)
        # every k below the refusals in one batch, then each k above
        split = self.K.index(self.ANSWERED_BELOW)
        low, top = self.K[:split], self.K[split:]
        scaled = [np.concatenate([np.ldexp(a, k) for k in low]) for a in (xs, ys)]
        for compare in (mk.interval_compare_batch, mk.causal_compare_batch):
            assert np.array_equal(self._answers(compare, 0, *scaled), np.tile(want, len(low)))
        assert self._check(mk.interval_compare_batch, top, want, xs, ys) == []
        refused = self._check(mk.causal_compare_batch, top, want, xs, ys)
        assert refused == list(range(refused[0], self.K[-1] + 1))

    def test_ball_verdicts(self):
        xs, ys = self._pairs(38, 12)
        orders = list(mk.CausalOrder)
        relation = lambda x, y: orders.index(ca.causal_relation(*ca.past_regions(self.FLAT, x, y)))
        for x, y in zip(xs, ys):
            want = relation(x, y)
            refused = self._check(relation, self.K[::7], want, x, y)
            assert self.K[-1] in refused  # distinct centres 2^1012 apart and more

    @staticmethod
    def _octahedron_points():
        """20 points inside the octahedron |x| + |y| + |z| <= 2 by 1/2, and
        20 outside it by 1/2."""
        rng = np.random.default_rng(39)
        outer = rng.integers(-48, 49, (60, 3)) / 16.0
        outer = outer[np.abs(outer).sum(axis=1) >= 2.5][:20]
        return rng.integers(-8, 9, (20, 3)) / 16.0, outer

    def test_mesh_containment(self):
        pts = np.concatenate(self._octahedron_points())
        want = np.arange(40) < 20
        mesh = _octahedron(2.0)
        assert np.array_equal(mesh.contains_points(pts), want)
        contains = lambda vertices, p: ca.Mesh(vertices, mesh.triangles).contains_points(p)
        refused = self._check(contains, self.K[::7], want, mesh.vertices, pts)
        assert self.K[-1] in refused

    def test_mesh_verdicts(self):
        # the inner points as one region, then each outer point alone, some
        # in the bounding ball of radius 2 and some beyond it, where the
        # verdict stops
        inner, outer = self._octahedron_points()
        assert 0 < np.sum(np.linalg.norm(outer, axis=1) <= 2.0) < len(outer)
        mesh, none = _octahedron(2.0), np.zeros((0, 3), dtype=int)
        verdicts = lambda vertices, inner, outer: [
            ca._contains(ca.Mesh(vertices, mesh.triangles), ca.Mesh(p, none))
            for p in [inner, *outer[:, None]]
        ]
        want = [True] + [False] * len(outer)
        refused = self._check(verdicts, self.K[::7], want, mesh.vertices, inner, outer)
        assert self.K[-1] in refused

    def test_meshes_whose_fourth_powers_overflow(self):
        # from a bounding radius of 2^256 the winding and surface geometry
        # overflowed, and points read outside; beyond float range it refuses
        pts = np.array([[1.0, 0.5, 0.75], [0.5, 0.5, 0.5], [1.25, 0.25, 0.25]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (255, 400):
                got = _octahedron(2.0 ** (k + 1)).contains_points(np.ldexp(pts, k))
                assert got.tolist() == [False, True, True]
            with pytest.raises(OutOfDomainError, match="bounding radius"):
                _octahedron(2.0**600).contains_points(pts)

    def test_mesh_geometry_runs_on_one_scaled_copy(self, monkeypatch):
        # the mesh ran its geometry on itself from a bounding radius of
        # about 1.2e-77 up to 2^250 and on a scaled copy outside that range;
        # every radius now takes the copy, of radius in [1/2, 1)
        radii, winding = [], ca.Mesh._winding_contains

        def recording(mesh, p):
            radii.append(mesh.bounding_sphere()[1])
            return winding(mesh, p)

        monkeypatch.setattr(ca.Mesh, "_winding_contains", recording)
        pts = np.array([[0.75, 0.25, 0.25], [1.25, 0.25, 0.25], [1.25, 0.5, 0.5], [3.0, 0, 0]])
        ks = range(self.K[0], self.ANSWERED_BELOW, 50)
        for k in ks:
            got = _octahedron(2.0 ** (k + 1)).contains_points(np.ldexp(pts, k))
            assert got.tolist() == [True, True, False, False], k
        assert len(radii) == 2 * len(ks)  # the centroid, then the shell
        assert all(0.5 <= r < 1.0 for r in radii)

    def test_sky_image_points(self):
        # a point is x - t d, whose product t d rounds once before the
        # difference, where 2^k times the k = 0 point rounds once after it;
        # the two agree at every k but in the subnormal range from k = -1029
        # to -1021, where they part by one step of 2^-1074 on a few points
        x, xis = np.array([1.5, 0.25, -0.5, 0.75]), sky.sample_sky(50).xi
        want = fr.project_batch(self.FLAT, x, xis)[0]
        for k in self.K:
            got = self._answers(lambda e: fr.project_batch(self.FLAT, e, xis)[0], k, x)
            gap = np.abs(got - np.ldexp(want, k)).max()
            assert gap <= (2.0**-1074 if -1029 <= k <= -1021 else 0.0), k


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

    def test_a_raising_error_state_reads_the_verdict_of_the_default_one(self):
        # under all="raise" the underflow of 1e-170's square raised in
        # `separation`'s d.dot(d), before its scaled fallback ran
        spec = fr.FrameSpec(metric=mf.MetricSpec.minkowski(), target=fr.CauchySurface(0.0))
        x, y = [1.0, 0, 0, 0], [1.0, 1e-170, 0, 0]
        assert ca.causal_relation(*ca.past_regions(spec, x, y)) is mk.CausalOrder.EQUAL
        with np.errstate(all="raise"):
            assert ca.causal_relation(*ca.past_regions(spec, x, y)) is mk.CausalOrder.EQUAL
            assert ca._regions_disjoint(self.NEAR, self.FAR)

    @pytest.mark.parametrize(
        "d", [[1.0, 1e-170, 0.0], [1e-170, 0.0, 0.0], [1e-170, -1e-170, 2e-160], [-3e-300, 0, 4e-300]]
    )
    def test_separations_keep_their_bits_under_a_raising_error_state(self, d):
        a, b = ca.Ball([0.0, 0, 0], 1.0), ca.Ball(d, 1.0)
        want = ca.separation(a, b)
        with np.errstate(all="raise"):
            assert np.float64(ca.separation(a, b)).tobytes() == np.float64(want).tobytes()
            assert np.float64(ca.separation(b, a)).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("d", [[0.0, 0, 0], [1.0, -0.0, 2.0], [2.0**-511, 0, -(2.0**509)]])
    def test_the_common_path_takes_no_error_state(self, monkeypatch, d):
        # every nonzero difference between `spinor.SQUARE_UNDERFLOW` and
        # `_SQUARE_SAFE`: no square under- or overflows, and no errstate
        # is paid for in a causal_mesh op or a ball query
        a, b = ca.Ball([0.0, 0, 0], 1.0), ca.Ball(d, 1.0)
        want = np.linalg.norm(d)

        def refused(*args, **kw):
            raise AssertionError("an error state or a rescale on the common path")

        monkeypatch.setattr(np, "errstate", refused)
        monkeypatch.setattr(spinor, "euclidean_norm", refused)  # nor the scaled fallback
        assert np.float64(ca.separation(a, b)).tobytes() == want.tobytes()

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


#: Two curved charts of x, y and z with an exact causal order, each with its
#: Cauchy target and spatial distance: W diag(1, -1, -1, -1), conformal to
#: flat space, and the Einstein static universe R x S^3 in stereographic
#: coordinates, the paper's compactification (the W and S3 charts of
#: `tools/digests.py`).
_W = "1+0.3*x*x+0.1*y*y+0.2*t+0.1*x*z"
CURVED_CHARTS = {
    "W": ({"kind": "custom", "coeffs": [_W] + [f"-({_W})"] * 3,
           "bounds": [[0, None], [-3, 3], [-3, 3], [-3, 3]]}, 0.2, "flat"),
    "S3": ({"kind": "custom", "coeffs": ["1"] + ["-4/(1+x*x+y*y+z*z)**2"] * 3,
            "bounds": [[None, None], [-50, 50], [-50, 50], [-50, 50]]}, 0.0, "S3"),
}


def _distance(kind, p, q):
    """The flat distance of two points (3,), or the great-circle distance of
    their points on the unit S^3 whose stereographic images they are."""
    if kind != "S3":
        return float(np.linalg.norm(p - q))
    on_s3 = [np.concatenate([[1.0 - r @ r], 2.0 * r]) / (1.0 + r @ r) for r in (p, q)]
    return float(np.arccos(np.clip(on_s3[0] @ on_s3[1], -1.0, 1.0)))


def _curved_pairs(config, t0, kind, count=10):
    """The frame of a chart of CURVED_CHARTS and `count` seeded pairs (x, y,
    y in the past of x), y below x, whose verdict clears the null boundary
    by 15% of the radius of x."""
    f = fr.FrameSpec(metric=mf.metric_from_config(config), target=fr.CauchySurface(t0))
    rng, pairs = np.random.default_rng(41), []
    while len(pairs) < count:
        x = np.array([t0 + rng.uniform(0.6, 1.4), *rng.uniform(-0.5, 0.5, 3)])
        y = np.array([rng.uniform(t0 + 0.05, x[0]), *x[1:]])
        span = x[0] - y[0]
        reach = rng.uniform(0.0, 1.5) * span / (1.5 if kind == "S3" else 1.0)
        direction = rng.normal(size=3)
        y[1:] += reach * direction / np.linalg.norm(direction)
        gap = _distance(kind, x[1:], y[1:]) - span
        if abs(gap) >= 0.15 * (x[0] - t0):
            pairs.append((x, y, bool(gap <= 0)))
    return f, pairs


class TestCurvedChartVerdicts:
    """Mesh verdicts against the exact causal order of two curved charts: y
    lies in the past of x iff the distance of their points is at most t_x -
    t_y.  The rays march node by node, which no benchmark workload
    reaches, and the meshes take the one scaled path of
    `Mesh.contains_points`.  Seeded pairs, y below x, whose verdict clears
    the null boundary by 15% of the radius of x, as a 48-sample mesh is a
    polyhedron inside its sphere."""

    @pytest.mark.parametrize("chart", sorted(CURVED_CHARTS))
    def test_verdicts_match_the_exact_order(self, chart):
        f, pairs = _curved_pairs(*CURVED_CHARTS[chart])
        sample, verdicts = sky.sample_sky(48), []
        for x, y, past in pairs:
            want = mk.CausalOrder.Y_PAST_OF_X if past else mk.CausalOrder.SPACELIKE
            assert ca.causal_relation(*ca.past_regions(f, x, y, sample)) is want, (x, y)
            verdicts.append(want)
        assert set(verdicts) == {mk.CausalOrder.Y_PAST_OF_X, mk.CausalOrder.SPACELIKE}


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
    # the W chart of CURVED_CHARTS: the README chart, of t alone, takes balls
    F = fr.FrameSpec(
        metric=mf.metric_from_config(CURVED_CHARTS["W"][0]), target=fr.CauchySurface(0.3)
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


class TestOneHullPerMask:
    """mesh_regions builds one convex hull per arrival mask of a call."""

    @pytest.fixture
    def hull_calls(self, monkeypatch):
        import scipy.spatial

        calls, original = [], scipy.spatial.ConvexHull

        def counting(points):
            calls.append(len(points))
            return original(points)

        monkeypatch.setattr(scipy.spatial, "ConvexHull", counting)
        return calls

    def test_events_whose_rays_all_arrive_share_one_hull(self, hull_calls):
        events, sample = [[0.6, 0, 0, 0], [0.5, 0.1, 0, 0], [0.7, 0, 0, 0]], sky.sample_sky(48)
        meshes = ca.mesh_regions(TestOneRayBatch.F, events, sample)
        assert hull_calls == [48]
        alone = [ca.mesh_regions(TestOneRayBatch.F, [x], sample)[0] for x in events]
        for mesh, own in zip(meshes, alone):
            assert np.array_equal(mesh.triangles, own.triangles)
            assert mesh.triangles is meshes[0].triangles
        # shared, so no edit of one region can move another
        assert not meshes[0].triangles.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            meshes[0].triangles[0] = meshes[0].triangles[0, ::-1]

    def test_an_event_with_rays_lost_gets_its_own_hull(self, hull_calls):
        # a slab |x| < 2.1: from x = 2 about 4.5% of the rays leave it
        f = fr.FrameSpec(
            metric=mf.metric_from_config(
                {"kind": "minkowski", "bounds": [[None, None], [-2.1, 2.1], [None, None], [None, None]]}
            ),
            target=fr.CauchySurface(0.0),
        )
        events, sample = [[0.2, 0.5, 0, 0], [0.11, 2.0, 0, 0], [0.15, -0.5, 0, 0]], sky.sample_sky(200)
        meshes = ca.mesh_regions(f, events, sample)
        arrived = len(meshes[1].vertices)
        assert 0.9 * 200 <= arrived < 0.99 * 200
        assert hull_calls == [200, arrived]
        assert meshes[0].triangles is meshes[2].triangles
        [own] = ca.mesh_regions(f, [events[1]], sample)
        assert np.array_equal(meshes[1].triangles, own.triangles)
        assert meshes[1].is_closed() and meshes[1].euler_characteristic() == 2


class TestEarlyExit:
    """A mesh verdict stops at the first point beyond the bounding ball of
    the outer mesh, with the verdict of containing every point."""

    @pytest.mark.parametrize("chart", ["S3", "W"])
    def test_verdicts_equal_the_containment_of_every_point(self, chart):
        f, pairs = _curved_pairs(*CURVED_CHARTS[chart])
        sample, exits = sky.sample_sky(48), []
        for x, y, past in pairs:
            rx, ry = ca.past_regions(f, x, y, sample)
            for (a, ra), (b, rb) in [((x, rx), (y, ry)), ((y, ry), (x, rx))]:
                got = ca.in_causal_past(f, b, a, sample)
                assert got is bool(np.all(ra.contains_points(rb.vertices))), (a, b)
                exits.append(not np.all(ra._bounding_ball(rb.vertices)[-1]))
            assert ca.in_causal_past(f, y, x, sample) is past
        assert set(exits) == {True, False}

    def test_a_point_beyond_the_bounding_ball_skips_the_shell(self, monkeypatch):
        # the sky images of radius 0.3 of two events 0.2 apart
        f, sample = TestOneRayBatch.F, sky.sample_sky(48)
        x, y = [0.6, 0.0, 0.0, 0.0], [0.6, 0.2, 0.0, 0.0]
        rx, ry = ca.past_regions(f, x, y, sample)
        center, radius = rx.bounding_sphere()
        beyond = np.linalg.norm(ry.vertices - center, axis=1) > radius
        assert 0 < beyond.sum() < len(beyond)
        calls = []
        for name in ("_winding_contains", "_surface_distance"):
            original = getattr(ca.Mesh, name)

            def counting(mesh, pts, name=name, original=original):
                calls.append(name)
                return original(mesh, pts)

            monkeypatch.setattr(ca.Mesh, name, counting)
        assert not ca.in_causal_past(f, y, x, sample)
        assert calls == []
        assert not np.all(rx.contains_points(ry.vertices))
        assert "_surface_distance" in calls


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

