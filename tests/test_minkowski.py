import warnings

import numpy as np
import pytest

from skyframes import cli
from skyframes import minkowski as mk
from skyframes import sky, spinor
from skyframes.errors import OutOfDomainError, ZeroSpinorError
from skyframes.minkowski import CausalOrder


@pytest.fixture(scope="module")
def sample():
    return sky.sample_sky(64)


class TestGraphImage:
    def test_origin_maps_to_zero_section(self, sample):
        img = mk.sky_image_minkowski([0, 0, 0, 0], sample)
        assert np.allclose(img.heights, 0.0)

    def test_time_translation_is_constant_graph(self, sample):
        img = mk.sky_image_minkowski([1, 0, 0, 0], sample)
        assert np.allclose(img.heights, 0.5)

    def test_null_event_heights_at_special_points(self):
        x = [1.0, 0, 0, 1.0]
        xi_zero = np.array([0.0, 1.0])
        xi_one = np.array([1.0, 0.0])
        assert sky.celestial_eval(x, xi_zero) == pytest.approx(0.0, abs=1e-15)
        assert sky.celestial_eval(x, xi_one) == pytest.approx(1.0)

    def test_translation_shifts_heights_linearly(self, sample):
        rng = np.random.default_rng(0)
        x, t = rng.normal(size=(2, 4))
        a = mk.sky_image_minkowski(x + t, sample).heights
        b = mk.sky_image_minkowski(x, sample).heights
        c = mk.sky_image_minkowski(t, sample).heights
        assert np.allclose(a, b + c, atol=1e-14)

    def test_boost_covariance_at_matched_points(self, sample):
        rng = np.random.default_rng(1)
        c = spinor.random_sl2(rng)
        x = rng.normal(size=4)
        x_boost = spinor.inverse_pauli(spinor.sl2_act(c, spinor.pauli_transform(x)))
        cinv = np.linalg.inv(c)
        matched = sample.xi @ cinv
        weights = np.linalg.norm(matched, axis=-1) ** 2
        matched = matched / np.sqrt(weights)[:, None]
        lhs = sky.celestial_eval(np.broadcast_to(x_boost, (sample.n, 4)), matched)
        lhs = lhs * weights
        rhs = mk.sky_image_minkowski(x, sample).heights
        assert np.allclose(lhs, rhs, atol=1e-9 * max(1.0, np.abs(rhs).max()))

    def test_null_graph_tangent_to_zero_section(self):
        # height and its first-order variation vanish at the null direction
        rng = np.random.default_rng(2)
        for _ in range(20):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = spinor.inverse_pauli(spinor.outer_square(psi))
            xi = spinor.cospinor_for_null_vector(v)
            assert sky.celestial_eval(v, xi) == pytest.approx(0.0, abs=1e-12)
            delta = np.array([-np.conj(xi[1]), np.conj(xi[0])])
            h = 1e-5
            for step in (delta, 1j * delta):
                plus = sky.celestial_eval(v, sky.unit_cospinor(xi + h * step))
                minus = sky.celestial_eval(v, sky.unit_cospinor(xi - h * step))
                assert abs((plus - minus) / (2 * h)) <= 1e-8

    def test_json_schema(self, sample):
        # the CLI writes a graph image from its arrays
        image = mk.sky_image_minkowski([1, 2, 3, 4], sample)
        d = cli._image_json(image)
        assert set(d) == {"event", "samples"}
        assert set(d["samples"][0]) == {"xi", "height"}
        assert len(d["samples"][0]["xi"]) == 4
        z, w = sample.xi[0]
        assert d["samples"][0]["xi"] == [z.real, z.imag, w.real, w.imag]
        assert d["samples"][0]["height"] == image.heights[0]


class TestNullHyperplane:
    def test_through_origin(self):
        h = mk.hyperplane_through([0, 0, 0, 0], [0.3 + 1j, -0.2])
        assert h.chi == pytest.approx(0.0)

    def test_through_unit_time(self):
        h = mk.hyperplane_through([1, 0, 0, 0], [1.0, 0.0])
        assert h.chi == pytest.approx(0.5)

    def test_rejects_zero_covector(self):
        with pytest.raises(ZeroSpinorError):
            mk.hyperplane_through([1, 0, 0, 0], [0.0, 0.0])

    def test_contains_its_base_event(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=4)
            xi = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert mk.hyperplane_contains(mk.hyperplane_through(x, xi), x)

    def test_examples_on_and_off(self):
        h = mk.NullHyperplane(xi=np.array([1.0, 0.0]), chi=0.0)
        assert mk.hyperplane_contains(h, [1, 0, 0, -1])
        assert not mk.hyperplane_contains(h, [1, 0, 0, 0])

    def test_membership_matches_field_equation(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=4)
        xi = sky.unit_cospinor(rng.normal(size=2) + 1j * rng.normal(size=2))
        h = mk.hyperplane_through(x, xi)
        e0 = np.array([1.0, 0, 0, 0])
        for _ in range(100):
            w = rng.normal(size=4)
            on_plane = x + w - 2.0 * sky.celestial_eval(w, xi) * e0
            assert mk.hyperplane_contains(h, on_plane)
            off = on_plane + e0 * rng.uniform(0.1, 1.0)
            assert not mk.hyperplane_contains(h, off)


class TestCausalCompare:
    @pytest.mark.parametrize(
        "x,y,expected",
        [
            ([2, 0, 0, 0], [0, 0, 0, 0], CausalOrder.Y_PAST_OF_X),
            ([1, 2, 3, 4], [1, 2, 3, 4], CausalOrder.EQUAL),
            ([0, 2, 0, 0], [0, 0, 0, 0], CausalOrder.SPACELIKE),
            ([0, 0, 0, 0], [1, 0, 0, 0], CausalOrder.X_PAST_OF_Y),
        ],
    )
    def test_examples(self, x, y, expected):
        assert mk.causal_compare(x, y) is expected

    @pytest.mark.parametrize(
        "y_past_of_x, x_past_of_y, expected",
        [
            (True, True, CausalOrder.EQUAL),
            (True, False, CausalOrder.Y_PAST_OF_X),
            (False, True, CausalOrder.X_PAST_OF_Y),
            (False, False, CausalOrder.SPACELIKE),
        ],
    )
    def test_one_ladder_for_the_two_one_way_relations(
        self, y_past_of_x, x_past_of_y, expected
    ):
        assert CausalOrder.of(y_past_of_x, x_past_of_y) is expected

    @pytest.mark.parametrize(
        "x, y",
        [
            ([1e308, 0, 0, 0], [-1e308, 0, 0, 0]),  # the difference overflows
            ([1e200, 0, 0, 0], [0, 0, 0, 0]),  # its eigenvalues overflow
            ([0, 1e308, 0, 1e308], [0, 0, 0, 0]),  # the transform overflows
        ],
    )
    def test_overflowing_graphs_are_out_of_domain(self, recwarn, x, y):
        # these used to answer spacelike with overflow warnings, and the
        # batch kept answering spacelike (code 3) without them
        with pytest.raises(OutOfDomainError):
            mk.causal_compare(x, y)
        with pytest.raises(OutOfDomainError):
            mk.causal_compare_batch([x], [y])
        assert not recwarn.list

    def test_boundary_counts_as_causal(self):
        assert mk.causal_compare([1, 0, 0, 1], [0, 0, 0, 0]) is CausalOrder.Y_PAST_OF_X

    def test_exact_null_separations_agree_with_interval(self):
        # axis-aligned null separations are exact in floating point
        rng = np.random.default_rng(8)
        a = rng.uniform(0.1, 3.0, size=200)
        axis = rng.integers(1, 4, size=200)
        xs = np.zeros((200, 4))
        xs[:, 0] = a
        xs[np.arange(200), axis] = np.where(rng.random(200) < 0.5, a, -a)
        ys = np.zeros((200, 4))
        assert np.all(mk.causal_compare_batch(xs, ys) == 1)
        assert np.all(mk.interval_compare_batch(xs, ys) == 1)

    def test_scalar_and_batch_agree_on_exact_null_and_equal_pairs(self):
        # far from the origin on a 2^-32 grid, x - y is exact and null while
        # the sums of the transform of x round; the scalar subtracted the two
        # transforms and answered spacelike for some of these pairs
        rng = np.random.default_rng(8)
        n = 400
        ys = rng.uniform(2**20, 1.5 * 2**20, size=(n, 4))
        a = np.round(rng.uniform(0.1, 3.0, size=n) * 2**32) / 2**32
        d = np.zeros((n, 4))
        d[:, 0] = a
        d[np.arange(n), rng.integers(1, 4, size=n)] = np.where(rng.random(n) < 0.5, a, -a)
        xs = ys + d
        assert np.array_equal(xs - ys, d)
        orders = list(CausalOrder)
        for xs_, ys_, code in ((xs, ys, 1), (ys, xs, 2), (xs, xs, 0)):
            assert np.all(mk.interval_compare_batch(xs_, ys_) == code)
            assert np.all(mk.causal_compare_batch(xs_, ys_) == code)
            scalar = {mk.causal_compare(x, y) for x, y in zip(xs_, ys_)}
            assert scalar == {orders[code]}

    def test_agrees_with_interval_criterion(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-2, 2, size=(100_000, 4))
        ys = rng.uniform(-2, 2, size=(100_000, 4))
        d = xs - ys
        margin = np.abs(np.abs(d[:, 0]) - np.linalg.norm(d[:, 1:], axis=1))
        keep = margin > 1e-9
        a = mk.causal_compare_batch(xs[keep], ys[keep])
        b = mk.interval_compare_batch(xs[keep], ys[keep])
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [-1028, -1040])
    def test_subnormal_pairs_keep_their_verdicts(self, k):
        # both events scaled by 2^k, into the subnormal range; on a 2^-8 grid
        # the scaled differences and their transforms are exact.  Dividing
        # the differences by their subnormal largest entry overflowed, and
        # every timelike pair read spacelike
        rng = np.random.default_rng(18)
        xs, ys = (rng.integers(-512, 513, (60, 4)) / 256.0 for _ in range(2))
        xs[:, 0] += 4.0  # most pairs timelike, y in the past of x
        xs[:20], ys[:20] = ys[:20], xs[:20].copy()  # and some x in the past of y
        want = mk.causal_compare_batch(xs, ys)  # 30, 16 and 14 pairs of codes 1, 2, 3
        assert set(want.tolist()) == {1, 2, 3}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = np.ldexp(xs, k), np.ldexp(ys, k)
            assert np.array_equal(mk.causal_compare_batch(*scaled), want)
            orders = [mk.causal_compare(x, y) for x, y in zip(*scaled)]
        assert orders == [list(CausalOrder)[code] for code in want]

    def test_pairs_on_the_last_bits_of_the_subnormals(self):
        # integer multiples of 2^-1074 near the null cone: the transform
        # halved odd sums, and the norm of the interval criterion rounded to
        # the subnormal unit, and each flipped its verdict
        x, y = np.ldexp([3.0, 14, -1, -25], -1074), np.ldexp([47.0, 14, -4, 18], -1074)
        u, v = np.ldexp([23.0, 17, -6, -32], -1074), np.ldexp([38.0, 7, 1, -23], -1074)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mk.causal_compare(x, y) is CausalOrder.X_PAST_OF_Y
            assert mk.interval_compare_batch(x, y) == 2
            assert mk.causal_compare(u, v) is CausalOrder.SPACELIKE
            assert mk.interval_compare_batch(u, v) == 3

    def test_interval_criterion_of_pairs_whose_squares_overflow(self):
        # the spatial norm read inf, after a RuntimeWarning, and the
        # timelike pair read spacelike
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mk.interval_compare_batch(np.ldexp([2.0, 1, 0, 0], 1015), np.zeros(4)) == 1

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(50, 4))
        ys = rng.normal(size=(50, 4))
        codes = mk.causal_compare_batch(xs, ys)
        orders = list(CausalOrder)  # the batch codes are the member positions
        for x, y, code in zip(xs, ys, codes):
            assert orders.index(mk.causal_compare(x, y)) == code
            assert mk.interval_compare_batch(x, y) in range(len(orders))


class TestGraphFrame:
    def test_gradient_matches_finite_differences(self):
        # the graph's height moves along the two real sky chart directions
        # at 2 Re and -2 Im of delta . H(x) . conj(xi)
        rng = np.random.default_rng(7)
        x = rng.normal(size=4)
        xi = sky.unit_cospinor(rng.normal(size=2) + 1j * rng.normal(size=2))
        delta = np.array([-np.conj(xi[1]), np.conj(xi[0])])
        val = delta @ spinor.pauli_transform(x) @ np.conj(xi)
        g = np.array([2.0 * val.real, -2.0 * val.imag])
        h = 1e-6
        for k, step in enumerate((delta, 1j * delta)):
            plus = sky.celestial_eval(x, sky.unit_cospinor(xi + h * step))
            minus = sky.celestial_eval(x, sky.unit_cospinor(xi - h * step))
            assert (plus - minus) / (2 * h) == pytest.approx(g[k], abs=1e-7)

    def test_normal_rate_is_transform_of_direction(self):
        frame = mk.GraphFrame()
        rng = np.random.default_rng(8)
        x = np.array([0.2, -0.4, 1.0, 0.3])
        xis = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        dirs = rng.normal(size=(3, 4))
        pv = frame.probe_values(x, xis, dirs)
        for b, xi in enumerate(sky.unit_cospinor(xis)):
            for k, d in enumerate(dirs):
                assert abs(pv.rates[b, k] - sky.celestial_eval(d, xi)) <= 1e-12
        # the contact form, taken through the null direction, agrees
        assert np.abs(pv.theta - pv.rates).max() <= 1e-12
