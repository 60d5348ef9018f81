import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdim import (
    Barcode,
    Interval,
    MetricView,
    PointCloud,
    SingularSimilarityError,
    alpha_magnitude,
    euclidean_metric,
    magnitude,
    magnitude_function,
    persistence,
    persistent_magnitude,
    rescale,
    rips_magnitude,
    sierpinski_triangle,
    subsample,
    vietoris_rips,
)
from oracles import naive_magnitude


def two_point_metric(d):
    return MetricView(np.array([[0.0, d], [d, 0.0]]))


class TestMagnitudeClosedForms:
    def test_one_point_is_exactly_one(self):
        assert magnitude(MetricView(np.zeros((1, 1)))) == 1.0

    @pytest.mark.parametrize("d", [0.1, 1.0, 10.0])
    def test_two_points(self, d):
        assert magnitude(two_point_metric(d)) == pytest.approx(
            2 / (1 + math.exp(-d)), abs=1e-12
        )

    def test_three_equidistant(self):
        d = 1.7
        dist = np.full((3, 3), d)
        np.fill_diagonal(dist, 0.0)
        assert magnitude(MetricView(dist)) == pytest.approx(
            3 / (1 + 2 * math.exp(-d)), abs=1e-12
        )

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_two_point_rescaled_closed_form(self, t):
        m = two_point_metric(0.7)
        assert magnitude(rescale(m, t)) == pytest.approx(
            2 / (1 + math.exp(-0.7 * t)), abs=1e-9
        )

    def test_saturates_at_point_count(self, random_cloud):
        metric = euclidean_metric(random_cloud(7, seed=2))
        min_positive = float(metric.dist[metric.dist > 0].min())
        saturated = rescale(metric, 40.0 / min_positive)  # all distances >= 40
        assert magnitude(saturated) == pytest.approx(7.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_inverse_oracle(self, seed):
        rng = np.random.default_rng(seed)
        metric = euclidean_metric(PointCloud(rng.random((20, 3))))
        assert magnitude(metric) == pytest.approx(
            naive_magnitude(metric.dist), abs=1e-9
        )

    @pytest.mark.parametrize("t", [1.0, 41.0, 80.0])
    def test_sierpinski_subsample_matches_inverse_oracle(self, t):
        # the 1000-point sample whose magnitude function saturates by t=80
        metric = euclidean_metric(subsample(sierpinski_triangle(7), 1000, 42))
        assert magnitude(rescale(metric, t)) == pytest.approx(
            naive_magnitude(metric.dist * t), rel=1e-10
        )

    def test_requires_finite_distances(self):
        d = np.array([[0.0, math.inf], [math.inf, 0.0]])
        with pytest.raises(ValueError):
            magnitude(MetricView(d))

    def test_bounded_by_point_count_for_euclidean(self, random_cloud):
        cloud = random_cloud(9, seed=6)
        value = magnitude(euclidean_metric(cloud))
        assert 0 < value <= 9


class TestMagnitudeFunction:
    def test_two_point_monotone_toward_two(self):
        samples = magnitude_function(two_point_metric(1.0), [0.5, 1, 2, 4, 8, 16, 40])
        values = list(samples.values)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(2.0, abs=1e-9)

    def test_one_point_constant(self):
        samples = magnitude_function(MetricView(np.zeros((1, 1))), [1.0, 5.0, 50.0])
        assert all(v == 1.0 for v in samples.values)

    def test_residuals_within_tolerance(self, random_cloud):
        metric = euclidean_metric(random_cloud(30, seed=9))
        samples = magnitude_function(metric, [0.5, 1.0, 2.0])
        assert all(samples.accepted())
        assert all(r <= 1e-8 for r in samples.residuals)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            magnitude_function(two_point_metric(1.0), [2.0, 1.0])

    def test_threads_do_not_change_values(self, random_cloud):
        metric = euclidean_metric(random_cloud(25, seed=14))
        grid = [0.5, 1.0, 2.0, 4.0]
        a = magnitude_function(metric, grid, threads=1)
        b = magnitude_function(metric, grid, threads=4)
        assert a.values == b.values


class TestPersistentMagnitude:
    def test_empty(self):
        assert persistent_magnitude([]) == 0.0

    def test_degree0_pair(self):
        bars = [Barcode(0, (Interval(0.0, math.inf), Interval(0.0, 1.3)))]
        assert persistent_magnitude(bars) == pytest.approx(2 - math.exp(-1.3))

    def test_signed_degree1(self):
        bars = [
            Barcode(0, (Interval(0.0, math.inf),)),
            Barcode(1, (Interval(0.4, 0.9),)),
        ]
        expected = 1 - (math.exp(-0.4) - math.exp(-0.9))
        assert persistent_magnitude(bars) == pytest.approx(expected)

    def test_additive_over_disjoint_unions(self):
        a = [Barcode(0, (Interval(0.0, 1.0),)), Barcode(1, (Interval(0.2, 0.6),))]
        b = [Barcode(0, (Interval(0.0, math.inf),))]
        union = [
            Barcode(0, a[0].intervals + b[0].intervals),
            Barcode(1, a[1].intervals),
        ]
        assert persistent_magnitude(union) == pytest.approx(
            persistent_magnitude(a) + persistent_magnitude(b)
        )


class TestRipsMagnitude:
    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    def test_two_point_closed_form(self, t):
        m = two_point_metric(0.8)
        assert rips_magnitude(m, t, 0) == pytest.approx(
            2 - math.exp(-t * 0.8), abs=1e-10
        )

    def test_one_point(self):
        m = MetricView(np.zeros((1, 1)))
        for t in (0.5, 2.0, 7.0):
            assert rips_magnitude(m, t, 0) == 1.0

    def test_definitional_consistency(self, random_cloud):
        cloud = random_cloud(9, seed=17)
        metric = euclidean_metric(cloud)
        cap = 1
        complex = vietoris_rips(metric, cap + 1)
        expected = persistent_magnitude(persistence(complex, cap))
        assert rips_magnitude(metric, 1.0, cap) == expected

    @pytest.mark.parametrize("n,seed", [(6, 0), (9, 1), (12, 2)])
    def test_rescaled_barcodes_match_recomputed(self, n, seed):
        # barcodes of tX computed from scratch agree with rescaled barcodes of X
        rng = np.random.default_rng(seed)
        metric = euclidean_metric(PointCloud(rng.random((n, 2))))
        for t in (0.5, 2.0, 9.0):
            via_rescale = rips_magnitude(metric, t, 1)
            recomputed = persistent_magnitude(
                persistence(vietoris_rips(rescale(metric, t), 2), 1)
            )
            assert via_rescale == pytest.approx(recomputed, abs=1e-10)

    def test_degree_cap_validation(self):
        with pytest.raises(ValueError):
            rips_magnitude(two_point_metric(1.0), 1.0, 1)  # cap > n - 2


class TestAlphaMagnitude:
    def test_one_point(self):
        assert alpha_magnitude(PointCloud(np.array([[0.3, 0.4]])), 2.0) == 1.0

    @pytest.mark.parametrize("t", [0.5, 1.0, 4.0])
    def test_two_points_closed_form(self, t):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.2, 0.0]]))
        # alpha edge value is d/2, so the degree-0 death is at 0.6
        assert alpha_magnitude(cloud, t) == pytest.approx(
            2 - math.exp(-t * 0.6), abs=1e-12
        )

    def test_agrees_with_rips_on_two_points(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.2, 0.0]]))
        metric = euclidean_metric(cloud)
        for t in (0.5, 1.0, 4.0):
            # alpha deaths are half the rips deaths for a pair
            assert alpha_magnitude(cloud, t) == pytest.approx(
                rips_magnitude(metric, t / 2.0, 0), abs=1e-12
            )


class TestSingularHandling:
    def test_duplicate_points_raise_singular(self):
        d = np.zeros((2, 2))  # two points at distance zero: zeta singular
        with pytest.raises(SingularSimilarityError) as err:
            magnitude(MetricView(d, scale=3.0))
        assert err.value.scale == 3.0

    def test_magnitude_function_flags_entry_without_raising(self):
        d = np.zeros((2, 2))
        samples = magnitude_function(MetricView(d), [1.0, 2.0])
        assert not any(samples.accepted())
        assert all(math.isnan(v) for v in samples.values)


@given(st.floats(0.05, 20.0), st.floats(0.05, 20.0))
@settings(max_examples=40)
def test_two_point_magnitude_formula_property(d, t):
    value = magnitude(rescale(two_point_metric(d), t))
    assert value == pytest.approx(2 / (1 + math.exp(-d * t)), rel=1e-9)


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_rips_magnitude_rescaling_property(seed):
    rng = np.random.default_rng(seed)
    metric = euclidean_metric(PointCloud(rng.random((7, 2))))
    t = float(rng.uniform(0.2, 5.0))
    direct = persistent_magnitude(persistence(vietoris_rips(rescale(metric, t), 2), 1))
    assert rips_magnitude(metric, t, 1) == pytest.approx(direct, abs=1e-10)
