import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdim import (
    Barcode,
    FilteredComplex,
    Interval,
    MetricView,
    PointCloud,
    euclidean_metric,
    h0_union_find,
    persistence,
    rescale,
    sierpinski_triangle,
    vietoris_rips,
)
from fracdim.persistence import spanning_forest_weights
from oracles import naive_h0_deaths, naive_persistence_pairs

REFERENCE_VALUES = Path(__file__).resolve().parent.parent / "perfbench" / "reference_values.json"


def intervals_as_pairs(barcode):
    return sorted((iv.birth, iv.death) for iv in barcode.intervals)


def two_point_metric(d):
    return MetricView(np.array([[0.0, d], [d, 0.0]]))


class TestPersistenceExamples:
    def test_two_points(self):
        complex = vietoris_rips(two_point_metric(1.5), 1)
        b0, b1 = persistence(complex, 1)
        assert intervals_as_pairs(b0) == [(0.0, 1.5), (0.0, math.inf)]
        assert b1.intervals == ()

    def test_three_equilateral_zero_length_discarded(self):
        d = np.full((3, 3), 2.0)
        np.fill_diagonal(d, 0.0)
        complex = vietoris_rips(MetricView(d), 2)
        b0, b1 = persistence(complex, 1)
        assert intervals_as_pairs(b0) == [(0.0, 2.0), (0.0, 2.0), (0.0, math.inf)]
        assert b1.intervals == ()

    def test_circle_has_one_loop(self):
        ang = np.linspace(0, 2 * math.pi, 20, endpoint=False)
        cloud = PointCloud(np.c_[np.cos(ang), np.sin(ang)])
        complex = vietoris_rips(euclidean_metric(cloud), 2)
        b1 = persistence(complex, 1)[1]
        assert len(b1.intervals) == 1
        assert b1.intervals[0].birth == pytest.approx(2 * math.sin(math.pi / 20))

    def test_negative_degree_rejected(self):
        complex = vietoris_rips(two_point_metric(1.0), 1)
        with pytest.raises(ValueError):
            persistence(complex, -1)

    def test_truncated_top_degree_flagged(self):
        complex = vietoris_rips(two_point_metric(1.0), 1)
        b0, b1 = persistence(complex, 1)
        assert b0.death_complete
        assert not b1.death_complete  # complex built only to dimension 1

    def test_degrees_past_the_complex_are_empty_and_incomplete(self):
        d = np.full((3, 3), 2.0)
        np.fill_diagonal(d, 0.0)
        complex = vietoris_rips(MetricView(d), 1)  # three edges, no triangle
        barcodes = persistence(complex, complex.max_dim + 3)
        assert [bc.degree for bc in barcodes] == [0, 1, 2, 3, 4]
        assert [bc.death_complete for bc in barcodes] == [True, False, False, False, False]
        assert intervals_as_pairs(barcodes[1]) == [(2.0, math.inf)]
        assert all(bc.intervals == () for bc in barcodes[2:])


class TestUnionFind:
    def test_single_point(self):
        barcode = h0_union_find(MetricView(np.zeros((1, 1))))
        assert intervals_as_pairs(barcode) == [(0.0, math.inf)]

    def test_three_points_on_line(self):
        cloud = PointCloud(np.array([[0.0], [1.0], [3.0]]))
        barcode = h0_union_find(euclidean_metric(cloud))
        assert intervals_as_pairs(barcode) == [(0.0, 1.0), (0.0, 2.0), (0.0, math.inf)]

    def test_disconnected_components(self):
        d = np.array(
            [
                [0.0, 1.0, math.inf],
                [1.0, 0.0, math.inf],
                [math.inf, math.inf, 0.0],
            ]
        )
        barcode = h0_union_find(MetricView(d))
        assert intervals_as_pairs(barcode) == [(0.0, 1.0), (0.0, math.inf), (0.0, math.inf)]

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_reduction_on_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        metric = euclidean_metric(PointCloud(rng.random((10, 2))))
        fast = h0_union_find(metric)
        reduced = persistence(vietoris_rips(metric, 1), 0)[0]
        a, b = intervals_as_pairs(fast), intervals_as_pairs(reduced)
        assert len(a) == len(b)
        for (ab, ad), (bb, bd) in zip(a, b):
            assert ab == pytest.approx(bb, abs=1e-12)
            if math.isinf(ad) or math.isinf(bd):
                assert math.isinf(ad) and math.isinf(bd)
            else:
                assert ad == pytest.approx(bd, abs=1e-12)


class TestAgainstNaiveReduction:
    @pytest.mark.parametrize("seed", range(8))
    def test_vr_barcodes_match_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.random((9, 2)))
        complex = vietoris_rips(euclidean_metric(cloud), 3)
        expected = naive_persistence_pairs(complex, 2)
        got = persistence(complex, 2)
        for degree in range(3):
            assert sorted(
                (iv.birth, iv.death) for iv in got[degree].intervals
            ) == expected[degree]

    def test_alpha_barcodes_match_dense_oracle(self, random_cloud):
        from fracdim import alpha_complex_2d

        complex = alpha_complex_2d(random_cloud(25, seed=13))
        expected = naive_persistence_pairs(complex, 1)
        got = persistence(complex, 1)
        for degree in range(2):
            assert sorted(
                (iv.birth, iv.death) for iv in got[degree].intervals
            ) == expected[degree]

    # seeded uniform clouds have no tied distances; the 9-point Sierpinski
    # triangle ties heavily, so the filtration order decides the pairing
    @pytest.mark.parametrize("seed", [*range(5), "sierpinski-2"])
    def test_clearing_matches_naive_reduction(self, seed):
        if seed == "sierpinski-2":
            cloud = sierpinski_triangle(2)
        else:
            cloud = PointCloud(np.random.default_rng(seed + 100).random((10, 3)))
        complex = vietoris_rips(euclidean_metric(cloud), 3)
        expected = naive_persistence_pairs(complex, 2)
        got = persistence(complex, 2)
        for degree in range(3):
            assert sorted(
                (iv.birth, iv.death) for iv in got[degree].intervals
            ) == expected[degree]


def got_pairs(barcodes):
    return {bc.degree: intervals_as_pairs(bc) for bc in barcodes}


@st.composite
def tied_metrics(draw):
    """Symmetric distances in {1, 2, 3}: nearly every filtration value ties."""
    n = draw(st.integers(4, 8))
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = draw(st.lists(st.integers(1, 3), min_size=n * (n - 1) // 2,
                                             max_size=n * (n - 1) // 2))
    return MetricView(d + d.T)


@st.composite
def hand_built_complexes(draw):
    """Closed 2-complexes on up to 7 vertices with integer values, vertices at 0 to 3."""
    n = draw(st.integers(1, 7))
    value = dict(zip(((v,) for v in range(n)), draw(st.lists(st.integers(0, 3), min_size=n,
                                                              max_size=n))))
    for k in (2, 3):
        for s in itertools.combinations(range(n), k):
            faces = list(itertools.combinations(s, k - 1))
            if all(f in value for f in faces) and draw(st.booleans()):
                value[s] = max(value[f] for f in faces) + draw(st.integers(0, 2))
    layers = [[s for s in value if len(s) == k] for k in (1, 2, 3)]
    return FilteredComplex(
        [np.array(layer, np.int64).reshape(-1, k) for k, layer in enumerate(layers, 1)],
        [[value[s] for s in layer] for layer in layers],
    )


@given(tied_metrics())
@settings(max_examples=60, deadline=None)
def test_tied_integer_metrics_match_dense_oracle(metric):
    complex = vietoris_rips(metric, 3)
    assert got_pairs(persistence(complex, 2)) == naive_persistence_pairs(complex, 2)


@given(hand_built_complexes())
@settings(max_examples=100, deadline=None)
def test_hand_built_complexes_match_dense_oracle(complex):
    # vertices born after 0 make the elder rule decide which component dies
    assert got_pairs(persistence(complex, 2)) == naive_persistence_pairs(complex, 2)


def test_empty_edge_layer():
    complex = FilteredComplex(
        (np.array([[0], [1], [2]]), np.empty((0, 2), np.int64)), ([2.0, 0.0, 1.0], [])
    )
    b0, b1 = persistence(complex, 1)
    assert got_pairs((b0, b1)) == naive_persistence_pairs(complex, 1)
    assert intervals_as_pairs(b0) == [(0.0, math.inf), (1.0, math.inf), (2.0, math.inf)]
    assert b1.intervals == () and not b1.death_complete


def test_rips_h1_n81_digest_matches_benchmark_reference():
    """All 81 Sierpinski-4 points: the barcodes hash as perfbench's rips-h1 recorded them."""
    metric = euclidean_metric(sierpinski_triangle(4))
    barcodes = persistence(vietoris_rips(metric, 2), 1)
    text = repr([(bc.degree, [(iv.birth, iv.death) for iv in bc.intervals]) for bc in barcodes])
    reference = json.loads(REFERENCE_VALUES.read_text())["values"]["rips-h1"]
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()[:16]
    assert digest == reference["rips-h1/sierpinski-4-n81"]


class TestProperties:
    def test_connected_space_one_infinite_bar_and_vertex_count(self, random_cloud):
        cloud = random_cloud(14, seed=21)
        b0 = persistence(vietoris_rips(euclidean_metric(cloud), 1), 0)[0]
        assert sum(1 for iv in b0.intervals if not iv.finite) == 1
        # all points distinct: every interval is born at 0 and alive there
        assert len(b0.intervals) == 14
        assert all(iv.birth == 0.0 for iv in b0.intervals)

    @pytest.mark.parametrize("seed", range(4))
    def test_euler_characteristic_consistency(self, seed):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.random((9, 2)))
        metric = euclidean_metric(cloud)
        complex = vietoris_rips(metric, 8)
        barcodes = persistence(complex, 8)
        grid = np.linspace(0.0, float(metric.dist.max()) * 1.05, 7)
        for eps in grid:
            chi_bars = sum(
                (-1) ** b.degree
                * sum(1 for iv in b.intervals if iv.birth <= eps < iv.death)
                for b in barcodes
            )
            chi_simplices = sum(
                (-1) ** s.dim for s in complex.simplices if s.value <= eps
            )
            assert chi_bars == chi_simplices

    def test_barcode_rescaling(self, random_cloud):
        cloud = random_cloud(10, seed=8)
        metric = euclidean_metric(cloud)
        t = 4.25
        base = persistence(vietoris_rips(metric, 2), 1)
        scaled = persistence(vietoris_rips(rescale(metric, t), 2), 1)
        for a, b in zip(base, scaled):
            assert len(a.intervals) == len(b.intervals)
            for x, y in zip(a.intervals, b.intervals):
                assert y.birth == pytest.approx(x.birth * t, abs=1e-10)
                if x.finite:
                    assert y.death == pytest.approx(x.death * t, rel=1e-12)
                else:
                    assert not y.finite

    def test_deterministic_across_runs(self, random_cloud):
        cloud = random_cloud(12, seed=30)
        complex = vietoris_rips(euclidean_metric(cloud), 2)
        assert persistence(complex, 1) == persistence(complex, 1)


class TestBarcodeType:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.5)
        with pytest.raises(ValueError):
            Interval(math.inf, math.inf)

    def test_nan_death_rejected(self):
        # a NaN death would read as neither finite nor a bar of any length
        with pytest.raises(ValueError, match="death before birth"):
            Interval(0.0, math.nan)
        assert not Interval(0.0, math.inf).finite

    def test_intervals_sorted(self):
        b = Barcode(0, (Interval(0.5, 1.0), Interval(0.0, math.inf), Interval(0.0, 2.0)))
        assert [iv.birth for iv in b.intervals] == [0.0, 0.0, 0.5]


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_h0_oracle_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    metric = euclidean_metric(PointCloud(rng.random((8, 2))))
    fast = intervals_as_pairs(h0_union_find(metric))
    slow = intervals_as_pairs(persistence(vietoris_rips(metric, 1), 0)[0])
    assert fast == pytest.approx(slow)


def kruskal_barcode_pairs(dist):
    """The degree-0 bars that the oracle's Kruskal forest gives, as sorted pairs."""
    deaths = naive_h0_deaths(dist)
    finite = [(0.0, d) for d in deaths if d > 0]
    return sorted(finite + [(0.0, math.inf)] * (len(dist) - len(deaths)))


def kruskal_weight_row(dist):
    """The oracle's forest weights padded with inf to n - 1 entries."""
    deaths = naive_h0_deaths(dist)
    return deaths + [math.inf] * (max(len(dist) - 1, 0) - len(deaths))


@st.composite
def tie_heavy_stacks(draw):
    """(k, n, n) stacks of symmetric integer metrics with zeros (duplicate points) and,
    in some samples, inf (disconnected pairs)."""
    n = draw(st.integers(0, 9))
    k = draw(st.integers(1, 4))
    stack = np.zeros((k, n, n))
    upper = np.triu_indices(n, 1)
    for sample in stack:
        values = [0.0, 1.0, 2.0, 3.0] + ([math.inf] if draw(st.booleans()) else [])
        sample[upper] = draw(st.lists(st.sampled_from(values), min_size=len(upper[0]),
                                      max_size=len(upper[0])))
        sample.T[upper] = sample[upper]
    return stack


class TestSpanningForestKernel:
    @given(tie_heavy_stacks())
    @settings(max_examples=300, deadline=None)
    def test_kernel_and_h0_union_find_equal_kruskal_oracle(self, stack):
        k, n = stack.shape[:2]
        weights = spanning_forest_weights(stack)
        assert weights.shape == (k, max(n - 1, 0))
        for sample, row in zip(stack, weights):
            assert row.tolist() == kruskal_weight_row(sample)
            barcode = h0_union_find(MetricView(sample))
            assert intervals_as_pairs(barcode) == kruskal_barcode_pairs(sample)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_smallest_sizes(self, n):
        stack = np.zeros((3, n, n))
        if n == 2:
            stack[:, 0, 1] = stack[:, 1, 0] = [0.0, 2.5, math.inf]
        weights = spanning_forest_weights(stack)
        assert weights.shape == (3, max(n - 1, 0))
        if n == 2:
            assert weights.tolist() == [[0.0], [2.5], [math.inf]]
        for sample in stack:
            barcode = h0_union_find(MetricView(sample))
            assert intervals_as_pairs(barcode) == kruskal_barcode_pairs(sample)

    def test_stack_mixes_connected_and_disconnected_samples(self):
        inf = math.inf
        two_parts = np.array(
            [[0, 1, inf, inf], [1, 0, inf, inf], [inf, inf, 0, 3], [inf, inf, 3, 0]])
        isolated_first = np.array(
            [[0, inf, inf, inf], [inf, 0, 2, 2], [inf, 2, 0, 0], [inf, 2, 0, 0]])
        path = np.array([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]], float)
        stack = np.stack([two_parts, isolated_first, path])
        assert spanning_forest_weights(stack).tolist() == [
            [1.0, 3.0, inf], [0.0, 2.0, inf], [1.0, 1.0, 1.0]
        ]
        for sample in stack:
            assert spanning_forest_weights(sample[None])[0].tolist() == kruskal_weight_row(sample)
