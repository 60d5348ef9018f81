import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdim import (
    Barcode,
    DegenerateInputError,
    Interval,
    MetricView,
    PHDimensionConfig,
    PointCloud,
    SierpinskiTreeParams,
    UndefinedDimensionError,
    WeightedNetwork,
    alpha_magnitude_dimension,
    box_counting_network,
    box_counting_pointcloud,
    cantor_set,
    correlation_dimension,
    derive_seed,
    euclidean_metric,
    greedy_cover,
    internal_scaling_dimension,
    line_network,
    loglog_fit,
    magnitude_dimension,
    ph_dimension,
    power_weighted_sum,
    shortest_path_metric,
    sierpinski_tree,
    sierpinski_triangle,
    subsample,
)
from fracdim import estimators, spaces
from fracdim.estimators import grid_box_count, pair_correlation
from fracdim.persistence import h0_union_find
from oracles import (
    induced_diameter,
    minimal_cover_size,
    naive_box_count,
    naive_greedy_cover,
    naive_h0_deaths,
    naive_mst_total,
    naive_pair_fraction,
    sorted_pdist_correlation,
)
from test_spaces import flower_22, random_connected_network

LOG3_LOG2 = math.log(3) / math.log(2)
# connected, but the 0-2 path length overflows float64
OVERFLOW_NET = WeightedNetwork(3, ((0, 1, 1e308), (1, 2, 1e308)))
# at eps = 1.4, recounting only the balls centred within eps of each
# claimed centre splits the second part: one float sum along the two
# search directions differs in the last bit
SEVEN_NODE_NET = WeightedNetwork(7, (
    (0, 5, 0.3), (1, 2, 0.4), (1, 4, 0.2), (2, 6, 0.7), (3, 4, 0.6), (3, 5, 0.6), (5, 6, 0.4),
))


def grid_network(side, torus=False):
    """side x side square lattice with unit weights, wrapped into a torus on request."""
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side or torus:
                edges.append((v, r * side + (c + 1) % side, 1.0))
            if r + 1 < side or torus:
                edges.append((v, (r + 1) % side * side + c, 1.0))
    return WeightedNetwork(side * side, tuple(edges))


def small_world_ring(n, seed):
    """Seeded Newman-Watts small world: a ring joining each node to its
    two nearest neighbours on each side plus n/10 random shortcuts,
    weights uniform in (0.5, 1.5)."""
    rng = np.random.default_rng(seed)
    pairs = {tuple(sorted((v, (v + k) % n))) for v in range(n) for k in (1, 2)}
    while len(pairs) < 2 * n + n // 10:
        pairs.add(tuple(sorted(int(x) for x in rng.choice(n, 2, replace=False))))
    return WeightedNetwork(n, tuple((u, v, float(rng.uniform(0.5, 1.5))) for u, v in sorted(pairs)))


class TestLogLogFit:
    def test_identity(self):
        fit = loglog_fit([1, 2, 4, 8], [1, 2, 4, 8])
        assert fit.slope == pytest.approx(1.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_quadratic_exact(self):
        xs = [1.0, 2.0, 3.0, 5.0, 9.0]
        ys = [3.0 * x**2 for x in xs]
        fit = loglog_fit(xs, ys)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_outlier_lowers_r2_but_returns_slope(self):
        xs = [1.0, 2.0, 4.0, 8.0, 16.0]
        ys = [x**2 for x in xs]
        ys[2] *= 10.0
        fit = loglog_fit(xs, ys)
        assert fit.r2 < 1.0
        assert math.isfinite(fit.slope)

    def test_window_restricts_fit(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        ys = [1.0, 2.0, 16.0, 64.0]  # slope 1 then slope 2
        fit = loglog_fit(xs, ys, window=(2, 4))
        assert fit.slope == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            loglog_fit([1.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            loglog_fit([1.0, 2.0], [1.0, -1.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite positive inputs"):
            loglog_fit([1.0, 2.0, bad], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite positive inputs"):
            loglog_fit([1.0, 2.0, 3.0], [1.0, bad, 3.0])

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            loglog_fit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], window=(2, 3))
        with pytest.raises(ValueError):
            loglog_fit([1.0, 2.0], [1.0, 2.0], window=(0, 3))


class TestBoxCountingPointcloud:
    def test_counts_match_naive_oracle(self, random_cloud):
        cloud = random_cloud(300, seed=3)
        for eps in (0.5, 0.21, 0.07):
            assert grid_box_count(cloud, eps) == naive_box_count(cloud.points, eps)

    def test_cell_index_overflow_rejected(self):
        cloud = PointCloud(np.random.default_rng(0).random((100, 2)))
        assert grid_box_count(cloud, 1e-18) == naive_box_count(cloud.points, 1e-18) == 100
        with pytest.raises(ValueError, match="overflow int64"):
            grid_box_count(cloud, 1e-20)

    def test_sierpinski_level7(self):
        est = box_counting_pointcloud(sierpinski_triangle(7))
        assert est.value == pytest.approx(LOG3_LOG2, abs=0.1)

    def test_uniform_square_dyadic_grid(self):
        rng = np.random.default_rng(7)
        cloud = PointCloud(rng.random((10000, 2)))
        grid = [2.0**-k for k in range(1, 7)]
        est = box_counting_pointcloud(cloud, grid)
        assert est.value == pytest.approx(2.0, abs=0.1)

    def test_uniform_segment(self):
        rng = np.random.default_rng(8)
        cloud = PointCloud(rng.random((1000, 1)))
        est = box_counting_pointcloud(cloud)
        assert est.value == pytest.approx(1.0, abs=0.1)

    def test_cantor_level10(self):
        est = box_counting_pointcloud(cantor_set(10))
        assert est.value == pytest.approx(math.log(2) / math.log(3), abs=0.05)

    def test_counts_nonincreasing_in_eps(self):
        est = box_counting_pointcloud(sierpinski_triangle(6))
        counts = [y for _, y in est.points]  # stored along decreasing eps
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_degenerate_cloud_rejected(self):
        with pytest.raises(DegenerateInputError):
            box_counting_pointcloud(PointCloud(np.zeros((50, 2))))

    def test_grid_must_decrease(self):
        with pytest.raises(ValueError):
            box_counting_pointcloud(sierpinski_triangle(4), [0.1, 0.2])


class TestCorrelationDimension:
    def test_two_points_full_fraction(self):
        cloud = PointCloud(np.array([[0.0], [1.0]]))
        assert pair_correlation(cloud, [1.0, 2.0]) == [1.0, 1.0]

    def test_fractions_match_naive_oracle(self, random_cloud):
        cloud = random_cloud(150, seed=5)
        for eps in (0.1, 0.35, 0.8):
            got = pair_correlation(cloud, [eps])[0]
            assert got == pytest.approx(naive_pair_fraction(cloud.points, eps))

    @pytest.mark.parametrize(
        "points, eps_grid",
        [
            (np.array([[0.0, 0.0], [3.0, 4.0]]), None),
            (np.random.default_rng(21).random((400, 1)), None),
            (np.random.default_rng(22).random((400, 3)), None),
            (np.repeat(np.random.default_rng(23).random((150, 2)), [1, 2, 3] * 50, axis=0), None),
            (np.random.default_rng(24).random((1300, 2)), None),
            (np.random.default_rng(25).random((1301, 2)), None),
            (sierpinski_triangle(6).points, np.geomspace(0.02, 1.5, 2000).tolist()),
        ],
        ids=["two", "interval", "cube", "duplicates", "n1300", "n1301", "grid-2000"],
    )
    def test_counter_equals_sorted_pdist_oracle(self, points, eps_grid):
        grid, fractions = sorted_pdist_correlation(points, eps_grid)
        cloud = PointCloud(points)
        est = correlation_dimension(cloud, eps_grid)
        assert est.params["eps_grid"] == grid
        assert [c for _, c in est.points] == fractions
        assert pair_correlation(cloud, grid) == fractions

    @pytest.mark.parametrize("n, last_rows", [(1300, 100), (1301, 1)])
    def test_blocks_end_at_and_one_past_a_boundary(self, n, last_rows):
        # the n1300 and n1301 oracle cases: 13 blocks of 100 rows, then a 1-row block
        blocks = list(estimators._pair_blocks(np.random.default_rng(n).random((n, 2))))
        assert [len(b) for b, _ in blocks[:13]] == [100] * 13
        assert len(blocks[-1][0]) == last_rows
        assert sum(b.size - pad for b, pad in blocks) == n * (n - 1) // 2

    def test_pair_correlation_in_any_grid_order(self, random_cloud):
        cloud = random_cloud(300, seed=27)
        grid = [0.5, -1.0, 0.1, 0.0, 2.0, 0.1]
        assert pair_correlation(cloud, grid) == sorted_pdist_correlation(cloud.points, grid)[1]

    def test_traced_peak_below_an_eighth_of_the_condensed_vector(self, random_cloud):
        cloud = random_cloud(3000, seed=28)
        tracemalloc.start()
        try:
            correlation_dimension(cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3000 * 2999 // 2 * 8 / 8

    def test_uniform_interval(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.random((5000, 1)))
        est = correlation_dimension(cloud)
        assert est.value == pytest.approx(1.0, abs=0.1)

    def test_sierpinski_level7(self):
        est = correlation_dimension(sierpinski_triangle(7))
        assert est.value == pytest.approx(LOG3_LOG2, abs=0.15)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInputError):
            correlation_dimension(PointCloud(np.zeros((10, 1))))
        with pytest.raises(DegenerateInputError):  # distinct, but every distance underflows to 0
            correlation_dimension(PointCloud(np.array([[0.0, 0.0], [1e-200, -1e-170]])), [1.0, 2.0])
        with pytest.raises(ValueError):
            correlation_dimension(PointCloud(np.zeros((1, 1))))


class TestPHDimension:
    def test_power_weighted_sum_is_mst_total_for_alpha_one(self, random_cloud):
        cloud = random_cloud(40, seed=12)
        barcode = h0_union_find(euclidean_metric(cloud))
        assert power_weighted_sum(barcode, 1.0) == pytest.approx(
            naive_mst_total(cloud.points), abs=1e-9
        )

    def test_sierpinski_reproduction(self):
        cloud = sierpinski_triangle(7)
        est = ph_dimension(cloud, PHDimensionConfig(seed=0))
        assert 0.30 <= est.fit.slope <= 0.40
        assert 1.40 <= est.value <= 1.70

    def test_uniform_interval(self):
        rng = np.random.default_rng(11)
        cloud = PointCloud(rng.random((2000, 1)))
        est = ph_dimension(cloud, PHDimensionConfig(seed=3))
        assert est.value == pytest.approx(1.0, abs=0.1)

    def test_degree0_matches_reduction_path(self, random_cloud):
        # same subsample pipeline, union-find vs matrix reduction
        from fracdim import persistence, vietoris_rips

        cloud = random_cloud(60, seed=4)
        sample = subsample(cloud, 25, 99)
        metric = euclidean_metric(sample)
        fast = power_weighted_sum(h0_union_find(metric), 1.0)
        slow = power_weighted_sum(
            persistence(vietoris_rips(metric, 1), 0)[0], 1.0
        )
        assert fast == pytest.approx(slow, abs=1e-12)

    def test_scale_equivariance_beta(self, random_cloud):
        cloud = random_cloud(300, seed=9)
        cfg = PHDimensionConfig(
            n_schedule=tuple(range(5, 101, 5)), fit_tail=15, seed=9
        )
        base = ph_dimension(cloud, cfg)
        scaled = ph_dimension(PointCloud(cloud.points * 7.0), cfg)
        assert abs(base.fit.slope - scaled.fit.slope) < 1e-9

    def test_constant_cloud_undefined(self):
        cloud = PointCloud(np.zeros((300, 2)))
        cfg = PHDimensionConfig(n_schedule=tuple(range(5, 101, 5)), fit_tail=10)
        with pytest.raises(UndefinedDimensionError):
            ph_dimension(cloud, cfg)

    def test_deterministic_rerun(self):
        cloud = sierpinski_triangle(5)
        cfg = PHDimensionConfig(n_schedule=tuple(range(5, 51, 5)), fit_tail=8, seed=7)
        assert ph_dimension(cloud, cfg) == ph_dimension(cloud, cfg)

    def test_schedule_exceeding_cloud_rejected(self):
        with pytest.raises(ValueError):
            ph_dimension(sierpinski_triangle(3), PHDimensionConfig())

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 1.7])
    @pytest.mark.parametrize(
        "schedule, cells",
        [((1, 2, 3, 5, 8, 13, 21), estimators.BLOCK_CELLS), ((1, 4, 9, 16, 25, 30), 300)],
        ids=["one-stack-per-size", "split-stacks"],
    )
    def test_degree0_sums_equal_kruskal_oracle(self, alpha, schedule, cells, monkeypatch):
        monkeypatch.setattr(estimators, "BLOCK_CELLS", cells)
        shapes = []
        kernel = estimators.spanning_forest_weights
        monkeypatch.setattr(estimators, "spanning_forest_weights",
                            lambda stack: shapes.append(stack.shape) or kernel(stack))
        cloud = PointCloud(np.random.default_rng(8).integers(0, 6, (60, 2)).astype(float))
        cfg = PHDimensionConfig(alpha=alpha, n_schedule=schedule, fit_tail=4, seed=5)
        est = ph_dimension(cloud, cfg)
        oracle = []
        for n in schedule:
            sums = []
            for r in range(cfg.repeats):
                dist = euclidean_metric(subsample(cloud, n, derive_seed(cfg.seed, n, r))).dist
                sums.append(float(sum(d**alpha for d in naive_h0_deaths(dist) if d > 0)))
            oracle.append(float(np.mean(sums)))
        assert [y for _, y in est.points] == oracle
        assert sum(k for k, _, _ in shapes) == cfg.repeats * len(schedule)
        assert all(k == 1 or k * n * n <= cells for k, n, _ in shapes)
        assert len(shapes) > len(schedule) if cells == 300 else len(shapes) == len(schedule)

    @pytest.mark.parametrize("degree", [0, 1])
    def test_overflowing_power_sum_undefined(self, degree):
        # 1000-wide samples: x**200 passes float64 and raises OverflowError
        cloud = PointCloud(np.random.default_rng(1).random((300, 2)) * 1000.0)
        cfg = PHDimensionConfig(degree=degree, alpha=200.0, n_schedule=range(5, 51, 5), fit_tail=10)
        with pytest.raises(UndefinedDimensionError, match=r"overflows float64 at alpha=200;"):
            ph_dimension(cloud, cfg)

    def test_power_sum_reaching_inf_undefined(self):
        # each term is finite; their sum is not
        barcode = Barcode(0, (Interval(0.0, 1e308), Interval(0.0, 1e308), Interval(0.0, math.inf)))
        assert power_weighted_sum(Barcode(0, barcode.intervals[1:]), 1.0) == 1e308
        with pytest.raises(UndefinedDimensionError, match=r"at alpha=1;"):
            power_weighted_sum(barcode, 1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PHDimensionConfig(alpha=0.0)
        with pytest.raises(ValueError):
            PHDimensionConfig(n_schedule=(10, 5))
        with pytest.raises(ValueError):
            PHDimensionConfig(fit_tail=1)
        with pytest.raises(
            ValueError, match="^degree 2 needs subsamples of at least 4 points; the smallest is 3$"
        ):
            PHDimensionConfig(degree=2, n_schedule=(3, 5), fit_tail=2)
        assert PHDimensionConfig(degree=2, n_schedule=(4, 5), fit_tail=2).n_schedule == (4, 5)
        assert PHDimensionConfig(degree=0, n_schedule=(1, 5), fit_tail=2).n_schedule == (1, 5)


class TestBoxCountingNetwork:
    def test_eps_at_diameter_single_part(self, fig7_left):
        assert len(greedy_cover(fig7_left, 10.0)) == 1

    def test_eps_below_min_weight_singletons(self, fig7_left):
        assert len(greedy_cover(fig7_left, 0.5)) == 4

    def test_greedy_cover_of_no_node_or_one(self):
        assert greedy_cover(WeightedNetwork(0, ()), 1.0) == []
        assert greedy_cover(WeightedNetwork(1, ()), 1.0) == [[0]]

    def test_greedy_cover_is_partition_with_bounded_diameter(self):
        net = sierpinski_tree(SierpinskiTreeParams(3, 0.5, 4))
        metric_nodes = list(range(net.node_count))
        for eps in (0.25, 0.8, 1.9, 3.4):
            parts = greedy_cover(net, eps)
            flat = sorted(v for p in parts for v in p)
            assert flat == metric_nodes
            assert all(induced_diameter(net, p) <= eps + 1e-12 for p in parts)

    def test_greedy_vs_exhaustive_on_g2(self):
        g2 = sierpinski_tree(SierpinskiTreeParams(3, 0.5, 2))
        for eps in np.geomspace(3.0, 0.5, 8):
            greedy = len(greedy_cover(g2, float(eps)))
            exact = minimal_cover_size(g2, float(eps))
            assert exact <= greedy <= 2 * exact

    @pytest.mark.parametrize(
        "net",
        [
            *(line_network(n) for n in (3, 5, 64, 201)),
            WeightedNetwork(9, tuple((0, i, 0.5 * i) for i in range(1, 9))),
            *(sierpinski_tree(SierpinskiTreeParams(3, 0.5, k)) for k in (2, 3, 4, 5)),
            flower_22(3),
            grid_network(6),
            grid_network(6, torus=True),
            small_world_ring(60, 7),
        ],
        ids=["line-3", "line-5", "line-64", "line-201", "star", "tree-2", "tree-3", "tree-4",
             "tree-5", "flower-3", "grid-6", "torus-6", "small-world-60"],
    )
    def test_greedy_cover_matches_naive_oracle(self, net):
        for eps in box_counting_network(net).params["eps_grid"]:
            assert greedy_cover(net, eps) == naive_greedy_cover(net, eps)

    def test_greedy_cover_matches_naive_oracle_fig7(self, fig7_left, fig7_right):
        for net in (fig7_left, fig7_right):
            for eps in box_counting_network(net).params["eps_grid"]:
                assert greedy_cover(net, eps) == naive_greedy_cover(net, eps)

    def test_greedy_cover_rechecks_a_stale_size(self):
        expected = [[1, 2, 4, 6], [0, 3, 5]]
        assert naive_greedy_cover(SEVEN_NODE_NET, 1.4) == expected
        assert greedy_cover(SEVEN_NODE_NET, 1.4) == expected

    def test_greedy_cover_leaves_passed_sizes_unchanged(self):
        net = sierpinski_tree(SierpinskiTreeParams(3, 0.5, 4))
        eps_grid = box_counting_network(net).params["eps_grid"]
        sizes = estimators.first_ball_sizes(net, [e / 2.0 for e in eps_grid])
        before = sizes.copy()
        for k, eps in enumerate(eps_grid):
            assert greedy_cover(net, eps, sizes[:, k]) == greedy_cover(net, eps)
        assert np.array_equal(sizes, before)

    @pytest.mark.parametrize("seed", range(40))
    def test_greedy_cover_matches_naive_oracle_random_weights(self, seed):
        net = random_connected_network(seed)
        for eps in box_counting_network(net).params["eps_grid"]:
            assert greedy_cover(net, eps) == naive_greedy_cover(net, eps)

    @pytest.mark.parametrize(
        "net",
        [line_network(201), sierpinski_tree(SierpinskiTreeParams(3, 0.5, 4)), flower_22(3),
         random_connected_network(0)],
        ids=["line-201", "tree-4", "flower-3", "random-0"],
    )
    def test_counts_match_naive_oracle(self, net):
        # the counts start from one first-ball pass over the whole grid
        est = box_counting_network(net)
        counts = [y for _, y in est.points]
        assert counts == [len(naive_greedy_cover(net, eps)) for eps in est.params["eps_grid"]]

    @pytest.mark.parametrize("seed", range(10))
    def test_first_ball_sizes_do_not_depend_on_the_search_bound(self, seed):
        net = random_connected_network(seed)
        radii = [eps / 2.0 for eps in box_counting_network(net).params["eps_grid"]]
        together = estimators.first_ball_sizes(net, radii)
        for k, radius in enumerate(radii):
            alone = estimators.first_ball_sizes(net, [radius])
            assert np.array_equal(together[:, k], alone[:, 0])

    def test_line_2001_search_count(self, monkeypatch):
        # one single-ball search per refresh made 8,756 calls; the grid's
        # first-ball pass, one search per claim and block refreshes make 2,429
        calls = []
        search = estimators.dijkstra
        monkeypatch.setattr(
            estimators, "dijkstra", lambda *args, **kw: calls.append(1) or search(*args, **kw)
        )
        box_counting_network(line_network(2001))
        assert len(calls) <= 4000

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
    def test_greedy_cover_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(ValueError, match="^eps must be finite and positive$"):
            greedy_cover(line_network(5), eps)

    def test_sierpinski_tree_g6(self):
        g6 = sierpinski_tree(SierpinskiTreeParams(3, 0.5, 6))
        est = box_counting_network(g6)
        assert est.value == pytest.approx(LOG3_LOG2, abs=0.2)

    def test_counts_nonincreasing_in_eps(self):
        g5 = sierpinski_tree(SierpinskiTreeParams(3, 0.5, 5))
        est = box_counting_network(g5)
        counts = [y for _, y in est.points]  # along decreasing eps
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_disconnected_rejected(self):
        net = WeightedNetwork(4, ((0, 1, 1.0), (2, 3, 1.0)))
        with pytest.raises(ValueError, match="connected"):
            box_counting_network(net)

    def test_distance_overflow_named(self):
        with pytest.raises(ValueError, match="^shortest-path distances overflow float64$"):
            box_counting_network(OVERFLOW_NET)

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([2.0, 0.0], "eps grid must be positive"),
            ([1.0, 2.0], "strictly decreasing"),
            ([math.nan, 1.0], "^eps grid must be finite$"),
            ([math.inf, 1.0], "^eps grid must be finite$"),
        ],
        ids=["non-positive", "increasing", "nan", "inf"],
    )
    def test_eps_grid_validation(self, grid, message):
        g3 = sierpinski_tree(SierpinskiTreeParams(3, 0.5, 3))
        with pytest.raises(ValueError, match=message):
            box_counting_network(g3, grid)


class TestNetworkGraph:
    """One read-only adjacency per network feeds every search and ball count."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        radii=st.lists(st.floats(0.01, 40.0), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_ball_counts_and_graph_stay_fixed(self, seed, radii, data):
        built = []
        with pytest.MonkeyPatch.context() as patch:
            make = spaces.csr_matrix
            patch.setattr(spaces, "csr_matrix", lambda *a, **k: built.append(1) or make(*a, **k))
            net = random_connected_network(seed)
            graph = net.graph
            before = graph.copy()
            n = net.node_count
            sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                         unique=True))
            some = estimators.first_ball_sizes(net, radii, sources)
            assert np.array_equal(some, estimators.first_ball_sizes(net, radii)[sources])
            unbounded = spaces.shortest_path_rows(net, sources)
            assert np.array_equal(some, estimators._ball_counts(unbounded, radii))
            box_counting_network(net)
            greedy_cover(net, 2.0 * radii[0])
            internal_scaling_dimension(net, node=sources[0])
        assert len(built) == 1
        assert net.graph is graph
        for array in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(graph, array), getattr(before, array))
            with pytest.raises(ValueError, match="read-only"):
                getattr(graph, array)[0] = 0


class TestDefaultNetworkGrid:
    NO_RANGE = "^network diameter equals its smallest edge weight; no scale range to fit$"
    EDGE = WeightedNetwork(2, ((0, 1, 1.0),))
    TRIANGLE = WeightedNetwork(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))

    @pytest.mark.parametrize("estimator", [box_counting_network, internal_scaling_dimension])
    @pytest.mark.parametrize("net", [EDGE, TRIANGLE], ids=["edge", "triangle"])
    def test_no_scale_range_rejected(self, estimator, net):
        with pytest.raises(DegenerateInputError, match=self.NO_RANGE):
            estimator(net)

    def test_explicit_grids_unchanged(self):
        box = box_counting_network(self.TRIANGLE, [2.0, 1.0])
        scaling = internal_scaling_dimension(self.TRIANGLE, eps_grid=[0.5, 1.0])
        assert [y for _, y in box.points] == [1.0, 3.0]
        assert [y for _, y in scaling.points] == pytest.approx([1.0, 3.0])  # geometric means
        assert box.value == pytest.approx(LOG3_LOG2)
        assert scaling.value == pytest.approx(LOG3_LOG2)


class TestInternalScaling:
    def test_line_interior_node(self):
        est = internal_scaling_dimension(line_network(10001), node=5000)
        assert est.value == pytest.approx(1.0, abs=0.05)

    def test_line_counts_formula(self):
        # interior node: |N(x, eps)| = 2*floor(eps) + 1
        est = internal_scaling_dimension(line_network(10001), node=5000)
        for eps, count in est.points:
            assert count == 2 * math.floor(eps) + 1

    def test_star_saturates(self):
        star = WeightedNetwork(101, tuple((0, i, 1.0) for i in range(1, 101)))
        grid = [float(x) for x in np.geomspace(1.0, 2.0, 8)]
        est = internal_scaling_dimension(star, node=0, eps_grid=grid)
        assert est.value == pytest.approx(0.0, abs=1e-9)

    def test_sierpinski_tree_g6_corner(self):
        g6 = sierpinski_tree(SierpinskiTreeParams(3, 0.5, 6))
        est = internal_scaling_dimension(g6, node=0)
        assert est.value == pytest.approx(LOG3_LOG2, abs=0.25)

    def test_all_mode_mean_and_agreement_flag(self):
        g4 = sierpinski_tree(SierpinskiTreeParams(3, 0.5, 4))
        est = internal_scaling_dimension(g4)
        assert est.params["node"] == "all"
        assert "per_node_spread" in est.params
        # leaves and hubs disagree on a finite tree
        assert est.params["has_internal_scaling_dimension"] is False
        assert any("spread" in w for w in est.warnings)

    def test_all_mode_agrees_on_cycle(self):
        # every node of a cycle sees the same balls, so the per-node slopes agree
        cycle = WeightedNetwork(301, tuple((i, (i + 1) % 301, 1.0) for i in range(301)))
        est = internal_scaling_dimension(cycle)
        assert est.params["per_node_spread"] < estimators.AGREEMENT_TOL
        assert est.params["agreement_tol"] == estimators.AGREEMENT_TOL == 0.25
        assert est.params["has_internal_scaling_dimension"] is True
        assert est.warnings == ()

    def test_disconnected_rejected(self):
        net = WeightedNetwork(4, ((0, 1, 1.0), (2, 3, 1.0)))
        with pytest.raises(ValueError, match="connected"):
            internal_scaling_dimension(net, node=0)

    def test_distance_overflow_named(self):
        for node in (0, None):
            with pytest.raises(ValueError, match="^shortest-path distances overflow float64$"):
                internal_scaling_dimension(OVERFLOW_NET, node=node)
        net = WeightedNetwork(4, ((0, 1, 1.0), (2, 3, 1.0)))
        with pytest.raises(ValueError, match="^connected network required$"):
            internal_scaling_dimension(net)

    @pytest.mark.parametrize("node", [-1, 7])
    def test_node_checked_before_any_sweep(self, node, monkeypatch):
        def no_sweeps(*args, **kwargs):
            raise AssertionError("Dijkstra ran before the node check")

        monkeypatch.setattr(spaces, "dijkstra", no_sweeps)
        with pytest.raises(ValueError, match=f"node {node} outside"):
            internal_scaling_dimension(line_network(7), node=node)

    @pytest.mark.parametrize(
        "net",
        [line_network(501), sierpinski_tree(SierpinskiTreeParams(3, 0.5, 4)),
         sierpinski_tree(SierpinskiTreeParams(3, 0.5, 6))],
        ids=["line-501", "tree-4", "tree-6"],
    )
    def test_both_modes_match_dense_reference(self, net):
        # reference counts read off the dense all-pairs matrix
        dist = shortest_path_metric(net).dist
        lo = net.min_weight()
        eps = [float(g) for g in np.geomspace(lo, max(float(dist.max()) / 2.0, 2 * lo), 12)]
        counts = np.array(
            [[np.count_nonzero(row <= e) for e in eps] for row in dist], dtype=np.float64
        )
        window = (6, 12)
        node = net.node_count // 3
        one = internal_scaling_dimension(net, node=node)
        assert one.params["eps_grid"] == eps
        assert [c for _, c in one.points] == list(counts[node])
        assert one.value == loglog_fit(eps, counts[node], window).slope

        every = internal_scaling_dimension(net)
        log_counts = np.log(counts)
        mean = np.exp(log_counts.mean(axis=0))
        assert [c for _, c in every.points] == list(mean)
        assert every.value == loglog_fit(eps, mean, window).slope
        lx = np.log(eps)[slice(*window)]
        lx = lx - lx.mean()
        per_node = (log_counts[:, slice(*window)] @ lx) / float(lx @ lx)
        assert every.params["per_node_spread"] == float(per_node.max() - per_node.min())

    def test_one_node_of_long_line_traced_peak(self):
        net = line_network(10001)
        tracemalloc.start()
        try:
            internal_scaling_dimension(net, node=5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestMagnitudeDimension:
    def test_two_point_slope_vanishes_at_large_t(self):
        from fracdim import MetricView

        metric = MetricView(np.array([[0.0, 1.0], [1.0, 0.0]]))
        grid = [50.0, 70.0, 100.0, 140.0, 200.0]
        est = magnitude_dimension(metric, grid)
        assert est.value == pytest.approx(0.0, abs=1e-6)

    def test_segment_in_linear_growth_regime(self):
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.random((500, 1)) * 10.0)
        grid = [float(t) for t in range(1, 31)]
        est = magnitude_dimension(euclidean_metric(cloud), grid, window=(9, 30))
        assert est.value == pytest.approx(1.0, abs=0.15)

    def test_full_level7_secant_in_band(self):
        # level-7 cloud is dense enough for the t in [40, 80] window
        metric = euclidean_metric(sierpinski_triangle(7))
        est = magnitude_dimension(metric, [40.0, 56.0, 80.0])
        assert 1.40 <= est.value <= 1.70

    def test_rigid_motion_invariance(self, random_cloud):
        cloud = random_cloud(60, seed=19)
        theta = 0.7
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        moved = PointCloud(cloud.points @ rot.T + np.array([3.0, -1.0]))
        grid = [1.0, 2.0, 4.0, 8.0]
        a = magnitude_dimension(euclidean_metric(cloud), grid)
        b = magnitude_dimension(euclidean_metric(moved), grid)
        assert a.value == pytest.approx(b.value, abs=1e-6)


@pytest.mark.parametrize("window", [(3, 4), (4, 4), (-1, 3), (8, 11)])
def test_magnitude_estimators_reject_window_before_any_work(window):
    # inputs each estimator would reject only once it starts work: a 3-d cloud
    # for the alpha complex, an infinite distance for the similarity solves
    grid = [float(t) for t in range(1, 11)]
    with pytest.raises(ValueError) as fit_err:
        loglog_fit(grid, grid, window)
    assert str(fit_err.value) == f"window {window} invalid for 10 samples"
    with pytest.raises(ValueError) as err:
        alpha_magnitude_dimension(PointCloud(np.zeros((3, 3))), grid, window)
    assert str(err.value) == str(fit_err.value)
    unreachable = MetricView(np.array([[0.0, math.inf], [math.inf, 0.0]]))
    with pytest.raises(ValueError) as err:
        magnitude_dimension(unreachable, grid, window)
    assert str(err.value) == str(fit_err.value)


class TestAlphaMagnitudeDimension:
    def test_one_point_degenerate_slope_zero(self):
        cloud = PointCloud(np.array([[0.25, 0.75]]))
        est = alpha_magnitude_dimension(cloud, t_grid=[1.0, 2.0, 4.0, 8.0])
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_two_point_slope_vanishes_at_large_t(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
        est = alpha_magnitude_dimension(cloud, t_grid=[50.0, 100.0, 200.0, 400.0])
        assert est.value == pytest.approx(0.0, abs=1e-6)

    def test_cantor_matches_box_dimension(self):
        # collinear embedding exercises the 1-d alpha path; growth regime window
        cloud2d = PointCloud(np.c_[cantor_set(10).points[:, 0], np.zeros(1024)])
        grid = [float(t) for t in np.geomspace(8, 2000, 40)]
        est = alpha_magnitude_dimension(cloud2d, t_grid=grid, window=(5, 35))
        assert est.value == pytest.approx(math.log(2) / math.log(3), abs=0.05)

    def test_default_estimate_json_digest_pinned(self):
        # digest of the estimate as computed by the per-t rescaled-barcode loop
        est = alpha_magnitude_dimension(sierpinski_triangle(5))
        text = json.dumps(est.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
            "96d080feb06aa0611419e78bc59e9d358b883b365f68b4d665bbd712aa218fe8"
        )

    def test_rigid_motion_invariance(self, random_cloud):
        cloud = random_cloud(80, seed=23)
        theta = -0.4
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        moved = PointCloud(cloud.points @ rot.T + np.array([-2.0, 5.0]))
        grid = [1.0, 2.0, 4.0, 8.0, 16.0]
        a = alpha_magnitude_dimension(cloud, t_grid=grid)
        b = alpha_magnitude_dimension(moved, t_grid=grid)
        assert a.value == pytest.approx(b.value, abs=1e-8)


class TestWarnings:
    def test_low_fit_quality(self):
        # corners of a unit square: the box count steps from 1 to 4 and stays there
        square = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        est = box_counting_pointcloud(square, [4.0, 2.0, 0.9, 0.45, 0.2])
        assert [y for _, y in est.points] == [1.0, 1.0, 4.0, 4.0, 4.0]
        assert est.fit.r2 < 0.9
        assert est.warnings == (f"low fit quality: r2={est.fit.r2:.3f} < 0.9",)
        assert box_counting_pointcloud(sierpinski_triangle(5)).warnings == ()

    def test_internal_scaling_fit_warning_precedes_spread_warning(self):
        # a path ending in a 10-leaf star: hub, leaves and path end grow differently
        edges = [(i, i + 1, 1.0) for i in range(5)] + [(5, j, 1.0) for j in range(6, 16)]
        est = internal_scaling_dimension(WeightedNetwork(16, edges), eps_grid=[0.9, 1.0, 1.9, 2.0])
        assert est.fit.r2 < 0.9 and not est.params["has_internal_scaling_dimension"]
        assert [w.split(" ")[0] for w in est.warnings] == ["low", "per-node"]

    def test_alpha_magnitude_excluded_warning_precedes_fit_warning(self, monkeypatch):
        grid = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        curve = [1.0, -2.0, 8.0, 0.0, 2.0, 30.0]
        monkeypatch.setattr(estimators, "persistent_magnitude_curve", lambda bars, t: curve)
        est = alpha_magnitude_dimension(sierpinski_triangle(2), t_grid=grid)
        assert est.fit.r2 < 0.9
        assert est.warnings == (
            "excluded 2 non-positive magnitude values at t=[2.0, 4.0]",
            f"low fit quality: r2={est.fit.r2:.3f} < 0.9",
        )
        # the fit reads the positive values alone, but every sample is a point
        assert est.fit == loglog_fit([1.0, 3.0, 5.0, 6.0], [1.0, 8.0, 2.0, 30.0])
        assert est.points == tuple(zip(grid, curve))
        assert est.params["window"] == [0, 6]

    def test_ph_dimension_degree_one_warns_of_its_bias(self, random_cloud):
        cfg = PHDimensionConfig(degree=1, n_schedule=range(20, 101, 10), repeats=2, fit_tail=9)
        est = ph_dimension(random_cloud(300, seed=0), cfg)
        # a uniform square (reference 2) read as 13.61, with a passing fit
        assert est.value == pytest.approx(13.61, abs=0.005)
        assert est.fit.r2 >= 0.9
        assert est.warnings == (
            "degree >= 1 Rips PH dimension read about twice the reference"
            " at every sample size measured (n <= 350)",
        )


class TestDeterminism:
    def test_estimates_compare_equal_across_reruns(self):
        cloud = sierpinski_triangle(5)
        a = box_counting_pointcloud(cloud)
        b = box_counting_pointcloud(cloud)
        assert a == b
        assert a.to_json_dict() == b.to_json_dict()

    def test_network_estimators_deterministic(self):
        g4 = sierpinski_tree(SierpinskiTreeParams(3, 0.5, 4))
        assert box_counting_network(g4) == box_counting_network(g4)
        assert internal_scaling_dimension(g4, node=0) == internal_scaling_dimension(
            g4, node=0
        )


@given(
    slope=st.floats(0.2, 3.0),
    scale=st.floats(0.1, 10.0),
)
@settings(max_examples=30)
def test_loglog_fit_recovers_exact_power_laws(slope, scale):
    xs = [1.0, 2.0, 4.0, 8.0, 16.0]
    ys = [scale * x**slope for x in xs]
    fit = loglog_fit(xs, ys)
    assert fit.slope == pytest.approx(slope, rel=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-9)
