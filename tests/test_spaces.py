import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial.distance import pdist, squareform

from fracdim import (
    InvalidEntryError,
    MetricView,
    PointCloud,
    ResourceLimitError,
    SierpinskiTreeParams,
    WeightedNetwork,
    cantor_set,
    derive_seed,
    euclidean_metric,
    line_network,
    magnitude,
    network_diameter,
    rescale,
    shortest_path_metric,
    shortest_path_rows,
    sierpinski_tree,
    sierpinski_triangle,
    subsample,
)
from fracdim import spaces
from oracles import induced_diameter, point_in_triangle, triangle_violations

TRI = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]


class TestSierpinskiTriangle:
    def test_level0_is_centroid(self):
        cloud = sierpinski_triangle(0)
        assert cloud.n == 1
        np.testing.assert_allclose(cloud.points[0], [0.5, math.sqrt(3) / 6])

    def test_level7_count_and_containment(self):
        cloud = sierpinski_triangle(7)
        assert cloud.n == 3**7
        assert all(point_in_triangle(p, *TRI, tol=1e-9) for p in cloud.points)

    def test_points_distinct(self):
        cloud = sierpinski_triangle(5)
        assert len(np.unique(cloud.points, axis=0)) == cloud.n

    def test_deterministic(self):
        assert sierpinski_triangle(4) == sierpinski_triangle(4)

    def test_level_cap(self):
        with pytest.raises(ResourceLimitError):
            sierpinski_triangle(13)


class TestCantorSet:
    def test_level0(self):
        assert cantor_set(0).points.tolist() == [[0.0]]

    def test_level2_endpoints(self):
        np.testing.assert_allclose(
            cantor_set(2).points.ravel(), [0.0, 2 / 9, 2 / 3, 8 / 9]
        )

    def test_level2_matches_ifs_enumeration(self):
        # middle-thirds IFS images of 0: x/3 and x/3 + 2/3, twice
        expected = sorted(
            f2(f1(0.0))
            for f1 in (lambda x: x / 3, lambda x: x / 3 + 2 / 3)
            for f2 in (lambda x: x / 3, lambda x: x / 3 + 2 / 3)
        )
        np.testing.assert_allclose(cantor_set(2).points.ravel(), expected)

    def test_count(self):
        assert cantor_set(10).n == 1024

    def test_level_cap(self):
        with pytest.raises(ResourceLimitError):
            cantor_set(21)


class TestSierpinskiTree:
    def test_single_application(self):
        net = sierpinski_tree(SierpinskiTreeParams(3, 0.5, 1))
        assert net.node_count == 4
        assert net.edge_count == 3
        assert all(w == 1.0 for _, _, w in net.edges)

    def test_level5_counts(self):
        net = sierpinski_tree(SierpinskiTreeParams(3, 0.5, 5))
        assert net.node_count == 364
        assert net.edge_count == 363

    def test_level2_weight_range(self):
        weights = [w for _, _, w in sierpinski_tree(SierpinskiTreeParams(3, 0.5, 2)).edges]
        assert min(weights) == 0.5
        assert max(weights) == 1.0

    @pytest.mark.parametrize("levels", range(7))
    def test_always_a_tree(self, levels):
        net = sierpinski_tree(SierpinskiTreeParams(3, 0.5, levels))
        assert net.edge_count == net.node_count - 1
        if net.node_count > 1:
            assert math.isfinite(shortest_path_metric(net).dist.max())

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_self_similarity_witness(self, levels):
        """Removing the newest hub leaves 3 copies of the previous level, weights halved."""
        prev = sierpinski_tree(SierpinskiTreeParams(3, 0.5, levels - 1))
        cur = sierpinski_tree(SierpinskiTreeParams(3, 0.5, levels))
        hub = cur.node_count - 1
        n_prev = prev.node_count
        remaining = [e for e in cur.edges if hub not in (e[0], e[1])]
        for c in range(3):
            off = c * n_prev
            copy = sorted(
                (u - off, v - off, w) for u, v, w in remaining if off <= u and v < off + n_prev
            )
            expected = sorted((u, v, w * 0.5) for u, v, w in prev.edges)
            assert copy == expected
        assert len(remaining) == 3 * prev.edge_count

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SierpinskiTreeParams(1, 0.5, 2)
        with pytest.raises(ValueError):
            SierpinskiTreeParams(3, 1.0, 2)
        with pytest.raises(ValueError):
            SierpinskiTreeParams(3, 0.5, -1)

    def test_node_cap(self, monkeypatch):
        # the cap admits a level-12 tree at s = 3, which is too large to build here
        assert (3**13 - 1) // 2 <= spaces.NETWORK_NODE_CAP < (3**14 - 1) // 2
        monkeypatch.setattr(spaces, "NETWORK_NODE_CAP", 40)
        assert sierpinski_tree(SierpinskiTreeParams(3, 0.5, 3)).node_count == 40
        with pytest.raises(ResourceLimitError):
            sierpinski_tree(SierpinskiTreeParams(3, 0.5, 4))


class TestLineNetwork:
    def test_single_node(self):
        net = line_network(1)
        assert net.node_count == 1
        assert net.edges == ()

    def test_five_nodes(self):
        net = line_network(5)
        assert net.edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0))

    def test_node_cap(self, monkeypatch):
        monkeypatch.setattr(spaces, "NETWORK_NODE_CAP", 40)
        assert line_network(40).node_count == 40
        with pytest.raises(ResourceLimitError):
            line_network(41)


class TestShortestPathMetric:
    def test_fig7_weight3_edge_bypassed(self, fig7_left):
        metric = shortest_path_metric(fig7_left)
        assert metric.dist[0, 1] == 2.0

    def test_fig7_networks_same_metric(self, fig7_left, fig7_right):
        a = shortest_path_metric(fig7_left)
        b = shortest_path_metric(fig7_right)
        assert np.array_equal(a.dist, b.dist)

    def test_line_endpoints(self):
        metric = shortest_path_metric(line_network(4))
        assert metric.dist[0, 3] == 3.0

    def test_disconnected_inf(self):
        net = WeightedNetwork(4, ((0, 1, 1.0), (2, 3, 1.0)))
        metric = shortest_path_metric(net)
        assert math.isinf(metric.dist[0, 2])
        assert metric.dist.max() == math.inf

    def test_triangle_inequality_exact(self, fig7_left):
        assert triangle_violations(shortest_path_metric(fig7_left).dist, tol=0.0) == []

    def test_triangle_inequality_on_tree(self):
        net = sierpinski_tree(SierpinskiTreeParams(3, 0.5, 4))
        assert triangle_violations(shortest_path_metric(net).dist, tol=0.0) == []

    @pytest.mark.parametrize("seed", range(12))
    def test_blocked_minimum_equals_whole_minimum(self, seed, monkeypatch):
        # blocks of 7 rows, so that every network of 8 nodes or more spans several
        monkeypatch.setattr(spaces, "ROW_BLOCK", 7)
        net = random_network(seed) if seed % 2 else random_connected_network(seed)
        d = dijkstra(net.graph, directed=True)
        expected = np.minimum(d, d.T)
        np.fill_diagonal(expected, 0.0)
        assert shortest_path_metric(net).dist.tobytes() == expected.tobytes()

    def test_symmetrised_in_place_without_a_second_n_by_n_array(self):
        n = 3000
        net = WeightedNetwork(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))
        net.graph  # built before tracing: the edges, not the metric
        tracemalloc.start()
        try:
            metric = shortest_path_metric(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert metric.dist[0, n - 1] == n - 1
        assert peak < 1.25 * n * n * 8


def random_connected_network(seed):
    """Seeded random spanning tree plus extra edges, weights uniform in (0.01, 10)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 121))
    edges = {}
    for v in range(1, n):
        edges[(int(rng.integers(0, v)), v)] = float(rng.uniform(0.01, 10.0))
    for _ in range(int(rng.integers(0, 2 * n))):
        u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        edges[(u, v)] = float(rng.uniform(0.01, 10.0))
    return WeightedNetwork(n, tuple((u, v, w) for (u, v), w in edges.items()))


def random_network(seed):
    """Seeded random network, often in several components.

    Edges are drawn with repeats, one weight kept per pair (the network
    type rejects duplicates); weights are small integers or uniform floats.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    tied = bool(rng.integers(0, 2))
    edges = {}
    for _ in range(int(rng.integers(0, 2 * n))):
        u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        edges[(u, v)] = float(rng.integers(1, 4)) if tied else float(rng.uniform(0.01, 10.0))
    return WeightedNetwork(n, tuple((u, v, w) for (u, v), w in edges.items()))


def flower_22(generation):
    """(2,2)-flower (Rozenfeld, Havlin & ben-Avraham 2007), unit weights.

    Starts from one link; each generation replaces every link by two
    parallel two-link paths, so ties and cycles are everywhere.
    """
    edges, n = [(0, 1)], 2
    for _ in range(generation):
        longer = []
        for a, b in edges:
            longer += [(a, n), (n, b), (a, n + 1), (n + 1, b)]
            n += 2
        edges = longer
    return WeightedNetwork(n, tuple((min(a, b), max(a, b), 1.0) for a, b in edges))


def count_sweeps(monkeypatch):
    """Counts calls to spaces.shortest_path_rows made through the module."""
    calls = []
    rows = spaces.shortest_path_rows

    def counted(net, sources):
        calls.append(list(sources))
        return rows(net, sources)

    monkeypatch.setattr(spaces, "shortest_path_rows", counted)
    return calls


class TestNetworkDiameter:
    @pytest.mark.parametrize("n", [1, 2, 5, 64, 501])
    def test_line_exact(self, n):
        net = line_network(n)
        assert network_diameter(net) == induced_diameter(net, range(n)) == n - 1

    def test_star_exact(self):
        star = WeightedNetwork(9, tuple((0, i, 0.5 * i) for i in range(1, 9)))
        assert network_diameter(star) == induced_diameter(star, range(9)) == 7.5

    def test_fig7_exact(self, fig7_left, fig7_right):
        for net in (fig7_left, fig7_right):
            assert network_diameter(net) == induced_diameter(net, range(4)) == 3.0

    @pytest.mark.parametrize("levels", [2, 3, 4, 5, 6])
    def test_sierpinski_tree_exact(self, levels):
        net = sierpinski_tree(SierpinskiTreeParams(3, 0.5, levels))
        assert network_diameter(net) == induced_diameter(net, range(net.node_count))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_float_weights_match_oracle(self, seed, monkeypatch):
        net = random_connected_network(seed)
        calls = count_sweeps(monkeypatch)
        diam = network_diameter(net)
        assert math.isclose(diam, induced_diameter(net, range(net.node_count)), rel_tol=1e-14)
        assert 1 <= len(calls) <= net.node_count

    @pytest.mark.parametrize(
        "net", [line_network(2001), sierpinski_tree(SierpinskiTreeParams(3, 0.5, 6))],
        ids=["line-2001", "sierpinski-tree-6"],
    )
    def test_three_sweeps_on_line_and_tree(self, net, monkeypatch):
        calls = count_sweeps(monkeypatch)
        network_diameter(net)
        assert len(calls) == 3

    @pytest.mark.parametrize("generation", [2, 3, 4])
    def test_flower_exact_with_every_node_swept(self, generation, monkeypatch):
        net = flower_22(generation)
        assert net.node_count == (2 * 4**generation + 4) // 3
        assert net.edge_count == 4**generation
        calls = count_sweeps(monkeypatch)
        diam = network_diameter(net)
        assert diam == induced_diameter(net, range(net.node_count)) == 2**generation
        assert len(calls) == net.node_count  # the eccentricity bounds never prune

    def test_disconnected_inf(self):
        net = WeightedNetwork(4, ((0, 1, 1.0), (2, 3, 1.0)))
        assert network_diameter(net) == math.inf
        assert network_diameter(WeightedNetwork(3, ())) == math.inf

    @pytest.mark.parametrize(
        "net",
        [sierpinski_tree(SierpinskiTreeParams(3, 0.5, 4)), line_network(201), flower_22(4),
         *(random_network(seed) for seed in range(20))],
        ids=["tree-4", "line-201", "flower-4", *(f"random-{seed}" for seed in range(20))],
    )
    def test_directed_rows_equal_undirected_search(self, net):
        sources = np.arange(net.node_count)
        undirected = dijkstra(net.graph, directed=False, indices=sources)
        assert np.array_equal(shortest_path_rows(net, sources), undirected)

    def test_random_networks_cover_several_components(self):
        parts = [connected_components(random_network(seed).graph)[0]
                 for seed in range(20)]
        assert min(parts) == 1 and max(parts) > 1

    def test_rows_equal_dense_metric_rows(self):
        net = sierpinski_tree(SierpinskiTreeParams(3, 0.5, 4))
        rows = shortest_path_rows(net, [0, 7, net.node_count - 1])
        dense = shortest_path_metric(net).dist
        assert rows.shape == (3, net.node_count)
        assert np.array_equal(rows, dense[[0, 7, net.node_count - 1]])


class TestMetricOps:
    def test_rescale_identity(self):
        m = euclidean_metric(PointCloud(np.array([[0.0], [1.0]])))
        assert np.array_equal(rescale(m, 1.0).dist, m.dist)

    def test_rescale_two_points(self):
        m = euclidean_metric(PointCloud(np.array([[0.0], [1.0]])))
        assert rescale(m, 3.0).dist[0, 1] == 3.0

    def test_rescale_composes(self):
        m = euclidean_metric(PointCloud(np.array([[0.0], [1.0], [2.5]])))
        a = rescale(rescale(m, 2.0), 3.0)
        b = rescale(m, 6.0)
        assert np.array_equal(a.dist, b.dist)
        assert a.scale == b.scale

    def test_diameter_line5(self):
        assert shortest_path_metric(line_network(5)).dist.max() == 4.0

    def test_invalid_scale(self):
        m = euclidean_metric(PointCloud(np.array([[0.0], [1.0]])))
        with pytest.raises(ValueError):
            rescale(m, 0.0)

    def test_metric_validation(self):
        with pytest.raises(ValueError):
            MetricView(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
        with pytest.raises(ValueError):
            MetricView(np.array([[1.0]]))  # nonzero diagonal

    @pytest.mark.parametrize("bad", [-1.0, math.nan], ids=["negative", "nan"])
    def test_metric_rejects_negative_or_nan_distance(self, bad):
        with pytest.raises(ValueError, match="distances must be non-negative and not NaN"):
            MetricView(np.array([[0.0, bad], [bad, 0.0]]))

    @pytest.mark.parametrize(
        "i, j", [(290, 270), (255, 256)], ids=["last-partial-block", "block-boundary"]
    )
    def test_metric_rejects_one_asymmetric_entry(self, random_cloud, i, j):
        d = euclidean_metric(random_cloud(300, seed=30)).dist.copy()
        d[i, j] = np.nextafter(d[i, j], math.inf)
        with pytest.raises(ValueError, match="symmetric"):
            MetricView(d)

    def test_metric_rejects_one_off_diagonal_nan(self, random_cloud):
        d = euclidean_metric(random_cloud(300, seed=31)).dist.copy()
        d[3, 200] = d[200, 3] = math.nan
        with pytest.raises(ValueError, match="not NaN"):
            MetricView(d)

    def test_metric_accepts_inf_that_magnitude_rejects(self, random_cloud):
        d = euclidean_metric(random_cloud(300, seed=32)).dist.copy()
        d[3, 200] = d[200, 3] = math.inf
        with pytest.raises(ValueError, match="requires all distances finite"):
            magnitude(MetricView(d))

    @pytest.mark.parametrize(
        "points",
        [
            sierpinski_triangle(5).points,
            np.random.default_rng(33).random((200, 3)),
            np.array([[0.0], [1e154], [2.5]]),
        ],
        ids=["sierpinski-5", "cube-200", "wide-line"],
    )
    def test_euclidean_metric_equals_squareform_pdist(self, points):
        assert np.array_equal(euclidean_metric(PointCloud(points)).dist, squareform(pdist(points)))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_one_point_metric(self, dim):
        metric = euclidean_metric(PointCloud(np.full((1, dim), 0.5)))
        assert metric.dist.shape == (1, 1) and metric.dist[0, 0] == 0.0


class TestSubsample:
    def test_full_size_returns_cloud_in_order(self, random_cloud):
        cloud = random_cloud(20)
        assert subsample(cloud, 20, 9) == cloud

    def test_deterministic(self, random_cloud):
        cloud = random_cloud(50)
        assert subsample(cloud, 10, 123) == subsample(cloud, 10, 123)

    def test_out_of_range(self, random_cloud):
        cloud = random_cloud(5)
        with pytest.raises(ValueError):
            subsample(cloud, 6, 0)
        with pytest.raises(ValueError):
            subsample(cloud, 0, 0)

    def test_points_are_distinct_rows_of_input(self, random_cloud):
        cloud = random_cloud(30)
        sub = subsample(cloud, 12, 5)
        rows = {tuple(r) for r in cloud.points}
        assert len({tuple(r) for r in sub.points}) == 12
        assert all(tuple(r) in rows for r in sub.points)

    def test_single_point_frequencies_uniform(self, random_cloud):
        # chi-square style sanity: each of 10 points drawn with freq 0.1 +- 0.01
        cloud = random_cloud(10)
        counts = np.zeros(10)
        for rep in range(10000):
            sub = subsample(cloud, 1, derive_seed(7, rep))
            idx = int(np.nonzero((cloud.points == sub.points[0]).all(axis=1))[0][0])
            counts[idx] += 1
        freqs = counts / 10000
        assert np.all(np.abs(freqs - 0.1) <= 0.01)

    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(1, 15))
    @settings(max_examples=25)
    def test_determinism_property(self, seed, n):
        cloud = PointCloud(np.arange(30, dtype=float).reshape(15, 2))
        assert subsample(cloud, n, seed) == subsample(cloud, n, seed)


class TestValidation:
    def test_pointcloud_rejects_nan(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, np.nan]]))

    def test_pointcloud_rejects_overflowing_distances(self):
        # each axis extent squares to a finite 1e308; the sum of squares does not
        with pytest.raises(ValueError, match="distances overflow float64"):
            PointCloud(np.array([[0.0, 0.0], [1e154, 1e154]]))
        with pytest.raises(ValueError, match="distances overflow float64"):
            PointCloud(np.array([[1e200], [-1e200]]))
        assert euclidean_metric(PointCloud(np.array([[0.0], [1e154]]))).dist[0, 1] == 1e154

    def test_network_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedNetwork(2, ((0, 0, 1.0),))

    def test_network_rejects_duplicate(self):
        with pytest.raises(ValueError):
            WeightedNetwork(2, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_network_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            WeightedNetwork(2, ((0, 1, 0.0),))

    def test_network_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            WeightedNetwork(2, ((0, 2, 1.0),))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((2, 2, 1.0), "self-loop at node 2"),
            ((2, 9, 1.0), "edge (2,9) outside node range"),
            ((3, 2, 0.0), "edge (3,2) weight 0.0 is not in (0, inf)"),
            ((2, 3, math.nan), "edge (2,3) weight nan is not in (0, inf)"),
            ((2, 3, math.inf), "edge (2,3) weight inf is not in (0, inf)"),
            ((1, 0, 2.0), "duplicate edge (0, 1)"),
        ],
        ids=["self-loop", "range", "zero", "nan", "inf", "reversed-duplicate"],
    )
    def test_network_names_its_first_bad_edge(self, bad, message):
        with pytest.raises(InvalidEntryError, match=f"^{re.escape(message)}$") as err:
            WeightedNetwork(4, ((0, 1, 1.0), (1, 2, 1.0), bad, (0, 0, 1.0)))
        assert err.value.index == 2

    def test_pointcloud_names_its_first_bad_row(self):
        with pytest.raises(InvalidEntryError, match="^coordinates must be finite$") as err:
            PointCloud(np.array([[0.0, 1.0], [2.0, 3.0], [4.0, np.inf], [np.nan, 0.0]]))
        assert err.value.index == 2
