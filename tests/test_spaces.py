import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components, dijkstra

from fracdim import (
    MetricView,
    PointCloud,
    ResourceLimitError,
    SierpinskiTreeParams,
    WeightedNetwork,
    cantor_set,
    derive_seed,
    euclidean_metric,
    line_network,
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

    def counted(net, sources, **kwargs):
        calls.append(list(sources))
        return rows(net, sources, **kwargs)

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

    def test_graph_built_once(self, monkeypatch):
        built = []
        make = spaces.csr_graph
        monkeypatch.setattr(spaces, "csr_graph", lambda net: built.append(net) or make(net))
        network_diameter(flower_22(3))
        assert len(built) == 1

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
        undirected = dijkstra(spaces.csr_graph(net), directed=False, indices=sources)
        assert np.array_equal(shortest_path_rows(net, sources), undirected)

    def test_random_networks_cover_several_components(self):
        parts = [connected_components(spaces.csr_graph(random_network(seed)))[0]
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
