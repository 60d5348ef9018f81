import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdim import (
    MetricView,
    PointCloud,
    ResourceLimitError,
    Simplex,
    alpha_complex_2d,
    euclidean_metric,
    h0_union_find,
    persistence,
    rescale,
    sierpinski_triangle,
    subsample,
    vietoris_rips,
)
from fracdim.filtration import FilteredComplex, simplex_cap
from oracles import naive_persistence_pairs


def two_point_metric(d):
    return MetricView(np.array([[0.0, d], [d, 0.0]]))


def equilateral_metric(side):
    d = np.full((3, 3), float(side))
    np.fill_diagonal(d, 0.0)
    return MetricView(d)


class TestVietorisRips:
    def test_two_points(self):
        complex = vietoris_rips(two_point_metric(1.5), 1)
        assert [(s.vertices, s.value) for s in complex.simplices] == [
            ((0,), 0.0),
            ((1,), 0.0),
            ((0, 1), 1.5),
        ]

    def test_equilateral_triangle_enters_at_side(self):
        complex = vietoris_rips(equilateral_metric(2.0), 2)
        top = [s for s in complex.simplices if s.dim == 2]
        assert top == [Simplex((0, 1, 2), 2.0)]

    def test_max_scale_below_min_distance_gives_vertices_only(self):
        complex = vietoris_rips(equilateral_metric(2.0), 2, max_scale=1.0)
        assert all(s.dim == 0 for s in complex.simplices)
        assert len(complex) == 3

    def test_simplex_count_full(self, random_cloud):
        cloud = random_cloud(8)
        complex = vietoris_rips(euclidean_metric(cloud), 7)
        assert len(complex) == 2**8 - 1

    def test_value_is_max_pairwise_distance(self, random_cloud):
        cloud = random_cloud(7, seed=3)
        m = euclidean_metric(cloud)
        complex = vietoris_rips(m, 3)
        for s in complex.simplices:
            if s.dim >= 1:
                expected = max(
                    m.dist[a, b] for a in s.vertices for b in s.vertices if a < b
                )
                assert s.value == expected

    def test_infinite_distances_never_form_edges(self):
        d = np.array([[0.0, math.inf], [math.inf, 0.0]])
        complex = vietoris_rips(MetricView(d), 1)
        assert all(s.dim == 0 for s in complex.simplices)

    def test_resource_cap(self, random_cloud):
        cloud = random_cloud(12)
        with pytest.raises(ResourceLimitError):
            vietoris_rips(euclidean_metric(cloud), 11, cap=100)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("FRACDIM_MAX_SIMPLICES", "123")
        assert simplex_cap() == 123
        monkeypatch.delenv("FRACDIM_MAX_SIMPLICES")
        assert simplex_cap() == 50_000_000

    def test_rescaling_equivariance(self, random_cloud):
        cloud = random_cloud(10, seed=5)
        m = euclidean_metric(cloud)
        t = 3.5
        base = vietoris_rips(m, 2).simplices
        scaled = vietoris_rips(rescale(m, t), 2).simplices
        assert len(base) == len(scaled)
        for a, b in zip(base, scaled):
            assert a.vertices == b.vertices
            assert b.value == pytest.approx(a.value * t, abs=1e-12)


class TestAlphaComplex:
    def test_single_point(self):
        complex = alpha_complex_2d(PointCloud(np.array([[1.0, 2.0]])))
        assert [(s.vertices, s.value) for s in complex.simplices] == [((0,), 0.0)]

    def test_two_points_edge_at_half_distance(self):
        complex = alpha_complex_2d(PointCloud(np.array([[0.0, 0.0], [3.0, 0.0]])))
        edge = [s for s in complex.simplices if s.dim == 1][0]
        assert edge.value == 1.5

    def test_equilateral_values(self):
        pts = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]))
        complex = alpha_complex_2d(pts)
        edges = sorted(s.value for s in complex.simplices if s.dim == 1)
        tri = [s.value for s in complex.simplices if s.dim == 2]
        assert edges == pytest.approx([0.5, 0.5, 0.5])
        assert tri == pytest.approx([1 / math.sqrt(3)])

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            alpha_complex_2d(PointCloud(np.array([[0.0, 0.0], [0.0, 0.0]])))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            alpha_complex_2d(PointCloud(np.array([[0.0], [1.0]])))

    def test_collinear_points_form_path(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [4.0, 0.0]]))
        complex = alpha_complex_2d(cloud)
        edges = sorted(
            (s.vertices, s.value) for s in complex.simplices if s.dim == 1
        )
        assert edges == [((0, 2), 0.5), ((1, 2), 0.5), ((1, 3), 1.0)]

    def test_simplex_count_linear(self, random_cloud):
        # Delaunay bound: <= 2n - 5 triangles, <= 3n - 6 edges
        cloud = random_cloud(200, seed=11)
        complex = alpha_complex_2d(cloud)
        n_tri = sum(1 for s in complex.simplices if s.dim == 2)
        n_edge = sum(1 for s in complex.simplices if s.dim == 1)
        assert n_tri <= 2 * cloud.n - 5
        assert n_edge <= 3 * cloud.n - 6

    def test_subcomplex_of_delaunay(self, random_cloud):
        from scipy.spatial import Delaunay

        cloud = random_cloud(40, seed=2)
        complex = alpha_complex_2d(cloud)
        tri = Delaunay(cloud.points)
        delaunay_tris = {tuple(sorted(map(int, s))) for s in tri.simplices}
        got = {s.vertices for s in complex.simplices if s.dim == 2}
        assert got == delaunay_tris

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_face_monotone_on_random_clouds(self, random_cloud, seed):
        # construction re-checks closure internally; just build it
        alpha_complex_2d(random_cloud(150, seed=seed))

    @pytest.mark.parametrize("n, seed", [(100, 5), (250, 1), (250, 15)])
    def test_zero_area_delaunay_triangles(self, n, seed):
        # Qhull returns collinear triangles on these lattice subsamples
        cloud = subsample(sierpinski_triangle(7), n, seed)
        complex = alpha_complex_2d(cloud)  # checks face closure on build
        got = persistence(complex, 1)
        expected = naive_persistence_pairs(complex, 1)
        for degree in range(2):
            assert sorted(
                (iv.birth, iv.death) for iv in got[degree].intervals
            ) == pytest.approx(expected[degree])
        h0, h1 = got
        assert sum(1 for iv in h0.intervals if not iv.finite) == 1
        assert all(iv.finite for iv in h1.intervals)
        mst = h0_union_find(euclidean_metric(cloud))
        assert sorted(iv.death for iv in h0.finite_intervals()) == pytest.approx(
            sorted(iv.death / 2.0 for iv in mst.finite_intervals())
        )

    def test_grid_cocircular_points(self):
        # 3x3 integer grid: maximally cocircular configuration
        xs, ys = np.meshgrid(np.arange(3.0), np.arange(3.0))
        cloud = PointCloud(np.c_[xs.ravel(), ys.ravel()])
        complex = alpha_complex_2d(cloud)
        assert max(s.dim for s in complex.simplices) == 2


class TestFilteredComplex:
    def test_sorted_by_value_dim_vertices(self, random_cloud):
        complex = vietoris_rips(euclidean_metric(random_cloud(9, seed=4)), 2)
        keys = [(s.value, s.dim, s.vertices) for s in complex.simplices]
        assert keys == sorted(keys)

    def test_face_closure_rejects_missing_face(self):
        with pytest.raises(ValueError):
            FilteredComplex(
                (Simplex((0,), 0.0), Simplex((1,), 0.0), Simplex((0, 1, 2), 1.0)),
                2,
            )

    def test_face_closure_rejects_value_inversion(self):
        with pytest.raises(ValueError):
            FilteredComplex(
                (
                    Simplex((0,), 0.0),
                    Simplex((1,), 0.0),
                    Simplex((0, 1), 2.0),
                    Simplex((2,), 0.0),
                    Simplex((0, 2), 1.0),
                    Simplex((1, 2), 1.0),
                    Simplex((0, 1, 2), 1.0),  # below its (0,1) face
                ),
                2,
            )

    def test_dump_format(self):
        complex = vietoris_rips(two_point_metric(0.5), 1)
        assert complex.dump() == "0:0\n1:0\n0,1:0.5"

    def test_simplex_validation(self):
        with pytest.raises(ValueError):
            Simplex((1, 0), 0.0)
        with pytest.raises(ValueError):
            Simplex((0, 1), -1.0)
        with pytest.raises(ValueError):
            Simplex((), 0.0)


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_vr_face_closure_random_metrics(seed):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.random((8, 2)))
    # construction validates closure internally
    vietoris_rips(euclidean_metric(cloud), 3)

