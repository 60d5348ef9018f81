import math
import tracemalloc

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
    derive_seed,
    euclidean_metric,
    h0_union_find,
    persistence,
    rescale,
    sierpinski_triangle,
    subsample,
    vietoris_rips,
)
from fracdim.filtration import FilteredComplex, simplex_cap
from oracles import naive_persistence_pairs, naive_rips_layers

SLOPES = (math.sqrt(2), math.sqrt(3), math.pi / 3, (1 + math.sqrt(5)) / 2, -math.e)


def two_point_metric(d):
    return MetricView(np.array([[0.0, d], [d, 0.0]]))


def latest_alpha_death_over_jung_radius(points):
    """Latest finite alpha bar in degrees 0 and 1, over diam/sqrt(3).

    The union of radius-r balls is star-shaped about the centre of the
    smallest enclosing circle once r reaches its radius, which is at most
    diam/sqrt(3) (Jung), so no finite bar may die later: the ratio is <= 1.
    """
    from scipy.spatial.distance import pdist

    bars = persistence(alpha_complex_2d(PointCloud(points)), 1)
    latest = max(iv.death for bc in bars for iv in bc.finite_intervals())
    return latest / (pdist(points).max() / math.sqrt(3))


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

    def test_resource_cap(self, random_cloud, monkeypatch):
        monkeypatch.setenv("FRACDIM_MAX_SIMPLICES", "100")
        cloud = random_cloud(12)
        with pytest.raises(ResourceLimitError):
            vietoris_rips(euclidean_metric(cloud), 11)

    def test_resource_cap_fires_before_the_layer_exists(self, monkeypatch):
        # 2000 points have 1,999,000 edges: over the cap, and 48 MB as arrays
        monkeypatch.setenv("FRACDIM_MAX_SIMPLICES", str(10**6))
        metric = euclidean_metric(PointCloud(np.random.default_rng(0).random((2000, 2))))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                vietoris_rips(metric, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2000**2  # a few n x n boolean masks, no simplex arrays

    def test_build_peak_below_two_and_a_half_times_its_arrays(self):
        # 88,641 simplices: each layer is built sorted with its face rows, so no
        # re-sorted copy, key index or face lookup outlives its layer
        metric = euclidean_metric(sierpinski_triangle(4))
        tracemalloc.start()
        try:
            complex = vietoris_rips(metric, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        layers = (complex.vertices, complex.values, complex.faces)
        assert peak < 2.5 * sum(array.nbytes for layer in layers for array in layer)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("FRACDIM_MAX_SIMPLICES", "123")
        assert simplex_cap() == 123
        monkeypatch.delenv("FRACDIM_MAX_SIMPLICES")
        assert simplex_cap() == 15_000_000

    def test_default_cap_refuses_the_2_skeleton_of_449_points(self, monkeypatch):
        # 15,086,849 simplices, just over 1.5e7 (448 points have 14,986,272): refused
        # before the triangle layer is allocated
        monkeypatch.delenv("FRACDIM_MAX_SIMPLICES", raising=False)
        metric = euclidean_metric(PointCloud(np.random.default_rng(0).random((449, 2))))
        with pytest.raises(ResourceLimitError):
            vietoris_rips(metric, 2)

    @pytest.mark.parametrize("value", ["inf", "1e400", "nan", "-5", "abc"])
    def test_cap_env_rejects_non_finite_or_negative(self, monkeypatch, value):
        monkeypatch.setenv("FRACDIM_MAX_SIMPLICES", value)
        with pytest.raises(ValueError, match="FRACDIM_MAX_SIMPLICES must be"):
            simplex_cap()

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

    def test_near_collinear_sierpinski_sample_has_no_late_bar(self):
        # rows 478, 542 and 803 lie on the right side of the gasket, collinear
        # up to rounding; that triangle once read a circumradius of 6.6e14
        # and left the degree-1 bar [0.394, 6.6e14]
        cloud = subsample(sierpinski_triangle(10), 834, derive_seed(42, 834, 6))
        assert latest_alpha_death_over_jung_radius(cloud.points) <= 1.0

    @given(
        st.lists(st.tuples(st.sampled_from(SLOPES), st.floats(-1.0, 1.0)), min_size=2, max_size=4),
        st.sampled_from([1.0, 1e-2]),
        st.integers(3, 30),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_points_on_lines_of_irrational_slope_leave_no_late_bar(
        self, lines, spread, per_line, seed
    ):
        # points on each line are collinear up to rounding, so Qhull returns
        # flat triangles along the lines; spread 1e-2 packs the lines close
        rng = np.random.default_rng(seed)
        xs = rng.random((len(lines), per_line))
        points = np.unique(np.concatenate(
            [np.c_[x, slope * x + spread * b] for (slope, b), x in zip(lines, xs)]
        ), axis=0)
        if np.linalg.matrix_rank(points - points[0]) < 2:
            return  # one line: the collinear path, with no degree-1 bars
        assert latest_alpha_death_over_jung_radius(points) <= 1.0

    def test_grid_cocircular_points(self):
        # 3x3 integer grid: maximally cocircular configuration
        xs, ys = np.meshgrid(np.arange(3.0), np.arange(3.0))
        cloud = PointCloud(np.c_[xs.ravel(), ys.ravel()])
        complex = alpha_complex_2d(cloud)
        assert max(s.dim for s in complex.simplices) == 2


class TestFilteredComplex:
    def test_sorted_by_value_dim_vertices(self, random_cloud):
        # Sierpinski-2 at max_dim 3 has many equal values
        for cloud, max_dim in ((random_cloud(9, seed=4), 2), (sierpinski_triangle(2), 3)):
            complex = vietoris_rips(euclidean_metric(cloud), max_dim)
            keys = [(s.value, s.dim, s.vertices) for s in complex.simplices]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(complex)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: vietoris_rips(euclidean_metric(sierpinski_triangle(2)), 3),
            lambda: vietoris_rips(euclidean_metric(subsample(sierpinski_triangle(5), 12, 3)), 4),
            lambda: alpha_complex_2d(subsample(sierpinski_triangle(6), 60, 1)),
            lambda: alpha_complex_2d(PointCloud(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]]))),
        ],
        ids=["vr-sierpinski-2", "vr-12-points", "alpha-60", "alpha-collinear"],
    )
    def test_face_rows_name_exactly_the_faces(self, build):
        complex = build()
        assert complex.faces[0].shape == (len(complex.vertices[0]), 0)
        for d in range(1, complex.max_dim + 1):
            below = [tuple(v) for v in complex.vertices[d - 1].tolist()]
            for verts, rows in zip(complex.vertices[d].tolist(), complex.faces[d].tolist()):
                expected = [tuple(verts[:k] + verts[k + 1 :]) for k in range(d + 1)]
                assert [below[r] for r in rows] == expected

    def test_layers_sorted_by_value_then_vertices(self):
        complex = vietoris_rips(euclidean_metric(sierpinski_triangle(2)), 3)
        for verts, vals in zip(complex.vertices, complex.values):
            keys = list(zip(vals.tolist(), map(tuple, verts.tolist())))
            assert keys == sorted(keys)
            assert not verts.flags.writeable and not vals.flags.writeable

    def test_face_closure_rejects_missing_face(self):
        with pytest.raises(ValueError, match="missing vertex of"):
            FilteredComplex(([[0], [1]], np.empty((0, 2)), [[0, 1, 2]]), ([0.0, 0.0], [], [1.0]))
        with pytest.raises(ValueError, match="missing face without vertex 1 of"):
            FilteredComplex(
                ([[0], [1], [2]], [[0, 1], [1, 2]], [[0, 1, 2]]),
                ([0.0, 0.0, 0.0], [1.0, 1.0], [1.0]),
            )

    def test_face_closure_rejects_value_inversion(self):
        with pytest.raises(ValueError, match=r"face above coface \(0, 1, 2\)"):
            FilteredComplex(
                ([[0], [1], [2]], [[0, 1], [0, 2], [1, 2]], [[0, 1, 2]]),
                ([0.0, 0.0, 0.0], [2.0, 1.0, 1.0], [1.0]),  # below its (0,1) face
            )

    def test_duplicate_simplex_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate simplex \(0, 1\)"):
            FilteredComplex(([[0], [1]], [[0, 1], [0, 1]]), ([0.0, 0.0], [1.0, 2.0]))

    def test_simplex_validation(self):
        # unsorted vertex rows, bad values, wrong shapes and no layers at all
        cases = [
            (([[0], [1]], [[1, 0]]), ([0.0, 0.0], [0.0]), "not strictly increasing"),
            (([[0], [1]], [[0, 1]]), ([0.0, 0.0], [-1.0]), "negative or non-finite value"),
            (([[0], [1]], [[0, 1]]), ([0.0, 0.0], [math.nan]), "negative or non-finite value"),
            (([[0], [1]], [[0, 1]]), ([0.0, 0.0], [math.inf]), "negative or non-finite value"),
            ((np.empty((1, 0), int),), ([0.0],), "layer 0 needs vertex rows"),
            (([[0], [1]], [[0, 1]]), ([0.0, 0.0], [1.0, 1.0]), "layer 1 needs vertex rows"),
            ((), (), "at least one layer"),
        ]
        for vertices, values, message in cases:
            with pytest.raises(ValueError, match=message):
                FilteredComplex(vertices, values)


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_vr_face_closure_random_metrics(seed):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.random((8, 2)))
    # construction validates closure internally
    vietoris_rips(euclidean_metric(cloud), 3)



@st.composite
def tied_rips_inputs(draw):
    """Distances in {0, 1, 2, 3, inf} on 0 to 12 points, a max_dim up to 3 and a scale cut."""
    n = draw(st.integers(0, 12))
    d = np.zeros((n, n))
    pairs = n * (n - 1) // 2
    d[np.triu_indices(n, 1)] = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0, 0.0, math.inf]),
                                             min_size=pairs, max_size=pairs))
    max_dim = draw(st.integers(0, min(3, max(n - 1, 0))))
    return d + d.T, max_dim, draw(st.sampled_from([math.inf, 2.0, 1.0, 2.5, 0.0]))


@given(tied_rips_inputs())
@settings(max_examples=150, deadline=None)
def test_vr_layers_equal_subset_oracle_and_validating_constructor(case):
    dist, max_dim, max_scale = case
    complex = vietoris_rips(MetricView(dist), max_dim, max_scale)
    layers = (complex.vertices, complex.values, complex.faces)
    assert [[array.tolist() for array in layer] for layer in layers] == list(
        naive_rips_layers(dist, max_dim, max_scale)
    )
    checked = FilteredComplex(complex.vertices, complex.values)
    for got, want in zip(layers, (checked.vertices, checked.values, checked.faces)):
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            assert not a.flags.writeable
