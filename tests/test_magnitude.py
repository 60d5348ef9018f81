import ctypes
import errno
import importlib
import math
import mmap
import os
import subprocess
import sys
import threading
import tracemalloc

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
    alpha_complex_2d,
    euclidean_metric,
    magnitude,
    magnitude_function,
    persistence,
    persistent_magnitude,
    persistent_magnitude_curve,
    rescale,
    rips_magnitude,
    sierpinski_triangle,
    subsample,
    vietoris_rips,
)
from oracles import (
    cholesky_magnitude,
    magnitudes_at_one_blas_thread,
    naive_magnitude,
    naive_persistent_magnitude,
    symmetric_solve_magnitude,
)


magnitude_module = importlib.import_module("fracdim.magnitude")


def two_point_metric(d):
    return MetricView(np.array([[0.0, d], [d, 0.0]]))


def bipartite_metric(a, b):
    """K_{a,b}: distance 1 across the parts, 2 within them."""
    part = np.repeat([0, 1], [a, b])
    dist = np.where(part[:, None] == part[None, :], 2.0, 1.0)
    np.fill_diagonal(dist, 0.0)
    return dist


def k32_metric():
    """K_{3,2}; zeta is indefinite at t = 0.1, 0.2, 0.3 and positive definite at t = 0.5, 1."""
    return bipartite_metric(3, 2)


def indefinite(dist, t):
    return np.linalg.eigvalsh(np.exp(-dist * t)).min() < 0


def openblas_libraries():
    """(name, getter, setter) of each OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if getter is not None:
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                found.append((os.path.basename(path), getter, setter))
                break
    return found


@pytest.fixture
def openblas_at_two_threads():
    """Every OpenBLAS at 2 threads, so that a pin to one shows; the old counts come back after."""
    libraries = openblas_libraries()
    if not libraries:
        pytest.skip("no OpenBLAS with a thread getter is loaded")
    old = [getter() for _, getter, _ in libraries]
    for _, _, setter in libraries:
        setter(2)

    def counts():
        return {name: getter() for name, getter, _ in libraries}

    yield counts
    for (_, _, setter), count in zip(libraries, old):
        setter(count)


def record_before_each_solve(monkeypatch, probe):
    """Patch the per-t solve to append probe() before it runs; returns the list."""
    seen = []
    solve = magnitude_module._solve_in_buffers

    def recording_solve(*args):
        seen.append(probe())
        return solve(*args)

    monkeypatch.setattr(magnitude_module, "_solve_in_buffers", recording_solve)
    return seen


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

    # zeta @ w is formed in blocks of rows; these sizes end in a block of
    # 1, 7, 1 (joined to the one before it) and 11 rows
    @pytest.mark.parametrize("n", [1, 7, 33, 299])
    def test_values_equal_cholesky_oracle_bit_for_bit(self, n):
        metric = euclidean_metric(subsample(sierpinski_triangle(7), n, 11))
        grid = [float(t) for t in range(1, 101)]
        samples = magnitude_function(metric, grid)
        assert all(samples.accepted())
        expected = magnitudes_at_one_blas_thread(cholesky_magnitude, metric.dist, grid)
        assert samples.values == tuple(expected)

    # K_{3,2} runs dsytrf's unblocked code only; K_{120,90} is above its block
    # size, so its bits hold only where dsytrf is given the blocked workspace
    @pytest.mark.parametrize("a, b", [(3, 2), (120, 90)], ids=["K3,2", "K120,90"])
    def test_fallback_values_equal_symmetric_solve_oracle_bit_for_bit(self, a, b):
        dist = bipartite_metric(a, b)
        grid = [0.01, 0.05, 0.1]
        assert all(indefinite(dist, t) for t in grid)
        samples = magnitude_function(MetricView(dist), grid)
        assert all(samples.accepted())
        expected = magnitudes_at_one_blas_thread(symmetric_solve_magnitude, dist, grid)
        assert samples.values == tuple(expected)

    def test_curve_holds_one_n_by_n_buffer_beside_the_metric(self, monkeypatch):
        metric = euclidean_metric(subsample(sierpinski_triangle(7), 500, 11))
        n = metric.size
        mapped = []
        real_mmap = mmap.mmap

        def recording_mmap(fileno, length, *args, **kwargs):
            mapped.append(length)
            return real_mmap(fileno, length, *args, **kwargs)

        monkeypatch.setattr(mmap, "mmap", recording_mmap)
        tracemalloc.start()
        try:
            magnitude_function(metric, [1.0, 2.0, 3.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the buffer is the one mapping, which tracemalloc does not see; no traced
        # allocation comes near n x n
        assert mapped == [n * n * 8]
        assert peak < 0.5 * n * n * 8

    # one block with its one-row tail joined, then three and four blocks; K_{120,90}
    # is indefinite, so its zeta is written again and factored by Bunch-Kaufman
    @pytest.mark.parametrize("n", [33, 70, 100, "K120,90"])
    def test_cholesky_leaves_the_buffer_below_the_diagonal_blocks_unwritten(self, n):
        if n == "K120,90":
            dist, t = bipartite_metric(120, 90), 0.05
            assert indefinite(dist, t)
        else:
            dist, t = euclidean_metric(subsample(sierpinski_triangle(7), n, 11)).dist, 2.0
        n = len(dist)
        starts = list(range(0, max(n - 1, 1), magnitude_module.ROWS))
        blocks = list(zip(starts, starts[1:] + [n]))
        scratch = np.empty((max(hi - lo for lo, hi in blocks), n))
        ones = np.ones(n)
        untouched = np.full((n, n), np.nan, order="F")
        whole = np.empty((n, n), order="F")
        magnitude_module._zeta_into(dist, t, whole.T)  # the full zeta in the C-order view
        with magnitude_module._ONE_BLAS_THREAD:
            got = magnitude_module._solve_in_buffers(dist, t, blocks, untouched, scratch, ones)
            expected = magnitude_module._solve_in_buffers(dist, t, blocks, whole, scratch, ones)
        assert got == expected and got[1] <= magnitude_module.RESIDUAL_TOL
        for lo, hi in blocks:  # Fortran columns lo:hi hold the factor in rows :hi only
            assert np.isnan(untouched[hi:, lo:hi]).all()
            assert not np.isnan(untouched[:hi, lo:hi]).any()

    def test_failed_mapping_raises_memory_error(self, monkeypatch):
        def refusing_mmap(*args, **kwargs):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(mmap, "mmap", refusing_mmap)
        metric = euclidean_metric(subsample(sierpinski_triangle(7), 20, 11))
        with pytest.raises(MemoryError):
            magnitude_function(metric, [1.0])

    def test_failed_cholesky_falls_back_then_buffers_are_reused(self, monkeypatch):
        dist = k32_metric()
        grid = [0.1, 0.2, 0.3, 0.5, 1.0]
        smallest = [np.linalg.eigvalsh(np.exp(-dist * t)).min() for t in grid]
        assert [e > 0 for e in smallest] == [False, False, False, True, True]
        dsytrf = magnitude_module.lapack.dsytrf
        fallbacks = []

        def counting_dsytrf(*args, **kwargs):
            fallbacks.append(args[0].shape)
            return dsytrf(*args, **kwargs)

        monkeypatch.setattr(magnitude_module.lapack, "dsytrf", counting_dsytrf)
        samples = magnitude_function(MetricView(dist), grid)
        assert len(fallbacks) == 3  # one Bunch-Kaufman factorisation per indefinite entry
        assert all(samples.accepted())
        for t, value in zip(grid, samples.values):
            assert value == pytest.approx(naive_magnitude(dist * t), abs=1e-10)

    def test_grid_split_does_not_change_values(self, random_cloud):
        # every entry is solved from the metric alone, so cutting the grid
        # into pieces and joining the results gives the same bits
        metric = euclidean_metric(random_cloud(25, seed=14))
        grid = [0.5, 1.0, 2.0, 4.0, 8.0]
        whole = magnitude_function(metric, grid)
        for cuts in ([2], [1, 3], [1, 2, 3, 4]):
            bounds = [0, *cuts, len(grid)]
            parts = [magnitude_function(metric, grid[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
            values = [v for part in parts for v in part.values]
            residuals = [r for part in parts for r in part.residuals]
            assert np.array(values).tobytes() == np.array(whole.values).tobytes()
            assert np.array(residuals).tobytes() == np.array(whole.residuals).tobytes()


class TestBlasThreads:
    def test_value_does_not_depend_on_blas_thread_setting(self):
        # the pinned value is the one OpenBLAS gives at one thread; at its
        # default of 2 threads an unpinned solve read 1.7304974817694694
        code = (
            "from fracdim import euclidean_metric, magnitude_function, sierpinski_triangle, subsample\n"
            "metric = euclidean_metric(subsample(sierpinski_triangle(7), 300, 1))\n"
            "print(repr(magnitude_function(metric, [1.0]).values[0]))\n"
        )
        src = os.path.dirname(os.path.dirname(magnitude_module.__file__))
        values = {}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            child = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            values[threads] = child.stdout.strip()
        assert values == {"1": "1.7304974817694692", "2": "1.7304974817694692"}

    def test_each_solve_runs_at_one_thread_and_restores_counts(
        self, openblas_at_two_threads, monkeypatch
    ):
        counts = openblas_at_two_threads
        before = counts()
        during = record_before_each_solve(monkeypatch, counts)
        regular = magnitude_function(euclidean_metric(sierpinski_triangle(3)), [1.0, 2.0])
        assert all(regular.accepted()) and counts() == before
        fallback = magnitude_function(MetricView(k32_metric()), [0.1, 1.0])
        assert all(fallback.accepted()) and counts() == before
        failed = magnitude_function(MetricView(np.zeros((2, 2))), [1.0])
        assert failed.residuals == (math.inf,) and counts() == before
        assert during == [{name: 1 for name in before}] * 5

    def test_counts_restored_when_a_solve_raises(self, openblas_at_two_threads, monkeypatch):
        counts = openblas_at_two_threads
        before = counts()

        def failing_solve(*args):
            raise MemoryError

        monkeypatch.setattr(magnitude_module, "_solve_in_buffers", failing_solve)
        with pytest.raises(MemoryError):
            magnitude_function(two_point_metric(1.0), [1.0])
        assert counts() == before

    def test_concurrent_curves_share_one_pin(self, openblas_at_two_threads):
        # the setter is process-wide: a curve that ends while another still
        # solves must not hand the threads back
        counts = openblas_at_two_threads
        before = counts()
        with magnitude_module._ONE_BLAS_THREAD:
            worker = threading.Thread(
                target=magnitude_function, args=(two_point_metric(1.0), [1.0, 2.0])
            )
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
            assert counts() == {name: 1 for name in before}
        assert counts() == before

    def test_threads_solving_at_once_each_run_at_one_thread(
        self, openblas_at_two_threads, monkeypatch
    ):
        counts = openblas_at_two_threads
        before = counts()
        pinned = {name: 1 for name in before}
        seen = record_before_each_solve(monkeypatch, lambda: counts() == pinned)
        metric = euclidean_metric(sierpinski_triangle(3))

        def curves():
            for _ in range(25):
                magnitude_function(metric, [1.0, 2.0])

        workers = [threading.Thread(target=curves) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(seen) == 4 * 25 * 2 and all(seen)
        assert counts() == before

    def test_solves_without_a_thread_setter(self, openblas_at_two_threads, monkeypatch):
        # where no loaded BLAS exports the setter, curves solve at its own setting
        counts = openblas_at_two_threads
        before = counts()
        metric = euclidean_metric(subsample(sierpinski_triangle(5), 100, 3))
        grid = [0.5, 1.0, 2.0]
        pinned = magnitude_function(metric, grid)
        monkeypatch.setattr(magnitude_module, "_openblas_setters", lambda: ())
        during = record_before_each_solve(monkeypatch, counts)
        unpinned = magnitude_function(metric, grid)
        assert all(unpinned.accepted())
        assert unpinned.values == pytest.approx(pinned.values, rel=1e-12)
        assert during == [before] * 3


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


# t = 1e-3 leaves every term near its first-order value; at 1e6 every
# finite-ended term underflows to 0.0
CURVE_GRID = [1e-3, *(float(t) for t in range(1, 301)), 1e6]


def alpha_barcodes(name, max_degree):
    cloud = {
        "sierpinski-5": lambda: sierpinski_triangle(5),
        "square-300": lambda: PointCloud(np.random.default_rng(300).random((300, 2))),
    }[name]()
    return persistence(alpha_complex_2d(cloud), max_degree)


class TestPersistentMagnitudeCurve:
    @pytest.mark.parametrize("max_degree", [0, 1, 2])
    @pytest.mark.parametrize("name", ["sierpinski-5", "square-300"])
    def test_equals_per_interval_loop_on_alpha_barcodes(self, name, max_degree):
        bcs = alpha_barcodes(name, max_degree)
        assert len(bcs) == max_degree + 1 and sum(len(bc.intervals) for bc in bcs) > 200
        curve = persistent_magnitude_curve(bcs, CURVE_GRID)
        assert curve == [naive_persistent_magnitude(bcs, t) for t in CURVE_GRID]
        assert persistent_magnitude(bcs) == persistent_magnitude_curve(bcs, [1.0])[0]
        assert persistent_magnitude(bcs) == naive_persistent_magnitude(bcs, 1.0)

    def test_empty_barcode_list_is_positive_zero(self):
        for bcs in ([], [Barcode(0, ()), Barcode(1, ())]):
            curve = persistent_magnitude_curve(bcs, [0.5, 1.0])
            assert curve == [0.0, 0.0]
            assert all(math.copysign(1.0, v) == 1.0 for v in curve)

    def test_underflowing_degree1_terms_sum_to_positive_zero(self):
        # each term is -1.0 * (0.0 - 0.0) = -0.0; a sum from 0.0 stays +0.0
        bcs = [Barcode(1, (Interval(0.5, 2.0), Interval(1.0, math.inf)))]
        (value,) = persistent_magnitude_curve(bcs, [1e6])
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        oracle = naive_persistent_magnitude(bcs, 1e6)
        assert math.copysign(1.0, oracle) == 1.0

    # repeated endpoints, births equal to other bars' deaths (0.5, 2.0), infinite
    # bars in even and odd degrees, and deaths whose t d overflows to inf
    SHARED_ENDPOINTS = [
        Barcode(0, (Interval(0.0, math.inf), Interval(0.0, 0.5), Interval(0.0, 0.5),
                    Interval(0.5, 2.0), Interval(2.0, 1e300))),
        Barcode(1, (Interval(0.5, math.inf), Interval(0.5, 2.0), Interval(2.0, 2.0),
                    Interval(1e300, math.inf), Interval(1e-300, 0.5))),
        Barcode(2, (Interval(2.0, math.inf), Interval(0.0, 0.5))),
        Barcode(3, (Interval(0.5, 1e308), Interval(1e308, math.inf))),
    ]

    # t d past float64 is inf, and e^-inf the 0.0 of an unborn or dead bar
    overflow_ok = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

    @overflow_ok
    @pytest.mark.parametrize("grid", [[1e-3, 0.5, 1.0, 2.0, 3.0], [1e6, 1e10], [1e300]])
    def test_shared_and_infinite_endpoints_equal_per_interval_loop(self, grid):
        bcs = self.SHARED_ENDPOINTS
        assert persistent_magnitude_curve(bcs, grid) == [
            naive_persistent_magnitude(bcs, t) for t in grid
        ]

    @overflow_ok
    def test_one_exp_pass_per_t_over_distinct_endpoints(self, monkeypatch):
        sizes = []
        exp_neg = magnitude_module._exp_neg
        monkeypatch.setattr(magnitude_module, "_exp_neg", lambda x: sizes.append(x.size) or exp_neg(x))
        bcs = self.SHARED_ENDPOINTS
        persistent_magnitude_curve(bcs, [0.5, 1.0, 2.0])
        distinct = {x for bc in bcs for iv in bc.intervals for x in (iv.birth, iv.death)}
        assert sizes == [len(distinct)] * 3

    def test_grid_validated(self):
        for grid in ([0.0], [-1.0], [math.nan], [2.0, 1.0]):
            with pytest.raises(ValueError, match="t grid"):
                persistent_magnitude_curve([Barcode(0, (Interval(0.0, 1.0),))], grid)


finite_or_infinite_length = st.one_of(
    st.floats(0.0, 50.0), st.just(math.inf), st.floats(1e-300, 1e-290)
)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.floats(0.0, 50.0), finite_or_infinite_length),
        max_size=30,
    ),
    st.lists(st.floats(1e-4, 1e4), min_size=1, max_size=8, unique=True),
)
@settings(max_examples=200, deadline=None)
def test_curve_equals_per_interval_loop_property(bars, ts):
    by_degree = {}
    for degree, birth, length in bars:
        by_degree.setdefault(degree, []).append(Interval(birth, birth + length))
    bcs = [Barcode(d, tuple(ivs)) for d, ivs in sorted(by_degree.items())]
    grid = sorted(ts)
    assert persistent_magnitude_curve(bcs, grid) == [
        naive_persistent_magnitude(bcs, t) for t in grid
    ]


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


def alpha_magnitude(cloud, t):
    """Persistent magnitude of the degree-0 and degree-1 alpha barcodes of tX."""
    return persistent_magnitude_curve(persistence(alpha_complex_2d(cloud), 1), [t])[0]


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
