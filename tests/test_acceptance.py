"""Acceptance gate: one test per benchmark criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion. Protocols and tolerances are pinned here, not
calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from fracdim import (
    MetricView,
    PHDimensionConfig,
    PointCloud,
    SierpinskiTreeParams,
    box_counting_network,
    box_counting_pointcloud,
    euclidean_metric,
    greedy_cover,
    h0_union_find,
    internal_scaling_dimension,
    magnitude,
    magnitude_dimension,
    persistence,
    persistent_magnitude,
    ph_dimension,
    rescale,
    rips_magnitude,
    sierpinski_tree,
    sierpinski_triangle,
    vietoris_rips,
)
from oracles import induced_diameter

LOG3_LOG2 = math.log(3) / math.log(2)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_ph_dimension_reproduction():
    """Degree-0 PH dimension of the level-7 Sierpinski triangle."""
    start = time.perf_counter()
    cloud = sierpinski_triangle(7)
    betas, dims = [], []
    for seed in range(5):
        cfg = PHDimensionConfig(
            degree=0, alpha=1.0, n_schedule=tuple(range(5, 201, 5)),
            repeats=5, seed=seed, fit_tail=36,
        )
        est = ph_dimension(cloud, cfg)
        betas.append(est.fit.slope)
        dims.append(est.value)
    beta = float(np.median(betas))
    dim = float(np.median(dims))
    elapsed = time.perf_counter() - start
    ok = 0.30 <= beta <= 0.40 and 1.40 <= dim <= 1.70 and elapsed < 60
    assert report(
        1, ok, f"median beta={beta:.4f} in [0.30,0.40], dim={dim:.4f} in [1.40,1.70], {elapsed:.1f}s<60s"
    )


def test_criterion_2_magnitude_dimension_reproduction():
    """Magnitude dimension of the full level-7 cloud, t=1..80, window [40,80) (t=41..80).

    Not a 1000-point subsample: its magnitude function saturates inside the
    window (Mag(80X)/n = 0.28 at n=1000 against 0.145 at n=2187).
    """
    start = time.perf_counter()
    est = magnitude_dimension(
        euclidean_metric(sierpinski_triangle(7)),
        [float(t) for t in range(1, 81)],
        window=(40, 80),
    )
    elapsed = time.perf_counter() - start
    ok = 1.40 <= est.value <= 1.70 and elapsed < 300
    assert report(
        2, ok, f"estimate={est.value:.4f} in [1.40,1.70], {elapsed:.0f}s<300s"
    )


def test_criterion_3_box_counting():
    start = time.perf_counter()
    est = box_counting_pointcloud(sierpinski_triangle(7))
    elapsed = time.perf_counter() - start
    ok = 1.49 <= est.value <= 1.69 and elapsed < 5
    assert report(3, ok, f"slope={est.value:.4f} in [1.49,1.69], {elapsed:.2f}s<5s")


def test_criterion_4_closed_form_magnitude():
    one_point = magnitude(MetricView(np.zeros((1, 1))))
    worst = 0.0
    for d in (0.1, 1.0, 10.0):
        dist = np.array([[0.0, d], [d, 0.0]])
        got = magnitude(MetricView(dist))
        worst = max(worst, abs(got - 2 / (1 + math.exp(-d))))
    ok = one_point == 1.0 and worst <= 1e-9
    assert report(4, ok, f"1-point={one_point} exactly 1, 2-point worst err={worst:.2e}<=1e-9")


def test_criterion_5_oracle_equivalence():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        metric = euclidean_metric(PointCloud(rng.random((10, 2))))
        fast = h0_union_find(metric).intervals
        slow = persistence(vietoris_rips(metric, 1), 0)[0].intervals
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            worst = max(worst, abs(a.birth - b.birth))
            if a.finite or b.finite:
                assert a.finite and b.finite
                worst = max(worst, abs(a.death - b.death))
    ok = worst <= 1e-12
    assert report(5, ok, f"50 clouds, worst multiset deviation={worst:.2e}<=1e-12")


def test_criterion_6_self_similar_network_ground_truth():
    start = time.perf_counter()
    g6 = sierpinski_tree(SierpinskiTreeParams(s=3, f=0.5, levels=6))
    box = box_counting_network(g6)
    # node 0 is the generation-0 node, the corner the self-similar
    # structure accumulates at; the newest hub only sees coarse scales
    scaling = internal_scaling_dimension(g6, node=0)
    elapsed = time.perf_counter() - start
    ok = (
        1.38 <= box.value <= 1.80
        and 1.38 <= scaling.value <= 1.80
        and elapsed < 120
    )
    assert report(
        6, ok,
        f"network-box={box.value:.4f}, internal-scaling={scaling.value:.4f} in [1.38,1.80], {elapsed:.0f}s<120s",
    )


def test_criterion_7_rips_magnitude_consistency():
    worst = 0.0
    fixtures = []
    for n, seed in [(5, 0), (8, 1), (10, 2), (12, 3)]:
        rng = np.random.default_rng(seed)
        fixtures.append(euclidean_metric(PointCloud(rng.random((n, 2)))))
    for metric in fixtures:
        for t in (0.5, 1.0, 2.0, 7.0):
            via_rescale = rips_magnitude(metric, t, 1)
            recomputed = persistent_magnitude(
                persistence(vietoris_rips(rescale(metric, t), 2), 1)
            )
            worst = max(worst, abs(via_rescale - recomputed))
    closed_worst = 0.0
    pair = MetricView(np.array([[0.0, 0.8], [0.8, 0.0]]))
    for t in (0.5, 1.0, 3.0, 10.0):
        closed_worst = max(
            closed_worst, abs(rips_magnitude(pair, t, 0) - (2 - math.exp(-0.8 * t)))
        )
    ok = worst <= 1e-10 and closed_worst <= 1e-10
    assert report(
        7, ok, f"fixtures worst={worst:.2e}<=1e-10, 2-point closed form worst={closed_worst:.2e}<=1e-10"
    )


def test_criterion_8_property_suite():
    checks = {}

    # face closure re-verified on a fresh complex (construction asserts it)
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.random((15, 2)))
    metric = euclidean_metric(cloud)
    complex = vietoris_rips(metric, 3)
    values = {s.vertices: s.value for s in complex.simplices}
    checks["face-closure"] = all(
        values[s.vertices[:k] + s.vertices[k + 1 :]] <= s.value
        for s in complex.simplices
        if s.dim >= 1
        for k in range(len(s.vertices))
    )

    # VR rescaling equivariance at the complex level
    t = 7.0
    scaled = vietoris_rips(rescale(metric, t), 3)
    checks["vr-rescaling"] = all(
        a.vertices == b.vertices and abs(a.value * t - b.value) <= 1e-9
        for a, b in zip(complex.simplices, scaled.simplices)
    )

    # Euler characteristic consistency over an eps grid
    small = PointCloud(rng.random((9, 2)))
    small_metric = euclidean_metric(small)
    full = vietoris_rips(small_metric, 8)
    bars = persistence(full, 8)
    euler_ok = True
    for eps in np.linspace(0.0, float(small_metric.dist.max()) * 1.05, 9):
        chi_bars = sum(
            (-1) ** b.degree
            * sum(1 for iv in b.intervals if iv.birth <= eps < iv.death)
            for b in bars
        )
        chi_simplices = sum((-1) ** s.dim for s in full.simplices if s.value <= eps)
        euler_ok = euler_ok and chi_bars == chi_simplices
    checks["euler-consistency"] = euler_ok

    # greedy cover partition validity
    g4 = sierpinski_tree(SierpinskiTreeParams(3, 0.5, 4))
    cover_ok = True
    for eps in (0.3, 1.0, 2.5):
        parts = greedy_cover(g4, eps)
        flat = sorted(v for p in parts for v in p)
        cover_ok = cover_ok and flat == list(range(g4.node_count))
        cover_ok = cover_ok and all(
            induced_diameter(g4, p) <= eps + 1e-12 for p in parts
        )
    checks["greedy-cover-partition"] = cover_ok

    # PH-dimension scale equivariance, c = 7
    base_cloud = PointCloud(rng.random((100, 2)))
    cfg = PHDimensionConfig(n_schedule=tuple(range(5, 81, 5)), fit_tail=12, seed=5)
    beta_a = ph_dimension(base_cloud, cfg).fit.slope
    beta_b = ph_dimension(PointCloud(base_cloud.points * 7.0), cfg).fit.slope
    checks["ph-scale-equivariance"] = abs(beta_a - beta_b) < 1e-9

    ok = all(checks.values())
    assert report(8, ok, ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
