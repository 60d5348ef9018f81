"""Dimension estimators.

Every definitional limit (eps -> 0, n -> infinity, t -> infinity) is
realised as a windowed least-squares fit on log-log samples; estimates
carry their fit diagnostics and the full parameter record needed to
reproduce the run.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import (
    DegenerateInputError,
    SingularSimilarityError,
    UndefinedDimensionError,
)
from .filtration import alpha_complex_2d, vietoris_rips
from .magnitude import magnitude_function, persistent_magnitude, rescale_barcode
from .persistence import h0_union_find, persistence
from .spaces import (
    MetricView,
    PointCloud,
    WeightedNetwork,
    csr_graph,
    derive_seed,
    euclidean_metric,
    is_connected,
    network_diameter,
    scale_grid,
    shortest_path_metric,  # unused here; perfbench/tracer.py wraps it under this module
    shortest_path_rows,
    subsample,
)

R2_WARN_THRESHOLD = 0.9
ROW_BLOCK = 256  # Dijkstra rows held at once: all-node internal scaling, first cover sizes


@dataclass(frozen=True)
class LogLogFit:
    """Least-squares line through log-transformed samples over a window."""

    xs: tuple  # log-transformed
    ys: tuple
    window: tuple  # half-open index range [lo, hi)
    slope: float
    intercept: float
    r2: float


@dataclass(frozen=True)
class DimensionEstimate:
    estimator: str
    value: float
    fit: LogLogFit
    points: tuple  # raw (x, y) samples, pre-log
    params: dict
    warnings: tuple = ()

    def to_json_dict(self) -> dict:
        window = self.params.get("window", list(self.fit.window))
        return {
            "estimator": self.estimator,
            "value": self.value,
            "slope": self.fit.slope,
            "intercept": self.fit.intercept,
            "r2": self.fit.r2,
            "window": list(window),
            "points": [list(p) for p in self.points],
            "params": dict(self.params),
            "warnings": list(self.warnings),
            "seed": self.params.get("seed"),
        }


def loglog_fit(xs, ys, window=None) -> LogLogFit:
    """Ordinary least squares on (log xs, log ys) over a half-open index window."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if not all(0 < v < math.inf for v in xs + ys):
        raise ValueError("log-log fit requires finite positive inputs")
    if window is None:
        window = (0, len(xs))
    lo, hi = int(window[0]), int(window[1])
    if not (0 <= lo < hi <= len(xs)) or hi - lo < 2:
        raise ValueError(f"window {window} invalid for {len(xs)} samples")
    lx = np.log(xs)
    ly = np.log(ys)
    wx, wy = lx[lo:hi], ly[lo:hi]
    slope, intercept = np.polyfit(wx, wy, 1)
    resid = wy - (slope * wx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((wy - wy.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return LogLogFit(tuple(lx), tuple(ly), (lo, hi), float(slope), float(intercept), r2)


def _geometric_grid(hi, lo, count=12, decreasing=True):
    grid = np.geomspace(hi, lo, count) if decreasing else np.geomspace(lo, hi, count)
    return [float(g) for g in grid]


def _fit_warnings(fit):
    if fit.r2 < R2_WARN_THRESHOLD:
        return (f"low fit quality: r2={fit.r2:.3f} < {R2_WARN_THRESHOLD}",)
    return ()


# ---------------------------------------------------------------------------
# box counting


def grid_box_count(cloud: PointCloud, eps: float) -> int:
    """Occupied axis-aligned boxes of side eps, anchored at the bounding-box corner."""
    mins = cloud.points.min(axis=0)
    scaled = (cloud.points - mins) / eps
    if not scaled.max() < 2.0**63:
        raise ValueError(f"box indices at eps={eps:g} overflow int64")
    cells = np.floor(scaled).astype(np.int64)
    return int(np.unique(cells, axis=0).shape[0])


def box_counting_pointcloud(cloud: PointCloud, eps_grid=None, window=None) -> DimensionEstimate:
    """Slope of log N(eps) against log(1/eps) for grid-box counts."""
    extent = float(np.max(cloud.points.max(axis=0) - cloud.points.min(axis=0)))
    if extent == 0.0:
        raise DegenerateInputError("all points identical; box counting undefined")
    if eps_grid is None:
        eps_grid = _geometric_grid(extent / 2.0, extent / 64.0)
    eps_grid = scale_grid(eps_grid, "eps", increasing=False)
    counts = [grid_box_count(cloud, e) for e in eps_grid]
    inv_eps = [1.0 / e for e in eps_grid]
    fit = loglog_fit(inv_eps, counts, window)
    params = {
        "eps_grid": eps_grid,
        "window": list(fit.window),
        "n_points": cloud.n,
    }
    return DimensionEstimate(
        "box",
        fit.slope,
        fit,
        tuple(zip(inv_eps, [float(c) for c in counts])),
        params,
        _fit_warnings(fit),
    )


def greedy_cover(net: WeightedNetwork, eps: float) -> list:
    """Partition nodes into subnetworks of induced diameter <= eps.

    Greedy ball-growing: each round claims the radius-eps/2 ball (walked
    through uncovered nodes only, so parts stay internally connected)
    that covers the most uncovered nodes, ties broken by lowest centre
    id. Lazy re-evaluation: restricted balls only shrink as the cover
    grows, so stale queue entries are safe to refresh on demand. Balls
    come from scipy's Dijkstra on one sparse graph; memory is
    O(ROW_BLOCK * n + m).
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be finite and positive")
    n = net.node_count
    graph = csr_graph(net)
    radius = eps / 2.0

    def within(sources):  # ball membership, one row per source
        return dijkstra(graph, directed=True, indices=sources, limit=radius) <= radius

    heap = []
    for start in range(0, n, ROW_BLOCK):
        block = np.arange(start, min(start + ROW_BLOCK, n))
        sizes = np.count_nonzero(within(block), axis=1)
        heap.extend(zip((-sizes).tolist(), block.tolist()))
    heapq.heapify(heap)
    covered = np.zeros(n, dtype=bool)
    fresh = [0] * n  # round at which the queued size was computed
    last_centre, last_ball = -1, None  # the most recent refresh
    rounds = 0
    parts = []
    while heap:
        size, centre = heapq.heappop(heap)
        if covered[centre]:
            continue
        if size == -1:
            # a ball holds its centre, so every bound left is exact: the
            # uncovered nodes remain, as singletons in id order
            parts.extend([c] for c in np.flatnonzero(~covered).tolist())
            break
        if fresh[centre] == rounds:
            part = last_ball if centre == last_centre else np.flatnonzero(within(centre))
            covered[part] = True
            # Cut every edge into a covered node. The search must stay
            # directed: undirected mode takes min(G, G.T) and restores the
            # cut direction. The cut weight is inf, not 0: scipy reads an
            # explicit 0 in sparse input as a weight-0 edge.
            graph.data[covered[graph.indices]] = np.inf
            parts.append(part.tolist())
            rounds += 1
        else:
            # stale upper bound: refresh and requeue; sizes only shrink
            last_centre, last_ball = centre, np.flatnonzero(within(centre))
            fresh[centre] = rounds
            heapq.heappush(heap, (-len(last_ball), centre))
    return parts


def _connected_diameter(net: WeightedNetwork) -> float:
    """Shortest-path diameter; ValueError unless the network is connected and it is finite."""
    if net.node_count == 0:
        raise ValueError("network has no nodes")
    diam = network_diameter(net)
    if math.isinf(diam):
        if not is_connected(net):
            raise ValueError("connected network required")
        raise ValueError("shortest-path distances overflow float64")
    return diam


def box_counting_network(net: WeightedNetwork, eps_grid=None, window=None) -> DimensionEstimate:
    """Greedy epsilon-node-covering count slope for a connected network."""
    diam = _connected_diameter(net)
    if eps_grid is None:
        eps_grid = _geometric_grid(diam, net.min_weight())
    eps_grid = scale_grid(eps_grid, "eps", increasing=False)
    counts = [len(greedy_cover(net, e)) for e in eps_grid]
    inv_eps = [1.0 / e for e in eps_grid]
    fit = loglog_fit(inv_eps, counts, window)
    params = {
        "eps_grid": eps_grid,
        "window": list(fit.window),
        "n_nodes": net.node_count,
    }
    return DimensionEstimate(
        "network-box",
        fit.slope,
        fit,
        tuple(zip(inv_eps, [float(c) for c in counts])),
        params,
        _fit_warnings(fit),
    )


# ---------------------------------------------------------------------------
# correlation dimension


def pair_correlation(cloud: PointCloud, eps_grid) -> list:
    """C(eps) = fraction of unordered point pairs at distance <= eps."""
    from scipy.spatial.distance import pdist

    d = np.sort(pdist(cloud.points))
    total = d.size
    return [float(np.searchsorted(d, e, side="right")) / total for e in eps_grid]


def correlation_dimension(cloud: PointCloud, eps_grid=None, window=None) -> DimensionEstimate:
    """Pair-counting estimator: slope of log C(eps) against log eps."""
    if cloud.n < 2:
        raise ValueError("correlation dimension requires at least 2 points")
    from scipy.spatial.distance import pdist

    d = pdist(cloud.points)
    d_max = float(d.max())
    if d_max == 0.0:
        raise DegenerateInputError("all points identical; correlation dimension undefined")
    if eps_grid is None:
        # mid-scale window: below d_max/6 boundary saturation sets in,
        # above d_max/48 lattice/discreteness artefacts do
        positive = d[d > 0]
        lo = max(float(np.min(positive)), d_max / 48.0)
        eps_grid = _geometric_grid(max(d_max / 6.0, lo * 2.0), lo, decreasing=False)
    eps_grid = scale_grid(eps_grid, "eps")
    c = pair_correlation(cloud, eps_grid)
    if any(v == 0.0 for v in c):
        raise ValueError("eps grid extends below the smallest pairwise distance")
    fit = loglog_fit(eps_grid, c, window)
    params = {
        "eps_grid": eps_grid,
        "window": list(fit.window),
        "n_points": cloud.n,
    }
    return DimensionEstimate(
        "correlation",
        fit.slope,
        fit,
        tuple(zip(eps_grid, c)),
        params,
        _fit_warnings(fit),
    )


# ---------------------------------------------------------------------------
# persistent-homology dimension


@dataclass(frozen=True)
class PHDimensionConfig:
    """Subsample schedule and regression window for PH dimensions."""

    degree: int = 0
    alpha: float = 1.0
    n_schedule: tuple = tuple(range(5, 201, 5))
    repeats: int = 5
    seed: int = 42
    fit_tail: int = 36

    def __post_init__(self):
        object.__setattr__(self, "n_schedule", tuple(int(n) for n in self.n_schedule))
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if len(self.n_schedule) < 2:
            raise ValueError("n_schedule needs at least 2 sizes")
        if any(b <= a for a, b in zip(self.n_schedule, self.n_schedule[1:])):
            raise ValueError("n_schedule must be strictly increasing")
        if self.n_schedule[0] < 1:
            raise ValueError("subsample sizes must be positive")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not (2 <= self.fit_tail <= len(self.n_schedule)):
            raise ValueError("fit_tail must lie in [2, len(n_schedule)]")

    def to_params(self) -> dict:
        return {
            "degree": self.degree,
            "alpha": self.alpha,
            "n_schedule": list(self.n_schedule),
            "repeats": self.repeats,
            "seed": self.seed,
            "fit_tail": self.fit_tail,
        }


def power_weighted_sum(barcode, alpha: float) -> float:
    """Sum of |interval|^alpha over the finite intervals of a barcode."""
    return float(sum(iv.length**alpha for iv in barcode.finite_intervals()))


def ph_dimension(cloud: PointCloud, cfg: PHDimensionConfig) -> DimensionEstimate:
    """PH dimension alpha/(1-beta) from power-weighted barcode sums of subsamples.

    Degree 0 uses the union-find fast path; higher degrees reduce a
    Vietoris-Rips complex built to degree + 1.
    """
    if cfg.n_schedule[-1] > cloud.n:
        raise ValueError(
            f"largest subsample {cfg.n_schedule[-1]} exceeds cloud size {cloud.n}"
        )

    def task(n, r):
        sample = subsample(cloud, n, derive_seed(cfg.seed, n, r))
        metric = euclidean_metric(sample)
        if cfg.degree == 0:
            bc = h0_union_find(metric)
        else:
            complex = vietoris_rips(metric, cfg.degree + 1, math.inf)
            bc = persistence(complex, cfg.degree)[cfg.degree]
        return power_weighted_sum(bc, cfg.alpha)

    sums = [task(n, r) for n in cfg.n_schedule for r in range(cfg.repeats)]
    means = [
        float(np.mean(sums[i : i + cfg.repeats]))
        for i in range(0, len(sums), cfg.repeats)
    ]
    schedule = list(cfg.n_schedule)
    lo = len(schedule) - cfg.fit_tail
    if any(e <= 0 for e in means[lo:]):
        raise UndefinedDimensionError(
            "power-weighted sums vanish inside the fit window; dimension undefined"
        )
    fit = loglog_fit(schedule[lo:], means[lo:])
    beta = fit.slope
    if beta >= 1.0:
        raise UndefinedDimensionError(
            f"growth exponent beta={beta:.4f} >= 1; dimension alpha/(1-beta) undefined",
            beta=beta,
        )
    params = {**cfg.to_params(), "input_points": cloud.n, "window": [lo, len(schedule)]}
    return DimensionEstimate(
        "ph-dim",
        cfg.alpha / (1.0 - beta),
        fit,
        tuple(zip([float(n) for n in schedule], means)),
        params,
        _fit_warnings(fit),
    )


# ---------------------------------------------------------------------------
# magnitude dimensions


def magnitude_dimension(
    metric: MetricView, t_grid=None, window=None, threads=None
) -> DimensionEstimate:
    """Slope of log Mag(tX) against log t over the window."""
    if t_grid is None:
        t_grid = [float(t) for t in range(1, 301)]
        if window is None:
            window = (40, 80)
    samples = magnitude_function(metric, t_grid, threads)
    accepted = samples.accepted()
    if not all(accepted):
        bad = [t for t, ok in zip(samples.t_grid, accepted) if not ok]
        worst = max(
            (r for r, ok in zip(samples.residuals, accepted) if not ok),
            default=math.inf,
        )
        raise SingularSimilarityError(bad[0], worst)
    fit = loglog_fit(samples.t_grid, samples.values, window)
    params = {
        "t_grid": [float(t) for t in samples.t_grid],
        "window": list(fit.window),
        "n_points": metric.size,
    }
    return DimensionEstimate(
        "magnitude-dim",
        fit.slope,
        fit,
        tuple(zip(samples.t_grid, samples.values)),
        params,
        _fit_warnings(fit),
    )


def alpha_magnitude_dimension(
    cloud: PointCloud, t_grid=None, window=None, max_degree: int = 1
) -> DimensionEstimate:
    """Slope of log alpha-magnitude of tX against log t.

    Barcodes are computed once and rescaled per grid entry. Grid entries
    where the signed sum is non-positive are excluded from the fit with
    a warning.
    """
    if t_grid is None:
        t_grid = [float(t) for t in range(1, 301)]
        if window is None:
            window = (40, 80)
    t_grid = scale_grid(t_grid, "t")
    complex = alpha_complex_2d(cloud)
    barcodes = persistence(complex, max_degree)
    values = [
        persistent_magnitude([rescale_barcode(bc, t) for bc in barcodes]) for t in t_grid
    ]
    if window is None:
        window = (0, len(t_grid))
    lo, hi = int(window[0]), int(window[1])
    if not (0 <= lo < hi <= len(t_grid)):
        raise ValueError(f"window {window} invalid for {len(t_grid)} samples")
    kept = [k for k in range(lo, hi) if values[k] > 0.0]
    warnings = []
    if len(kept) < hi - lo:
        dropped = [t_grid[k] for k in range(lo, hi) if values[k] <= 0.0]
        warnings.append(
            f"excluded {len(dropped)} non-positive magnitude values at t={dropped}"
        )
    if len(kept) < 2:
        raise UndefinedDimensionError(
            "fewer than 2 positive alpha-magnitude values in the fit window"
        )
    fit = loglog_fit([t_grid[k] for k in kept], [values[k] for k in kept])
    params = {
        "t_grid": t_grid,
        "window": [lo, hi],
        "max_degree": max_degree,
        "n_points": cloud.n,
    }
    return DimensionEstimate(
        "alpha-magnitude-dim",
        fit.slope,
        fit,
        tuple(zip(t_grid, values)),
        params,
        tuple(warnings) + _fit_warnings(fit),
    )


# ---------------------------------------------------------------------------
# internal scaling dimension


def internal_scaling_dimension(
    net: WeightedNetwork, node=None, eps_grid=None, window=None, agreement_tol: float = 0.25
) -> DimensionEstimate:
    """Growth exponent of shortest-path ball cardinality around a node.

    `node=None` averages over all nodes: the fitted slope of the mean
    log-count equals the mean of the per-node slopes, and a warning is
    attached when per-node estimates spread beyond agreement_tol. Memory
    is O(n + m): one Dijkstra row for `node=k`, blocks of ROW_BLOCK rows
    for all nodes.
    """
    n = net.node_count
    if node is not None and not (0 <= int(node) < n):
        raise ValueError(f"node {node} outside [0, {n})")
    diam = _connected_diameter(net)
    if eps_grid is None:
        lo = net.min_weight() if net.edges else 1.0
        eps_grid = _geometric_grid(max(diam / 2.0, lo * 2.0), lo, decreasing=False)
        if window is None and len(eps_grid) >= 6:
            # the definition is an eps -> infinity limit: read the top half
            window = (len(eps_grid) // 2, len(eps_grid))
    eps_grid = scale_grid(eps_grid, "eps")

    def ball_counts(sources):
        rows = np.sort(shortest_path_rows(net, sources), axis=1)
        return [np.searchsorted(row, eps_grid, side="right") for row in rows]

    if node is not None:
        ys = np.array(ball_counts([int(node)])[0], dtype=np.float64)
        fit = loglog_fit(eps_grid, ys, window)
        params = {
            "node": int(node),
            "eps_grid": eps_grid,
            "window": list(fit.window),
            "n_nodes": n,
        }
        return DimensionEstimate(
            "internal-scaling",
            fit.slope,
            fit,
            tuple(zip(eps_grid, [float(c) for c in ys])),
            params,
            _fit_warnings(fit),
        )

    counts = np.empty((n, len(eps_grid)))
    for start in range(0, n, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        counts[start:stop] = ball_counts(range(start, stop))
    log_counts = np.log(counts)
    mean_log = np.exp(log_counts.mean(axis=0))  # geometric mean counts
    fit = loglog_fit(eps_grid, mean_log, window)
    lo, hi = fit.window
    lx = np.log(eps_grid)[lo:hi]
    lx_c = lx - lx.mean()
    per_node = (log_counts[:, lo:hi] @ lx_c) / float(lx_c @ lx_c)
    spread = float(per_node.max() - per_node.min())
    warnings = list(_fit_warnings(fit))
    has_dimension = spread <= agreement_tol
    if not has_dimension:
        warnings.append(
            f"per-node estimates spread {spread:.3f} exceeds tolerance {agreement_tol}; "
            "network has no single internal scaling dimension"
        )
    params = {
        "node": "all",
        "eps_grid": eps_grid,
        "window": list(fit.window),
        "agreement_tol": agreement_tol,
        "per_node_spread": spread,
        "has_internal_scaling_dimension": has_dimension,
        "n_nodes": n,
    }
    return DimensionEstimate(
        "internal-scaling",
        fit.slope,
        fit,
        tuple(zip(eps_grid, [float(c) for c in mean_log])),
        params,
        tuple(warnings),
    )
