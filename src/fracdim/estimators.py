"""Dimension estimators.

Every definitional limit (eps -> 0, n -> infinity, t -> infinity) is
realised as a windowed least-squares fit on log-log samples; estimates
carry their fit diagnostics and the full parameter record needed to
reproduce the run.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial.distance import cdist

from .errors import (
    DegenerateInputError,
    SingularSimilarityError,
    UndefinedDimensionError,
)
from .filtration import BLOCK_CELLS, alpha_complex_2d, vietoris_rips
from .magnitude import magnitude_function, persistent_magnitude_curve
from .magnitude import (  # unused here; perfbench/tracer.py wraps them under this module
    persistent_magnitude,
    rescale_barcode,
)
from .persistence import h0_union_find  # unused here; perfbench/tracer.py wraps it
from .persistence import persistence, spanning_forest_weights
from .spaces import (
    ROW_BLOCK,
    MetricView,
    PointCloud,
    WeightedNetwork,
    derive_seed,
    euclidean_metric,
    network_diameter,
    scale_grid,
    shortest_path_metric,  # unused here; perfbench/tracer.py wraps it under this module
    subsample,
)

R2_WARN_THRESHOLD = 0.9
AGREEMENT_TOL = 0.25  # widest per-node slope spread that still reads one internal dimension
PAIR_CELLS = 1 << 17  # pair distances held at once by the correlation counter
EPS_COUNT = 12  # entries of a default eps grid
T_GRID = tuple(float(t) for t in range(1, 301))  # the default t grid


@dataclass(frozen=True)
class LogLogFit:
    """Least-squares line through log-transformed samples over a window."""

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
        return {
            "estimator": self.estimator,
            "value": self.value,
            "slope": self.fit.slope,
            "intercept": self.fit.intercept,
            "r2": self.fit.r2,
            "window": list(self.params["window"]),
            "points": [list(p) for p in self.points],
            "params": dict(self.params),
            "warnings": list(self.warnings),
            "seed": self.params.get("seed"),
        }


def _window_bounds(window, count: int) -> tuple:
    """(lo, hi) of a half-open index window over count samples holding at least two."""
    if window is None:
        window = (0, count)
    lo, hi = int(window[0]), int(window[1])
    if not (0 <= lo < hi <= count) or hi - lo < 2:
        raise ValueError(f"window {window} invalid for {count} samples")
    return lo, hi


def loglog_fit(xs, ys, window=None) -> LogLogFit:
    """Least squares on (log xs, log ys) over a half-open index window; checks only its samples."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    lo, hi = _window_bounds(window, len(xs))
    if not all(0 < v < math.inf for v in xs[lo:hi] + ys[lo:hi]):
        raise ValueError("log-log fit requires finite positive inputs")
    wx, wy = np.log(xs[lo:hi]), np.log(ys[lo:hi])
    slope, intercept = np.polyfit(wx, wy, 1)
    resid = wy - (slope * wx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((wy - wy.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return LogLogFit((lo, hi), float(slope), float(intercept), r2)


def _geometric_grid(hi, lo, count=EPS_COUNT, decreasing=True):
    grid = np.geomspace(hi, lo, count) if decreasing else np.geomspace(lo, hi, count)
    return [float(g) for g in grid]


def _estimate(estimator, xs, ys, params, value=None, trail=()):
    """The one place a DimensionEstimate is assembled.

    Fits log ys against log xs over params["window"] and records the fitted
    window there. `value` maps the fit to the estimate (default: its slope).
    The low-fit-quality warning precedes the `trail` warnings. Every sample
    is kept as a point.
    """
    fit = loglog_fit(xs, ys, params["window"])
    params["window"] = list(fit.window)
    if fit.r2 < R2_WARN_THRESHOLD:
        trail = (f"low fit quality: r2={fit.r2:.3f} < {R2_WARN_THRESHOLD}", *trail)
    return DimensionEstimate(
        estimator,
        fit.slope if value is None else value(fit),
        fit,
        tuple(zip(map(float, xs), map(float, ys))),
        params,
        tuple(trail),
    )


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
    params = {"eps_grid": eps_grid, "window": window, "n_points": cloud.n}
    return _estimate("box", inv_eps, counts, params)


def _ball_counts(rows: np.ndarray, radii) -> np.ndarray:
    """(len(rows), len(radii)) counts of the entries <= each radius, per row.

    Sorts `rows` in place, so no second block of its size is held.
    """
    rows.sort(axis=1)
    return np.array([np.searchsorted(row, radii, side="right") for row in rows])


def first_ball_sizes(net: WeightedNetwork, radii, sources=None) -> np.ndarray:
    """(len(sources), len(radii)) unrestricted ball sizes around each source (default: every node).

    One pass of ROW_BLOCK-row Dijkstra searches bounded at the largest
    radius. With positive weights a distance within the bound does not
    depend on the bound, so each size equals that of a search bounded at
    its own radius, or of an unbounded one.
    """
    sources = np.arange(net.node_count) if sources is None else np.asarray(sources).reshape(-1)
    sizes = np.empty((len(sources), len(radii)), dtype=np.int64)
    for start in range(0, len(sources), ROW_BLOCK):
        block = sources[start : start + ROW_BLOCK]
        rows = dijkstra(net.graph, directed=True, indices=block, limit=max(radii))
        sizes[start : start + len(block)] = _ball_counts(rows, radii)
    return sizes


def greedy_cover(net: WeightedNetwork, eps: float, sizes=None) -> list:
    """Partition nodes into subnetworks of induced diameter <= eps.

    Greedy ball-growing: each round claims the radius-eps/2 ball (walked
    through uncovered nodes only, so parts stay internally connected)
    that covers the most uncovered nodes, ties broken by lowest centre
    id. `sizes` holds every node's first ball size at radius eps/2
    (`first_ball_sizes`, computed here when None). A private copy keeps
    one size per node, 0 once covered. A claim shrinks only balls that
    held a claimed node, whose centres lie within eps of the claimed
    centre, so those are recounted each round. Sizes only shrink, so
    every stored size bounds its ball from above; the largest is checked
    against its ball before the claim, which keeps the cover exact where
    float sums along the two search directions differ in the last bit.
    Balls come from scipy's Dijkstra on a private copy of `net.graph`;
    memory is O(ROW_BLOCK * n + m).
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be finite and positive")
    graph = net.graph.copy()
    radius = eps / 2.0
    if sizes is None:
        sizes = first_ball_sizes(net, [radius])[:, 0]
    sizes = np.array(sizes, dtype=np.int64)  # the caller's array stays as passed
    parts = []
    while sizes.any():
        centre = int(np.argmax(sizes))  # the first maximum: lowest id on ties
        if sizes[centre] == 1:
            # a ball holds its centre, so every uncovered node left is a
            # singleton, in id order (covered nodes hold 0)
            parts.extend([c] for c in np.flatnonzero(sizes).tolist())
            break
        row = dijkstra(graph, directed=True, indices=centre, limit=eps)
        part = np.flatnonzero(row <= radius)
        if len(part) < sizes[centre]:  # a stale bound: store it exact and pick again
            sizes[centre] = len(part)
            continue
        sizes[part] = 0
        parts.append(part.tolist())
        # Cut every edge into a covered node. The search must stay
        # directed: undirected mode takes min(G, G.T) and restores the
        # cut direction. The cut weight is inf, not 0: scipy reads an
        # explicit 0 in sparse input as a weight-0 edge.
        graph.data[sizes[graph.indices] == 0] = np.inf
        stale = np.flatnonzero((row <= eps) & (sizes > 0))
        for start in range(0, len(stale), ROW_BLOCK):
            block = stale[start : start + ROW_BLOCK]
            balls = dijkstra(graph, directed=True, indices=block, limit=radius) <= radius
            sizes[block] = np.count_nonzero(balls, axis=1)
    return parts


def _connected_diameter(net: WeightedNetwork) -> float:
    """Shortest-path diameter; ValueError unless the network is connected and it is finite."""
    if net.node_count == 0:
        raise ValueError("network has no nodes")
    if net.node_count > net.edge_count + 1:  # too few edges to connect every node
        raise ValueError("connected network required")
    diam = network_diameter(net)
    if math.isinf(diam):
        if connected_components(net.graph, directed=False)[0] > 1:
            raise ValueError("connected network required")
        raise ValueError("shortest-path distances overflow float64")
    return diam


def _default_eps_floor(net: WeightedNetwork, diam: float) -> float:
    """Smallest edge weight, the small end of a default network eps grid.

    Raises when the diameter equals it (a single edge, a unit-weight
    complete graph): every default scale then sees the whole network.
    """
    lo = net.min_weight()
    if diam <= lo:
        raise DegenerateInputError(
            "network diameter equals its smallest edge weight; no scale range to fit"
        )
    return lo


def box_counting_network(net: WeightedNetwork, eps_grid=None, window=None) -> DimensionEstimate:
    """Greedy epsilon-node-covering count slope for a connected network."""
    diam = _connected_diameter(net)
    if eps_grid is None:
        eps_grid = _geometric_grid(diam, _default_eps_floor(net, diam))
    eps_grid = scale_grid(eps_grid, "eps", increasing=False)
    sizes = first_ball_sizes(net, [e / 2.0 for e in eps_grid])
    counts = [len(greedy_cover(net, e, sizes[:, k])) for k, e in enumerate(eps_grid)]
    inv_eps = [1.0 / e for e in eps_grid]
    params = {"eps_grid": eps_grid, "window": window, "n_nodes": net.node_count}
    return _estimate("network-box", inv_eps, counts, params)


# ---------------------------------------------------------------------------
# correlation dimension


def _pair_blocks(points: np.ndarray):
    """Yield (block, padding) over the unordered pairs of points, one row block at a time.

    A block holds rows [lo, hi) against points[lo:], about PAIR_CELLS
    distances; its `padding` cells on or below the diagonal read 0, so
    every pair i < j is held once, at d(i, j), over the whole pass.
    """
    n = len(points)
    rows = max(1, PAIR_CELLS // n)
    for lo in range(0, n, rows):
        b = min(rows, n - lo)
        block = cdist(points[lo : lo + b], points[lo:])
        block[:, :b][np.tri(b, dtype=bool)] = 0.0
        yield block, b * (b + 1) // 2


def pair_correlation(cloud: PointCloud, eps_grid) -> list:
    """C(eps) = fraction of unordered point pairs at distance <= eps.

    One pass of row blocks (`_pair_blocks`): each block is sorted in
    place and searched once for the whole grid, so the counts are exact
    int64 whatever the grid length, and memory is O(PAIR_CELLS + len(eps_grid)).
    """
    at_most = np.zeros(len(eps_grid), dtype=np.int64)
    padding = 0
    for block, pad in _pair_blocks(cloud.points):
        block = block.ravel()
        block.sort()
        at_most += np.searchsorted(block, eps_grid, side="right")
        padding += pad
    # every eps >= 0 counts each padding 0; a negative eps counts no pair
    at_most = np.maximum(at_most - padding, 0)
    pairs = cloud.n * (cloud.n - 1) // 2
    return [float(k) / pairs for k in at_most.tolist()]


def correlation_dimension(cloud: PointCloud, eps_grid=None, window=None) -> DimensionEstimate:
    """Pair-counting estimator: slope of log C(eps) against log eps.

    C(eps) comes from `pair_correlation`. Only the default grid needs the
    largest and the smallest positive distance, read in a first pass of
    the same row blocks, so memory stays O(PAIR_CELLS) for any n.
    """
    if cloud.n < 2:
        raise ValueError("correlation dimension requires at least 2 points")
    # every distance is 0 exactly when each coordinate's spread squares to
    # 0.0: no pair's squared difference along an axis exceeds that square
    if not np.any(np.ptp(cloud.points, axis=0) ** 2):
        raise DegenerateInputError("all points identical; correlation dimension undefined")
    if eps_grid is None:
        d_max, d_min = 0.0, math.inf
        for block, _ in _pair_blocks(cloud.points):
            d_max = max(d_max, float(block.max()))
            d_min = min(d_min, float(np.min(block, where=block > 0.0, initial=math.inf)))
        # mid-scale window: below d_max/6 boundary saturation sets in,
        # above d_max/48 lattice/discreteness artefacts do
        lo = max(d_min, d_max / 48.0)
        eps_grid = _geometric_grid(max(d_max / 6.0, lo * 2.0), lo, decreasing=False)
    eps_grid = scale_grid(eps_grid, "eps")
    c = pair_correlation(cloud, eps_grid)
    if any(v == 0.0 for v in c):
        raise ValueError("eps grid extends below the smallest pairwise distance")
    params = {"eps_grid": eps_grid, "window": window, "n_points": cloud.n}
    return _estimate("correlation", eps_grid, c, params)


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
    fit_tail: int | None = None  # None: the last min(36, len(n_schedule)) sizes

    def __post_init__(self):
        object.__setattr__(self, "n_schedule", tuple(int(n) for n in self.n_schedule))
        if self.fit_tail is None:
            object.__setattr__(self, "fit_tail", min(36, len(self.n_schedule)))
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if len(self.n_schedule) < 2:
            raise ValueError("n_schedule needs at least 2 sizes")
        if any(b <= a for a, b in zip(self.n_schedule, self.n_schedule[1:])):
            raise ValueError("n_schedule must be strictly increasing")
        if self.n_schedule[0] < 1:
            raise ValueError("subsample sizes must be positive")
        if self.degree >= 1 and self.n_schedule[0] < self.degree + 2:
            raise ValueError(f"degree {self.degree} needs subsamples of at least "
                             f"{self.degree + 2} points; the smallest is {self.n_schedule[0]}")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not (2 <= self.fit_tail <= len(self.n_schedule)):
            raise ValueError("fit_tail must lie in [2, len(n_schedule)]")

    def to_params(self) -> dict:
        return {**asdict(self), "n_schedule": list(self.n_schedule)}


def power_weighted_sum(barcode, alpha: float) -> float:
    """Sum of |interval|^alpha over the finite intervals of a barcode."""
    return _power_sum((iv.length for iv in barcode.finite_intervals()), alpha)


def _power_sum(lengths, alpha: float) -> float:
    """Python-float sum of length**alpha in the given order; undefined past float64."""
    try:
        total = float(sum(x**alpha for x in lengths))
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise UndefinedDimensionError(
            f"power-weighted sum overflows float64 at alpha={alpha:g}; dimension undefined")
    return total


def ph_dimension(cloud: PointCloud, cfg: PHDimensionConfig) -> DimensionEstimate:
    """PH dimension alpha/(1-beta) from power-weighted barcode sums of subsamples.

    Degree 0 stacks the sample metrics of each size, at most BLOCK_CELLS
    cells at a time, and reads their minimum-spanning-forest weights with
    one Prim kernel per stack; higher degrees reduce a Vietoris-Rips
    complex built to degree + 1.
    """
    if cfg.n_schedule[-1] > cloud.n:
        raise ValueError(
            f"largest subsample {cfg.n_schedule[-1]} exceeds cloud size {cloud.n}"
        )

    def metric(n, r):
        return euclidean_metric(subsample(cloud, n, derive_seed(cfg.seed, n, r)))

    def h0_sums(n):
        per = max(1, BLOCK_CELLS // (n * n))
        stack = np.empty((min(per, cfg.repeats), n, n))
        sums = []
        for first in range(0, cfg.repeats, per):
            block = stack[: min(per, cfg.repeats - first)]
            for j in range(len(block)):
                block[j] = metric(n, first + j).dist
            for w in spanning_forest_weights(block):
                sums.append(_power_sum(w[(w > 0) & (w < math.inf)].tolist(), cfg.alpha))
        return sums

    def rips_sum(n, r):
        complex = vietoris_rips(metric(n, r), cfg.degree + 1, math.inf)
        return power_weighted_sum(persistence(complex, cfg.degree)[cfg.degree], cfg.alpha)

    if cfg.degree == 0:
        sums = [s for n in cfg.n_schedule for s in h0_sums(n)]
    else:
        sums = [rips_sum(n, r) for n in cfg.n_schedule for r in range(cfg.repeats)]
    means = [
        float(np.mean(sums[i : i + cfg.repeats]))
        for i in range(0, len(sums), cfg.repeats)
    ]
    count = len(cfg.n_schedule)
    lo = count - cfg.fit_tail
    if any(e <= 0 for e in means[lo:]):
        raise UndefinedDimensionError(
            "power-weighted sums vanish inside the fit window; dimension undefined"
        )

    def dimension(fit):
        beta = fit.slope
        if beta >= 1.0:
            raise UndefinedDimensionError(
                f"growth exponent beta={beta:.4f} >= 1; dimension alpha/(1-beta) undefined",
                beta=beta,
            )
        return cfg.alpha / (1.0 - beta)

    params = {**cfg.to_params(), "input_points": cloud.n, "window": [lo, count]}
    trail = () if cfg.degree == 0 else (
        "degree >= 1 Rips PH dimension read about twice the reference"
        " at every sample size measured (n <= 350)",
    )
    return _estimate("ph-dim", cfg.n_schedule, means, params, dimension, trail)


# ---------------------------------------------------------------------------
# magnitude dimensions


def _t_grid_and_window(t_grid, window):
    """Checked t grid (default T_GRID) and window; no window reads (40, 80) on 80+ entries."""
    t_grid = scale_grid(T_GRID if t_grid is None else t_grid, "t")
    if window is None and len(t_grid) >= 80:
        window = (40, 80)
    return t_grid, _window_bounds(window, len(t_grid))


def _positive_in_window(t_grid, values, window):
    """Raise at the first non-positive magnitude inside the window: its log is undefined."""
    lo, hi = window
    for t, value in zip(t_grid[lo:hi], values[lo:hi]):
        if value <= 0.0:  # a real magnitude, e.g. beside a pole of t -> Mag(tX)
            raise UndefinedDimensionError(f"magnitude {value:.6g} at t={t:g} is not positive")


def magnitude_dimension(metric: MetricView, t_grid=None, window=None) -> DimensionEstimate:
    """Slope of log Mag(tX) against log t over the window."""
    t_grid, window = _t_grid_and_window(t_grid, window)
    samples = magnitude_function(metric, t_grid)
    rejected = [
        (t, r) for t, r, ok in zip(samples.t_grid, samples.residuals, samples.accepted()) if not ok
    ]
    if rejected:
        raise SingularSimilarityError(rejected[0][0], max(r for _, r in rejected))
    _positive_in_window(t_grid, samples.values, window)
    params = {"t_grid": t_grid, "window": window, "n_points": metric.size}
    return _estimate("magnitude-dim", t_grid, samples.values, params)


def alpha_magnitude_dimension(cloud: PointCloud, t_grid=None, window=None) -> DimensionEstimate:
    """Slope of log alpha-magnitude of tX against log t over the window.

    Barcodes to degree 1 are computed once and summed over the whole grid.
    """
    t_grid, window = _t_grid_and_window(t_grid, window)
    barcodes = persistence(alpha_complex_2d(cloud), 1)
    values = persistent_magnitude_curve(barcodes, t_grid)
    _positive_in_window(t_grid, values, window)
    params = {"t_grid": t_grid, "window": window, "max_degree": 1, "n_points": cloud.n}
    return _estimate("alpha-magnitude-dim", t_grid, values, params)


# ---------------------------------------------------------------------------
# internal scaling dimension


def internal_scaling_dimension(
    net: WeightedNetwork, node=None, eps_grid=None, window=None
) -> DimensionEstimate:
    """Growth exponent of shortest-path ball cardinality around a node.

    `node=None` averages over all nodes: the fitted slope of the mean
    log-count equals the mean of the per-node slopes, and a warning is
    attached when per-node estimates spread beyond AGREEMENT_TOL. Both
    modes read `first_ball_sizes`, one row for `node=k`; memory is
    O(ROW_BLOCK * n + m).
    """
    n = net.node_count
    if node is not None and not (0 <= int(node) < n):
        raise ValueError(f"node {node} outside [0, {n})")
    diam = _connected_diameter(net)
    if eps_grid is None:
        lo = _default_eps_floor(net, diam)
        eps_grid = _geometric_grid(max(diam / 2.0, lo * 2.0), lo, decreasing=False)
        if window is None:
            # the definition is an eps -> infinity limit: read the top half
            window = (len(eps_grid) // 2, len(eps_grid))
    eps_grid = scale_grid(eps_grid, "eps")
    counts = first_ball_sizes(net, eps_grid, None if node is None else [int(node)])

    if node is not None:
        params = {"node": int(node), "eps_grid": eps_grid, "window": window, "n_nodes": n}
        return _estimate("internal-scaling", eps_grid, counts[0], params)

    log_counts = np.log(counts)
    mean_log = np.exp(log_counts.mean(axis=0))  # geometric mean counts
    lo, hi = _window_bounds(window, len(eps_grid))  # the fit's window
    lx = np.log(eps_grid)[lo:hi]
    lx_c = lx - lx.mean()
    per_node = (log_counts[:, lo:hi] @ lx_c) / float(lx_c @ lx_c)
    spread = float(per_node.max() - per_node.min())
    has_dimension = spread <= AGREEMENT_TOL
    params = {
        "node": "all",
        "eps_grid": eps_grid,
        "window": window,
        "agreement_tol": AGREEMENT_TOL,
        "per_node_spread": spread,
        "has_internal_scaling_dimension": has_dimension,
        "n_nodes": n,
    }
    trail = [] if has_dimension else [
        f"per-node estimates spread {spread:.3f} exceeds tolerance {AGREEMENT_TOL}; "
        "network has no single internal scaling dimension"
    ]
    return _estimate("internal-scaling", eps_grid, mean_log, params, trail=trail)
