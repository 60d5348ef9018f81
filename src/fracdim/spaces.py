"""Finite spaces the estimators work on.

Point-cloud and self-similar network generators, Euclidean and
shortest-path metrics, and seeded subsampling. All types are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import cdist

from .errors import ResourceLimitError

TRIANGLE_LEVEL_CAP = 12
CANTOR_LEVEL_CAP = 20
NETWORK_NODE_CAP = 10**6  # generated networks; admits a level-12 tree at s = 3 (797,161 nodes)
ROW_BLOCK = 256  # rows held at once: Dijkstra searches, symmetry checks

_EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])


@dataclass(frozen=True)
class PointCloud:
    """Finite set of points in D-dimensional Euclidean space."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array of shape (n, dim)")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("need at least one point with at least one coordinate")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite")
        # bounds every squared distance cdist forms, in O(n * dim)
        with np.errstate(over="ignore"):
            if not np.isfinite(np.sum(np.ptp(pts, axis=0) ** 2)):
                raise ValueError("pairwise distances overflow float64")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __eq__(self, other):
        if not isinstance(other, PointCloud):
            return NotImplemented
        return self.points.shape == other.points.shape and bool(
            np.all(self.points == other.points)
        )


@dataclass(frozen=True)
class WeightedNetwork:
    """Undirected network with positive edge weights.

    Edges are stored as (u, v, w) with u < v, sorted; duplicates and
    self-loops are rejected.
    """

    node_count: int
    edges: tuple

    def __post_init__(self):
        if self.node_count < 0:
            raise ValueError("node_count must be non-negative")
        norm = []
        seen = set()
        for u, v, w in self.edges:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge ({u},{v}) outside node range")
            if not (w > 0 and math.isfinite(w)):
                raise ValueError(f"edge ({u},{v}) has non-positive weight {w}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            norm.append((key[0], key[1], w))
        norm.sort()
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def min_weight(self) -> float:
        if not self.edges:
            raise ValueError("network has no edges")
        return min(w for _, _, w in self.edges)

    @cached_property
    def graph(self) -> csr_matrix:
        """Read-only CSR adjacency of the edge weights, built on first use. It stores both
        directions of every edge, so a directed search reads the undirected distances."""
        m = self.edge_count
        u = np.fromiter((e[0] for e in self.edges), dtype=np.int64, count=m)
        v = np.fromiter((e[1] for e in self.edges), dtype=np.int64, count=m)
        w = np.fromiter((e[2] for e in self.edges), dtype=np.float64, count=m)
        graph = csr_matrix(
            (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(self.node_count, self.node_count),
        )
        for array in (graph.data, graph.indices, graph.indptr):
            array.setflags(write=False)
        return graph


@dataclass(frozen=True)
class MetricView:
    """Symmetric distance matrix over a finite index set.

    `dist` holds the actual distances (inf allowed for disconnected
    pairs); `scale` records the cumulative rescaling factor applied so
    errors can name the scale they occurred at.
    """

    dist: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("dist must be a square matrix")
        if d.size and not np.all(np.diag(d) == 0.0):
            raise ValueError("diagonal must be zero")
        if d.size and not d.min() >= 0:  # False at NaN too
            raise ValueError("distances must be non-negative and not NaN")
        for lo in range(0, d.shape[0], ROW_BLOCK):  # upper triangle, no n x n temporary
            if not np.array_equal(d[lo : lo + ROW_BLOCK, lo:], d[lo:, lo : lo + ROW_BLOCK].T):
                raise ValueError("dist must be symmetric")
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        d = np.ascontiguousarray(d)
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)

    @property
    def size(self) -> int:
        return self.dist.shape[0]


@dataclass(frozen=True)
class SierpinskiTreeParams:
    """Parameters of the copy-scale-join tree recursion.

    `s` copies per level, existing weights scaled by `f`, a fresh hub
    joined to every copy's anchor by a weight-1 edge. The fresh hub of
    each level becomes the anchor of the next ("fresh" policy; the only
    one supported).
    """

    s: int = 3
    f: float = 0.5
    levels: int = 0

    def __post_init__(self):
        if self.s <= 1:
            raise ValueError("s must be an integer > 1")
        if not (0.0 < self.f < 1.0):
            raise ValueError("f must lie in (0, 1)")
        if self.levels < 0:
            raise ValueError("levels must be non-negative")


def sierpinski_triangle(level: int) -> PointCloud:
    """IFS-orbit approximation of the Sierpinski triangle.

    Returns the 3^level images of the unit equilateral triangle's
    centroid under all level-fold compositions of the three half-scale
    corner contractions. Deterministic point order.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    if level > TRIANGLE_LEVEL_CAP:
        raise ResourceLimitError(
            f"level {level} exceeds cap {TRIANGLE_LEVEL_CAP} (3^level points)"
        )
    pts = _EQUILATERAL.mean(axis=0)[None, :]
    for _ in range(level):
        pts = np.concatenate([(pts + v) / 2.0 for v in _EQUILATERAL])
    return PointCloud(pts)


def cantor_set(level: int) -> PointCloud:
    """Left endpoints of the level-k middle-thirds construction (2^level points in R^1)."""
    if level < 0:
        raise ValueError("level must be non-negative")
    if level > CANTOR_LEVEL_CAP:
        raise ResourceLimitError(
            f"level {level} exceeds cap {CANTOR_LEVEL_CAP} (2^level points)"
        )
    pts = np.zeros(1)
    for _ in range(level):
        pts = np.concatenate([pts / 3.0, pts / 3.0 + 2.0 / 3.0])
    return PointCloud(pts[:, None])


def sierpinski_tree(params: SierpinskiTreeParams) -> WeightedNetwork:
    """Self-similar tree G_k: s rescaled copies of G_{k-1} joined to a fresh hub.

    Starts from the single-node network; after k levels the node count is
    s*n_{k-1} + 1 and the fresh hub (highest id) is the current anchor.
    """
    count = 1
    for _ in range(params.levels):  # s >= 2, so past the cap within 20 steps
        count = params.s * count + 1
        if count > NETWORK_NODE_CAP:
            raise ResourceLimitError(
                f"tree with s={params.s}, levels={params.levels} exceeds cap "
                f"{NETWORK_NODE_CAP} nodes"
            )
    n = 1
    edges: list = []
    anchor = 0
    for _ in range(params.levels):
        new_edges = []
        for c in range(params.s):
            off = c * n
            new_edges.extend((u + off, v + off, w * params.f) for u, v, w in edges)
        hub = params.s * n
        for c in range(params.s):
            new_edges.append((anchor + c * n, hub, 1.0))
        edges = new_edges
        n = hub + 1
        anchor = hub
    return WeightedNetwork(n, tuple(edges))


def line_network(n: int) -> WeightedNetwork:
    """Path graph on n nodes, unit weights."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > NETWORK_NODE_CAP:
        raise ResourceLimitError(f"line of {n} nodes exceeds cap {NETWORK_NODE_CAP} nodes")
    return WeightedNetwork(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


def shortest_path_rows(net: WeightedNetwork, sources) -> np.ndarray:
    """(len(sources), n) single-source Dijkstra distances; inf between components.

    Row i holds d(sources[i], j) as summed along paths from the source.
    """
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    return dijkstra(net.graph, directed=True, indices=sources)


def network_diameter(net: WeightedNetwork) -> float:
    """Exact shortest-path diameter from a few single-source sweeps; inf if disconnected.

    Eccentricity bounds (Takes & Kosters, "Determining the diameter of
    small world networks", 2011): a sweep from v with eccentricity e
    gives every node w the bounds max(d, e - d) <= ecc(w) <= e + d,
    d = d(v, w). Sweeps alternate between the live node with the largest
    upper bound and the one with the smallest lower bound; a node is
    dropped once its upper bound cannot beat the best eccentricity found.
    The result is always a computed row maximum, and at most n sweeps run.
    """
    n = net.node_count
    if n <= 1:
        return 0.0
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    live = np.ones(n, dtype=bool)
    best = 0.0
    source = 0
    for sweep in range(n):
        row = shortest_path_rows(net, [source])[0]
        ecc = float(row.max())
        if not math.isfinite(ecc):
            return math.inf
        best = max(best, ecc)
        np.maximum(lower, np.maximum(row, ecc - row), out=lower)
        with np.errstate(over="ignore"):  # an inf bound only keeps a node live
            np.minimum(upper, ecc + row, out=upper)
        live[source] = False
        live &= upper > best
        candidates = np.flatnonzero(live)
        if candidates.size == 0:
            break
        if sweep % 2 == 0:
            source = int(candidates[np.argmax(upper[candidates])])
        else:
            source = int(candidates[np.argmin(lower[candidates])])
    return best


def shortest_path_metric(net: WeightedNetwork) -> MetricView:
    """All-pairs shortest-path distances; inf between components."""
    n = net.node_count
    if n == 0:
        return MetricView(np.zeros((0, 0)))
    d = shortest_path_rows(net, range(n))
    # float summation order can differ between the i->j and j->i runs; min(d, d.T)
    # in place, ROW_BLOCK rows of the upper triangle and their mirror at a time
    for lo in range(0, n, ROW_BLOCK):
        hi = lo + ROW_BLOCK
        least = np.minimum(d[lo:hi, lo:], d[lo:, lo:hi].T)
        d[lo:hi, lo:], d[lo:, lo:hi] = least, least.T
    np.fill_diagonal(d, 0.0)
    return MetricView(d)


def euclidean_metric(cloud: PointCloud) -> MetricView:
    """Pairwise Euclidean distances of a point cloud: one n x n array, no condensed copy."""
    return MetricView(cdist(cloud.points, cloud.points))


def rescale(metric: MetricView, t: float) -> MetricView:
    """Multiply every distance by t > 0; scale factors compose."""
    if not t > 0:
        raise ValueError("t must be positive")
    return MetricView(metric.dist * t, scale=metric.scale * t)


def scale_grid(grid, name: str, increasing: bool = True) -> list:
    """Grid as floats; raises unless every entry is finite and positive and the order is strict."""
    grid = [float(g) for g in grid]
    if not all(math.isfinite(g) for g in grid):
        raise ValueError(f"{name} grid must be finite")
    if any(g <= 0 for g in grid):
        raise ValueError(f"{name} grid must be positive")
    pairs = zip(grid, grid[1:])
    if any(b <= a for a, b in pairs) if increasing else any(b >= a for a, b in pairs):
        order = "increasing" if increasing else "decreasing"
        raise ValueError(f"{name} grid must be strictly {order}")
    return grid


def subsample(cloud: PointCloud, n: int, seed: int) -> PointCloud:
    """n distinct points drawn uniformly without replacement.

    Deterministic given (cloud, n, seed): indices come from a
    SeedSequence-seeded PCG64 generator and are sorted, so the full-size
    subsample returns the cloud in its original order.
    """
    if not (1 <= n <= cloud.n):
        raise ValueError(f"subsample size {n} outside [1, {cloud.n}]")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(cloud.n, size=n, replace=False))
    return PointCloud(cloud.points[idx])


def derive_seed(master: int, *parts: int) -> int:
    """Per-task seed from (master, task coordinates), stable across platforms."""
    ss = np.random.SeedSequence([int(master), *[int(p) for p in parts]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
