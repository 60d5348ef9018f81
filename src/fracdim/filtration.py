"""Filtered simplicial complexes.

Two constructions: Vietoris-Rips over any metric view and alpha
complexes over planar point clouds. Both produce a FilteredComplex: per
dimension, vertex rows and values sorted by (value, vertices), with the
row of every face in the layer below.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, ResourceLimitError
from .spaces import MetricView, PointCloud

# RSS per simplex: vietoris_rips peaks at 92-129 bytes (2-skeleta at n = 150-300, a
# 3-skeleton at n = 60), persistence at 149-252 rising with n (a reduced column holds
# one bit per coface), so a complex at the cap needs 3.8 GB or more
DEFAULT_SIMPLEX_CAP = 15_000_000
# alpha_complex_2d treats a triangle as flat (collinear up to rounding) when
# twice its area is at most this times its longest edge squared, that is
# when the sine of its smallest angle is below about this
FLAT_TRIANGLE_TOL = 1e-12


def simplex_cap() -> int:
    """Resource cap on simplex counts; FRACDIM_MAX_SIMPLICES overrides."""
    env = os.environ.get("FRACDIM_MAX_SIMPLICES")
    if not env:
        return DEFAULT_SIMPLEX_CAP
    try:
        cap = float(env)
    except ValueError:
        cap = math.nan
    if not 0 <= cap < math.inf:
        raise ValueError(
            f"FRACDIM_MAX_SIMPLICES must be a finite non-negative number, got {env!r}"
        )
    return int(cap)


class Simplex(NamedTuple):
    """One simplex as a plain record: increasing vertex ids and its value."""

    vertices: tuple
    value: float

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


def _lookup(index, keys):
    """Rows of keys in a layer index (sorted keys, row of each key); -1 where absent."""
    sorted_keys, rows = index  # a sentinel at the end keeps every position in range
    pos = np.searchsorted(sorted_keys, keys)
    return np.where(sorted_keys[pos] == keys, rows[pos], -1)


def _reject(problem, flagged):
    """ValueError naming the first of the flagged simplices (vertex rows), if any."""
    if len(flagged):
        raise ValueError(f"{problem} {tuple(flagged[0].tolist())}")


class FilteredComplex:
    """Simplices with filtration values, one layer per dimension, closed under faces.

    Layer d: read-only `vertices[d]`, int64 rows (m_d, d + 1) of strictly
    increasing vertex ids, and `values[d]`, float64 (m_d,), sorted by
    (value, vertices); `faces[d][j, k]` is the row in layer d - 1 of
    simplex j without its k-th vertex. Faces are found once by integer
    keys: a vertex's id, else the rows of the face without the last vertex
    and of that vertex. Invalid layers raise ValueError.
    """

    def __init__(self, vertices, values):
        if not len(vertices) or len(vertices) != len(values):
            raise ValueError("need one values array per vertex layer, and at least one layer")
        layers, index = [], []  # index: per layer, (sorted keys, row of each key)
        for d, (verts, vals) in enumerate(zip(vertices, values)):
            verts, vals = np.asarray(verts, np.int64), np.asarray(vals, np.float64)
            if verts.ndim != 2 or verts.shape[1] != d + 1 or vals.shape != (len(verts),):
                raise ValueError(f"layer {d} needs vertex rows of shape (m, {d + 1}) and m values")
            _reject("vertices not strictly increasing in", verts[np.any(np.diff(verts) <= 0, 1)])
            _reject("negative or non-finite value at", verts[~(np.isfinite(vals) & (vals >= 0))])
            order = np.lexsort((*verts.T[::-1], vals))
            verts, vals = verts[order], vals[order]
            faces, keys = np.empty((len(verts), 0), np.int64), verts[:, 0]
            if d:
                vertex_rows = _lookup(index[0], verts)
                _reject("missing vertex of", verts[np.any(vertex_rows < 0, 1)])
                m = [len(layer[1]) for layer in layers]
                faces = np.empty_like(verts)
                for k in range(d + 1):
                    cols = np.delete(vertex_rows, k, axis=1)
                    faces[:, k] = cols[:, 0]
                    for i in range(1, d):  # row of cols[:, :i + 1] in layer i
                        key = np.ravel_multi_index((faces[:, k], cols[:, i]), (m[i - 1], m[0]))
                        faces[:, k] = _lookup(index[i], key)
                        _reject(f"missing face without vertex {k} of", verts[faces[:, k] < 0])
                above = np.any(layers[d - 1][1][faces] > vals[:, None], 1)
                _reject("face above coface", verts[above])
                keys = np.ravel_multi_index((faces[:, d], vertex_rows[:, d]), (m[d - 1], m[0]))
            rows = np.argsort(keys, kind="stable")
            keys = keys[rows]
            _reject("duplicate simplex", verts[rows[1:][keys[1:] == keys[:-1]]])
            index.append((np.append(keys, np.iinfo(np.int64).max), np.append(rows, -1)))
            layers.append((verts, vals, faces))
        self._freeze(layers)

    @classmethod
    def _from_sorted(cls, layers):
        """Complex from layers (vertices, values, faces) built sorted and closed; not checked."""
        return cls.__new__(cls)._freeze(layers)

    def _freeze(self, layers):
        for array in (a for layer in layers for a in layer):
            array.setflags(write=False)
        self.vertices, self.values, self.faces = map(tuple, zip(*layers))
        return self

    @property
    def max_dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def simplices(self) -> tuple:
        """Every simplex as a `Simplex`, sorted by (value, dimension, vertices)."""
        records = [Simplex(tuple(v), x) for verts, vals in zip(self.vertices, self.values)
                   for v, x in zip(verts.tolist(), vals.tolist())]
        return tuple(sorted(records, key=lambda s: (s.value, s.dim, s.vertices)))

    def __len__(self) -> int:
        return sum(len(vals) for vals in self.values)


BLOCK_CELLS = 1 << 22  # array cells held at a time: candidate masks, H0 metric stacks


def _cofaces(upper, layer):
    """Blocks (first, mask): mask[r, u] when u is an upper neighbour of all of simplex first + r."""
    block = max(1, BLOCK_CELLS // max(len(upper), 1))
    for first in range(0, len(layer), block):
        rows = layer[first : first + block]
        mask = np.ones((len(rows), len(upper)), dtype=bool)
        for col in rows.T:
            mask &= upper[col]
        yield first, mask


def vietoris_rips(
    metric: MetricView, max_dim: int, max_scale: float = math.inf
) -> FilteredComplex:
    """Vietoris-Rips complex: simplices whose pairwise distances are <= max_scale.

    Simplex value = largest pairwise distance (0 for vertices); pairs at
    infinite distance never form an edge. Layer d + 1 adds to each row of
    sorted layer d every common upper neighbour of its vertices, is counted
    against the simplex cap before it is allocated, and is sorted once with
    its face rows read off the enumeration (memory: see DEFAULT_SIMPLEX_CAP).
    """
    n = metric.size
    if not (0 <= max_dim <= max(n - 1, 0)):
        raise ValueError(f"max_dim must lie in [0, {n - 1}]")
    cap = simplex_cap()
    d = metric.dist
    upper = np.triu(np.isfinite(d) & (d <= max_scale), 1)
    layer, below = np.empty((1, 0), np.int64), np.zeros(1)  # empty simplex: cofaces = vertices
    layers, total = [], 0
    for dim in range(max_dim + 1):
        count = sum(int(np.count_nonzero(mask)) for _, mask in _cofaces(upper, layer))
        total += count
        if total > cap:
            raise ResourceLimitError(f"simplex count exceeds cap {cap}; raise "
                                     "FRACDIM_MAX_SIMPLICES or lower max_dim/max_scale")
        verts, vals, parent, at = (np.empty((count, dim + 1), np.int64), np.empty(count),
                                   np.empty(count, np.int64), 0)
        for first, mask in _cofaces(upper, layer):
            p, u = np.nonzero(mask)
            p += first
            span = slice(at, at := at + len(p))
            verts[span, :-1], verts[span, -1], parent[span], vals[span] = layer[p], u, p, below[p]
            for k in range(dim):
                np.maximum(vals[span], d[verts[span, k], u], out=vals[span])
        p = u = mask = None  # the last block's arrays, freed before the faces
        # coface j = (row parent[j] below, vertex u); without vertex k < dim it is (face k
        # of that row, u): its key row * n + u among the ascending generation keys of the
        # layer below gives its generation index, and the inverse permutation its row
        u = verts[:, -1]
        faces = np.empty((count, dim and dim + 1), np.int64)
        for k in range(dim):  # below layer 0 lies the empty simplex: layer 0's keys are u
            faces[:, k] = layers[-1][2][parent, k] * n if dim > 1 else 0
            faces[:, k] += u
            faces[:, k] = inverse[np.searchsorted(keys, faces[:, k])]
        if dim:
            faces[:, dim] = parent
        keys = parent * n + u if dim < max_dim else None  # ascending generation keys
        del parent
        order = np.lexsort((*verts.T[::-1], vals))
        if dim < max_dim:  # sorted row of each generated simplex
            inverse = np.empty_like(order)
            inverse[order] = np.arange(count)
        for array in (verts, vals, faces):  # one sorted copy alive at a time
            array[:] = array[order]
        layers.append((verts, vals, faces))
        layer, below = verts, vals
    return FilteredComplex._from_sorted(layers)


def alpha_complex_2d(cloud: PointCloud) -> FilteredComplex:
    """Alpha complex of a planar point cloud.

    Delaunay triangulation filtered by the smallest radius at which the
    Voronoi-restricted balls around a simplex's vertices meet: the
    circumradius for Gabriel simplices, the smallest encroaching coface
    value otherwise. Qhull returns triangles that are collinear up to
    rounding (see FLAT_TRIANGLE_TOL): each enters with its last edge, and
    its longest side with the path through its middle vertex.
    """
    if cloud.dim != 2:
        raise ValueError("alpha complex requires 2-d points")
    pts = cloud.points
    if len(np.unique(pts, axis=0)) != cloud.n:
        raise ValueError("duplicate points")
    if cloud.n == 1:
        return FilteredComplex(([[0]],), ([0.0],))
    if cloud.n == 2 or np.linalg.matrix_rank(pts - pts[0], tol=1e-12) < 2:
        # collinear: a path of edges at half-gap values, ordered along the
        # line through the first two points (distinct, as checked above)
        order = np.argsort(pts @ (pts[1] - pts[0]), kind="stable")
        gaps = np.hypot(*(pts[order[:-1]] - pts[order[1:]]).T)
        return FilteredComplex(
            (np.arange(cloud.n)[:, None], np.sort(np.c_[order[:-1], order[1:]], axis=1)),
            (np.zeros(cloud.n), gaps / 2.0),
        )

    from scipy.spatial import Delaunay, QhullError

    try:
        tri = Delaunay(pts)
    except QhullError as exc:
        reason = str(exc).strip().partition("\n")[0]  # the first of Qhull's many lines
        raise DegenerateInputError(f"Delaunay triangulation failed: {reason}") from exc
    if tri.coplanar.size:
        raise DegenerateInputError("Delaunay triangulation dropped input points")

    tris = np.sort(tri.simplices, axis=1).astype(np.int64)
    (ax, ay), (bx, by), (cx, cy) = (pts[tris[:, k]].T for k in range(3))
    den = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    sa, sb, sc = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = (sa * (by - cy) + sb * (cy - ay) + sc * (ay - by)) / den
        uy = (sa * (cx - bx) + sb * (ax - cx) + sc * (bx - ax)) / den
    radius = np.hypot(ax - ux, ay - uy)  # circumradius
    # flatness from the sides at a, so that the test is relative to their lengths
    (abx, aby), (acx, acy) = (bx - ax, by - ay), (cx - ax, cy - ay)
    longest = np.maximum(abx**2 + aby**2, acx**2 + acy**2)
    longest = np.maximum(longest, (bx - cx) ** 2 + (by - cy) ** 2)
    flat = np.abs(abx * acy - aby * acx) <= FLAT_TRIANGLE_TOL * longest
    radius[flat] = np.inf

    # one row per (edge, triangle) incidence, triangle by triangle in each third
    ends = np.concatenate((tris[:, [0, 1]], tris[:, [0, 2]], tris[:, [1, 2]]))
    opposite = np.concatenate((tris[:, 2], tris[:, 1], tris[:, 0]))
    half = np.hypot(*(pts[ends[:, 0]] - pts[ends[:, 1]]).T) / 2.0
    mid = (pts[ends[:, 0]] + pts[ends[:, 1]]) / 2.0
    encroaching = np.hypot(*(pts[opposite] - mid).T) < half
    _, first, edge = np.unique(ends @ [cloud.n, 1], return_index=True, return_inverse=True)
    value = np.full(len(first), np.inf)
    np.minimum.at(value, edge, np.tile(radius, 3))
    encroached = np.bincount(edge, encroaching, len(first)) > 0
    # coface circumradii are >= the half-length for Gabriel edges up to
    # rounding at right-angle ties, so the min keeps the filtration monotone
    value = np.where(encroached, value, np.minimum(value, half[first]))
    # A flat triangle's longest side runs past its middle vertex: it enters
    # once the path through that vertex has, whose sides may themselves be
    # the longest sides of other flat triangles (a fan along a line)
    sides = edge.reshape(3, -1)[:, flat]
    short, other, chord = np.take_along_axis(sides, np.argsort(half[first][sides], 0), 0)
    while True:
        before = value[chord]
        path = np.maximum(np.maximum(value[short], value[other]), half[first][chord])
        np.minimum.at(value, chord, path)
        if np.array_equal(value[chord], before):
            break
    # only flat cofaces: Qhull slivers along the hull
    value = np.where(np.isfinite(value), value, half[first])
    # a flat triangle enters with its last edge
    radius = np.where(np.isfinite(radius), radius, value[edge].reshape(3, -1).max(axis=0))
    return FilteredComplex(
        (np.arange(cloud.n)[:, None], ends[first], tris), (np.zeros(cloud.n), value, radius)
    )
