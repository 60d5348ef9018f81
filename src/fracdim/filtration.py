"""Filtered simplicial complexes.

Two constructions: Vietoris-Rips over any metric view and alpha
complexes over planar point clouds. Both produce a FilteredComplex sorted
by (value, dimension, vertices) and closed under faces.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ResourceLimitError
from .spaces import MetricView, PointCloud

DEFAULT_SIMPLEX_CAP = 50_000_000


def simplex_cap() -> int:
    """Resource cap on simplex counts; FRACDIM_MAX_SIMPLICES overrides."""
    env = os.environ.get("FRACDIM_MAX_SIMPLICES")
    if env:
        return int(float(env))
    return DEFAULT_SIMPLEX_CAP


@dataclass(frozen=True)
class Simplex:
    vertices: tuple
    value: float

    def __post_init__(self):
        verts = tuple(int(v) for v in self.vertices)
        if not verts or any(b <= a for a, b in zip(verts, verts[1:])):
            raise ValueError("vertices must be non-empty and strictly increasing")
        if not (self.value >= 0 and math.isfinite(self.value)):
            raise ValueError("filtration value must be finite and non-negative")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "value", float(self.value))

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class FilteredComplex:
    """Simplices with filtration values, sorted and face-closed."""

    simplices: tuple
    max_dim: int

    def __post_init__(self):
        sims = sorted(self.simplices, key=lambda s: (s.value, s.dim, s.vertices))
        object.__setattr__(self, "simplices", tuple(sims))
        self._check_face_closure()

    def _check_face_closure(self):
        values = {}
        for s in self.simplices:
            if s.vertices in values:
                raise ValueError(f"duplicate simplex {s.vertices}")
            values[s.vertices] = s.value
        for s in self.simplices:
            if s.dim == 0:
                continue
            for k in range(len(s.vertices)):
                face = s.vertices[:k] + s.vertices[k + 1 :]
                fv = values.get(face)
                if fv is None:
                    raise ValueError(f"missing face {face} of {s.vertices}")
                if fv > s.value:
                    raise ValueError(
                        f"face {face}@{fv} above coface {s.vertices}@{s.value}"
                    )

    def __len__(self) -> int:
        return len(self.simplices)

    def dump(self) -> str:
        """Debug format: one 'v0,v1,...:value' line per simplex, sorted as stored."""
        return "\n".join(
            ",".join(str(v) for v in s.vertices) + f":{s.value:.17g}"
            for s in self.simplices
        )


def vietoris_rips(
    metric: MetricView, max_dim: int, max_scale: float = math.inf, cap: int = None
) -> FilteredComplex:
    """Vietoris-Rips complex: simplices whose pairwise distances are <= max_scale.

    Simplex value = largest pairwise distance (0 for vertices). Pairs at
    infinite distance never form an edge. Cliques of size <= max_dim + 1
    are enumerated by incremental expansion over lower neighbours, without
    materialising the 2^n blow-up.
    """
    n = metric.size
    if not (0 <= max_dim <= max(n - 1, 0)):
        raise ValueError(f"max_dim must lie in [0, {n - 1}]")
    if cap is None:
        cap = simplex_cap()
    d = metric.dist
    lower = [
        [u for u in range(v) if d[u, v] <= max_scale and math.isfinite(d[u, v])]
        for v in range(n)
    ]
    lower_sets = [set(l) for l in lower]
    sims = []

    def add_cofaces(tau, value, candidates):
        if len(sims) >= cap:
            raise ResourceLimitError(
                f"simplex count exceeds cap {cap}; raise FRACDIM_MAX_SIMPLICES "
                "or lower max_dim/max_scale"
            )
        sims.append(Simplex(tau, value))
        if len(tau) - 1 >= max_dim:
            return
        for u in candidates:
            val = value
            for w in tau:
                val = max(val, d[u, w])
            add_cofaces((u, *tau), val, [x for x in candidates if x in lower_sets[u]])

    for v in range(n):
        add_cofaces((v,), 0.0, lower[v])
    return FilteredComplex(tuple(sims), max_dim)


def _circumcircle(a, b, c):
    """Centre and radius of the circle through three planar points."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    den = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if den == 0.0:
        return None, math.inf
    ux = (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / den
    uy = (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / den
    centre = np.array([ux, uy])
    return centre, float(np.hypot(*(a - centre)))


def _collinear_alpha(points):
    """Alpha complex of collinear points: path of edges at half-gap values."""
    direction = points[-1] - points[0]
    for row in points[1:]:
        d = row - points[0]
        if np.hypot(*d) > 0:
            direction = d
            break
    proj = points @ direction
    order = np.argsort(proj, kind="stable")
    sims = [Simplex((int(i),), 0.0) for i in range(len(points))]
    top = 0
    for a, b in zip(order, order[1:]):
        gap = float(np.hypot(*(points[a] - points[b])))
        sims.append(Simplex(tuple(sorted((int(a), int(b)))), gap / 2.0))
        top = 1
    return FilteredComplex(tuple(sims), top)


def alpha_complex_2d(cloud: PointCloud) -> FilteredComplex:
    """Alpha complex of a planar point cloud.

    Delaunay triangulation filtered by the smallest radius at which the
    Voronoi-restricted balls around a simplex's vertices meet: the
    circumradius for Gabriel simplices, the smallest encroaching coface
    value otherwise.
    """
    if cloud.dim != 2:
        raise ValueError("alpha complex requires 2-d points")
    pts = cloud.points
    if len(np.unique(pts, axis=0)) != cloud.n:
        raise ValueError("duplicate points")
    if cloud.n == 1:
        return FilteredComplex((Simplex((0,), 0.0),), 0)

    centred = pts - pts[0]
    if cloud.n == 2 or np.linalg.matrix_rank(centred, tol=1e-12) < 2:
        return _collinear_alpha(pts)

    from scipy.spatial import Delaunay, QhullError

    try:
        tri = Delaunay(pts)
    except QhullError as exc:
        raise DegenerateInputError(f"Delaunay triangulation failed: {exc}") from exc
    if tri.coplanar.size:
        raise DegenerateInputError("Delaunay triangulation dropped input points")

    tri_value = {}
    edge_cofaces = {}
    for simplex in tri.simplices:
        i, j, k = sorted(int(x) for x in simplex)
        _, radius = _circumcircle(pts[i], pts[j], pts[k])
        tri_value[(i, j, k)] = radius
        for edge, opposite in (((i, j), k), ((i, k), j), ((j, k), i)):
            edge_cofaces.setdefault(edge, []).append(opposite)

    edge_value = {}
    for (a, b), opposites in edge_cofaces.items():
        mid = (pts[a] + pts[b]) / 2.0
        r = float(np.hypot(*(pts[a] - pts[b]))) / 2.0
        gabriel = all(float(np.hypot(*(pts[w] - mid))) >= r for w in opposites)
        # coface circumradii are >= r for Gabriel edges up to rounding at
        # right-angle ties, so the min keeps the filtration monotone
        candidates = [tri_value[tuple(sorted((a, b, w)))] for w in opposites]
        if gabriel:
            candidates.append(r)
        value = min(candidates)
        # only zero-area (collinear) cofaces: Qhull slivers along the hull
        edge_value[(a, b)] = value if math.isfinite(value) else r

    sims = [Simplex((i,), 0.0) for i in range(cloud.n)]
    for (i, j, k), radius in tri_value.items():
        if not math.isfinite(radius):  # zero area: enters with its last edge
            radius = max(edge_value[(i, j)], edge_value[(i, k)], edge_value[(j, k)])
        sims.append(Simplex((i, j, k), radius))
    sims.extend(Simplex(edge, value) for edge, value in edge_value.items())
    return FilteredComplex(tuple(sims), 2)
