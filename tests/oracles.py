"""Independent brute-force oracles used only by the tests.

Deliberately naive implementations on separate code paths from the
package: Vietoris-Rips layers from every vertex subset, dense
boundary-matrix reduction, loop-based counting, pair
counts from one sorted pdist vector, Prim MST, Kruskal minimum spanning
forests, exhaustive minimal covers, a non-lazy greedy cover, a
triangle-inequality scan, magnitude via explicit matrix inversion, via
scipy's Cholesky helpers and via its symmetric solve, persistent
magnitude one interval at a time.
"""

import heapq
import io
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import scipy.linalg
from scipy.spatial.distance import pdist


def naive_rips_layers(dist, max_dim, max_scale=math.inf):
    """Vietoris-Rips layers from every (d + 1)-subset of the vertices, d <= max_dim.

    A subset enters when all its pairwise distances are finite and
    <= max_scale, valued at the largest of them (0 for a vertex). Returns
    lists (vertices, values, faces) per dimension, each layer sorted by
    (value, vertices); faces[d][j][k] is the position in layer d - 1 of
    simplex j without its k-th vertex, read from a dict.
    """
    n = len(dist)
    vertices, values, faces, row = [], [], [], {}
    for d in range(max_dim + 1):
        layer = []
        for s in itertools.combinations(range(n), d + 1):
            pairs = [float(dist[a][b]) for a, b in itertools.combinations(s, 2)]
            if all(math.isfinite(x) and x <= max_scale for x in pairs):
                layer.append((max(pairs, default=0.0), s))
        layer.sort()
        values.append([value for value, _ in layer])
        vertices.append([list(s) for _, s in layer])
        faces.append([[row[s[:k] + s[k + 1:]] for k in range(len(s))] if d else []
                      for _, s in layer])
        row = {s: j for j, (_, s) in enumerate(layer)}
    return vertices, values, faces


def naive_persistence_pairs(complex, max_degree):
    """Dense left-to-right F2 reduction; returns {degree: sorted [(birth, death)]}.

    No clearing, no sparsity: the textbook algorithm on a full boolean
    matrix.
    """
    sims = [s for s in complex.simplices if s.dim <= max_degree + 1]
    n = len(sims)
    index = {s.vertices: i for i, s in enumerate(sims)}
    R = np.zeros((n, n), dtype=bool)
    for j, s in enumerate(sims):
        if s.dim == 0:
            continue
        for k in range(len(s.vertices)):
            face = s.vertices[:k] + s.vertices[k + 1 :]
            R[index[face], j] = True

    def low(j):
        rows = np.nonzero(R[:, j])[0]
        return int(rows[-1]) if rows.size else -1

    lows = {}
    for j in range(n):
        lj = low(j)
        while lj >= 0 and lj in lows:
            R[:, j] ^= R[:, lows[lj]]
            lj = low(j)
        if lj >= 0:
            lows[lj] = j

    deaths = set(lows.values())
    births_paired = dict((i, j) for i, j in lows.items())
    out = {d: [] for d in range(max_degree + 1)}
    for i, s in enumerate(sims):
        if i in deaths:
            continue
        if i in births_paired:
            j = births_paired[i]
            if s.dim <= max_degree and sims[j].value > s.value:
                out[s.dim].append((s.value, sims[j].value))
        elif s.dim <= max_degree:
            out[s.dim].append((s.value, math.inf))
    return {d: sorted(v) for d, v in out.items()}


def naive_box_count(points, eps):
    """Set-of-tuples grid count with explicit loops."""
    mins = points.min(axis=0)
    boxes = set()
    for p in points:
        boxes.add(tuple(int(math.floor((c - m) / eps)) for c, m in zip(p, mins)))
    return len(boxes)


def naive_pair_fraction(points, eps):
    """Fraction of unordered pairs at Euclidean distance <= eps, by loops."""
    n = len(points)
    hits = 0
    for i in range(n):
        for j in range(i + 1, n):
            if math.dist(points[i], points[j]) <= eps:
                hits += 1
    return hits / (n * (n - 1) / 2)


def sorted_pdist_correlation(points, eps_grid=None):
    """(eps grid, C(eps)) from one sorted condensed distance vector.

    With no grid, the default correlation grid is read from the sorted
    vector: 12 geometric steps from max(smallest positive distance,
    d_max / 48) to max(d_max / 6, twice that).
    """
    d = np.sort(pdist(points))
    if eps_grid is None:
        d_max = float(d[-1])
        lo = max(float(d[np.searchsorted(d, 0.0, side="right")]), d_max / 48.0)
        eps_grid = [float(g) for g in np.geomspace(lo, max(d_max / 6.0, lo * 2.0), 12)]
    return eps_grid, [float(np.searchsorted(d, e, side="right")) / d.size for e in eps_grid]


def naive_mst_total(points):
    """Prim's algorithm, O(n^2), total edge weight of the Euclidean MST."""
    n = len(points)
    if n < 2:
        return 0.0
    pts = np.asarray(points)
    in_tree = [False] * n
    best = np.full(n, np.inf)
    best[0] = 0.0
    total = 0.0
    for _ in range(n):
        u = int(np.argmin(np.where(in_tree, np.inf, best)))
        total += best[u]
        in_tree[u] = True
        d = np.sqrt(((pts - pts[u]) ** 2).sum(axis=1))
        best = np.where(~np.array(in_tree) & (d < best), d, best)
    return float(total)


def naive_h0_deaths(dist):
    """Kruskal over the upper triangle: the finite minimum-spanning-forest weights, ascending.

    Edges in stable weight order, plain union-find with path halving;
    infinite distances are not edges. Zero weights are kept.
    """
    d = np.asarray(dist)
    n = len(d)
    edges = sorted(
        (float(d[i, j]), i, j) for i in range(n) for j in range(i + 1, n) if d[i, j] < math.inf
    )
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    deaths = []
    for w, i, j in edges:
        a, b = root(i), root(j)
        if a != b:
            parent[a] = b
            deaths.append(w)
    return deaths


def induced_diameter(net, nodes):
    """Shortest-path diameter of the induced subnetwork (inf if disconnected)."""
    nodes = sorted(nodes)
    pos = {v: i for i, v in enumerate(nodes)}
    k = len(nodes)
    d = np.full((k, k), np.inf)
    np.fill_diagonal(d, 0.0)
    keep = set(nodes)
    for u, v, w in net.edges:
        if u in keep and v in keep:
            i, j = pos[u], pos[v]
            d[i, j] = d[j, i] = min(d[i, j], w)
    for m in range(k):
        d = np.minimum(d, d[:, m : m + 1] + d[m : m + 1, :])
    return float(d.max()) if k else 0.0


def triangle_violations(dist, tol):
    """(i, j, k) with dist[i, j] > dist[i, k] + dist[k, j] + tol, one pass per k (O(n^3))."""
    d = np.asarray(dist)
    return [
        (int(i), int(j), k)
        for k in range(len(d))
        for i, j in np.argwhere(d > d[:, k : k + 1] + d[k : k + 1, :] + tol)
    ]


def naive_greedy_cover(net, eps):
    """Greedy ball covering, every restricted ball recomputed every round.

    Each round runs a plain Dijkstra over uncovered nodes from every
    uncovered node and claims the largest radius-eps/2 ball, the lowest
    centre id first on ties. No queue of sizes carries over between
    rounds.
    """
    n = net.node_count
    adj = [[] for _ in range(n)]
    for u, v, w in net.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    radius = eps / 2.0
    covered = [False] * n

    def ball(centre):
        dist = {centre: 0.0}
        heap = [(0.0, centre)]
        done = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in adj[u]:
                nd = d + w
                if not covered[v] and nd <= radius and nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return sorted(done)

    parts = []
    while not all(covered):
        best = []
        for c in range(n):
            if not covered[c]:
                b = ball(c)
                if len(b) > len(best):
                    best = b
        for u in best:
            covered[u] = True
        parts.append(best)
    return parts


def minimal_cover_size(net, eps):
    """Exhaustive minimal epsilon-node-covering size via subset DP (<= ~15 nodes)."""
    n = net.node_count
    assert n <= 15, "exhaustive cover oracle is exponential"
    valid = [False] * (1 << n)
    for mask in range(1, 1 << n):
        nodes = [v for v in range(n) if mask >> v & 1]
        valid[mask] = induced_diameter(net, nodes) <= eps
    best = [math.inf] * (1 << n)
    best[0] = 0
    for mask in range(1, 1 << n):
        low_bit = mask & -mask
        sub = mask
        while sub:
            if sub & low_bit and valid[sub] and best[mask ^ sub] + 1 < best[mask]:
                best[mask] = best[mask ^ sub] + 1
            sub = (sub - 1) & mask
    return int(best[(1 << n) - 1])


def naive_magnitude(dist):
    """Magnitude via explicit inverse of the similarity matrix."""
    return float(np.linalg.inv(np.exp(-np.asarray(dist))).sum())


def cholesky_magnitude(dist, t):
    """Magnitude of tX by cho_factor/cho_solve and one refinement step.

    The similarity matrix is exp(-(d t)), each product rounded once, as a
    rescaled metric holds it.
    """
    zeta = np.exp(-(np.asarray(dist) * t))
    ones = np.ones(len(zeta))
    factor = scipy.linalg.cho_factor(zeta)
    w = scipy.linalg.cho_solve(factor, ones)
    w = w + scipy.linalg.cho_solve(factor, ones - zeta @ w)
    return float(w.sum())


def symmetric_solve_magnitude(dist, t):
    """Magnitude of tX by scipy's general symmetric solve and one refinement step.

    The similarity matrix is built whole, as for cholesky_magnitude; the
    solve factors it with pivoting, so it also holds where zeta is
    indefinite.
    """
    zeta = np.exp(-(np.asarray(dist) * t))
    ones = np.ones(len(zeta))
    w = scipy.linalg.solve(zeta, ones, assume_a="sym")
    w = w + scipy.linalg.solve(zeta, ones - zeta @ w, assume_a="sym")
    return float(w.sum())


def magnitudes_at_one_blas_thread(oracle, dist, grid):
    """oracle(dist, t) for each t, in a child Python under OPENBLAS_NUM_THREADS=1.

    oracle is a function of this module. The BLAS thread count can move
    the last bit of a solve. The child has one BLAS thread from its start,
    set by the environment alone, not by the package. The metric goes in
    as .npy bytes, the values come back as JSON (float repr round-trips
    exactly).
    """
    code = (
        "import io, json, sys\n"
        "import numpy as np\n"
        f"from oracles import {oracle.__name__} as oracle\n"
        "dist = np.load(io.BytesIO(sys.stdin.buffer.read()))\n"
        f"print(json.dumps([oracle(dist, t) for t in {[float(t) for t in grid]!r}]))\n"
    )
    buffer = io.BytesIO()
    np.save(buffer, np.asarray(dist, dtype=float))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.path.dirname(__file__)}
    child = subprocess.run(
        [sys.executable, "-c", code], input=buffer.getvalue(), env=env,
        capture_output=True, check=True,
    )
    return json.loads(child.stdout)


def naive_persistent_magnitude(barcodes, t):
    """Persistent magnitude of the barcodes of tX, one interval at a time.

    Each endpoint is rescaled by t, each term takes math.exp, and the
    signed terms (-1)^degree (e^-tb - e^-td) are added in barcode order to
    a running total that starts at 0.0; an infinite death adds no term.
    """
    total = 0.0
    for bc in barcodes:
        sign = -1.0 if bc.degree % 2 else 1.0
        for iv in bc.intervals:
            birth, death = iv.birth * t, iv.death * t
            death_term = math.exp(-death) if math.isfinite(death) else 0.0
            total += sign * (math.exp(-birth) - death_term)
    return total


def point_in_triangle(p, a, b, c, tol=1e-12):
    """Barycentric containment test."""

    def cross(o, u, v):
        return (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])

    d1 = cross(a, b, p)
    d2 = cross(b, c, p)
    d3 = cross(c, a, p)
    has_neg = min(d1, d2, d3) < -tol
    has_pos = max(d1, d2, d3) > tol
    return not (has_neg and has_pos)
