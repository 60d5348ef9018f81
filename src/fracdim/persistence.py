"""Persistence barcodes of filtered complexes.

Boundary-matrix reduction over the 2-element field with the clearing
(twist) optimisation, and a union-find fast path for degree 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filtration import FilteredComplex
from .spaces import MetricView


@dataclass(frozen=True)
class Interval:
    birth: float
    death: float

    def __post_init__(self):
        if not math.isfinite(self.birth) or self.birth < 0:
            raise ValueError("birth must be finite and non-negative")
        if self.death < self.birth:
            raise ValueError("death before birth")

    @property
    def finite(self) -> bool:
        return math.isfinite(self.death)

    @property
    def length(self) -> float:
        return self.death - self.birth


@dataclass(frozen=True)
class Barcode:
    """Multiset of intervals in one homology degree.

    `death_complete` is False when the complex was truncated below
    degree + 1, in which case intervals reported infinite may merely be
    unresolved.
    """

    degree: int
    intervals: tuple
    death_complete: bool = True

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        ordered = tuple(sorted(self.intervals, key=lambda i: (i.birth, i.death)))
        object.__setattr__(self, "intervals", ordered)

    def finite_intervals(self) -> tuple:
        return tuple(i for i in self.intervals if i.finite)


def _xor_columns(a, b):
    out = []
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        if a[ia] == b[ib]:
            ia += 1
            ib += 1
        elif a[ia] < b[ib]:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return out


def persistence(complex: FilteredComplex, max_degree: int) -> list:
    """Barcodes in degrees 0..max_degree, coefficients in the 2-element field.

    Zero-length intervals are discarded. Deterministic given the
    complex's simplex order.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    cutoff = max_degree + 1
    sims = [s for s in complex.simplices if s.dim <= cutoff]
    index = {s.vertices: i for i, s in enumerate(sims)}
    dims = [s.dim for s in sims]
    values = [s.value for s in sims]

    def boundary(j):
        verts = sims[j].vertices
        if len(verts) == 1:
            return []
        return sorted(index[verts[:k] + verts[k + 1 :]] for k in range(len(verts)))

    pivot = {}  # pivot row -> owning column
    stored = {}  # column -> reduced column (sorted rows)
    pairs = {}  # birth row -> death column
    zero_cols = set()

    def reduce_column(j):
        col = boundary(j)
        while col:
            owner = pivot.get(col[-1])
            if owner is None:
                break
            col = _xor_columns(col, stored[owner])
        if col:
            low = col[-1]
            pivot[low] = j
            stored[j] = col
            pairs[low] = j
            return low
        zero_cols.add(j)
        return None

    # clearing: top dimension first; a column whose index is a pivot row reduces to zero
    cleared = set()
    for d in range(max(dims, default=0), 0, -1):
        for j in range(len(sims)):
            if dims[j] != d or j in cleared:
                continue
            low = reduce_column(j)
            if low is not None:
                cleared.add(low)
    zero_cols.update(j for j in range(len(sims)) if dims[j] == 0)

    intervals = {d: [] for d in range(max_degree + 1)}
    for i, j in pairs.items():
        d = dims[i]
        if d <= max_degree and values[j] > values[i]:
            intervals[d].append(Interval(values[i], values[j]))
    for i in zero_cols:
        if i in pairs:
            continue
        d = dims[i]
        if d <= max_degree:
            intervals[d].append(Interval(values[i], math.inf))

    return [
        Barcode(
            d,
            tuple(intervals[d]),
            death_complete=(d < max_degree or complex.max_dim >= max_degree + 1),
        )
        for d in range(max_degree + 1)
    ]


def h0_union_find(metric: MetricView) -> Barcode:
    """Degree-0 barcode straight from the distance matrix.

    Kruskal over the complete graph: one [0, w] interval per minimum
    spanning tree edge weight, one [0, inf) per connected component
    (infinite distances separate components).
    """
    n = metric.size
    if n == 0:
        return Barcode(0, ())
    iu, ju = np.triu_indices(n, 1)
    w = metric.dist[iu, ju]
    finite = np.isfinite(w)
    iu, ju, w = iu[finite], ju[finite], w[finite]
    order = np.argsort(w, kind="stable")

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    deaths = []
    for k in order:
        a, b = find(int(iu[k])), find(int(ju[k]))
        if a != b:
            parent[a] = b
            deaths.append(float(w[k]))
            if len(deaths) == n - 1:
                break

    bars = [Interval(0.0, d) for d in deaths if d > 0]
    bars.extend(Interval(0.0, math.inf) for _ in range(n - len(deaths)))
    return Barcode(0, tuple(bars))


def dump_barcodes(barcodes) -> str:
    """One 'degree birth death' line per interval, 'inf' for infinite deaths."""
    rows = []
    for bc in sorted(barcodes, key=lambda b: b.degree):
        for iv in bc.intervals:
            death = "inf" if not iv.finite else f"{iv.death:.17g}"
            rows.append(f"{bc.degree} {iv.birth:.17g} {death}")
    return "\n".join(rows)
