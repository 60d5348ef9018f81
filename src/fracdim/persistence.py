"""Persistence barcodes of filtered complexes.

Boundary-matrix reduction over the 2-element field, with each column
an integer bitset and the clearing (twist) optimisation, and a
union-find fast path for degree 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filtration import FilteredComplex
from .spaces import MetricView

FACE_BLOCK = 1 << 16  # face rows turned into Python ints at a time


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


def persistence(complex: FilteredComplex, max_degree: int) -> list:
    """Barcodes in degrees 0..max_degree, coefficients in the 2-element field.

    Each column is a Python int whose bit k marks face row k in the layer
    below: adding a column is one XOR, its pivot the highest set bit.
    Dimensions are reduced top down with clearing; zero-length intervals
    are discarded. A degree is `death_complete` only with a layer above it.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    cutoff = max_degree + 1
    intervals = [[] for _ in range(cutoff)]
    births = {}  # simplices of dimension d that are pivot rows in dimension d + 1
    for d in range(min(cutoff, complex.max_dim), -1, -1):
        below = complex.values[d - 1].tolist() if d else []
        pivot = {}  # low row -> reduced column that owns it
        values = complex.values[d].tolist()
        for start in range(0, len(values), FACE_BLOCK):
            for j, rows in enumerate(complex.faces[d][start : start + FACE_BLOCK].tolist(), start):
                if j in births:  # clearing: a birth column reduces to zero
                    continue
                col = sum(1 << r for r in rows)  # the face rows are distinct
                while col and (owner := pivot.get(col.bit_length() - 1)) is not None:
                    col ^= owner
                if col:
                    low = col.bit_length() - 1
                    pivot[low] = col
                    if values[j] > below[low]:
                        intervals[d - 1].append(Interval(below[low], values[j]))
                elif d < cutoff:
                    intervals[d].append(Interval(values[j], math.inf))
        births = pivot

    return [
        Barcode(d, tuple(intervals[d]), death_complete=complex.max_dim > d)
        for d in range(cutoff)
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

