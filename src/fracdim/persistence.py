"""Persistence barcodes of filtered complexes.

Persistent cohomology over the 2-element field on the layer arrays of a
`FilteredComplex`: union-find for degree 0, then, degree by degree, the
coboundary matrix reduced with clearing and apparent pairs, each column
an integer bitset. Bauer, "Ripser: efficient computation of
Vietoris-Rips persistence barcodes" (2021); de Silva, Morozov &
Vejdemo-Johansson, "Dualities in persistent (co)homology" (2011).
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


def persistence(complex: FilteredComplex, max_degree: int) -> list:
    """Barcodes in degrees 0..max_degree, coefficients in the 2-element field.

    Degree 0 is union-find over the edges in filtration order (elder rule).
    Each higher degree reduces the coboundary matrix of its layer, latest
    simplex first, skipping the columns that the degree below cleared and
    pairing apparent pairs without building their columns. The pairs, and
    so the barcodes, are those of boundary-matrix reduction in the same
    order. Zero-length intervals are discarded. A degree is
    `death_complete` only with a layer above it.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    intervals = [[] for _ in range(max_degree + 1)]
    cleared = _components(complex, intervals[0])
    for d in range(1, min(max_degree, complex.max_dim) + 1):
        cleared = _cohomology(complex, d, cleared, intervals[d])
    return [
        Barcode(d, tuple(intervals[d]), death_complete=complex.max_dim > d)
        for d in range(max_degree + 1)
    ]


def _root(parent: list, x: int) -> int:
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _components(complex: FilteredComplex, bars: list) -> list:
    """Degree-0 bars by union-find; returns the rows of the edges that merge components.

    A component's root is its earliest vertex row. An edge joining two
    components ends the one with the later root, at the edge's value.
    """
    births = complex.values[0].tolist()
    parent = list(range(len(births)))
    merges = []
    if complex.max_dim:
        deaths = complex.values[1].tolist()
        for e, (a, b) in enumerate(complex.faces[1].tolist()):
            a, b = _root(parent, a), _root(parent, b)
            if a != b:
                old, young = min(a, b), max(a, b)
                parent[young] = old
                merges.append(e)
                if deaths[e] > births[young]:
                    bars.append(Interval(births[young], deaths[e]))
                if len(merges) == len(births) - 1:
                    break
    bars.extend(Interval(births[v], math.inf) for v in range(len(births)) if parent[v] == v)
    return merges


def _cohomology(complex: FilteredComplex, d: int, cleared: list, bars: list) -> list:
    """Degree-d bars from the coboundary columns of layer d; returns their pivot rows.

    The cleared columns (pivot rows of degree d - 1) reduce to zero and
    are skipped. A column is a Python int over the rows of layer d + 1,
    row r at bit m - 1 - r, so its pivot (earliest coface) is its highest
    set bit. A pair (j, r) is apparent when r is j's earliest coface and
    j is r's latest face: no later column reaches r, so column j needs no
    addition and is built only if another column needs it.
    """
    births = complex.values[d]
    todo = np.ones(len(births), bool)
    todo[cleared] = False
    if d == complex.max_dim:
        bars.extend(Interval(b, math.inf) for b in births[todo].tolist())
        return []
    faces, deaths = complex.faces[d + 1], complex.values[d + 1]
    m = len(deaths)
    # cofaces grouped by face row, increasing within a group: sort the keys
    # face * m + coface (below m_d * m, which fits int64 for any complex that fits in memory)
    cofaces = faces * m
    cofaces += np.arange(m)[:, None]
    cofaces = np.sort(cofaces, axis=None)
    cofaces %= m
    start = np.zeros(len(births) + 1, np.int64)
    np.cumsum(np.bincount(faces.ravel(), minlength=len(births)), out=start[1:])
    rows = np.flatnonzero(start[:-1] < start[1:])  # simplices with a coface
    earliest = cofaces[start[rows]]
    apparent = faces[earliest].max(axis=1) == rows
    rows, earliest = rows[apparent], earliest[apparent]
    owner = dict(zip(earliest.tolist(), rows.tolist()))  # pivot row -> its column
    lives = deaths[earliest] > births[rows]
    bars.extend(map(Interval, births[rows[lives]].tolist(), deaths[earliest[lives]].tolist()))
    todo[rows] = False

    def coboundary(j):
        bits = bytearray((m + 7) // 8)
        for r in cofaces[start[j] : start[j + 1]].tolist():
            bit = m - 1 - r
            bits[bit >> 3] |= 1 << (bit & 7)
        return int.from_bytes(bits, "little")

    columns = {}  # reduced columns built so far, by row of layer d
    births, deaths = births.tolist(), deaths.tolist()
    for j in np.flatnonzero(todo)[::-1].tolist():
        col = coboundary(j)
        while col and (k := owner.get(low := m - col.bit_length())) is not None:
            if k not in columns:
                columns[k] = coboundary(k)
            col ^= columns[k]
        if col:
            owner[low], columns[j] = j, col
            if deaths[low] > births[j]:
                bars.append(Interval(births[j], deaths[low]))
        else:
            bars.append(Interval(births[j], math.inf))
    return list(owner)


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
    deaths = []
    for k in order:
        a, b = _root(parent, int(iu[k])), _root(parent, int(ju[k]))
        if a != b:
            parent[a] = b
            deaths.append(float(w[k]))
            if len(deaths) == n - 1:
                break

    bars = [Interval(0.0, d) for d in deaths if d > 0]
    bars.extend(Interval(0.0, math.inf) for _ in range(n - len(deaths)))
    return Barcode(0, tuple(bars))

