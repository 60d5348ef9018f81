"""File formats: point CSV and whitespace edge lists.

Point file: one point per line, comma-separated decimal coordinates, no
header. Network file: one edge per line, "u v w" with non-negative
integer ids and positive decimal weight; node_count = 1 + max id.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParseError
from .spaces import PointCloud, WeightedNetwork


def save_pointcloud(cloud: PointCloud, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_pointcloud(cloud))


def dumps_pointcloud(cloud: PointCloud) -> str:
    lines = [",".join(f"{x:.17g}" for x in row) for row in cloud.points]
    return "\n".join(lines) + "\n"


def load_pointcloud(path) -> PointCloud:
    rows = []
    width = None
    with open(path, "r", encoding="ascii") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ParseError(path, line_no, f"expected {width} coordinates, got {len(fields)}")
            try:
                coords = [float(f) for f in fields]
            except ValueError:
                raise ParseError(path, line_no, f"invalid coordinate in {line!r}") from None
            if any(not math.isfinite(c) for c in coords):
                raise ParseError(path, line_no, "non-finite coordinate")
            rows.append(coords)
    if not rows:
        raise ParseError(path, 0, "empty point file")
    return PointCloud(np.array(rows))


def save_network(net: WeightedNetwork, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_network(net))


def dumps_network(net: WeightedNetwork) -> str:
    lines = [f"{u} {v} {w:.17g}" for u, v, w in net.edges]
    return "\n".join(lines) + ("\n" if lines else "")


def load_network(path) -> WeightedNetwork:
    edges = []
    max_id = -1
    with open(path, "r", encoding="ascii") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ParseError(path, line_no, f"expected 'u v w', got {line!r}")
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError(path, line_no, "node ids must be base-10 integers") from None
            if u < 0 or v < 0:
                raise ParseError(path, line_no, "node ids must be non-negative")
            if max(u, v) >= 2**63 - 1:  # node_count = max id + 1 is an int64 too
                raise ParseError(path, line_no, "node ids must fit in int64")
            try:
                w = float(fields[2])
            except ValueError:
                raise ParseError(path, line_no, f"invalid weight {fields[2]!r}") from None
            if math.isnan(w):
                raise ParseError(path, line_no, "weight is NaN")
            if not (w > 0 and math.isfinite(w)):
                raise ParseError(path, line_no, f"weight must be positive, got {w}")
            if u == v:
                raise ParseError(path, line_no, f"self-loop at node {u}")
            edges.append((u, v, w))
            max_id = max(max_id, u, v)
    try:
        return WeightedNetwork(max_id + 1, tuple(edges))
    except ValueError as exc:
        raise ParseError(path, 0, str(exc)) from None
