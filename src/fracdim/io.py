"""File formats: point CSV and whitespace edge lists, checked for syntax only.

Point file: one point per line, comma-separated decimal coordinates, no
header. Network file: one edge per line, "u v w" with ids in the digits
0-9; node_count = 1 + max id. A loader names the line of an entry that
`PointCloud` or `WeightedNetwork` refuses.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter

import numpy as np

from .errors import InvalidEntryError, ParseError
from .spaces import PointCloud, WeightedNetwork


def _entries(path):
    """(line number, stripped line) of each non-blank line: one point or edge each."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            yield from filter(itemgetter(1), enumerate(map(str.strip, fh), start=1))
    except UnicodeDecodeError:  # the byte's line is found on this path only
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()  # splits where text mode does: \n, \r\n and \r
        line_no = next((k for k, line in enumerate(lines, start=1) if not line.isascii()), 0)
        raise ParseError(path, line_no, "non-ASCII byte") from None


def _construct(path, space_type, *args):
    try:
        return space_type(*args)
    except InvalidEntryError as exc:  # the refused entry's line is found on this path only
        line_no, _ = next(islice(_entries(path), exc.index, None), (0, ""))
        raise ParseError(path, line_no, str(exc)) from None


def sniff_kind(path) -> str:
    """'network' if the first entry is three fields without a comma, else 'cloud'."""
    for _, line in _entries(path):
        return "network" if "," not in line and len(line.split()) == 3 else "cloud"
    raise ParseError(path, 0, "empty input file")


def save_pointcloud(cloud: PointCloud, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_pointcloud(cloud))


def dumps_pointcloud(cloud: PointCloud) -> str:
    lines = [",".join(f"{x:.17g}" for x in row) for row in cloud.points]
    return "\n".join(lines) + "\n"


def load_pointcloud(path) -> PointCloud:
    rows = []
    for line_no, line in _entries(path):
        fields = line.split(",")
        if rows and len(fields) != len(rows[0]):
            message = f"expected {len(rows[0])} coordinates, got {len(fields)}"
            raise ParseError(path, line_no, message)
        try:
            if "_" in line:  # float() reads 1_0 as 10
                raise ValueError(line)
            rows.append(list(map(float, fields)))
        except ValueError:
            raise ParseError(path, line_no, f"invalid coordinate in {line!r}") from None
    if not rows:
        raise ParseError(path, 0, "empty point file")
    return _construct(path, PointCloud, np.array(rows))


def save_network(net: WeightedNetwork, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_network(net))


def dumps_network(net: WeightedNetwork) -> str:
    lines = [f"{u} {v} {w:.17g}" for u, v, w in net.edges]
    return "\n".join(lines) + ("\n" if lines else "")


def load_network(path) -> WeightedNetwork:
    edges = []
    max_id = -1
    for line_no, line in _entries(path):
        fields = line.split()
        if len(fields) != 3:
            raise ParseError(path, line_no, f"expected 'u v w', got {line!r}")
        if not (fields[0].isdigit() and fields[1].isdigit()):
            raise ParseError(path, line_no, "node ids must be runs of the digits 0-9")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:  # a run past int()'s digit limit is far past int64 too
            u = v = 2**63
        max_id = max(max_id, u, v)
        if max_id >= 2**63 - 1:  # node_count = max id + 1 is an int64 too
            raise ParseError(path, line_no, "node ids must fit in int64")
        try:
            if "_" in fields[2]:  # float() reads 1_0 as 10
                raise ValueError(fields[2])
            w = float(fields[2])
        except ValueError:
            raise ParseError(path, line_no, f"invalid weight {fields[2]!r}") from None
        edges.append((u, v, w))
    return _construct(path, WeightedNetwork, max_id + 1, tuple(edges))
