"""Workload inputs, requests and output checks.

A workload is built from a seed in the child process's set-up phase:
`build(name, seed, workdir)` generates the inputs, writes any files the
requests read, and returns the requests. Each request is a closure over
its inputs that calls into fracdim and returns the raw output;
`Request.check` turns that output into a value and a list of problems.
Requests never pass a `threads` argument, so fracdim runs serially apart
from the BLAS library's own threads.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

LOG3_OVER_LOG2 = math.log(3.0) / math.log(2.0)
CLOUD_DIM = 2  # every point cloud here is planar
NETWORK_MAX = 3.0
# seeded subsets of the 81-point Sierpinski-4 orbit, then all of it: the
# reduction work at n=81 is the same for every seed
RIPS_SIZES = (40, 60, 81)

WORKLOADS = ("magnitude-curve", "rips-h1", "network", "cli-mixed")


def fracdim_module(name: str):
    """fracdim.<name> as a module.

    `fracdim/__init__.py` rebinds `fracdim.magnitude` and
    `fracdim.persistence` to functions, so attribute access on the
    package would return those functions instead of the modules.
    """
    return importlib.import_module(f"fracdim.{name}")


def derive(seed: int, *parts: int) -> int:
    """Per-request seed from the workload seed, independent of fracdim."""
    ss = np.random.SeedSequence([int(seed), *[int(p) for p in parts]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class Request:
    """One call into fracdim with the checks its output must pass.

    `reference` is the theoretical dimension (None where there is none);
    `upper` is the largest plausible value; `seeded` says whether the
    value depends on the workload seed. `digest` identifies an output
    that has no single value (a barcode), so a change to it shows.
    """

    name: str
    run: Callable[[], object]
    value_of: Callable[[object], "float | None"]
    reference: "float | None" = None
    upper: float = CLOUD_DIM + 0.5
    seeded: bool = True
    extra_check: "Callable[[object], list] | None" = None
    digest: "Callable[[object], str] | None" = None

    def check(self, output) -> tuple:
        """(value or None, problems) for one output of `run`."""
        try:
            value = self.value_of(output)
            problems = [] if value is None else check_value(value, self.upper)
            if self.extra_check is not None:
                problems.extend(self.extra_check(output))
        except Exception as exc:  # a malformed output fails its request
            return None, [f"check raised {type(exc).__name__}: {exc}"]
        return value, problems


def check_value(value, upper: float) -> list:
    """Problems with a dimension value: it must be finite, > 0 and <= upper."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return [f"value {value!r} is not a number"]
    if not math.isfinite(value):
        return [f"value {value!r} is not finite"]
    if value <= 0:
        return [f"value {value!r} is not positive"]
    if value > upper:
        return [f"value {value!r} above band limit {upper}"]
    return []


def _estimate_value(est) -> float:
    return est.value


# ---------------------------------------------------------------------------
# magnitude-curve: dense similarity solves, in and out of L3


def _magnitude_curve(seed, workdir):
    spaces = fracdim_module("spaces")
    estimators = fracdim_module("estimators")
    cloud = spaces.sierpinski_triangle(7)
    sub_seed = derive(seed, 1000)

    def subsample_1000():
        sub = spaces.subsample(cloud, 1000, sub_seed)
        metric = spaces.euclidean_metric(sub)
        return estimators.magnitude_dimension(
            metric, [float(t) for t in range(1, 101)], (40, 80)
        )

    def full_2187():
        metric = spaces.euclidean_metric(cloud)
        return estimators.magnitude_dimension(metric, [float(t) for t in range(41, 81)])

    return [
        Request("magnitude-dim/sierpinski-7-n1000-t1..100", subsample_1000,
                _estimate_value, LOG3_OVER_LOG2),
        Request("magnitude-dim/sierpinski-7-n2187-t41..80", full_2187,
                _estimate_value, LOG3_OVER_LOG2, seeded=False),
    ]


# ---------------------------------------------------------------------------
# rips-h1: flag-complex enumeration and GF(2) reduction
#
# Drawn from the whole level-7 cloud, n=80 subsamples took 2.4-4.3 s to
# reduce depending on the seed: the number of column additions follows
# how many distances tie, so the spread across seeds was input, not noise.


def _rips_checks(output) -> list:
    """Degree-0 bars agree with union-find; Betti numbers of a full 2-skeleton."""
    metric, barcodes = output
    persistence = fracdim_module("persistence")
    problems = []
    h0, h1 = barcodes[0], barcodes[1]

    def finite_bars(bc):
        return sorted((iv.birth, iv.death) for iv in bc.intervals if iv.finite)

    if finite_bars(h0) != finite_bars(persistence.h0_union_find(metric)):
        problems.append("finite H0 bars differ from h0_union_find")
    h0_inf = sum(1 for iv in h0.intervals if not iv.finite)
    if h0_inf != 1:
        problems.append(f"{h0_inf} infinite H0 bars, expected 1")
    h1_inf = sum(1 for iv in h1.intervals if not iv.finite)
    if h1_inf:
        problems.append(f"{h1_inf} infinite H1 bars, expected 0")
    return problems


def _barcode_digest(output) -> str:
    _, barcodes = output
    text = repr([(bc.degree, [(iv.birth, iv.death) for iv in bc.intervals]) for bc in barcodes])
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _rips_h1(seed, workdir):
    spaces = fracdim_module("spaces")
    filtration = fracdim_module("filtration")
    persistence = fracdim_module("persistence")
    points = spaces.sierpinski_triangle(4).points

    def barcodes(n):
        idx = np.sort(np.random.default_rng(derive(seed, n)).choice(len(points), n, replace=False))
        cloud = spaces.PointCloud(points[idx])

        def run():
            metric = spaces.euclidean_metric(cloud)
            complex = filtration.vietoris_rips(metric, 2)
            return metric, persistence.persistence(complex, 1)

        return run

    return [
        Request(f"rips-h1/sierpinski-4-n{n}", barcodes(n), lambda out: None,
                seeded=n < len(points), extra_check=_rips_checks, digest=_barcode_digest)
        for n in RIPS_SIZES
    ]


# ---------------------------------------------------------------------------
# network: all-pairs Dijkstra and greedy covering


def _network(seed, workdir):
    spaces = fracdim_module("spaces")
    estimators = fracdim_module("estimators")
    line_2001 = spaces.line_network(2001)
    tree_6 = spaces.sierpinski_tree(spaces.SierpinskiTreeParams(s=3, f=0.5, levels=6))
    line_10001 = spaces.line_network(10001)
    node = int(np.random.default_rng(derive(seed, 10001)).integers(10001))

    def net_request(name, run, reference, seeded=False):
        return Request(name, run, _estimate_value, reference, NETWORK_MAX, seeded)

    return [
        net_request("network-box/line-2001",
                    lambda: estimators.box_counting_network(line_2001), 1.0),
        net_request("network-box/sierpinski-tree-6",
                    lambda: estimators.box_counting_network(tree_6), LOG3_OVER_LOG2),
        net_request("internal-scaling/sierpinski-tree-6-all",
                    lambda: estimators.internal_scaling_dimension(tree_6), LOG3_OVER_LOG2),
        net_request("internal-scaling/line-10001-one-node",
                    lambda: estimators.internal_scaling_dimension(line_10001, node),
                    1.0, seeded=True),
    ]


# ---------------------------------------------------------------------------
# cli-mixed: file parsing, the CLI, union-find and persistent magnitude
#
# With 4096 square points, alpha-magnitude-dim on the square (about 8000
# bars rebuilt per t) slowed by up to 65% while the host was busy and the
# other requests by 10-20%, which put the workload's spread across seeds
# at 22-24%. At 2048 points its barcodes are the size of Sierpinski-7's.
SQUARE_POINTS = 2048


def _write_cloud(points, path):
    np.savetxt(path, points, fmt="%.17g", delimiter=",")


def _write_edges(net, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(f"{u} {v} {w:.17g}\n" for u, v, w in net.edges)


def _cli_checks(output) -> list:
    code, _ = output
    if code != 0:
        return [f"exit code {code}"]
    return []


def _cli_value(output):
    code, out_path = output
    if code != 0:
        return None
    with open(out_path, encoding="ascii") as fh:
        return json.load(fh)["value"]


def _cli_mixed(seed, workdir):
    spaces = fracdim_module("spaces")
    cli = fracdim_module("cli")
    inputs = {
        "sierpinski-7": LOG3_OVER_LOG2,
        f"uniform-square-{SQUARE_POINTS}": 2.0,
    }
    _write_cloud(spaces.sierpinski_triangle(7).points,
                 os.path.join(workdir, "sierpinski-7.csv"))
    square = np.random.default_rng(derive(seed, SQUARE_POINTS)).random((SQUARE_POINTS, 2))
    _write_cloud(square, os.path.join(workdir, f"uniform-square-{SQUARE_POINTS}.csv"))
    tree = spaces.sierpinski_tree(spaces.SierpinskiTreeParams(s=3, f=0.5, levels=6))
    _write_edges(tree, os.path.join(workdir, "sierpinski-tree-6.edges"))
    ph_seed = str(derive(seed, 5) % 2**31)

    def estimate(estimator, stem, suffix, extra=()):
        src = os.path.join(workdir, stem + suffix)
        out = os.path.join(workdir, f"{estimator}-{stem}.json")

        def run():
            code = cli.main(["estimate", estimator, "--input", src, "--out", out, *extra])
            return code, out

        return run

    requests = []
    for stem, reference in inputs.items():
        for estimator, extra in (
            ("box", ()),
            ("correlation", ()),
            ("ph-dim", ("--seed", ph_seed)),
            ("alpha-magnitude-dim", ()),
        ):
            requests.append(Request(
                f"cli-{estimator}/{stem}", estimate(estimator, stem, ".csv", extra),
                _cli_value, reference, seeded=(estimator == "ph-dim" or "square" in stem),
                extra_check=_cli_checks,
            ))
    requests.append(Request(
        "cli-internal-scaling/sierpinski-tree-6",
        estimate("internal-scaling", "sierpinski-tree-6", ".edges"),
        _cli_value, LOG3_OVER_LOG2, NETWORK_MAX, seeded=False, extra_check=_cli_checks,
    ))
    return requests


_BUILDERS = {
    "magnitude-curve": _magnitude_curve,
    "rips-h1": _rips_h1,
    "network": _network,
    "cli-mixed": _cli_mixed,
}


def build(name: str, seed: int, workdir: str) -> list:
    """Generate the workload's inputs from the seed and return its requests."""
    return _BUILDERS[name](seed, workdir)
