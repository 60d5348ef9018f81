"""Command-line interface.

Subcommands: `generate` writes fixture files, `estimate` runs one
estimator on an input file and emits a JSON result, `bench` runs the
classic benchmark table.

Exit codes: 0 success, 2 usage or parse error, 3 undefined dimension,
4 singular similarity, 5 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import estimators, io, spaces
from .errors import (
    FracdimError,
    ResourceLimitError,
    SingularSimilarityError,
    UndefinedDimensionError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNDEFINED_DIMENSION = 3
EXIT_SINGULAR_SIMILARITY = 4
EXIT_RESOURCE_LIMIT = 5
MAX_FLAG_ENTRIES = 10**5  # longest grid or schedule a flag may ask for


class UsageError(FracdimError):
    pass


# first match wins: every other package error, bad value or unreadable file is usage
_EXIT_CODES = (
    (UndefinedDimensionError, EXIT_UNDEFINED_DIMENSION),
    (SingularSimilarityError, EXIT_SINGULAR_SIMILARITY),
    ((ResourceLimitError, MemoryError), EXIT_RESOURCE_LIMIT),
    ((FracdimError, ValueError, OSError), EXIT_USAGE),
)


def _flag_families():
    """Parent parsers, one per flag family; each ESTIMATORS and _GENERATORS row names its own."""
    names = ("input", "out", "eps", "window", "t", "ph", "node", "level", "tree", "n")
    family = {name: argparse.ArgumentParser(add_help=False) for name in names}
    family["input"].add_argument("--input", required=True, help="point CSV or edge-list file")
    family["out"].add_argument("--out", default=None, help="output path (default: stdout)")
    eps = family["eps"]
    eps.add_argument("--eps-min", type=float, default=None)
    eps.add_argument("--eps-max", type=float, default=None)
    eps.add_argument("--eps-count", type=int, default=None,
                     help=f"grid entries (default {estimators.EPS_COUNT})")
    family["window"].add_argument("--fit-lo", type=int, default=None)
    family["window"].add_argument("--fit-hi", type=int, default=None)
    t, grid = family["t"], estimators.T_GRID
    t.add_argument("--t-min", type=float, default=grid[0])
    t.add_argument("--t-max", type=float, default=grid[-1])
    t.add_argument("--t-step", type=float, default=grid[1] - grid[0])
    ph, cfg = family["ph"], estimators.PHDimensionConfig()
    ph.add_argument("--seed", type=int, default=cfg.seed)
    ph.add_argument("--degree", type=int, default=cfg.degree)
    ph.add_argument("--alpha", type=float, default=cfg.alpha)
    ph.add_argument("--n-min", type=int, default=cfg.n_schedule[0])
    ph.add_argument("--n-max", type=int, default=cfg.n_schedule[-1])
    ph.add_argument("--n-step", type=int, default=cfg.n_schedule[1] - cfg.n_schedule[0])
    ph.add_argument("--repeats", type=int, default=cfg.repeats)
    ph.add_argument("--fit-tail", type=int, default=None)  # None: cfg's, fitted to the schedule
    family["node"].add_argument("--node", default="all", help="node id or 'all'")
    family["level"].add_argument("--level", type=int, required=True, help="iteration level")
    tree, params = family["tree"], spaces.SierpinskiTreeParams
    tree.add_argument("--levels", type=int, required=True, help="recursion levels")
    tree.add_argument("--s", type=int, default=params.s, help="copies per level")
    tree.add_argument("--f", type=float, default=params.f, help="weight scaling factor")
    family["n"].add_argument("--n", type=int, required=True, help="node count")
    return family


@functools.cache  # reads only module constants, so one parser serves every call
def _build_parser():
    family = _flag_families()
    parser = argparse.ArgumentParser(
        prog="fracdim",
        description="Fractal dimension estimation for point clouds and weighted networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # one subparser per table row, reading only its row's families; with abbreviations
    # off, a foreign flag such as --level cannot pass for a row's own --levels
    gen = sub.add_parser("generate", help="generate fixture point clouds and networks")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    for kind, (families, _) in _GENERATORS.items():
        parents = [family[f] for f in ("out", *families)]
        gen_sub.add_parser(kind, allow_abbrev=False, parents=parents)

    est = sub.add_parser("estimate", help="run one estimator on an input file")
    est_sub = est.add_subparsers(dest="estimator", required=True)
    for name, (_, _, families) in ESTIMATORS.items():
        parents = [family[f] for f in ("input", "out", *families)]
        est_sub.add_parser(name, allow_abbrev=False, parents=parents)

    bench = sub.add_parser("bench", help="run a benchmark suite")
    bench.add_argument("suite", choices=["classic"])
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument("--format", choices=["text", "json"], default="text")
    bench.add_argument("--out", default=None)

    return parser


def _write_output(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# generate


# kind -> (flag families, generator); --out is common to every kind
_GENERATORS = {
    "sierpinski-triangle": (("level",), lambda a: spaces.sierpinski_triangle(a.level)),
    "cantor": (("level",), lambda a: spaces.cantor_set(a.level)),
    "sierpinski-tree": (("tree",), lambda a: spaces.sierpinski_tree(
        spaces.SierpinskiTreeParams(s=a.s, f=a.f, levels=a.levels))),
    "line": (("n",), lambda a: spaces.line_network(a.n)),
}


def _cmd_generate(args):
    space = _GENERATORS[args.kind][1](args)
    if isinstance(space, spaces.PointCloud):
        _write_output(io.dumps_pointcloud(space), args.out)
        print(f"{space.n} points, dim {space.dim}", file=sys.stderr)
        return EXIT_OK
    _write_output(io.dumps_network(space), args.out)
    if space.node_count == 1:
        print("warning: single node, empty edge list", file=sys.stderr)
    print(f"{space.node_count} nodes, {space.edge_count} edges", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate


def _sniff_kind(path):
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if "," in line:
                return "cloud"
            return "network" if len(line.split()) == 3 else "cloud"
    return "cloud"


# Argument helpers and runners for the one table of estimators. Each
# runner looks its estimator up on the `estimators` module at call time,
# so a wrapper installed there sees the call.


def _check_entries(flags, count):
    """Refuse a flag-sized sequence before it is built; count may be an infinite float."""
    if count > MAX_FLAG_ENTRIES:
        raise ResourceLimitError(f"{flags} would give more than {MAX_FLAG_ENTRIES} entries")


def _eps_grid(args, decreasing):
    """Geometric grid from --eps-min/--eps-max/--eps-count; None leaves the estimator's default."""
    count = estimators.EPS_COUNT if args.eps_count is None else args.eps_count
    if count < 2:
        raise UsageError("--eps-count must be at least 2")
    _check_entries("--eps-count", count)
    if args.eps_min is None and args.eps_max is None:
        if args.eps_count is not None:
            raise UsageError("--eps-count requires --eps-min and --eps-max")
        return None
    if args.eps_min is None or args.eps_max is None:
        raise UsageError("--eps-min and --eps-max must be given together")
    for bound in (args.eps_min, args.eps_max):  # finite and positive, before np.geomspace
        spaces.scale_grid([bound], "eps")
    if args.eps_min >= args.eps_max:
        raise UsageError("--eps-min must lie below --eps-max")
    grid = np.geomspace(args.eps_min, args.eps_max, count)
    grid = grid[::-1] if decreasing else grid
    return [float(g) for g in grid]


def _window(args):
    if args.fit_lo is None and args.fit_hi is None:
        return None
    if args.fit_lo is None or args.fit_hi is None:
        raise UsageError("--fit-lo and --fit-hi must be given together")
    return (args.fit_lo, args.fit_hi)


def _t_grid(args):
    """Scale grid from --t-min/--t-max/--t-step."""
    if not all(map(math.isfinite, (args.t_min, args.t_max, args.t_step))):
        raise UsageError("--t-min, --t-max and --t-step must be finite")
    if not args.t_step > 0:
        raise UsageError("--t-step must be positive")
    if args.t_max < args.t_min:
        raise UsageError("--t-max must not lie below --t-min")
    count = round((args.t_max - args.t_min) / args.t_step, 0) + 1  # a float: inf stays inf
    _check_entries("--t-min, --t-max and --t-step", count)
    grid = [args.t_min + k * args.t_step for k in range(int(count))]
    # round() can step past --t-max by up to half a step; a last entry past it by
    # rounding error only stays
    past = grid[-1] > args.t_max and not math.isclose(grid[-1], args.t_max)
    return grid[:-1] if past else grid


def _ph_config(args):
    if args.n_step < 1:
        raise UsageError("--n-step must be positive")
    # len(range(...)) itself overflows past sys.maxsize entries; each size runs --repeats times
    count = ((args.n_max - args.n_min) // args.n_step + 1) * max(args.repeats, 1)
    _check_entries("--n-min, --n-max, --n-step and --repeats", count)
    schedule = tuple(range(args.n_min, args.n_max + 1, args.n_step))
    return estimators.PHDimensionConfig(
        degree=args.degree,
        alpha=args.alpha,
        n_schedule=schedule,
        repeats=args.repeats,
        seed=args.seed,
        fit_tail=min(estimators.PHDimensionConfig.fit_tail, len(schedule))
        if args.fit_tail is None else args.fit_tail,  # an explicit tail is checked as given
    )


def _run_box(args, space):
    box = (
        estimators.box_counting_pointcloud if isinstance(space, spaces.PointCloud)
        else estimators.box_counting_network
    )
    return box(space, _eps_grid(args, decreasing=True), _window(args))


def _run_correlation(args, cloud):
    grid = _eps_grid(args, decreasing=False)
    return estimators.correlation_dimension(cloud, grid, _window(args))


def _run_ph(args, cloud):
    return estimators.ph_dimension(cloud, _ph_config(args))


def _run_magnitude(args, space):
    metric = (
        spaces.euclidean_metric(space) if isinstance(space, spaces.PointCloud)
        else spaces.shortest_path_metric(space)
    )
    return estimators.magnitude_dimension(metric, _t_grid(args), _window(args))


def _run_alpha_magnitude(args, cloud):
    return estimators.alpha_magnitude_dimension(cloud, _t_grid(args), _window(args))


def _node(args):
    if args.node == "all":
        return None
    try:
        return int(args.node)
    except ValueError:
        raise UsageError("--node must be a node id or 'all'") from None


def _run_internal_scaling(args, net):
    return estimators.internal_scaling_dimension(
        net, _node(args), _eps_grid(args, decreasing=False), _window(args)
    )


# name -> (accepted input kinds, runner(args, space) -> DimensionEstimate, flag families
# the runner reads); --input and --out are common to every estimator
ESTIMATORS = {
    "box": (("cloud", "network"), _run_box, ("eps", "window")),
    "correlation": (("cloud",), _run_correlation, ("eps", "window")),
    "ph-dim": (("cloud",), _run_ph, ("ph",)),
    "magnitude-dim": (("cloud", "network"), _run_magnitude, ("t", "window")),
    "alpha-magnitude-dim": (("cloud",), _run_alpha_magnitude, ("t", "window")),
    "internal-scaling": (("network",), _run_internal_scaling, ("eps", "window", "node")),
}


def _cmd_estimate(args):
    kinds, runner, _ = ESTIMATORS[args.estimator]
    kind = _sniff_kind(args.input)
    if kind not in kinds:
        raise UsageError(
            f"estimator {args.estimator!r} does not accept {kind} input; "
            f"valid pairs: "
            + ", ".join(f"{e}<-{'|'.join(k)}" for e, (k, *_) in sorted(ESTIMATORS.items()))
        )
    space = io.load_pointcloud(args.input) if kind == "cloud" else io.load_network(args.input)
    result = runner(args, space)

    record = result.to_json_dict()
    record["params"]["input"] = args.input
    _write_output(json.dumps(record, indent=2) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench

LOG3_OVER_LOG2 = math.log(3.0) / math.log(2.0)
LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)


def _uniform_cloud(n, dim, seed):
    return spaces.PointCloud(np.random.default_rng(seed).random((n, dim)))


def _classic_cells(seed):
    """Suite definition: (space name, record tag, reference, estimator, space, overrides).

    Each cell runs its `ESTIMATORS` entry with the `estimate` defaults
    updated by its overrides.
    """
    sub_seed = spaces.derive_seed(seed, 103)
    tree = spaces.SierpinskiTreeParams(s=3, f=0.5, levels=6)
    cells = []
    for name, cloud, ref in (
        ("sierpinski-7", spaces.sierpinski_triangle(7), LOG3_OVER_LOG2),
        ("cantor-10", spaces.cantor_set(10), LOG2_OVER_LOG3),
        ("uniform-square", _uniform_cloud(4096, 2, spaces.derive_seed(seed, 101)), 2.0),
        ("uniform-interval", _uniform_cloud(2048, 1, spaces.derive_seed(seed, 102)), 1.0),
    ):
        # magnitude reads a seeded 1000-point subsample over t = 1..100
        sub = cloud if cloud.n <= 1000 else spaces.subsample(cloud, 1000, sub_seed)
        cells += [(name, tag, ref, tag, cloud, {}) for tag in ("box", "correlation", "ph-dim")]
        cells.append((name, "magnitude-dim", ref, "magnitude-dim", sub, {"t_max": 100.0}))
    for name, net, ref in (
        ("sierpinski-tree-6", spaces.sierpinski_tree(tree), LOG3_OVER_LOG2),
        ("line-2001", spaces.line_network(2001), 1.0),
    ):
        cells += [
            (name, "network-box", ref, "box", net, {}),
            (name, "internal-scaling", ref, "internal-scaling", net, {}),
        ]
    return cells


def run_bench(suite="classic", seed=42):
    """Run a benchmark suite; per-cell failures are recorded, not raised."""
    if suite != "classic":
        raise UsageError(f"unknown suite {suite!r}")
    cells = _classic_cells(seed)
    parser = _build_parser()

    records = []
    for space_name, tag, ref, estimator, space, overrides in cells:
        start = time.perf_counter()
        record = {
            "space": space_name,
            "estimator": tag,
            "status": "ok",
            "value": None,
            "reference": ref,
            "deviation": None,
            "seed": seed,
            "warnings": [],
            "error": None,
        }
        try:
            defaults = vars(parser.parse_args(["estimate", estimator, "--input", ""]))
            args = argparse.Namespace(**{**defaults, "seed": seed, **overrides})
            est = ESTIMATORS[estimator][1](args, space)
            record["value"] = est.value
            record["warnings"] = list(est.warnings)
            if ref is not None:
                record["deviation"] = est.value - ref
        except (FracdimError, ValueError) as exc:
            record["status"] = "error"
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["wall_time_s"] = time.perf_counter() - start
        records.append(record)
    return records


def _format_bench_text(records):
    header = f"{'space':20s} {'estimator':20s} {'value':>10s} {'reference':>10s} {'deviation':>10s} {'time_s':>8s}  status"
    lines = [header, "-" * len(header)]
    for r in records:
        value = f"{r['value']:.4f}" if r["value"] is not None else "-"
        ref = f"{r['reference']:.4f}" if r["reference"] is not None else "-"
        dev = f"{r['deviation']:+.4f}" if r["deviation"] is not None else "-"
        status = r["status"] if r["status"] == "ok" else f"error: {r['error']}"
        lines.append(
            f"{r['space']:20s} {r['estimator']:20s} {value:>10s} {ref:>10s} {dev:>10s} "
            f"{r['wall_time_s']:8.2f}  {status}"
        )
    return "\n".join(lines) + "\n"


def _cmd_bench(args):
    records = run_bench(args.suite, args.seed)
    if args.format == "json":
        _write_output(json.dumps(records, indent=2) + "\n", args.out)
    else:
        sys.stdout.write(_format_bench_text(records))
        if args.out:
            with open(args.out, "w", encoding="ascii") as fh:
                json.dump(records, fh, indent=2)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        return _cmd_bench(args)
    except (FracdimError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
