#!/usr/bin/env python3
"""fracdim benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table

Run from the repository root or anywhere else; fracdim is imported from
the `src/` directory next to this one. The driver runs the workload
closed-loop, one client and one request at a time, in fresh child
processes started back to back until `--seconds` have passed. Each child
sets up (interpreter, `import fracdim`, input generation, file writes),
runs every request of the workload once, checks every output and
reports. End-to-end metrics are medians over the children of an
untraced run (`--trace 0`); per-layer metrics come from traced children
(`--trace 1`), which wrap fracdim's public functions in spans from this
directory's `tracer.py`. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Metric names and units are read from BENCHMARK.json at the repository
root. Results, environment stamp and spans go to `.bench_build/perfbench/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE_VALUES = os.path.join(HERE, "reference_values.json")
CHILD_DEADLINE_S = 170.0
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# child process: set up, run every request once, check, report


def blas_threads() -> list:
    """OpenBLAS libraries loaded in this process, with their thread counts."""
    import ctypes

    found = []
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path), "threads": None, "config": None}
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if getter is None:
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            entry["threads"] = getter()
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if config is not None:
                config.argtypes, config.restype = [], ctypes.c_char_p
                entry["config"] = config().decode("ascii", "replace")
            break
        found.append(entry)
    return found


def run_child(workload, seed, trace, t0, spans_path) -> dict:
    """One pass of the workload; returns the child's report."""
    import workloads

    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        requests = workloads.build(workload, seed, workdir)
        fracdim = sys.modules["fracdim"]
        if not os.path.abspath(fracdim.__file__).startswith(SRC + os.sep):
            raise RuntimeError(f"fracdim imported from {fracdim.__file__}, not {SRC}")
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        gc_before = gc.get_stats()[2]["collections"]
        setup_s = time.monotonic() - t0

        outputs = []
        start = time.perf_counter()
        for request in requests:
            begin = time.perf_counter()
            try:
                if tracer is None:
                    output = request.run()
                else:
                    output = tracer.call("request", request.run)
                error = None
            except Exception as exc:  # a failed request is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            outputs.append((time.perf_counter() - begin, output, error))
        wall_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gc_gen2 = gc.get_stats()[2]["collections"] - gc_before

        records = []
        for request, (seconds, output, error) in zip(requests, outputs):
            value, digest = None, None
            if error is None:
                value, problems = request.check(output)
                digest = value if request.digest is None else request.digest(output)
            else:
                problems = [error]
            records.append({
                "name": request.name,
                "seconds": seconds,
                "value": value,
                "digest": digest,
                "reference": request.reference,
                "seeded": request.seeded,
                "problems": problems,
            })

    report = {
        "traced": bool(trace),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "max_request_s": max(r["seconds"] for r in records),
        "peak_rss_mb": peak_rss_mb,
        "gc_gen2": gc_gen2,
        "requests": records,
        "blas": blas_threads(),
    }
    if tracer is not None:
        from tracer import layer_metrics

        report["layers"] = layer_metrics(tracer)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "spans": tracer.records()}, fh)
    return report


# ---------------------------------------------------------------------------
# parent process: start children, aggregate, print


def environment(seed) -> dict:
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "git_commit": None,
        "git_dirty": None,
        "seed": seed,
    }
    if os.path.exists(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        ceiling = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
        try:
            head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                  text=True, env=ceiling, timeout=30)
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, env=ceiling, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return env
        if head.returncode == 0:
            env["git_commit"] = head.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    return env


def spawn(workload, seed, trace, index, budget_s) -> dict:
    spans_path = os.path.join(WORK, f"spans-{workload}-seed{seed}-{index}.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
           "--spans", spans_path]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                          timeout=budget_s)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace) -> list:
    """Children back to back while the next one is expected to end within `seconds`.

    At least one child runs; with tracing, at least one untraced and one
    traced, alternating.
    """
    start = time.monotonic()
    reports = []
    while True:
        traced = bool(trace) and len(reports) % 2 == 1
        budget = CHILD_DEADLINE_S - (time.monotonic() - start)
        reports.append(spawn(workload, seed, traced, len(reports), budget))
        elapsed = time.monotonic() - start
        enough = len(reports) >= (2 if trace else 1)
        if enough and elapsed + elapsed / len(reports) > seconds:
            return reports


def reference_values() -> dict:
    try:
        with open(REFERENCE_VALUES, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"seed": None, "values": {}}


def values_changed(workload, seed, records, refs) -> int:
    """Requests whose value (or barcode digest) is no longer bit-identical.

    Seeded requests are compared only on the seed the values were
    recorded with; the others on every seed.
    """
    recorded = refs["values"].get(workload, {})
    changed = 0
    for r in records:
        if r["name"] not in recorded or (r["seeded"] and seed != refs["seed"]):
            continue
        if r["digest"] != recorded[r["name"]]:
            changed += 1
    return changed


def summarise(workload, seed, reports, refs) -> dict:
    """Every metric this benchmark can print, with its sample count."""
    untraced = [r for r in reports if not r["traced"]]
    traced = [r for r in reports if r["traced"]]
    records = [req for r in reports for req in r["requests"]]
    attempted = len(records)
    failed = sum(1 for req in records if req["problems"])
    deviations = [
        abs(req["value"] - req["reference"])
        for r in untraced for req in r["requests"]
        if req["reference"] is not None and req["value"] is not None and not req["problems"]
    ]

    def median_of(key, rows):
        return statistics.median(r[key] for r in rows), len(rows)

    metrics = {name: median_of(name, untraced)
               for name in ("wall_s", "max_request_s", "setup_s", "peak_rss_mb")}
    metrics["mean_abs_dev"] = (
        statistics.fmean(deviations) if deviations else None, len(deviations))
    metrics["error_rate"] = (failed / attempted, attempted)
    metrics["estimators.values_changed"] = (
        values_changed(workload, seed, reports[0]["requests"], refs), 1)
    metrics["process.gc_gen2"] = median_of("gc_gen2", untraced)
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = (statistics.median(r["layers"][name] for r in traced), len(traced))
        untraced_wall = metrics["wall_s"][0]
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_frac"] = (
            (traced_wall - untraced_wall) / untraced_wall, len(traced))
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


UNITS_NOT_IN_SPEC = {"mean_abs_dev": "1", "error_rate": "1"}


def report_lines(workload, seed, summary, spec, trace) -> list:
    """Human-readable lines: every metric with its unit and sample count."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(UNITS_NOT_IN_SPEC)
    shown = [m["name"] for m in spec["end_to_end"]] + list(UNITS_NOT_IN_SPEC)
    if trace:
        shown += [m["name"] for m in spec["per_layer"]]
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}"]
    for name in shown:
        value, samples = summary["metrics"][name]
        shown_value = "-" if value is None else f"{value:.6g}"
        lines.append(f"  {name:28s} {shown_value:>14s} {units[name]:6s} n={samples}")
    return lines


def result_line(summary, spec, trace) -> str:
    chosen = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": summary["metrics"][m["name"]][0], "unit": m["unit"]}
        for m in chosen
    }
    return json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-values", action="store_true",
                        help="store this run's request values as the reference for its seed")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--spans", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fracdim", "__init__.py")):
        print(f"error: fracdim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)

    if args.child:
        report = run_child(args.workload, args.seed, args.trace, args.t0, args.spans)
        print(json.dumps(report))
        return 0

    import workloads

    spec = load_spec()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    env = environment(args.seed)
    refs = reference_values()
    summaries = {}
    reports_by_name = {}
    for name in names:
        reports = reports_by_name[name] = run_workload(name, args.seed, seconds, args.trace)
        summary = summarise(name, args.seed, reports, refs)
        summaries[name] = summary
        print("\n".join(report_lines(name, args.seed, summary, spec, args.trace)))
        for req in reports[0]["requests"]:
            value = "-" if req["value"] is None else f"{req['value']:.6f}"
            print(f"  request {req['name']:44s} {req['seconds']:8.3f} s  value {value}"
                  + (f"  FAILED: {'; '.join(req['problems'])}" if req["problems"] else ""))
        for req in (q for r in reports[1:] for q in r["requests"] if q["problems"]):
            print(f"  request {req['name']} FAILED: {'; '.join(req['problems'])}")
        env.setdefault("blas", reports[0]["blas"])
        out = os.path.join(WORK, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "workload": name, "seconds": seconds,
                       "metrics": summary["metrics"], "children": reports}, fh, indent=1)
    if args.record_values:
        if refs["seed"] != args.seed:
            refs = {"seed": args.seed, "values": {}}
        for name in names:
            refs["values"][name] = {
                req["name"]: req["digest"] for req in reports_by_name[name][0]["requests"]
            }
        with open(REFERENCE_VALUES, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1)
            fh.write("\n")
    print("env " + json.dumps(env))
    if args.workload != "all":
        print(result_line(summaries[args.workload], spec, args.trace))
    else:
        failed = sum(s["failed"] for s in summaries.values())
        print(json.dumps({
            "correct": failed == 0,
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": failed,
            "metrics": {f"{w}/{name}": {"value": value, "samples": n}
                        for w, s in summaries.items()
                        for name, (value, n) in s["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
