"""The benchmark tracer's wrap points and counters still fit the package.

`perfbench/tracer.py` wraps fracdim functions by module attribute and
reads counts from what they return. A refactor that renames or unbinds
one of them, or changes the shape of a traced result, would otherwise
only show up when the benchmark runs with tracing on. The other way
round, an import that a module keeps only for the tracer ("unused here")
must still be named by a target, or it is dead code.
"""

import ast
import importlib
import sys
from pathlib import Path

from fracdim import (
    alpha_complex_2d,
    euclidean_metric,
    persistence,
    sierpinski_triangle,
    vietoris_rips,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(__file__).resolve().parent.parent / "src" / "fracdim"


def import_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("tracer")


def test_every_tracer_target_resolves(monkeypatch):
    tracer = import_tracer(monkeypatch)
    assert tracer.TARGETS
    missing = [
        f"fracdim.{module}.{attribute}"
        for module, attribute, *_ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"fracdim.{module}"), attribute, None))
    ]
    assert missing == []


def test_every_import_kept_for_the_tracer_is_a_target(monkeypatch):
    # the marker sits on the import's first line (all its names) or on one name's line
    tracer = import_tracer(monkeypatch)
    targets = {(module, attribute) for module, attribute, *_ in tracer.TARGETS}
    kept = set()
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                kept |= {
                    (path.stem, alias.asname or alias.name) for alias in node.names
                    if "unused here" in lines[node.lineno - 1] + lines[alias.lineno - 1]
                }
    assert kept  # the package keeps such imports today; an empty set means the scan broke
    assert sorted(kept - targets) == []


def test_complex_and_barcode_counters_read_real_results(monkeypatch):
    tracer = import_tracer(monkeypatch)
    cloud = sierpinski_triangle(2)
    metric = euclidean_metric(cloud)
    rips = vietoris_rips(metric, 2)
    barcodes = persistence(rips, 1)
    assert tracer._simplices((metric, 2), rips) == {"simplices": len(rips)}
    assert len(rips) == sum(len(vals) for vals in rips.values) > cloud.n
    assert tracer._intervals((rips, 1), barcodes) == {
        "intervals": sum(len(bc.intervals) for bc in barcodes)
    }
    alpha = alpha_complex_2d(cloud)
    assert tracer._simplices((cloud,), alpha) == {"simplices": len(alpha)}
