"""The benchmark tracer's wrap points still exist on the package.

`perfbench/tracer.py` wraps fracdim functions by module attribute. A
refactor that renames or unbinds one of them would otherwise only show
up when the benchmark runs with tracing on.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracer = importlib.import_module("tracer")
    assert tracer.TARGETS
    missing = [
        f"fracdim.{module}.{attribute}"
        for module, attribute, *_ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"fracdim.{module}"), attribute, None))
    ]
    assert missing == []
