"""Self-test of the benchmark's checks and reporting.

    python3 -m pytest perfbench

Needs numpy and pytest; does not import fracdim.
"""

import json
import math

import pytest

import run
import workloads
from tracer import Tracer, layer_metrics

SPEC = run.load_spec()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0, 2.51, "1.5", None])
def test_check_value_rejects(value):
    assert workloads.check_value(value, 2.5)


@pytest.mark.parametrize("value", [1e-9, 1.0, 2.5])
def test_check_value_accepts_in_band(value):
    assert workloads.check_value(value, 2.5) == []


def _request(value, upper=2.5):
    return workloads.Request("probe", lambda: None, lambda out: value, 1.0, upper)


def test_request_check_rejects_nan_and_out_of_band():
    assert _request(math.nan).check(None)[1]
    assert _request(3.1).check(None)[1]
    assert _request(3.1, upper=workloads.NETWORK_MAX).check(None)[1]
    assert _request(1.58).check(None) == (1.58, [])


def test_request_check_reports_unreadable_output():
    def unreadable(out):
        raise KeyError("value")

    request = workloads.Request("probe", lambda: None, unreadable, 1.0)
    value, problems = request.check(None)
    assert value is None and problems


def _child(traced, value, wall=1.0):
    report = {
        "traced": traced,
        "setup_s": 0.25,
        "wall_s": wall,
        "max_request_s": wall / 2,
        "peak_rss_mb": 100.0,
        "gc_gen2": 3,
        "requests": [
            {"name": "a", "seconds": wall / 2, "value": value, "digest": value, "reference": 1.0,
             "seeded": False, "problems": workloads.check_value(value, 2.5)},
            {"name": "b", "seconds": wall / 2, "value": 1.5, "digest": 1.5, "reference": 1.0,
             "seeded": False, "problems": []},
        ],
        "blas": [],
    }
    if traced:
        report["layers"] = layer_metrics(Tracer())
    return report


def _summary(value=1.25, trace=False):
    reports = [_child(False, value), _child(True, value, 1.1), _child(False, value, 0.9)]
    if not trace:
        reports = [r for r in reports if not r["traced"]]
    refs = {"seed": 42, "values": {"probe": {"a": 1.25, "b": 1.5}}}
    return run.summarise("probe", 7, reports, refs)


def test_failures_count_against_attempted():
    summary = _summary(value=math.nan)
    assert summary["attempted"] == 4 and summary["failed"] == 2
    assert json.loads(run.result_line(summary, SPEC, 0))["correct"] is False


def test_every_end_to_end_metric_prints_with_unit_and_samples():
    summary = _summary()
    lines = run.report_lines("probe", 7, summary, SPEC, 0)
    for metric in SPEC["end_to_end"]:
        line = next(l for l in lines if l.split()[0] == metric["name"])
        assert line.split()[2] == metric["unit"] and line.split()[3].startswith("n=")
    for name in ("mean_abs_dev", "error_rate"):
        assert any(l.split()[0] == name for l in lines)
    result = json.loads(run.result_line(summary, SPEC, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert summary["metrics"]["mean_abs_dev"][0] == pytest.approx(0.375)
    assert summary["metrics"]["estimators.values_changed"][0] == 0


def test_every_per_layer_metric_prints_with_unit():
    summary = _summary(trace=True)
    lines = run.report_lines("probe", 7, summary, SPEC, 1)
    for metric in SPEC["per_layer"]:
        line = next(l for l in lines if l.split()[0] == metric["name"])
        assert line.split()[2] == metric["unit"]
    result = json.loads(run.result_line(summary, SPEC, 1))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert summary["metrics"]["trace.overhead_frac"][0] == pytest.approx(0.15 / 0.95)


def test_values_changed_only_compares_applicable_seeds():
    records = [
        {"name": "a", "digest": 1.0, "seeded": True},
        {"name": "b", "digest": 2.0, "seeded": False},
    ]
    refs = {"seed": 42, "values": {"w": {"a": 1.5, "b": 2.5}}}
    assert run.values_changed("w", 42, records, refs) == 2
    assert run.values_changed("w", 7, records, refs) == 1
    assert run.values_changed("other", 42, records, refs) == 0


def test_spec_follows_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
