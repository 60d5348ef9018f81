import argparse
import contextlib
import errno
import io
import json
import mmap
import os
import re
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fracdim import (
    ParseError,
    PHDimensionConfig,
    PointCloud,
    SierpinskiTreeParams,
    WeightedNetwork,
    euclidean_metric,
    magnitude_dimension,
    sierpinski_tree,
    sierpinski_triangle,
    subsample,
)
from fracdim import cli, estimators
from fracdim.cli import ESTIMATORS, main, run_bench
from fracdim.io import (
    dumps_network,
    dumps_pointcloud,
    load_network,
    load_pointcloud,
    save_network,
    save_pointcloud,
    sniff_kind,
)


ONE_SAMPLE_WINDOW = [
    "--t-min", "1", "--t-max", "10", "--t-step", "1", "--fit-lo", "3", "--fit-hi", "4"
]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_sierpinski_triangle_csv(self, tmp_path, capsys):
        out = tmp_path / "sierp.csv"
        code, _, err = run_cli(
            ["generate", "sierpinski-triangle", "--level", "7", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 2187
        assert "2187 points" in err

    def test_sierpinski_tree_edges(self, tmp_path, capsys):
        out = tmp_path / "tree.edges"
        code, _, err = run_cli(
            [
                "generate", "sierpinski-tree",
                "--levels", "5", "--s", "3", "--f", "0.5",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 363
        assert "364 nodes, 363 edges" in err

    def test_line_single_node_warns(self, tmp_path, capsys):
        out = tmp_path / "line.edges"
        code, _, err = run_cli(["generate", "line", "--n", "1", "--out", str(out)], capsys)
        assert code == 0
        assert out.read_text() == ""
        assert "single node" in err

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(["generate", "cantor", "--level", "2"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    @pytest.mark.parametrize(
        "flags",
        [
            ["sierpinski-tree", "--levels", "1000000"],
            ["sierpinski-tree", "--s", "1000000000", "--levels", "2"],
            ["line", "--n", str(10**12)],
        ],
        ids=["tree-levels", "tree-s", "line-n"],
    )
    def test_network_over_node_cap_exit5(self, capsys, flags):
        # the node count is checked before any edge exists, so each case returns at once
        code, out, err = run_cli(["generate", *flags], capsys)
        assert code == 5
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "exceeds cap 1000000 nodes" in err

    def test_missing_param_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "cantor"])
        assert exc.value.code == 2
        assert "required: --level" in capsys.readouterr().err

    def test_roundtrip_matches_generator(self, tmp_path, capsys):
        out = tmp_path / "tree.edges"
        run_cli(
            ["generate", "sierpinski-tree", "--levels", "4", "--out", str(out)], capsys
        )
        assert load_network(out) == sierpinski_tree(SierpinskiTreeParams(3, 0.5, 4))

    def test_cloud_roundtrip_matches_generator(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        run_cli(
            ["generate", "sierpinski-triangle", "--level", "5", "--out", str(out)],
            capsys,
        )
        assert load_pointcloud(out) == sierpinski_triangle(5)


class TestEstimate:
    def test_box_on_cloud_json(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        save_pointcloud(sierpinski_triangle(6), path)
        code, out, _ = run_cli(["estimate", "box", "--input", str(path)], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["estimator"] == "box"
        assert 1.3 <= record["value"] <= 1.8
        assert record["params"]["input"] == str(path)
        # box reads no seed, so none is recorded
        assert record["seed"] is None
        assert "seed" not in record["params"]
        assert isinstance(record["points"], list)

    def test_ph_dim_sierpinski(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        save_pointcloud(sierpinski_triangle(7), path)
        code, out, _ = run_cli(
            [
                "estimate", "ph-dim", "--input", str(path),
                "--degree", "0", "--alpha", "1",
                "--n-min", "5", "--n-max", "200", "--n-step", "5",
                "--fit-tail", "36", "--repeats", "5", "--seed", "42",
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert 1.40 <= record["value"] <= 1.70
        assert record["params"]["repeats"] == 5

    def test_magnitude_dim_on_subsample_file(self, tmp_path, capsys):
        path = tmp_path / "sub.csv"
        save_pointcloud(subsample(sierpinski_triangle(7), 300, 42), path)
        code, out, _ = run_cli(
            [
                "estimate", "magnitude-dim", "--input", str(path),
                "--t-min", "1", "--t-max", "40", "--t-step", "1",
                "--fit-lo", "10", "--fit-hi", "30",
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert record["estimator"] == "magnitude-dim"
        assert record["window"] == [10, 30]

    def test_magnitude_dim_on_network_input(self, tmp_path, capsys):
        path = tmp_path / "tree.edges"
        save_network(sierpinski_tree(SierpinskiTreeParams(3, 0.5, 3)), path)
        code, out, _ = run_cli(
            [
                "estimate", "magnitude-dim", "--input", str(path),
                "--t-min", "1", "--t-max", "10", "--t-step", "1",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["estimator"] == "magnitude-dim"

    def test_box_on_disconnected_network_exit2(self, tmp_path, capsys):
        path = tmp_path / "net.edges"
        path.write_text("0 1 1.0\n2 3 1.0\n")
        code, _, err = run_cli(["estimate", "box", "--input", str(path)], capsys)
        assert code == 2
        assert "connected" in err

    @pytest.mark.parametrize(
        "estimator, line, code, message",
        [
            ("box", "0 1000000000000 1", 2, "connected network required"),
            ("internal-scaling", "0 1000000000000 1", 2, "connected network required"),
            ("magnitude-dim", "0 1000000000000 1", 5, "error: "),
            ("box", "0 99999999999999999999 1", 2, "node ids must fit in int64"),
            ("internal-scaling", "0 99999999999999999999 1", 2, "node ids must fit in int64"),
            ("magnitude-dim", "0 99999999999999999999 1", 2, "node ids must fit in int64"),
        ],
        ids=["box-1e12", "internal-scaling-1e12", "magnitude-1e12",
             "box-1e20", "internal-scaling-1e20", "magnitude-1e20"],
    )
    def test_huge_node_ids_refused_in_one_line(
        self, tmp_path, capsys, estimator, line, code, message
    ):
        # 10^12 + 1 nodes: box and internal scaling refuse on the edge count, and
        # magnitude-dim's 8 TB source array fails to allocate; ids past int64 fail to parse
        path = tmp_path / "huge.edges"
        path.write_text(line + "\n")
        got, out, err = run_cli(["estimate", estimator, "--input", str(path)], capsys)
        assert got == code
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert message in err and err.strip() != "error:"

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
    def test_empty_input_names_itself(self, tmp_path, capsys, estimator, text):
        path = tmp_path / "in.edges"
        path.write_text(text)
        code, out, err = run_cli(["estimate", estimator, "--input", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {path}:0: empty input file\n"
        assert load_network(path).node_count == 0  # the library still reads no edges

    @pytest.mark.parametrize(
        "line, message",
        [
            ("2 1 0.5", "duplicate edge (1, 2)"),
            ("1_000 2 1", "node ids must be runs of the digits 0-9"),
            ("+3 4 1", "node ids must be runs of the digits 0-9"),
            ("0 -1 1", "node ids must be runs of the digits 0-9"),
            ("1" * 5000 + " 2 1", "node ids must fit in int64"),
        ],
        ids=["duplicate", "underscore", "plus", "minus", "5000-digits"],
    )
    def test_edge_refusal_names_its_line(self, tmp_path, capsys, line, message):
        path = tmp_path / "e.edges"
        path.write_text(f"0 1 1.0\n\n1 2 1.0\n{line}\n")
        code, out, err = run_cli(["estimate", "box", "--input", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {path}:4: {message}\n"

    @pytest.mark.parametrize("estimator", ["box", "internal-scaling"])
    def test_network_distance_overflow_exit2(self, tmp_path, capsys, estimator):
        path = tmp_path / "net.edges"
        path.write_text("0 1 1e308\n1 2 1e308\n")
        code, out, err = run_cli(["estimate", estimator, "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: shortest-path distances overflow float64\n"

    @pytest.mark.parametrize("estimator", ["box", "internal-scaling"])
    @pytest.mark.parametrize(
        "edges", ["0 1 1\n", "0 1 1\n1 2 1\n0 2 1\n"], ids=["edge", "triangle"]
    )
    def test_no_default_scale_range_exit2(self, tmp_path, capsys, estimator, edges):
        path = tmp_path / "net.edges"
        path.write_text(edges)
        code, out, err = run_cli(["estimate", estimator, "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            "error: network diameter equals its smallest edge weight; no scale range to fit\n"
        )

    @pytest.mark.parametrize(
        "estimator", ["box", "correlation", "ph-dim", "magnitude-dim", "alpha-magnitude-dim"]
    )
    def test_cloud_distance_overflow_exit2(self, tmp_path, capsys, estimator):
        path = tmp_path / "far.csv"
        path.write_text("0,0\n1e200,0\n0,1e200\n1e200,1e200\n-1e200,5e199\n")
        code, out, err = run_cli(["estimate", estimator, "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: pairwise distances overflow float64\n"

    def test_incompatible_pair_lists_valid_ones(self, tmp_path, capsys):
        path = tmp_path / "net.edges"
        path.write_text("0 1 1.0\n1 2 1.0\n")
        code, _, err = run_cli(["estimate", "ph-dim", "--input", str(path)], capsys)
        assert code == 2
        assert "valid pairs" in err

    def test_network_sniffing_and_internal_scaling(self, tmp_path, capsys):
        path = tmp_path / "line.edges"
        save_network(sierpinski_tree(SierpinskiTreeParams(3, 0.5, 4)), path)
        code, out, _ = run_cli(
            ["estimate", "internal-scaling", "--input", str(path), "--node", "0"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["params"]["node"] == 0

    def test_parse_error_exit2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n0.5,nan\n")
        code, _, err = run_cli(["estimate", "box", "--input", str(path)], capsys)
        assert code == 2
        assert "bad.csv:2" in err

    @pytest.mark.parametrize("text, message", [
        (b"0,0\n0,1_0\n", "invalid coordinate in '0,1_0'"),
        (b"0 1 1\n0 1 1_0\n", "invalid weight '1_0'"),
        (b"0,0\n0,1\xc3\xa9\n", "non-ASCII byte"),
    ])
    def test_number_and_byte_faults_name_line_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.input"
        path.write_bytes(text)
        code, out, err = run_cli(["estimate", "box", "--input", str(path)], capsys)
        assert (code, out, err) == (2, "", f"error: {path}:2: {message}\n")

    def test_undefined_dimension_exit3(self, tmp_path, capsys):
        # degree-1 sums of small uniform samples grow with beta near 1.44
        path = tmp_path / "uniform.csv"
        save_pointcloud(PointCloud(np.random.default_rng(0).random((60, 2))), path)
        code, _, err = run_cli(
            [
                "estimate", "ph-dim", "--input", str(path),
                "--degree", "1",
                "--n-min", "5", "--n-max", "40", "--n-step", "5", "--fit-tail", "6",
            ],
            capsys,
        )
        assert code == 3
        assert "beta=" in err

    @pytest.mark.parametrize("degree", ["0", "1"])
    def test_overflowing_power_sum_exit3(self, tmp_path, capsys, degree):
        path = tmp_path / "wide.csv"
        save_pointcloud(PointCloud(np.random.default_rng(1).random((300, 2)) * 1000.0), path)
        argv = ["estimate", "ph-dim", "--input", str(path), "--alpha", "200", "--n-max", "50"]
        code, out, err = run_cli([*argv, "--degree", degree], capsys)
        assert (code, out) == (3, "")
        assert err == "error: power-weighted sum overflows float64 at alpha=200; dimension undefined\n"

    def test_explicit_fit_tail_is_checked_as_given(self, tmp_path, capsys):
        path = tmp_path / "s5.csv"
        save_pointcloud(sierpinski_triangle(5), path)
        argv = ["estimate", "ph-dim", "--input", str(path), "--n-max", "50"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        assert json.loads(out)["params"]["fit_tail"] == 10  # the default, fitted to 10 sizes
        for tail in ("36", "11", "1"):
            code, out, err = run_cli([*argv, "--fit-tail", tail], capsys)
            assert (code, out) == (2, "")
            assert err == "error: fit_tail must lie in [2, len(n_schedule)]\n"

    def test_singular_similarity_exit4(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("0.0,0.0\n0.0,0.0\n")  # duplicate points: singular zeta
        code, _, err = run_cli(
            [
                "estimate", "magnitude-dim", "--input", str(path),
                "--t-min", "1", "--t-max", "5", "--t-step", "1",
            ],
            capsys,
        )
        assert code == 4
        assert "singular" in err

    def test_non_positive_magnitude_exit3(self, tmp_path, capsys):
        # K_{3,2}: zeta is indefinite at t = 0.1..0.3 and Mag(0.34 X) < 0
        path = tmp_path / "k32.edges"
        path.write_text("".join(f"{u} {v} 1\n" for u in range(3) for v in (3, 4)))
        argv = ["estimate", "magnitude-dim", "--input", str(path), "--t-min"]
        code, out, err = run_cli([*argv, "0.3", "--t-max", "0.38", "--t-step", "0.04"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: magnitude -0.777262 at t=0.34 is not positive\n"
        code, out, err = run_cli([*argv, "0.1", "--t-max", "0.3", "--t-step", "0.1"], capsys)
        assert code == 0, err
        assert json.loads(out)["estimator"] == "magnitude-dim"

    def test_failed_similarity_buffer_mapping_exit5(self, tmp_path, capsys, monkeypatch):
        def refusing_mmap(*args, **kwargs):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(mmap, "mmap", refusing_mmap)
        path = tmp_path / "sub.csv"
        save_pointcloud(subsample(sierpinski_triangle(5), 40, 1), path)
        code, out, err = run_cli(["estimate", "magnitude-dim", "--input", str(path)], capsys)
        assert (code, out) == (5, "")
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_resource_cap_exit5(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FRACDIM_MAX_SIMPLICES", "50")
        rng = np.random.default_rng(0)
        path = tmp_path / "c.csv"
        lines = "\n".join(f"{x},{y}" for x, y in rng.random((30, 2)))
        path.write_text(lines + "\n")
        code, _, err = run_cli(
            [
                "estimate", "ph-dim", "--input", str(path),
                "--degree", "1",
                "--n-min", "5", "--n-max", "25", "--n-step", "5", "--fit-tail", "4",
            ],
            capsys,
        )
        assert code == 5

    @pytest.mark.parametrize("cap", ["inf", "1e400", "-5", "abc"])
    def test_bad_simplex_cap_exit2(self, tmp_path, capsys, monkeypatch, cap):
        monkeypatch.setenv("FRACDIM_MAX_SIMPLICES", cap)
        path = tmp_path / "s.csv"
        save_pointcloud(sierpinski_triangle(2), path)
        code, out, err = run_cli(
            [
                "estimate", "ph-dim", "--input", str(path),
                "--degree", "1",
                "--n-min", "5", "--n-max", "9", "--n-step", "1", "--fit-tail", "3",
            ],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: FRACDIM_MAX_SIMPLICES must be")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "estimator, flags",
        [
            ("magnitude-dim", ["--t-max", "1e300", "--t-step", "1e-300"]),
            ("magnitude-dim", ["--t-max", "1e12"]),
            ("box", ["--eps-count", "1000000000"]),
            ("ph-dim", ["--n-max", "1000000000000"]),
            ("ph-dim", ["--n-max", str(10**30)]),
            ("ph-dim", ["--repeats", "1000000000"]),
        ],
        ids=["t-grid-infinite", "t-max", "eps-count", "n-max", "n-max-past-maxsize", "repeats"],
    )
    def test_flag_sized_sequence_over_cap_exit5(self, tmp_path, capsys, estimator, flags):
        # the count is checked before the sequence exists, so each case returns at once
        path = tmp_path / "s.csv"
        save_pointcloud(sierpinski_triangle(2), path)
        code, out, err = run_cli(["estimate", estimator, "--input", str(path), *flags], capsys)
        assert code == 5
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "more than 100000 entries" in err

    @pytest.mark.parametrize(
        "estimator, flags, message",
        [
            ("magnitude-dim", ["--t-step", "0"], "--t-step must be positive"),
            ("alpha-magnitude-dim", ["--t-step", "0"], "--t-step must be positive"),
            ("ph-dim", ["--n-step", "0"], "--n-step must be positive"),
            ("box", ["--eps-min", "0.01", "--eps-max", "0.5", "--eps-count", "0"],
             "--eps-count must be at least 2"),
            ("box", ["--input", "missing.csv"], "No such file"),
            ("box", ["--input", "."], "directory"),
            ("internal-scaling", ["--input", "n.edges", "--node", "abc"],
             "--node must be a node id or 'all'"),
            ("box", ["--input", "n.edges", "--eps-min", "nan", "--eps-max", "10"],
             "eps grid must be finite"),
            ("internal-scaling", ["--input", "n.edges", "--eps-min", "nan", "--eps-max", "10"],
             "eps grid must be finite"),
            ("magnitude-dim", ["--t-max", "inf"], "--t-min, --t-max and --t-step must be finite"),
            ("alpha-magnitude-dim", ["--t-max", "inf"],
             "--t-min, --t-max and --t-step must be finite"),
            ("magnitude-dim", ["--t-min", "nan"], "--t-min, --t-max and --t-step must be finite"),
            ("alpha-magnitude-dim", ["--t-step", "inf"],
             "--t-min, --t-max and --t-step must be finite"),
            ("box", ["--input", "n.edges", "--eps-min", "1e-320", "--eps-max", "10"],
             "log-log fit requires finite positive inputs"),
            ("box", ["--eps-min", "1e-20", "--eps-max", "10"], "overflow int64"),
            ("magnitude-dim", ONE_SAMPLE_WINDOW, "window (3, 4) invalid for 10 samples"),
            ("alpha-magnitude-dim", ONE_SAMPLE_WINDOW, "window (3, 4) invalid for 10 samples"),
            ("box", ["--eps-min", "0.01"], "--eps-min and --eps-max must be given together"),
            ("correlation", ["--eps-max", "0.5"],
             "--eps-min and --eps-max must be given together"),
            ("box", ["--eps-count", "30"], "--eps-count requires --eps-min and --eps-max"),
            ("internal-scaling", ["--input", "n.edges", "--eps-min", "1", "--eps-count", "30"],
             "--eps-min and --eps-max must be given together"),
            ("box", ["--eps-min", "0.5", "--eps-max", "0.01"],
             "--eps-min must lie below --eps-max"),
            ("correlation", ["--eps-min", "0.5", "--eps-max", "0.01"],
             "--eps-min must lie below --eps-max"),
            ("internal-scaling", ["--input", "n.edges", "--eps-min", "0.5", "--eps-max", "0.01"],
             "--eps-min must lie below --eps-max"),
            ("ph-dim", ["--alpha", "inf"], "alpha must be positive and finite"),
            ("box", ["--eps-min", "0", "--eps-max", "0.5"], "eps grid must be positive"),
            ("correlation", ["--eps-min", "-1", "--eps-max", "1"], "eps grid must be positive"),
        ],
        ids=["t-step-magnitude", "t-step-alpha", "n-step", "eps-count", "missing", "directory",
             "node", "eps-nan-box", "eps-nan-internal-scaling", "t-max-inf-magnitude",
             "t-max-inf-alpha", "t-min-nan", "t-step-inf", "eps-underflow-network-box",
             "eps-tiny-box", "one-sample-window-magnitude", "one-sample-window-alpha",
             "eps-min-alone", "eps-max-alone", "eps-count-alone", "eps-count-one-bound",
             "eps-reversed-box", "eps-reversed-correlation", "eps-reversed-internal-scaling",
             "alpha-inf", "eps-min-zero", "eps-min-negative"],
    )
    def test_bad_argument_or_input_exit2(
        self, tmp_path, capsys, monkeypatch, estimator, flags, message
    ):
        monkeypatch.chdir(tmp_path)
        save_pointcloud(sierpinski_triangle(4), tmp_path / "s.csv")
        save_network(sierpinski_tree(SierpinskiTreeParams(3, 0.5, 2)), tmp_path / "n.edges")
        code, out, err = run_cli(["estimate", estimator, "--input", "s.csv", *flags], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert message in err

    def test_ph_degree_past_smallest_subsample_exit2(self, tmp_path, capsys):
        path = tmp_path / "s3.csv"
        save_pointcloud(sierpinski_triangle(3), path)
        argv = ["estimate", "ph-dim", "--input", str(path), "--degree", "7", "--n-max", "20"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: degree 7 needs subsamples of at least 9 points; the smallest is 5\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["estimate", "magnitude-dim", "--input", "s.csv", "--threads", "2"],
             "unrecognized arguments: --threads"),
            (["estimate", "box", "--input", "s.csv", "--threads", "1"],
             "unrecognized arguments: --threads"),
            (["bench", "classic", "--threads", "2"], "unrecognized arguments: --threads"),
            (["estimate", "box", "--input", "s.csv", "--kind", "cloud"],
             "unrecognized arguments: --kind"),
            (["estimate", "alpha-magnitude-dim", "--input", "s.csv", "--max-degree", "1"],
             "unrecognized arguments: --max-degree"),
            (["bench", "classic", "--format", "csv"], "argument --format: invalid choice: 'csv'"),
            (["estimate", "box", "--input", "s.csv", "--format", "csv"],
             "unrecognized arguments: --format csv"),
            (["estimate", "--input", "s.csv", "box"],
             "argument estimator: invalid choice: 's.csv'"),
        ],
        ids=["magnitude", "box", "bench", "kind", "max-degree", "bench-csv", "estimate-csv",
             "input-before-estimator"],
    )
    def test_removed_flag_rejected_exit2(self, tmp_path, capsys, monkeypatch, argv, message):
        # the estimate runs one serial path on the sniffed kind, alpha barcodes
        # go to degree 1, bench writes text or JSON and estimate JSON only: none
        # of these flags exists; estimate options follow the estimator name
        monkeypatch.chdir(tmp_path)
        save_pointcloud(sierpinski_triangle(2), tmp_path / "s.csv")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "box", "--input", "x.csv", "--bogus", "1"])
        assert exc.value.code == 2


# each estimator's flags beside --input and --out, by family
FAMILY_FLAGS = {
    "eps": ["--eps-min", "--eps-max", "--eps-count"],
    "window": ["--fit-lo", "--fit-hi"],
    "t": ["--t-min", "--t-max", "--t-step"],
    "ph": ["--seed", "--degree", "--alpha", "--n-min", "--n-max", "--n-step", "--repeats", "--fit-tail"],
    "node": ["--node"],
}
OWN_FAMILIES = {
    "box": ("eps", "window"),
    "correlation": ("eps", "window"),
    "ph-dim": ("ph",),
    "magnitude-dim": ("t", "window"),
    "alpha-magnitude-dim": ("t", "window"),
    "internal-scaling": ("eps", "window", "node"),
}
# each generator kind's required flags and all of its flags beside --out
GENERATOR_FLAGS = {
    "sierpinski-triangle": (["--level", "2"], {"--level"}),
    "cantor": (["--level", "2"], {"--level"}),
    "sierpinski-tree": (["--levels", "2"], {"--levels", "--s", "--f"}),
    "line": (["--n", "5"], {"--n"}),
}
FOREIGN_FLAG_CASES = [
    pytest.param(["estimate", name, "--input", "s.csv", flag, "1"], flag, id=f"{name}{flag}")
    for name, own in OWN_FAMILIES.items()
    for family, flags in FAMILY_FLAGS.items() if family not in own
    for flag in flags
] + [
    pytest.param(["generate", kind, *required, flag, "1"], flag, id=f"{kind}{flag}")
    for kind, (required, own) in GENERATOR_FLAGS.items()
    for flag in sorted(set().union(*(flags for _, flags in GENERATOR_FLAGS.values())) - own)
] + [
    pytest.param(["estimate", "magnitude-dim", "--input", "s.csv", "--eps-min", "0.01",
                  "--n-max", "7"], "--eps-min", id="unread-flag-magnitude"),
    pytest.param(["estimate", "box", "--input", "s.csv", "--t-max", "5", "--degree", "3"],
                 "--t-max", id="unread-flag-box"),
]


@pytest.mark.parametrize("argv, flag", FOREIGN_FLAG_CASES)
def test_flag_outside_the_rows_families_exit2(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    save_pointcloud(sierpinski_triangle(2), tmp_path / "s.csv")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} " in captured.err
    assert "Traceback" not in captured.err


def test_parser_built_once_and_each_row_keeps_its_flags(tmp_path, capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.chdir(tmp_path)
    runs = [
        (["generate", "line", "--n", "30", "--out", "l.edges"], 0),
        (["generate", "sierpinski-triangle", "--level", "4", "--out", "s.csv"], 0),
        (["estimate", "internal-scaling", "--input", "l.edges", "--node", "3"], 0),
        (["estimate", "box", "--input", "s.csv", "--eps-min", "0.05", "--eps-max", "0.5"], 0),
        (["estimate", "magnitude-dim", "--input", "s.csv", "--t-max", "12"], 0),
        (["estimate", "box", "--input", "l.edges", "--node", "3"], "--node"),
        (["generate", "line", "--n", "5", "--levels", "2", "--out", "x.edges"], "--levels"),
        (["estimate", "internal-scaling", "--input", "l.edges", "--t-max", "5"], "--t-max"),
    ]
    for argv, expected in runs:
        if expected == 0:
            assert main(argv) == 0
            continue
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {expected} " in capsys.readouterr().err
    record = json.loads(run_cli(["estimate", "internal-scaling", "--input", "l.edges"],
                                capsys)[1])
    assert record["params"]["node"] == "all"


@pytest.mark.parametrize("name", list(OWN_FAMILIES))
def test_estimator_help_lists_exactly_its_families_flags(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", name, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    own = {flag for family in OWN_FAMILIES[name] for flag in FAMILY_FLAGS[family]}
    assert listed == {"--help", "--input", "--out", *own}


def test_flag_defaults_are_the_libraries():
    parser = cli._build_parser()
    ph = parser.parse_args(["estimate", "ph-dim", "--input", ""])
    assert cli._ph_config(ph) == PHDimensionConfig()
    t = parser.parse_args(["estimate", "magnitude-dim", "--input", ""])
    assert cli._t_grid(t) == estimators._t_grid_and_window(None, None)[0]
    assert cli._t_grid(t) == [float(k) for k in range(1, 301)]
    eps = parser.parse_args(["estimate", "box", "--input", "", "--eps-min", "1", "--eps-max", "2"])
    assert len(cli._eps_grid(eps, True)) == len(estimators._geometric_grid(2.0, 1.0)) == 12
    tree = parser.parse_args(["generate", "sierpinski-tree", "--levels", "0"])
    assert SierpinskiTreeParams(s=tree.s, f=tree.f) == SierpinskiTreeParams()


def test_readme_cli_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [
        line for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("fracdim ")
    ]
    assert len(commands) >= 8
    parser = cli._build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


def _rounded_t_grid(t_min, t_max, t_step):
    # the grid as built before entries past --t-max were dropped
    return [t_min + k * t_step for k in range(round((t_max - t_min) / t_step) + 1)]


@settings(max_examples=300, deadline=None)
@example(t_min=1.0, span=9.0, t_step=3.5)
@example(t_min=0.1, span=0.9, t_step=0.6)
@example(t_min=1.0, span=299.0, t_step=1.0)
@example(t_min=1.0, span=99.0, t_step=1.0)
@example(t_min=0.1, span=0.2, t_step=0.1)
@given(
    t_min=st.floats(0.01, 100.0),
    span=st.floats(0.0, 500.0),
    t_step=st.floats(0.01, 50.0),
)
def test_t_grid_stays_at_or_below_t_max(t_min, span, t_step):
    t_max = t_min + span
    grid = cli._t_grid(argparse.Namespace(t_min=t_min, t_max=t_max, t_step=t_step))
    assert grid[0] == t_min
    assert all(t <= t_max * (1 + 1e-9) for t in grid)
    assert t_min + len(grid) * t_step > t_max  # no entry at or below --t-max is left out
    rounded = _rounded_t_grid(t_min, t_max, t_step)
    if rounded[-1] <= t_max:
        assert grid == rounded


@st.composite
def clouds(draw):
    dim = draw(st.integers(1, 3))
    coords = st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=dim, max_size=dim)
    return PointCloud(np.array(draw(st.lists(coords, min_size=1, max_size=6))))


@st.composite
def networks(draw):
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6, unique=True))
    return WeightedNetwork(n, [(u, v, draw(st.floats(1e-3, 1e3))) for u, v in chosen])


@settings(max_examples=60, deadline=None)
@given(space=st.one_of(clouds(), networks()), data=st.data())
def test_sniffed_kind_is_the_written_kind_and_the_other_loader_refuses(space, data):
    cloud = isinstance(space, PointCloud)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        (save_pointcloud if cloud else save_network)(space, path)
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        with open(path, "w", encoding="ascii") as fh:  # blank lines, some lines tab-separated
            for line in lines:
                fh.write("\n" * data.draw(st.integers(0, 2)))
                fh.write((line.replace(" ", "\t") if data.draw(st.booleans()) else line) + "\n")
            fh.write("\n" * data.draw(st.integers(0, 2)))
        assert sniff_kind(path) == ("cloud" if cloud else "network")
        (load_pointcloud if cloud else load_network)(path)
        with pytest.raises(ParseError):
            (load_network if cloud else load_pointcloud)(path)


@settings(max_examples=100, deadline=None)
@given(space=st.one_of(clouds(), networks()), data=st.data())
def test_value_fault_is_reported_at_its_line(space, data):
    # a copy of one entry with a value fault goes in after it, among blank lines
    cloud = isinstance(space, PointCloud)
    entries = (dumps_pointcloud if cloud else dumps_network)(space).splitlines()
    k = data.draw(st.integers(0, len(entries) - 1))
    if cloud:
        row = entries[k].split(",")
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(
            st.sampled_from(["nan", "inf", "-inf"]))
        fault = ",".join(row)
    else:
        u, v, w = entries[k].split()
        fault = data.draw(st.sampled_from([
            f"{u} {u} {w}", f"{u} {v} 0", f"{u} {v} -1.5", f"{u} {v} nan", f"{u} {v} inf",
            f"{u} {v} {w}", f"{v} {u} 2.5",
        ]))
    entries.insert(k + 1, fault)
    text = ""
    for i, entry in enumerate(entries):
        text += data.draw(st.sampled_from(["", "\n", " \t\n\n"]))
        text += entry + "\n"
        if i == k + 1:
            fault_line = text.count("\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        with pytest.raises(ParseError) as err:
            (load_pointcloud if cloud else load_network)(path)
    assert err.value.line_no == fault_line


def test_magnitude_window_rule_is_the_libraries(tmp_path, capsys):
    # with no window, a t grid of 80 or more entries reads (40, 80) in both
    sample = subsample(sierpinski_triangle(6), 300, 1)
    path = tmp_path / "s.csv"
    save_pointcloud(sample, path)
    est = magnitude_dimension(euclidean_metric(sample), [float(t) for t in range(1, 101)])
    code, out, err = run_cli(
        ["estimate", "magnitude-dim", "--input", str(path), "--t-max", "100"], capsys
    )
    assert code == 0, err
    record = json.loads(out)
    assert record["window"] == est.params["window"] == [40, 80]
    assert record["value"] == est.value


# extra flags that keep each estimator fast and defined on the tiny fixtures
SMOKE_FLAGS = {
    "ph-dim": ["--n-min", "5", "--n-max", "80", "--n-step", "5", "--fit-tail", "10"],
    "magnitude-dim": ["--t-max", "100"],
    "alpha-magnitude-dim": ["--t-max", "100"],
}


@pytest.mark.parametrize(
    "estimator, kind",
    [(name, kind) for name, (kinds, *_) in ESTIMATORS.items() for kind in kinds],
)
def test_every_table_entry_runs_on_each_accepted_kind(tmp_path, capsys, estimator, kind):
    if kind == "cloud":
        path = tmp_path / "sierpinski-4.csv"
        save_pointcloud(sierpinski_triangle(4), path)
    else:
        path = tmp_path / "tree-3.edges"
        save_network(sierpinski_tree(SierpinskiTreeParams(3, 0.5, 3)), path)
    code, out, err = run_cli(
        ["estimate", estimator, "--input", str(path), *SMOKE_FLAGS.get(estimator, [])],
        capsys,
    )
    assert code == 0, err
    expected = "network-box" if (estimator, kind) == ("box", "network") else estimator
    assert json.loads(out)["estimator"] == expected


# CLI fuzz: every ESTIMATORS and _GENERATORS row with its own flags set to
# hostile values, on small hostile input files
# int flags draw the integers and one non-number; the rest draw everything
FUZZ_INTS = ["0", "-1", "1", "2", "3", "1" + "0" * 300, "x"]
FUZZ_VALUES = [*FUZZ_INTS, "-2.5", "1e-300", "1e300", "inf", "-inf", "nan", ""]
FUZZ_INPUTS = {
    "huge": "0,0\n1e300,0\n0,1e300\n3e299,7e299\n",
    "large": "0,0\n1e153,0\n0,1e153\n3e152,7e152\n5e152,5e152\n",
    "tiny": "0,0\n1e-300,0\n0,1e-300\n3e-301,7e-301\n5e-324,0\n",
    "lattice": "".join(f"{x},{y}\n" for x in range(5) for y in range(5)),
    "one-point": "0.5,0.5\n",
    "duplicates": "0,0\n0,0\n1,1\n1,1\n0,0\n",
    "1-d": "0\n0.25\n1\n3\n3.5\n7\n8\n",
    "3-d": "0,0,0\n1,0,0\n0,1,0\n0,0,1\n1,1,1\n0.5,0.2,0.9\n",
    "collinear": "0,0\n1,1\n2,2\n3,3\n5,5\n8,8\n",
    "cycle": "0 1 1\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n5 0 1\n",
    "tree": "".join(f"{k} {(k - 1) // 3} {0.5 ** (k // 4)}\n" for k in range(1, 13)),
    "two-nodes": "0 1 2.5\n",
    "disconnected": "0 1 1\n2 3 1\n3 4 2\n",
    "empty": "",
    "malformed-cloud": "0,0\n1,x\n",
    "malformed-network": "0 1 1\n1 2\n",
    "duplicate-edge": "0 1 1.0\n1 2 1.0\n2 1 0.5\n",
    "blank": "\n \t\n\n",
    "underscore-id": "0 1 1\n1 1_000 1\n",
    "underscore-number": "0,0\n0,1_0\n",
    "non-ascii": "0,0\n0,1\u00e9\n",
}
# the wide square is only read by a pinned example: a full default ph-dim schedule fits in it
ALL_FUZZ_INPUTS = {**FUZZ_INPUTS, "wide-square": "".join(
    f"{x!r},{y!r}\n" for x, y in (np.random.default_rng(1).random((300, 2)) * 1000).tolist()
)}


def _row_flags(families):
    """(flag, required, values) of each option in the named flag families."""
    family = cli._flag_families()
    return [
        (action.option_strings[0], action.required,
         FUZZ_INTS if action.type is int else FUZZ_VALUES)
        for name in families
        for action in family[name]._actions
    ]


FUZZ_ROWS = [("estimate", name, _row_flags(row[2])) for name, row in ESTIMATORS.items()] + [
    ("generate", kind, _row_flags(row[0])) for kind, row in cli._GENERATORS.items()
]


@st.composite
def fuzz_argv(draw):
    """argv of one row: required flags always, others maybe; --input and --out filled in later."""
    command, name, flags = draw(st.sampled_from(FUZZ_ROWS))
    argv = [command, name]
    for flag, required, values in flags:
        if required or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(argv=["estimate", "ph-dim", "--alpha", "200", "--n-max", "50"],
         input_name="wide-square", out="file")
@example(argv=["estimate", "alpha-magnitude-dim"], input_name="large", out=None)  # long Qhull report
@given(argv=fuzz_argv(), input_name=st.sampled_from(sorted(FUZZ_INPUTS)),
       out=st.sampled_from([None, "file", "directory"]))
def test_fuzzed_rows_exit_with_a_contract_code(tmp_path, argv, input_name, out):
    path = tmp_path / "input"
    path.write_text(ALL_FUZZ_INPUTS[input_name], encoding="utf-8")
    if argv[0] == "estimate":
        argv = [*argv, "--input", str(path)]
    if out is not None:
        argv = [*argv, "--out", str(tmp_path / "out" if out == "file" else tmp_path)]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            assert exc.code == 2
            return
    assert code in (0, 2, 3, 4, 5)
    if code != 0:
        assert stderr.getvalue().startswith("error: ") and stderr.getvalue().count("\n") == 1


class TestBench:
    def test_classic_suite_structure_and_determinism(self, tmp_path, capsys):
        records1 = run_bench("classic", seed=1)
        records2 = run_bench("classic", seed=1)

        def normalize(records):
            return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in records]

        assert normalize(records1) == normalize(records2)
        spaces = {r["space"] for r in records1}
        assert spaces == {
            "sierpinski-7", "cantor-10", "uniform-square", "uniform-interval",
            "sierpinski-tree-6", "line-2001",
        }
        assert all(r["wall_time_s"] > 0 for r in records1)
        assert len(records1) == 20
        assert "alpha-magnitude-dim" not in {r["estimator"] for r in records1}
        sierp_box = [
            r for r in records1
            if r["space"] == "sierpinski-7" and r["estimator"] == "box"
        ][0]
        assert sierp_box["reference"] == pytest.approx(1.5849625007211563)
        assert sierp_box["status"] == "ok"
        assert sierp_box["deviation"] == pytest.approx(
            sierp_box["value"] - sierp_box["reference"]
        )

    def test_cli_bench_text_and_json(self, tmp_path, capsys, monkeypatch):
        # formatting test only; a 2-cell stub keeps it fast
        from fracdim import cli

        def tiny_cells(seed):
            cloud = sierpinski_triangle(4)
            flat = PointCloud(np.zeros((5, 2)))  # records a per-cell error
            return [
                ("tiny", "box", 1.585, "box", cloud, {}),
                ("tiny", "box-error", None, "box", flat, {}),
            ]

        monkeypatch.setattr(cli, "_classic_cells", tiny_cells)
        out = tmp_path / "bench.json"
        code = main(["bench", "classic", "--seed", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "estimator" in captured.out  # aligned text header
        records = json.loads(out.read_text())
        assert isinstance(records, list) and len(records) == 2
        assert [r["status"] for r in records] == ["ok", "error"]
