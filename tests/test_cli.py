import json

import numpy as np
import pytest

from fracdim import (
    PointCloud,
    SierpinskiTreeParams,
    sierpinski_tree,
    sierpinski_triangle,
    subsample,
)
from fracdim.cli import ESTIMATORS, main, run_bench
from fracdim.io import load_network, load_pointcloud, save_network, save_pointcloud


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

    def test_missing_param_usage_error(self, capsys):
        code, _, err = run_cli(["generate", "cantor"], capsys)
        assert code == 2
        assert "requires --level" in err

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
        assert record["seed"] == 42
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

    @pytest.mark.parametrize("estimator", ["box", "internal-scaling"])
    def test_network_distance_overflow_exit2(self, tmp_path, capsys, estimator):
        path = tmp_path / "net.edges"
        path.write_text("0 1 1e308\n1 2 1e308\n")
        code, out, err = run_cli(["estimate", estimator, "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: shortest-path distances overflow float64\n"

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

    def test_csv_format(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        save_pointcloud(sierpinski_triangle(5), path)
        code, out, _ = run_cli(
            ["estimate", "box", "--input", str(path), "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("estimator,value,slope")
        assert lines[1].startswith("box,")

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
        ],
        ids=["t-step-magnitude", "t-step-alpha", "n-step", "eps-count", "missing", "directory",
             "node", "eps-nan-box", "eps-nan-internal-scaling", "t-max-inf-magnitude",
             "t-max-inf-alpha", "t-min-nan", "t-step-inf", "eps-underflow-network-box",
             "eps-tiny-box"],
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

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "box", "--input", "x.csv", "--bogus", "1"])
        assert exc.value.code == 2


# extra flags that keep each estimator fast and defined on the tiny fixtures
SMOKE_FLAGS = {
    "ph-dim": ["--n-min", "5", "--n-max", "80", "--n-step", "5", "--fit-tail", "10"],
    "magnitude-dim": ["--t-max", "100"],
    "alpha-magnitude-dim": ["--t-max", "100"],
}


@pytest.mark.parametrize(
    "estimator, kind",
    [(name, kind) for name, (kinds, _) in ESTIMATORS.items() for kind in kinds],
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
