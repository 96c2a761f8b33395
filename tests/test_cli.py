"""CLI surface: outputs, schemas, determinism, exit codes."""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from antlion import analysis, cli
from antlion.cli import EXIT_HORIZON, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestDist:
    def test_exact_uniform(self, tmp_path):
        code = main(
            [
                "dist",
                "--alpha", "9/10",
                "--p", "0.5",
                "--t", "5",
                "--mode", "exact",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "dist.csv")
        assert rows[0] == ["position_real", "scaled_value", "k_minus_steps", "probability"]
        assert len(rows) == 1 + 32
        assert all(r[3] == "0.03125" for r in rows[1:])
        cdf_rows = read_csv(tmp_path / "dist_cdf.csv")
        assert len(cdf_rows) == 1 + 32
        assert float(cdf_rows[-1][1]) == pytest.approx(1.0)
        manifest = json.loads((tmp_path / "dist_manifest.json").read_text())
        assert manifest["subcommand"] == "dist"
        assert manifest["parameters"]["alpha"] == "9/10"

    def test_horizon_zero(self, tmp_path):
        assert main(["dist", "--alpha", "1/2", "--t", "0", "--out", str(tmp_path)]) == EXIT_OK
        rows = read_csv(tmp_path / "dist.csv")
        assert len(rows) == 2
        assert rows[1][0] == "0.0" and rows[1][3] == "1.0"

    def test_mc_deterministic_files(self, tmp_path):
        argv = [
            "dist",
            "--alpha", "0.5",
            "--t", "60",
            "--mode", "mc",
            "--n", "5000",
            "--seed", "7",
        ]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a_dir)]) == EXIT_OK
        assert main(argv + ["--out", str(b_dir)]) == EXIT_OK
        assert (a_dir / "dist.csv").read_bytes() == (b_dir / "dist.csv").read_bytes()
        assert (a_dir / "dist_cdf.csv").read_bytes() == (b_dir / "dist_cdf.csv").read_bytes()

    def test_gnuplot_format(self, tmp_path):
        assert (
            main(
                ["dist", "--alpha", "1/2", "--t", "2", "--format", "gnuplot", "--out", str(tmp_path)]
            )
            == EXIT_OK
        )
        lines = (tmp_path / "dist.dat").read_text().splitlines()
        assert lines[0].startswith("# position_real")
        assert len(lines) == 1 + 4

    def test_json_format(self, tmp_path):
        assert (
            main(
                ["dist", "--alpha", "1/2", "--t", "2", "--format", "json", "--out", str(tmp_path)]
            )
            == EXIT_OK
        )
        records = json.loads((tmp_path / "dist.json").read_text())
        assert len(records) == 4
        assert records[0]["probability"] == 0.25

    def test_trajectory_export(self, tmp_path):
        code = main(
            [
                "dist",
                "--alpha", "0.5",
                "--t", "10",
                "--mode", "mc",
                "--n", "20",
                "--seed", "1",
                "--store", "paths",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "trajectories.csv")
        assert rows[0] == ["walker_id", "step", "position"]
        assert len(rows) == 1 + 20 * 11
        assert rows[1][:2] == ["0", "0"] and float(rows[1][2]) == 0.0


class TestJsonRecords:
    """The streaming JSON table writer writes ``json.dump(records, indent=2)``."""

    @pytest.mark.parametrize(
        "header, rows",
        [
            (["a", "b"], []),
            (["x"], [(1,)]),
            (
                ["f", "g", "h"],
                [
                    (math.nan, math.inf, -math.inf),
                    (-0.0, 0.0, 1e-310),
                    (True, False, None),
                    (10**30, -7, 0.1),
                ],
            ),
            (["s", "quote\"d"], [('tab\t "q" back\\ nl\n', "\u00e9\u2603\U0001f600"), ("", "\x00")]),
            ([], [(), ()]),
            (["short", "row"], [(1.5,), (2.5, 3.5, "extra")]),
        ],
    )
    def test_matches_json_dump(self, header, rows):
        fh = io.StringIO()
        cli._write_records(fh, header, iter(rows))
        assert fh.getvalue() == json.dumps([dict(zip(header, r)) for r in rows], indent=2)

    def test_numpy_floats(self):
        rows = list(zip(range(3), np.array([0.1, -0.0, np.nan])))
        fh = io.StringIO()
        cli._write_records(fh, ["i", "v"], rows)
        expected = json.dumps([{"i": i, "v": v} for i, v in rows], indent=2)
        assert fh.getvalue() == expected


class TestErrors:
    def test_bad_alpha(self, tmp_path, capsys):
        assert main(["dist", "--alpha", "3/2", "--t", "2", "--out", str(tmp_path)]) == EXIT_USAGE
        assert "alpha" in capsys.readouterr().err
        for argv in (["--alpha", "1/0"], ["--alpha", "1/2", "--p", "1/0"]):
            assert main(["dist", *argv, "--t", "2", "--out", str(tmp_path)]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert "zero denominator" in err and err.count("\n") == 1

    def test_exact_mode_needs_rational(self, tmp_path):
        assert main(["dist", "--alpha", "0.5", "--t", "2", "--mode", "exact", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_horizon_cap(self, tmp_path):
        assert main(["dist", "--alpha", "1/2", "--t", "30", "--out", str(tmp_path)]) == EXIT_HORIZON

    def test_resource_guard(self, tmp_path, capsys):
        for argv in (
            ["dist", "--alpha", "0.5", "--t", "1000000", "--mode", "mc", "--n", "1000000"],
            # A greedy witness of about 1.8e6 levels.
            ["reach", "--alpha", "0.99999", "--r", "0", "--epsilon", "0.001"],
        ):
            assert main([*argv, "--out", str(tmp_path)]) == EXIT_RESOURCE
            assert capsys.readouterr().err.count("\n") == 1


class TestCvm:
    def test_exact_sweep(self, tmp_path):
        code = main(
            [
                "cvm",
                "--targets", "arw,srw",
                "--alpha", "1/2,9/10",
                "--t", "1..3",
                "--mode", "exact",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "cvm.csv")
        assert rows[0] == ["target", "alpha", "t", "distance"]
        assert len(rows) == 1 + 3 * 3  # (2 arw + 1 srw) per horizon
        assert all(float(r[3]) >= 0 for r in rows[1:])

    def test_deterministic_mc_rows(self, tmp_path):
        argv = [
            "cvm",
            "--targets", "arw",
            "--alpha", "0.5",
            "--t", "20",
            "--mode", "mc",
            "--n", "2000",
            "--seed", "3",
        ]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a_dir)]) == EXIT_OK
        assert main(argv + ["--out", str(b_dir)]) == EXIT_OK
        assert (a_dir / "cvm.csv").read_text() == (b_dir / "cvm.csv").read_text()

    @pytest.mark.parametrize("grid", ["-inf,3,10", "-1e308,1e308,10"])
    def test_bad_grid(self, tmp_path, capsys, grid):
        argv = ["cvm", "--targets", "srw", "--t", "4", f"--grid={grid}", "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "finite" in err and err.count("\n") == 1
        assert not (tmp_path / "cvm.csv").exists()

    def test_grid_table(self, tmp_path):
        code = main(
            [
                "cvm",
                "--targets", "srw",
                "--t", "9",
                "--mode", "exact",
                "--grid=-3,3,60",
                "--grid-table",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "cvm_grid.csv")
        assert rows[0] == ["target", "alpha", "t", "u", "f_target", "f_normal", "sq_diff"]
        assert len(rows) == 1 + 60
        total = sum(float(r[6]) for r in rows[1:]) * (6.0 / 60)
        dist_row = read_csv(tmp_path / "cvm.csv")[1]
        assert total == pytest.approx(float(dist_row[3]), rel=1e-9)

    def test_grid_table_evaluates_each_grid_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return grid_table(*args)

        grid_table = analysis.cvm_grid_table
        monkeypatch.setattr(analysis, "cvm_grid_table", counted)
        monkeypatch.setattr(cli, "cvm_grid_table", counted)
        argv = ["cvm", "--targets", "arw,srw", "--alpha", "2/3", "--t", "4,7", "--mode", "exact"]
        assert main([*argv, "--grid=-3,3,60", "--grid-table", "--out", str(tmp_path)]) == EXIT_OK
        assert len(calls) == 4
        grid = read_csv(tmp_path / "cvm_grid.csv")[1:]
        for i, row in enumerate(read_csv(tmp_path / "cvm.csv")[1:]):
            sq_diffs = [float(r[6]) for r in grid[60 * i : 60 * (i + 1)]]
            assert float(row[3]) == 6.0 / 60 * math.fsum(sq_diffs)


class TestResidence:
    def test_exact_binomial(self, tmp_path):
        code = main(
            ["residence", "--alpha", "1/2", "--t", "10", "--mode", "exact", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "residence_summary.json").read_text())
        assert summary["tv_distance"] == 0.0
        assert summary["tv_distance_is_exact_zero"] is True
        assert summary["binomial_condition_holds"] is True
        rows = read_csv(tmp_path / "residence.csv")
        assert rows[0] == ["t_plus", "probability", "binomial_probability"]
        assert len(rows) == 1 + 11

    def test_degenerate_p(self, tmp_path):
        code = main(
            [
                "residence",
                "--alpha", "1/2",
                "--p", "1",
                "--t", "6",
                "--mode", "exact",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "residence.csv")
        assert float(rows[1][1]) == 1.0  # all mass at t_plus = 0
        assert all(float(r[1]) == 0.0 for r in rows[2:])

    def test_mc_mode(self, tmp_path):
        code = main(
            [
                "residence",
                "--alpha", "0.98",
                "--t", "50",
                "--mode", "mc",
                "--n", "2000",
                "--seed", "9",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "residence.csv")
        assert len(rows) == 1 + 51
        assert sum(float(r[1]) for r in rows[1:]) == pytest.approx(1.0, abs=1e-9)


class TestReach:
    def test_gap_target(self, tmp_path):
        r = repr(2 / 7)
        code = main(
            ["reach", "--alpha", "0.3", "--r", r, "--epsilon", r, "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "reach.csv")
        assert rows[0] == ["alpha", "r", "epsilon", "reachable", "witness_depth"]
        assert rows[1][3] == "0"

    @pytest.mark.parametrize(
        "alpha, r, epsilon, message",
        [
            ("0.3", "nan", "0.01", "finite"),
            ("0.7", "nan", "0.01", "finite"),
            ("0.7", "0.1", "5e-324", "underflows"),
        ],
    )
    def test_bad_query(self, tmp_path, capsys, alpha, r, epsilon, message):
        argv = ["reach", "--alpha", alpha, "--r", r, "--epsilon", epsilon]
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "reach.csv").exists()

    def test_outside_bounds(self, tmp_path):
        code = main(
            ["reach", "--alpha", "0.5", "--r", "10", "--epsilon", "0.5", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert read_csv(tmp_path / "reach.csv")[1][3] == "0"

    def test_sweep_all_reachable_at_half(self, tmp_path):
        code = main(
            [
                "reach",
                "--alpha", "0.5",
                "--sweep", "200",
                "--epsilon", repr(2.0**-12),
                "--seed", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "reach.csv")
        assert len(rows) == 1 + 200
        assert all(r[3] == "1" for r in rows[1:])


class TestBandit:
    def test_simple_rw_reduction_columns(self, tmp_path):
        code = main(
            [
                "bandit",
                "--alpha", "1.0",
                "--pa", "0.6",
                "--pb", "0.4",
                "--horizon", "500",
                "--seed", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "bandit_trace.csv")
        assert rows[0] == ["step", "s", "theta", "arm", "reward", "xi", "x"]
        xs = [float(r[6]) for r in rows[1:]]
        assert all(x == int(x) for x in xs)
        assert all(r[3] in ("A", "B") for r in rows[1:])

    def test_sweep_rows(self, tmp_path):
        code = main(
            [
                "bandit",
                "--pa", "0.8",
                "--pb", "0.2",
                "--horizon", "300",
                "--sweep-alphas", "0.5,0.9,1.0",
                "--seeds", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "bandit_sweep.csv")
        assert len(rows) == 1 + 3
        traj = json.loads((tmp_path / "bandit_sweep_trajectories.json").read_text())
        assert set(traj["trajectories"]) == {"0.5", "0.9", "1.0"}

    def test_uniform_signal_flag(self, tmp_path):
        code = main(
            [
                "bandit",
                "--pa", "0.5",
                "--pb", "0.5",
                "--horizon", "100",
                "--signal", "uniform:-5,5",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "bandit_trace.csv")
        assert all(float(r[1]) == int(float(r[1])) for r in rows[1:])

    @pytest.mark.parametrize(
        "step_sizes, message",
        [
            (["--delta", "inf"], "finite"),
            (["--delta", "1e308", "--omega", "1e308"], "overflow"),
            (["--k", "nan"], "finite"),
            (["--k", "inf"], "finite"),
        ],
    )
    def test_bad_step_sizes(self, tmp_path, capsys, step_sizes, message):
        argv = ["bandit", "--pa", "0.8", "--pb", "0.2", "--horizon", "100", *step_sizes]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "bandit_trace.csv").exists()


class TestMoments:
    def test_symmetric_means_zero(self, tmp_path):
        code = main(
            ["moments", "--alpha", "1/2", "--p", "0.5", "--t-max", "8", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "moments.csv")
        assert rows[0] == ["t", "mean", "variance", "exact_mean", "exact_variance"]
        assert all(float(r[1]) == 0.0 for r in rows[1:])
        assert all(float(r[1]) == float(r[3]) for r in rows[1:])

    def test_all_plus_mean(self, tmp_path):
        code = main(
            ["moments", "--alpha", "1/2", "--p", "0", "--t-max", "3", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "moments.csv")
        assert float(rows[3][1]) == 1.75

    def test_subdiffusion_column(self, tmp_path):
        code = main(
            ["moments", "--alpha", "0.9", "--p", "0.3", "--t-max", "12", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "moments.csv")
        assert rows[0] == ["t", "mean", "variance"]  # real alpha: no exact columns
        for r in rows[1:]:
            t, var = int(r[0]), float(r[2])
            assert var <= 4 * 0.3 * 0.7 * t + 1e-12
