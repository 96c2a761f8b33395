"""CLI surface: outputs, schemas, determinism, exit codes."""

import contextlib
import csv
import functools
import io
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from antlion import analysis, bandit, cli, core, exact, montecarlo
from antlion.analysis import (
    exact_standardized_cdf,
    normal_cdf,
    simple_rw_exact_cdf,
    standardize_arw,
    standardize_srw,
)
from antlion.bandit import Ar1Signal, BanditConfig, UniformSignal, run_bandit, sweep_alpha
from antlion.cli import EXIT_HORIZON, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main
from antlion.core import Alpha, WalkParams, closed_form_mean, closed_form_variance
from antlion.exact import DIST_HEADER, enumerate_distribution, exact_residence_distribution
from antlion.montecarlo import Ecdf, empirical_cdf, simulate, simulate_simple_rw
from antlion.reachability import ReachQuery, decide_lanes, is_eps_reachable
from antlion.tables import BLOCK_ROWS, SUFFIXES, Coded, Table, transpose, write_tables


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


def old_cell(value) -> str:
    """The former per-cell rule of the csv and gnuplot writers."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_rows(path, header, rows, fmt) -> None:
    """Row-at-a-time oracle of the table writer."""
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([old_cell(v) for v in row])
    elif fmt == "gnuplot":
        with open(path, "w") as fh:
            fh.write("# " + " ".join(header) + "\n")
            for row in rows:
                fh.write(" ".join(old_cell(v) for v in row) + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(json.dumps([dict(zip(header, row)) for row in rows], indent=2))


def cell_values(column) -> list:
    """The row values of a column, as the row oracle reads them: a numpy
    column as its Python scalars, a coded one as its labels."""
    if isinstance(column, Coded):
        labels = cell_values(column.labels)
        return [labels[code] for code in column.codes.tolist()]
    return column.tolist() if isinstance(column, np.ndarray) else list(column[0 : len(column)])


def assert_same_tables(tmp_path, tables, fmt):
    """``write_tables`` writes each ``(header, columns)`` table with the bytes
    of the row oracle, file by file."""
    items = [(tmp_path / f"columns{i}", Table(f"t{i}", h, c)) for i, (h, c) in enumerate(tables)]
    write_tables(items, fmt)
    for i, (path, table) in enumerate(items):
        rows = list(zip(*map(cell_values, table.columns)))
        write_rows(tmp_path / f"rows{i}", table.header, rows, fmt)
        assert path.read_bytes() == (tmp_path / f"rows{i}").read_bytes(), table.name


def assert_same_table(tmp_path, header, columns, fmt):
    """The one-table writer writes the bytes of the row oracle."""
    write_tables([(tmp_path / "columns", Table("t", header, columns))], fmt)
    write_rows(tmp_path / "rows", header, list(zip(*map(cell_values, columns))), fmt)
    assert (tmp_path / "columns").read_bytes() == (tmp_path / "rows").read_bytes()


FORMATS = ("csv", "gnuplot", "json")


class TestJsonRecords:
    """The json table writer writes ``json.dump(records, indent=2)``."""

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
        ],
    )
    def test_matches_json_dump(self, tmp_path, header, rows):
        columns = transpose(rows, len(header))
        write_tables([(tmp_path / "t.json", Table("t", header, columns))], "json")
        expected = json.dumps([dict(zip(header, r)) for r in rows], indent=2)
        assert (tmp_path / "t.json").read_text() == expected

    def test_numpy_floats(self, tmp_path):
        columns = (range(3), np.array([0.1, -0.0, np.nan]))
        write_tables([(tmp_path / "t.json", Table("t", ["i", "v"], columns))], "json")
        expected = json.dumps([{"i": i, "v": v} for i, v in zip(*columns)], indent=2)
        assert (tmp_path / "t.json").read_text() == expected

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_no_columns(self, tmp_path, fmt):
        # A table without columns has no rows, whatever its format.
        assert_same_table(tmp_path, [], [], fmt)
        if fmt == "json":
            assert (tmp_path / "columns").read_text() == "[]"


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e-5, 0.1]
)
_ints = st.integers() | st.sampled_from([2**63, -(2**63) - 1, 10**30])
_text = st.text() | st.sampled_from(["", ",", '"', 'a "b", c', "line\nbreak", "cr\r", " x ", "%s"])
_scalars = _floats | _ints | st.booleans() | _text | st.none()
# One column: its values, the cell strategy they came from, and whether it is a
# numpy array; a column cycles through its values up to the row count.
_column_values = st.one_of(
    st.tuples(st.lists(_floats, min_size=1, max_size=6), st.just("float")),
    st.tuples(st.lists(_ints, min_size=1, max_size=6), st.just("int")),
    st.tuples(st.lists(st.booleans(), min_size=1, max_size=6), st.just("bool")),
    st.tuples(st.lists(_text, min_size=1, max_size=6), st.just("str")),
    st.tuples(st.lists(_scalars, min_size=1, max_size=6), st.just("mixed")),
)
_NUMPY = {"float": np.float64, "int": np.int64, "bool": bool, "str": str}


def _draw_column(draw, n_rows: int):
    values, kind = draw(_column_values)
    column = [values[i % len(values)] for i in range(n_rows)]
    fits = kind in _NUMPY and (kind != "int" or all(-(2**63) <= v < 2**63 for v in values))
    if fits and draw(st.booleans()):
        column = np.array(column, dtype=_NUMPY[kind])
    return column


@st.composite
def column_tables(draw):
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.text(), min_size=width, max_size=width, unique=True))
    n_rows = draw(st.sampled_from([0, 1, 2, 7, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]))
    return header, [_draw_column(draw, n_rows) for _ in range(width)]


def _draw_coded(draw, n_rows: int) -> Coded:
    """A coded column with the labels of one column strategy: for floats,
    ``-0.0`` and ``0.0`` are distinct labels, with NaN, infinities, subnormals."""
    labels, kind = draw(_column_values)
    pattern = draw(st.lists(st.integers(0, len(labels) - 1), min_size=1, max_size=6))
    codes = [pattern[i % len(pattern)] for i in range(n_rows)]
    if kind == "float" and draw(st.booleans()):
        labels = np.array(labels)
    return Coded(np.array(codes, dtype=np.int8) if draw(st.booleans()) else codes, labels)


@st.composite
def shared_tables(draw):
    """One to three tables of possibly unequal lengths; a table may reuse a
    column object of an earlier table of its length."""
    tables, pools = [], {}  # pools: n_rows -> the columns drawn at that length
    for _ in range(draw(st.integers(1, 3))):
        n_rows = draw(st.sampled_from([0, 1, 7, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]))
        pool = pools.setdefault(n_rows, [])
        width = draw(st.integers(1, 3))
        columns = []
        for _ in range(width):
            if pool and draw(st.booleans()):
                columns.append(draw(st.sampled_from(pool)))
            else:
                draw_one = _draw_coded if draw(st.booleans()) else _draw_column
                columns.append(draw_one(draw, n_rows))
                pool.append(columns[-1])
        header = draw(st.lists(st.text(), min_size=width, max_size=width, unique=True))
        tables.append((header, columns))
    return tables


class TestColumnWriter:
    """Each format's columnar writer against a row-at-a-time oracle."""

    @pytest.mark.parametrize("fmt", FORMATS)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=column_tables())
    def test_matches_row_oracle(self, tmp_path, fmt, table):
        header, columns = table
        assert_same_table(tmp_path, header, columns, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tables=shared_tables())
    def test_shared_and_coded_columns_match_row_oracle(self, tmp_path, fmt, tables):
        assert_same_tables(tmp_path, tables, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_coded_edge_labels(self, tmp_path, fmt):
        labels = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308]
        codes = np.arange(3 * BLOCK_ROWS + 2) % len(labels)
        assert_same_table(tmp_path, ["x"], [Coded(codes, labels)], fmt)
        assert_same_table(tmp_path, ["a", "b"], [Coded([], labels), Coded([], [])], fmt)
        assert_same_table(tmp_path, ["s"], [Coded([1, 0, 1], ["a", ""])], fmt)
        if fmt == "csv":
            assert (tmp_path / "columns").read_bytes() == b's\r\n""\r\na\r\n""\r\n'

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("n_rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_block_edges(self, tmp_path, fmt, n_rows):
        values = np.arange(n_rows) / 7.0
        values[::5] = -values[::5]
        assert_same_table(tmp_path, ["i", "x"], (range(n_rows), values), fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_lone_empty_string(self, tmp_path, fmt):
        assert_same_table(tmp_path, ["s"], (["", "a", "", ","],), fmt)
        if fmt == "csv":
            assert (tmp_path / "columns").read_bytes() == b's\r\n""\r\na\r\n""\r\n","\r\n'

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_quoted_strings(self, tmp_path, fmt):
        cells = ["a,b", 'say "hi"', "cr\rhere", "nl\nhere", "tab\there", " pad ", "%s", ""]
        assert_same_table(tmp_path, ["s", "i"], (cells, range(len(cells))), fmt)
        assert_same_table(tmp_path, ["mixed"], ([*cells, 1.5, None, True],), fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_unequal_columns_raise(self, tmp_path, fmt):
        with pytest.raises(ValueError, match="unequal|lengths"):
            write_tables([(tmp_path / "t", Table("t", ["a", "b"], ([1.5], [2.5, 3.5])))], fmt)
        with pytest.raises(ValueError):
            write_tables([(tmp_path / "t", Table("t", ["a", "b"], ([1.5],)))], fmt)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            write_tables([(tmp_path / "t", Table("t", ["a"], ([1],)))], "xml")

    def test_peak_memory_is_one_block(self, tmp_path):
        # 2^18 records of about 39 bytes: the traced peak is a block's text and
        # cells, not the table's. (Tracing every allocation makes this slow.)
        column = np.random.default_rng(5).standard_normal(1 << 18)
        path = tmp_path / "big.json"
        tracemalloc.start()
        try:
            write_tables([(path, Table("big", ["x"], [column]))], "json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 9_000_000
        assert peak < size / 20

    def test_trajectories_read_the_walk_in_place(self, tmp_path, monkeypatch):
        # The trajectories table holds the walk's positions, 8 bytes a row,
        # and two zero-stride index views; index matrices would add 8 bytes a
        # row, as would a copy of the (transposed) position matrix. The traced
        # peak runs up to the write, which the test above bounds, so that
        # formatting is not traced cell by cell.
        n, t = 5000, 40
        peaks = []

        def write_untraced(items, fmt):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            write_tables(items, fmt)

        argv = ["dist", "--alpha", "0.9", "--mode", "mc", "--store", "paths", "--out", str(tmp_path)]
        assert main([*argv, "--t", "2", "--n", "3"]) == EXIT_OK  # lazy imports, untraced
        monkeypatch.setattr(cli, "write_tables", write_untraced)
        tracemalloc.start()
        try:
            assert main([*argv, "--t", str(t), "--n", str(n)]) == EXIT_OK
        finally:
            tracemalloc.stop()
        [peak] = peaks  # the one write, of dist, dist_cdf and trajectories
        assert peak < 14 * n * (t + 1)


class Counting:
    """A column that counts the slices read from it."""

    def __init__(self, values):
        self.values, self.reads = values, 0

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, rows: slice):
        self.reads += 1
        return self.values[rows]


class TestFormattedOnce:
    """``write_tables`` reads each column object once per block, and each
    coded column's labels once per write."""

    N_ROWS = 3 * BLOCK_ROWS + 5

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_shared_column_sliced_once_per_block(self, tmp_path, fmt):
        xs = Counting(np.arange(self.N_ROWS) / 7.0)
        tables = [
            (["x", "i"], [xs, range(self.N_ROWS)]),
            (["x", "y"], [xs, np.ones(self.N_ROWS)]),
            (["z"], [range(5)]),
        ]
        assert_same_tables(tmp_path, tables, fmt)
        # The oracle reads xs once per table; the writer once per block.
        assert xs.reads - 2 == -(-self.N_ROWS // BLOCK_ROWS)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_labels_formatted_once_per_write(self, tmp_path, fmt):
        labels = Counting([0.5, -0.0, 0.0])
        codes = np.arange(self.N_ROWS) % 3
        first, second = Coded(codes, labels), Coded(codes[::-1], labels)
        items = [(tmp_path / "a", Table("a", ["p", "q"], [first, second])),
                 (tmp_path / "b", Table("b", ["p"], [first]))]
        write_tables(items, fmt)
        assert labels.reads == 1  # once, whatever the rows and coded columns
        cells = (tmp_path / "b").read_text().split()
        assert {"-0.0", "0.0"} <= {cell.strip(",") for cell in cells}

    @pytest.mark.parametrize("codes", [[0, -1], [2], np.array([0, 1, 2], dtype=np.int8)])
    def test_codes_out_of_range_raise(self, codes):
        with pytest.raises(ValueError, match="range"):
            Coded(codes, [1.5, 2.5])

    def test_shared_column_memory_is_one_block(self, tmp_path):
        # Two 2^16-row tables share a float column: the traced peak is a
        # block's cells and text per table (about 0.27 MB), where keeping the
        # shared column's 2^16 strings between the writes would take 4 MB.
        xs = np.random.default_rng(3).standard_normal(1 << 16)
        items = [(tmp_path / "a.csv", Table("a", ["x"], [xs])),
                 (tmp_path / "b.csv", Table("b", ["x", "y"], [xs, xs[::-1]]))]
        tracemalloc.start()
        try:
            write_tables(items, "csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        column_text = (tmp_path / "a.csv").stat().st_size
        assert column_text > 1_200_000
        assert peak < column_text / 2


class TestParser:
    """``main`` reuses one parser per process; after any number of parses it
    must exit, print and parse as a freshly built parser does."""

    @pytest.mark.parametrize(
        "argv",
        [
            *([name, "-h"] for name in cli.COMMANDS),
            ["-h"],
            ["-h", "dist"],
            ["--version"],
            [],
            ["bogus"],
            ["--out", "dist", "cvm"],
            ["dist", "--alpha", "1/2", "--t", "3", "--bogus"],
            ["dist", "--alpha", "1/2", "--version"],
            ["cvm", "--alpha", "1/2"],
            ["residence", "--alpha", "1/2", "--t", "3", "--mode", "both"],
        ],
        ids=" ".join,
    )
    @pytest.mark.parametrize("columns", ["60", "120"])
    def test_exits_as_a_fresh_parser(self, tmp_path, capsys, monkeypatch, argv, columns):
        assert main(["moments", "--alpha", "1/2", "--t-max", "2", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        monkeypatch.setenv("COLUMNS", columns)
        outcomes = []
        for parse in (main, cli.build_parser.__wrapped__().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            outcomes.append((exc.value.code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] or outcomes[0][2]

    def test_one_full_parser(self):
        assert cli.build_parser() is cli.build_parser()
        (sub,) = [a for a in cli.build_parser()._actions if a.dest == "subcommand"]
        assert list(sub.choices) == list(cli.COMMANDS) == [
            "dist", "cvm", "residence", "reach", "bandit", "moments"
        ]


class TestErrors:
    def test_sweep_guards(self, tmp_path, capsys):
        # About 3e5 greedy levels for each of 1000 targets: 3e8 witness
        # increments, over the budget, so exit 4 before any is stored.
        argv = ["reach", "--alpha", "0.9999", "--sweep", "1000", "--epsilon", "1e-9"]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert "witnesses of 1000 targets" in err and err.count("\n") == 1
        for argv, message in (
            (["--alpha", "0.5", "--sweep", "-1"], "--sweep"),
            (["--alpha", "1", "--sweep", "5"], "0 < alpha < 1"),
        ):
            code = main(["reach", *argv, "--epsilon", "0.01", "--out", str(tmp_path)])
            assert code == EXIT_USAGE
            err = capsys.readouterr().err
            assert message in err and err.count("\n") == 1
        assert not (tmp_path / "reach.csv").exists()

    _DENSE_DRIFT = pytest.mark.xfail(
        strict=True,
        raises=RuntimeError,
        reason="the float replay of a dense greedy witness drifts past an epsilon a few ulps wide",
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ["--alpha", "0.49", "--r", "-0.23310180992733298", "--epsilon", "1e-16"],
            pytest.param(
                ["--alpha", "0.9", "--r", "-9.718659286687048", "--epsilon", "1e-15"],
                marks=_DENSE_DRIFT,
            ),
            pytest.param(
                ["--alpha", "0.5", "--sweep", "300", "--epsilon", "1e-16", "--seed", "0"],
                marks=_DENSE_DRIFT,
            ),
        ],
    )
    def test_reach_decides_near_an_ulp(self, tmp_path, argv):
        # Valid queries: each must end in a decision, not a traceback.
        assert main(["reach", *argv, "--out", str(tmp_path)]) == EXIT_OK

    # An endpoint exactly epsilon away is a float hit whose replay lands
    # exactly at epsilon, not strictly within it; no deeper prefix replays
    # within it either, so the lane is certified at radius epsilon. Here the
    # only nearby endpoint is (1, -1, 1, -1).
    def test_reach_decides_at_an_exact_tie(self, tmp_path):
        argv = ["reach", "--alpha", "0.375", "--r", "0.716796875", "--epsilon", "0.00390625"]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "reach.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["reachable"], row["witness_depth"]) == ("0", "0")

    @pytest.mark.parametrize(
        "alpha, targets",
        [
            (0.375, [1.37109375, 0.62890625, 0.716796875]),
            (0.3125, [1.31640625, 0.69140625]),
            (0.46875, [1.47265625, 0.53515625]),
        ],
    )
    def test_lanes_decide_at_exact_ties(self, alpha, targets):
        # Each target lies exactly 2^-8 from an endpoint of two or four steps.
        lanes = decide_lanes(alpha, targets, 2.0**-8)
        assert not lanes.reachable.any()
        assert (lanes.certificate == np.add.outer(targets, (-(2.0**-8), 2.0**-8))).all()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["reach", "--alpha", "0.5", "--epsilon", "0.01"], "reach needs --r or --sweep"),
            (
                ["bandit", "--pa", "0.8", "--pb", "0.2", "--horizon", "10",
                 "--sweep-alphas", "0.5", "--seeds", "0"],
                "n_seeds must be at least 1",
            ),
        ],
    )
    def test_missing_work_is_a_usage_error(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_bad_alpha(self, tmp_path, capsys):
        assert main(["dist", "--alpha", "3/2", "--t", "2", "--out", str(tmp_path)]) == EXIT_USAGE
        assert "alpha" in capsys.readouterr().err
        for argv in (["--alpha", "1/0"], ["--alpha", "1/2", "--p", "1/0"]):
            assert main(["dist", *argv, "--t", "2", "--out", str(tmp_path)]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert "zero denominator" in err and err.count("\n") == 1

    def test_bad_p(self, tmp_path, capsys):
        for cmd in (["dist", "--t", "2"], ["residence", "--t", "2"], ["moments", "--t-max", "2"]):
            for p in ("1.5", "-1/3", "nan"):
                argv = [*cmd, "--alpha", "1/2", f"--p={p}", "--out", str(tmp_path)]
                assert main(argv) == EXIT_USAGE
                err = capsys.readouterr().err
                assert "p must lie in [0, 1]" in err and err.count("\n") == 1

    def test_exact_mode_needs_rational(self, tmp_path):
        assert main(["dist", "--alpha", "0.5", "--t", "2", "--mode", "exact", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_horizon_cap(self, tmp_path):
        assert main(["dist", "--alpha", "1/2", "--t", "30", "--out", str(tmp_path)]) == EXIT_HORIZON

    def test_exact_cvm_checks_cap_first(self, tmp_path, capsys, monkeypatch):
        # The largest horizon is checked before the first law is built.
        def refuse(params):
            raise AssertionError(f"a law was built at t={params.t}")

        monkeypatch.setattr(cli, "enumerate_distribution", refuse)
        argv = ["cvm", "--targets", "arw,srw", "--alpha", "9/10", "--t", "1..23,25"]
        assert main([*argv, "--mode", "exact", "--out", str(tmp_path)]) == EXIT_HORIZON
        err = capsys.readouterr().err
        assert "t=25" in err and err.count("\n") == 1
        assert not (tmp_path / "cvm.csv").exists()

    def test_resource_guard(self, tmp_path, capsys):
        for argv in (
            ["dist", "--alpha", "0.5", "--t", "1000000", "--mode", "mc", "--n", "1000000"],
            # A greedy witness of about 1.8e6 levels.
            ["reach", "--alpha", "0.99999", "--r", "0", "--epsilon", "0.001"],
            ["reach", "--alpha", "0.5", "--sweep", "1000000000000", "--epsilon", "0.01"],
            ["bandit", "--pa", "0.8", "--pb", "0.2", "--horizon", "100000000000"],
            [
                "bandit", "--pa", "0.8", "--pb", "0.2", "--horizon", "100",
                "--sweep-alphas", "0.5", "--seeds", "100000000000",
            ],
            [
                "cvm", "--alpha", "0.5", "--t", "5", "--mode", "mc", "--n", "100",
                "--grid=-3,3,100000000000",
            ],
            ["cvm", "--targets", "srw", "--t", "1..1000000000000", "--mode", "exact"],
            ["moments", "--alpha", "0.5", "--t-max", "1000000000000"],
        ):
            assert main([*argv, "--out", str(tmp_path)]) == EXIT_RESOURCE
            assert capsys.readouterr().err.count("\n") == 1


# A valid argv of each command, so that a share of the drawn cases runs.
_BASELINE = {
    "dist": ["--alpha=1/2", "--t=4", "--n=50"],
    "cvm": ["--targets=arw", "--alpha=1/2", "--t=3", "--n=50", "--grid=-3,3,20"],
    "residence": ["--alpha=1/2", "--t=4", "--n=50"],
    "reach": ["--alpha=0.5", "--r=0.1", "--epsilon=0.01"],
    "bandit": ["--pa=0.8", "--pb=0.2", "--horizon=20"],
    "moments": ["--alpha=1/2", "--t-max=3"],
}
_EXTREMES = {
    int: ["0", "-1", str(10**20)],
    float: ["nan", "inf", "-inf", "-0.0", "1e-320", "1e300"],
    str: ["m/0", "0/1", "", ",", "1/2,", "5..2", f"1..{10**20}", "uniform:5,5", "ar1:2", "-0.0",
          "1e-320"],
}
# ROADMAP item 2: where epsilon is a few ulps wide, a float replay cannot
# confirm a true dense witness (reach --alpha 0.5 --r 0.1 --epsilon 1e-320
# raises RuntimeError), so reach's epsilon stays off the ulp scale here.
_EPSILONS = ["nan", "inf", "-inf", "-0.0", "0.5", "1e300"]


@st.composite
def cli_argvs(draw) -> list:
    """A command's valid baseline with up to three of its flags, taken from
    ``cli.COMMANDS``, set to extreme values of the flag's type or choices."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, _, shared, own = cli.COMMANDS[name]
    specs = {**{flag: cli._SHARED[flag] for flag in shared if flag != "--out"}, **own}
    argv = [name, *_BASELINE[name]]
    for flag in draw(st.lists(st.sampled_from(sorted(specs)), max_size=3, unique=True)):
        spec = specs[flag]
        if spec.get("action") == "store_true":
            argv.append(flag)
            continue
        if "choices" in spec:
            values = [*spec["choices"], "bogus"]
        else:
            values = _EPSILONS if flag == "--epsilon" else _EXTREMES[spec.get("type", str)]
        argv.append(f"{flag}={draw(st.sampled_from(values))}")
    return argv


@pytest.mark.soundness
def test_every_flag_ends_in_a_documented_exit(tmp_path):
    # Exit 0, or 2-5 with one "antlion:" line; argparse exits 2 only. The
    # budgets are patched down so that no case holds more than a few MB.
    codes = []

    @settings(max_examples=1000, deadline=None)
    @given(argv=cli_argvs())
    def case(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main([*argv, "--out", str(tmp_path)])
            except SystemExit as exc:  # argparse
                assert exc.code == EXIT_USAGE, argv
                codes.append(exc.code)
                return
        codes.append(code)
        assert code == EXIT_OK or 2 <= code <= 5, argv
        if code != EXIT_OK:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("antlion: "), (argv, lines)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "DEFAULT_ELEMENT_LIMIT", 2 * 10**5)
        patch.setattr(exact, "DEFAULT_HORIZON_CAP", 10)
        case()
    assert codes.count(EXIT_OK) >= len(codes) / 10, codes


def per_law_cdfs(cases, t, args):
    """The per-law cvm loop: one walk per case, standardized out of place."""
    for target, alpha in cases:
        if target == "arw":
            batch = simulate(WalkParams(alpha=alpha, p=0.5, t=t), n_walkers=args.n, seed=args.seed)
            yield target, alpha, Ecdf(standardize_arw(batch.finals, alpha.as_float, t))
        else:
            batch = simulate_simple_rw(t, n_walkers=args.n, seed=args.seed)
            yield target, alpha, Ecdf(standardize_srw(batch.finals, t))


def assert_cvm_matches_per_law(argv, out: Path, monkeypatch):
    """``argv`` writes the per-law loop's bytes; returns its exit code."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_cvm_cdfs", per_law_cdfs)
        code = main([*argv, "--out", str(out / "per_law")])
    assert main([*argv, "--out", str(out / "shared")]) == code
    names = sorted(p.name for p in (out / "per_law").iterdir() if "manifest" not in p.name)
    for name in names:
        assert (out / "shared" / name).read_bytes() == (out / "per_law" / name).read_bytes()
    return code, names


def record_shared_walks(monkeypatch) -> list:
    """Patch ``cli.simulate_finals`` to record the shape of each block."""
    shapes, shared_walk = [], cli.simulate_finals

    def recorded(*args):
        block = shared_walk(*args)
        shapes.append(block.shape)
        return block

    monkeypatch.setattr(cli, "simulate_finals", recorded)
    return shapes


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

    @pytest.mark.parametrize("fmt", ["csv", "json", "gnuplot"])
    def test_mc_per_law_bytes(self, tmp_path, monkeypatch, fmt):
        argv = ["cvm", "--targets", "srw,arw", "--alpha", "0.9,1/3", "--t", "15,60"]
        argv += ["--mode", "mc", "--n", "7000", "--grid-table", "--format", fmt]
        code, names = assert_cvm_matches_per_law(argv, tmp_path, monkeypatch)
        assert code == EXIT_OK
        assert names == sorted(f"{name}{SUFFIXES[fmt]}" for name in ("cvm", "cvm_grid"))

    def test_mc_per_law_bytes_under_element_limit(self, tmp_path, monkeypatch):
        # The limit admits one walk of n walkers over t + 1 positions, as
        # each per-law walk needs; eight laws then walk in groups of t + 1.
        n, t = 1000, 3
        argv = ["cvm", "--targets", "arw,srw", "--alpha", "0.1,0.2,0.3,0.4,0.5,0.6,0.7"]
        argv += ["--t", str(t), "--mode", "mc", "--n", str(n)]
        shapes = record_shared_walks(monkeypatch)
        monkeypatch.setattr(core, "DEFAULT_ELEMENT_LIMIT", n * (t + 1))
        assert assert_cvm_matches_per_law(argv, tmp_path / "a", monkeypatch)[0] == EXIT_OK
        assert shapes == [(4, n), (4, n)]
        monkeypatch.setattr(core, "DEFAULT_ELEMENT_LIMIT", n * (t + 1) - 1)
        assert assert_cvm_matches_per_law(argv, tmp_path / "b", monkeypatch)[0] == EXIT_RESOURCE

    @pytest.mark.parametrize("bound, sizes", [(2 * 1000 + 1, [2, 2, 1]), (999, [1] * 5)])
    def test_mc_per_law_bytes_under_group_bound(self, tmp_path, monkeypatch, bound, sizes):
        argv = ["cvm", "--targets", "arw,srw", "--alpha", "0.1,0.5,0.9,0.99"]
        argv += ["--t", "20", "--mode", "mc", "--n", "1000"]
        shapes = record_shared_walks(monkeypatch)
        monkeypatch.setattr(cli, "_MC_GROUP_VALUES", bound)
        assert assert_cvm_matches_per_law(argv, tmp_path, monkeypatch)[0] == EXIT_OK
        assert shapes == [(k, 1000) for k in sizes]

    def test_mc_draws_each_stream_once_per_horizon(self, tmp_path, monkeypatch):
        drawn = []
        stream = montecarlo.philox_stream

        def counted(seed, *spawn_key):
            drawn.append(spawn_key)
            return stream(seed, *spawn_key)

        monkeypatch.setattr(montecarlo, "philox_stream", counted)
        argv = ["cvm", "--targets", "arw,srw", "--alpha", "0.1,0.5,0.9", "--t", "20"]
        argv += ["--mode", "mc", "--n", "9000", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert len(drawn) == 3  # three chunks, one horizon: not once per law

    def test_mc_cvm_holds_no_copy_of_the_finals(self, tmp_path, monkeypatch):
        # After the walk, one law's CvM holds its finals, standardized and
        # sorted in place as the Ecdf's sample, and the Ecdf's cum: 16 bytes a
        # walker. A standardized temporary or a sorted copy adds 8 bytes a
        # walker each. The walk's own peak is test_tile_memory's.
        n, walks = 100_000, []
        shared_walk = cli.simulate_finals

        def walk(*args):
            block = shared_walk(*args)
            walks.append(block.shape)
            tracemalloc.reset_peak()
            return block

        argv = ["cvm", "--targets", "arw", "--alpha", "0.9", "--t", "50", "--mode", "mc"]
        argv += ["--out", str(tmp_path)]
        assert main([*argv, "--n", "10"]) == EXIT_OK  # lazy imports, untraced
        monkeypatch.setattr(cli, "simulate_finals", walk)
        tracemalloc.start()
        try:
            assert main([*argv, "--n", str(n)]) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert walks == [(1, n)]
        assert peak < 20 * n

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


    def test_exact_cvm_builds_nothing_over_all_paths(self, tmp_path, monkeypatch):
        # The counted CDF writes the bytes of the CDF of the ordered support,
        # with no positions, ordering or k over the 2^t paths.
        argv = ["cvm", "--targets", "arw", "--alpha", "9/10", "--t", "12", "--mode", "exact"]
        argv.append("--grid-table")

        def ordered_cdf(alpha, t):
            return exact_standardized_cdf(enumerate_distribution(WalkParams(alpha=alpha, p=0.5, t=t)))

        with monkeypatch.context() as patch:
            patch.setattr(cli, "_ExactGridCdf", ordered_cdf)
            assert main([*argv, "--out", str(tmp_path / "ordered")]) == EXIT_OK

        def refuse(*args):
            raise AssertionError("an array over all paths was built")

        for name in ("_positions", "_exact_order"):
            monkeypatch.setattr(exact, name, refuse)
        monkeypatch.setattr(exact.PathLattice, "ordered", property(refuse))
        assert main([*argv, "--out", str(tmp_path / "counted")]) == EXIT_OK
        for name in ("cvm.csv", "cvm_grid.csv"):
            ordered = (tmp_path / "ordered" / name).read_bytes()
            assert (tmp_path / "counted" / name).read_bytes() == ordered


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

    def test_float_tie_decides(self, tmp_path, capsys):
        # A float hit that replays exactly epsilon away peels on to a witness.
        argv = ["reach", "--alpha", "0.1", "--r", "-0.64", "--epsilon", "0.25"]
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert read_csv(tmp_path / "reach.csv")[1][3:] == ["1", "4"]

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

    def test_sweep_alphas_take_fractions(self, tmp_path):
        argv = ["bandit", "--pa", "0.8", "--pb", "0.2", "--horizon", "300", "--seeds", "2"]
        tables = []
        for i, alphas in enumerate(("1/2,9/10", "0.5,0.9")):
            out = tmp_path / str(i)
            assert main([*argv, "--sweep-alphas", alphas, "--out", str(out)]) == EXIT_OK
            tables.append((out / "bandit_sweep.csv").read_bytes())
        assert tables[0] == tables[1]

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
        "text, signal",
        [
            ("uniform", UniformSignal()),
            ("uniform:", UniformSignal()),
            ("uniform:-3", UniformSignal(-3, 5)),
            ("uniform:,3", UniformSignal(-5, 3)),
            ("uniform:-3,3", UniformSignal(-3, 3)),
            ("ar1", Ar1Signal()),
            ("ar1:-0.5", Ar1Signal(-0.5)),
        ],
    )
    def test_signal_spellings(self, text, signal):
        assert cli._parse_signal(text) == signal

    def test_bad_signal_bound_is_a_usage_error(self, tmp_path, capsys):
        argv = ["bandit", "--pa", "0.5", "--pb", "0.5", "--horizon", "10", "--signal", "uniform:a"]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'a'" in err and err.count("\n") == 1

    @pytest.mark.parametrize("window", [5, 1000])
    def test_summary_reads_the_last_window(self, tmp_path, monkeypatch, window):
        monkeypatch.setattr(bandit, "LAST_WINDOW", window)
        argv = ["bandit", "--pa", "0.7", "--pb", "0.4", "--horizon", "50", "--seed", "2"]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "bandit_summary.json").read_text())
        trace = run_bandit(BanditConfig(p_a=0.7, p_b=0.4, horizon=50), 2)
        assert summary["last_1000_correct_rate"] == trace.correct[-window:].mean()

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

    @pytest.mark.parametrize("t_max", ["0", "-3"])
    def test_t_max_below_one(self, tmp_path, capsys, t_max):
        argv = ["moments", "--alpha", "1/2", "--t-max", t_max, "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--t-max" in err and err.count("\n") == 1
        assert not (tmp_path / "moments.csv").exists()

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


# Row oracles of the table-writing commands: the rows each command wrote one
# at a time before tables became columns, built from the library directly.


def _dist_exact_rows():
    dist = enumerate_distribution(WalkParams(alpha=Alpha.parse("9/10"), p=Fraction(1, 3), t=6))
    den = dist.scale_denominator
    lattice = dist.entries
    rows = [
        (s / den, s, path.bit_count(), float(dist.point_probability(s)))
        for s, path in zip(lattice, lattice.ordered[0].tolist())
    ]
    cdf = dist.cdf
    return {
        "dist": (DIST_HEADER, rows),
        "dist_cdf": (["position", "cdf"], list(zip(cdf.xs, cdf.cum))),
    }


def _dist_mc_rows():
    params = WalkParams(alpha=Alpha.parse("0.7"), p=0.5, t=5)
    batch = simulate(params, n_walkers=7, seed=3, mode="paths")
    cdf = empirical_cdf(batch)
    walks = [(w, s, x) for w, path in enumerate(batch.positions) for s, x in enumerate(path)]
    return {
        "dist": (["walker_id", "position"], list(enumerate(batch.finals))),
        "dist_cdf": (["position", "cdf"], list(zip(cdf.xs, cdf.cum))),
        "trajectories": (["walker_id", "step", "position"], walks),
    }


def _bandit_config(**kwargs):
    return BanditConfig(p_a=0.7, p_b=0.4, horizon=50, **kwargs)


def _bandit_trace_rows():
    trace = run_bandit(_bandit_config(alpha=0.9, signal=UniformSignal(-3, 3)), 2)
    arms = ("A" if a else "B" for a in trace.arm_a)
    columns = (trace.signal, trace.theta, arms, map(int, trace.reward), trace.xi, trace.x)
    header = ["step", "s", "theta", "arm", "reward", "xi", "x"]
    return {"bandit_trace": (header, list(zip(itertools.count(), *columns)))}


def _bandit_sweep_rows():
    sweep = sweep_alpha(_bandit_config(), [0.5, 1.0], 2, seed_base=4)
    rows = [(row.alpha, row.final_rate, row.last_window_rate) for row in sweep]
    return {"bandit_sweep": (["alpha", "final_correct_rate", "last_window_correct_rate"], rows)}


def _reach_rows():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=1)))
    rows = []
    for r in rng.uniform(-2.0, 2.0, size=40):
        result = is_eps_reachable(ReachQuery(alpha=0.5, r=float(r), epsilon=0.01))
        rows.append((0.5, float(r), 0.01, result.reachable, result.witness_depth))
    return {"reach": (["alpha", "r", "epsilon", "reachable", "witness_depth"], rows)}


def _moments_rows():
    rows = []
    for t in range(1, 26):
        prm = WalkParams(alpha=Alpha.parse("1/2"), p=Fraction(1, 2), t=t)
        row = (t, float(closed_form_mean(prm)), float(closed_form_variance(prm)))
        # The exact columns equal the closed forms up to the cap t = 24, blank past it.
        rows.append((*row, *(row[1:] if t <= 24 else ("", ""))))
    return {"moments": (["t", "mean", "variance", "exact_mean", "exact_variance"], rows)}


def _residence_rows():
    t, p = 6, Fraction(1, 3)
    pmf = exact_residence_distribution(WalkParams(alpha=Alpha.parse("1/2"), p=p, t=t))
    q, pv = 1 - float(p), float(p)
    rows = [
        (j, float(pmf.get(j, 0)), float(math.comb(t, j)) * q**j * pv ** (t - j))
        for j in range(t + 1)
    ]
    return {"residence": (["t_plus", "probability", "binomial_probability"], rows)}


def _cvm_grid_rows():
    m1, m2, n = -3.0, 3.0, 50
    rows, grid_rows = [], []
    for t in (4, 5):
        for target in ("arw", "srw"):
            if target == "arw":
                alpha = Alpha.parse("9/10")
                params = WalkParams(alpha=alpha, p=0.5, t=t)
                cdf = exact_standardized_cdf(enumerate_distribution(params))
            else:
                alpha, cdf = "", simple_rw_exact_cdf(t)
            key = (target, str(alpha), t)
            sq_diffs = []
            for k in range(1, n + 1):  # the grid point by point
                u = m1 + (m2 - m1) * k / n
                fu, fv = float(cdf(u)), normal_cdf(u)
                sq_diffs.append((fu - fv) ** 2)
                grid_rows.append((*key, u, fu, fv, sq_diffs[-1]))
            rows.append((*key, (m2 - m1) / n * math.fsum(sq_diffs)))
    grid_header = ["target", "alpha", "t", "u", "f_target", "f_normal", "sq_diff"]
    return {
        "cvm": (["target", "alpha", "t", "distance"], rows),
        "cvm_grid": (grid_header, grid_rows),
    }


GOLDEN = {
    "dist exact": (
        "dist --alpha 9/10 --p 1/3 --t 6 --mode exact",
        _dist_exact_rows,
    ),
    "dist mc paths": (
        "dist --alpha 0.7 --t 5 --mode mc --n 7 --seed 3 --store paths",
        _dist_mc_rows,
    ),
    "bandit trace": (
        "bandit --alpha 0.9 --pa 0.7 --pb 0.4 --horizon 50 --signal uniform:-3,3 --seed 2",
        _bandit_trace_rows,
    ),
    "bandit sweep": (
        "bandit --pa 0.7 --pb 0.4 --horizon 50 --sweep-alphas 0.5,1.0 --seeds 2 --seed 4",
        _bandit_sweep_rows,
    ),
    "reach sweep": ("reach --alpha 0.5 --sweep 40 --epsilon 0.01 --seed 1", _reach_rows),
    "moments": ("moments --alpha 1/2 --p 1/2 --t-max 25", _moments_rows),
    "residence": ("residence --alpha 1/2 --p 1/3 --t 6 --mode exact", _residence_rows),
    "cvm grid": (
        "cvm --targets arw,srw --alpha 9/10 --t 4,5 --mode exact --grid=-3,3,50 --grid-table",
        _cvm_grid_rows,
    ),
}


@functools.lru_cache(maxsize=None)
def golden_rows(case: str) -> dict:
    return GOLDEN[case][1]()


class TestGolden:
    """Every table a command writes equals its row oracle, in every format."""

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("case", GOLDEN)
    def test_tables_match_row_oracle(self, tmp_path, case, fmt):
        out = tmp_path / "out"
        assert main([*GOLDEN[case][0].split(), "--format", fmt, "--out", str(out)]) == EXIT_OK
        for name, (header, rows) in golden_rows(case).items():
            write_rows(tmp_path / name, header, rows, fmt)
            written = out / f"{name}{SUFFIXES[fmt]}"
            assert written.read_bytes() == (tmp_path / name).read_bytes(), name


def test_manifest_duration_is_monotonic(tmp_path):
    assert main(["dist", "--alpha", "1/2", "--t", "3", "--out", str(tmp_path)]) == EXIT_OK
    duration = json.loads((tmp_path / "dist_manifest.json").read_text())["duration_seconds"]
    assert math.isfinite(duration) and duration >= 0.0
