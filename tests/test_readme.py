"""The README's library quick tour and CLI block run as written.

Runs against whichever ``antlion`` is importable: the source tree under
``PYTHONPATH=src``, or an installed package without it.
"""

import csv
import json
import shlex
from fractions import Fraction

from antlion import Ecdf, ExactDistribution, ReachResult, TrajectoryBatch
from antlion.cli import main
from record_golden import code_block


def test_quick_tour_runs():
    ns = {}
    exec(code_block("Library quick tour", "python"), ns)
    assert ns["res"].reachable is False
    assert isinstance(ns["res"], ReachResult)
    assert isinstance(ns["dist"], ExactDistribution)
    assert isinstance(ns["mean"], Fraction) and isinstance(ns["var"], Fraction)
    assert isinstance(ns["d"], float)
    assert isinstance(ns["batch"], TrajectoryBatch)
    assert isinstance(ns["ecdf"], Ecdf)


def test_cli_block_runs(tmp_path):
    for line in code_block("CLI", "sh").splitlines():
        program, *argv = shlex.split(line, comments=True)
        out = argv.index("--out") + 1
        argv[out] = str(tmp_path / argv[out])
        assert program == "antlion" and main(argv) == 0, line
    summary = json.loads((tmp_path / "binom" / "residence_summary.json").read_text())
    assert summary["tv_distance_is_exact_zero"] is True
    with open(tmp_path / "gap" / "reach.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["reachable"] == "0"
