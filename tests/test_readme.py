"""The README's library quick tour runs as written.

Runs against whichever ``antlion`` is importable: the source tree under
``PYTHONPATH=src``, or an installed package without it.
"""

import re
from fractions import Fraction
from pathlib import Path

from antlion import Ecdf, ExactDistribution, ReachResult, TrajectoryBatch

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_tour_runs():
    ns = {}
    exec(quick_tour(), ns)
    assert ns["res"].reachable is False
    assert isinstance(ns["res"], ReachResult)
    assert isinstance(ns["dist"], ExactDistribution)
    assert isinstance(ns["mean"], Fraction) and isinstance(ns["var"], Fraction)
    assert isinstance(ns["d"], float)
    assert isinstance(ns["batch"], TrajectoryBatch)
    assert isinstance(ns["ecdf"], Ecdf)
