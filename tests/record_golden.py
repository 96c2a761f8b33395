"""Record ``golden.json``: the sha256 of every data file each golden command
writes (``<cmd>_manifest.json`` left out: it holds a clock reading).

The golden commands are every command of the README CLI block, in each of
the three formats, the exact ``dist`` and ``cvm`` points at the edges of
the word-size lattices, the benchmark's small workloads, one Monte Carlo
horizon list, one Monte Carlo paths dump over several blocks, one Monte
Carlo residence walk of several hundred steps, four Monte Carlo walks at
``p`` other than 1/2, three walks over blocks of several chunks, two
reach queries that no float replay settles and five commands whose columns
are written through labels.
``test_golden.py`` reruns them and compares digests.

The table defines correct output, so record it only at a commit whose
outputs are known to be right, and state in CHANGES.md why any digest
changed. Each command runs twice and must exit 0 with identical bytes both
times. Run from the repository root, never from a test:

    python3 tests/record_golden.py
"""

from __future__ import annotations

import hashlib
import json
import re
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
FORMATS = ("csv", "json", "gnuplot")

# 9/10 at t = 15 is the last int64 lattice and t = 16 the first of Python
# ints; the halves of 999999/1000000 cancel; 1/2 at t = 18 and t = 20 are
# large int64 lattices, the latter a million rows; the grid table prints
# every grid value of two laws. The last grid table counts 999/1000 from t
# = 11, where no split of the walk keeps both halves in int64, so an int64
# walk is counted beside one of Python ints.
EXACT_POINTS = (
    "dist --alpha 9/10 --t 15 --mode exact",
    "dist --alpha 9/10 --t 16 --mode exact",
    "dist --alpha 999999/1000000 --t 12 --mode exact",
    "dist --alpha 1/2 --t 18 --mode exact",
    "dist --alpha 1/2 --t 20 --mode exact",
    "cvm --targets arw,srw --alpha 9/10 --t 12 --mode exact --grid-table",
    "cvm --targets arw --alpha 999/1000,999999/1000000 --t 11..14 --mode exact --grid-table",
)

# The small-size command lists of the benchmark's three workloads at seed 3,
# written out here so that the table does not depend on the benchmark's own
# files; together they run in about 0.1 s.
TINY_WORKLOADS = (
    "cvm --targets arw,srw --alpha 1/10,1/2,9/10 --t 1..5 --mode exact",
    "cvm --targets arw --alpha 9/10 --t 8 --mode exact",
    "moments --alpha 9/10 --p 1/2 --t-max 6",
    "residence --alpha 1/2 --t 6 --mode exact",
    "cvm --targets arw,srw --alpha 0.1,0.9 --t 20 --mode mc --n 2000 --seed 3",
    "cvm --targets arw --alpha 0.5 --t 30 --mode mc --n 5000 --seed 3",
    "residence --alpha 0.98 --t 20 --mode mc --n 2000 --seed 3",
    "bandit --pa 0.8 --pb 0.2 --horizon 300 --sweep-alphas 0.5,1.0 --seeds 2 --seed 3",
    "dist --alpha 9/10 --p 1/2 --t 8 --mode exact",
    "dist --alpha 0.5 --t 20 --mode mc --n 2000 --format json --seed 3",
    "dist --alpha 0.9 --t 20 --mode mc --n 30 --store paths --format gnuplot --seed 3",
    "bandit --alpha 0.99 --pa 0.8 --pb 0.2 --horizon 500 --signal uniform:-5,5 --seed 3",
    "reach --alpha 0.5 --sweep 300 --epsilon 0.000244140625 --seed 3",
    "reach --alpha 0.3 --sweep 300 --epsilon 0.001 --seed 3",
    "cvm --targets arw,srw --alpha 9/10 --t 5 --mode exact --grid-table --format gnuplot",
)

# Monte Carlo over a list of horizons. The finals at each horizon are that
# step of every chunk's stream, so a walk shared by the horizons must write
# these bytes too.
MC_HORIZONS = ("cvm --targets arw,srw --alpha 0.1,0.9 --t 1..30 --mode mc --n 2000 --seed 3",)

# Paths over several blocks: four full chunks and a tail of 5 walkers, so
# two full blocks and a one-chunk block write their rows of every step.
MC_PATHS = ("dist --alpha 0.9 --t 9 --mode mc --n 16389 --store paths --seed 3",)

# A residence walk of 600 steps: more than twice the 255 steps a walker's
# one-byte residence tally holds before it is added into the counts.
MC_LONG = ("residence --alpha 0.98 --t 600 --mode mc --n 9000 --seed 3",)

# Monte Carlo at p other than 1/2, where a step is a word compared with a
# threshold rather than its top bit: two blocks with a residence tally, a
# Fraction p over paths that cross a tile edge, and the ends p = 1 and p = 0.
MC_BIASED = (
    "residence --alpha 0.98 --p 0.3 --t 40 --mode mc --n 9000 --seed 3",
    "dist --alpha 0.7 --p 1/3 --t 17 --mode mc --n 5000 --store paths --seed 3",
    "dist --alpha 0.9 --p 1 --t 20 --mode mc --n 300 --seed 3",
    "dist --alpha 0.9 --p 0 --t 20 --mode mc --n 300 --seed 3",
)

# Walks over blocks of several chunks: two laws of 14 chunks, the last of 3
# walkers, which no even split of blocks covers; and one block of three
# chunks walked in paths mode over more steps than a tile of three chunks
# holds, at p = 1/2 and at p = 0.3.
MC_BLOCKS = (
    "cvm --targets arw,srw --alpha 0.5,0.9 --t 40 --mode mc --n 53251 --seed 3",
    "dist --alpha 0.9 --t 45 --mode mc --n 9000 --store paths --seed 3",
    "dist --alpha 0.9 --p 0.3 --t 45 --mode mc --n 9000 --store paths --seed 3",
)

# Sparse reach queries that no float replay settles: an endpoint exactly
# epsilon away, and a depth-46 prefix 0.375 epsilon away in exact arithmetic
# whose float replay misses. Each is certified at radius epsilon.
REACH_UNCONFIRMED = (
    "reach --alpha 0.375 --r 0.716796875 --epsilon 0.00390625",
    "reach --alpha 0.49 --r -0.23310180992733298 --epsilon 1e-16",
)

# Columns written through labels: Monte Carlo positions shared by dist and
# dist_cdf, 64 distinct among 5000 walkers so that equal values take
# distinct ranks, in csv and json; paths whose index columns cross block
# edges; a bandit signal of 2582 distinct values, too many to code; and 11
# distinct witness depths over three blocks of reach rows.
CODED_COLUMNS = (
    "dist --alpha 0.5 --t 6 --mode mc --n 5000 --seed 3",
    "dist --alpha 0.5 --t 6 --mode mc --n 5000 --seed 3 --format json",
    "dist --alpha 0.9 --t 40 --mode mc --n 60 --store paths --format json --seed 3",
    "bandit --alpha 0.99 --pa 0.8 --pb 0.2 --horizon 3000 --signal uniform:-5000,5000 --seed 3",
    "reach --alpha 0.3 --sweep 3000 --epsilon 0.001 --seed 3",
)


def code_block(heading: str, language: str) -> str:
    """The first ``language`` code block under the README's ``## heading``."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def readme_commands() -> list:
    """The README CLI block's commands, ``antlion`` and ``--out`` dropped."""
    commands = []
    for line in code_block("CLI", "sh").splitlines():
        program, *argv = shlex.split(line, comments=True)
        out = argv.index("--out")
        del argv[out : out + 2]
        commands.append(" ".join(argv))
    return commands


def golden_commands() -> list:
    readme = [f"{cmd} --format {fmt}" for cmd in readme_commands() for fmt in FORMATS]
    return readme + [
        *EXACT_POINTS,
        *TINY_WORKLOADS,
        *MC_HORIZONS,
        *MC_PATHS,
        *MC_LONG,
        *MC_BIASED,
        *MC_BLOCKS,
        *REACH_UNCONFIRMED,
        *CODED_COLUMNS,
    ]


def run(main, command: str, out_dir: Path) -> tuple:
    """``(exit code, {data file name: sha256})`` of one command run into the
    empty directory ``out_dir``."""
    code = main([*command.split(), "--out", str(out_dir)])
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if not path.name.endswith("_manifest.json")
    }
    return code, digests


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from antlion.cli import main as cli_main

    golden = {}
    work = Path(tempfile.mkdtemp(prefix="antlion-golden-"))
    try:
        for i, command in enumerate(golden_commands()):
            first = run(cli_main, command, work / f"{i}a")
            second = run(cli_main, command, work / f"{i}b")
            if first[0] != 0 or first != second:
                print(f"record_golden: not reproducible: antlion {command}", file=sys.stderr)
                return 1
            golden[command] = first[1]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"record_golden: {len(golden)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
