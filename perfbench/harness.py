"""One pass over a workload's commands, and the byte-identity check.

A pass runs every command through ``antlion.cli.main`` in this process, each
into its own fresh output directory, and times only those calls. Afterwards
every data file a command wrote is hashed. The ``<cmd>_manifest.json`` files
are left out: their ``duration_seconds`` comes from the clock.
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"


@dataclass
class PassResult:
    command_s: list  # wall time per command
    codes: list  # exit code per command
    digests: list  # {file name: sha256} per command
    bytes_written: int
    gauge_s: list  # the reference program's wall time per command, if gauged

    @property
    def wall_s(self) -> float:
        return sum(self.command_s)


def command_key(argv) -> str:
    """Reference key of a command: its argv without ``--out``."""
    return " ".join(argv)


def run_main(main, argv) -> int:
    """Run one command; any escape from ``main`` counts as a failed command."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return 1


def digest_outputs(out_dir: Path) -> tuple:
    """``({data file name: sha256}, total bytes)`` of one command's output."""
    digests = {}
    total = 0
    for path in sorted(out_dir.iterdir()):
        if path.name.endswith("_manifest.json") or not path.is_file():
            continue
        data = path.read_bytes()
        digests[path.name] = hashlib.sha256(data).hexdigest()
        total += len(data)
    return digests, total


def run_pass(main, cmds, work_dir: Path, call=run_main, gauge=None, flip=False) -> PassResult:
    """Run ``cmds`` once into fresh directories under ``work_dir``.

    ``call(main, argv)`` runs one command; a tracer passes its own. With a
    ``gauge`` (``gauge.Gauge``), each command also runs on the reference
    program, alternately before and after it; ``flip`` swaps the order, so
    that over two passes each command runs first once.
    """
    shutil.rmtree(work_dir, ignore_errors=True)
    out_dirs = [work_dir / f"c{i:02d}" for i in range(len(cmds))]
    for out in out_dirs:
        out.mkdir(parents=True)
    codes, times, gauged = [], [], []
    for i, (argv, out) in enumerate(zip(cmds, out_dirs)):
        gauge_first = gauge is not None and (i % 2 == 0) != flip
        if gauge_first:
            gauged.append(gauge([*argv, "--out", str(work_dir / f"r{i:02d}")]))
        gc.collect()
        start = time.perf_counter()
        codes.append(call(main, [*argv, "--out", str(out)]))
        times.append(time.perf_counter() - start)
        if gauge is not None and not gauge_first:
            gauged.append(gauge([*argv, "--out", str(work_dir / f"r{i:02d}")]))
    digests = []
    total = 0
    for out in out_dirs:
        d, n = digest_outputs(out)
        digests.append(d)
        total += n
    return PassResult(times, codes, digests, total, gauged)


def load_references(path: Path = REFERENCES) -> dict:
    with open(path) as fh:
        return json.load(fh)


def failed_commands(cmds, result: PassResult, references: dict) -> list:
    """Indices of commands that exited nonzero or whose data files differ
    from the reference (a missing reference is a failure too)."""
    failed = []
    for i, (argv, code, digests) in enumerate(zip(cmds, result.codes, result.digests)):
        expected = references.get(command_key(argv))
        if code != 0:
            reason = f"exit {code}"
        elif expected is None:
            reason = "no reference recorded"
        elif digests != expected:
            reason = "output differs from reference"
        else:
            continue
        failed.append(i)
        print(f"perfbench: FAILED [{reason}] antlion {command_key(argv)}", file=sys.stderr)
    return failed
