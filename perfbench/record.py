"""Record ``references.json``: the sha256 of every data file each workload
command writes, at full size for every seed in ``range(REFERENCE_SEEDS)`` and
at tiny size for ``TINY_SEED``.

The references define correct output for the benchmark, so record them only
at a commit whose outputs are known to be right. Each command runs twice and
must exit 0 with identical bytes both times.

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import harness
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import antlion.cli as cli

    work = ROOT / ".perfbench_out" / "record"
    references = {}
    try:
        sizes = (
            ("full", workloads.FULL, range(workloads.REFERENCE_SEEDS)),
            ("tiny", workloads.TINY, [workloads.TINY_SEED]),
        )
        for size, table, seeds in sizes:
            for workload in workloads.WORKLOADS:
                for seed in seeds:
                    cmds = [
                        argv
                        for argv in workloads.commands(workload, seed, table)
                        if harness.command_key(argv) not in references
                    ]
                    if not cmds:
                        continue
                    first = harness.run_pass(cli.main, cmds, work)
                    second = harness.run_pass(cli.main, cmds, work)
                    for argv, code, a, b in zip(cmds, first.codes, first.digests, second.digests):
                        key = harness.command_key(argv)
                        if code != 0 or a != b:
                            print(f"record: not reproducible: antlion {key}", file=sys.stderr)
                            return 1
                        references[key] = a
                print(f"record: {size} {workload} done, {len(references)} commands", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(harness.REFERENCES, "w") as fh:
        json.dump(references, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
