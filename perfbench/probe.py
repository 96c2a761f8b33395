"""Set-up probe: import ``antlion.cli``, build the workload's argv lists, say so.

``run.py`` starts this script in a fresh interpreter and times it from
process start to the ``ready`` line.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import antlion.cli  # noqa: F401
    import workloads

    workloads.commands(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
