"""The reference program, run beside the measured one as a speed gauge.

``reference/antlion`` is a frozen copy of the package as it was when the
benchmark was defined. On a shared host the speed of the same code swings by
up to 1.7x for stretches of seconds to minutes, which no run length averages
out. Running each workload command on the reference right before or after the
same command on the measured program, and taking the ratio of the two times,
largely cancels that swing: both see the same host within a few seconds.

The reference runs in a child process, so it neither shares the measured
program's imports nor adds to its peak memory. The child reads one JSON argv
per line on stdin, runs it through the reference ``antlion.cli.main`` and
answers ``[seconds, exit code]`` on stdout, after a first ``ready`` line.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"


class GaugeError(RuntimeError):
    pass


class Gauge:
    """The reference program in a child process, one command at a time."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        # Wait for the child's imports, so they do not overlap a timed command.
        try:
            ready = self.proc.stdout.readline()
        except BaseException:
            self.close()
            raise
        if ready != "ready\n":
            self.close()
            raise GaugeError(f"reference program failed to start (exit code {self.proc.returncode})")

    def __call__(self, argv) -> float:
        """Run ``argv`` (with its ``--out``) on the reference; its wall time."""
        try:
            self.proc.stdin.write(json.dumps(argv) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            line = ""
        else:
            line = self.proc.stdout.readline()
        if not line:
            raise GaugeError(f"reference program exited with code {self.proc.wait()}")
        seconds, code = json.loads(line)
        if code != 0:
            raise GaugeError(f"reference program failed with exit code {code} on {argv}")
        return seconds

    def close(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve() -> int:
    sys.path.insert(0, str(REFERENCE))
    import antlion.cli as cli

    from harness import run_main

    if Path(cli.__file__).resolve().parent != REFERENCE / "antlion":
        print(f"gauge: antlion imported from {cli.__file__}, not {REFERENCE}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    for line in sys.stdin:
        argv = json.loads(line)
        gc.collect()
        start = time.perf_counter()
        code = run_main(cli.main, argv)
        print(json.dumps([time.perf_counter() - start, code]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve())
