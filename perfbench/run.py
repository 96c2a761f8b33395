"""Benchmark of the ``antlion`` CLI figure commands.

Run from the repository root:

    python3 perfbench/run.py --workload exact_law --seed 0 --seconds 25 --trace 0

One run is one fresh process and one workload. It runs passes over the
workload's commands (``workloads.py``) through ``antlion.cli.main`` until
``--seconds`` is used up, and checks every data file against
``references.json``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced passes that also run each command on the reference program
(``gauge.py``), with set-up timed in fresh interpreters (``probe.py``)
between them. ``--trace 1`` alternates untraced and traced passes
(``spans.py``) and reports the per-layer metrics. The last stdout line is
one JSON object; the lines before it, the environment and a readable
summary. The full result, with the traced spans grouped per command, is
written to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import workloads
from gauge import Gauge, GaugeError
from spans import Tracer, median_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES_PER_PASS = 5
MIN_PASSES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    pass


class Terminated(BaseException):
    """SIGTERM. A ``BaseException``, so ``harness.run_main`` lets it through."""


def _terminate(*_):
    raise Terminated


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> float:
    """Process start to ``antlion.cli`` imported and argv lists built."""
    probe = [sys.executable, str(Path(__file__).with_name("probe.py")), workload, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(probe, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SetupError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def measure(
    cli, cmds, references: dict, work: Path, seconds: float, trace: bool,
    probe=None, gauge=None,
) -> dict:
    """Run passes until ``seconds`` would be exceeded (at least ``MIN_PASSES``).

    With ``trace``, each untraced pass is followed by a traced one. With
    ``probe``, ``SETUP_PROBES_PER_PASS`` set-up probes follow each untraced
    pass, so set-up is sampled across the whole run and within its time.
    With ``gauge``, untraced passes run each command on the reference
    program too (``harness.run_pass``).
    """
    untraced, traced, layers, setup = [], [], [], []
    tracer = None
    failed = []  # indices of the failed commands, per pass
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(untraced):
            tracer = Tracer()
            with tracer.installed(cli):
                result = harness.run_pass(cli.main, cmds, work, tracer.call)
            traced.append(result)
            layers.append(tracer.layer_metrics())
        else:
            result = harness.run_pass(
                cli.main, cmds, work, gauge=gauge, flip=len(untraced) % 2 == 1
            )
            untraced.append(result)
            if probe is not None:
                setup.extend(probe() for _ in range(SETUP_PROBES_PER_PASS))
        failed.append(harness.failed_commands(cmds, result, references))
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES and elapsed * (done + 1) / done > seconds:
            break
    return {
        "untraced": untraced,
        "traced": traced,
        "layers": layers,
        "setup": setup,
        "tracer": tracer,
        "commands": len(cmds),
        "attempted": len(cmds) * (len(untraced) + len(traced)),
        "failed": sum(len(f) for f in failed),
        "failed_commands": set().union(*failed),
    }


def fastest_wall(passes: list) -> float:
    """Wall time of a pass made of each command's fastest run.

    Times are fastest-of-N: on a shared host the speed of the same code
    swings by up to 1.7x between stretches of a second to a minute, and the
    fastest sample is the one least slowed by others' load. Taking it per
    command needs one quiet stretch per command rather than one per pass.
    """
    return sum(min(c) for c in zip(*(p.command_s for p in passes)))


def wall_ratio(passes: list) -> float:
    """Pass wall time over the reference program's, from gauged passes.

    Each command's ratio is the median over passes of its time over the
    reference's time on the same command, run right next to it; the ratios
    are weighted by the command's median reference time. The host's speed
    swings cancel in each ratio, so this is the measured program's speed
    relative to the program the benchmark was defined on: 1 at that commit,
    below 1 when faster.
    """
    weighted, total = 0.0, 0.0
    for cur, ref in zip(zip(*(p.command_s for p in passes)), zip(*(p.gauge_s for p in passes))):
        weight = statistics.median(ref)
        weighted += statistics.median(c / r for c, r in zip(cur, ref)) * weight
        total += weight
    return weighted / total


def end_to_end(run: dict) -> dict:
    """The end-to-end metrics of an untraced, gauged run."""
    return {
        # The median: the fastest probe of a run depends on whether the run
        # met a quiet stretch of the host, the median far less.
        "setup_s": statistics.median(run["setup"]),
        "wall_ratio": wall_ratio(run["untraced"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # Share of the workload's commands that were correct on every pass:
        # one failure anywhere costs a whole command, at least 1/7, however
        # many passes the run made.
        "ok_frac": 1 - len(run["failed_commands"]) / run["commands"],
    }


def per_layer(run: dict) -> dict:
    metrics = median_metrics(run["layers"])
    first = run["traced"][0]
    metrics["cli.files_written"] = sum(len(d) for d in first.digests)
    metrics["cli.bytes_written"] = first.bytes_written
    metrics["trace.overhead_s"] = fastest_wall(run["traced"]) - fastest_wall(run["untraced"])
    return metrics


def environment() -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_loc": sum(p.read_bytes().count(b"\n") for p in sorted(SRC.rglob("*.py"))),
    }


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "antlion" / "cli.py").is_file():
        print(f"perfbench: no antlion sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import antlion.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "antlion").resolve():
        print(f"perfbench: antlion imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmds = workloads.commands(args.workload, args.seed)
    references = harness.load_references()
    work = OUT / f"work-{os.getpid()}"
    probe = None if args.trace else lambda: setup_seconds(args.workload, args.seed)
    try:
        with contextlib.nullcontext() if args.trace else Gauge() as gauge:
            run = measure(
                cli, cmds, references, work, args.seconds, bool(args.trace), probe, gauge
            )
    except (SetupError, GaugeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Terminated:
        print("perfbench: terminated", file=sys.stderr)
        return 143
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, specs = per_layer(run), spec["per_layer"]
    else:
        values, specs = end_to_end(run), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    env = environment()
    walls = [round(p.wall_s, 4) for p in run["untraced"]]
    print(f"environment {json.dumps(env)}")
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(run['untraced'])} untraced passes {walls}, {len(run['traced'])} traced"
    )
    print(f"  {'failed_frac':32} {run['failed'] / run['attempted']:.6g} "
          f"({run['failed']} of {run['attempted']} commands)")
    print(f"  {'wall_s (fastest-of-N, ungated)':32} {fastest_wall(run['untraced']):.6g} s")
    for name, m in metrics.items():
        print(f"  {name:32} {m['value']:.6g} {m['unit']}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "setup_s_samples": run["setup"],
        "untraced_command_s": [p.command_s for p in run["untraced"]],
        "traced_command_s": [p.command_s for p in run["traced"]],
        "metrics": metrics,
    }
    if not args.trace:
        record["reference_command_s"] = [p.gauge_s for p in run["untraced"]]
    if run["tracer"] is not None:
        record["commands"] = run["tracer"].by_command(cmds)
        record["spans"] = run["tracer"].spans
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind: the reference program is stopped and waited for,
    # and the work directory removed.
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
