"""The benchmark's own checks: tiny passes run clean, one flipped byte is a
failure, tracing leaves the outputs alone, counts repeat, the reference
program writes the reference outputs, and ``run.py`` keeps its output
contract.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import antlion.cli as cli
import harness
import run
import workloads
from gauge import Gauge, GaugeError
from spans import COUNT_METRICS, Tracer

BENCH = Path(__file__).resolve().parents[1]
REFERENCES = harness.load_references()
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny_pass(workload, work, tracer=None):
    cmds = workloads.commands(workload, workloads.TINY_SEED, workloads.TINY)
    if tracer is None:
        return cmds, harness.run_pass(cli.main, cmds, work)
    with tracer.installed(cli):
        return cmds, harness.run_pass(cli.main, cmds, work, tracer.call)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_runs_clean(workload, tmp_path):
    cmds, result = tiny_pass(workload, tmp_path)
    assert result.codes == [0] * len(cmds)
    assert harness.failed_commands(cmds, result, REFERENCES) == []


def test_flipped_byte_fails_its_command(tmp_path):
    cmds, result = tiny_pass("table_dump", tmp_path)
    target = tmp_path / "c01" / "dist.json"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 1
    target.write_bytes(data)
    result.digests[1], _ = harness.digest_outputs(tmp_path / "c01")
    assert harness.failed_commands(cmds, result, REFERENCES) == [1]


def test_nonzero_exit_fails_its_command(tmp_path):
    cmds, result = tiny_pass("exact_law", tmp_path)
    result.codes[2] = 2
    assert harness.failed_commands(cmds, result, REFERENCES) == [2]


def test_one_failing_command_moves_ok_frac_past_its_bound(tmp_path):
    cmds = workloads.commands("table_dump", workloads.TINY_SEED, workloads.TINY)
    references = dict(REFERENCES, **{harness.command_key(cmds[3]): {}})
    with Gauge() as gauge:
        measured = run.measure(cli, cmds, references, tmp_path, 0.1, False, gauge=gauge)
    assert measured["failed"] == len(measured["untraced"])
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "ok_frac")
    assert run.end_to_end(measured | {"setup": [1.0]})["ok_frac"] < 1 - bound


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_program_writes_the_reference_outputs(workload, tmp_path):
    cmds = workloads.commands(workload, workloads.TINY_SEED, workloads.TINY)
    with Gauge() as gauge:
        result = harness.run_pass(cli.main, cmds, tmp_path, gauge=gauge)
    assert len(result.gauge_s) == len(cmds) and min(result.gauge_s) > 0
    for i, argv in enumerate(cmds):
        digests, _ = harness.digest_outputs(tmp_path / f"r{i:02d}")
        assert digests == REFERENCES[harness.command_key(argv)]


def test_a_failing_reference_command_stops_the_run(tmp_path):
    with Gauge() as gauge:
        with pytest.raises(GaugeError):
            gauge(["dist", "--alpha", "not-a-number", "--out", str(tmp_path)])
    assert gauge.proc.returncode == 0


def test_wall_ratio_weights_each_command_by_its_reference_time():
    passes = [
        harness.PassResult([2.0, 1.0], [0, 0], [{}, {}], 0, [1.0, 1.0]),
        harness.PassResult([2.0, 3.0], [0, 0], [{}, {}], 0, [1.0, 3.0]),
        harness.PassResult([8.0, 1.0], [0, 0], [{}, {}], 0, [4.0, 1.0]),
    ]
    # Per-command median ratios 2 and 1, median reference times 1 and 1.
    assert run.wall_ratio(passes) == 1.5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_leaves_outputs_alone(workload, tmp_path):
    originals = {name: getattr(cli, name) for name in ("simulate", "is_eps_reachable")}
    _, plain = tiny_pass(workload, tmp_path / "plain")
    _, traced = tiny_pass(workload, tmp_path / "traced", Tracer())
    assert traced.digests == plain.digests
    assert {name: getattr(cli, name) for name in originals} == originals


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat(workload, tmp_path):
    seen = []
    for i in range(2):
        tracer = Tracer()
        _, result = tiny_pass(workload, tmp_path / str(i), tracer)
        metrics = tracer.layer_metrics()
        counts = {name: metrics[name] for name in COUNT_METRICS}
        seen.append((counts, [sorted(d) for d in result.digests], result.bytes_written))
    assert seen[0] == seen[1]


def test_counts_follow_the_call_arguments(tmp_path):
    tracer = Tracer()
    tiny_pass("sim_law", tmp_path, tracer)
    metrics = tracer.layer_metrics()
    # cvm: 2 alphas and srw at n=2000, t=20; 1 alpha at n=5000, t=30;
    # residence: n=2000, t=20.
    assert metrics["montecarlo.walker_steps"] == 3 * 2000 * 20 + 5000 * 30 + 2000 * 20
    assert metrics["montecarlo.chunks"] == 3 + 2 + 1
    assert metrics["bandit.lane_steps"] == 2 * 2 * 300
    assert metrics["exact.paths"] == 0
    assert metrics["analysis.cvm_cdf_evals"] == 4 * 2 * 600


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_one_result_line(trace, section, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "FULL", workloads.TINY)
    argv = ["--workload", "table_dump", "--seed", str(workloads.TINY_SEED),
            "--seconds", "0.5", "--trace", trace]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_law", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
