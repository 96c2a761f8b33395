"""Spans around the calls ``antlion.cli`` makes into each layer.

For a traced pass, wrappers replace the layer functions under the names
``antlion.cli`` imported them by, so ``src/`` is not touched. Each wrapped
call becomes a span ``[name, start, end, parent, command]`` whose parent is
the command's ``main`` span. Per-row calls (one per table row or reach
target) are not stored one by one: they add to a call count and a time per
command. Counts are computed from the call arguments, so they repeat exactly.

``ExactDistribution.point_probability`` is counted only when ``antlion.cli``
calls it directly: while a layer span is open the original method is back
in place, so the row loop inside, say, ``exact_standardized_cdf`` is neither
slowed down nor counted twice.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from harness import run_main


def _walkers(n: int, t: int) -> dict:
    from antlion.montecarlo import STREAM_CHUNK

    return {"montecarlo.walker_steps": n * t, "montecarlo.chunks": -(-n // STREAM_CHUNK)}


def _support(a) -> dict:
    from antlion.exact import support_size

    return {"analysis.std_cdf_points": support_size(a["dist"])}


# Name in antlion.cli -> (time metric, counts from the bound call arguments).
LAYER_CALLS = {
    "enumerate_distribution": (
        "exact.enumerate_s",
        lambda a: {"exact.enumerate_calls": 1, "exact.paths": 2 ** a["params"].t},
    ),
    "exact_moments": ("exact.moments_s", None),
    "exact_residence_distribution": ("exact.residence_s", None),
    "exact_standardized_cdf": ("analysis.std_cdf_s", _support),
    "cvm_distance": ("analysis.cvm_s", lambda a: {"analysis.cvm_cdf_evals": 2 * a["n"]}),
    "cvm_grid_table": ("analysis.grid_table_s", None),
    "compare_residence_to_binomial": ("analysis.residence_cmp_s", None),
    "simulate": (
        "montecarlo.simulate_s",
        lambda a: _walkers(a["n_walkers"], a["params"].t),
    ),
    "simulate_simple_rw": (
        "montecarlo.simulate_s",
        lambda a: _walkers(a["n_walkers"], a["t"]),
    ),
    "empirical_cdf": ("montecarlo.ecdf_s", None),
    "Ecdf": ("montecarlo.ecdf_s", None),
    "residence_times": ("montecarlo.residence_s", None),
    "run_bandit": ("bandit.run_s", lambda a: {"bandit.lane_steps": a["config"].horizon}),
    "sweep_alpha": (
        "bandit.sweep_s",
        lambda a: {
            "bandit.lane_steps": len(a["alphas"]) * a["n_seeds"] * a["config"].horizon
        },
    ),
}

# Per-row call -> (time metric, call-count metric).
ROW_CALLS = {
    "is_eps_reachable": ("reachability.query_s", "reachability.queries"),
    "point_probability": ("exact.point_probability_s", "exact.point_probability_calls"),
}

TIME_METRICS = sorted(
    {metric for metric, _ in LAYER_CALLS.values()} | {s for s, _ in ROW_CALLS.values()}
)
COUNT_METRICS = (
    "exact.enumerate_calls",
    "exact.paths",
    "exact.point_probability_calls",
    "analysis.std_cdf_points",
    "analysis.cvm_cdf_evals",
    "montecarlo.walker_steps",
    "montecarlo.chunks",
    "bandit.lane_steps",
    "reachability.queries",
)


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.rows = defaultdict(lambda: [0, 0.0])  # (command, name) -> [calls, s]
        self._cmd = -1
        self._main = None

    def call(self, main, argv) -> int:
        """Run one command inside a ``main`` span (``harness.run_pass``'s ``call``)."""
        self._cmd += 1
        self._main = len(self.spans)
        span = ["main", time.perf_counter(), None, None, self._cmd]
        self.spans.append(span)
        try:
            return run_main(main, argv)
        finally:
            span[2] = time.perf_counter()
            self._main = None

    def _layer(self, name, fn, count, cls, plain_row, traced_row):
        sig = inspect.signature(fn) if count else None

        def wrapper(*args, **kwargs):
            if count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for metric, value in count(bound.arguments).items():
                    self.counts[metric] += value
            cls.point_probability = plain_row
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cls.point_probability = traced_row
                self.spans.append([name, start, end, self._main, self._cmd])

        return wrapper

    def _row(self, name, fn):
        rows = self.rows

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                cell = rows[(self._cmd, name)]
                cell[0] += 1
                cell[1] += elapsed

        return wrapper

    @contextmanager
    def installed(self, cli):
        """Patch the wrappers onto ``cli`` for the duration of the block."""
        from antlion.exact import ExactDistribution as cls

        names = [*LAYER_CALLS, "is_eps_reachable"]
        saved = {name: getattr(cli, name) for name in names}
        plain_row = cls.point_probability
        traced_row = self._row("point_probability", plain_row)
        try:
            for name, (_, count) in LAYER_CALLS.items():
                setattr(cli, name, self._layer(name, saved[name], count, cls, plain_row, traced_row))
            cli.is_eps_reachable = self._row("is_eps_reachable", saved["is_eps_reachable"])
            cls.point_probability = traced_row
            yield self
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)
            cls.point_probability = plain_row

    def layer_metrics(self) -> dict:
        """Per-layer metrics of this pass, except those read from the output."""
        metrics = dict.fromkeys(TIME_METRICS, 0.0)
        metrics.update(dict.fromkeys(COUNT_METRICS, 0))
        metrics.update(self.counts)
        covered = defaultdict(float)  # command -> time inside its layer calls
        main_s = 0.0
        for name, start, end, _, cmd in self.spans:
            if name == "main":
                main_s += end - start
            else:
                metrics[LAYER_CALLS[name][0]] += end - start
                covered[cmd] += end - start
        for (cmd, name), (calls, seconds) in self.rows.items():
            time_metric, count_metric = ROW_CALLS[name]
            metrics[time_metric] += seconds
            metrics[count_metric] += calls
            covered[cmd] += seconds
        metrics["cli.self_s"] = main_s - sum(covered.values())
        metrics["exact.ns_per_path"] = _ratio(metrics["exact.enumerate_s"], metrics["exact.paths"], 1e9)
        metrics["montecarlo.ns_per_walker_step"] = _ratio(
            metrics["montecarlo.simulate_s"], metrics["montecarlo.walker_steps"], 1e9
        )
        metrics["bandit.ns_per_lane_step"] = _ratio(
            metrics["bandit.sweep_s"] + metrics["bandit.run_s"], metrics["bandit.lane_steps"], 1e9
        )
        metrics["reachability.us_per_query"] = _ratio(
            metrics["reachability.query_s"], metrics["reachability.queries"], 1e6
        )
        return metrics

    def by_command(self, cmds) -> list:
        """Spans grouped per command: wall time and ``{call: {calls, s}}``."""
        grouped = [{"argv": " ".join(argv), "wall_s": 0.0, "calls": {}} for argv in cmds]
        for name, start, end, _, cmd in self.spans:
            if name == "main":
                grouped[cmd]["wall_s"] = end - start
            else:
                _add_call(grouped[cmd]["calls"], name, 1, end - start)
        for (cmd, name), (calls, seconds) in self.rows.items():
            _add_call(grouped[cmd]["calls"], name, calls, seconds)
        return grouped


def _add_call(calls: dict, name: str, n: int, seconds: float) -> None:
    cell = calls.setdefault(name, {"calls": 0, "s": 0.0})
    cell["calls"] += n
    cell["s"] += seconds


def _ratio(seconds: float, count: int, scale: float) -> float:
    return seconds / count * scale if count else 0.0


def median_metrics(per_pass: list) -> dict:
    """Low median of each metric over passes: a measured value, and the
    count itself for counts, which repeat."""
    return {key: statistics.median_low(m[key] for m in per_pass) for key in per_pass[0]}
