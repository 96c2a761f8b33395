"""Command-line front end: dist, cvm, residence, reach, bandit, moments.

Every subcommand writes its tables plus a ``<cmd>_manifest.json`` holding the
full parameter set, seed, and tool version; re-running with the manifest's
parameters reproduces the data files byte for byte. Tables go to CSV by
default; ``--format gnuplot`` writes whitespace-separated ``.dat`` files with
a commented header and ``--format json`` writes record lists.

Exit codes: 0 success, 2 invalid parameters, 3 enumeration horizon over the
cap, 4 resource guard, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, bandit, exact
from .analysis import (
    _ExactGridCdf,
    check_cvm_grid,
    compare_residence_to_binomial,
    cvm_distance,
    cvm_from_grid,
    cvm_grid_table,
    normal_cdf,
    residence_binomial,
    simple_rw_exact_cdf,
    standardize_arw,
    standardize_srw,
)
from .bandit import (
    Ar1Signal,
    BanditConfig,
    NormalSignal,
    UniformSignal,
    run_bandit,
    sweep_alpha,
)
from .core import (
    Alpha,
    ResourceLimitError,
    WalkParams,
    check_elements,
    closed_form_mean,
    closed_form_variance,
    parse_number,
    philox_stream,
)
from .exact import (
    DIST_HEADER,
    HorizonTooLargeError,
    enumerate_distribution,
    exact_moments,
    exact_residence_distribution,
)
from .montecarlo import (
    DEFAULT_WALKERS,
    Ecdf,
    residence_times,
    simulate,
    simulate_finals,
)
# is_eps_reachable, exact_standardized_cdf, simulate_simple_rw and
# empirical_cdf, which no command calls, stay cli attributes:
# perfbench/spans.py wraps them.
from .analysis import exact_standardized_cdf  # noqa: F401
from .montecarlo import empirical_cdf, simulate_simple_rw  # noqa: F401
from .reachability import decide_lanes, is_eps_reachable, reach_bound  # noqa: F401
from .tables import SUFFIXES, Coded, Computed, Table, code_distinct, transpose, write_tables

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HORIZON = 3
EXIT_RESOURCE = 4
EXIT_IO = 5

# Most specific first: HorizonTooLargeError is a ValueError.
_EXIT_CODES = (
    (HorizonTooLargeError, EXIT_HORIZON),
    (ResourceLimitError, EXIT_RESOURCE),
    ((ValueError, TypeError), EXIT_USAGE),
    (OSError, EXIT_IO),
)

CSV_SCHEMA_VERSION = 1


def _parse_grid(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("grid must be 'm1,m2,n'")
    m1, m2, n = float(parts[0]), float(parts[1]), int(parts[2])
    check_cvm_grid(m1, m2, n)
    return m1, m2, n


def _parse_t_list(text: str):
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, _, hi = chunk.partition("..")
            lo, hi = int(lo), int(hi) + 1  # no range: its len() overflows past 2**63
            # A list entry is a pointer and an int object: 5 words.
            check_elements(5 * (len(values) + hi - lo), f"a list of {hi - lo} horizons")
            values.extend(range(lo, hi))
        else:
            values.append(int(chunk))
    if not values or any(t < 0 for t in values):
        raise ValueError(f"bad horizon list: {text!r}")
    return values


def _parse_signal(text: str):
    kind, _, rest = text.partition(":")
    if kind == "normal":
        return NormalSignal()
    if kind == "uniform":  # a field left out keeps the signal's own default
        low, _, high = rest.partition(",")
        return UniformSignal(**{k: int(v) for k, v in (("low", low), ("high", high)) if v})
    if kind == "ar1":
        return Ar1Signal(**({"rho": float(rest)} if rest else {}))
    raise ValueError(f"unknown signal source {text!r}")


class Summary(NamedTuple):
    """One JSON document, written as ``<name>.json`` whatever the format."""

    name: str
    payload: dict


def _write_json(out_dir: Path, name: str, payload) -> Path:
    path = out_dir / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    return path


def _manifest(out_dir: Path, subcommand: str, args, outputs, started: float) -> Path:
    params = {
        key: str(value)
        for key, value in sorted(vars(args).items())
        if key not in ("func", "out") and value is not None
    }
    payload = {
        "tool": "antlion",
        "version": __version__,
        "csv_schema": CSV_SCHEMA_VERSION,
        "subcommand": subcommand,
        "parameters": params,
        "outputs": [p.name for p in outputs],
        "duration_seconds": time.perf_counter() - started,
    }
    return _write_json(out_dir, f"{subcommand}_manifest", payload)


# Each subcommand is a generator of the Table and Summary specs it writes, in
# output order; main writes all its tables together, so a column object that
# two tables share is formatted once.


def _cmd_dist(args):
    params = WalkParams(alpha=Alpha.parse(args.alpha), p=parse_number(args.p), t=args.t)
    if args.mode == "exact":
        dist = enumerate_distribution(params)
        yield Table("dist", DIST_HEADER, dist.columns())
        yield Table("dist_cdf", ["position", "cdf"], (dist.cdf.xs, dist.cdf.cum))
        return
    batch = simulate(params, n_walkers=args.n, seed=args.seed, mode=args.store)
    n, width = batch.n_walkers, params.t + 1
    walkers = range(n)
    # Both position columns are coded on the sorted finals, so each position
    # is formatted once: dist's by its walker's rank, dist_cdf's in order.
    order = np.argsort(batch.finals)
    cdf = Ecdf(batch.finals[order])
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    yield Table("dist", ["walker_id", "position"], (walkers, Coded(rank, cdf.xs)))
    # cdf.cum's values, computed a block at a time like the trajectories'
    # walker and step codes, so that no such array is held while writing.
    cum = Computed(n, lambda i: (i + 1.0) / n)
    yield Table("dist_cdf", ["position", "cdf"], (Coded(walkers, cdf.xs), cum))
    if args.store == "paths":
        walker = Coded(Computed(n * width, lambda i: i // width), walkers)
        step = Coded(Computed(n * width, lambda i: i % width), range(width))
        columns = (walker, step, batch.positions.flat)
        yield Table("trajectories", ["walker_id", "step", "position"], columns)


# Finals one shared cvm walk holds at most (32 MB), where one law fits.
_MC_GROUP_VALUES = 1 << 22


def _cvm_cdfs(cases, t: int, args):
    """``(target, alpha, cdf)`` of each case at horizon ``t``, in order.

    Monte Carlo laws share the seed, walkers and p = 1/2, so they take the
    same steps. They walk together, ``t + 1`` at most, so their finals hold
    no more values than one walk's guard admits, and no more than
    ``_MC_GROUP_VALUES`` unless one law alone holds more. Each law's row of
    finals is standardized and sorted in place and becomes its ``Ecdf``'s
    sample, so no law's values are copied.
    """
    if args.mode == "exact":
        for target, alpha in cases:
            cdf = _ExactGridCdf(alpha, t) if target == "arw" else simple_rw_exact_cdf(t)
            yield target, alpha, cdf
        return
    size = max(1, min(t + 1, _MC_GROUP_VALUES // max(args.n, 1)))
    for i in range(0, len(cases), size):
        group = cases[i : i + size]
        alphas = [alpha.as_float if target == "arw" else 1.0 for target, alpha in group]
        for (target, alpha), row in zip(group, simulate_finals(alphas, t, args.n, args.seed)):
            if target == "arw":
                standardize_arw(row, alpha.as_float, t, out=row)
            else:
                standardize_srw(row, t, out=row)
            row.sort()
            yield target, alpha, Ecdf(row)


def _cmd_cvm(args):
    targets = [t.strip() for t in args.targets.split(",")]
    if any(t not in ("arw", "srw") for t in targets):
        raise ValueError("targets must be a comma list of 'arw'/'srw'")
    m1, m2, grid_n = _parse_grid(args.grid)
    t_values = _parse_t_list(args.t)
    alphas = [Alpha.parse(a) for a in args.alpha.split(",")] if args.alpha else []
    if "arw" in targets and not alphas:
        raise ValueError("target 'arw' requires --alpha")
    if "arw" in targets and args.mode == "exact":
        exact._check_cap(max(t_values))
    cases = [(target, a) for target in targets for a in (alphas if target == "arw" else [""])]
    rows = []
    grid = [[] for _ in range(7)]  # the cvm_grid columns
    for t in t_values:
        for target, alpha, cdf in _cvm_cdfs(cases, t, args):
            key = (target, str(alpha), t)
            if args.grid_table:
                law_grid = cvm_grid_table(cdf, normal_cdf, m1, m2, grid_n)
                result = cvm_from_grid(law_grid, m1, m2, grid_n)
                for column, values in zip(grid, [*([v] * grid_n for v in key), *law_grid]):
                    column.extend(values)  # the key repeated, then the law's grid
            else:
                result = cvm_distance(cdf, normal_cdf, m1, m2, grid_n)
            rows.append((*key, result.distance))
            del cdf  # free this law's arrays before the next one is built
    yield Table("cvm", ["target", "alpha", "t", "distance"], transpose(rows, 4))
    if args.grid_table:
        yield Table(
            "cvm_grid", ["target", "alpha", "t", "u", "f_target", "f_normal", "sq_diff"], grid
        )


def _cmd_residence(args):
    alpha = Alpha.parse(args.alpha)
    p = parse_number(args.p)
    t = args.t
    params = WalkParams(alpha=alpha, p=p, t=t)
    if args.mode == "exact":
        pmf = exact_residence_distribution(params)
    else:
        batch = simulate(params, n_walkers=args.n, seed=args.seed, mode="residence")
        counts = np.bincount(residence_times(batch), minlength=t + 1)
        pmf = {j: counts[j] / batch.n_walkers for j in range(t + 1)}
    summary = compare_residence_to_binomial(pmf, t, p, alpha.as_float)
    steps = range(t + 1)
    yield Table(
        "residence",
        ["t_plus", "probability", "binomial_probability"],
        (steps, [float(pmf.get(j, 0)) for j in steps], residence_binomial(t, p)),
    )
    yield Summary(
        "residence_summary",
        {
            "alpha": str(alpha),
            "p": str(p),
            "t": t,
            "mode": args.mode,
            "tv_distance": float(summary.tv_distance),
            "tv_distance_is_exact_zero": summary.tv_distance == 0,
            "binomial_condition_holds": summary.condition_holds,
        },
    )


def _cmd_reach(args):
    alpha = Alpha.parse(args.alpha).as_float
    if args.sweep is not None:
        if args.sweep < 0:
            raise ValueError(f"--sweep must be a nonnegative number of targets, got {args.sweep}")
        check_elements(5 * args.sweep, f"a reach table of {args.sweep} targets")
        bound = reach_bound(alpha)
        targets = philox_stream(args.seed).uniform(-bound, bound, size=args.sweep)
    elif args.r is None:
        raise ValueError("reach needs --r or --sweep")
    else:
        targets = [args.r]
    lanes = decide_lanes(alpha, targets, args.epsilon)
    zeros = np.broadcast_to(0, lanes.targets.size)
    alphas, epsilons = Coded(zeros, [alpha]), Coded(zeros, [args.epsilon])
    yield Table(
        "reach",
        ["alpha", "r", "epsilon", "reachable", "witness_depth"],
        (alphas, lanes.targets, epsilons, lanes.reachable, code_distinct(lanes.depth)),
    )


def _cmd_bandit(args):
    signal = _parse_signal(args.signal)
    config = BanditConfig(
        p_a=args.pa,
        p_b=args.pb,
        horizon=args.horizon,
        k=args.k,
        alpha=Alpha.parse(args.alpha).as_float if args.alpha else 1.0,
        delta=args.delta,
        omega=args.omega,
        signal=signal,
        swap_at=args.swap_at,
    )
    if args.sweep_alphas:
        alphas = [Alpha.parse(a).as_float for a in args.sweep_alphas.split(",")]
        rows = sweep_alpha(config, alphas, args.seeds, seed_base=args.seed)
        yield Table(
            "bandit_sweep",
            ["alpha", "final_correct_rate", "last_window_correct_rate"],
            transpose([(row.alpha, row.final_rate, row.last_window_rate) for row in rows], 3),
        )
        stride = max(1, config.horizon // 200)
        yield Summary(
            "bandit_sweep_trajectories",
            {
                "seed_base": args.seed,
                "n_seeds": args.seeds,
                "steps": list(range(0, config.horizon, stride)),
                "trajectories": {
                    str(row.alpha): [float(v) for v in row.mean_correct_trajectory[::stride]]
                    for row in rows
                },
            },
        )
    else:
        trace = run_bandit(config, args.seed)
        arms, rewards = Coded(trace.arm_a, ["B", "A"]), trace.reward.view(np.uint8)
        signal, theta, rewards, xi = (
            code_distinct(column) for column in (trace.signal, trace.theta, rewards, trace.xi)
        )
        columns = (range(config.horizon), signal, theta, arms, rewards, xi, trace.x)
        header = ["step", "s", "theta", "arm", "reward", "xi", "x"]
        yield Table("bandit_trace", header, columns)
        yield Summary(
            "bandit_summary",
            {
                "seed": args.seed,
                "selection_rate_a": trace.selection_rate_a,
                "correct_rate": trace.correct_rate(),
                "last_1000_correct_rate": trace.correct_rate(last=bandit.LAST_WINDOW),
            },
        )


def _moment_row(params: WalkParams) -> tuple:
    row = (params.t, float(closed_form_mean(params)), float(closed_form_variance(params)))
    if not params.alpha.exact:
        return row
    if params.t > exact.DEFAULT_HORIZON_CAP:
        return (*row, "", "")
    mean, var = exact_moments(enumerate_distribution(params))
    return (*row, float(mean), float(var))


def _cmd_moments(args):
    params = WalkParams(alpha=Alpha.parse(args.alpha), p=parse_number(args.p))
    if args.t_max < 1:
        raise ValueError(f"--t-max must be at least 1, got {args.t_max}")
    header = ["t", "mean", "variance"]
    if params.alpha.exact:
        header += ["exact_mean", "exact_variance"]
    # A row is a tuple of up to five objects plus five column entries: under 40 words.
    check_elements(40 * args.t_max, f"a moments table of {args.t_max} rows")
    rows = [_moment_row(replace(params, t=t)) for t in range(1, args.t_max + 1)]
    yield Table("moments", header, transpose(rows, len(header)))


_SHARED = {
    "--alpha": dict(required=True, help="memory parameter, 'm/n' or decimal"),
    "--p": dict(default="0.5", help="minus-step probability, 'm/n' or decimal"),
    "--mode": dict(choices=("exact", "mc"), default="exact"),
    "--n": dict(type=int, default=DEFAULT_WALKERS, help="Monte Carlo walkers"),
    "--seed": dict(type=int, default=0),
    "--out": dict(default=".", help="output directory"),
    "--format": dict(choices=("csv", "json", "gnuplot"), default="csv"),
    "--t": dict(type=int, required=True),
}
_LAW = ("--alpha", "--p", "--mode", "--n", "--seed", "--out", "--format", "--t")
_OUT = ("--out", "--format")

# name -> (handler, help, shared flags, own arguments), each in --help order.
COMMANDS = {
    "dist": (_cmd_dist, "distribution of the walk at a horizon", _LAW, {
        "--store": dict(choices=("finals", "paths"), default="finals",
                        help="mc mode: also dump full trajectories (large files)"),
    }),
    "cvm": (_cmd_cvm, "CvM distance to the standard normal", ("--mode", "--n", "--seed", *_OUT), {
        "--targets": dict(default="arw,srw"),
        "--alpha": dict(default="", help="comma list for the arw target"),
        "--t": dict(required=True, help="horizons, e.g. '1..15' or '15,60'"),
        "--grid": dict(default="-3,3,600", help="m1,m2,n"),
        "--grid-table": dict(action="store_true", dest="grid_table",
                             help="also write the per-point CDF tabulation"),
    }),
    "residence": (_cmd_residence, "positive-side residence time law", _LAW, {}),
    "reach": (_cmd_reach, "epsilon-reachability of targets", ("--alpha", "--seed", *_OUT), {
        "--r": dict(type=float, default=None),
        "--epsilon": dict(type=float, required=True),
        "--sweep": dict(type=int, default=None, help="number of random targets"),
    }),
    "bandit": (_cmd_bandit, "two-armed bandit threshold simulation", ("--seed", *_OUT), {
        "--alpha": dict(default="1.0"),
        "--k": dict(type=float, default=1.0),
        "--delta": dict(type=float, default=1.0),
        "--omega": dict(type=float, default=1.0),
        "--pa": dict(type=float, required=True),
        "--pb": dict(type=float, required=True),
        "--horizon": dict(type=int, required=True),
        "--signal": dict(default="normal", help="normal | uniform:lo,hi | ar1:rho"),
        "--swap-at": dict(type=int, default=None, dest="swap_at"),
        "--sweep-alphas": dict(default="", dest="sweep_alphas"),
        "--seeds": dict(type=int, default=1),
    }),
    "moments": (_cmd_moments, "closed-form moment table", ("--alpha", "--p", *_OUT), {
        "--t-max": dict(type=int, required=True, dest="t_max"),
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it was,
    and help is laid out for the terminal width at the time it is printed."""
    parser = argparse.ArgumentParser(
        prog="antlion",
        description="Antlion random walk: exact enumeration, Monte Carlo, "
        "reachability, residence times, CvM distances, bandit simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, help, flags, arguments) in COMMANDS.items():
        sp = sub.add_parser(name, help=help)
        for flag in flags:
            sp.add_argument(flag, **_SHARED[flag])
        for flag, kwargs in arguments.items():
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        specs = list(args.func(args))
        paths = [out_dir / f"{spec.name}{SUFFIXES[args.format]}" for spec in specs]
        write_tables([(p, s) for p, s in zip(paths, specs) if isinstance(s, Table)], args.format)
        outputs = [
            _write_json(out_dir, *s) if isinstance(s, Summary) else p for p, s in zip(paths, specs)
        ]
        _manifest(out_dir, args.subcommand, args, outputs, started)
    except (ValueError, TypeError, ResourceLimitError, OSError) as exc:
        print(f"antlion: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    finally:
        exact._level.cache_clear()  # no level walk outlives its command
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
