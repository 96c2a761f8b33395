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
import csv
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    compare_residence_to_binomial,
    cvm_distance,
    cvm_grid_table,
    exact_standardized_cdf,
    normal_cdf,
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
from .core import Alpha, WalkParams, closed_form_mean, closed_form_variance
from .exact import (
    HorizonTooLargeError,
    enumerate_distribution,
    exact_moments,
    exact_residence_distribution,
)
from .montecarlo import (
    DEFAULT_WALKERS,
    Ecdf,
    ResourceLimitError,
    empirical_cdf,
    residence_times,
    simulate,
    simulate_simple_rw,
)
from .reachability import ReachQuery, is_eps_reachable

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HORIZON = 3
EXIT_RESOURCE = 4
EXIT_IO = 5

CSV_SCHEMA_VERSION = 1

# Feasibility ceiling for the optional exact columns in `moments`.
_MOMENTS_EXACT_MAX_T = 20


def _parse_prob(text: str):
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        value = Fraction(int(num), int(den))
    else:
        value = float(text)
    if not 0 <= value <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {text}")
    return value


def _parse_grid(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("grid must be 'm1,m2,n'")
    m1, m2, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not m1 < m2 or n < 1:
        raise ValueError("grid requires m1 < m2 and n >= 1")
    return m1, m2, n


def _parse_t_list(text: str):
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, _, hi = chunk.partition("..")
            values.extend(range(int(lo), int(hi) + 1))
        else:
            values.append(int(chunk))
    if not values or any(t < 0 for t in values):
        raise ValueError(f"bad horizon list: {text!r}")
    return values


def _parse_signal(text: str):
    kind, _, rest = text.partition(":")
    if kind == "normal":
        return NormalSignal()
    if kind == "uniform":
        lo, _, hi = rest.partition(",")
        return UniformSignal(int(lo or -5), int(hi or 5))
    if kind == "ar1":
        return Ar1Signal(float(rest or -0.7))
    raise ValueError(f"unknown signal source {text!r}")


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_table(out_dir: Path, name: str, header, rows, fmt: str) -> Path:
    if fmt == "csv":
        path = out_dir / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt_cell(v) for v in row])
    elif fmt == "gnuplot":
        path = out_dir / f"{name}.dat"
        with open(path, "w") as fh:
            fh.write("# " + " ".join(header) + "\n")
            for row in rows:
                fh.write(" ".join(_fmt_cell(v) for v in row) + "\n")
    elif fmt == "json":
        path = out_dir / f"{name}.json"
        records = [
            {key: (v if not isinstance(v, float) else v) for key, v in zip(header, row)}
            for row in rows
        ]
        with open(path, "w") as fh:
            json.dump(records, fh, indent=2)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return path


def _write_json(out_dir: Path, name: str, payload: dict) -> Path:
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
        "duration_seconds": time.time() - started,
    }
    return _write_json(out_dir, f"{subcommand}_manifest", payload)


def _cmd_dist(args, out_dir: Path):
    alpha = Alpha.parse(args.alpha)
    p = _parse_prob(args.p)
    params = WalkParams(alpha=alpha, p=p, t=args.t)
    outputs = []
    if args.mode == "exact":
        dist = enumerate_distribution(params)
        den = dist.scale_denominator
        rows = [
            (scaled / den, scaled, k, float(dist.point_probability(scaled)))
            for scaled, k, _ in dist.items_sorted()
        ]
        outputs.append(
            _write_table(
                out_dir,
                "dist",
                ["position_real", "scaled_value", "k_minus_steps", "probability"],
                rows,
                args.format,
            )
        )
        cdf_rows = []
        running = 0.0
        for position, _, _, prob in rows:
            running = min(running + prob, 1.0)
            cdf_rows.append((position, running))
        outputs.append(
            _write_table(out_dir, "dist_cdf", ["position", "cdf"], cdf_rows, args.format)
        )
    else:
        mode = "paths" if args.store == "paths" else "finals"
        batch = simulate(params, n_walkers=args.n, seed=args.seed, mode=mode)
        finals = batch.finals
        rows = [(i, float(v)) for i, v in enumerate(finals)]
        outputs.append(
            _write_table(out_dir, "dist", ["walker_id", "position"], rows, args.format)
        )
        ecdf = empirical_cdf(batch)
        cdf_rows = [
            (float(v), float((i + 1) / ecdf.n)) for i, v in enumerate(ecdf.values)
        ]
        outputs.append(
            _write_table(out_dir, "dist_cdf", ["position", "cdf"], cdf_rows, args.format)
        )
        if mode == "paths":
            walk_rows = (
                (w, s, float(batch.positions[w, s]))
                for w in range(batch.n_walkers)
                for s in range(params.t + 1)
            )
            outputs.append(
                _write_table(
                    out_dir,
                    "trajectories",
                    ["walker_id", "step", "position"],
                    walk_rows,
                    args.format,
                )
            )
    return outputs


def _cvm_arw_cdf(alpha: Alpha, t: int, mode: str, n: int, seed: int):
    if mode == "exact":
        dist = enumerate_distribution(WalkParams(alpha=alpha, p=0.5, t=t))
        return exact_standardized_cdf(dist)
    batch = simulate(WalkParams(alpha=alpha, p=0.5, t=t), n_walkers=n, seed=seed)
    return Ecdf(standardize_arw(batch.finals, alpha.as_float, t))


def _cvm_srw_cdf(t: int, mode: str, n: int, seed: int):
    if mode == "exact":
        return simple_rw_exact_cdf(t)
    batch = simulate_simple_rw(t, n_walkers=n, seed=seed)
    return Ecdf(standardize_srw(batch.finals, t))


def _cmd_cvm(args, out_dir: Path):
    targets = [t.strip() for t in args.targets.split(",")]
    if any(t not in ("arw", "srw") for t in targets):
        raise ValueError("targets must be a comma list of 'arw'/'srw'")
    m1, m2, grid_n = _parse_grid(args.grid)
    t_values = _parse_t_list(args.t)
    alphas = [Alpha.parse(a) for a in args.alpha.split(",")] if args.alpha else []
    if "arw" in targets and not alphas:
        raise ValueError("target 'arw' requires --alpha")
    rows = []
    table_rows = []
    for t in t_values:
        for target in targets:
            if target == "arw":
                for alpha in alphas:
                    cdf = _cvm_arw_cdf(alpha, t, args.mode, args.n, args.seed)
                    res = cvm_distance(cdf, normal_cdf, m1, m2, grid_n)
                    rows.append(("arw", str(alpha), t, res.distance))
                    if args.grid_table:
                        for u, fu, fv, sq in cvm_grid_table(cdf, normal_cdf, m1, m2, grid_n):
                            table_rows.append(("arw", str(alpha), t, u, fu, fv, sq))
            else:
                cdf = _cvm_srw_cdf(t, args.mode, args.n, args.seed)
                res = cvm_distance(cdf, normal_cdf, m1, m2, grid_n)
                rows.append(("srw", "", t, res.distance))
                if args.grid_table:
                    for u, fu, fv, sq in cvm_grid_table(cdf, normal_cdf, m1, m2, grid_n):
                        table_rows.append(("srw", "", t, u, fu, fv, sq))
    outputs = [
        _write_table(
            out_dir, "cvm", ["target", "alpha", "t", "distance"], rows, args.format
        )
    ]
    if args.grid_table:
        outputs.append(
            _write_table(
                out_dir,
                "cvm_grid",
                ["target", "alpha", "t", "u", "f_target", "f_normal", "sq_diff"],
                table_rows,
                args.format,
            )
        )
    return outputs


def _cmd_residence(args, out_dir: Path):
    alpha = Alpha.parse(args.alpha)
    p = _parse_prob(args.p)
    params = WalkParams(alpha=alpha, p=p, t=args.t)
    if args.mode == "exact":
        pmf = exact_residence_distribution(params)
    else:
        batch = simulate(params, n_walkers=args.n, seed=args.seed, mode="paths")
        counts = np.bincount(residence_times(batch), minlength=args.t + 1)
        pmf = {j: counts[j] / batch.n_walkers for j in range(args.t + 1)}
    summary = compare_residence_to_binomial(pmf, args.t, p, alpha.as_float)
    rows = [
        (
            j,
            float(pmf.get(j, 0)),
            float(math.comb(args.t, j))
            * float(1 - float(p)) ** j
            * float(p) ** (args.t - j),
        )
        for j in range(args.t + 1)
    ]
    outputs = [
        _write_table(
            out_dir,
            "residence",
            ["t_plus", "probability", "binomial_probability"],
            rows,
            args.format,
        )
    ]
    outputs.append(
        _write_json(
            out_dir,
            "residence_summary",
            {
                "alpha": str(alpha),
                "p": str(p),
                "t": args.t,
                "mode": args.mode,
                "tv_distance": float(summary.tv_distance),
                "tv_distance_is_exact_zero": summary.tv_distance == 0,
                "binomial_condition_holds": summary.condition_holds,
            },
        )
    )
    return outputs


def _cmd_reach(args, out_dir: Path):
    alpha = Alpha.parse(args.alpha).as_float
    rows = []
    if args.sweep is not None:
        bound = 1.0 / (1.0 - alpha)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=args.seed))
        )
        targets = rng.uniform(-bound, bound, size=args.sweep)
    else:
        if args.r is None:
            raise ValueError("reach needs --r or --sweep")
        targets = [float(args.r)]
    for r in targets:
        result = is_eps_reachable(ReachQuery(alpha=alpha, r=float(r), epsilon=args.epsilon))
        rows.append(
            (alpha, float(r), args.epsilon, result.reachable, result.witness_depth)
        )
    return [
        _write_table(
            out_dir,
            "reach",
            ["alpha", "r", "epsilon", "reachable", "witness_depth"],
            rows,
            args.format,
        )
    ]


def _cmd_bandit(args, out_dir: Path):
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
    outputs = []
    if args.sweep_alphas:
        alphas = [float(a) for a in args.sweep_alphas.split(",")]
        rows = sweep_alpha(config, alphas, args.seeds, seed_base=args.seed)
        table = [
            (row.alpha, row.final_rate, row.last_window_rate) for row in rows
        ]
        outputs.append(
            _write_table(
                out_dir,
                "bandit_sweep",
                ["alpha", "final_correct_rate", "last_window_correct_rate"],
                table,
                args.format,
            )
        )
        stride = max(1, config.horizon // 200)
        outputs.append(
            _write_json(
                out_dir,
                "bandit_sweep_trajectories",
                {
                    "seed_base": args.seed,
                    "n_seeds": args.seeds,
                    "steps": list(range(0, config.horizon, stride)),
                    "trajectories": {
                        str(row.alpha): [
                            float(v)
                            for v in row.mean_correct_trajectory[::stride]
                        ]
                        for row in rows
                    },
                },
            )
        )
    else:
        trace = run_bandit(config, args.seed)
        rows = [
            (
                i,
                float(trace.signal[i]),
                float(trace.theta[i]),
                "A" if trace.arm_a[i] else "B",
                int(trace.reward[i]),
                float(trace.xi[i]),
                float(trace.x[i]),
            )
            for i in range(config.horizon)
        ]
        outputs.append(
            _write_table(
                out_dir,
                "bandit_trace",
                ["step", "s", "theta", "arm", "reward", "xi", "x"],
                rows,
                args.format,
            )
        )
        outputs.append(
            _write_json(
                out_dir,
                "bandit_summary",
                {
                    "seed": args.seed,
                    "selection_rate_a": trace.selection_rate_a,
                    "correct_rate": trace.correct_rate(),
                    "last_1000_correct_rate": trace.correct_rate(
                        last=min(1000, config.horizon)
                    ),
                },
            )
        )
    return outputs


def _cmd_moments(args, out_dir: Path):
    alpha = Alpha.parse(args.alpha)
    p = _parse_prob(args.p)
    include_exact = alpha.exact
    header = ["t", "mean", "variance"]
    if include_exact:
        header += ["exact_mean", "exact_variance"]
    rows = []
    for t in range(1, args.t_max + 1):
        params = WalkParams(alpha=alpha, p=p, t=t)
        row = [t, float(closed_form_mean(params)), float(closed_form_variance(params))]
        if include_exact:
            if t <= _MOMENTS_EXACT_MAX_T:
                mean, var = exact_moments(enumerate_distribution(params))
                row += [float(mean), float(var)]
            else:
                row += ["", ""]
        rows.append(tuple(row))
    return [_write_table(out_dir, "moments", header, rows, args.format)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antlion",
        description="Antlion random walk: exact enumeration, Monte Carlo, "
        "reachability, residence times, CvM distances, bandit simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument(
            "--format", choices=("csv", "json", "gnuplot"), default="csv"
        )

    sp = sub.add_parser("dist", help="distribution of the walk at a horizon")
    sp.add_argument("--alpha", required=True, help="memory parameter, 'm/n' or decimal")
    sp.add_argument("--p", default="0.5", help="minus-step probability")
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--mode", choices=("exact", "mc"), default="exact")
    sp.add_argument("--n", type=int, default=DEFAULT_WALKERS)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--store",
        choices=("finals", "paths"),
        default="finals",
        help="mc mode: also dump full trajectories (large files)",
    )
    common(sp)
    sp.set_defaults(func=_cmd_dist)

    sp = sub.add_parser("cvm", help="CvM distance to the standard normal")
    sp.add_argument("--targets", default="arw,srw")
    sp.add_argument("--alpha", default="", help="comma list for the arw target")
    sp.add_argument("--t", required=True, help="horizons, e.g. '1..15' or '15,60'")
    sp.add_argument("--mode", choices=("exact", "mc"), default="exact")
    sp.add_argument("--grid", default="-3,3,600", help="m1,m2,n")
    sp.add_argument("--n", type=int, default=DEFAULT_WALKERS)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--grid-table",
        action="store_true",
        dest="grid_table",
        help="also write the per-point CDF tabulation",
    )
    common(sp)
    sp.set_defaults(func=_cmd_cvm)

    sp = sub.add_parser("residence", help="positive-side residence time law")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--p", default="0.5")
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--mode", choices=("exact", "mc"), default="exact")
    sp.add_argument("--n", type=int, default=DEFAULT_WALKERS)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(func=_cmd_residence)

    sp = sub.add_parser("reach", help="epsilon-reachability of targets")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--sweep", type=int, default=None, help="number of random targets")
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(func=_cmd_reach)

    sp = sub.add_parser("bandit", help="two-armed bandit threshold simulation")
    sp.add_argument("--alpha", default="1.0")
    sp.add_argument("--k", type=float, default=1.0)
    sp.add_argument("--delta", type=float, default=1.0)
    sp.add_argument("--omega", type=float, default=1.0)
    sp.add_argument("--pa", type=float, required=True)
    sp.add_argument("--pb", type=float, required=True)
    sp.add_argument("--horizon", type=int, required=True)
    sp.add_argument("--signal", default="normal", help="normal | uniform:lo,hi | ar1:rho")
    sp.add_argument("--swap-at", type=int, default=None, dest="swap_at")
    sp.add_argument("--sweep-alphas", default="", dest="sweep_alphas")
    sp.add_argument("--seeds", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(func=_cmd_bandit)

    sp = sub.add_parser("moments", help="closed-form moment table")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--p", default="0.5")
    sp.add_argument("--t-max", type=int, required=True, dest="t_max")
    common(sp)
    sp.set_defaults(func=_cmd_moments)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = args.func(args, out_dir)
        _manifest(out_dir, args.subcommand, args, outputs, started)
    except HorizonTooLargeError as exc:
        print(f"antlion: {exc}", file=sys.stderr)
        return EXIT_HORIZON
    except ResourceLimitError as exc:
        print(f"antlion: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, TypeError) as exc:
        print(f"antlion: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"antlion: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
