"""Seeded, reproducible Monte Carlo simulation of walk trajectories.

Walkers are partitioned into fixed-size chunks and every chunk owns a
counter-based Philox stream derived from ``SeedSequence(seed, spawn_key=
(chunk_index,))``. The stream a walker consumes therefore depends only on
``(seed, walker_index)`` and never on how chunks get scheduled, which is what
makes ``(params, n_walkers, seed)`` reproduce bit-identical output no matter
how the work is partitioned.

``simulate`` and ``simulate_finals`` use that freedom: one worker thread per
CPU the process may run on (``os.sched_getaffinity``, else ``os.cpu_count``),
at most one per chunk, takes chunks from a shared counter. Each chunk is
walked by one thread with its own stream and writes only its own walkers of
the output, so the worker count and the order in which chunks finish cannot
change a bit. Philox fills and the ufunc loops release the interpreter lock,
so the threads overlap.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Alpha, DiscreteCdf, WalkParams, check_elements, philox_stream

__all__ = [
    "STREAM_CHUNK",
    "DEFAULT_WALKERS",
    "TrajectoryBatch",
    "Ecdf",
    "simulate",
    "simulate_finals",
    "simulate_simple_rw",
    "empirical_cdf",
    "residence_times",
]

# Part of the determinism contract: changing it changes every stream.
STREAM_CHUNK = 4096

DEFAULT_WALKERS = 50_000

# Steps drawn and walked per stream call; any value gives the same bits.
_TILE = 16

_MODES = ("finals", "paths", "residence")


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Simulated walkers: final positions or full paths.

    ``positions`` is ``(n_walkers,)`` in finals and residence mode and
    ``(n_walkers, t+1)`` in paths mode with column 0 holding the common start
    at 0. ``nonneg_steps`` is set in residence mode only: per walker, the
    number of steps ``s in 1..t`` with ``X_s >= 0``. Treat both as
    immutable; batches are shared freely.
    """

    params: WalkParams
    n_walkers: int
    seed: int
    mode: str
    positions: np.ndarray
    nonneg_steps: Optional[np.ndarray] = None

    @property
    def t(self) -> int:
        return self.params.t

    @property
    def finals(self) -> np.ndarray:
        if self.mode == "paths":
            return self.positions[:, -1]
        return self.positions


def _worker_count(n_chunks: int) -> int:
    """One worker per CPU this process may run on, at most one per chunk."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_chunks))


def _simulate_chunks(claim, seed, a, p, t, finals, paths, counts) -> None:
    """Walk every chunk that ``claim()`` hands out until it returns None.

    Each call owns its tile buffers. ``gen.random(out=u[:m])`` consumes the
    chunk's stream exactly like ``m`` draws of ``STREAM_CHUNK`` each, so a
    tile of ``m`` steps sees the same uniforms as ``m`` single steps. Every
    alpha ``a[j, 0]`` takes the tile's steps, walked in place in row ``j``
    of ``finals``. With one alpha, each step's row 0 is copied into a tile,
    from which ``paths`` gets every position and ``counts`` the chunk's
    non-negative-step counts.
    """
    n = finals.shape[1]
    u = np.empty((_TILE, STREAM_CHUNK))
    xi = np.empty((_TILE, STREAM_CHUNK))
    xs = None if paths is None and counts is None else np.empty((_TILE, STREAM_CHUNK))
    while (chunk := claim()) is not None:
        start = chunk * STREAM_CHUNK
        stop = min(start + STREAM_CHUNK, n)
        size = stop - start
        gen = philox_stream(seed, chunk)
        x = finals[:, start:stop]
        x.fill(0.0)
        for s0 in range(0, t, _TILE):
            m = min(_TILE, t - s0)
            # Draw the full chunk width even on the tail chunk so a walker's
            # stream depends only on (seed, walker_index), not on n_walkers:
            # growing a run extends it, never reshuffles.
            gen.random(out=u[:m])
            step = xi[:m, :size]
            np.less(u[:m, :size], p, out=step)
            step *= -2.0
            step += 1.0  # exactly -1.0 where u < p, +1.0 elsewhere
            tile = None if xs is None else xs[:m, :size]
            for r in range(m):
                x *= a
                x += step[r]
                if tile is not None:
                    tile[r] = x[0]
            if paths is not None:
                paths[start:stop, s0 + 1 : s0 + m + 1] = tile.T
            if counts is not None:
                counts[start:stop] += (tile >= 0.0).sum(axis=0)
        if paths is not None:
            paths[start:stop, 0] = 0.0


def _walk(alphas, p: float, t: int, n_walkers: int, seed: int, mode: str = "finals"):
    """Walk ``n_walkers`` walkers at every alpha on worker threads; return
    the ``(k, n_walkers)`` finals, the paths (``mode="paths"``) or None and
    the non-negative-step counts (``mode="residence"``) or None."""
    if n_walkers < 1:
        raise ValueError("n_walkers must be at least 1")
    check_elements(n_walkers * (t + 1), f"{n_walkers} walkers over {t + 1} positions")
    check_elements(n_walkers * len(alphas), f"{n_walkers} walkers at {len(alphas)} alphas")
    finals = np.empty((len(alphas), n_walkers))
    paths = np.empty((n_walkers, t + 1)) if mode == "paths" else None
    counts = np.zeros(n_walkers, dtype=np.int64) if mode == "residence" else None
    a = np.array(alphas, dtype=np.float64)[:, None]
    n_chunks = -(-n_walkers // STREAM_CHUNK)
    chunks = iter(range(n_chunks))
    lock = threading.Lock()
    errors = []

    def claim():
        with lock:
            return None if errors else next(chunks, None)

    def work():
        try:
            _simulate_chunks(claim, seed, a, p, t, finals, paths, counts)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(_worker_count(n_chunks) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return finals, paths, counts


def simulate(
    params: WalkParams,
    n_walkers: int = DEFAULT_WALKERS,
    seed: int = 0,
    mode: str = "finals",
) -> TrajectoryBatch:
    """Simulate ``n_walkers`` independent walks from ``X_0 = 0``.

    ``mode`` is ``"finals"`` (final positions only), ``"paths"`` (every
    intermediate position) or ``"residence"`` (final positions plus each
    walker's count of non-negative steps, without the path matrix).
    Identical inputs produce bit-identical batches.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {', '.join(map(repr, _MODES))}, got {mode!r}")
    alpha = params.alpha.as_float
    finals, paths, counts = _walk([alpha], float(params.p), params.t, n_walkers, seed, mode)
    positions = finals[0] if paths is None else paths
    return TrajectoryBatch(params, n_walkers, seed, mode, positions, counts)


def simulate_finals(
    alphas, t: int, n_walkers: int = DEFAULT_WALKERS, seed: int = 0, p=0.5
) -> np.ndarray:
    """Final positions of the same ``n_walkers`` walks at each alpha.

    Every alpha reads the same streams, so each chunk's steps are drawn
    once for all of them. Row ``j`` of the ``(len(alphas), n_walkers)``
    result is ``simulate(WalkParams(Alpha.from_real(alphas[j]), p, t),
    n_walkers, seed).finals`` bit for bit.
    """
    for alpha in alphas:
        WalkParams(Alpha.from_real(alpha), p, t)  # checks alpha, p and t
    return _walk(alphas, float(p), t, n_walkers, seed)[0]


def simulate_simple_rw(t: int, n_walkers: int = DEFAULT_WALKERS, seed: int = 0) -> TrajectoryBatch:
    """Symmetric simple random walk (the alpha = 1 reduction)."""
    params = WalkParams(alpha=Alpha.from_real(1.0), p=0.5, t=t)
    return simulate(params, n_walkers, seed)


class Ecdf(DiscreteCdf):
    """Empirical CDF: the step CDF that gives each of the ``n`` sample values
    weight ``1/n``, so ``cum[i]`` is exactly ``(i + 1) / n``."""

    def __init__(self, values):
        self.xs = np.sort(np.asarray(values, dtype=np.float64))
        n = self.xs.size
        if n == 0:
            raise ValueError("cannot build an empirical CDF from an empty sample")
        self.cum = np.arange(1, n + 1, dtype=np.float64)
        self.cum /= n

    def sup_distance(self, cdf) -> float:
        """Kolmogorov-style sup distance to a reference CDF callable."""
        ref = np.asarray([float(cdf(v)) for v in self.xs])
        upper = np.abs(self.cum - ref).max()
        lower = np.abs(self.cum - 1.0 / self.xs.size - ref).max()
        return float(max(upper, lower))


def empirical_cdf(batch: TrajectoryBatch) -> Ecdf:
    """Empirical CDF of the batch's final positions."""
    return Ecdf(batch.finals)


def residence_times(batch: TrajectoryBatch) -> np.ndarray:
    """Per-walker count of steps ``s in 1..t`` with ``X_s >= 0``.

    Requires a residence-mode or paths-mode batch; finals-only batches lack
    the intermediate positions.
    """
    if batch.mode == "residence":
        return batch.nonneg_steps
    if batch.mode != "paths":
        raise ValueError("residence_times requires a residence-mode or paths-mode batch")
    return (batch.positions[:, 1:] >= 0.0).sum(axis=1)
