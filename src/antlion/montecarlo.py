"""Seeded, reproducible Monte Carlo simulation of walk trajectories.

Walkers are partitioned into fixed-size chunks and every chunk owns a
counter-based Philox stream derived from ``SeedSequence(seed, spawn_key=
(chunk_index,))``. The stream a walker consumes therefore depends only on
``(seed, walker_index)`` and never on how chunks get scheduled, which is what
makes ``(params, n_walkers, seed)`` reproduce bit-identical output no matter
how the work is partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Alpha, DiscreteCdf, ResourceLimitError, WalkParams

__all__ = [
    "STREAM_CHUNK",
    "DEFAULT_WALKERS",
    "ResourceLimitError",
    "TrajectoryBatch",
    "Ecdf",
    "simulate",
    "simulate_simple_rw",
    "empirical_cdf",
    "residence_times",
]

# Part of the determinism contract: changing it changes every stream.
STREAM_CHUNK = 4096

DEFAULT_WALKERS = 50_000

# n_walkers * (t + 1) guard; 2e8 float64 values is ~1.6 GB.
DEFAULT_ELEMENT_LIMIT = 200_000_000


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Simulated walkers: final positions or full paths.

    ``positions`` is ``(n_walkers,)`` in finals mode and ``(n_walkers, t+1)``
    in paths mode with column 0 holding the common start at 0. Treat it as
    immutable; batches are shared freely.
    """

    params: WalkParams
    n_walkers: int
    seed: int
    mode: str
    positions: np.ndarray

    @property
    def t(self) -> int:
        return self.params.t

    @property
    def finals(self) -> np.ndarray:
        if self.mode == "paths":
            return self.positions[:, -1]
        return self.positions


def _chunk_stream(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(ss))


def simulate(
    params: WalkParams,
    n_walkers: int = DEFAULT_WALKERS,
    seed: int = 0,
    mode: str = "finals",
    *,
    element_limit: int = DEFAULT_ELEMENT_LIMIT,
) -> TrajectoryBatch:
    """Simulate ``n_walkers`` independent walks from ``X_0 = 0``.

    ``mode`` is ``"finals"`` (final positions only) or ``"paths"`` (every
    intermediate position, needed for residence times). Identical inputs
    produce bit-identical batches.
    """
    if mode not in ("finals", "paths"):
        raise ValueError(f"mode must be 'finals' or 'paths', got {mode!r}")
    if n_walkers < 1:
        raise ValueError("n_walkers must be at least 1")
    t = params.t
    if n_walkers * (t + 1) > element_limit:
        raise ResourceLimitError(
            f"n_walkers * (t+1) = {n_walkers * (t + 1)} exceeds the element "
            f"limit {element_limit}"
        )
    a = params.alpha.as_float
    p = float(params.p)
    paths = mode == "paths"
    out = np.empty((n_walkers, t + 1) if paths else n_walkers, dtype=np.float64)
    for start in range(0, n_walkers, STREAM_CHUNK):
        stop = min(start + STREAM_CHUNK, n_walkers)
        size = stop - start
        gen = _chunk_stream(seed, start // STREAM_CHUNK)
        x = np.zeros(size, dtype=np.float64)
        if paths:
            out[start:stop, 0] = 0.0
        for s in range(1, t + 1):
            # Draw the full chunk width even on the tail chunk so a walker's
            # stream depends only on (seed, walker_index), not on n_walkers:
            # growing a run extends it, never reshuffles.
            u = gen.random(STREAM_CHUNK)[:size]
            x = a * x + np.where(u < p, -1.0, 1.0)
            if paths:
                out[start:stop, s] = x
        if not paths:
            out[start:stop] = x
    return TrajectoryBatch(params, n_walkers, seed, mode, out)


def simulate_simple_rw(
    t: int,
    n_walkers: int = DEFAULT_WALKERS,
    seed: int = 0,
    mode: str = "finals",
    *,
    element_limit: int = DEFAULT_ELEMENT_LIMIT,
) -> TrajectoryBatch:
    """Symmetric simple random walk (the alpha = 1 reduction)."""
    params = WalkParams(alpha=Alpha.from_real(1.0), p=0.5, t=t)
    return simulate(params, n_walkers, seed, mode, element_limit=element_limit)


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

    Requires a paths-mode batch; finals-only batches lack the intermediate
    positions.
    """
    if batch.mode != "paths":
        raise ValueError("residence_times requires a paths-mode batch")
    return (batch.positions[:, 1:] >= 0.0).sum(axis=1)
