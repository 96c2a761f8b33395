"""Seeded, reproducible Monte Carlo simulation of walk trajectories.

Walkers are partitioned into fixed-size chunks and every chunk owns a
counter-based Philox stream derived from ``SeedSequence(seed, spawn_key=
(chunk_index,))``. The stream a walker consumes therefore depends only on
``(seed, walker_index)`` and never on how chunks get scheduled, which is what
makes ``(params, n_walkers, seed)`` reproduce bit-identical output no matter
how the work is partitioned.

``simulate`` and ``simulate_finals`` use that freedom: one worker thread per
CPU the process may run on (``os.sched_getaffinity``, else ``os.cpu_count``),
at most one per block, takes blocks of up to ``_BLOCK_CHUNKS`` consecutive
chunks from a shared counter. Each chunk of a block draws its own stream
into its own columns of the block's step tile, and one thread walks the
block into its own walkers of each step's output row, so neither the worker
count nor the order in which blocks finish can change a bit. Philox fills
and the ufunc loops release the interpreter lock, so the threads overlap.
Paths mode keeps a row per step, so its ``(n_walkers, t + 1)`` positions
are a transposed view, which ``.ravel()`` copies whole.

A step is read off the stream's raw 64-bit words: numpy's uniform double is
``(word >> 11) * 2**-53``, so ``word < _minus_threshold(p)`` is
``Generator.random() < p`` bit for bit, without building the doubles. A
step is a sign bit, set where the word is at or above the threshold, laid
on the bits of -1.0. At ``p = 1/2`` it is the word's own top bit.
"""

from __future__ import annotations

import math
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

# Consecutive chunks walked together, so that each walk call covers up to
# this many chunks' walkers; two split the 13 chunks of 50 000 walkers 7 : 6
# over two workers. Any value gives the same bits.
_BLOCK_CHUNKS = 2

# A step tile holds _TILE * STREAM_CHUNK values (512 KB) whatever the
# block's width: a block of k chunks draws _TILE // k steps per stream call
# (16 for one chunk, 8 for a full block). Any value gives the same bits.
_TILE = 16

# Steps a walker's one-byte residence tally holds before it is added into
# the int64 counts.
_TALLY = 255

_SIGN = np.uint64(1 << 63)  # a double's sign bit, and the threshold at p = 1/2
_MINUS_ONE_BITS = np.uint64(0xBFF0000000000000)  # the bits of -1.0

_MODES = ("finals", "paths", "residence")


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Simulated walkers: final positions or full paths.

    ``positions`` is ``(n_walkers,)`` in finals and residence mode and
    ``(n_walkers, t+1)`` in paths mode with column 0 holding the common start
    at 0, a transposed view that ``.ravel()`` copies whole and ``.flat`` reads
    in place. ``nonneg_steps`` is set in paths and residence mode, counted by
    the walk itself: per walker, the number of steps ``s in 1..t`` with
    ``X_s >= 0``. Treat both as immutable; batches are shared freely.
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


def _worker_count(n_blocks: int) -> int:
    """One worker per CPU this process may run on, at most one per block."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_blocks))


def _minus_threshold(p: float) -> int:
    """The raw word below which a step is -1: ``ceil(p * 2**53) * 2**11``.

    numpy's double is ``(word >> 11) * 2**-53``, which is below ``p``
    exactly when ``word >> 11 < ceil(p * 2**53)``, that is when ``word`` is
    below the threshold. At ``p = 1`` it is ``2**64``, a Python int that
    numpy compares with every uint64 word exactly, so every step is -1.
    """
    return math.ceil(p * 2**53) << 11


def _simulate_blocks(claim, seed, a, p, t, rows, counts) -> None:
    """Walk every block of chunks that ``claim()`` hands out until it
    returns None.

    Each call owns its step tile. ``random_raw((m, STREAM_CHUNK))`` consumes
    a chunk's stream exactly like ``m`` draws of ``STREAM_CHUNK`` words
    each, so a tile of ``m`` steps sees the same words as ``m`` single
    steps. Step ``s`` writes ``a`` times the walk so far plus step ``s``
    into the block's columns of row ``s`` of the step-major ``rows`` (alpha
    ``a[j, 0]`` in ``rows[:, j]``), or of row 0 in place when ``rows`` keeps
    one, and adds alpha 0's non-negative positions to ``counts`` if given,
    through a one-byte tally emptied into ``counts`` every ``_TALLY`` steps.
    """
    keep = len(rows) > 1
    minus = _minus_threshold(p)
    half = minus == 1 << 63  # p = 1/2: a step is -1 where the word's top bit is clear
    xi = np.empty(_TILE * STREAM_CHUNK)
    while (chunks := claim()) is not None:
        start = chunks.start * STREAM_CHUNK
        stop = min(chunks.stop * STREAM_CHUNK, rows.shape[2])
        width = stop - start
        streams = [philox_stream(seed, chunk).bit_generator for chunk in chunks]
        depth = _TILE // len(chunks)
        x = rows[0, :, start:stop]
        x.fill(0.0)
        nonneg = np.empty(width, dtype=bool)
        tally = np.zeros(width, dtype=np.uint8)
        for s0 in range(0, t, depth):
            m = min(depth, t - s0)
            step = xi[: m * width].reshape(m, width)
            bits = step.view(np.uint64)
            for col, stream in zip(range(0, width, STREAM_CHUNK), streams):
                cols = bits[:, col : col + STREAM_CHUNK]
                # Draw the full chunk width even on the tail chunk so a
                # walker's stream depends only on (seed, walker_index), not
                # on n_walkers: growing a run extends it, never reshuffles.
                words = stream.random_raw((m, STREAM_CHUNK))[:, : cols.shape[1]]
                if half:
                    np.bitwise_and(words, _SIGN, out=cols)
                else:  # a +1 step's word is at or above the threshold
                    np.greater_equal(words, minus, out=cols)
                    np.left_shift(cols, 63, out=cols)
                del words  # before the next chunk's words are drawn
            np.bitwise_xor(bits, _MINUS_ONE_BITS, out=bits)  # a set sign bit turns -1.0 into +1.0
            for s, xi_s in enumerate(step, s0 + 1):
                x = np.multiply(x, a, out=rows[s, :, start:stop] if keep else x)
                x += xi_s
                if counts is not None:
                    np.greater_equal(x[0], 0.0, out=nonneg)
                    np.add(tally, nonneg.view(np.uint8), out=tally)
                    if s % _TALLY == 0 or s == t:
                        counts[start:stop] += tally
                        tally.fill(0)


def _walk(alphas, p: float, t: int, n_walkers: int, seed: int, mode: str = "finals"):
    """Walk ``n_walkers`` walkers at every alpha on worker threads; return
    the step-major positions, ``(t + 1, k, n_walkers)`` in paths mode and
    ``(1, k, n_walkers)`` otherwise, whose last row is the finals, and the
    non-negative-step counts (paths and residence mode) or None."""
    if n_walkers < 1:
        raise ValueError("n_walkers must be at least 1")
    check_elements(n_walkers * (t + 1), f"{n_walkers} walkers over {t + 1} positions")
    check_elements(n_walkers * len(alphas), f"{n_walkers} walkers at {len(alphas)} alphas")
    rows = np.empty((t + 1 if mode == "paths" else 1, len(alphas), n_walkers))
    counts = None if mode == "finals" else np.zeros(n_walkers, dtype=np.int64)
    a = np.array(alphas, dtype=np.float64)[:, None]
    n_chunks = -(-n_walkers // STREAM_CHUNK)
    blocks = [range(c, min(c + _BLOCK_CHUNKS, n_chunks)) for c in range(0, n_chunks, _BLOCK_CHUNKS)]
    pending = iter(blocks)
    lock = threading.Lock()
    errors = []

    def claim():
        with lock:
            return None if errors else next(pending, None)

    def work():
        try:
            _simulate_blocks(claim, seed, a, p, t, rows, counts)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(_worker_count(len(blocks)) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return rows, counts


def simulate(
    params: WalkParams,
    n_walkers: int = DEFAULT_WALKERS,
    seed: int = 0,
    mode: str = "finals",
) -> TrajectoryBatch:
    """Simulate ``n_walkers`` independent walks from ``X_0 = 0``.

    ``mode`` is ``"finals"`` (final positions only), ``"paths"`` (every
    intermediate position) or ``"residence"`` (final positions only). Paths
    and residence batches also carry each walker's count of non-negative
    steps, which residence mode gets without the path matrix.
    Identical inputs produce bit-identical batches.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {', '.join(map(repr, _MODES))}, got {mode!r}")
    alpha = params.alpha.as_float
    rows, counts = _walk([alpha], float(params.p), params.t, n_walkers, seed, mode)
    positions = rows[:, 0].T if mode == "paths" else rows[-1, 0]
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
    return _walk(alphas, float(p), t, n_walkers, seed)[0][-1]


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
    """Per-walker count of steps ``s in 1..t`` with ``X_s >= 0``: the
    batch's ``nonneg_steps``, which the walk counts in residence and paths
    mode. Finals-only batches never see the intermediate positions.
    """
    if batch.nonneg_steps is None:
        raise ValueError("residence_times requires a residence-mode or paths-mode batch")
    return batch.nonneg_steps
