"""Two-armed bandit driven by a walk-valued threshold adjuster.

At each step a signal ``s_t`` is compared against the threshold
``theta = k * [X]`` (``[.]`` nearest integer): arm A is played when
``s_t >= theta``, arm B otherwise. The outcome moves the adjuster,

    rewarded A  -> xi = -delta        rewarded B  -> xi = +delta
    failed A    -> xi = +omega        failed B    -> xi = -omega

and ``X <- alpha * X + xi``. A reward pulls the threshold toward the arm
just played, a failure pushes it away; ``alpha < 1`` caps how much past
preference can accumulate. With ``k = delta = omega = 1`` and ``alpha = 1``
the adjuster is an integer +-1 walk and ``theta`` equals ``X``.

Signal sources are pluggable. The chaotic laser input of the hardware
systems this models is out of scope; uniform-integer, Gaussian, and lag-1
autocorrelated Gaussian surrogates cover the stochastic readings.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import check_elements, philox_stream

__all__ = [
    "UniformSignal",
    "NormalSignal",
    "Ar1Signal",
    "BanditConfig",
    "BanditTrace",
    "AlphaSweepRow",
    "nearest_integer",
    "run_bandit",
    "sweep_alpha",
]


# Trailing steps of `AlphaSweepRow.last_window_rate`; read at call time.
LAST_WINDOW = 1000


def nearest_integer(x: float) -> int:
    """Closest integer with .5 ties rounded away from zero."""
    return math.trunc(x + math.copysign(0.5, x))


@dataclass(frozen=True)
class UniformSignal:
    """Uniform integer signal on ``low..high`` inclusive."""

    low: int = -5
    high: int = 5

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise ValueError("signal range must satisfy low < high")

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.integers(self.low, self.high + 1, size=n).astype(np.float64)


@dataclass(frozen=True)
class NormalSignal:
    """Standard normal signal."""

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_normal(n)


@dataclass(frozen=True)
class Ar1Signal:
    """Stationary lag-1 autocorrelated Gaussian signal with unit variance.

    ``rho < 0`` emulates the negatively autocorrelated inputs known to speed
    decisions up.
    """

    rho: float = -0.7

    def __post_init__(self) -> None:
        if not (-1.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (-1, 1)")

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        noise = rng.standard_normal(n) * math.sqrt(1.0 - self.rho * self.rho)
        prev, out = rng.standard_normal(), []
        for e in noise.tolist():
            prev = self.rho * prev + e
            out.append(prev)
        return np.array(out, dtype=np.float64)


SignalSource = Union[UniformSignal, NormalSignal, Ar1Signal]


@dataclass(frozen=True)
class BanditConfig:
    """Full configuration of one bandit run.

    ``swap_at``, when set, exchanges the two reward probabilities from that
    step on (an environment change mid-run).
    """

    p_a: float
    p_b: float
    horizon: int
    k: float = 1.0
    alpha: float = 1.0
    delta: float = 1.0
    omega: float = 1.0
    signal: SignalSource = NormalSignal()
    swap_at: Optional[int] = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_a <= 1.0 and 0.0 <= self.p_b <= 1.0):
            raise ValueError("reward probabilities must lie in [0, 1]")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not all(0 < v < math.inf for v in (self.k, self.delta, self.omega)):
            raise ValueError("k, delta, omega must be positive and finite")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        # |X| stays below max(delta, omega) * sum_{i < horizon} alpha^i.
        steps = self.horizon if self.alpha == 1.0 else min(self.horizon, 1 / (1 - self.alpha))
        x_bound = max(self.delta, self.omega) * steps
        if math.isinf(x_bound) or math.isinf(self.k * x_bound):
            raise ValueError(
                f"step sizes k={self.k}, delta={self.delta}, omega={self.omega} overflow "
                f"the adjuster or its threshold within {self.horizon} steps at alpha={self.alpha}"
            )
        if self.swap_at is not None and self.swap_at < 0:
            raise ValueError("swap_at must be nonnegative")


@dataclass(frozen=True, eq=False)
class BanditTrace:
    """Per-step record of one run.

    ``arm_a[i]`` is True when arm A was played at step i; ``x`` and ``theta``
    hold the adjuster and threshold after the step's update, so replaying
    ``xi`` through the update reproduces ``x`` bit for bit.
    """

    config: BanditConfig
    signal: np.ndarray
    arm_a: np.ndarray
    reward: np.ndarray
    xi: np.ndarray
    x: np.ndarray
    theta: np.ndarray
    correct: np.ndarray

    @property
    def selection_rate_a(self) -> float:
        return float(self.arm_a.mean())

    def correct_rate_over_time(self) -> np.ndarray:
        """Running fraction of steps that chose the better arm."""
        steps = np.arange(1, self.config.horizon + 1, dtype=np.float64)
        return np.cumsum(self.correct) / steps

    def correct_rate(self, last: Optional[int] = None) -> float:
        """Fraction of correct choices over the run, or over its ``last``
        steps (all of them when ``last`` exceeds the horizon)."""
        if last is None:
            return float(self.correct.mean())
        if last < 1:
            raise ValueError(f"last must be at least 1, got {last}")
        return float(self.correct[-last:].mean())


class _StepRule(NamedTuple):
    """The rules of every step that do not look at the step before.

    Arrays run over steps on axis 0; trailing axes are lanes and broadcast
    against the lanes of ``play_a``.
    """

    xi_a: np.ndarray  # the adjuster's step if arm A is played
    xi_b: np.ndarray  # ... and if arm B is
    won_a: np.ndarray
    won_b: np.ndarray
    better_a: np.ndarray  # arm A pays more at this step (after any swap)
    tie: np.ndarray

    def reward(self, play_a: np.ndarray) -> np.ndarray:
        return np.where(play_a, self.won_a, self.won_b)

    def correct(self, play_a: np.ndarray) -> np.ndarray:
        return (play_a == self.better_a) | self.tie


def _step_rule(config: BanditConfig, reward_u: np.ndarray) -> _StepRule:
    """The swap, the reward draws and each arm's adjuster step for the
    reward uniforms ``reward_u`` (one per step, any lane shape)."""
    swapped = np.zeros(config.horizon, dtype=bool)
    if config.swap_at is not None:
        swapped[config.swap_at :] = True
    per_step = (-1,) + (1,) * (reward_u.ndim - 1)
    pa = np.where(swapped, config.p_b, config.p_a).reshape(per_step)
    pb = np.where(swapped, config.p_a, config.p_b).reshape(per_step)
    won_a, won_b = reward_u < pa, reward_u < pb
    # A reward pulls the threshold toward the arm played, a failure away.
    xi_a = np.where(won_a, -config.delta, config.omega)
    xi_b = np.where(won_b, config.delta, -config.omega)
    return _StepRule(xi_a, xi_b, won_a, won_b, pa > pb, pa == pb)


def run_bandit(
    config: BanditConfig, seed: Union[int, np.random.SeedSequence]
) -> BanditTrace:
    """Execute one run, deterministic under ``(config, seed)``.

    Signal values and reward uniforms are drawn up front (one of each per
    step) so runs with matched seeds stay draw-aligned across alphas.
    """
    h = config.horizon
    # The per-step arrays below take under 8 words a step.
    check_elements(8 * h, f"a bandit run of {h} steps")
    rng = philox_stream(seed)
    sig = config.signal.generate(rng, h)
    rule = _step_rule(config, rng.random(h))

    # The threshold recursion on Python floats. C buffers, unlike lists of
    # float objects, keep the run within its size budget.
    k, alpha = config.k, config.alpha
    x = 0.0
    theta = k * nearest_integer(0.0)
    plays, xs, thetas = bytearray(), array("d"), array("d")
    for s, xi_a, xi_b in zip(sig.tolist(), rule.xi_a.tolist(), rule.xi_b.tolist()):
        play = s >= theta
        x = alpha * x + (xi_a if play else xi_b)
        theta = k * nearest_integer(x)
        plays.append(play)
        xs.append(x)
        thetas.append(theta)
    arm_a = np.frombuffer(plays, dtype=bool)
    xi = np.where(arm_a, rule.xi_a, rule.xi_b)
    x_arr, theta_arr = np.frombuffer(xs), np.frombuffer(thetas)
    return BanditTrace(
        config, sig, arm_a, rule.reward(arm_a), xi, x_arr, theta_arr, rule.correct(arm_a)
    )


@dataclass(frozen=True, eq=False)
class AlphaSweepRow:
    alpha: float
    mean_correct_trajectory: np.ndarray
    final_rate: float
    last_window_rate: float


def _lockstep_correct(
    config: BanditConfig, alphas: Sequence[float], n_seeds: int, seed_base: int
) -> np.ndarray:
    """``correct[i, a, j]`` of ``run_bandit`` at ``alphas[a]`` and stream ``j``.

    All ``len(alphas) * n_seeds`` runs advance together, one vector op per
    step over every lane. Lane ``(a, j)`` draws from ``SeedSequence(seed_base,
    spawn_key=(j,))``, shares ``run_bandit``'s step rule and does the same
    float operations in the same order, so its trace is the same bit for bit.
    """
    h = config.horizon
    signal = np.empty((h, n_seeds))
    reward_u = np.empty((h, n_seeds))
    for j in range(n_seeds):
        rng = philox_stream(seed_base, j)
        signal[:, j] = config.signal.generate(rng, h)
        reward_u[:, j] = rng.random(h)
    rule = _step_rule(config, reward_u[:, None, :])  # lanes (1 alpha, n_seeds)
    xi_a, xi_b = rule.xi_a, rule.xi_b

    k = config.k
    # An alpha per lane: a multiply that broadcasts a column is slower.
    alpha = np.repeat(np.asarray(alphas, dtype=np.float64)[:, None], n_seeds, axis=1)
    x = np.zeros((len(alphas), n_seeds))
    theta = np.zeros_like(x)
    play_a = np.empty((h, *x.shape), dtype=bool)
    xi = np.empty_like(x)
    for sig, step_a, step_b, play in zip(signal, xi_a, xi_b, play_a):
        np.greater_equal(sig, theta, out=play)
        x *= alpha
        np.copyto(xi, step_b)
        np.copyto(xi, step_a, where=play)
        x += xi
        # nearest_integer, in place.
        np.copysign(0.5, x, out=theta)
        theta += x
        np.trunc(theta, out=theta)
        if k != 1.0:  # times 1.0 is the identity
            theta *= k
    return rule.correct(play_a)


def sweep_alpha(
    config: BanditConfig,
    alphas: Sequence[float],
    n_seeds: int,
    seed_base: int = 0,
) -> list:
    """Average correct-selection trajectories over seeds, one row per alpha.

    Run ``j`` for every alpha uses the stream ``SeedSequence(seed_base,
    spawn_key=(j,))``, so trajectories are seed-matched across alphas. The
    runs advance in lockstep (``_lockstep_correct``); each one matches
    ``run_bandit`` with the same config and stream.
    """
    if not alphas:
        raise ValueError("alphas must be nonempty")
    if n_seeds < 1:
        raise ValueError("n_seeds must be at least 1")
    for a in alphas:
        replace(config, alpha=a)  # validates each alpha with the step sizes
    h = config.horizon
    # Four (h, n_seeds) float arrays and two (h, alphas, n_seeds) bool arrays.
    size = h * n_seeds * (4 + 2 * len(alphas))
    check_elements(size, f"a sweep of {len(alphas)} alphas * {n_seeds} seeds * {h} steps")
    correct = _lockstep_correct(config, alphas, n_seeds, seed_base)
    window = min(LAST_WINDOW, h)
    steps = np.arange(1, h + 1, dtype=np.float64)
    # Per seed in order, as a loop over run_bandit traces would add them up.
    acc = np.zeros((h, len(alphas)))
    last_acc = np.zeros(len(alphas))
    for j in range(n_seeds):
        acc += np.cumsum(correct[:, :, j], axis=0) / steps[:, None]
        last_acc += correct[-window:, :, j].sum(axis=0) / window
    return [
        AlphaSweepRow(
            alpha=float(a),
            mean_correct_trajectory=acc[:, col] / n_seeds,
            final_rate=float(acc[-1, col] / n_seeds),
            last_window_rate=float(last_acc[col] / n_seeds),
        )
        for col, a in enumerate(alphas)
    ]
