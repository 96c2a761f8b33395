"""Bandit threshold model: reduction, sign rules, determinism, sweeps."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from antlion import (
    Ar1Signal,
    BanditConfig,
    NormalSignal,
    UniformSignal,
    nearest_integer,
    run_bandit,
    sweep_alpha,
)
from antlion import bandit
from antlion.bandit import _lockstep_correct


class TestNearestInteger:
    @pytest.mark.parametrize(
        "x, expected",
        [(0.4, 0), (-1.7, -2), (0.5, 1), (-0.5, -1), (2.5, 3), (-2.5, -3), (0.0, 0)],
    )
    def test_ties_away_from_zero(self, x, expected):
        assert nearest_integer(x) == expected


def config(**kwargs) -> BanditConfig:
    base = dict(p_a=0.8, p_b=0.3, horizon=10_000, signal=NormalSignal())
    base.update(kwargs)
    return BanditConfig(**base)


class TestRunBandit:
    def test_simple_rw_reduction(self):
        # k = delta = omega = 1, alpha = 1: integer adjuster, +-1 increments,
        # threshold equal to the adjuster.
        trace = run_bandit(config(alpha=1.0), seed=3)
        assert np.all(trace.x == np.rint(trace.x))
        increments = np.diff(np.concatenate([[0.0], trace.x]))
        assert set(np.unique(increments)) == {-1.0, 1.0}
        assert np.array_equal(trace.theta, trace.x)

    def test_four_case_sign_rule(self):
        trace = run_bandit(config(delta=2.0, omega=3.0, alpha=0.9), seed=5)
        a, won, xi = trace.arm_a, trace.reward, trace.xi
        assert np.all(xi[a & won] == -2.0)
        assert np.all(xi[a & ~won] == 3.0)
        assert np.all(xi[~a & won] == 2.0)
        assert np.all(xi[~a & ~won] == -3.0)

    def test_trace_self_consistency(self):
        trace = run_bandit(config(alpha=0.7, k=2.0), seed=11)
        x = 0.0
        for i in range(trace.config.horizon):
            x = 0.7 * x + trace.xi[i]
            assert x == trace.x[i]
            assert trace.theta[i] == 2.0 * nearest_integer(x)

    def test_deterministic(self):
        a = run_bandit(config(alpha=0.9), seed=42)
        b = run_bandit(config(alpha=0.9), seed=42)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.arm_a, b.arm_a)
        assert np.array_equal(a.signal, b.signal)

    def test_symmetric_arms_balance(self):
        # Mean-reverting adjuster with a continuous signal: selections are an
        # unbiased coin, so the frequency sits in the 3-sigma binomial band.
        horizon = 100_000
        trace = run_bandit(
            config(p_a=0.5, p_b=0.5, alpha=0.1, horizon=horizon), seed=7
        )
        assert abs(trace.selection_rate_a - 0.5) < 3 * math.sqrt(0.25 / horizon)
        assert trace.correct_rate() == 1.0  # equal arms: every choice correct

    def test_learns_better_arm(self):
        trace = run_bandit(
            config(p_a=0.8, p_b=0.2, alpha=0.99, signal=UniformSignal(-5, 5)), seed=13
        )
        assert trace.correct_rate(last=1000) > 0.9

    def test_swap_changes_correct_arm(self):
        cfg = config(p_a=0.9, p_b=0.1, horizon=2_000, swap_at=1_000, alpha=0.8)
        trace = run_bandit(cfg, seed=17)
        # Before the swap arm A is correct, after it arm B is.
        assert np.all(trace.correct[:1000] == trace.arm_a[:1000])
        assert np.all(trace.correct[1000:] == ~trace.arm_a[1000:])

    def test_recrossing_after_swap_not_later_than_full_memory(self):
        horizon, swap = 10_000, 5_000
        crossings = {}
        for alpha in (0.9, 1.0):
            cfg = config(
                p_a=0.9, p_b=0.1, horizon=horizon, swap_at=swap, alpha=alpha
            )
            trace = run_bandit(cfg, seed=23)
            after = trace.x[swap:]
            hits = np.nonzero(after >= 0.0)[0]
            crossings[alpha] = hits[0] if hits.size else math.inf
        assert crossings[0.9] <= crossings[1.0]

    def test_signal_sources(self):
        for signal in (UniformSignal(-5, 5), NormalSignal(), Ar1Signal(-0.5)):
            trace = run_bandit(config(signal=signal, horizon=500), seed=1)
            assert trace.signal.shape == (500,)
        uniform = run_bandit(config(signal=UniformSignal(-3, 3), horizon=500), seed=1)
        assert np.all(uniform.signal == np.rint(uniform.signal))
        assert uniform.signal.min() >= -3 and uniform.signal.max() <= 3

    def test_ar1_autocorrelation_sign(self):
        trace = run_bandit(
            config(signal=Ar1Signal(-0.7), horizon=20_000), seed=29
        )
        s = trace.signal
        lag1 = np.corrcoef(s[:-1], s[1:])[0, 1]
        assert lag1 < -0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            config(k=0.0)
        with pytest.raises(ValueError):
            config(p_a=1.5)
        with pytest.raises(ValueError):
            config(horizon=0)
        for alpha in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
                config(alpha=alpha)
        with pytest.raises(ValueError):
            Ar1Signal(1.0)
        with pytest.raises(ValueError):
            UniformSignal(2, 2)
        for bad in ({"k": math.nan}, {"k": math.inf}, {"delta": math.inf}, {"omega": math.nan}):
            with pytest.raises(ValueError, match="finite"):
                config(**bad)
        # The adjuster or the threshold would overflow to inf within the horizon.
        for big in ({"delta": 1e308, "omega": 1e308}, {"k": 1e-10, "delta": 1e308}):
            with pytest.raises(ValueError, match="overflow"):
                config(**big)
        with pytest.raises(ValueError, match="overflow"):
            config(alpha=0.5, k=1e300, delta=1e10)
        config(alpha=0.5, delta=1e307)  # |X| < 2e307 whatever the horizon


class TestSweep:
    def test_single_alpha_single_seed_matches_run(self):
        cfg = config(horizon=2_000)
        rows = sweep_alpha(cfg, [0.9], n_seeds=1, seed_base=5)
        ss = np.random.SeedSequence(entropy=5, spawn_key=(0,))
        direct = run_bandit(
            BanditConfig(
                p_a=cfg.p_a,
                p_b=cfg.p_b,
                horizon=cfg.horizon,
                k=cfg.k,
                alpha=0.9,
                delta=cfg.delta,
                omega=cfg.omega,
                signal=cfg.signal,
            ),
            ss,
        )
        assert np.array_equal(
            rows[0].mean_correct_trajectory, direct.correct_rate_over_time()
        )

    def test_stationary_arms_converge(self):
        cfg = config(p_a=0.8, p_b=0.2, horizon=5_000, signal=UniformSignal(-5, 5))
        rows = sweep_alpha(cfg, [0.9, 1.0], n_seeds=3, seed_base=0)
        assert all(row.last_window_rate > 0.6 for row in rows)

    def test_high_memory_seed_average_learns(self):
        # Seed-averaged rate over the trailing window clears 0.9 with strong
        # memory and well-separated arms.
        cfg = config(
            p_a=0.8, p_b=0.2, horizon=10_000, alpha=0.99,
            signal=UniformSignal(-5, 5),
        )
        rows = sweep_alpha(cfg, [0.99], n_seeds=20, seed_base=11)
        assert rows[0].last_window_rate > 0.9

    def test_requires_alphas(self):
        with pytest.raises(ValueError):
            sweep_alpha(config(), [], n_seeds=1)

    @pytest.mark.parametrize("n_seeds", [0, -1])
    def test_requires_a_seed(self, n_seeds):
        with pytest.raises(ValueError, match="n_seeds must be at least 1"):
            sweep_alpha(config(), [0.9], n_seeds=n_seeds)

    def test_window_longer_than_horizon_is_whole_run(self, monkeypatch):
        monkeypatch.setattr(bandit, "LAST_WINDOW", 10_000)
        rows = sweep_alpha(config(horizon=40), [0.9, 1.0], n_seeds=2)
        assert all(row.last_window_rate == row.final_rate for row in rows)


class TestCorrectRateWindow:
    def test_window_must_be_positive(self):
        trace = run_bandit(config(horizon=20), seed=1)
        for last in (0, -5):
            with pytest.raises(ValueError, match="last"):
                trace.correct_rate(last=last)

    def test_window_is_the_tail(self):
        trace = run_bandit(config(horizon=20, swap_at=10), seed=1)
        assert trace.correct_rate(last=5) == trace.correct[-5:].mean()
        assert trace.correct_rate(last=20) == trace.correct_rate() == trace.correct_rate(last=99)


LANE_CONFIGS = [
    config(horizon=600, signal=NormalSignal()),
    config(horizon=600, signal=UniformSignal(-5, 5), p_a=0.2, p_b=0.8),
    config(horizon=600, signal=Ar1Signal(-0.6), swap_at=250),
    config(horizon=600, signal=UniformSignal(-2, 3), k=1.5, delta=0.7, omega=2.5),
    config(horizon=300, signal=NormalSignal(), k=0.3, delta=3.0, omega=0.25, swap_at=0),
    config(horizon=200, p_a=0.5, p_b=0.5, swap_at=100),
]

# sha256 over the trace arrays of LANE_CONFIGS[c] at alphas 0, 0.5, 0.93 and 1,
# seeded with the int 17 and with SeedSequence(17, spawn_key=(1,)). Frozen from
# the per-step Python branches the single run had before it shared the
# lockstep's step rule, so the two cannot drift together unnoticed.
TRACE_DIGESTS = [
    ("7dd3f271d94e5065d963d8100d252b8857b4d9413a1ea997e78ae338fe8f7b91",
     "f5884412a6435e71660425fa4e35b5581a0768027ec0bc28069ef34ca56172a2"),
    ("a066bdc1d3925131d62d87c1cce35a01a37d8028bbd4a2dbdde1e64bb863130d",
     "73a28fa8fb59d0c49c28f1a48a090691e6da74fe42faabfb44dd00bae0cdd65e"),
    ("2868f06afbf6c23ef06ba43370847c68910b447f14782e6a03c62568e0faf047",
     "d5062d5474585e9a9ca53af0c0f1e5c66cdfc42632a7afceeba7af8f53363373"),
    ("357082486ad469787e645f3a5de2d1007dfc89ffc8d531bac4280ebea7c55f5a",
     "96824c656b89185d5c53b46eec8080c013c27bbc203cb07b9bc8c110feb33947"),
    ("7e304ed75b2545f365f75eff11e9ff92afd1bab4671d217fbb0bfd5854a19cb1",
     "bef0e5ea4d5bce488220b1097611059957d6f0d65c2182354291c84d48f1a992"),
    ("b62557dedc3d7d45dec8c55085a6363d8b958492bc9b177da6180ff64d688e4c",
     "6946bc7887f0e394b377c19d7f796b1648edc153acd34de09aed1f1f65362dd3"),
]


@pytest.mark.parametrize("c", range(len(LANE_CONFIGS)))
@pytest.mark.parametrize("kind", ["int", "seed_sequence"])
def test_run_bandit_frozen_digests(c, kind):
    seed = 17 if kind == "int" else np.random.SeedSequence(17, spawn_key=(1,))
    h = hashlib.sha256()
    for alpha in (0.0, 0.5, 0.93, 1.0):
        trace = run_bandit(replace(LANE_CONFIGS[c], alpha=alpha), seed)
        for name in ("signal", "arm_a", "reward", "xi", "x", "theta", "correct"):
            arr = getattr(trace, name)
            h.update(arr.dtype.str.encode())
            h.update(arr.tobytes())
    assert h.hexdigest() == TRACE_DIGESTS[c][kind == "seed_sequence"]


class TestLockstep:
    """Each lockstep lane is the ``run_bandit`` trace of its alpha and seed."""

    @pytest.mark.parametrize("cfg", LANE_CONFIGS)
    def test_lanes_match_run_bandit(self, cfg):
        alphas = [0.0, 0.5, 1.0, 0.93]
        correct = _lockstep_correct(cfg, alphas, n_seeds=3, seed_base=17)
        assert correct.shape == (cfg.horizon, len(alphas), 3)
        for a, alpha in enumerate(alphas):
            for j in range(3):
                ss = np.random.SeedSequence(entropy=17, spawn_key=(j,))
                trace = run_bandit(replace(cfg, alpha=alpha), ss)
                assert np.array_equal(correct[:, a, j], trace.correct)

    def test_sweep_matches_run_bandit_loop(self, monkeypatch):
        cfg = config(horizon=300, signal=UniformSignal(-5, 5), swap_at=120, delta=1.5)
        # Past 8 seeds a pairwise sum would round differently from the loop.
        alphas, n_seeds, window = [0.5, 0.9, 1.0], 20, 150
        monkeypatch.setattr(bandit, "LAST_WINDOW", window)
        rows = sweep_alpha(cfg, alphas, n_seeds, seed_base=3)
        for row, alpha in zip(rows, alphas):
            acc, last_acc = np.zeros(cfg.horizon), 0.0
            for j in range(n_seeds):
                ss = np.random.SeedSequence(entropy=3, spawn_key=(j,))
                trace = run_bandit(replace(cfg, alpha=alpha), ss)
                acc += trace.correct_rate_over_time()
                last_acc += trace.correct_rate(last=window)
            assert np.array_equal(row.mean_correct_trajectory, acc / n_seeds)
            assert row.final_rate == float(acc[-1] / n_seeds)
            assert row.last_window_rate == float(last_acc / n_seeds)

    def test_each_alpha_validated(self):
        cfg = config(horizon=10**6, delta=1e303, alpha=0.5)
        with pytest.raises(ValueError, match="overflow"):
            sweep_alpha(cfg, [0.5, 1.0], n_seeds=1)


def exact_correct_curve(config: BanditConfig) -> np.ndarray:
    """Oracle: ``P(correct at step s)`` for ``s = 1..horizon`` of a +-1
    adjuster (``k = delta = omega = 1``) with a uniform-integer signal.

    Every sign sequence is walked forward with one weight a path. Arm A is
    played with ``q = P(signal >= theta)``, a count over ``low..high``, and
    the adjuster steps down when A pays or B fails: ``P(xi = -1 | x) = q pa +
    (1 - q)(1 - pb)``. A reward is ``u < p`` on a 53-bit uniform ``u``, which
    holds with chance ``ceil(p 2^53) / 2^53``. Arm A pays more, so ``q`` is
    also the chance of a correct choice. For dyadic alpha the float positions
    are the exact ones up to ``3^16 < 2^53``, so ``theta`` sees the
    simulator's own values, ties included.
    """
    assert config.k == config.delta == config.omega == 1 and config.p_a > config.p_b
    lo, hi = config.signal.low, config.signal.high
    pa, pb = (math.ceil(p * 2**53) / 2**53 for p in (config.p_a, config.p_b))
    x, weight, curve = np.zeros(1), np.ones(1), []
    for _ in range(config.horizon):
        theta = np.sign(x) * np.floor(np.abs(x) + 0.5)  # nearest, ties away from zero
        q = np.clip(hi - theta + 1, 0, hi - lo + 1) / (hi - lo + 1)
        curve.append(float(weight @ q))
        minus = q * pa + (1 - q) * (1 - pb)
        x = np.concatenate([config.alpha * x + 1, config.alpha * x - 1])
        weight = np.concatenate([weight * (1 - minus), weight * minus])
    return np.array(curve)


class TestExactOracle:
    """The lockstep simulator against the exact law of its +-1 adjuster."""

    CONFIG = BanditConfig(p_a=0.8, p_b=0.2, horizon=16, signal=UniformSignal(-3, 3))
    ALPHAS = (0.5, 0.75, 1.0)
    SEEDS = 20_000
    WINDOW = 5

    @pytest.fixture(scope="class")
    def sweep(self):
        """``(sweep_alpha rows, the lockstep correct array they averaged)``,
        from one lockstep run of every alpha."""
        calls = []

        def recorded(*args):
            calls.append(_lockstep_correct(*args))
            return calls[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bandit, "_lockstep_correct", recorded)
            patch.setattr(bandit, "LAST_WINDOW", self.WINDOW)
            rows = sweep_alpha(self.CONFIG, self.ALPHAS, self.SEEDS, seed_base=4)
        (correct,) = calls
        return rows, correct

    @pytest.mark.parametrize("col", range(len(ALPHAS)), ids=[f"alpha={a}" for a in ALPHAS])
    def test_per_step_rate_within_hoeffding_bound(self, sweep, col):
        # Each step's rate is a mean of SEEDS independent indicators, so by
        # Hoeffding and a union over the steps all of them lie within eps of
        # the exact chance except with probability 1e-9.
        _, correct = sweep
        h = self.CONFIG.horizon
        eps = math.sqrt(math.log(2 * h / 1e-9) / (2 * self.SEEDS))
        assert eps < 0.025
        exact = exact_correct_curve(replace(self.CONFIG, alpha=self.ALPHAS[col]))
        assert exact[0] == 4 / 7  # theta = 0 at the start: signal in 0..3
        assert np.abs(correct[:, col, :].mean(axis=1) - exact).max() < eps

    def test_rates_are_averages_of_the_per_step_curve(self, sweep):
        rows, correct = sweep
        steps = np.arange(1, self.CONFIG.horizon + 1)
        for col, row in enumerate(rows):
            curve = correct[:, col, :].mean(axis=1)
            assert row.alpha == self.ALPHAS[col]
            assert row.mean_correct_trajectory == pytest.approx(np.cumsum(curve) / steps, abs=1e-12)
            assert row.final_rate == pytest.approx(curve.mean(), abs=1e-12)
            assert row.last_window_rate == pytest.approx(curve[-self.WINDOW :].mean(), abs=1e-12)
            assert row.last_window_rate != pytest.approx(row.final_rate, abs=1e-6)
