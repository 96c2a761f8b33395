"""Monte Carlo engine: determinism, boundedness, agreement with exact laws."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antlion import (
    Alpha,
    ResourceLimitError,
    WalkParams,
    closed_form_mean,
    closed_form_variance,
    empirical_cdf,
    enumerate_distribution,
    residence_times,
    simulate,
    simulate_finals,
    simulate_simple_rw,
    standardize_arw,
    uniform_cdf,
)
from antlion import core, montecarlo
from antlion.montecarlo import _TILE, STREAM_CHUNK, Ecdf


def params(alpha: float, p=0.5, t=0) -> WalkParams:
    return WalkParams(alpha=Alpha.from_real(alpha), p=p, t=t)


class TestDeterminism:
    def test_finals_bit_identical(self):
        # n chosen to straddle a chunk boundary.
        n = STREAM_CHUNK + 123
        a = simulate(params(0.7, t=50), n_walkers=n, seed=99)
        b = simulate(params(0.7, t=50), n_walkers=n, seed=99)
        assert np.array_equal(a.positions, b.positions)

    def test_paths_bit_identical(self):
        a = simulate(params(0.3, t=20), n_walkers=500, seed=5, mode="paths")
        b = simulate(params(0.3, t=20), n_walkers=500, seed=5, mode="paths")
        assert np.array_equal(a.positions, b.positions)

    def test_modes_agree_on_finals(self):
        fin = simulate(params(0.6, t=30), n_walkers=1000, seed=7)
        full = simulate(params(0.6, t=30), n_walkers=1000, seed=7, mode="paths")
        assert np.array_equal(fin.finals, full.finals)

    def test_seed_changes_output(self):
        a = simulate(params(0.7, t=10), n_walkers=100, seed=1)
        b = simulate(params(0.7, t=10), n_walkers=100, seed=2)
        assert not np.array_equal(a.positions, b.positions)

    def test_walker_streams_independent_of_batch_size(self):
        # Growing a run extends it: walker w's path depends only on
        # (seed, w), never on n_walkers.
        small = simulate(params(0.7, t=12), n_walkers=100, seed=9)
        large = simulate(params(0.7, t=12), n_walkers=STREAM_CHUNK + 700, seed=9)
        assert np.array_equal(small.positions, large.positions[:100])


class TestSimulate:
    def test_deterministic_plus_path(self):
        batch = simulate(params(0.8, p=0.0, t=40), n_walkers=64, seed=3)
        expected = (1 - 0.8**40) / (1 - 0.8)
        assert np.all(batch.finals == batch.finals[0])
        assert batch.finals[0] == pytest.approx(expected, abs=1e-12)

    def test_four_point_frequencies(self):
        # 4-sigma binomial band around 1/4 for each X_2 support point.
        batch = simulate(params(0.5, t=2), n_walkers=10**6, seed=11)
        values, counts = np.unique(batch.finals, return_counts=True)
        assert list(values) == [-1.5, -0.5, 0.5, 1.5]
        freqs = counts / batch.n_walkers
        assert np.all(np.abs(freqs - 0.25) < 0.002)

    def test_bounded(self):
        batch = simulate(params(0.9, t=100), n_walkers=50_000, seed=21)
        assert np.abs(batch.finals).max() < 10.0

    def test_paths_follow_recursion(self):
        batch = simulate(params(0.35, t=25), n_walkers=200, seed=13, mode="paths")
        assert np.all(batch.positions[:, 0] == 0.0)
        steps = batch.positions[:, 1:] - 0.35 * batch.positions[:, :-1]
        assert np.allclose(np.abs(steps), 1.0, atol=1e-9)

    def test_moment_consistency(self):
        prm = params(0.8, p=0.3, t=60)
        batch = simulate(prm, n_walkers=50_000, seed=17)
        mean = batch.finals.mean()
        var = batch.finals.var()
        se_mean = math.sqrt(closed_form_variance(prm) / batch.n_walkers)
        assert abs(mean - closed_form_mean(prm)) < 5 * se_mean
        assert abs(var - closed_form_variance(prm)) / closed_form_variance(prm) < 0.05

    def test_standardized_lower_bound(self):
        for alpha in (0.3, 0.5, 0.9):
            batch = simulate(params(alpha, t=80), n_walkers=20_000, seed=29)
            standardized = standardize_arw(batch.finals, alpha, 80)
            assert standardized.min() > -math.sqrt((1 + alpha) / (1 - alpha))

    def test_resource_guard(self, monkeypatch):
        with pytest.raises(ResourceLimitError):
            simulate(params(0.5, t=10**6), n_walkers=10**6, seed=0)
        monkeypatch.setattr(core, "DEFAULT_ELEMENT_LIMIT", 10 * 8)  # 10 walkers, t = 7
        simulate(params(0.5, t=7), n_walkers=10, seed=0)
        simulate_simple_rw(7, n_walkers=10, seed=0)
        with pytest.raises(ResourceLimitError, match="10 walkers over 9 positions"):
            simulate(params(0.5, t=8), n_walkers=10, seed=0)
        with pytest.raises(ResourceLimitError, match="11 walkers over 8 positions"):
            simulate_simple_rw(7, n_walkers=11, seed=0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            simulate(params(0.5, t=1), n_walkers=1, mode="stream")


class TestSimpleRw:
    def test_single_step(self):
        batch = simulate_simple_rw(1, n_walkers=40_000, seed=31)
        values, counts = np.unique(batch.finals, return_counts=True)
        assert list(values) == [-1.0, 1.0]
        assert abs(counts[0] / batch.n_walkers - 0.5) < 0.01

    def test_variance_linear(self):
        batch = simulate_simple_rw(100, n_walkers=50_000, seed=37)
        assert abs(batch.finals.var() - 100.0) / 100.0 < 0.05

    def test_parity(self):
        for t in (7, 12):
            batch = simulate_simple_rw(t, n_walkers=500, seed=41)
            assert np.all((batch.finals - t) % 2 == 0)


class TestEcdf:
    def test_single_point(self):
        e = Ecdf([2.5])
        assert e(2.4) == 0.0 and e(2.5) == 1.0 and e(math.inf) == 1.0

    def test_infinity(self):
        batch = simulate(params(0.5, t=5), n_walkers=100, seed=1)
        e = empirical_cdf(batch)
        assert e(math.inf) == 1.0 and e(-math.inf) == 0.0

    def test_right_continuous_nondecreasing(self):
        e = Ecdf([1.0, 1.0, 2.0, 3.0])
        xs = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
        vals = [e(x) for x in xs]
        assert vals == [0.0, 0.5, 0.5, 0.75, 0.75, 1.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Ecdf([])

    def test_cumulative_column_is_exact(self):
        # (i + 1) / n, not a running sum of 1/n, which drifts already at n = 7.
        e = Ecdf([3.0, 1.0, 2.0, 7.0, 5.0, 4.0, 6.0])
        assert e.xs.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        assert e.cum.tolist() == [(i + 1) / 7 for i in range(7)]
        assert [e(x) for x in e.xs] == [(i + 1) / 7 for i in range(7)]

    def test_uniform_limit_at_half(self):
        # DKW with n=50k puts the sup-distance well under 0.015 once the
        # walk's law is this close to uniform on [-2, 2].
        batch = simulate(params(0.5, t=60), n_walkers=50_000, seed=43)
        e = empirical_cdf(batch)
        assert e.sup_distance(uniform_cdf(-2.0, 2.0)) <= 0.015

    def test_matches_exact_cdf(self):
        exact = enumerate_distribution(
            WalkParams(alpha=Alpha.from_fraction(Fraction(1, 2)), p=Fraction(1, 2), t=8)
        )
        batch = simulate(params(0.5, t=8), n_walkers=50_000, seed=47)
        e = empirical_cdf(batch)
        for x in (-1.6, -0.4, 0.0, 0.9, 1.7):
            assert float(e(x)) == pytest.approx(exact.cdf(x), abs=0.01)


class TestResidenceTimes:
    def test_all_positive_when_p_zero(self):
        batch = simulate(params(0.5, p=0.0, t=12), n_walkers=50, seed=1, mode="paths")
        assert np.all(residence_times(batch) == 12)

    def test_requires_paths(self):
        batch = simulate(params(0.5, t=5), n_walkers=10, seed=1)
        with pytest.raises(ValueError):
            residence_times(batch)

    def test_binomial_agreement(self):
        batch = simulate(params(0.5, t=10), n_walkers=50_000, seed=53, mode="paths")
        counts = np.bincount(residence_times(batch), minlength=11)
        pmf = counts / batch.n_walkers
        binom = np.array([math.comb(10, j) / 2**10 for j in range(11)])
        assert np.abs(pmf - binom).max() < 0.01

    def test_quasi_uniform_at_large_alpha(self):
        batch = simulate(params(0.98, t=100), n_walkers=50_000, seed=777, mode="paths")
        hist = np.bincount(residence_times(batch), minlength=101)
        window = hist[10:91]
        assert window.max() / max(window.min(), 1) < 3.0


def reference_simulate(prm: WalkParams, n: int, seed: int) -> np.ndarray:
    """The one-step-at-a-time loop: paths ``(n, t+1)``, one chunk after another."""
    out = np.zeros((n, prm.t + 1))
    a, p = prm.alpha.as_float, float(prm.p)
    for start in range(0, n, STREAM_CHUNK):
        size = min(STREAM_CHUNK, n - start)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(start // STREAM_CHUNK,))
        gen = np.random.Generator(np.random.Philox(ss))
        x = np.zeros(size)
        for s in range(1, prm.t + 1):
            u = gen.random(STREAM_CHUNK)[:size]
            x = a * x + np.where(u < p, -1.0, 1.0)
            out[start : start + size, s] = x
    return out


def simulate_with_workers(monkeypatch, workers: int, *args, **kwargs):
    monkeypatch.setattr(montecarlo, "_worker_count", lambda n_chunks: workers)
    return simulate(*args, **kwargs)


class TestWorkers:
    """Output is the same bits whatever the worker count, tile or tail."""

    @pytest.mark.parametrize("t", [0, 1, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 3])
    @pytest.mark.parametrize("n", [1, STREAM_CHUNK + 1, 2 * STREAM_CHUNK, 2 * STREAM_CHUNK + 77])
    def test_matches_reference_loop(self, t, n):
        prm = params(0.7, p=0.4, t=t)
        expected = reference_simulate(prm, n, seed=3)
        paths = simulate(prm, n_walkers=n, seed=3, mode="paths")
        assert np.array_equal(paths.positions, expected)
        assert np.array_equal(simulate(prm, n_walkers=n, seed=3).positions, expected[:, -1])
        res = simulate(prm, n_walkers=n, seed=3, mode="residence")
        assert np.array_equal(res.positions, expected[:, -1])
        assert np.array_equal(residence_times(res), (expected[:, 1:] >= 0.0).sum(axis=1))

    @pytest.mark.parametrize("mode", ["finals", "paths", "residence"])
    def test_worker_count_never_changes_a_bit(self, monkeypatch, mode):
        n = 3 * STREAM_CHUNK + 5  # four chunks, the last of 5 walkers
        prm = params(0.9, p=0.55, t=2 * _TILE + 1)
        runs = [
            simulate_with_workers(monkeypatch, w, prm, n_walkers=n, seed=8, mode=mode)
            for w in (1, 2, 3, 9)
        ]
        for batch in runs[1:]:
            assert np.array_equal(batch.positions, runs[0].positions)
            if mode == "residence":
                assert np.array_equal(batch.nonneg_steps, runs[0].nonneg_steps)

    def test_many_workers_with_short_switch_interval(self, monkeypatch):
        prm = params(0.6, t=40)
        n = 10 * STREAM_CHUNK + 1
        expected = simulate_with_workers(monkeypatch, 1, prm, n_walkers=n, seed=4, mode="paths")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            batch = simulate_with_workers(monkeypatch, 8, prm, n_walkers=n, seed=4, mode="paths")
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(batch.positions, expected.positions)

    def test_worker_error_reaches_caller(self, monkeypatch):
        stream = montecarlo.philox_stream

        def failing(seed, *spawn_key):
            if spawn_key == (2,):
                raise MemoryError("chunk 2")
            return stream(seed, *spawn_key)

        monkeypatch.setattr(montecarlo, "philox_stream", failing)
        for workers in (1, 2, 4):
            with pytest.raises(MemoryError, match="chunk 2"):
                simulate_with_workers(
                    monkeypatch, workers, params(0.5, t=5), n_walkers=4 * STREAM_CHUNK, seed=1
                )

    def test_worker_count_follows_affinity(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert [montecarlo._worker_count(c) for c in (1, 2, 3, 50)] == [1, 2, 3, 3]
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity")
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        assert montecarlo._worker_count(50) == 1


class TestSimulateFinals:
    """One walk of several alphas: row j is alpha j's own walk, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        alphas=st.lists(st.sampled_from([0.0, 0.5, 0.9, 1.0]), min_size=1, max_size=4),
        t=st.sampled_from([1, 17, 33]),
        p=st.sampled_from([0.5, 0.3]),
        seed=st.integers(0, 2**32),
        one_worker=st.booleans(),
    )
    def test_rows_are_the_per_law_walks(self, alphas, t, p, seed, one_worker):
        n = 3 * STREAM_CHUNK + 5  # four chunks, the last of 5 walkers
        with pytest.MonkeyPatch.context() as patch:
            if one_worker:
                patch.setattr(montecarlo, "_worker_count", lambda n_chunks: 1)
            block = simulate_finals(alphas, t, n, seed, p)
        assert block.shape == (len(alphas), n)
        for alpha, row in zip(alphas, block):
            expected = simulate(params(alpha, p=p, t=t), n_walkers=n, seed=seed).finals
            assert np.array_equal(row.view(np.int64), expected.view(np.int64)), alpha

    @pytest.mark.parametrize(
        "alphas, t, n, p",
        [([1.5], 3, 10, 0.5), ([0.5], -1, 10, 0.5), ([0.5], 3, 0, 0.5), ([0.5], 3, 10, 1.5)],
    )
    def test_bad_arguments(self, alphas, t, n, p):
        with pytest.raises(ValueError):
            simulate_finals(alphas, t, n, 0, p)

    def test_resource_guard(self, monkeypatch):
        # The block holds n values per alpha, and the walk is guarded like
        # one simulate of n walkers over t + 1 positions.
        monkeypatch.setattr(core, "DEFAULT_ELEMENT_LIMIT", 10 * 8)
        assert simulate_finals([0.5] * 8, 7, 10).shape == (8, 10)
        with pytest.raises(ResourceLimitError, match="10 walkers at 9 alphas"):
            simulate_finals([0.5] * 9, 7, 10)
        with pytest.raises(ResourceLimitError, match="10 walkers over 9 positions"):
            simulate_finals([0.5], 8, 10)


class TestResidenceMode:
    @pytest.mark.parametrize("alpha", [0.98, 1.0])  # at 1.0 many X_s are exactly 0
    def test_counts_equal_paths_residence(self, alpha):
        prm = params(alpha, p=0.45, t=60)
        paths = simulate(prm, n_walkers=STREAM_CHUNK + 300, seed=12, mode="paths")
        res = simulate(prm, n_walkers=STREAM_CHUNK + 300, seed=12, mode="residence")
        assert res.positions.shape == (STREAM_CHUNK + 300,)
        assert np.array_equal(res.finals, paths.finals)
        assert np.array_equal(residence_times(res), residence_times(paths))

    def test_horizon_zero(self):
        res = simulate(params(0.5, t=0), n_walkers=10, seed=1, mode="residence")
        assert np.all(residence_times(res) == 0) and np.all(res.finals == 0.0)
