"""Monte Carlo engine: determinism, boundedness, agreement with exact laws."""

import math
import sys
import threading
import time
import tracemalloc
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
    exact_residence_distribution,
    residence_times,
    simulate,
    simulate_finals,
    simulate_simple_rw,
    standardize_arw,
    uniform_cdf,
)
from antlion import analysis, core, montecarlo
from antlion.analysis import _ExactGridCdf, cvm_distance, normal_cdf
from antlion.montecarlo import _BLOCK_CHUNKS, _TILE, STREAM_CHUNK, Ecdf


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
        assert batch.t == 25 and batch.positions.shape == (200, batch.t + 1)
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


class TestAgainstExactLaw:
    """Monte Carlo against the exact laws: the CDF of the finals and the law
    of the residence time.

    By the Dvoretzky-Kiefer-Wolfowitz inequality with Massart's constant,
    ``P(sup |F_n - F| > e) <= 2 exp(-2 n e^2)``: a correct engine exceeds
    ``e`` below with probability ``DELTA``, so at a fixed seed a failure
    points at a bug. Monte Carlo walks at alpha's float, so its finals sit
    within a rounding drift of the exact support; between two support
    points both CDFs are flat, so they are compared at the midpoints. The
    residence time takes ``t + 1`` values, so by the Bretagnolle-Huber-Carol
    inequality its total-variation distance exceeds ``e`` with probability
    at most ``2^(t+1) exp(-2 n e^2)``.
    """

    N = 100_000
    DELTA = 1e-9
    LAWS = [
        (Fraction(9, 10), Fraction(1, 2), 12),
        (Fraction(999, 1000), Fraction(1, 2), 12),
        (Fraction(1, 10), Fraction(1, 3), 12),
        (Fraction(2, 7), Fraction(3, 4), 12),
        (Fraction(1, 2), Fraction(1, 2), 16),
    ]

    @pytest.mark.parametrize("alpha, p, t", LAWS, ids=str)
    def test_cdf_within_dkw_bound(self, alpha, p, t):
        dist = enumerate_distribution(WalkParams(alpha=Alpha.from_fraction(alpha), p=p, t=t))
        xs, _ = dist.float_law()
        finals = simulate(params(float(alpha), float(p), t), n_walkers=self.N, seed=0).finals
        nearest = np.clip(np.searchsorted(xs, finals), 1, xs.size - 1)
        drift = np.minimum(abs(finals - xs[nearest - 1]), abs(xs[nearest] - finals)).max()
        assert 100 * drift < np.diff(xs).min()
        mids = (xs[1:] + xs[:-1]) / 2
        sup = np.abs(Ecdf(finals)(mids) - dist.cdf(mids)).max()
        assert sup <= math.sqrt(math.log(2 / self.DELTA) / (2 * self.N))

    @pytest.mark.parametrize("grid", [(-3.0, 3.0, 600), (-2.5, 4.0, 777)], ids=str)
    @pytest.mark.parametrize("alpha, p, t", [law for law in LAWS if law[1] == 0.5], ids=str)
    def test_cvm_within_dkw_bound(self, alpha, p, t, grid):
        # Where the two CDFs F_mc and F differ by at most e at each grid
        # point, (F_mc - Phi)^2 - (F - Phi)^2 = (F_mc - F) (F_mc - F + 2 (F -
        # Phi)) is at most e (e + 2 |F - Phi|), and at most 2 e as all three
        # lie in [0, 1]: the distances differ by at most 2 (m2 - m1) e, and
        # by at most the sum of the first bound. No grid point lies within
        # the drift of a standardized support point, where the walk's float
        # could fall on the other side of it.
        m1, m2, n = grid
        a, exact_alpha = float(alpha), Alpha.from_fraction(alpha)
        dist = enumerate_distribution(WalkParams(alpha=exact_alpha, p=p, t=t))
        xs = standardize_arw(dist.float_law()[0], a, t)
        finals = simulate(params(a, float(p), t), n_walkers=self.N, seed=0).finals
        walk = standardize_arw(finals, a, t)
        nearest = np.clip(np.searchsorted(xs, walk), 1, xs.size - 1)
        drift = np.minimum(abs(walk - xs[nearest - 1]), abs(xs[nearest] - walk)).max()
        u = analysis._grid(m1, m2, n)
        nearest = np.clip(np.searchsorted(xs, u), 1, xs.size - 1)
        assert np.minimum(abs(u - xs[nearest - 1]), abs(xs[nearest] - u)).min() > 100 * drift
        exact_cdf = _ExactGridCdf(exact_alpha, t)
        d_exact = cvm_distance(exact_cdf, normal_cdf, m1, m2, n).distance
        d_mc = cvm_distance(Ecdf(walk), normal_cdf, m1, m2, n).distance
        e = math.sqrt(math.log(2 / self.DELTA) / (2 * self.N))
        gap = np.abs(exact_cdf(u) - [normal_cdf(x) for x in u.tolist()])
        bound = (m2 - m1) / n * e * (n * e + 2 * gap.sum())
        assert abs(d_mc - d_exact) <= bound <= 2 * (m2 - m1) * e

    @pytest.mark.parametrize("mode", ["residence", "paths"])
    @pytest.mark.parametrize("alpha, p, t", LAWS, ids=str)
    def test_residence_within_tv_bound(self, alpha, p, t, mode):
        law = exact_residence_distribution(WalkParams(alpha=Alpha.from_fraction(alpha), p=p, t=t))
        batch = simulate(params(float(alpha), float(p), t), n_walkers=self.N, seed=0, mode=mode)
        freq = np.bincount(residence_times(batch), minlength=t + 1) / self.N
        tv = sum(abs(f - float(law[j])) for j, f in enumerate(freq)) / 2
        assert tv < math.sqrt(((t + 1) * math.log(2) + math.log(1 / self.DELTA)) / (2 * self.N))


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
    monkeypatch.setattr(montecarlo, "_worker_count", lambda n_blocks: workers)
    return simulate(*args, **kwargs)


def assert_matches_reference(prm: WalkParams, n: int, seed: int) -> None:
    """All three modes of ``simulate`` against ``reference_simulate``."""
    expected = reference_simulate(prm, n, seed)
    counts = (expected[:, 1:] >= 0.0).sum(axis=1)
    paths = simulate(prm, n_walkers=n, seed=seed, mode="paths")
    assert np.array_equal(paths.positions, expected)
    assert np.array_equal(residence_times(paths), counts)
    assert np.array_equal(simulate(prm, n_walkers=n, seed=seed).positions, expected[:, -1])
    res = simulate(prm, n_walkers=n, seed=seed, mode="residence")
    assert np.array_equal(res.positions, expected[:, -1])
    assert np.array_equal(residence_times(res), counts)


class TestRawWords:
    """Steps read off raw Philox words are the steps of ``random() < p``."""

    def test_double_is_the_top_53_bits(self):
        # The premise of the threshold: numpy builds its double from a word.
        words = core.philox_stream(5, 1).bit_generator.random_raw(3 * STREAM_CHUNK)
        doubles = core.philox_stream(5, 1).random(3 * STREAM_CHUNK)
        assert np.array_equal((words >> np.uint64(11)) * 2.0**-53, doubles)

    @pytest.mark.parametrize("p", [0.0, 5e-324, 2.0**-60, 0.3, 1 / 3, 0.5, 0.55, 1 - 2.0**-53, 1.0])
    def test_threshold_is_the_uniform_comparison(self, p):
        threshold = montecarlo._minus_threshold(p)
        words = core.philox_stream(6, 0).bit_generator.random_raw(STREAM_CHUNK).tolist()
        doubles = core.philox_stream(6, 0).random(STREAM_CHUNK)
        assert [w < threshold for w in words] == (doubles < p).tolist()
        # The words next to the threshold and at both ends of the range.
        edges = {0, 1, 2**11 - 1, 2**11, 2**64 - 1}
        edges |= {w for d in (-2**11, -1, 0, 1) if 0 <= (w := threshold + d) < 2**64}
        for w in edges:
            assert (w < threshold) == ((w >> 11) * 2.0**-53 < p), (p, w)

    def test_threshold_ends(self):
        assert montecarlo._minus_threshold(0.0) == 0
        assert montecarlo._minus_threshold(5e-324) == 2**11
        assert montecarlo._minus_threshold(1 - 2.0**-53) == 2**64 - 2**11
        assert montecarlo._minus_threshold(1.0) == 2**64

    @pytest.mark.parametrize(
        "p, word",
        [
            (1.0, 2**64 - 1),
            (1 - 2.0**-53, 2**64 - 1),
            (0.0, 0),
            (5e-324, 0),
            (5e-324, 2**11),
            (0.3, montecarlo._minus_threshold(0.3) - 1),
            (0.3, montecarlo._minus_threshold(0.3)),
            # At 1/2 the step is the word's top bit.
            (0.5, 2**63 - 1),
            (0.5, 2**63),
            (0.5, 0),
            (0.5, 2**64 - 1),
        ],
    )
    def test_kernel_steps_at_edge_words(self, monkeypatch, p, word):
        # A stand-in stream whose every word is ``word``: the kernel's step
        # must be the one numpy's double of that word gives.
        class Words:
            bit_generator = property(lambda self: self)

            def random_raw(self, size):
                return np.full(size, word, dtype=np.uint64)

        monkeypatch.setattr(montecarlo, "philox_stream", lambda seed, *spawn_key: Words())
        step = -1.0 if (word >> 11) * 2.0**-53 < p else 1.0
        x = 0.0
        for _ in range(5):
            x = 0.5 * x + step
        for mode in ("finals", "residence"):
            assert np.all(simulate(params(0.5, p=p, t=5), n_walkers=3, mode=mode).finals == x)

    @pytest.mark.parametrize("p", [0.0, 1 - 2.0**-53, 1.0])
    def test_extreme_p_matches_reference_loop(self, p):
        assert_matches_reference(params(0.7, p=p, t=_TILE + 3), _BLOCK_CHUNKS * STREAM_CHUNK + 9, 2)


class TestWorkers:
    """Output is the same bits whatever the worker count, tile or tail."""

    @pytest.mark.parametrize("t", [0, 1, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 3])
    @pytest.mark.parametrize("n", [1, STREAM_CHUNK + 1, 2 * STREAM_CHUNK, 2 * STREAM_CHUNK + 77])
    @pytest.mark.parametrize("p", [0.4, 0.5])  # 1/2 reads the sign bit, 0.4 compares
    def test_matches_reference_loop(self, t, n, p):
        assert_matches_reference(params(0.7, p=p, t=t), n, seed=3)

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
            if mode != "finals":
                assert np.array_equal(batch.nonneg_steps, runs[0].nonneg_steps)

    @pytest.mark.parametrize("mode", ["finals", "paths", "residence"])
    @pytest.mark.parametrize(
        "n",
        [
            1,
            2 * STREAM_CHUNK - 1,  # one block, its last chunk one walker short
            2 * STREAM_CHUNK,
            2 * STREAM_CHUNK + 1,  # a second block of one walker
            4 * STREAM_CHUNK + 5,  # two full blocks and a tail chunk of 5
        ],
    )
    def test_block_edges_match_reference(self, monkeypatch, mode, n):
        assert _BLOCK_CHUNKS == 2  # the block edges above
        prm = params(0.9, p=0.55, t=2 * _TILE + 1)
        expected = reference_simulate(prm, n, seed=8)
        counts = (expected[:, 1:] >= 0.0).sum(axis=1)
        for workers in (1, 2, 3, 9):
            batch = simulate_with_workers(monkeypatch, workers, prm, n_walkers=n, seed=8, mode=mode)
            want = expected if mode == "paths" else expected[:, -1]
            assert np.array_equal(batch.positions, want), workers
            if mode != "finals":
                assert np.array_equal(batch.nonneg_steps, counts), workers

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
        # Chunk 2 opens the second block.
        for workers in (1, 2, 4):
            with pytest.raises(MemoryError, match="chunk 2"):
                simulate_with_workers(
                    monkeypatch, workers, params(0.5, t=5), n_walkers=4 * STREAM_CHUNK, seed=1
                )

    def test_failing_block_stops_the_walk(self, monkeypatch):
        stream = montecarlo.philox_stream
        drawn = []

        def failing(seed, *spawn_key):
            drawn.append(spawn_key[0])
            if spawn_key == (2,):
                time.sleep(0.05)  # so that with 4 workers the later blocks are claimed
                raise MemoryError("chunk 2")
            if spawn_key == (4,):
                time.sleep(0.1)  # and still walked when the second block fails
            return stream(seed, *spawn_key)

        monkeypatch.setattr(montecarlo, "philox_stream", failing)
        prm = params(0.5, t=5)
        # Four blocks of two chunks: the second fails, so the last two are never claimed.
        with pytest.raises(MemoryError, match="chunk 2"):
            simulate_with_workers(monkeypatch, 1, prm, n_walkers=8 * STREAM_CHUNK, seed=1)
        assert not set(drawn) & set(range(4, 8))
        # Every worker is joined before the error reaches the caller.
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="chunk 2"):
            simulate_with_workers(monkeypatch, 4, prm, n_walkers=8 * STREAM_CHUNK, seed=1)
        assert threading.active_count() == threads

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
                patch.setattr(montecarlo, "_worker_count", lambda n_blocks: 1)
            block = simulate_finals(alphas, t, n, seed, p)
        assert block.shape == (len(alphas), n)
        for alpha, row in zip(alphas, block):
            expected = simulate(params(alpha, p=p, t=t), n_walkers=n, seed=seed).finals
            assert np.array_equal(row.view(np.int64), expected.view(np.int64)), alpha

    def test_tile_memory(self, monkeypatch):
        # Four blocks of two chunks on one worker: a step tile of _TILE *
        # STREAM_CHUNK doubles and one chunk's words. A 16-step tile over a
        # 2-chunk block would take 1 MB on its own.
        monkeypatch.setattr(montecarlo, "_worker_count", lambda n_blocks: 1)
        tracemalloc.start()
        try:
            finals = simulate_finals([0.5, 0.9], 40, 8 * STREAM_CHUNK, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - finals.nbytes <= 2 * _TILE * STREAM_CHUNK * 8

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

    @pytest.mark.parametrize("mode", ["paths", "residence"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_cross_the_tally_flush(self, monkeypatch, mode, workers):
        # 600 steps empty each walker's one-byte tally into its count twice
        # and then at t; two blocks, the second of one walker.
        prm = params(0.98, t=600)
        n = _BLOCK_CHUNKS * STREAM_CHUNK + 1
        expected = (reference_simulate(prm, n, seed=5)[:, 1:] >= 0.0).sum(axis=1)
        assert expected.max() > 2 * montecarlo._TALLY
        batch = simulate_with_workers(monkeypatch, workers, prm, n_walkers=n, seed=5, mode=mode)
        assert np.array_equal(batch.nonneg_steps, expected)

    def test_horizon_zero(self):
        res = simulate(params(0.5, t=0), n_walkers=10, seed=1, mode="residence")
        assert np.all(residence_times(res) == 0) and np.all(res.finals == 0.0)
