"""Exact enumeration engine: support, probabilities, uniqueness, residence."""

import itertools
import math
import tracemalloc
from collections.abc import Sequence
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antlion import (
    Alpha,
    HorizonTooLargeError,
    ResourceLimitError,
    WalkParams,
    check_path_uniqueness_exact,
    check_path_uniqueness_real,
    closed_form_mean,
    closed_form_variance,
    enumerate_distribution,
    exact_moments,
    exact_residence_distribution,
    path_weights,
    reach_bound,
    support_size,
)
from antlion import cli, exact
from antlion.analysis import _ExactGridCdf, _grid, _preimage, exact_standardized_cdf
from antlion.exact import DIST_HEADER, _exact_order
from antlion.tables import Table, write_tables

GOLDEN = (-1 + math.sqrt(5)) / 2

ALPHAS = [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)]

# Every reduced m/n with n <= 12.
SMALL_ALPHAS = [Fraction(m, n) for n in range(2, 13) for m in range(1, n) if math.gcd(m, n) == 1]
# And four alphas whose float positions tie; near 1 the two halves cancel.
LATTICE_ALPHAS = SMALL_ALPHAS + [
    Fraction(1, 10**6),
    Fraction(10**6 - 1, 10**6),
    Fraction(1, 10**14),
    Fraction(10**14 - 1, 10**14),
]


def params(alpha, p=Fraction(1, 2), t=0):
    if isinstance(alpha, Fraction):
        alpha = Alpha.from_fraction(alpha)
    return WalkParams(alpha=alpha, p=p, t=t)


def brute_paths(alpha: Fraction, t: int) -> list:
    """Oracle: ``(index, position, k, nonnegative steps)`` of every path, walked
    in exact arithmetic; bit ``s - 1`` of the index is set when step ``s`` is -1."""
    paths = []
    for signs in itertools.product((-1, 1), repeat=t):
        x = Fraction(0)
        visits = 0
        for s in signs:
            x = alpha * x + s
            visits += x >= 0
        index = sum(1 << s for s, sign in enumerate(signs) if sign == -1)
        paths.append((index, x, signs.count(-1), visits))
    return paths


def path_k(size: int) -> np.ndarray:
    """Oracle: the minus-step count of each of ``size`` paths, in path-index
    order, as the popcount of the index."""
    return np.array([i.bit_count() for i in range(size)])


def path_numerators(lattice) -> np.ndarray:
    """Oracle: every numerator ``S`` of the lattice, in path-index order, as
    Python ints (an int64 lattice's squares would wrap)."""
    return np.add.outer(lattice.high.astype(object), lattice.low.astype(object)).ravel()


def reduceat_moments(dist):
    """Oracle: the mean and variance from per-``k`` sums of ``S`` and ``S^2``
    over every path of the lattice."""
    lattice = dist.entries
    k = path_k(len(lattice))
    by_k = np.argsort(k, kind="stable")
    starts = np.searchsorted(k[by_k], np.arange(dist.t + 1))
    scaled = path_numerators(lattice)[by_k]
    sums1 = np.add.reduceat(scaled, starts).tolist()
    sums2 = np.add.reduceat(scaled * scaled, starts).tolist()
    scale = Fraction(dist.scale_denominator)
    weights = path_weights(Fraction(dist.p), dist.t)
    mean = sum(w * s for w, s in zip(weights, sums1)) / scale
    ex2 = sum(w * s for w, s in zip(weights, sums2)) / (scale * scale)
    return mean, ex2 - mean * mean


def fraction_moments(dist):
    """Oracle: the moments from each half's sums weighted by ``path_weights``
    Fractions."""
    lattice, t, p = dist.entries, dist.t, Fraction(dist.p)

    def half(values, weights):
        sums = [[0, 0] for _ in weights]
        for v, j in zip(values.tolist(), path_k(values.size).tolist()):
            sums[j][0] += v
            sums[j][1] += v * v
        return tuple(sum(w * s for w, s in zip(weights, column)) for column in zip(*sums))

    high, high2 = half(lattice.high, path_weights(p, t - t // 2))
    low, low2 = half(lattice.low, path_weights(p, t // 2))
    scale = Fraction(dist.scale_denominator)
    mean = (high + low) / scale
    var = (high2 + 2 * high * low + low2) / (scale * scale) - mean * mean
    return (mean, var) if isinstance(dist.p, Fraction) else (float(mean), float(var))


def division_bits(numerators, den) -> np.ndarray:
    """Oracle: the bits of each ``S / den`` by Python's int division."""
    return np.array([s / den for s in numerators], dtype=float).view(np.int64)


def brute_residence_pmf(alpha: Fraction, p: Fraction, t: int) -> dict:
    """Oracle: walk every path in exact arithmetic, counting X_s >= 0."""
    pmf = {j: Fraction(0) for j in range(t + 1)}
    for _, _, k, visits in brute_paths(alpha, t):
        pmf[visits] += p**k * (1 - p) ** (t - k)
    return pmf


def _float_positions(alpha: float, t: int) -> np.ndarray:
    """Float positions of all ``2^t`` paths, in path-index order."""
    x = np.zeros(1)
    for _ in range(t):
        y = alpha * x
        x = np.concatenate([y + 1.0, y - 1.0])
    return x


def walk_residence(params: WalkParams) -> dict:
    """Reference: the residence law by the full-depth walk of every level."""
    frac = exact._require_exact_alpha(params.alpha)
    exact._check_cap(params.t)
    t = params.t
    levels = [exact._level(frac.numerator, frac.denominator, s) for s in range(t + 1)]
    k = path_k(2**t)
    visits = np.zeros(1, dtype=np.int8)  # nonnegative steps of each path so far
    for scaled in levels[1:]:
        # A path's prefix of s - 1 steps is its index without the top bit.
        visits = np.concatenate([visits, visits]) + (scaled >= 0)
    cells = np.bincount(visits.astype(np.intp) * (t + 1) + k, minlength=(t + 1) ** 2)
    weights = path_weights(Fraction(params.p), t)
    return {
        j: sum(paths * w for paths, w in zip(row, weights))
        for j, row in enumerate(cells.reshape(t + 1, t + 1).tolist())
    }


class TestEnumerate:
    def test_two_steps_table(self):
        dist = enumerate_distribution(params(Fraction(1, 2), t=2))
        assert dist.support_fractions() == [
            Fraction(-3, 2),
            Fraction(-1, 2),
            Fraction(1, 2),
            Fraction(3, 2),
        ]
        for scaled in dist.entries:
            assert dist.point_probability(scaled) == Fraction(1, 4)

    def test_two_steps_general_p(self):
        p = Fraction(3, 10)
        dist = enumerate_distribution(params(Fraction(1, 3), p=p, t=2))
        by_pos = {
            Fraction(s, dist.scale_denominator): dist.point_probability(s)
            for s in dist.entries
        }
        a = Fraction(1, 3)
        assert by_pos == {
            -a - 1: p * p,
            -a + 1: p * (1 - p),
            a - 1: p * (1 - p),
            a + 1: (1 - p) * (1 - p),
        }

    def test_uniform_32_points(self):
        dist = enumerate_distribution(params(Fraction(9, 10), t=5))
        assert support_size(dist) == 32
        assert all(dist.point_probability(s) == Fraction(1, 32) for s in dist.entries)
        assert float(Fraction(1, 32)) == 0.03125

    def test_repr(self):
        dist = enumerate_distribution(params(Fraction(9, 10), p=Fraction(1, 3), t=5))
        assert repr(dist) == "ExactDistribution(t=5, alpha=9/10, p=1/3, support=32)"

    def test_horizon_zero(self):
        dist = enumerate_distribution(params(Fraction(1, 3), t=0))
        assert support_size(dist) == 1
        assert dist.point_probability(0) == 1

    def test_one_step_asymmetric(self):
        dist = enumerate_distribution(params(Fraction(1, 3), p=0.3, t=1))
        by_pos = {s: dist.point_probability(s) for s in sorted(dist.entries)}
        assert by_pos == {-1: 0.3, 1: 0.7}

    def test_rejects_real_alpha(self):
        with pytest.raises(ValueError):
            enumerate_distribution(WalkParams(alpha=Alpha.from_real(0.5), t=3))

    def test_horizon_cap(self, monkeypatch):
        monkeypatch.setattr(exact, "DEFAULT_HORIZON_CAP", 5)
        half = Fraction(1, 2)
        for call in (
            lambda t: enumerate_distribution(params(half, t=t)),
            lambda t: exact_residence_distribution(params(half, t=t)),
            lambda t: check_path_uniqueness_exact(half, t),
            lambda t: check_path_uniqueness_real(0.5, t),
        ):
            call(5)
            with pytest.raises(HorizonTooLargeError, match="cap 5"):
                call(6)

    def test_probabilities_sum_to_one(self):
        dist = enumerate_distribution(params(Fraction(2, 3), p=Fraction(7, 10), t=9))
        assert sum(dist.point_probability(s) for s in dist.entries) == 1
        dist_f = enumerate_distribution(params(Fraction(2, 3), p=0.7, t=9))
        total = sum(dist_f.point_probability(s) for s in dist_f.entries)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_scaled_bound(self):
        dist = enumerate_distribution(params(Fraction(2, 3), t=8))
        m, n = 2, 3
        cap = sum(m ** (8 - s) * n ** (s - 1) for s in range(1, 9))
        assert max(abs(s) for s in dist.entries) <= cap

    @given(
        alpha=st.sampled_from(ALPHAS),
        t=st.integers(0, 10),
    )
    @settings(max_examples=25, deadline=None)
    def test_symmetric_support_and_probabilities(self, alpha, t):
        dist = enumerate_distribution(params(alpha, t=t))
        probs = {
            pos: dist.point_probability(s)
            for s, pos in zip(sorted(dist.entries), dist.support_fractions())
        }
        for pos, prob in probs.items():
            assert probs[-pos] == prob

    def test_support_inside_bounds(self):
        for alpha in ALPHAS:
            dist = enumerate_distribution(params(alpha, t=10))
            hi = reach_bound(alpha)
            fracs = dist.support_fractions()
            assert -hi < fracs[0] and fracs[-1] < hi


class TestLatticeDifferential:
    @pytest.mark.parametrize("alpha", LATTICE_ALPHAS, ids=str)
    def test_matches_brute_force(self, alpha):
        p = Fraction(1, 3)
        for t in range(9):
            paths = brute_paths(alpha, t)
            dist = enumerate_distribution(params(alpha, p=p, t=t))
            lattice, den = dist.entries, dist.scale_denominator
            support = sorted(x for _, x, _, _ in paths)
            assert dist.support_fractions() == support
            assert dist.float_law()[0].tolist() == [float(x) for x in support]
            by_rank = zip(lattice, dist.columns()[2].codes.tolist())
            assert {Fraction(s, den): k for s, k in by_rank} == {x: k for _, x, k, _ in paths}
            scaled = path_numerators(lattice)
            for index, x, k, _ in paths:
                assert Fraction(scaled[index], den) == x
                assert index.bit_count() == k
            residence = exact_residence_distribution(params(alpha, p=p, t=t))
            assert residence == brute_residence_pmf(alpha, p, t)


    @pytest.mark.parametrize("alpha", LATTICE_ALPHAS, ids=str)
    @pytest.mark.soundness
    def test_float_bits_match_int_division(self, alpha):
        for t in range(11):
            dist = enumerate_distribution(params(alpha, t=t))
            lattice = dist.entries
            expected = division_bits(sorted(path_numerators(lattice).tolist()), lattice.den)
            assert np.array_equal(dist.float_law()[0].view(np.int64), expected)

    @pytest.mark.parametrize("alpha", SMALL_ALPHAS, ids=str)
    def test_moments_match_full_lattice_sums(self, alpha):
        # Odd and even splits, p at 0 and 1, and a tiny float p.
        for p in (Fraction(1, 3), Fraction(0), Fraction(1), Fraction(1, 2), 0.3, 1e-300):
            kind = float if isinstance(p, float) else Fraction
            for t in range(15):
                dist = enumerate_distribution(params(alpha, p=p, t=t))
                mean, var = map(kind, reduceat_moments(dist))
                got = exact_moments(dist)
                assert got == (mean, var) and [type(v) for v in got] == [kind, kind]

    @pytest.mark.parametrize(
        "alpha, t",
        [
            (Fraction(9, 10), 16),
            (Fraction(11, 12), 16),
            (Fraction(1, 10**6), 12),
            # The halves cancel to positions near 1e-18.
            (Fraction(10**6 - 1, 10**6), 12),
            # The last int64 lattice at 9/10: numerators near 2^53.
            (Fraction(9, 10), 15),
        ],
    )
    @pytest.mark.soundness
    def test_float_law_rounds_once(self, alpha, t):
        dist = enumerate_distribution(params(alpha, t=t))
        xs = dist.float_law()[0]
        fracs = dist.support_fractions()
        assert xs.tolist() == [float(x) for x in fracs]
        assert all(a < b for a, b in zip(fracs, fracs[1:]))
        if alpha == Fraction(1, 10**6):
            # Sorted neighbours on equal floats, which the ints order.
            assert np.count_nonzero(xs[1:] == xs[:-1]) == 4088


class TestCountAtMost:
    """``exact._count_at_most`` against the ranks of the ordered support."""

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(9, 10), Fraction(2, 7)], ids=str)
    @pytest.mark.soundness
    def test_own_positions_take_the_exact_band(self, alpha):
        # At its own float position a path's quotient is within half an ulp
        # of the threshold, inside the margin, so the ints decide: a count of
        # rank + 1 there and rank one float lower. Dyadic at 1/2, where the
        # quotient is the threshold itself. No two positions share a float.
        for t in [*range(11), 16]:
            xs = enumerate_distribution(params(alpha, t=t)).float_law()[0]
            ranks = np.arange(xs.size)
            if t == 16:  # some ranks, for a split with many rows
                ranks = ranks[::997]
            at = exact._count_at_most(alpha, t, xs[ranks])
            below = exact._count_at_most(alpha, t, np.nextafter(xs[ranks], -np.inf))
            assert np.array_equal(at, ranks + 1) and np.array_equal(below, ranks), t

    def test_infinite_and_scalar_thresholds(self):
        counts = exact._count_at_most(Fraction(9, 10), 8, [-np.inf, np.inf, -1e300, 1e300, 0.0])
        assert counts.tolist() == [0, 256, 0, 256, 128]
        assert exact._count_at_most(Fraction(9, 10), 8, 0.0) == 128
        assert exact._count_at_most(Fraction(9, 10), 0, [-0.5, 0.0]).tolist() == [0, 1]

    @pytest.mark.soundness
    def test_exact_band_is_a_binary_search(self, monkeypatch):
        # At alpha 1/10^6 the low half's floats (about 1e-24 here) all lie
        # inside the margin, so thresholds squeezed around one position put
        # the whole low half in the band of that position's rows. The exact
        # test there is a binary search: a few int divisions a band.
        alpha, t = Fraction(1, 10**6), 18
        xs = enumerate_distribution(params(alpha, t=t)).float_law()[0]
        x = xs[xs.size // 3]
        ys = np.linspace(x - 4e-16, x + 4e-16, 600)
        expected = np.searchsorted(xs, ys, "right")
        assert np.unique(expected).size > 1
        widths, tests = [], [0]
        search = exact.bisect.bisect_left

        def counted_search(band, x, *, key):
            def tested(j):
                tests[0] += 1
                return key(j)

            widths.append(len(band))
            return search(band, x, key=tested)

        monkeypatch.setattr(exact.bisect, "bisect_left", counted_search)
        assert np.array_equal(exact._count_at_most(alpha, t, ys), expected)
        assert sum(widths) >= ys.size * 2**14  # the whole low half, for every threshold
        assert tests[0] <= sum(w.bit_length() for w in widths)


class TestWordLattice:
    """Both sides of ``n^t = 2^53``, where the lattice leaves int64 for Python ints."""

    @staticmethod
    def object_walk(m: int, n: int, s: int) -> list:
        """Oracle: the numerators of all ``s``-step paths, walked in Python ints."""
        scaled, weight = [0], 1
        for _ in range(s):
            scaled = [m * v + weight for v in scaled] + [m * v - weight for v in scaled]
            weight *= n
        return scaled

    @pytest.mark.parametrize(
        "alpha, t",
        [
            *((Fraction(9, 10), t) for t in (14, 15, 16)),
            *((Fraction(11, 12), t) for t in (14, 15)),
            *((Fraction(4, 5), t) for t in (22, 23)),
            *((Fraction(1, 10), t) for t in (15, 16)),
            *((Fraction(1, 10**6), t) for t in (2, 3)),
        ],
        ids=str,
    )
    @pytest.mark.soundness
    def test_word_lattice_matches_object_walk(self, alpha, t):
        m, n, h = alpha.numerator, alpha.denominator, t // 2
        lattice = exact._path_lattice(alpha, t)
        for half in (lattice.high, lattice.low):
            assert half.dtype == (np.int64 if n**t < 2**53 else object)
        assert lattice.high.tolist() == [n**h * v for v in self.object_walk(m, n, t - h)]
        assert lattice.low.tolist() == [m ** (t - h) * v for v in self.object_walk(m, n, h)]
        # Every support point and the float below it; a strided sample at
        # 2^22 and more paths, where all of them would take a few hundred MB.
        xs = enumerate_distribution(params(alpha, t=t)).float_law()[0]
        ranks = np.arange(xs.size)[:: 509 if t >= 22 else 1]
        for ys in (xs[ranks], np.nextafter(xs[ranks], -np.inf)):
            assert np.array_equal(exact._count_at_most(alpha, t, ys), xs.searchsorted(ys, "right"))


class TestWordWalkCount:
    """``_count_at_most`` on a walk of int64 where the scaled lattice needs
    Python ints (``n^t >= 2^53``), on both sides of the walk's own ``2^53``,
    and on an int64 walk beside one of Python ints where no split's walks
    both fit int64."""

    @staticmethod
    def walk_dtypes(monkeypatch) -> list:
        """The dtypes of the walks, high then low, that each ``_count_at_most``
        call reads from ``_level`` from now on; the level's own recursion is
        left out."""
        dtypes, level, depth = [], exact._level, [0]

        def recorded(m, n, s):
            depth[0] += 1
            try:
                walk = level(m, n, s)
            finally:
                depth[0] -= 1
            if not depth[0]:
                dtypes.append(walk.dtype)
            return walk

        monkeypatch.setattr(exact, "_level", recorded)
        return dtypes

    @staticmethod
    def grid(alpha, t) -> np.ndarray:
        """The 600 thresholds that ``cvm --mode exact`` counts at."""
        factor = _ExactGridCdf(Alpha.from_fraction(alpha), t).factor
        return _preimage(_grid(-3.0, 3.0, 600), factor)

    def walks_match_float_law(self, monkeypatch, alpha, t) -> list:
        """Check about 1000 own positions and the floats below them, which the
        band decides, and the CvM grid; return the dtypes of the walks."""
        assert alpha.denominator**t >= 2**53
        xs = enumerate_distribution(params(alpha, t=t)).float_law()[0]
        own = xs[:: xs.size // 997]
        dtypes = self.walk_dtypes(monkeypatch)
        for ys in (own, np.nextafter(own, -np.inf), self.grid(alpha, t)):
            assert np.array_equal(exact._count_at_most(alpha, t, ys), xs.searchsorted(ys, "right"))
        return dtypes

    @pytest.mark.parametrize(
        "alpha, t",
        [
            *((Fraction(9, 10), t) for t in (17, 20, 22)),  # 22: a walk of 15 steps
            (Fraction(1, 10), 18),  # many equal floats
            (Fraction(11, 12), 16),
        ],
        ids=str,
    )
    @pytest.mark.soundness
    def test_word_walk_matches_float_law(self, monkeypatch, alpha, t):
        # Each call walks at most 15 steps.
        assert self.walks_match_float_law(monkeypatch, alpha, t) == [np.int64] * 6

    @pytest.mark.soundness
    def test_mixed_walks_where_no_split_fits(self, monkeypatch):
        # 1000^7 > 2^53, so at t = 14 one of the two walks of every split
        # needs Python ints: the low walk of 11 steps, beside a high walk
        # of 3 that stays int64.
        alpha = Fraction(999, 1000)
        assert self.walks_match_float_law(monkeypatch, alpha, 14) == [np.int64, object] * 3

    @pytest.mark.parametrize("alpha", [Fraction(999, 1000), Fraction(999999, 1000000)], ids=str)
    @pytest.mark.soundness
    def test_mixed_widths_match_float_law(self, monkeypatch, alpha):
        # From t = 11 no split of these walks keeps both in int64 (1000^6 and
        # 10^18 pass 2^53). 600 thresholds take a low walk of Python ints,
        # beside a short high walk that stays int64 (at 10^6 only while it
        # has at most 2 steps); one threshold takes a low walk of ceil(t/2) -
        # 1 steps, int64 at 999/1000 for t <= 12 beside a high walk of Python
        # ints. Every own position and the float below it, which the band
        # decides, in runs of 600; single thresholds on a stride of them.
        dtypes = self.walk_dtypes(monkeypatch)
        word, ints = np.dtype(np.int64), np.dtype(object)
        many, single = set(), set()
        for t in range(11, 15):
            xs = enumerate_distribution(params(alpha, t=t)).float_law()[0]
            dtypes.clear()  # the lattice's own halves
            for ys in (xs, np.nextafter(xs, -np.inf)):
                expected = xs.searchsorted(ys, "right")
                for part in np.split(np.arange(ys.size), range(600, ys.size, 600)):
                    assert np.array_equal(exact._count_at_most(alpha, t, ys[part]), expected[part])
                many.update(zip(dtypes[::2], dtypes[1::2]))
                dtypes.clear()
                for i in range(0, ys.size, 41):
                    assert exact._count_at_most(alpha, t, ys[i]) == expected[i], (t, i)
                single.update(zip(dtypes[::2], dtypes[1::2]))
                dtypes.clear()
        assert (word, ints) in many
        assert ((ints, word) in single) == (alpha == Fraction(999, 1000))

    @pytest.mark.soundness
    def test_word_walk_edge_at_the_cap(self, monkeypatch):
        # At 9/10, t = 24, 600 thresholds would balance at a low half of 16
        # steps, a walk of Python ints (10^16 > 2^53), and take 15, the
        # deepest split in int64; 24 thresholds take 14. Ordering the 2^24
        # positions would take seconds, so the two splits check each other
        # on the grid, and on the exact floats of 600 paths and the floats
        # below them, where the band decides.
        alpha, t = Fraction(9, 10), 24
        m, n = alpha.numerator, alpha.denominator
        steps = exact._path_from_index
        paths = np.random.default_rng(0).integers(0, 2**t, 600).tolist()
        scaled = [
            sum(m ** (t - s) * n ** (s - 1) * xi for s, xi in enumerate(steps(i, t), 1))
            for i in paths
        ]
        own = np.array([s / n ** (t - 1) for s in scaled])
        dtypes = self.walk_dtypes(monkeypatch)
        counts = []
        for ys in (own, np.nextafter(own, -np.inf), self.grid(alpha, t)):
            whole = exact._count_at_most(alpha, t, ys)
            parts = [exact._count_at_most(alpha, t, part) for part in np.split(ys, 25)]
            assert np.array_equal(whole, np.concatenate(parts))
            counts.append(whole)
        assert np.all(counts[0] > counts[1])  # a path ends at each own float
        assert dtypes == [np.int64] * 2 * 26 * 3


class TestSupportSequence:
    # Ties of equal floats at 1/10^6, a full block at 9/10 and a dyadic lattice.
    CASES = [(Fraction(1, 10**6), 12), (Fraction(9, 10), 14), (Fraction(1, 2), 10)]

    @pytest.mark.parametrize("alpha, t", CASES, ids=str)
    def test_reads_the_sorted_numerators(self, monkeypatch, alpha, t):
        lattice = enumerate_distribution(params(alpha, t=t)).entries
        full = sorted(path_numerators(lattice).tolist())
        n = len(full)
        assert isinstance(lattice, Sequence) and len(lattice) == n == 2**t
        for lo, hi in ((0, n), (0, 1), (n - 1, n), (n // 3, 2 * n // 3), (5, 5), (-7, n + 9)):
            assert lattice[lo:hi].tolist() == full[lo:hi]
        assert (lattice[0], lattice[-1], lattice[n // 2]) == (full[0], full[-1], full[n // 2])
        ranks = np.array([n - 1, 0, n // 2, 7])
        assert lattice[ranks].tolist() == [full[r] for r in ranks.tolist()]
        # Python ints, whatever the halves' dtype: squares never wrap.
        assert type(lattice[-1]) is int and lattice[ranks].dtype == lattice[:3].dtype == object
        assert list(lattice) == full
        monkeypatch.setattr(exact, "_BLOCK", 1000)  # iteration across block edges
        assert list(lattice) == full

    @pytest.mark.parametrize("alpha, t", CASES, ids=str)
    def test_index_and_point_probability(self, alpha, t):
        p = Fraction(1, 3)
        dist = enumerate_distribution(params(alpha, p=p, t=t))
        lattice, den = dist.entries, dist.scale_denominator
        brute = {x: p**k * (1 - p) ** (t - k) for _, x, k, _ in brute_paths(alpha, t)}
        for i, s in enumerate(lattice):
            assert lattice.index(s) == i
            assert dist.point_probability(s) == brute[Fraction(s, den)]
            # Two paths' numerators differ by an even number.
            for missing in (s - 1, s + 1):
                with pytest.raises(ValueError):
                    lattice.index(missing)
        for missing in (10**400, -(10**400)):
            with pytest.raises(ValueError):
                lattice.index(missing)
            with pytest.raises(ValueError):
                dist.point_probability(missing)

    def test_membership_through_the_sequence_mixins(self):
        dist = enumerate_distribution(params(Fraction(9, 10), t=8))
        support = [x * dist.scale_denominator for _, x, _, _ in brute_paths(Fraction(9, 10), 8)]
        for s in support:
            assert s.denominator == 1 and s in dist.entries and dist.entries.count(s) == 1
        assert max(support) + 1 not in dist.entries
        assert 10**400 not in dist.entries and 1.5 not in dist.entries


class TestExactOrder:
    def test_exact_ints_decide_near_floats(self):
        big = 2**60
        scaled = np.array([big + 3, 2 * big + 1, big + 1, 2 * big, big + 2, 3 * big], dtype=object)
        # Rounded, scaled / 2^60 ties three ways at 1.0 and two ways at 2.0.
        order, xs = _exact_order(np.array([s / big for s in scaled]), scaled.__getitem__)
        assert order.tolist() == [2, 4, 0, 3, 1, 5]
        assert xs.tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 3.0]

    @pytest.mark.soundness
    def test_equal_ints_raise(self):
        scaled = np.array([7, 1, 7], dtype=object)
        with pytest.raises(RuntimeError, match="share a position"):
            _exact_order(np.array([s / 10 for s in scaled]), scaled.__getitem__)


class TestSupportSize:
    @pytest.mark.parametrize("alpha, t, expected", [
        (Fraction(1, 2), 5, 32),
        (Fraction(1, 2), 0, 1),
        (Fraction(2, 3), 12, 4096),
    ])
    def test_powers_of_two(self, alpha, t, expected):
        assert support_size(enumerate_distribution(params(alpha, t=t))) == expected

    def test_size_without_ordering(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("the support was ordered")

        monkeypatch.setattr(exact, "_exact_order", refuse)
        dist = enumerate_distribution(params(Fraction(9, 10), t=12))
        assert len(dist.entries) == 2**12
        # support_size and the uniqueness oracle count distinct points on the
        # ordered support, which raises on a tie.
        with pytest.raises(RuntimeError, match="ordered"):
            support_size(dist)
        with pytest.raises(RuntimeError, match="ordered"):
            check_path_uniqueness_exact(Fraction(9, 10), 12)


class TestPathUniqueness:
    def test_exact_half(self):
        assert check_path_uniqueness_exact(Fraction(1, 2), 12).empty

    def test_exact_two_thirds(self):
        assert check_path_uniqueness_exact(Fraction(2, 3), 10).empty

    def test_exact_trivial(self):
        assert check_path_uniqueness_exact(Fraction(1, 3), 0).empty

    def test_real_golden_ratio_collision(self):
        report = check_path_uniqueness_real(GOLDEN, 3, tolerance=1e-9)
        assert len(report) == 1
        col = report.collisions[0]
        assert {col.path_a, col.path_b} == {(1, 1, -1), (-1, -1, 1)}
        assert abs(col.shared_position) < 1e-9
        assert col.time == 3

    def test_real_rational_clean(self):
        assert check_path_uniqueness_real(0.5, 10, tolerance=1e-12).empty

    def test_real_single_step(self):
        assert check_path_uniqueness_real(0.37, 1).empty

    @pytest.mark.parametrize(
        "alpha, tolerance, message",
        [(0.0, 1e-9, "alpha must lie in"), (1.5, 1e-9, "alpha must lie in"),
         (0.5, 0.0, "tolerance must be positive"), (0.5, -1.0, "tolerance must be positive")],
    )
    def test_real_bad_arguments(self, alpha, tolerance, message):
        with pytest.raises(ValueError, match=message):
            check_path_uniqueness_real(alpha, 3, tolerance)

    def test_real_tolerance_is_strict(self):
        # At alpha 1/2, t = 2, the positions -1.5, -0.5, 0.5, 1.5 are exactly
        # 1.0 apart: each neighbour is a candidate within the tolerance, and
        # none is reported, as none lies strictly closer.
        assert check_path_uniqueness_real(0.5, 2, tolerance=1.0).empty
        assert len(check_path_uniqueness_real(0.5, 2, tolerance=math.nextafter(1.0, 2.0))) == 3

    @pytest.mark.parametrize("alpha", [0.5, 0.37, 1.0, GOLDEN, 0.9, 1e-300, 0.999999])
    def test_float_levels_are_the_former_positions(self, alpha):
        # The float walk of the collision scan is the int walk's doubling
        # in floats: the same bits as the former dedicated float doubling.
        positions = np.zeros(1)
        for t in range(17):
            assert positions.dtype == np.float64
            reference = _float_positions(alpha, t)
            assert np.array_equal(positions.view(np.int64), reference.view(np.int64)), t
            positions = exact._double(alpha, positions, 1)

    @pytest.mark.parametrize(
        "alpha, t, tolerance", [(0.75, 17, 1e-6), (0.6, 16, 1e-7), (GOLDEN, 15, 1e-9)]
    )
    def test_real_report_matches_whole_support_scan(self, alpha, t, tolerance):
        # The scan over all sorted positions at once, as it was before the
        # candidates were counted a block at a time: same pairs, same bound.
        positions = _float_positions(alpha, t)
        order = np.argsort(positions, kind="stable")
        xs = positions[order]
        ends = np.searchsorted(xs, xs + tolerance, side="right")
        bound = int((ends - np.arange(1, xs.size + 1)).sum())
        if bound > exact.MAX_COLLISION_PAIRS:
            with pytest.raises(ResourceLimitError, match=f"up to {bound} path pairs"):
                check_path_uniqueness_real(alpha, t, tolerance)
            return
        expected = []
        for i in np.flatnonzero(ends > np.arange(1, xs.size + 1)).tolist():
            for j in range(i + 1, int(ends[i])):
                if xs[j] - xs[i] < tolerance:
                    paths = sorted(exact._path_from_index(int(order[k]), t) for k in (i, j))
                    expected.append((*paths, float((xs[i] + xs[j]) / 2.0)))
        report = check_path_uniqueness_real(alpha, t, tolerance)
        assert expected
        assert [(c.path_a, c.path_b, c.shared_position) for c in report.collisions] == expected

    def test_real_pair_blow_up_guarded(self):
        # At alpha = 1 the 2^16 paths fall on 17 integers: ~3e8 pairs.
        with pytest.raises(ResourceLimitError):
            check_path_uniqueness_real(1.0, 16)


class TestCdf:
    def test_tails(self):
        dist = enumerate_distribution(params(Fraction(1, 2), t=6))
        assert dist.cdf(2.0) == 1.0
        assert dist.cdf(5.0) == 1.0
        assert dist.cdf(-2.0) == 0.0

    def test_median_two_steps(self):
        dist = enumerate_distribution(params(Fraction(1, 2), t=2))
        assert dist.cdf(0.0) == 0.5

    @pytest.mark.parametrize("p", [Fraction(3, 10), 0.3])
    def test_float_image_of_weights(self, p):
        dist = enumerate_distribution(params(Fraction(9, 10), p=p, t=7))
        probs = [float(dist.point_probability(s)) for s in sorted(dist.entries)]
        xs, float_probs = dist.float_law()
        assert float_probs.tolist() == probs
        assert xs.tolist() == [float(x) for x in dist.support_fractions()]
        assert dist.weights == path_weights(p, 7)
        assert dist.cdf.cum.tolist() == [min(c, 1.0) for c in itertools.accumulate(probs)]

    def test_monotone(self):
        dist = enumerate_distribution(params(Fraction(9, 10), p=0.3, t=7))
        xs = [-12, -3, -1, -0.2, 0, 0.4, 1, 3, 12]
        vals = [dist.cdf(x) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestIntegerWeights:
    """The int path weights ``a^k (b-a)^(t-k)`` over ``b^t`` against sums
    weighted by ``path_weights`` Fractions."""

    @given(
        n=st.integers(2, 30),
        data=st.data(),
        p=st.one_of(
            st.builds(Fraction, st.integers(0, 50), st.integers(1, 50)).filter(lambda p: p <= 1),
            st.sampled_from([Fraction(0), Fraction(1)]),
            st.floats(0.0, 1.0),
        ),
        t=st.integers(0, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_match_fraction_sums(self, n, data, p, t):
        alpha = Fraction(data.draw(st.integers(1, n - 1)), n)
        prm = params(alpha, p=p, t=t)
        kind = float if isinstance(p, float) else Fraction
        got = exact_moments(enumerate_distribution(prm))
        assert got == fraction_moments(enumerate_distribution(prm))
        assert [type(v) for v in got] == [kind, kind]
        residence = exact_residence_distribution(prm)
        assert residence == walk_residence(prm)
        assert all(type(v) is Fraction for v in residence.values())


class TestMoments:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize(
        "p", [Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(7, 10), Fraction(1)]
    )
    def test_exact_equality_small_grid(self, alpha, p):
        for t in (1, 3, 6, 9):
            prm = params(alpha, p=p, t=t)
            mean, var = exact_moments(enumerate_distribution(prm))
            assert mean == closed_form_mean(prm)
            assert var == closed_form_variance(prm)

    def test_float_p_close(self):
        prm = params(Fraction(9, 10), p=0.3, t=12)
        mean, var = exact_moments(enumerate_distribution(prm))
        assert mean == pytest.approx(closed_form_mean(prm), abs=1e-12)
        assert var == pytest.approx(closed_form_variance(prm), abs=1e-12)

    def test_support_never_ordered(self, monkeypatch):
        # The moments read the halves and k alone.
        def refuse(*args):
            raise AssertionError("the support was ordered")

        monkeypatch.setattr("antlion.exact._exact_order", refuse)
        monkeypatch.setattr(exact.PathLattice, "_numerators", refuse)
        prm = params(Fraction(9, 10), p=Fraction(3, 10), t=10)
        dist = enumerate_distribution(prm)
        assert exact_moments(dist) == (closed_form_mean(prm), closed_form_variance(prm))

    @pytest.mark.parametrize("alpha, t", [(Fraction(9, 10), 10), (Fraction(1, 10**6), 12)])
    def test_cdf_never_builds_the_ints(self, monkeypatch, alpha, t):
        # The CDF reads the divided positions; at 1/10^6 the ordering
        # computes ints only for the runs of equal floats.
        numerators = exact.PathLattice._numerators
        asked = [np.zeros(0, dtype=np.intp)]

        def record(self, paths):
            asked.append(np.array(paths, ndmin=1))
            return numerators(self, paths)

        dist = enumerate_distribution(params(alpha, t=t))
        with monkeypatch.context() as patch:
            patch.setattr(exact.PathLattice, "_numerators", record)
            cdf = exact_standardized_cdf(dist)
        lattice = dist.entries
        order, positions = lattice.ordered
        tie = np.concatenate([[False], positions[1:] == positions[:-1], [False]])
        in_run = tie[1:] | tie[:-1]
        assert np.array_equal(np.sort(np.concatenate(asked)), np.sort(order[in_run]))
        assert in_run.any() == (alpha == Fraction(1, 10**6))
        expected = division_bits(sorted(path_numerators(lattice).tolist()), lattice.den)
        assert np.array_equal(dist.float_law()[0].view(np.int64), expected)
        assert cdf.xs.size == 2**t

    def test_all_minus(self):
        alpha = Fraction(2, 3)
        prm = params(alpha, p=Fraction(1), t=5)
        mean, var = exact_moments(enumerate_distribution(prm))
        assert mean == -(1 - alpha**5) / (1 - alpha)
        assert var == 0


class TestResidence:
    def test_binomial_at_half(self):
        pmf = exact_residence_distribution(params(Fraction(1, 2), t=10))
        assert pmf[5] == Fraction(63, 256)
        oracle = brute_residence_pmf(Fraction(1, 2), Fraction(1, 2), 10)
        assert pmf == oracle
        for j in range(11):
            assert pmf[j] == Fraction(math.comb(10, j), 2**10)

    def test_binomial_nine_tenths_t2(self):
        # alpha^t - 2 alpha + 1 = 0.81 - 0.8 > 0, so the binomial law holds.
        pmf = exact_residence_distribution(params(Fraction(9, 10), t=2))
        oracle = brute_residence_pmf(Fraction(9, 10), Fraction(1, 2), 2)
        assert pmf == oracle
        assert pmf == {0: Fraction(1, 4), 1: Fraction(1, 2), 2: Fraction(1, 4)}

    def test_all_minus_never_positive(self):
        pmf = exact_residence_distribution(params(Fraction(1, 3), p=Fraction(1), t=3))
        assert pmf[0] == 1
        assert sum(pmf.values()) == 1

    def test_pmf_sums_to_one(self):
        pmf = exact_residence_distribution(params(Fraction(2, 3), p=0.3, t=8))
        assert sum(pmf.values()) == 1  # Fractions, exact even for float p

    def test_matches_brute_force_beyond_condition(self):
        # alpha=0.9, t=5 fails the sufficient condition; the engine still
        # reports the true law, whatever it is.
        alpha, t = Fraction(9, 10), 5
        pmf = exact_residence_distribution(params(alpha, t=t))
        assert pmf == brute_residence_pmf(alpha, Fraction(1, 2), t)

    @pytest.mark.parametrize(
        "alpha",
        [
            Fraction(1, 2),
            Fraction(9, 10),
            Fraction(1, 10),
            Fraction(99, 100),
            Fraction(2, 3),
            Fraction(1, 10**6),
            Fraction(10**6 - 1, 10**6),
        ],
        ids=str,
    )
    def test_matches_full_depth_walk(self, alpha):
        for p in (Fraction(1, 2), Fraction(1, 3), 0.3):
            for t in range(13):
                prm = params(alpha, p=p, t=t)
                assert exact_residence_distribution(prm) == walk_residence(prm), (p, t)

    @pytest.mark.parametrize("t", [0, 1, 2, 5, 12])
    @pytest.mark.soundness
    def test_walks_only_half_the_levels(self, monkeypatch, t):
        # From an empty cache the deepest level built is the high half's of
        # the last horizon, and each level is built once.
        built = TestSharedWalk.levels_built(monkeypatch)
        prm = params(Fraction(9, 10), p=Fraction(1, 3), t=t)
        assert exact_residence_distribution(prm) == brute_residence_pmf(
            Fraction(9, 10), Fraction(1, 3), t
        )
        assert built == list(range(1, t - t // 2 + 1))


@pytest.mark.soundness
class TestSharedWalk:
    """``exact._level``: one cached walk per alpha, read-only, int64 while
    ``n^s < 2^53``, and emptied when a ``cli.main`` command ends."""

    @staticmethod
    def levels_built(monkeypatch) -> list:
        """Empty the cache, then record the level each doubling builds from now on."""
        built, double = [], exact._double

        def recorded(m, scaled, weight):
            built.append(scaled.size.bit_length())  # 2^(s-1) paths doubled to level s
            return double(m, scaled, weight)

        exact._level.cache_clear()
        monkeypatch.setattr(exact, "_double", recorded)
        return built

    def test_cached_level_is_read_only(self):
        for s, dtype in [(0, np.int64), (3, np.int64), (16, object)]:  # 10^16 > 2^53
            scaled = exact._level(9, 10, s)
            assert isinstance(scaled, np.ndarray) and exact._level(9, 10, s) is scaled
            assert scaled.dtype == dtype
            with pytest.raises(ValueError, match="read-only"):
                scaled[0] = 1

    @pytest.mark.parametrize("warm", [False, True])
    def test_level_dtypes_on_both_sides_of_2_53(self, warm):
        # 10^15 < 2^53 <= 10^16. Each half of a split is its own level, int64
        # or Python ints whatever the other is: at (t, h) = (24, 8) the
        # low walk stays int64 beside a high walk of Python ints.
        exact._level.cache_clear()
        if warm:
            exact._level(9, 10, 16)  # levels 0..16 cached, 16 of Python ints
        for t, h, dtypes in [
            (16, 8, (np.int64, np.int64)),
            (23, 8, (np.int64, np.int64)),
            (24, 8, (object, np.int64)),
            (24, 16, (np.int64, object)),
            (30, 15, (np.int64, np.int64)),
            (31, 15, (object, np.int64)),
        ]:
            high, low = exact._level(9, 10, t - h), exact._level(9, 10, h)
            assert (high.dtype, low.dtype) == dtypes, (t, h)
            assert high.tolist() == TestWordLattice.object_walk(9, 10, t - h)
            assert low.tolist() == TestWordLattice.object_walk(9, 10, h)

    def test_shared_walk_builds_each_level_once(self, monkeypatch):
        # The horizons of fig4b's exact cvm command at one alpha, counted on
        # a 600-point grid, read their halves from one walk of 12 levels.
        built = self.levels_built(monkeypatch)
        u = _grid(-3.0, 3.0, 600)
        for t in range(1, 16):
            _ExactGridCdf(Alpha.from_fraction(Fraction(9, 10)), t)(u)
        assert built == list(range(1, 13))

    def test_shared_walk_is_emptied_by_main(self, tmp_path):
        # A successful command and one that fails after walking (its table
        # path is a directory) both leave no level behind.
        exact._level(9, 10, 5)
        assert cli.main(["moments", "--alpha", "9/10", "--t-max", "6", "--out", str(tmp_path)]) == 0
        assert exact._level.cache_info().currsize == 0
        (tmp_path / "dist.csv").mkdir()
        argv = ["dist", "--alpha", "9/10", "--t", "8", "--mode", "exact", "--out", str(tmp_path)]
        assert cli.main(argv) == 5
        assert exact._level.cache_info().currsize == 0


class TestMemory:
    def test_cdf_build_peak(self):
        # 2^18 paths: positions, order and the CDF columns at 8 bytes a path,
        # no 2^t ints and no full-size temporaries of the division.
        prm = params(Fraction(9, 10), p=Fraction(1, 2), t=18)
        tracemalloc.start()
        try:
            exact_standardized_cdf(enumerate_distribution(prm))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000

    def test_ordering_peak(self):
        # 2^18 paths on object halves: positions and order at 8 bytes a path.
        # Divided over all paths at once, the Python floats and their object
        # array would peak near 19 MB.
        dist = enumerate_distribution(params(Fraction(9, 10), p=Fraction(1, 2), t=18))
        assert dist.entries.high.dtype == object
        tracemalloc.start()
        try:
            dist.entries.ordered
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    def test_exact_cvm_peak(self):
        # 2^20 paths counted on the CvM grid: under one float a path, where
        # the ordered support and its standardized CDF take about 43 MB.
        cdf = _ExactGridCdf(Alpha.from_fraction(Fraction(9, 10)), 20)
        u = _grid(-3.0, 3.0, 600)
        tracemalloc.start()
        try:
            cdf(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("t, bound", [(20, 2_750_000), (24, 11_000_000)])
    def test_count_peak(self, t, bound):
        # The counting of cvm --mode exact at 9/10 on its 600 thresholds.
        # Counted on scaled Python-int halves it peaked at 2.68 MB (t = 20)
        # and 10.7 MB (t = 24); the bounds keep it there.
        alpha = Fraction(9, 10)
        ys = TestWordWalkCount.grid(alpha, t)
        tracemalloc.start()
        try:
            exact._count_at_most(alpha, t, ys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_residence_peak(self):
        # 2^20 paths: int8 visit counts and k, int16 cell codes counted a
        # block at a time, never one intp code per path.
        prm = params(Fraction(9, 10), p=Fraction(1, 2), t=20)
        tracemalloc.start()
        try:
            exact_residence_distribution(prm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_support_read_peak(self):
        # 2^18 paths: min and max read the numerators a block at a time, and
        # a lookup reads only its run of equal positions. All of them would
        # take 10 MB (2^18 ints and an array of pointers).
        dist = enumerate_distribution(params(Fraction(9, 10), p=Fraction(1, 2), t=18))
        dist.cdf  # the ordered float support, built before tracing
        tracemalloc.start()
        try:
            lowest, highest = min(dist.entries), max(dist.entries)
            probs = [dist.point_probability(lowest), dist.point_probability(highest)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**18 * 8
        assert probs == [Fraction(1, 2**18)] * 2
        assert (lowest, highest) == (dist.entries[0], dist.entries[-1])

    def test_real_uniqueness_peak(self):
        # 2^20 float positions, their order and the sorted copy: 24 MiB. The
        # candidate counts go a block at a time; over the whole support
        # they would add three more arrays of 8 bytes a path.
        tracemalloc.start()
        try:
            report = check_path_uniqueness_real(0.9, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.empty
        assert peak < 28 * 2**20

    def test_dist_table_write_peak(self, tmp_path):
        # 2^18 paths: the scaled_value ints are computed a block at a time.
        # All of them would take 10 MB (2^18 ints and an array of pointers).
        # Only that column is written: tracing costs seconds per 2^18 rows.
        dist = enumerate_distribution(params(Fraction(9, 10), p=Fraction(1, 2), t=18))
        dist.cdf  # the ordered float support, built before tracing
        tracemalloc.start()
        try:
            table = Table("dist", DIST_HEADER[1:2], (dist.columns()[1],))
            write_tables([(tmp_path / "dist.csv", table)], "csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**18 * 8


class TestSerialization:
    def test_csv(self, tmp_path):
        dist = enumerate_distribution(params(Fraction(1, 2), t=3))
        target = tmp_path / "dist.csv"
        write_tables([(target, Table("dist", DIST_HEADER, dist.columns()))], "csv")
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "position_real,scaled_value,k_minus_steps,probability"
        assert len(lines) == 1 + 8

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_columns_rows(self, alpha):
        # Each row is the support point, its exact int, k and probability,
        # and the position column is the CDF's support, the same array.
        dist = enumerate_distribution(params(alpha, p=Fraction(1, 3), t=7))
        xs, scaled, k, probs = dist.columns()
        assert xs is dist.cdf.xs and scaled is dist.entries
        rows = list(zip(xs.tolist(), scaled[0 : len(scaled)].tolist(), k.codes.tolist()))
        assert len(scaled) == 2**7 and [s for _, s, _ in rows] == list(dist.entries)
        den = dist.scale_denominator
        brute = {x: k for _, x, k, _ in brute_paths(alpha, 7)}
        assert all(x == s / den and j == brute[Fraction(s, den)] for x, s, j in rows)
        assert list(k.labels) == list(range(8)) and probs.codes is k.codes
        assert probs.labels == [float(w) for w in dist.weights]
