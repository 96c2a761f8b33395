"""Standardization, normal CDF, CvM grid distance, residence comparisons."""

import math
from fractions import Fraction

import numpy as np
import pytest

from antlion import (
    Alpha,
    WalkParams,
    compare_residence_to_binomial,
    cvm_distance,
    cvm_grid_table,
    cvm_lower_bound,
    enumerate_distribution,
    exact_moments,
    exact_residence_distribution,
    exact_standardized_cdf,
    normal_cdf,
    simple_rw_exact_cdf,
    standardize_arw,
    standardize_srw,
    uniform_cdf,
)
from antlion import analysis, exact
from antlion.analysis import DiscreteCdf, _ExactGridCdf, residence_binomial
from antlion.montecarlo import Ecdf

# Frozen from a 30-digit quadrature oracle.
PHI_196 = 0.9750021048517796
LOWER_BOUND_LIMIT = 0.014470153652050423  # 2 * int_{-inf}^{-1} Phi(u)^2 du
LOWER_BOUND_HALF = 0.003004554392583294  # alpha = 1/2
# 2 * int_{-inf}^{-1/sqrt(1-alpha)} Phi(u)^2 du, frozen from mpmath at 50 digits.
LOWER_BOUND_MPMATH = {
    0.5: 0.0030045543925832940667,
    0.9: 1.7200314557797166986e-7,
    0.99: 5.722282293348935697e-48,
}


class TestStandardize:
    def test_zero(self):
        assert standardize_arw(0.0, 0.5, 7) == 0.0

    def test_single_step_identity(self):
        # sqrt((1 - 0.25)/(1 - 0.25)) = 1.
        assert standardize_arw(1.0, 0.5, 1) == pytest.approx(1.0)

    def test_unit_variance_exactly(self):
        # Work with the squared factor so the check stays in exact arithmetic.
        alpha, t = Fraction(9, 10), 12
        prm = WalkParams(alpha=Alpha.from_fraction(alpha), p=Fraction(1, 2), t=t)
        _, var = exact_moments(enumerate_distribution(prm))
        factor_sq = (1 - alpha**2) / (1 - alpha ** (2 * t))
        assert factor_sq * var == 1

    def test_srw(self):
        assert standardize_srw(0.0, 50) == 0.0
        assert standardize_srw(2.0, 4) == 1.0
        assert standardize_srw(-10.0, 100) == -1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            standardize_arw(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            standardize_srw(1.0, 0)


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_quantile(self):
        assert normal_cdf(1.96) == pytest.approx(PHI_196, abs=1e-7)

    def test_far_tail(self):
        assert normal_cdf(-8.0) < 1e-15

    def test_symmetry(self):
        for x in (0.3, 1.1, 2.7, 5.0):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)


class TestDiscreteCdf:
    def test_step_shape(self):
        cdf = DiscreteCdf([1.0, -1.0], [0.5, 0.5])
        assert cdf(-1.5) == 0.0
        assert cdf(-1.0) == 0.5
        assert cdf(0.0) == 0.5
        assert cdf(1.0) == 1.0

    def test_sorted_support_is_not_resorted(self, monkeypatch):
        # An exact law's support is already increasing: no sort, no copy,
        # and the same cum as the sorting path.
        dist = enumerate_distribution(
            WalkParams(alpha=Alpha.from_fraction(Fraction(9, 10)), p=Fraction(1, 3), t=10)
        )
        xs, probs = dist.float_law()
        want = np.minimum(np.cumsum(probs[np.argsort(xs, kind="stable")]), 1.0)

        def no_sort(*args, **kwargs):
            raise AssertionError("argsort called on a sorted support")

        monkeypatch.setattr(np, "argsort", no_sort)
        assert dist.cdf.xs is xs
        assert dist.cdf.cum.tobytes() == want.tobytes()
        exact_standardized_cdf(dist)


class TestSimpleRwCdf:
    def test_t1(self):
        cdf = simple_rw_exact_cdf(1)
        assert cdf(-1.0) == 0.5 and cdf(1.0) == 1.0 and cdf(-1.01) == 0.0

    def test_t2(self):
        # Masses 1/4, 1/2, 1/4 at -sqrt(2), 0, sqrt(2); probe between them.
        cdf = simple_rw_exact_cdf(2)
        assert cdf(-1.5) == 0.0
        assert cdf(-1.2) == pytest.approx(0.25)
        assert cdf(0.0) == pytest.approx(0.75)
        assert cdf(1.5) == 1.0

    def test_infinity(self):
        assert simple_rw_exact_cdf(30)(math.inf) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            simple_rw_exact_cdf(65)


class TestCvmDistance:
    def test_identical_cdfs(self):
        res = cvm_distance(normal_cdf, normal_cdf)
        assert res.distance == 0.0

    def test_symmetric_in_arguments(self):
        u = uniform_cdf(-2.0, 2.0)
        a = cvm_distance(u, normal_cdf)
        b = cvm_distance(normal_cdf, u)
        assert a.distance == b.distance

    def test_hand_computed_grid(self):
        # Uniform on [0,1] vs a point mass at 0.5, grid (0, 1, 4):
        # u_k = .25, .5, .75, 1; diffs .25, -.5, -.25, 0 -> sum of squares
        # .375 -> distance .375/4 = 0.09375.
        u = uniform_cdf(0.0, 1.0)
        point = DiscreteCdf([0.5], [1.0])
        res = cvm_distance(u, point, m1=0.0, m2=1.0, n=4)
        assert res.distance == pytest.approx(0.09375, abs=1e-15)

    def test_grid_table_matches_distance(self):
        u = uniform_cdf(-1.0, 1.0)
        grid = cvm_grid_table(u, normal_cdf, -3.0, 3.0, 600)
        total = sum(grid.sq_diff) * (6.0 / 600)
        res = cvm_distance(u, normal_cdf)
        assert total == pytest.approx(res.distance, rel=1e-12)
        assert res.distance == 6.0 / 600 * math.fsum(grid.sq_diff)
        assert all(len(column) == 600 for column in grid)
        assert grid.u[0] == pytest.approx(-3.0 + 6.0 / 600)
        assert grid.u[-1] == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "m1, m2, n", [(-3.0, 3.0, 600), (-2.5, 4.0, 777), (0, 1, 4), (-1e-3, 2e5, 1000)]
    )
    def test_grid_table_matches_point_loop(self, m1, m2, n):
        prm = WalkParams(alpha=Alpha.from_fraction(Fraction(9, 10)), p=Fraction(1, 2), t=15)
        laws = [
            exact_standardized_cdf(enumerate_distribution(prm)),
            simple_rw_exact_cdf(15),
            Ecdf(np.random.default_rng(2).standard_normal(999)),
            uniform_cdf(-1.0, 2.0),
            normal_cdf,
        ]
        for cdf_u in laws:
            for cdf_v in (normal_cdf, laws[0]):
                rows = []
                for k in range(1, n + 1):  # the grid point by point
                    u = m1 + (m2 - m1) * k / n
                    fu, fv = float(cdf_u(u)), float(cdf_v(u))
                    rows.append((u, fu, fv, (fu - fv) ** 2))
                grid = cvm_grid_table(cdf_u, cdf_v, m1, m2, n)
                assert list(zip(*grid)) == rows
                assert [math.copysign(1.0, u) for u in grid.u] == [
                    math.copysign(1.0, r[0]) for r in rows
                ]

    def test_early_time_ordering(self):
        # At t=15 the walk with strong memory is already closer to normal
        # than both the weak-memory walk and the simple RW.
        dists = {}
        for num, den in ((9, 10), (1, 2)):
            prm = WalkParams(alpha=Alpha.from_fraction(Fraction(num, den)), p=Fraction(1, 2), t=15)
            cdf = exact_standardized_cdf(enumerate_distribution(prm))
            dists[(num, den)] = cvm_distance(cdf, normal_cdf).distance
        d_srw = cvm_distance(simple_rw_exact_cdf(15), normal_cdf).distance
        assert dists[(9, 10)] < dists[(1, 2)]
        assert dists[(9, 10)] < d_srw

    def test_exact_symmetry_of_standardized_law(self):
        prm = WalkParams(alpha=Alpha.from_fraction(Fraction(2, 3)), p=Fraction(1, 2), t=9)
        dist = enumerate_distribution(prm)
        below = sum(
            dist.point_probability(s) for s in dist.entries if s < 0
        )
        above = sum(
            dist.point_probability(s) for s in dist.entries if s > 0
        )
        assert below == above

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            cvm_distance(normal_cdf, normal_cdf, m1=1.0, m2=-1.0)
        with pytest.raises(ValueError):
            cvm_distance(normal_cdf, normal_cdf, n=0)
        # An infinite bound, or a width that overflows, leaves NaN distances.
        for m1, m2 in ((-math.inf, 3.0), (-3.0, math.nan), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="finite"):
                cvm_distance(normal_cdf, normal_cdf, m1=m1, m2=m2)


GRIDS = [(-3.0, 3.0, 600), (-2.5, 4.0, 777), (0, 1, 4), (-1e-3, 2e5, 1000)]
# Wide, tiny and subnormal grids; the points of the last overflow to inf.
EXTREME_GRIDS = [(-1e300, 1e300, 7), (0, 1e-300, 5), (-5e-324, 5e-324, 3), (-8e307, 8e307, 9)]
COUNTED_ALPHAS = [
    Fraction(1, 10),
    Fraction(1, 2),
    Fraction(9, 10),
    Fraction(1, 3),
    Fraction(2, 7),
    Fraction(3, 4),
    Fraction(7, 10),
    Fraction(1, 10**6),
    Fraction(10**6 - 1, 10**6),
    Fraction(11, 12),
]


def standardized_oracle(alpha: Fraction, t: int) -> DiscreteCdf:
    """The standardized CDF from the ordered full support, as ``cvm`` built it."""
    dist = enumerate_distribution(WalkParams(alpha=Alpha.from_fraction(alpha), p=0.5, t=t))
    return exact_standardized_cdf(dist)


def counted(alpha: Fraction, t: int) -> _ExactGridCdf:
    return _ExactGridCdf(Alpha.from_fraction(alpha), t)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestExactGridCdf:
    """The counted CDF against the standardized CDF of the ordered support,
    bit for bit."""

    @pytest.mark.parametrize("alpha", COUNTED_ALPHAS, ids=str)
    def test_matches_ordered_support(self, alpha):
        for t in range(1, 17):
            oracle, cdf = standardized_oracle(alpha, t), counted(alpha, t)
            for grid in GRIDS:
                u = analysis._grid(*grid)
                assert same_bits(cdf(u), oracle(u)), (t, grid)

    @pytest.mark.parametrize("alpha", [Fraction(9, 10), Fraction(1, 2)], ids=str)
    def test_matches_at_t20(self, alpha):
        oracle, cdf = standardized_oracle(alpha, 20), counted(alpha, 20)
        u = analysis._grid(-3.0, 3.0, 600)
        assert same_bits(cdf(u), oracle(u))
        assert cvm_grid_table(cdf, normal_cdf) == cvm_grid_table(oracle, normal_cdf)

    @pytest.mark.parametrize("grid", EXTREME_GRIDS, ids=str)
    @pytest.mark.parametrize("alpha", [Fraction(9, 10), Fraction(1, 10**6)], ids=str)
    def test_extreme_grids(self, alpha, grid):
        oracle, cdf = standardized_oracle(alpha, 10), counted(alpha, 10)
        u = analysis._grid(*grid)
        assert same_bits(cdf(u), oracle(u))
        assert cvm_grid_table(cdf, normal_cdf, *grid) == cvm_grid_table(oracle, normal_cdf, *grid)
        if grid[1] == 8e307:
            assert np.isinf(u[1:]).all()

    def test_scalars_and_edges(self):
        oracle, cdf = standardized_oracle(Fraction(2, 3), 9), counted(Fraction(2, 3), 9)
        points = [-math.inf, -1.0, -0.0, 0.0, 5e-324, 0.25, 1e300, math.inf]
        for x in points + oracle.xs[::37].tolist():
            got = cdf(x)
            assert type(got) is float and same_bits(got, oracle(x)), x
        u = np.array(points).reshape(2, 4)
        assert same_bits(cdf(u), oracle(u))

    def test_counts_only_when_called_and_once_a_grid(self, monkeypatch):
        calls = []
        count = exact._count_at_most

        def recorded(alpha, t, ys):
            calls.append(np.shape(ys))
            return count(alpha, t, ys)

        monkeypatch.setattr(exact, "_count_at_most", recorded)
        cdf = counted(Fraction(9, 10), 12)
        assert calls == []
        cvm_distance(cdf, normal_cdf)
        assert calls == [(600,)]

    def test_checks_its_parameters_when_built(self):
        with pytest.raises(ValueError, match="rational"):
            _ExactGridCdf(Alpha.from_real(0.5), 4)
        with pytest.raises(exact.HorizonTooLargeError):
            counted(Fraction(1, 2), exact.DEFAULT_HORIZON_CAP + 1)
        with pytest.raises(ValueError, match="t >= 1"):
            counted(Fraction(1, 2), 0)


class TestResidenceBinomial:
    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(7, 10)])
    def test_exact(self, p):
        pmf = residence_binomial(9, p, Fraction)
        assert pmf == [math.comb(9, j) * (1 - p) ** j * p ** (9 - j) for j in range(10)]
        assert sum(pmf) == 1

    def test_degenerate(self):
        assert residence_binomial(7, 1.0) == [1.0] + [0.0] * 7

    def test_central(self):
        assert residence_binomial(10, Fraction(1, 2), Fraction)[5] == Fraction(63, 256)

    def test_sums_to_one(self):
        assert sum(residence_binomial(9, Fraction(7, 10), Fraction)) == 1

    @pytest.mark.parametrize("p", [0.3, Fraction(1, 3), 0.0, 1.0])
    def test_float_rounds_q_first(self, p):
        # The binomial column the CLI has always written, bit for bit.
        q, pv = 1 - float(p), float(p)
        expected = [float(math.comb(30, j)) * q**j * pv ** (30 - j) for j in range(31)]
        assert residence_binomial(30, p) == expected


class TestResidenceComparison:
    def test_exact_zero_tv(self):
        prm = WalkParams(alpha=Alpha.from_fraction(Fraction(1, 2)), p=Fraction(1, 2), t=10)
        pmf = exact_residence_distribution(prm)
        summary = compare_residence_to_binomial(pmf, 10, Fraction(1, 2), 0.5)
        assert summary.tv_distance == 0
        assert summary.condition_holds

    def test_condition_flag_edge(self):
        pmf = {j: Fraction(1, 3) for j in range(3)}
        assert compare_residence_to_binomial(pmf, 2, 0.5, 0.9).condition_holds
        assert not compare_residence_to_binomial(
            {j: Fraction(1, 4) for j in range(4)}, 3, 0.5, 0.9
        ).condition_holds

    def test_float_pmf_path(self):
        pmf = {j: math.comb(6, j) / 64 for j in range(7)}
        summary = compare_residence_to_binomial(pmf, 6, 0.5, 0.4)
        assert summary.tv_distance == pytest.approx(0.0, abs=1e-15)
        assert isinstance(summary.tv_distance, float)

    def test_tv_in_unit_interval(self):
        pmf = {0: Fraction(1)}
        summary = compare_residence_to_binomial(pmf, 4, Fraction(1, 2), 0.3)
        assert 0 <= summary.tv_distance <= 1


class TestCvmLowerBound:
    def test_limit_value(self):
        assert cvm_lower_bound(1e-9) == pytest.approx(LOWER_BOUND_LIMIT, abs=1e-8)

    def test_half(self):
        assert cvm_lower_bound(0.5) == pytest.approx(LOWER_BOUND_HALF, abs=1e-8)

    @pytest.mark.parametrize("alpha", sorted(LOWER_BOUND_MPMATH))
    def test_matches_mpmath(self, alpha):
        assert cvm_lower_bound(alpha) == pytest.approx(LOWER_BOUND_MPMATH[alpha], rel=1e-9)

    def test_self_consistent_with_plain_trapezoid(self):
        # Oracle: fixed-resolution trapezoid at two step counts. Plain
        # trapezoid has O(h^2) error, so the fine run is good to ~1e-8 here.
        def trapezoid(f, a, b, n):
            h = (b - a) / n
            return h * (0.5 * (f(a) + f(b)) + math.fsum(f(a + h * i) for i in range(1, n)))

        alpha = 0.3
        upper = -1.0 / math.sqrt(1.0 - alpha)
        f = lambda u: normal_cdf(u) ** 2
        coarse = 2 * trapezoid(f, -40.0, upper, 1 << 14)
        fine = 2 * trapezoid(f, -40.0, upper, 1 << 15)
        assert abs(coarse - fine) < 1e-6
        assert cvm_lower_bound(alpha) == pytest.approx(fine, abs=1e-7)

    def test_monotone_nonincreasing(self):
        values = [cvm_lower_bound(a) for a in np.linspace(0.005, 0.995, 200)]
        assert min(values) >= 0.0
        assert all(x >= y for x, y in zip(values, values[1:]))

    def test_large_alpha_negligible(self):
        assert cvm_lower_bound(0.99) < 1e-6

    def test_domain(self):
        with pytest.raises(ValueError):
            cvm_lower_bound(1.0)
