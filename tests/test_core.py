"""Parameters, one-step evolution, closed-form moments, position bounds."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antlion import (
    Alpha,
    WalkParams,
    closed_form_mean,
    closed_form_variance,
    evolve,
    reach_bound,
)


def brute_force_moments(alpha, p, t):
    """Oracle: mean/variance by direct summation over all 2^t paths."""
    mean = 0
    ex2 = 0
    for signs in itertools.product((-1, 1), repeat=t):
        prob = 1
        x = 0
        for s in signs:
            prob *= p if s == -1 else (1 - p)
            x = alpha * x + s
        mean += prob * x
        ex2 += prob * x * x
    return mean, ex2 - mean * mean


class TestAlpha:
    def test_parse_rational(self):
        a = Alpha.parse("9/10")
        assert a.exact and a.value == Fraction(9, 10)

    def test_parse_decimal(self):
        a = Alpha.parse("0.68")
        assert not a.exact and a.as_float == 0.68

    def test_mode_is_the_value_type(self):
        assert Alpha(Fraction(1, 2)).exact and Alpha(Fraction(1, 2)) == Alpha.parse("1/2")
        assert not Alpha(0.5).exact and Alpha(0.5) == Alpha.parse("0.5")
        assert repr(Alpha(0.5)) == "Alpha(value=0.5, exact=False)"
        with pytest.raises(TypeError):
            Alpha(Fraction(1, 2), exact=False)

    def test_exact_mode_rejects_endpoints(self):
        with pytest.raises(ValueError):
            Alpha.from_fraction(Fraction(1, 1))
        with pytest.raises(ValueError):
            Alpha.from_fraction(Fraction(0, 1))

    def test_real_mode_range(self):
        assert Alpha.from_real(1.0).as_float == 1.0
        assert Alpha.from_real(0.0).as_float == 0.0
        with pytest.raises(ValueError):
            Alpha.from_real(1.2)
        with pytest.raises(ValueError):
            Alpha.from_real(-0.1)


class TestWalkParams:
    def test_p_validation(self):
        with pytest.raises(ValueError):
            WalkParams(alpha=Alpha.from_real(0.5), p=1.5, t=1)

    def test_t_validation(self):
        with pytest.raises(ValueError):
            WalkParams(alpha=Alpha.from_real(0.5), p=0.5, t=-1)


class TestEvolve:
    def test_from_origin(self):
        assert evolve(0.0, Alpha.from_real(0.5), 1) == 1.0

    def test_second_step(self):
        assert evolve(1.0, Alpha.from_real(0.5), -1) == -0.5

    def test_simple_rw_reduction(self):
        assert evolve(3.7, Alpha.from_real(1.0), -1) == 2.7

    def test_exact_arithmetic(self):
        out = evolve(Fraction(1), Alpha.from_fraction(Fraction(1, 2)), -1)
        assert out == Fraction(-1, 2) and isinstance(out, Fraction)


class TestClosedForms:
    def test_symmetric_mean_zero(self):
        for alpha in (Alpha.from_fraction(Fraction(1, 3)), Alpha.from_real(0.77)):
            params = WalkParams(alpha=alpha, p=Fraction(1, 2), t=9)
            assert closed_form_mean(params) == 0

    def test_mean_all_plus(self):
        # Oracle: p=0 forces the all-plus path, X_3 = 1 + 1/2 + 1/4 = 7/4.
        params = WalkParams(alpha=Alpha.from_fraction(Fraction(1, 2)), p=Fraction(0), t=3)
        assert closed_form_mean(params) == Fraction(7, 4)
        oracle_mean, _ = brute_force_moments(Fraction(1, 2), Fraction(0), 3)
        assert oracle_mean == Fraction(7, 4)

    def test_mean_simple_rw_limit(self):
        params = WalkParams(alpha=Alpha.from_real(1.0), p=0.3, t=10)
        assert closed_form_mean(params) == pytest.approx(4.0, abs=1e-12)

    def test_variance_deterministic(self):
        params = WalkParams(alpha=Alpha.from_real(0.4), p=0.0, t=7)
        assert closed_form_variance(params) == 0

    def test_variance_two_steps(self):
        # Oracle: four paths of X_2 with alpha=1/2 give variance 5/4.
        oracle_mean, oracle_var = brute_force_moments(
            Fraction(1, 2), Fraction(1, 2), 2
        )
        assert (oracle_mean, oracle_var) == (0, Fraction(5, 4))
        params = WalkParams(alpha=Alpha.from_fraction(Fraction(1, 2)), p=Fraction(1, 2), t=2)
        assert closed_form_variance(params) == Fraction(5, 4)

    def test_variance_simple_rw_limit(self):
        params = WalkParams(alpha=Alpha.from_real(1.0), p=0.5, t=100)
        assert closed_form_variance(params) == pytest.approx(100.0)

    @pytest.mark.parametrize("alpha_num, alpha_den", [(1, 10), (1, 3), (1, 2), (2, 3), (9, 10)])
    @pytest.mark.parametrize("p", [Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(1)])
    def test_matches_brute_force(self, alpha_num, alpha_den, p):
        alpha = Fraction(alpha_num, alpha_den)
        for t in (1, 2, 5, 8):
            params = WalkParams(alpha=Alpha.from_fraction(alpha), p=p, t=t)
            mean, var = brute_force_moments(alpha, p, t)
            assert closed_form_mean(params) == mean
            assert closed_form_variance(params) == var

    @given(
        alpha=st.floats(0.01, 0.99),
        p=st.floats(0.0, 1.0),
        t=st.integers(1, 60),
    )
    @settings(max_examples=60, deadline=None)
    def test_subdiffusion(self, alpha, p, t):
        params = WalkParams(alpha=Alpha.from_real(alpha), p=p, t=t)
        assert closed_form_variance(params) <= 4 * p * (1 - p) * t + 1e-12


class TestPositionBounds:
    def test_half(self):
        bound = reach_bound(Fraction(1, 2))
        assert bound == Fraction(2) and isinstance(bound, Fraction)

    def test_nine_tenths(self):
        assert reach_bound(0.9) == 1.0 / (1.0 - 0.9)
        assert reach_bound(0.9) == pytest.approx(10.0, abs=1e-9)

    def test_one_tenth(self):
        assert reach_bound(Fraction(1, 10)) == Fraction(10, 9)

    def test_rejects_one_and_zero(self):
        with pytest.raises(ValueError):
            reach_bound(1.0)
        with pytest.raises(ValueError):
            reach_bound(0.0)

    def test_monotone_in_alpha(self):
        uppers = [reach_bound(a) for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(x < y for x, y in zip(uppers, uppers[1:]))

    @given(
        alpha=st.floats(0.05, 0.95),
        signs=st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_path_stays_inside(self, alpha, signs):
        t = len(signs)
        x = 0.0
        for s in signs:
            x = evolve(x, alpha, s)
        partial_bound = (1 - alpha**t) / (1 - alpha)
        assert abs(x) <= partial_bound + 1e-9
        # Strict inequality needs alpha^t to survive float rounding.
        assert partial_bound <= 1 / (1 - alpha)
        if alpha**t > 1e-12:
            assert partial_bound < 1 / (1 - alpha)
