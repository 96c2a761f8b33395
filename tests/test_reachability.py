"""Reachability: central gap, witnesses, certificates, inverse paths."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antlion import (
    Alpha,
    ReachQuery,
    ResourceLimitError,
    WalkParams,
    central_gap,
    enumerate_distribution,
    inverse_path_value,
    is_eps_reachable,
)
from antlion import reachability
from antlion.reachability import replay_forward


class TestCentralGap:
    def test_alpha_point_three(self):
        lo, hi = central_gap(0.3)
        assert hi == pytest.approx(4 / 7, abs=1e-12)
        assert lo == pytest.approx(-4 / 7, abs=1e-12)

    def test_no_gap_from_half(self):
        assert central_gap(0.5) is None
        assert central_gap(0.8) is None

    def test_width_vanishes_at_half(self):
        _, hi = central_gap(0.499999)
        assert hi < 5e-6

    def test_domain(self):
        with pytest.raises(ValueError):
            central_gap(0.0)
        with pytest.raises(ValueError):
            central_gap(1.0)


class TestInversePath:
    def test_empty(self):
        assert inverse_path_value(0.7, ()) == 0.0

    def test_all_plus(self):
        assert inverse_path_value(0.5, (1, 1, 1)) == pytest.approx(1.75)
        assert replay_forward(0.5, (1, 1, 1)) == pytest.approx(1.75)

    @given(
        alpha=st.floats(0.05, 0.99),
        zeta=st.lists(st.sampled_from((-1, 1)), min_size=0, max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_forward_inverse_agreement(self, alpha, zeta):
        forward = tuple(reversed(zeta))
        assert inverse_path_value(alpha, zeta) == pytest.approx(
            replay_forward(alpha, forward), abs=1e-12
        )


class TestReachability:
    def test_gap_midpoint_unreachable(self):
        r = (1 - 0.6) / (2 * 0.7)  # 2/7
        res = is_eps_reachable(ReachQuery(alpha=0.3, r=r, epsilon=r))
        assert not res.reachable
        lo, hi = res.certificate
        assert lo < r < hi

    def test_reachable_at_half(self):
        res = is_eps_reachable(ReachQuery(alpha=0.5, r=1.37, epsilon=1e-3))
        assert res.reachable
        assert abs(replay_forward(0.5, res.witness) - 1.37) < 1e-3

    def test_near_upper_bound(self):
        r = 1 / (1 - 0.7) - 1e-4
        res = is_eps_reachable(ReachQuery(alpha=0.7, r=r, epsilon=1e-3))
        assert res.reachable

    def test_outside_bounds(self):
        for alpha in (0.2, 0.5, 0.9):
            r = 5 / (1 - alpha)
            res = is_eps_reachable(
                ReachQuery(alpha=alpha, r=r, epsilon=3.9 / (1 - alpha))
            )
            assert not res.reachable
            lo, hi = res.certificate
            assert lo < r < hi

    def test_partial_sum_endpoints_reachable(self):
        for alpha in (0.25, 0.4, 0.6, 0.85):
            for horizon in (1, 3, 8):
                r = (1 - alpha**horizon) / (1 - alpha)
                for target in (r, -r):
                    res = is_eps_reachable(
                        ReachQuery(alpha=alpha, r=target, epsilon=1e-9)
                    )
                    assert res.reachable
                    landed = replay_forward(alpha, res.witness)
                    assert abs(landed - target) < 1e-9

    def test_alpha_half_dense(self):
        rng = np.random.default_rng(2024)
        eps = 2.0**-12
        for r in rng.uniform(-2.0, 2.0, size=200):
            res = is_eps_reachable(ReachQuery(alpha=0.5, r=float(r), epsilon=eps))
            assert res.reachable
            assert abs(replay_forward(0.5, res.witness) - r) < eps

    def test_phase_transition(self):
        for alpha in (0.1, 0.2, 0.3, 0.4):
            r = (1 - 2 * alpha) / (2 * (1 - alpha))
            res = is_eps_reachable(ReachQuery(alpha=alpha, r=r, epsilon=r))
            assert not res.reachable
        eps = 2.0**-12
        for alpha in (0.5, 0.6, 0.7, 0.8, 0.9):
            r = (1 - 2 * alpha) / (2 * (1 - alpha))
            res = is_eps_reachable(ReachQuery(alpha=alpha, r=r, epsilon=eps))
            assert res.reachable

    @given(
        alpha=st.floats(0.5, 0.99),
        frac=st.floats(-1.0, 1.0),
        eps=st.floats(1e-6, 0.1),
    )
    @settings(max_examples=120, deadline=None)
    def test_witness_soundness_dense_phase(self, alpha, frac, eps):
        r = frac / (1 - alpha)
        res = is_eps_reachable(ReachQuery(alpha=alpha, r=r, epsilon=eps))
        assert res.reachable
        assert abs(replay_forward(alpha, res.witness) - r) < eps

    @given(
        alpha=st.floats(0.05, 0.49),
        frac=st.floats(-1.0, 1.0),
        eps=st.floats(1e-6, 0.5),
    )
    @settings(max_examples=120, deadline=None)
    def test_sound_either_way_sparse_phase(self, alpha, frac, eps):
        r = frac / (1 - alpha)
        res = is_eps_reachable(ReachQuery(alpha=alpha, r=r, epsilon=eps))
        if res.reachable:
            assert abs(replay_forward(alpha, res.witness) - r) < eps
        else:
            lo, hi = res.certificate
            assert lo < r < hi
            assert min(r - lo, hi - r) >= eps * (1 - 1e-12)

    def test_certificates_against_enumeration(self):
        # Certified-unreachable targets must keep the whole exact support at
        # distance >= epsilon.
        for num, den in ((1, 10), (3, 10), (2, 5)):
            alpha = Fraction(num, den)
            r = (1 - 2 * alpha) / (2 * (1 - alpha))
            res = is_eps_reachable(
                ReachQuery(alpha=float(alpha), r=float(r), epsilon=float(r))
            )
            assert not res.reachable
            dist = enumerate_distribution(
                WalkParams(alpha=Alpha.from_fraction(alpha), p=Fraction(1, 2), t=12)
            )
            min_gap = min(abs(x - r) for x in dist.support_fractions())
            assert min_gap >= r

    def test_validation(self):
        with pytest.raises(ValueError):
            ReachQuery(alpha=1.0, r=0.0, epsilon=0.1)
        with pytest.raises(ValueError):
            ReachQuery(alpha=0.5, r=0.0, epsilon=0.0)
        for alpha in (0.3, 0.7):
            for r in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ValueError, match="finite"):
                    ReachQuery(alpha=alpha, r=r, epsilon=0.01)
        # 5e-324 * (1 - 0.7) underflows to zero, so no greedy depth exists.
        with pytest.raises(ValueError, match="underflows"):
            ReachQuery(alpha=0.7, r=0.1, epsilon=5e-324)
        assert is_eps_reachable(ReachQuery(alpha=0.3, r=0.0, epsilon=5e-324)).reachable

    def test_witness_depth_guarded(self):
        # About 1.8e6 greedy levels, past MAX_WITNESS_DEPTH; alpha = 0.9999999999
        # at the same epsilon would need 3e11.
        with pytest.raises(ResourceLimitError, match="1842060 steps"):
            is_eps_reachable(ReachQuery(alpha=1 - 1e-5, r=0.0, epsilon=1e-3))

    @pytest.mark.parametrize("alpha, r", [(0.7, 0.3), (0.3, 1.3)])
    def test_unsound_witness_raises(self, alpha, r, monkeypatch):
        # Replay is the soundness check on both decision branches; it must
        # raise, not assert, so that python -O keeps it.
        monkeypatch.setattr(reachability, "replay_forward", lambda a, xi: r + 1.0)
        with pytest.raises(RuntimeError, match="witness"):
            is_eps_reachable(ReachQuery(alpha=alpha, r=r, epsilon=1e-3))
