"""Reachability: central gap, witnesses, certificates, inverse paths."""

import math
import re
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
from antlion import core, reachability
from antlion.core import evolve, philox_stream
from antlion.reachability import (
    _MAX_PEELS,
    MAX_WITNESS_DEPTH,
    ReachResult,
    decide_lanes,
    replay_forward,
)


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

    def test_unsound_witness_raises_on_sweep(self, monkeypatch):
        # Every witnessed lane is replayed: a miss on the last one alone
        # must raise, under python -O too.
        for alpha, eps in ((0.7, 1e-3), (0.3, 1e-3)):
            bound = 1 / (1 - alpha)
            targets = philox_stream(3).uniform(-bound, bound, size=64)
            last = np.flatnonzero(decide_lanes(alpha, targets, eps).reachable)[-1]
            real = reachability.replay_forward

            def skewed(a, xi):
                landed = real(a, xi)
                landed[-1] += 1.0
                return landed

            monkeypatch.setattr(reachability, "replay_forward", skewed)
            with pytest.raises(RuntimeError, match=f"witness for r={targets[last]} "):
                decide_lanes(alpha, targets, eps)
            monkeypatch.undo()

    def test_witness_storage_guarded(self, monkeypatch):
        # Both phases check the n x depth witness matrix against the budget.
        monkeypatch.setattr(core, "DEFAULT_ELEMENT_LIMIT", 1000)
        targets = np.linspace(-0.9, 0.9, 200)
        for alpha in (0.3, 0.7):
            with pytest.raises(ResourceLimitError, match="witnesses of 200 targets"):
                decide_lanes(alpha, targets, 1e-9)


# The per-target decision that decide_lanes replaced, copied verbatim with its
# scalar replay: every lane must equal it in decision, witness and certificate.


def _ref_replay_forward(alpha, xi):
    x = 0.0
    for step in xi:
        x = evolve(x, alpha, step)
    return x


def _ref_greedy_witness(alpha: float, r: float, eps: float):
    # Depth where the uncovered tail alpha^T/(1-alpha) drops below eps; one
    # extra level keeps the strict-inequality margin clear of float noise.
    target = eps * (1.0 - alpha)
    depth = max(1, math.ceil(math.log(target) / math.log(alpha))) if target < 1 else 1
    while alpha**depth >= target:
        depth += 1
    depth += 1
    if depth > MAX_WITNESS_DEPTH:
        raise ResourceLimitError(
            f"a witness within epsilon={eps} at alpha={alpha} needs {depth} steps; "
            f"the depth is capped at {MAX_WITNESS_DEPTH}"
        )
    zeta = []
    y = 0.0
    w = 1.0
    for _ in range(depth):
        z = 1 if y < r else -1
        zeta.append(z)
        y += w * z
        w *= alpha
    return tuple(reversed(zeta))


def _ref_witnessed(alpha: float, r: float, eps: float, witness) -> ReachResult:
    # Soundness check by replay; an explicit raise so that ``python -O`` keeps it.
    if not abs(_ref_replay_forward(alpha, witness) - r) < eps:
        raise RuntimeError(
            f"the depth-{len(witness)} witness for r={r} replays farther than "
            f"epsilon={eps}; this is a bug"
        )
    return ReachResult(True, witness=witness)


def reference_is_eps_reachable(query: ReachQuery) -> ReachResult:
    """Decide whether some path endpoint lies strictly within epsilon of r."""
    alpha, r, eps = query.alpha, query.r, query.epsilon
    bound = 1.0 / (1.0 - alpha)

    if abs(r) > bound:
        certificate = (bound, math.inf) if r > 0 else (-math.inf, -bound)
        return ReachResult(False, certificate=certificate)

    if alpha >= 0.5:
        return _ref_witnessed(alpha, r, eps, _ref_greedy_witness(alpha, r, eps))

    gap = (1.0 - 2.0 * alpha) / (1.0 - alpha)
    prefix = []  # coarse-to-fine increments peeled off so far
    rr = r
    ee = eps
    scale = 1.0  # alpha^len(prefix)
    for _ in range(_MAX_PEELS):
        if abs(rr) < ee:
            return _ref_witnessed(alpha, r, eps, tuple(reversed(prefix)))
        if abs(rr) > bound and abs(rr) - bound >= ee:
            # Beyond what the remaining tail can span, by at least the scaled
            # tolerance; smaller overshoots keep peeling toward the extreme.
            radius = scale * (abs(rr) - bound)
            return ReachResult(False, certificate=(r - radius, r + radius))
        if abs(rr) < gap and gap - abs(rr) >= ee:
            # Stranded in the central gap: nearest endpoints sit at the gap
            # edge on one side and at the peeled prefix itself on the other
            # (abs(rr) >= ee held above, so both margins are at least ee).
            radius = scale * min(abs(rr), gap - abs(rr))
            return ReachResult(False, certificate=(r - radius, r + radius))
        z = 1 if rr > 0 else -1
        prefix.append(z)
        rr = (rr - z) / alpha
        ee = ee / alpha
        scale *= alpha
    raise RuntimeError("peel-back failed to terminate; this is a bug")


def assert_lanes_match_reference(alpha, targets, eps):
    """Each lane equals the reference in decision, witness and certificate,
    and a lane whose reference fails its replay check fails the call."""
    targets = np.asarray(targets, dtype=np.float64)
    wants, failures = [], []
    for r in targets.tolist():
        try:
            wants.append(reference_is_eps_reachable(ReachQuery(alpha=alpha, r=r, epsilon=eps)))
        except RuntimeError as exc:
            wants.append(None)
            failures.append(str(exc))
    if failures:
        with pytest.raises(RuntimeError, match=re.escape(failures[0])):
            decide_lanes(alpha, targets, eps)
    decided = np.array([want is not None for want in wants], dtype=bool)
    lanes = decide_lanes(alpha, targets[decided], eps)
    assert lanes.targets.shape == lanes.reachable.shape == lanes.depth.shape
    for i, want in enumerate(w for w in wants if w is not None):
        # repr tells -0.0 from 0.0 in a certificate.
        assert repr(lanes.result(i)) == repr(want), (alpha, lanes.targets[i], eps)
        assert lanes.depth[i] == want.witness_depth
        if want.reachable:  # the padding the lane replay relies on
            assert not lanes.zeta[lanes.depth[i] :, i].any()
    return lanes


class TestLanesAgainstReference:
    @pytest.mark.parametrize("alpha, eps", [(0.5, 2.0**-12), (0.3, 1e-3)])
    def test_table_dump_sweeps(self, alpha, eps):
        bound = 1.0 / (1.0 - alpha)
        targets = philox_stream(0).uniform(-bound, bound, size=2000)
        lanes = assert_lanes_match_reference(alpha, targets, eps)
        assert lanes.reachable.all() if alpha == 0.5 else not lanes.reachable.all()

    @pytest.mark.parametrize("eps", [1e-9, 1e-3, 0.25, math.inf])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49, 0.5, 0.7, 0.99])
    def test_edge_targets(self, alpha, eps):
        bound = 1.0 / (1.0 - alpha)
        gap = (1.0 - 2.0 * alpha) / (1.0 - alpha)
        edges = [
            0.0,
            -0.0,
            bound,
            math.nextafter(bound, math.inf),  # just beyond the bound
            1.5 * bound,
            1e300,
            gap,
            math.nextafter(gap, 0.0),
            math.nextafter(gap, math.inf),
        ]
        targets = [*edges, *(-x for x in edges), *np.linspace(-1.2 * bound, 1.2 * bound, 101)]
        lanes = assert_lanes_match_reference(alpha, targets, eps)
        assert not lanes.reachable[np.abs(lanes.targets) > bound].any()
        for i in (0, 9, 30):  # the one-lane view is the same decision
            query = ReachQuery(alpha=alpha, r=float(lanes.targets[i]), epsilon=eps)
            assert repr(is_eps_reachable(query)) == repr(lanes.result(i))

    @given(
        alpha=st.floats(0.01, 0.99),
        eps=st.one_of(st.floats(1e-9, 4.0), st.just(math.inf)),
        fracs=st.lists(st.floats(-1.5, 1.5), min_size=0, max_size=24),
    )
    @settings(max_examples=80, deadline=None)
    def test_property(self, alpha, eps, fracs):
        bound = 1.0 / (1.0 - alpha)
        assert_lanes_match_reference(alpha, [f * bound for f in fracs], eps)

    def test_replay_lanes_match_sequences(self):
        # Lanes of different depths, padded in front with 0, replay to the
        # same floats as each witness on its own.
        rng = np.random.default_rng(7)
        witnesses = [tuple(rng.choice((-1, 1), size=d).tolist()) for d in (0, 1, 5, 17, 40)]
        xi = np.zeros((40, len(witnesses)), dtype=np.int8)
        for j, w in enumerate(witnesses):
            xi[40 - len(w) :, j] = w
        landed = replay_forward(0.37, xi)
        for j, w in enumerate(witnesses):
            assert landed[j] == replay_forward(0.37, w) == _ref_replay_forward(0.37, w)
        assert isinstance(replay_forward(0.37, witnesses[3]), float)
