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
    is_eps_reachable,
)
from antlion import core, exact, reachability
from antlion.core import evolve, philox_stream
from antlion.reachability import (
    _EXTRA_PEELS,
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
    def test_all_plus(self):
        assert replay_forward(0.5, (1, 1, 1)) == pytest.approx(1.75)

    @given(
        alpha=st.floats(0.05, 0.99),
        zeta=st.lists(st.sampled_from((-1, 1)), min_size=0, max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_forward_inverse_agreement(self, alpha, zeta):
        # The coarse-to-fine sum of zeta is the endpoint of its reversal.
        coarse_to_fine = sum(alpha**s * z for s, z in enumerate(zeta))
        forward = tuple(reversed(zeta))
        assert coarse_to_fine == pytest.approx(replay_forward(alpha, forward), abs=1e-12)


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
    @pytest.mark.soundness
    def test_unsound_witness_raises(self, alpha, r, monkeypatch):
        # Replay is the soundness check on both decision branches; it must
        # raise, not assert, so that python -O keeps it.
        flip_coarsest_increment(monkeypatch, alpha, 0)
        with pytest.raises(RuntimeError, match="witness"):
            is_eps_reachable(ReachQuery(alpha=alpha, r=r, epsilon=1e-3))

    @pytest.mark.soundness
    def test_unsound_witness_raises_on_sweep(self, monkeypatch):
        # Every witnessed lane is replayed: a miss on the last one alone
        # must raise, under python -O too.
        for alpha, eps in ((0.7, 1e-3), (0.3, 1e-3)):
            bound = 1 / (1 - alpha)
            targets = philox_stream(3).uniform(-bound, bound, size=64)
            last = np.flatnonzero(decide_lanes(alpha, targets, eps).reachable)[-1]
            flip_coarsest_increment(monkeypatch, alpha, last)
            with pytest.raises(RuntimeError, match=f"witness for r={targets[last]} "):
                decide_lanes(alpha, targets, eps)
            monkeypatch.undo()

    @pytest.mark.soundness
    def test_peel_bound_raises(self, monkeypatch):
        # The lane needs more than two levels; running out of them must
        # raise, not assert, so that python -O keeps it.
        monkeypatch.setattr(reachability, "_MAX_PEELS", 2)
        with pytest.raises(RuntimeError, match="peel-back failed to terminate"):
            decide_lanes(0.3, [1.2], 1e-12)

    def test_unconfirmed_hit_is_certified_at_epsilon(self):
        # The depth-46 prefix lies 0.375 epsilon from r in exact arithmetic,
        # but its float replay lands 1.11 epsilon away, and no deeper prefix
        # replays within epsilon. At float resolution no endpoint is within
        # epsilon, and the certificate says no more than that.
        r = -0.23310180992733298
        result = is_eps_reachable(ReachQuery(alpha=0.49, r=r, epsilon=1e-16))
        assert result == ReachResult(False, certificate=(r - 1e-16, r + 1e-16))

    def test_stuck_certificate_below_half_an_ulp_is_empty(self):
        # Lane 101 is certified at radius epsilon, and epsilon is below half
        # an ulp of r, so both edges round to r itself.
        alpha = 0.46906666666666663
        bound = reachability.reach_bound(alpha)
        targets = philox_stream(3).uniform(-bound, bound, size=300)
        lanes = decide_lanes(alpha, targets, 1e-16)
        r = targets[101]
        assert r == 1.7833881189918732 and 1e-16 < np.spacing(r) / 2
        assert lanes.result(101) == ReachResult(False, certificate=(r, r))
        query = ReachQuery(alpha=alpha, r=float(r), epsilon=1e-16)
        assert is_eps_reachable(query) == lanes.result(101)

    def test_float_tie_peels_on(self):
        # The prefix (1, 1, -1) replays exactly 0.25 from the target, a float
        # hit; one level deeper (1, 1, 1, -1) lands inside.
        result = is_eps_reachable(ReachQuery(alpha=0.1, r=-0.64, epsilon=0.25))
        assert result.witness == (1, 1, 1, -1)

    def test_float_hits_peel_on_to_a_confirmed_witness(self, monkeypatch):
        # 24 of these lanes have a float hit whose prefix replays epsilon or
        # farther away; with no peel past it each would be certified at
        # radius epsilon, though a deeper prefix replays within it.
        bound = 1 / (1 - 0.49)
        targets = philox_stream(0).uniform(-bound, bound, size=300)
        peeled = assert_lanes_match_reference(0.49, targets, 1e-16)
        monkeypatch.setattr(reachability, "_EXTRA_PEELS", 0)
        unpeeled = decide_lanes(0.49, targets, 1e-16)
        lost = peeled.reachable & ~unpeeled.reachable
        assert lost.sum() == 24 and not (unpeeled.reachable & ~peeled.reachable).any()
        assert (unpeeled.certificate[lost] == np.add.outer(targets[lost], (-1e-16, 1e-16))).all()

    def test_witness_storage_guarded(self, monkeypatch):
        # Both phases check the n x depth witness matrix against the budget.
        monkeypatch.setattr(core, "DEFAULT_ELEMENT_LIMIT", 1000)
        targets = np.linspace(-0.9, 0.9, 200)
        for alpha in (0.3, 0.7):
            with pytest.raises(ResourceLimitError, match="witnesses of 200 targets"):
                decide_lanes(alpha, targets, 1e-9)


# The per-target decision that decide_lanes replaced, with its scalar replay:
# every lane must equal it in decision, witness and certificate. It was
# copied verbatim, then given the confirmed sparse hit: a float hit counts
# once its prefix replays within epsilon, and peels on (certified by neither
# the gap nor the bounds) while it does not, until _EXTRA_PEELS levels past
# the first float hit it is certified at radius epsilon.


def flip_coarsest_increment(monkeypatch, alpha, lane):
    """Make the decision phase of ``alpha`` return lane ``lane``'s witness
    with its coarsest increment flipped, which moves its endpoint by 2: only
    the replay check of the returned witnesses can catch it."""
    name = "_dense" if alpha >= 0.5 else "_sparse"
    phase = getattr(reachability, name)

    def flipped(*args):
        reachable, depth, zeta = phase(*args)
        assert zeta[0, lane] != 0
        zeta[0, lane] = -zeta[0, lane]
        return reachable, depth, zeta

    monkeypatch.setattr(reachability, name, flipped)


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
    first = None  # depth of the first float hit
    for _ in range(_MAX_PEELS):
        if abs(rr) < ee and first is None:
            first = len(prefix)
        if first is not None:
            witness = tuple(reversed(prefix))
            if abs(rr) < ee and abs(_ref_replay_forward(alpha, witness) - r) < eps:
                return ReachResult(True, witness=witness)
            if len(prefix) - first >= _EXTRA_PEELS:
                return ReachResult(False, certificate=(r - eps, r + eps))
        elif abs(rr) > bound and abs(rr) - bound >= ee:
            # Beyond what the remaining tail can span, by at least the scaled
            # tolerance; smaller overshoots keep peeling toward the extreme.
            radius = scale * (abs(rr) - bound)
            return ReachResult(False, certificate=(r - radius, r + radius))
        elif abs(rr) < gap and gap - abs(rr) >= ee:
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


class TestAgainstExactLattice:
    """Decisions against every endpoint of 1 to 12 steps, taken from the
    exact lattice of a dyadic alpha, whose float is the rational itself."""

    @staticmethod
    def endpoints(alpha: Fraction, steps: int = 12):
        """``(xs, points)``: the endpoints of 1 to ``steps`` steps rounded to
        floats in increasing order, and each as a ``Fraction`` in the same
        order."""
        m, n = alpha.numerator, alpha.denominator
        points = [
            Fraction(S, n ** (s - 1))
            for s in range(1, steps + 1)
            for S in exact._level(m, n, s).tolist()
        ]
        xs = np.array([float(x) for x in points])
        order = np.argsort(xs)
        return xs[order], [points[i] for i in order]

    @classmethod
    def decided(cls, alpha: Fraction):
        """Yield ``(eps, xs, points, lanes)`` for each epsilon: the
        ``endpoints`` and the decisions on 2000 uniforms inside the bounds
        and on targets just beyond and just within epsilon of each one."""
        xs, points = cls.endpoints(alpha)
        bound = 1.0 / (1.0 - float(alpha))
        for eps in (2.0**-4, 2.0**-8, 1e-3):
            targets = np.concatenate(
                [
                    philox_stream(0).uniform(-bound, bound, 2000),
                    xs + eps * (1 + 1e-7),
                    xs - eps * (1 - 1e-7),
                ]
            )
            yield eps, xs, points, decide_lanes(float(alpha), targets, eps)

    @pytest.mark.parametrize(
        "alpha",
        [Fraction(1, 4), Fraction(5, 16), Fraction(3, 8), Fraction(7, 16), Fraction(15, 32)]
        + [Fraction(1, 2), Fraction(3, 4)],
        ids=str,
    )
    def test_endpoints_within_epsilon_are_reached(self, alpha):
        bound = 1.0 / (1.0 - float(alpha))
        for eps, xs, _, lanes in self.decided(alpha):
            # The nearest endpoint's float distance is within 2^-48 of the
            # exact one (|x| < 4), so the floats decide every target that
            # is not within 2^-40 of the epsilon edge; none is. Exterior
            # targets stay unreachable, the unconditional exterior case.
            targets = lanes.targets
            right = np.minimum(np.searchsorted(xs, targets), xs.size - 1)
            left = np.maximum(right - 1, 0)
            near = np.minimum(np.abs(targets - xs[left]), np.abs(targets - xs[right]))
            assert not (np.abs(near - eps) <= 2.0**-40).any()
            assert lanes.reachable[(np.abs(targets) < bound) & (near < eps)].all(), eps
            assert not lanes.reachable[np.abs(targets) > bound].any()

    @pytest.mark.parametrize(
        "alpha",
        [
            Fraction(1, 4),
            Fraction(5, 16),
            Fraction(3, 8),
            Fraction(7, 16),
            pytest.param(
                Fraction(15, 32),
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=AssertionError,
                    reason="a certificate edge two ulps past a grazing endpoint",
                ),
            ),
        ],
        ids=str,
    )
    def test_no_endpoint_inside_a_certificate(self, alpha):
        # Certificate edges are float-evaluated, so an endpoint that grazes
        # one may sit an ulp inside it (ReachResult); at 3/8, 7/16 and 15/32
        # some do. At 15/32 and epsilon 1e-3, two certificates reach two
        # ulps past the endpoint +-6833/32768. An endpoint strictly inside a
        # certificate shrunk by an ulp rounds into it: none may round
        # strictly inside, and those that round onto an edge are compared
        # exactly.
        for eps, xs, points, lanes in self.decided(alpha):
            self.assert_no_endpoint_inside(xs, points, lanes.certificate, eps)

    @staticmethod
    def assert_no_endpoint_inside(xs, points, certificate, eps):
        lo, hi = certificate[np.isfinite(certificate).all(axis=1)].T
        lo, hi = np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)
        inside = np.searchsorted(xs, hi, "left") - np.searchsorted(xs, lo, "right")
        assert not inside.any(), eps
        for edges in (lo, hi):
            first = np.searchsorted(xs, edges, "left")
            last = np.searchsorted(xs, edges, "right")
            for i in np.flatnonzero(first < last):
                for x in points[first[i] : last[i]]:
                    assert not lo[i] < x < hi[i], (eps, lo[i], hi[i], x)

    @pytest.mark.parametrize("alpha", [Fraction(5, 16), Fraction(3, 8), Fraction(7, 16)], ids=str)
    def test_exact_ties_decide(self, alpha):
        # Every target lies exactly epsilon from an endpoint of at most 6
        # steps, all exact floats: ties the 2^-40 margin of
        # test_endpoints_within_epsilon_are_reached keeps out. The float peel
        # may call a tie a hit whose replay lands at epsilon, not strictly
        # within it. Every call decides: each witness lands strictly within
        # epsilon in exact arithmetic, and no certificate holds an endpoint
        # past the one-ulp allowance.
        xs, points = self.endpoints(alpha)
        ties, _ = self.endpoints(alpha, 6)
        for eps in (2.0**-8, 2.0**-12):
            targets = np.concatenate([ties - eps, ties + eps])
            lanes = decide_lanes(float(alpha), targets, eps)
            for i in np.flatnonzero(lanes.reachable):
                zeta = lanes.zeta[: lanes.depth[i], i].tolist()
                landed = sum(z * alpha**k for k, z in enumerate(zeta))
                assert abs(landed - Fraction(targets[i])) < eps, (eps, targets[i])
            self.assert_no_endpoint_inside(xs, points, lanes.certificate, eps)
