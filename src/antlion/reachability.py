"""Reachability of target positions, with witnesses and gap certificates.

Every endpoint of a length-T path can be rewritten coarse-to-fine as
``sum_{s=1..T} alpha^(s-1) zeta_s`` where ``zeta`` is the time-reversed
increment sequence; replaying the reversal forward through the walk lands on
the same point. Decisions work on that form:

* ``alpha >= 1/2``: consecutive step sizes overlap (``alpha^(k) <=
  alpha^(k+1)/(1-alpha)``), so a greedy choice of ``zeta_k = sign(r - Y)``
  homes in on any target inside the open bounds; depth ``T`` with
  ``alpha^T < eps (1 - alpha)`` guarantees an endpoint within ``eps``.

* ``alpha < 1/2``: the one-step images of the bounded interval are two
  disjoint pieces, [g, b] and [-b, -g] with ``g = (1-2 alpha)/(1-alpha)`` and
  ``b = 1/(1-alpha)``, separated by an open central gap (-g, g) that no
  nonzero endpoint enters. Peeling the leading increment off the target,
  ``r' <- (r' - sign(r')) / alpha`` with the tolerance rescaled by ``1/alpha``
  each time, either lands within tolerance of an exact endpoint (reachable,
  witness = peeled prefix) or strands the target in the gap or beyond the
  bounds by at least the scaled tolerance (unreachable, certified interval).
  A float hit counts once the prefix's forward replay lands strictly within
  ``epsilon``; otherwise the target peels on, certified by neither the gap
  nor the bounds, as a tie in floats cannot rule it out. ``_EXTRA_PEELS``
  levels on, still unconfirmed, it is certified at radius ``epsilon``.

The decision is the finite relaxation "some time lands strictly within
``epsilon`` of ``r`` with positive probability" for the epsilon supplied;
targets strictly outside the bounds are unreachable for any epsilon. A
target that peels to exactly zero is an exact endpoint and counts as
reachable, the empty prefix standing for landing at the start position.

``decide_lanes`` runs the decision for an array of targets that share
``alpha`` and ``epsilon``, one vector operation per level over every lane;
each lane does the float operations of the one-target decision in the same
order. ``is_eps_reachable`` is its one-lane view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import ResourceLimitError, check_elements, evolve

__all__ = [
    "ReachQuery",
    "ReachResult",
    "ReachLanes",
    "central_gap",
    "decide_lanes",
    "is_eps_reachable",
    "reach_bound",
]

_MAX_PEELS = 10_000

# Levels a lane peels on past its first float hit while the replay of its
# prefix misses; then it is certified unreachable at radius epsilon.
# Over 35 000 uniform targets (alpha 0.05 to 0.499, epsilon 1e-16 to 0.25)
# a confirmed hit came at most 9 levels past the first.
_EXTRA_PEELS = 16

# Deepest greedy witness built. Building and replaying it costs about 5 s
# per million levels for a single target on a 2-core Xeon host (a few numpy
# calls per level, whatever the target count), and the depth grows like
# log(eps) / log(alpha).
MAX_WITNESS_DEPTH = 1 << 20


def reach_bound(alpha):
    """``1/(1-alpha)``, in the arithmetic of ``alpha`` (a Fraction gives a
    Fraction): every endpoint lies strictly inside ``(-bound, bound)``."""
    if not (0 < alpha < 1):
        raise ValueError(f"reachability requires 0 < alpha < 1, got {alpha}")
    return 1 / (1 - alpha)


def _validate(alpha: float, targets: np.ndarray, epsilon: float) -> float:
    """Raise ``ValueError`` on a malformed query; return the bound."""
    bound = reach_bound(alpha)
    finite = np.isfinite(targets)
    if not finite.all():
        raise ValueError(f"target r must be finite, got {targets[~finite][0]}")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if epsilon * (1.0 - alpha) == 0.0:
        # The greedy witness depth is log(epsilon * (1 - alpha)) / log(alpha).
        raise ValueError(
            f"epsilon={epsilon} is too small for alpha={alpha}: "
            "epsilon * (1 - alpha) underflows to zero"
        )
    return bound


@dataclass(frozen=True)
class ReachQuery:
    """Target ``r`` with tolerance ``epsilon`` under memory ``alpha``."""

    alpha: float
    r: float
    epsilon: float

    def __post_init__(self) -> None:
        _validate(self.alpha, np.array([self.r], dtype=np.float64), self.epsilon)


@dataclass(frozen=True)
class ReachResult:
    """Decision plus evidence.

    ``witness`` is a forward increment sequence whose replay from 0 lands
    strictly within epsilon of the target. ``certificate`` is an open
    interval around the target containing no reachable point; its radius is
    at least epsilon except for the unconditional exterior case. A lane whose
    float hits no replay confirmed has edges ``r - epsilon`` and ``r +
    epsilon`` rounded to nearest, a claim made at float resolution only;
    where epsilon is below half an ulp of ``r`` both edges are ``r``. Edges
    are float-evaluated, so endpoint-grazing support points (the gap edge is
    approached to within ~alpha^t) may sit within one ulp of an edge.
    """

    reachable: bool
    witness: Optional[Tuple[int, ...]] = None
    certificate: Optional[Tuple[float, float]] = None

    @property
    def witness_depth(self) -> int:
        return len(self.witness) if self.witness is not None else 0


@dataclass(frozen=True)
class ReachLanes:
    """Decisions for targets sharing ``alpha`` and ``epsilon``, one per lane.

    For a reachable lane ``i``, ``zeta[:depth[i], i]`` is its coarse-to-fine
    witness and ``zeta[depth[i]:, i]`` is 0; other columns hold no witness.
    ``certificate[i]`` is the ``(lo, hi)`` interval of an unreachable lane,
    NaN on reachable ones.
    """

    targets: np.ndarray
    reachable: np.ndarray
    depth: np.ndarray
    zeta: np.ndarray
    certificate: np.ndarray

    def result(self, i: int) -> ReachResult:
        """Lane ``i`` as a :class:`ReachResult`."""
        if self.reachable[i]:
            return ReachResult(True, witness=tuple(self.zeta[: self.depth[i], i][::-1].tolist()))
        lo, hi = self.certificate[i].tolist()
        return ReachResult(False, certificate=(lo, hi))


def central_gap(alpha: float) -> Optional[Tuple[float, float]]:
    """Open interval around 0 that no nonzero endpoint enters, if any.

    For ``alpha < 1/2`` this is ``(-(1-2a)/(1-a), (1-2a)/(1-a))``: one step
    after any position inside the bounds lands beyond it. For
    ``alpha >= 1/2`` the one-step images overlap and there is no gap.
    """
    if not (0 < alpha < 1):
        raise ValueError(f"central_gap requires 0 < alpha < 1, got {alpha}")
    if alpha >= 0.5:
        return None
    g = (1.0 - 2.0 * alpha) / (1.0 - alpha)
    return (-g, g)


def replay_forward(alpha: float, xi):
    """Endpoint of a forward increment sequence from ``X_0 = 0``.

    A 2-D ``xi`` holds levels on axis 0 and lanes on axis 1 and gives one
    endpoint per lane; every lane does ``alpha * x + xi`` per level, as a
    1-D sequence does. Leading zero increments keep a lane at 0.0 exactly,
    so a shorter witness replays bit for bit when padded in front with 0.
    """
    xi = np.asarray(xi)
    x = np.zeros(xi.shape[1:])
    for row in xi:
        x = evolve(x, alpha, row)
    return x if x.ndim else float(x)


def _greedy_depth(alpha: float, eps: float) -> int:
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
    return depth


def _dense(alpha, targets, eps, inside):
    """Dense phase: every lane inside the bounds is reachable at one depth.
    Level by level ``zeta_k = sign(r - Y)`` and ``Y += w * zeta_k``, as vector
    ops over all lanes. Returns ``(reachable, depth, zeta)``."""
    n = targets.size
    if not inside.any():
        return inside, np.zeros(n, dtype=np.int64), np.zeros((0, n), dtype=np.int8)
    levels = _greedy_depth(alpha, eps)
    check_elements(n * levels, f"witnesses of {n} targets at depth {levels}")
    up = np.empty((levels, n), dtype=bool)
    y = np.zeros(n)
    w = 1.0
    for row in up:
        np.less(y, targets, out=row)
        y += np.where(row, w, -w)  # w * zeta_k, exact for zeta_k = +-1
        w *= alpha
    return inside, np.where(inside, levels, 0), np.where(up, np.int8(1), np.int8(-1))


def _sparse(alpha, targets, eps, bound, inside, certificate):
    """Sparse phase: peel the leading increment off each live lane until it
    lands within tolerance or strands in the gap or beyond the bounds, where
    its ``certificate`` row is filled. Returns ``(reachable, depth, zeta)``."""
    n = targets.size
    reachable = np.zeros(n, dtype=bool)
    depth = np.zeros(n, dtype=np.int64)
    _, gap = central_gap(alpha)  # alpha < 1/2 here, so the gap exists
    lanes = np.flatnonzero(inside)
    rr = targets[lanes]
    since = np.full(lanes.size, -1)  # levels past each lane's first float hit
    ee = eps
    scale = 1.0  # alpha^level
    rows = []  # rows[k][i]: increment peeled off lane i at level k, else 0
    for level in range(_MAX_PEELS):
        a = np.abs(rr)
        hit = a < ee
        since[hit & (since < 0)] = 0
        check = np.flatnonzero(hit)
        if check.size:  # a float hit counts once its prefix replays within eps
            prefix = np.array([row[lanes[check]] for row in rows[::-1]], dtype=np.int8)
            landed = replay_forward(alpha, prefix.reshape(level, check.size))
            hit[check] = np.abs(landed - targets[lanes[check]]) < eps
        # Beyond what the remaining tail can span, by at least the scaled
        # tolerance; smaller overshoots keep peeling toward the extreme.
        over = (a > bound) & (a - bound >= ee) & (since < 0)
        # Stranded in the central gap: nearest endpoints sit at the gap
        # edge on one side and at the peeled prefix itself on the other
        # (abs(rr) >= ee holds here, so both margins are at least ee).
        stranded = (a < gap) & (gap - a >= ee) & (since < 0)
        # Unconfirmed _EXTRA_PEELS levels past its first float hit: no
        # endpoint within epsilon at float resolution.
        stuck = (since >= _EXTRA_PEELS) & ~hit
        reachable[lanes[hit]] = True
        depth[lanes[hit]] = level
        for mask, margin in ((over, a - bound), (stranded, np.minimum(a, gap - a))):
            if mask.any():
                radius = scale * margin[mask]
                r = targets[lanes[mask]]
                certificate[lanes[mask]] = np.stack([r - radius, r + radius], axis=1)
        certificate[lanes[stuck]] = targets[lanes[stuck], None] + (-eps, eps)
        live = ~(hit | over | stranded | stuck)
        lanes, rr, since = lanes[live], rr[live], since[live]
        since[since >= 0] += 1
        if lanes.size == 0:
            break
        check_elements(n * (level + 1), f"witnesses of {n} targets at depth {level + 1}")
        z = np.where(rr > 0, np.int8(1), np.int8(-1))
        row = np.zeros(n, dtype=np.int8)
        row[lanes] = z
        rows.append(row)
        rr = (rr - z) / alpha
        ee = ee / alpha
        scale *= alpha
    else:
        raise RuntimeError("peel-back failed to terminate; this is a bug")
    return reachable, depth, np.array(rows, dtype=np.int8).reshape(len(rows), n)


def decide_lanes(alpha: float, targets, epsilon: float) -> ReachLanes:
    """Decide for each target whether some path endpoint lies strictly
    within ``epsilon`` of it.

    Each lane's decision, witness and certificate are those of the
    one-target decision. Every witness is replayed forward before it is
    returned; a replay that misses raises ``RuntimeError`` (an explicit
    raise, so ``python -O`` keeps it).
    """
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    bound = _validate(alpha, targets, epsilon)
    inside = ~(np.abs(targets) > bound)
    certificate = np.full((targets.size, 2), np.nan)
    # Beyond the bounds the certificate is the open ray past the bound.
    certificate[~inside] = np.where(
        (targets[~inside] > 0)[:, None], (bound, math.inf), (-math.inf, -bound)
    )
    if alpha >= 0.5:
        reachable, depth, zeta = _dense(alpha, targets, epsilon, inside)
    else:
        reachable, depth, zeta = _sparse(alpha, targets, epsilon, bound, inside, certificate)

    # Soundness check by replay on every witnessed lane.
    witnessed = np.flatnonzero(reachable)
    if witnessed.size:
        forward = zeta[::-1] if witnessed.size == targets.size else zeta[::-1, witnessed]
        landed = replay_forward(alpha, forward)
        missed = witnessed[~(np.abs(landed - targets[witnessed]) < epsilon)]
        if missed.size:
            i = missed[0]
            raise RuntimeError(
                f"the depth-{depth[i]} witness for r={targets[i]} replays farther than "
                f"epsilon={epsilon}; this is a bug"
            )
    return ReachLanes(targets, reachable, depth, zeta, certificate)


def is_eps_reachable(query: ReachQuery) -> ReachResult:
    """Decide whether some path endpoint lies strictly within epsilon of r."""
    return decide_lanes(query.alpha, [query.r], query.epsilon).result(0)
