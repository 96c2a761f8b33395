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

The decision is the finite relaxation "some time lands strictly within
``epsilon`` of ``r`` with positive probability" for the epsilon supplied;
targets strictly outside the bounds are unreachable for any epsilon. A
target that peels to exactly zero is an exact endpoint and counts as
reachable, the empty prefix standing for landing at the start position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .core import ResourceLimitError, evolve

__all__ = [
    "ReachQuery",
    "ReachResult",
    "central_gap",
    "is_eps_reachable",
    "inverse_path_value",
]

_MAX_PEELS = 10_000

# Deepest greedy witness built; building and replaying one takes about
# 0.3 s per million levels, and the depth grows like log(eps) / log(alpha).
MAX_WITNESS_DEPTH = 1 << 20


@dataclass(frozen=True)
class ReachQuery:
    """Target ``r`` with tolerance ``epsilon`` under memory ``alpha``."""

    alpha: float
    r: float
    epsilon: float

    def __post_init__(self) -> None:
        if not (0 < self.alpha < 1):
            raise ValueError(f"reachability requires 0 < alpha < 1, got {self.alpha}")
        if not math.isfinite(self.r):
            raise ValueError(f"target r must be finite, got {self.r}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.epsilon * (1.0 - self.alpha) == 0.0:
            # The greedy witness depth is log(epsilon * (1 - alpha)) / log(alpha).
            raise ValueError(
                f"epsilon={self.epsilon} is too small for alpha={self.alpha}: "
                "epsilon * (1 - alpha) underflows to zero"
            )


@dataclass(frozen=True)
class ReachResult:
    """Decision plus evidence.

    ``witness`` is a forward increment sequence whose replay from 0 lands
    strictly within epsilon of the target. ``certificate`` is an open
    interval around the target containing no reachable point; its radius is
    at least epsilon except for the unconditional exterior case. The
    interval edges are float-evaluated, so endpoint-grazing support points
    (the gap edge is approached to within ~alpha^t) may sit within one ulp
    of an edge rather than exactly on it.
    """

    reachable: bool
    witness: Optional[Tuple[int, ...]] = None
    certificate: Optional[Tuple[float, float]] = None

    @property
    def witness_depth(self) -> int:
        return len(self.witness) if self.witness is not None else 0


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


def inverse_path_value(alpha: float, zeta: Sequence[int]) -> float:
    """Coarse-to-fine partial sum ``sum_s alpha^(s-1) zeta_s``.

    Reversing ``zeta`` and replaying it forward through the walk update gives
    the same endpoint.
    """
    y = 0.0
    w = 1.0
    for z in zeta:
        y += w * z
        w *= alpha
    return y


def replay_forward(alpha: float, xi: Sequence[int]) -> float:
    """Endpoint of a forward increment sequence from ``X_0 = 0``."""
    x = 0.0
    for step in xi:
        x = evolve(x, alpha, step)
    return x


def _greedy_witness(alpha: float, r: float, eps: float) -> Tuple[int, ...]:
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


def _witnessed(alpha: float, r: float, eps: float, witness: Tuple[int, ...]) -> ReachResult:
    # Soundness check by replay; an explicit raise so that ``python -O`` keeps it.
    if not abs(replay_forward(alpha, witness) - r) < eps:
        raise RuntimeError(
            f"the depth-{len(witness)} witness for r={r} replays farther than "
            f"epsilon={eps}; this is a bug"
        )
    return ReachResult(True, witness=witness)


def is_eps_reachable(query: ReachQuery) -> ReachResult:
    """Decide whether some path endpoint lies strictly within epsilon of r."""
    alpha, r, eps = query.alpha, query.r, query.epsilon
    bound = 1.0 / (1.0 - alpha)

    if abs(r) > bound:
        certificate = (bound, math.inf) if r > 0 else (-math.inf, -bound)
        return ReachResult(False, certificate=certificate)

    if alpha >= 0.5:
        return _witnessed(alpha, r, eps, _greedy_witness(alpha, r, eps))

    gap = (1.0 - 2.0 * alpha) / (1.0 - alpha)
    prefix = []  # coarse-to-fine increments peeled off so far
    rr = r
    ee = eps
    scale = 1.0  # alpha^len(prefix)
    for _ in range(_MAX_PEELS):
        if abs(rr) < ee:
            return _witnessed(alpha, r, eps, tuple(reversed(prefix)))
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
