"""Exact distribution of the walk by big-integer path enumeration.

For rational ``alpha = m/n`` (reduced, 0 < m < n) the position after ``t``
steps is ``X_t = S_t / n^(t-1)`` with the integer numerator

    S_t = sum_{s=1..t} m^(t-s) n^(s-1) xi_s,

maintained incrementally as ``S_s = m * S_{s-1} + n^(s-1) * xi_s``. Carrying
``S_t`` exactly makes position equality decidable, which is what the
support-size and path-uniqueness checks rely on; floating point cannot
certify either. Distinct paths land on distinct positions for rational alpha
in (0, 1), so each support point carries just ``k``, the number of -1 steps
of its path, and its probability is entry ``k`` of the ``t + 1`` path
weights ``p^k (1-p)^(t-k)``. The law is therefore exact for any step
parameter ``p``, including irrational ``p``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Union

import numpy as np

from .core import Alpha, DiscreteCdf, WalkParams

__all__ = [
    "DEFAULT_HORIZON_CAP",
    "DIST_HEADER",
    "HorizonTooLargeError",
    "ExactDistribution",
    "Collision",
    "CollisionReport",
    "enumerate_distribution",
    "support_size",
    "check_path_uniqueness_exact",
    "check_path_uniqueness_real",
    "exact_cdf",
    "exact_moments",
    "exact_residence_distribution",
    "path_weights",
]

# Columns of the exact law's table, as ``ExactDistribution.rows`` yields them.
DIST_HEADER = ("position_real", "scaled_value", "k_minus_steps", "probability")

# 2^24 paths is the desk-scale ceiling; larger horizons exhaust memory long
# before they exhaust patience.
DEFAULT_HORIZON_CAP = 24


class HorizonTooLargeError(ValueError):
    """Raised when an enumeration would walk more than 2^cap paths."""


def _require_exact_alpha(alpha: Alpha) -> Fraction:
    if not alpha.exact:
        raise ValueError("exact enumeration requires a rational alpha (exact mode)")
    return alpha.value


def path_weights(p, t: int) -> list:
    """``[p^k (1-p)^(t-k) for k in 0..t]``: the probability of one length-``t``
    path with ``k`` minus steps, in the arithmetic of ``p``."""
    return [p**k * (1 - p) ** (t - k) for k in range(t + 1)]


def _collision(level: int) -> RuntimeError:
    return RuntimeError(
        f"two paths share a position at step {level}; "
        "this cannot happen for rational alpha in (0, 1)"
    )


def _check_cap(t: int, cap: int) -> None:
    if t > cap:
        raise HorizonTooLargeError(
            f"horizon t={t} exceeds the enumeration cap {cap} (2^{t} paths); "
            f"raise the cap explicitly if you really want this"
        )


class ExactDistribution:
    """Exact law of ``X_t``: support as scaled integers with symbolic weights.

    ``entries`` maps the scaled integer position ``S = X_t * n^(t-1)`` to
    ``k``, the number of -1 steps of the one path that lands there; its
    probability is ``weights[k]``.
    """

    def __init__(self, t: int, alpha: Fraction, p, entries: dict):
        self.t = t
        self.alpha = alpha
        self.p = p
        self.entries = entries

    def __repr__(self) -> str:
        return (
            f"ExactDistribution(t={self.t}, alpha={self.alpha}, p={self.p}, "
            f"support={len(self.entries)})"
        )

    @property
    def scale_denominator(self) -> int:
        return self.alpha.denominator ** max(self.t - 1, 0)

    @cached_property
    def weights(self) -> list:
        """Path probability by minus-step count: ``path_weights(p, t)``."""
        return path_weights(self.p, self.t)

    def point_probability(self, scaled: int):
        """Probability of one support point, in the arithmetic of ``p``."""
        return self.weights[self.entries[scaled]]

    def rows(self):
        """Yield ``(position, scaled, k, probability)`` per support point, the
        columns of ``DIST_HEADER``, in increasing position order."""
        den = self.scale_denominator
        weights = [float(w) for w in self.weights]
        for scaled in sorted(self.entries):
            k = self.entries[scaled]
            yield scaled / den, scaled, k, weights[k]

    def support_fractions(self) -> list:
        den = self.scale_denominator
        return [Fraction(s, den) for s in sorted(self.entries)]

    def float_law(self) -> tuple:
        """``(positions, probabilities)`` as floats, in increasing position order."""
        den = self.scale_denominator
        weights = [float(w) for w in self.weights]
        scaled = sorted(self.entries)
        xs = np.array([s / den for s in scaled], dtype=float)
        return xs, [weights[self.entries[s]] for s in scaled]

    def total_probability(self):
        return sum(self.weights[k] for k in self.entries.values())

    @cached_property
    def cdf(self) -> DiscreteCdf:
        """``x -> P(X_t <= x)``, evaluated against the float image of the support."""
        return DiscreteCdf(*self.float_law())

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(DIST_HEADER)
            writer.writerows((repr(x), s, k, repr(prob)) for x, s, k, prob in self.rows())

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "alpha": f"{self.alpha.numerator}/{self.alpha.denominator}",
            "p": float(self.p),
            "scale_denominator": str(self.scale_denominator),
            "points": [
                {
                    "position": x,
                    "scaled_value": str(s),
                    "k_minus_steps": k,
                    "multiplicity": 1,
                    "probability": prob,
                }
                for x, s, k, prob in self.rows()
            ],
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)


def enumerate_distribution(
    params: WalkParams, *, cap: int = DEFAULT_HORIZON_CAP
) -> ExactDistribution:
    """Enumerate the exact law of ``X_t`` for rational alpha.

    Walks all ``2^t`` increment sequences via a level-by-level sweep with the
    scaled-integer update, in a map keyed on the scaled value. Raises
    :class:`HorizonTooLargeError` past the cap, and ``RuntimeError`` if two
    paths ever shared a position.
    """
    frac = _require_exact_alpha(params.alpha)
    _check_cap(params.t, cap)
    m, n = frac.numerator, frac.denominator
    entries: dict = {0: 0}
    weight = 1  # n^(s-1) at step s
    for level in range(1, params.t + 1):
        nxt: dict = {}
        for scaled, k in entries.items():
            base = m * scaled
            nxt[base + weight] = k
            nxt[base - weight] = k + 1
        if len(nxt) != 2 * len(entries):
            raise _collision(level)
        entries = nxt
        weight *= n
    return ExactDistribution(params.t, frac, params.p, entries)


def support_size(dist: ExactDistribution) -> int:
    """Number of distinct support points."""
    return len(dist.entries)


def exact_cdf(dist: ExactDistribution, x: float) -> float:
    """P(X_t <= x) summed over the support."""
    return dist.cdf(x)


def exact_moments(dist: ExactDistribution):
    """Probability-weighted mean and variance of the support.

    Computed exactly by grouping support points on their minus-step count, so
    only ``t + 1`` rational terms are summed no matter how large the support
    is. Returns Fractions when ``p`` is a Fraction, floats otherwise (the
    float path still evaluates the rational sum exactly and rounds once).
    """
    sums1: dict = {}
    sums2: dict = {}
    for scaled, k in dist.entries.items():
        sums1[k] = sums1.get(k, 0) + scaled
        sums2[k] = sums2.get(k, 0) + scaled * scaled
    scale = Fraction(dist.scale_denominator)
    weights = path_weights(Fraction(dist.p), dist.t)
    mean = sum(weights[k] * s for k, s in sums1.items()) / scale
    ex2 = sum(weights[k] * s for k, s in sums2.items()) / (scale * scale)
    var = ex2 - mean * mean
    if isinstance(dist.p, Fraction):
        return mean, var
    return float(mean), float(var)


@dataclass(frozen=True)
class Collision:
    """Two increment sequences (forward order) landing within tolerance."""

    path_a: tuple
    path_b: tuple
    shared_position: float
    time: int


@dataclass(frozen=True)
class CollisionReport:
    collisions: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.collisions)

    @property
    def empty(self) -> bool:
        return not self.collisions


def check_path_uniqueness_exact(
    alpha: Union[Alpha, Fraction], t: int, *, cap: int = DEFAULT_HORIZON_CAP
) -> CollisionReport:
    """Scan all ``2^t`` paths for position collisions in exact arithmetic.

    Distinct paths reach distinct positions for every rational alpha in
    (0, 1), so the report is always empty; the scan is performed anyway so it
    doubles as a regression oracle for the enumeration engine, which raises
    ``RuntimeError`` on a collision.
    """
    if isinstance(alpha, Fraction):
        alpha = Alpha.from_fraction(alpha)
    enumerate_distribution(WalkParams(alpha=alpha, p=0.5, t=t), cap=cap)
    return CollisionReport([])


def _positions_all_paths(alpha: float, t: int) -> np.ndarray:
    """Positions of all 2^t paths; index bit ``s-1`` set means ``xi_s = +1``."""
    x = np.zeros(1)
    for _ in range(t):
        x = np.concatenate([alpha * x - 1.0, alpha * x + 1.0])
    return x


def _path_from_index(index: int, t: int) -> tuple:
    return tuple(1 if (index >> s) & 1 else -1 for s in range(t))


def check_path_uniqueness_real(
    alpha: float, t: int, tolerance: float = 1e-9, *, cap: int = DEFAULT_HORIZON_CAP
) -> CollisionReport:
    """Report all pairs of length-``t`` paths whose positions differ by less
    than ``tolerance`` under float arithmetic.

    Algebraic alphas can genuinely collide (the golden-ratio conjugate sends
    ``(+1, +1, -1)`` and ``(-1, -1, +1)`` to the same point); rational alphas
    must produce an empty report, which the exact checker certifies.
    """
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    _check_cap(t, cap)
    positions = _positions_all_paths(alpha, t)
    order = np.argsort(positions, kind="stable")
    sorted_pos = positions[order]
    collisions = []
    size = sorted_pos.size
    for i in range(size):
        j = i + 1
        while j < size and sorted_pos[j] - sorted_pos[i] < tolerance:
            a = _path_from_index(int(order[i]), t)
            b = _path_from_index(int(order[j]), t)
            first, second = (a, b) if a <= b else (b, a)
            collisions.append(
                Collision(
                    first,
                    second,
                    float((sorted_pos[i] + sorted_pos[j]) / 2.0),
                    t,
                )
            )
            j += 1
    return CollisionReport(collisions)


def exact_residence_distribution(
    params: WalkParams, *, cap: int = DEFAULT_HORIZON_CAP
) -> dict:
    """Exact law of the positive-side residence time ``T_+(t)``.

    ``T_+`` counts the steps ``s in 1..t`` with ``X_s >= 0``; a position of
    exactly zero counts as positive side. Returns ``{j: P(T_+ = j)}`` over
    ``j = 0..t`` with Fraction probabilities (``p`` is converted exactly, so
    a float ``p`` uses its binary value).
    """
    frac = _require_exact_alpha(params.alpha)
    _check_cap(params.t, cap)
    m, n = frac.numerator, frac.denominator
    t = params.t
    # scaled -> (nonnegative-visit count, minus-step count); the scaled value
    # determines the whole prefix for rational alpha.
    state: dict = {0: (0, 0)}
    weight = 1
    for level in range(1, t + 1):
        nxt: dict = {}
        for scaled, (cnt, k) in state.items():
            base = m * scaled
            up, down = base + weight, base - weight
            nxt[up] = (cnt + (up >= 0), k)
            nxt[down] = (cnt + (down >= 0), k + 1)
        if len(nxt) != 2 * len(state):
            raise _collision(level)
        state = nxt
        weight *= n
    cells: dict = {}
    for cell in state.values():
        cells[cell] = cells.get(cell, 0) + 1
    weights = path_weights(Fraction(params.p), t)
    pmf = {j: Fraction(0) for j in range(t + 1)}
    for (cnt, k), paths in cells.items():
        pmf[cnt] += paths * weights[k]
    return pmf
