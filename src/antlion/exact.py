"""Exact distribution of the walk on the lattice of its ``2^t`` paths.

For rational ``alpha = m/n`` (reduced, 0 < m < n) the position after ``t``
steps is ``X_t = S_t / n^(t-1)`` with the integer numerator

    S_t = sum_{s=1..t} m^(t-s) n^(s-1) xi_s.

Path ``i`` takes step ``xi_s = -1`` exactly when bit ``s - 1`` of ``i`` is
set, so its minus-step count ``k`` is the popcount of ``i``. The law is held
as arrays in path-index order: ``S`` (Python ints, so position equality stays
decidable, which floating point cannot certify) and ``k``. The support is
ordered when first read, by a sort of the exactly rounded positions
``S / n^(t-1)``: rounding is monotone, so only points with equal floats can
be out of order, and those are sorted on the ints. Distinct paths land on
distinct positions for rational alpha in (0, 1), and a tie raises. The
probability of a point is entry ``k`` of the ``t + 1`` path weights
``p^k (1-p)^(t-k)``, so the law is exact for any step parameter ``p``,
including irrational ``p``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Union

import numpy as np

from .core import Alpha, DiscreteCdf, ResourceLimitError, WalkParams

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
    "exact_moments",
    "exact_residence_distribution",
    "path_weights",
]

# Columns of the exact law's table, as ``ExactDistribution.columns`` returns them.
DIST_HEADER = ("position_real", "scaled_value", "k_minus_steps", "probability")

# 2^24 paths is the desk-scale ceiling; larger horizons exhaust memory long
# before they exhaust patience. Read at call time.
DEFAULT_HORIZON_CAP = 24

# Most pairs `check_path_uniqueness_real` reports; each costs a few hundred
# bytes, and at alpha = 1 the count grows like 4^t.
MAX_COLLISION_PAIRS = 1 << 17


class HorizonTooLargeError(ValueError):
    """Raised when an enumeration would walk more than 2^DEFAULT_HORIZON_CAP paths."""


def _require_exact_alpha(alpha: Alpha) -> Fraction:
    if not alpha.exact:
        raise ValueError("exact enumeration requires a rational alpha (exact mode)")
    return alpha.value


def path_weights(p, t: int) -> list:
    """``[p^k (1-p)^(t-k) for k in 0..t]``: the probability of one length-``t``
    path with ``k`` minus steps, in the arithmetic of ``p``."""
    return [p**k * (1 - p) ** (t - k) for k in range(t + 1)]


def _check_cap(t: int) -> None:
    if t > DEFAULT_HORIZON_CAP:
        raise HorizonTooLargeError(
            f"horizon t={t} exceeds the enumeration cap {DEFAULT_HORIZON_CAP} (2^{t} paths)"
        )


def _levels(m: int, n: int, t: int):
    """Yield ``(S, k)`` of all ``s``-step paths for ``s = 0..t``, in path-index
    order, by doubling: step ``s`` is the new top index bit."""
    scaled = np.zeros(1, dtype=object)
    k = np.zeros(1, dtype=np.int8)  # t < 128: 2^t paths never fit otherwise
    yield scaled, k
    weight = 1  # n^(s-1) at step s
    for _ in range(t):
        base = m * scaled
        scaled = np.concatenate([base + weight, base - weight])
        k = np.concatenate([k, k + 1])
        weight *= n
        yield scaled, k


def _float_positions(alpha: float, t: int) -> np.ndarray:
    """Float positions of all ``2^t`` paths, in path-index order."""
    x = np.zeros(1)
    for _ in range(t):
        y = alpha * x
        x = np.concatenate([y + 1.0, y - 1.0])
    return x


def _exact_order(scaled: np.ndarray, xs: np.ndarray) -> tuple:
    """``(order, xs[order])``, where ``order`` sorts the exact ints ``scaled``
    strictly increasingly.

    ``xs[i]`` must be ``scaled[i] / c`` rounded to nearest, for one positive
    ``c``. Rounding is monotone, so only runs of equal floats can be out of
    order after the float sort; sorting the points of all runs on the ints,
    in place, sorts the whole and leaves ``xs[order]`` as it was. Equal ints
    raise ``RuntimeError``: two paths share a position.
    """
    order = np.argsort(xs)
    positions = xs[order]
    tie = positions[1:] == positions[:-1]
    in_run = np.flatnonzero(np.concatenate([tie, [False]]) | np.concatenate([[False], tie]))
    paths = order[in_run]
    values = scaled[paths]
    # Timsort (kind="stable") takes the run-after-run order in about one compare a point.
    by_value = np.argsort(values, kind="stable")
    values = values[by_value]
    if np.any(values[1:] == values[:-1]):
        raise RuntimeError(
            "two paths share a position; this cannot happen for rational alpha in (0, 1)"
        )
    order[in_run] = paths[by_value]
    return order, positions


class PathLattice(Mapping):
    """The endpoints of all ``2^t`` paths, as arrays in path-index order.

    ``scaled`` holds the exact numerators ``S`` (Python ints) of the
    positions ``S / den``, and ``k`` the minus-step counts. As a read-only
    mapping it sends each scaled value to its ``k``, iterating in increasing
    order; a lookup is a binary search.
    """

    def __init__(self, scaled: np.ndarray, k: np.ndarray, den: int):
        self.scaled = scaled
        self.k = k
        self.den = den

    @cached_property
    def ordered(self) -> tuple:
        """``(order, positions)``, read-only: the path indices by increasing
        position, and each position ``S / den`` rounded once, in that order."""
        den = self.den
        # Divided in path order, which reads the ints in allocation order.
        xs = np.fromiter((s / den for s in self.scaled), float, count=self.scaled.size)
        order, positions = _exact_order(self.scaled, xs)
        order.flags.writeable = positions.flags.writeable = False
        return order, positions

    def __len__(self) -> int:
        return len(self.ordered[0])

    def __iter__(self):
        return iter(self.scaled[self.ordered[0]])

    def __getitem__(self, scaled: int) -> int:
        order = self.ordered[0]
        i = bisect_left(order, scaled, key=self.scaled.__getitem__)
        if i == len(order) or self.scaled[order[i]] != scaled:
            raise KeyError(scaled)
        return int(self.k[order[i]])


def _path_lattice(alpha: Fraction, t: int) -> PathLattice:
    m, n = alpha.numerator, alpha.denominator
    half = t // 2
    *_, (low, low_k) = _levels(m, n, half)
    *_, (high, high_k) = _levels(m, n, t - half)
    # S_t = m^(t-h) S_h(steps 1..h) + n^h S_(t-h)(steps h+1..t); the later
    # steps are the high index bits, so they index the rows of the outer sum.
    scaled = np.add.outer(n**half * high, m ** (t - half) * low).ravel()
    k = np.add.outer(high_k, low_k).ravel()
    return PathLattice(scaled, k, n ** max(t - 1, 0))


class ExactDistribution:
    """Exact law of ``X_t``: support as scaled integers with symbolic weights.

    ``entries`` is the :class:`PathLattice` of the ``2^t`` paths; as a
    mapping it sends the scaled integer position ``S = X_t * n^(t-1)`` to
    ``k``, the number of -1 steps of the one path that lands there, whose
    probability is ``weights[k]``.
    """

    def __init__(self, t: int, alpha: Fraction, p, entries: PathLattice):
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
        return self.entries.den

    @cached_property
    def weights(self) -> list:
        """Path probability by minus-step count: ``path_weights(p, t)``."""
        return path_weights(self.p, self.t)

    def point_probability(self, scaled: int):
        """Probability of one support point, in the arithmetic of ``p``."""
        return self.weights[self.entries[scaled]]

    def columns(self) -> tuple:
        """``(positions, scaled, k, probabilities)``, the columns of
        ``DIST_HEADER``, as arrays in increasing position order; ``scaled``
        holds the exact ints."""
        order = self.entries.ordered[0]
        xs, probs = self.float_law()
        return xs, self.entries.scaled[order], self.entries.k[order], probs

    def support_fractions(self) -> list:
        den = self.scale_denominator
        return [Fraction(s, den) for s in self.entries]

    def float_law(self) -> tuple:
        """``(positions, probabilities)`` as float arrays in increasing
        position order. Each position is ``S / n^(t-1)`` rounded once, by
        Python's exactly rounded int division; the positions are read-only."""
        order, xs = self.entries.ordered
        return xs, np.array([float(w) for w in self.weights])[self.entries.k[order]]

    def total_probability(self):
        paths = np.bincount(self.entries.k, minlength=self.t + 1).tolist()
        return sum(count * w for count, w in zip(paths, self.weights))

    @cached_property
    def cdf(self) -> DiscreteCdf:
        """``x -> P(X_t <= x)``, evaluated against the float image of the support."""
        return DiscreteCdf(*self.float_law())


def enumerate_distribution(params: WalkParams) -> ExactDistribution:
    """Enumerate the exact law of ``X_t`` for rational alpha.

    Builds the scaled numerators of all ``2^t`` paths as one outer sum of the
    two half-horizon lattices, each built by level doubling. The support is
    ordered when first read, by a sort of the exactly rounded positions whose
    equal-float runs are sorted on the ints; that raises ``RuntimeError`` if
    two paths shared a position. Raises :class:`HorizonTooLargeError` past
    the cap.
    """
    frac = _require_exact_alpha(params.alpha)
    _check_cap(params.t)
    return ExactDistribution(params.t, frac, params.p, _path_lattice(frac, params.t))


def support_size(dist: ExactDistribution) -> int:
    """Number of distinct support points."""
    return len(dist.entries)


def exact_moments(dist: ExactDistribution):
    """Probability-weighted mean and variance of the support.

    Computed exactly by grouping support points on their minus-step count, so
    only ``t + 1`` rational terms are summed no matter how large the support
    is. Returns Fractions when ``p`` is a Fraction, floats otherwise (the
    float path still evaluates the rational sum exactly and rounds once).
    """
    lattice = dist.entries
    by_k = np.argsort(lattice.k, kind="stable")
    # Every k in 0..t has C(t, k) >= 1 paths, so the groups start strictly in turn.
    starts = np.searchsorted(lattice.k[by_k], np.arange(dist.t + 1))
    scaled = lattice.scaled[by_k]
    sums1 = np.add.reduceat(scaled, starts).tolist()
    sums2 = np.add.reduceat(scaled * scaled, starts).tolist()
    scale = Fraction(dist.scale_denominator)
    weights = path_weights(Fraction(dist.p), dist.t)
    mean = sum(w * s for w, s in zip(weights, sums1)) / scale
    ex2 = sum(w * s for w, s in zip(weights, sums2)) / (scale * scale)
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


def check_path_uniqueness_exact(alpha: Union[Alpha, Fraction], t: int) -> CollisionReport:
    """Scan all ``2^t`` paths for position collisions in exact arithmetic.

    Distinct paths reach distinct positions for every rational alpha in
    (0, 1), so the report is always empty; the scan is performed anyway so it
    doubles as a regression oracle for the enumeration engine, whose support
    ordering raises ``RuntimeError`` on a collision.
    """
    if isinstance(alpha, Fraction):
        alpha = Alpha.from_fraction(alpha)
    support_size(enumerate_distribution(WalkParams(alpha=alpha, p=0.5, t=t)))
    return CollisionReport([])


def _path_from_index(index: int, t: int) -> tuple:
    return tuple(-1 if (index >> s) & 1 else 1 for s in range(t))


def check_path_uniqueness_real(alpha: float, t: int, tolerance: float = 1e-9) -> CollisionReport:
    """Report all pairs of length-``t`` paths whose positions differ by less
    than ``tolerance`` under float arithmetic.

    Algebraic alphas can genuinely collide (the golden-ratio conjugate sends
    ``(+1, +1, -1)`` and ``(-1, -1, +1)`` to the same point); rational alphas
    must produce an empty report, which the exact checker certifies. Raises
    :class:`ResourceLimitError` when more than ``MAX_COLLISION_PAIRS`` pairs
    could qualify, before any is built.
    """
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    _check_cap(t)
    positions = _float_positions(alpha, t)
    order = np.argsort(positions, kind="stable")
    sorted_pos = positions[order]
    # Every pair below has sorted_pos[j] <= sorted_pos[i] + tolerance, so
    # ends[i] bounds its j.
    ends = np.searchsorted(sorted_pos, sorted_pos + tolerance, side="right")
    candidates = ends - np.arange(1, sorted_pos.size + 1)
    bound = int(candidates.sum())
    if bound > MAX_COLLISION_PAIRS:
        raise ResourceLimitError(
            f"up to {bound} path pairs lie within {tolerance} at t={t}; "
            f"the report is capped at {MAX_COLLISION_PAIRS}"
        )
    collisions = []
    for i in np.flatnonzero(candidates).tolist():
        for j in range(i + 1, int(ends[i])):
            if not sorted_pos[j] - sorted_pos[i] < tolerance:
                break
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
    return CollisionReport(collisions)


def exact_residence_distribution(params: WalkParams) -> dict:
    """Exact law of the positive-side residence time ``T_+(t)``.

    ``T_+`` counts the steps ``s in 1..t`` with ``X_s >= 0``; a position of
    exactly zero counts as positive side. Returns ``{j: P(T_+ = j)}`` over
    ``j = 0..t`` with Fraction probabilities (``p`` is converted exactly, so
    a float ``p`` uses its binary value).
    """
    frac = _require_exact_alpha(params.alpha)
    _check_cap(params.t)
    t = params.t
    levels = _levels(frac.numerator, frac.denominator, t)
    _, k = next(levels)
    visits = np.zeros(1, dtype=np.int8)  # nonnegative steps of each path so far
    for scaled, k in levels:
        # A path's prefix of s - 1 steps is its index without the top bit.
        visits = np.concatenate([visits, visits]) + (scaled >= 0)
    cells = np.bincount(visits.astype(np.intp) * (t + 1) + k, minlength=(t + 1) ** 2)
    weights = path_weights(Fraction(params.p), t)
    return {
        j: sum(paths * w for paths, w in zip(row, weights))
        for j, row in enumerate(cells.reshape(t + 1, t + 1).tolist())
    }
