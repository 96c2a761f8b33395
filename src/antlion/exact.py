"""Exact distribution of the walk on the lattice of its ``2^t`` paths.

For rational ``alpha = m/n`` (reduced, 0 < m < n) the position after ``t``
steps is ``X_t = S_t / n^(t-1)`` with the integer numerator

    S_t = sum_{s=1..t} m^(t-s) n^(s-1) xi_s.

Path ``i`` takes step ``xi_s = -1`` exactly when bit ``s - 1`` of ``i`` is
set, so its minus-step count ``k`` is the popcount of ``i``. With ``h =
t // 2``, ``S`` of path ``i * 2^h + j`` is ``high[i] + low[j]``: the first
``h`` steps give ``low`` and the rest ``high``, two half lattices of about
``2^(t/2)`` Python ints each (ints, so position equality stays decidable,
which floating point cannot certify). Nothing over all ``2^t`` paths is
built eagerly; the moments use that the two halves are independent.
``_path_lattice`` alone lays out the halves, also of each prefix for the
residence law, and ``_levels`` alone walks levels, in ints and in floats.

The support is ordered when first read, by a sort of the exactly rounded
positions ``S / n^(t-1)``. Each is composed in floats from double-double
splits of the halves and certified against a proved error bound; the few
that fail the test, such as exact rounding midpoints, are divided in ints.
Rounding is monotone, so only points with equal floats can be out of order,
and those are sorted on their ints, the only ``S`` the ordering computes.
No array of all ``2^t`` ints is built; the lattice computes each ``S`` read.
``_count_at_most`` counts the positions at or below given floats on an
uneven split of the halves and never orders the support.
Distinct paths land on distinct positions for rational alpha in (0, 1), and
a tie raises. The probability of a point is entry ``k`` of the ``t + 1``
path weights ``p^k (1-p)^(t-k)``, so the law is exact for any step
parameter ``p``, including irrational ``p``.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .core import Alpha, DiscreteCdf, ResourceLimitError, WalkParams
from .tables import Coded

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


def _levels(m: Union[int, float], n: int, t: int):
    """Yield ``(S, k)`` of all ``s``-step paths for ``s = 0..t``, in path-index
    order, by doubling: step ``s`` is the new top index bit. An int ``m``
    gives the exact numerators as Python ints; a float ``m`` with ``n = 1``
    gives the float positions, each ``m * x +- 1`` rounded once."""
    scaled = np.zeros(1, dtype=float if isinstance(m, float) else object)
    k = np.zeros(1, dtype=np.int8)  # t < 128: 2^t paths never fit otherwise
    yield scaled, k
    weight = 1  # n^(s-1) at step s
    for _ in range(t):
        base = m * scaled
        scaled = np.concatenate([base + weight, base - weight])
        k = np.concatenate([k, k + 1])
        weight *= n
        yield scaled, k


def _split(values: np.ndarray, den: int) -> tuple:
    """Each ``v / den`` as a double-double ``hi + lo``: ``hi`` rounded to
    nearest, and ``lo`` the remainder ``v / den - hi`` rounded to nearest."""
    values = values.tolist()
    hi = [v / den for v in values]
    lo = []
    for v, x in zip(values, hi):
        num, scale = x.as_integer_ratio()  # hi = num / scale exactly
        lo.append((v * scale - num * den) / (den * scale))
    return np.array(hi), np.array(lo)


def _two_sum(a, b, s, err, tmp) -> None:
    """``s + err = a + b`` exactly, with ``s`` rounded to nearest (Knuth's
    TwoSum), written into ``s`` and ``err``; ``tmp`` is scratch."""
    np.add(a, b, out=s)
    np.subtract(s, a, out=tmp)
    np.subtract(s, tmp, out=err)
    np.subtract(a, err, out=err)
    np.subtract(b, tmp, out=tmp)
    err += tmp


# Sums composed per block of rows: the block's temporaries stay in cache.
_BLOCK = 1 << 14


def _positions(high: np.ndarray, low: np.ndarray, den: int) -> tuple:
    """``(xs, fallback)``: ``xs[i * len(low) + j]`` is ``(high[i] + low[j]) / den``
    rounded to nearest, exactly as Python's int division rounds it, and
    ``fallback`` the flat indices that took that int division.

    Each half is split into a double-double. A sum is the TwoSum of the two
    ``hi`` plus a tail, rounded once to ``x`` with its exact rounding error
    ``err``. The true quotient lies within ``margin`` of ``x + err``, so
    ``x`` is its rounding if ``|err| + margin`` is below half the gap from
    ``|x|`` to the next float towards zero: that gap is the smaller of the
    two around ``x``, halved below a power of two. Every point that fails
    the test, among them the exact midpoints, is divided in ints.

    With ``u = 2^-53``, the margin adds ``4u |lo|`` per half (the rounding
    of ``lo`` and its share of rounding ``lo_a + lo_b``), ``2u |tail|``
    (rounding the tail) and ``2^-1073`` per half (a ``lo`` in the subnormal
    range, where rounding is absolute). Each term is at least twice the
    error it covers, which absorbs the rounding of the margin itself.
    ``|err|`` is added last: rounding is monotone, so a true ``|err| +
    margin`` at or above the half gap, itself a float, never rounds below it.
    """
    a_hi, a_lo = _split(high, den)
    b_hi, b_lo = _split(low, den)
    a_err = np.abs(a_lo) * 2.0**-51 + 2.0**-1073
    b_err = np.abs(b_lo) * 2.0**-51 + 2.0**-1073
    xs = np.empty((a_hi.size, b_hi.size))
    rows = max(1, _BLOCK // b_hi.size)
    shape = (min(rows, a_hi.size), b_hi.size)
    buffers = [np.empty(shape) for _ in range(4)] + [np.empty(shape, dtype=bool)]
    fallback = []
    for start in range(0, a_hi.size, rows):
        block = slice(start, start + rows)
        x = xs[block]
        s, e, tail, tmp, ok = (buf[: len(x)] for buf in buffers)
        _two_sum(a_hi[block, None], b_hi, s, e, tmp)
        np.add(a_lo[block, None], b_lo, out=tail)
        tail += e
        _two_sum(s, tail, x, e, tmp)
        margin = np.abs(tail, out=tail)
        margin *= 2.0**-52
        margin += np.add(a_err[block, None], b_err, out=tmp)
        bound = np.abs(e, out=e)
        bound += margin
        bound *= 2.0
        gap = np.abs(x, out=tail)
        gap -= np.nextafter(gap, 0.0, out=tmp)
        np.less(bound, gap, out=ok)
        if not ok.all():
            fallback.append(np.flatnonzero(~ok) + start * b_hi.size)
    xs = xs.ravel()
    fallback = np.concatenate(fallback) if fallback else np.zeros(0, dtype=np.intp)
    for f in fallback.tolist():
        i, j = divmod(f, low.size)
        xs[f] = (high[i] + low[j]) / den
    return xs, fallback


def _exact_order(xs: np.ndarray, numerators) -> tuple:
    """``(order, xs[order])``, where ``order`` sorts the exact ints
    ``numerators(paths)`` of the paths strictly increasingly.

    ``xs[i]`` must be the numerator of path ``i`` over one positive ``c``,
    rounded to nearest. Rounding is monotone, so only runs of equal floats
    can be out of order after the float sort; sorting the points of all
    runs on their ints, in place, sorts the whole and leaves ``xs[order]``
    as it was. Only the run members' ints are computed. Equal ints raise
    ``RuntimeError``: two paths share a position.
    """
    order = np.argsort(xs)
    positions = xs[order]
    tie = positions[1:] == positions[:-1]
    in_run = np.flatnonzero(np.concatenate([tie, [False]]) | np.concatenate([[False], tie]))
    paths = order[in_run]
    values = numerators(paths)
    # Timsort (kind="stable") takes the run-after-run order in about one compare a point.
    by_value = np.argsort(values, kind="stable")
    values = values[by_value]
    if np.any(values[1:] == values[:-1]):
        raise RuntimeError(
            "two paths share a position; this cannot happen for rational alpha in (0, 1)"
        )
    order[in_run] = paths[by_value]
    return order, positions


class PathLattice(Sequence):
    """The endpoints of all ``2^t`` paths, held as their two half lattices.

    Path ``i * len(low) + j`` has the exact numerator ``high[i] + low[j]``
    (Python ints) of its position over ``den``, and ``k[i * len(low) + j] =
    high_k[i] + low_k[j]`` minus steps. Only ``k`` and the ordered positions
    are built over all paths, each on first read. As a sequence it is the
    support: item ``i`` is the ``i``-th smallest numerator, computed from the
    halves when read, and iteration computes ``_BLOCK`` of them at a time.
    Its length is ``2^t``, read off the halves; membership and ``count``
    are ``index``, a binary search.
    """

    def __init__(self, high, high_k, low, low_k, den: int):
        self.high, self.high_k = high, high_k
        self.low, self.low_k = low, low_k
        self.den = den

    @cached_property
    def k(self) -> np.ndarray:
        """The minus-step count of each path, in path-index order."""
        return np.add.outer(self.high_k, self.low_k).ravel()

    def _numerators(self, paths):
        rows, cols = np.divmod(paths, self.low.size)
        return self.high[rows] + self.low[cols]

    @cached_property
    def ordered(self) -> tuple:
        """``(order, positions)``, read-only: the path indices by increasing
        position, and each position ``S / den`` rounded once, in that order."""
        xs, _ = _positions(self.high, self.low, self.den)
        order, positions = _exact_order(xs, self._numerators)
        order.flags.writeable = positions.flags.writeable = False
        return order, positions

    def __len__(self) -> int:
        return self.high.size * self.low.size

    def __getitem__(self, ranks):
        """The numerators of support ranks ``ranks``: an int, a slice or an index array."""
        return self._numerators(self.ordered[0][ranks])

    def __iter__(self):
        for lo in range(0, len(self), _BLOCK):
            yield from self[lo : lo + _BLOCK].tolist()

    def index(self, scaled: int) -> int:
        """The rank of ``scaled``, found in its run of positions equal to
        ``scaled / den``; ``ValueError`` if no path ends there."""
        positions = self.ordered[1]
        try:
            x = scaled / self.den
            lo, hi = positions.searchsorted(x, "left"), positions.searchsorted(x, "right")
            return int(lo) + self[lo:hi].tolist().index(scaled)
        except (OverflowError, TypeError, ValueError):
            raise ValueError(f"{scaled!r} is not a numerator of the support") from None

    def __contains__(self, scaled) -> bool:
        try:
            self.index(scaled)
        except ValueError:
            return False
        return True

    def count(self, scaled) -> int:
        return int(scaled in self)  # no two paths share a position


def _path_lattice(alpha: Fraction, t: int, _low_steps: Optional[int] = None) -> PathLattice:
    """The lattice of ``t`` steps whose low half holds the first ``_low_steps``
    (by default ``t // 2``) of them."""
    m, n = alpha.numerator, alpha.denominator
    h = t // 2 if _low_steps is None else _low_steps
    walk = enumerate(_levels(m, n, max(h, t - h)))
    levels = {s: level for s, level in walk if s in (h, t - h)}  # only the two halves kept
    (low, low_k), (high, high_k) = levels[h], levels[t - h]
    # S_t = m^(t-h) S_h(steps 1..h) + n^h S_(t-h)(steps h+1..t); the later
    # steps are the high index bits, so they index the rows of the outer sum.
    return PathLattice(n**h * high, high_k, m ** (t - h) * low, low_k, n ** max(t - 1, 0))


def _count_at_most(alpha: Fraction, t: int, ys) -> np.ndarray:
    """For each float ``y`` of ``ys`` (not NaN), the number of ``t``-step paths
    whose position ``S / den``, rounded to nearest, is at most ``y``.

    The support is never ordered and no array over all paths is built: the
    counts meet in the middle (Horowitz and Sahni, 1974) on a lattice split
    ``S = high[i] + low[j]``. The low half takes ``ceil((t + log2 len(ys)) /
    2)`` steps, which balances sorting it against the ``len(high) *
    len(ys)`` (row, ``y``) queries. The low half is sorted once by its ints
    (on its floats ``L = fl(low / den)``, unless two are equal), and ``L``
    is then sorted too, as rounding is monotone. Per row, with ``H =
    fl(high[i] / den)`` and ``d = fl(y - H)``, one ``searchsorted`` counts
    the ``L <= fl(d - M)``, which all round to at most ``y``, and one the
    ``L <= fl(d + M)``. Between them the exact test ``(high[i] + low[j]) /
    den <= y``, in Python's correctly rounded int division, holds for a
    prefix of ``j``, as both the ints and their rounding are monotone, so a
    binary search decides the band in ``O(log)`` divisions even where all of
    it is there (``alpha`` near 0). Every ``|S / den|`` is at most about
    half of ``B = 2 (max |H| + max |L|) + 2^-1070``, so each rounded
    position lies strictly inside ``(-B, B)`` and clipping ``y`` to ``[-B,
    B]`` (an infinite ``y`` too) leaves its count unchanged.

    The margin is ``M = 2^-50 (|H| + max |L| + |d|) + 2^-1070``. With ``u =
    2^-53`` and ``e = 2^-1074``, ``q = S / den`` lies within ``u|H| + u max|L|
    + e`` of ``H + L`` (each quotient is rounded once, absolutely by at most
    ``e / 2`` below the normal range), and ``y - H`` within ``u|d|`` of
    ``d`` (a float sum is exact when subnormal). So ``L <= fl(d - M)``
    gives ``q <= y``, hence ``fl(q) <= y``, once ``M`` covers ``u (|H| +
    max|L| + 2|d|) + e``; and ``L > fl(d + M)`` puts ``q`` at or past the
    float after ``y``, hence ``fl(q) > y``, once ``M`` covers ``u (3|H| +
    max|L| + 4|d|) + 2e``, the gap above ``y`` being at most ``2u|y| + e``.
    Computed in floats, ``M`` is within ``3u`` of ``8u (|H| + max|L| +
    |d|) + 16e``: about twice either need after the rounding of ``d +- M``.
    Nothing here rests on an ``assert``; the band is decided in ints.
    """
    ys = np.asarray(ys, dtype=float)
    low_steps = min(t, math.ceil((t + math.log2(max(ys.size, 1))) / 2))
    lattice = _path_lattice(alpha, t, low_steps)
    den, high = lattice.den, lattice.high.tolist()
    high_x = np.array([v / den for v in high])
    low = lattice.low.tolist()
    low_x = np.array([v / den for v in low])
    by_x = np.argsort(low_x)
    low_x, low = low_x[by_x], [low[j] for j in by_x.tolist()]
    if (low_x[1:] == low_x[:-1]).any():  # equal floats: their ints decide
        low.sort()
    low_max = float(np.abs(low_x).max())
    clip = 2.0 * (float(np.abs(high_x).max()) + low_max) + 2.0**-1070
    y = np.clip(ys.ravel(), -clip, clip)
    d = y - high_x[:, None]
    margin = np.abs(d)
    margin += np.abs(high_x)[:, None] + low_max
    margin *= 2.0**-50
    margin += 2.0**-1070
    sure = np.searchsorted(low_x, d - margin, "right")
    maybe = np.searchsorted(low_x, d + margin, "right")
    counts = sure.sum(axis=0)
    y = y.tolist()
    for i, q in zip(*(a.tolist() for a in np.nonzero(maybe > sure))):
        top, y_q = high[i], y[q]
        band = range(int(sure[i, q]), int(maybe[i, q]))
        counts[q] += bisect.bisect_left(band, True, key=lambda j: (top + low[j]) / den > y_q)
    return counts.reshape(ys.shape)


class ExactDistribution:
    """Exact law of ``X_t``: support as scaled integers with symbolic weights.

    ``entries`` is the :class:`PathLattice` of the ``2^t`` paths; as a
    sequence it holds the scaled integer positions ``S = X_t * n^(t-1)`` in
    increasing order. The one path that lands on ``S`` has ``k`` minus
    steps and probability ``weights[k]``.
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
        lattice = self.entries
        return self.weights[lattice.k[lattice.ordered[0][lattice.index(scaled)]]]

    def columns(self) -> tuple:
        """``(positions, scaled, k, probabilities)``, the table columns of
        ``DIST_HEADER`` in increasing position order: ``float_law``'s positions,
        the lattice, whose ints are computed when read, and two coded by ``k``."""
        order, xs = self.entries.ordered
        k = self.entries.k[order]
        probs = Coded(k, [float(w) for w in self.weights])
        return xs, self.entries, Coded(k, range(self.t + 1)), probs

    def support_fractions(self) -> list:
        den = self.scale_denominator
        return [Fraction(s, den) for s in self.entries]

    def float_law(self) -> tuple:
        """``(positions, probabilities)`` as float arrays in increasing
        position order. Each position is ``S / n^(t-1)`` rounded once, bit for
        bit as Python's int division rounds it; the positions are read-only."""
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

    Builds the two half-horizon lattices of scaled numerators, each by level
    doubling, and the minus-step counts of all ``2^t`` paths. The support is
    ordered when first read, by a sort of the exactly rounded positions whose
    equal-float runs are sorted on the ints; that raises ``RuntimeError`` if
    two paths shared a position. Raises :class:`HorizonTooLargeError` past
    the cap.
    """
    frac = _require_exact_alpha(params.alpha)
    _check_cap(params.t)
    return ExactDistribution(params.t, frac, params.p, _path_lattice(frac, params.t))


def support_size(dist: ExactDistribution) -> int:
    """Number of distinct support points, counted on the ordered support,
    which raises if two paths share a position."""
    return len(dist.entries.ordered[0])


def _half_moments(values: np.ndarray, k: np.ndarray, weights: list) -> tuple:
    """``(E[v], E[v^2])`` over one half lattice, path ``i`` weighted ``weights[k[i]]``."""
    sums = [[0, 0] for _ in weights]
    for v, j in zip(values.tolist(), k.tolist()):
        row = sums[j]
        row[0] += v
        row[1] += v * v
    return tuple(sum(w * s for w, s in zip(weights, column)) for column in zip(*sums))


def exact_moments(dist: ExactDistribution):
    """Probability-weighted mean and variance of the support.

    A path's ``S`` is ``high + low`` and its weight ``p^k (1-p)^(t-k)`` the
    product of its halves' weights, so ``high`` and ``low`` are independent:
    ``E[S] = E[high] + E[low]`` and ``E[S^2] = E[high^2] + 2 E[high] E[low]
    + E[low^2]``, each from one pass over its half. That is ``O(2^(t/2))``
    big-int operations, and only ``O(t)`` rational terms are weighted.
    Returns Fractions when ``p`` is a Fraction, floats otherwise (the float
    path still evaluates the rational sum exactly and rounds once).
    """
    lattice, t, p = dist.entries, dist.t, Fraction(dist.p)
    high, high2 = _half_moments(lattice.high, lattice.high_k, path_weights(p, t - t // 2))
    low, low2 = _half_moments(lattice.low, lattice.low_k, path_weights(p, t // 2))
    scale = Fraction(dist.scale_denominator)
    mean = (high + low) / scale
    var = (high2 + 2 * high * low + low2) / (scale * scale) - mean * mean
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
    for positions, _ in _levels(float(alpha), 1, t):
        pass  # keep only the last level
    order = np.argsort(positions, kind="stable")
    sorted_pos = positions[order]
    del positions
    # Every pair below has sorted_pos[j] <= sorted_pos[i] + tolerance, so
    # the count of such j > i bounds i's pairs. Counted a block of i at a
    # time; the i with a count are kept only while the bound admits them.
    bound, starts = 0, []
    for lo in range(0, sorted_pos.size, _BLOCK):
        block = sorted_pos[lo : lo + _BLOCK]
        count = np.searchsorted(sorted_pos, block + tolerance, side="right")
        count -= np.arange(lo + 1, lo + block.size + 1)
        bound += int(count.sum())
        if bound <= MAX_COLLISION_PAIRS:
            hits = np.flatnonzero(count)
            starts.extend(zip((hits + lo).tolist(), count[hits].tolist()))
    if bound > MAX_COLLISION_PAIRS:
        raise ResourceLimitError(
            f"up to {bound} path pairs lie within {tolerance} at t={t}; "
            f"the report is capped at {MAX_COLLISION_PAIRS}"
        )
    collisions = []
    for i, count in starts:
        for j in range(i + 1, i + 1 + count):
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

    The ``s``-step paths are the half lattices of ``_path_lattice(alpha,
    s)``: ``S_s = high[i] + low[j]`` is nonnegative exactly when ``low[j] >=
    -high[i]``, so with ``low`` ranked on its ints each sign is an int
    comparison of ``rank[j]`` with the first rank at or above ``-high[i]``.
    Cells ``T_+ * (t + 1) + k`` are int16 codes, counted a block at a time.
    """
    frac = _require_exact_alpha(params.alpha)
    _check_cap(params.t)
    t = params.t
    lattice = _path_lattice(frac, 0)
    visits = np.zeros(1, dtype=np.int8)  # nonnegative steps of each path so far
    for s in range(1, t + 1):
        lattice = _path_lattice(frac, s)
        order = np.argsort(lattice.low)
        first = np.searchsorted(lattice.low[order], -lattice.high)
        # A path's prefix of s - 1 steps is its index without the top bit.
        visits = np.concatenate([visits, visits])
        visits += (np.argsort(order) >= first[:, None]).ravel()
    codes = visits.astype(np.int16)
    codes *= t + 1
    codes += lattice.k
    blocks = np.split(codes, range(_BLOCK, codes.size, _BLOCK))
    cells = sum(np.bincount(block, minlength=(t + 1) ** 2) for block in blocks)
    weights = path_weights(Fraction(params.p), t)
    return {
        j: sum(paths * w for paths, w in zip(row, weights))
        for j, row in enumerate(cells.reshape(t + 1, t + 1).tolist())
    }
