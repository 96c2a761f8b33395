"""Exact distribution of the walk on the lattice of its ``2^t`` paths.

For rational ``alpha = m/n`` (reduced, 0 < m < n) the position after ``t``
steps is ``X_t = S_t / n^(t-1)`` with the integer numerator

    S_t = sum_{s=1..t} m^(t-s) n^(s-1) xi_s.

Path ``i`` takes step ``xi_s = -1`` exactly when bit ``s - 1`` of ``i`` is
set, so its minus-step count ``k`` is the popcount of ``i``. With ``h =
t // 2``, ``S`` of path ``i * 2^h + j`` is ``high[i] + low[j]``: the first
``h`` steps give ``low`` and the rest ``high``, two half lattices of about
``2^(t/2)`` exact ints each, so position equality stays decidable: int64
while ``n^t < 2^53`` (exact doubles too), Python ints past it. Nothing
over all ``2^t`` paths is built eagerly; the moments use that the two
halves are independent. Each half is a level of one cached walk per alpha
(``_level``), shared by the horizons of a command; ``_path_lattice``
scales the two, and ``_count_at_most`` reads them as ``_level`` holds them.

The support is ordered when first read, by a sort of the exactly rounded
positions ``S / n^(t-1)``, divided a block of paths at a time: in int64
both operands are exact doubles, so one float division rounds once, and on
Python ints the division is correctly rounded. Rounding is monotone, so
only points with equal floats can be out of order, and those are sorted on
their ints, the only ``S`` the ordering computes.
No array of all ``2^t`` ints is built; the lattice computes each ``S`` read.
``_count_at_most`` counts the positions at or below given floats on the
unscaled walks of an uneven split, each int64 wherever it fits, and never
orders the support.
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
from functools import cached_property, lru_cache
from typing import Union

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


def _double(m, scaled: np.ndarray, weight) -> np.ndarray:
    """``S`` of all ``s``-step paths in path-index order, from that of the
    ``s - 1``-step paths and ``weight = n^(s-1)``: step ``s`` is the new top
    index bit. On floats (``weight = 1``) each ``m x +- 1`` rounds once."""
    base = m * scaled
    return np.concatenate([base + weight, base - weight])


@lru_cache(maxsize=16)
def _level(m: int, n: int, s: int) -> np.ndarray:
    """``S`` of all ``s``-step paths of ``alpha = m/n``, read-only: level
    ``s - 1`` of this cache doubled once, in int64 while ``n^s < 2^53``
    (``|S| < n^s``, as ``m < n``) and Python ints past it. The horizons of a
    command share its levels, and ``cli.main`` empties it when the command
    ends. A library caller keeps the 16 levels last read, at 8 bytes a path
    in int64 and up to about 60 in Python ints: at most about 8 and 60 MB
    where no level exceeds 2^16 paths, as for a 600-point CvM grid at ``t
    <= 24``.
    """
    if s == 0:
        scaled = np.zeros(1, dtype=np.int64)
    else:
        scaled = _level(m, n, s - 1)
        if n**s >= 2**53:
            scaled = scaled.astype(object, copy=False)
        scaled = _double(m, scaled, n ** (s - 1))
    scaled.flags.writeable = False
    return scaled


# Paths handled per block: a block's temporaries, Python ints and floats stay small.
_BLOCK = 1 << 14


def _positions(high: np.ndarray, low: np.ndarray, den: int) -> np.ndarray:
    """``xs[i * len(low) + j] = (high[i] + low[j]) / den``, rounded once to
    nearest, exactly as Python's int division rounds it: on int64 halves both
    operands are exact doubles (below ``2^53``), so numpy's division rounds
    once, and on object halves the division is Python's."""
    xs = np.empty((high.size, low.size))
    rows = max(1, _BLOCK // low.size)
    for start in range(0, high.size, rows):
        block = slice(start, start + rows)
        xs[block] = (high[block, None] + low) / den
    return xs.ravel()


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
    (int64 or object halves) of its position over ``den``; its minus-step
    count is the popcount of its index. Only the ordered positions are
    built over all paths, on first read. As a sequence it is the support:
    item ``i`` is the ``i``-th smallest numerator, a Python int computed
    from the halves when read (an object array for slices and index
    arrays), and iteration computes ``_BLOCK`` of them at a time.
    Its length is ``2^t``, read off the halves; ``index`` is a binary
    search, while membership and ``count`` are the ``Sequence`` scans.
    """

    def __init__(self, high, low, den: int):
        self.high, self.low, self.den = high, low, den

    def _numerators(self, paths):
        rows, cols = np.divmod(paths, self.low.size)
        return self.high[rows] + self.low[cols]

    @cached_property
    def ordered(self) -> tuple:
        """``(order, positions)``, read-only: the path indices by increasing
        position, and each position ``S / den`` rounded once, in that order."""
        xs = _positions(self.high, self.low, self.den)
        order, positions = _exact_order(xs, self._numerators)
        order.flags.writeable = positions.flags.writeable = False
        return order, positions

    def __len__(self) -> int:
        return self.high.size * self.low.size

    def __getitem__(self, ranks):
        """The numerators of support ranks ``ranks``: an int, a slice or an index array."""
        values = self._numerators(self.ordered[0][ranks])
        return values.astype(object) if isinstance(values, np.ndarray) else int(values)

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


def _path_lattice(alpha: Fraction, t: int) -> PathLattice:
    """The lattice of ``t`` steps whose low half holds the first ``t // 2``."""
    m, n = alpha.numerator, alpha.denominator
    h = t // 2
    high, low = _level(m, n, t - h), _level(m, n, h)
    if n**t >= 2**53:  # their walk may fit a word where the scaled halves do not
        low, high = low.astype(object, copy=False), high.astype(object, copy=False)
    # S_t = m^(t-h) S_h(steps 1..h) + n^h S_(t-h)(steps h+1..t); the later
    # steps are the high index bits, so they index the rows of the outer sum.
    return PathLattice(n**h * high, m ** (t - h) * low, n ** max(t - 1, 0))


def _count_at_most(alpha: Fraction, t: int, ys) -> np.ndarray:
    """For each float ``y`` of ``ys`` (not NaN), the number of ``t``-step paths
    whose position ``S / den``, rounded to nearest, is at most ``y``.

    The support is never ordered and no array over all paths is built: the
    counts meet in the middle (Horowitz and Sahni, 1974) on the split ``S =
    top high[i] + bottom low[j]`` of ``_level``'s walks, ``top = n^h`` and
    ``bottom = m^(t-h)``. The low half takes ``h = ceil((t + log2 len(ys)) /
    2) - 1`` steps, one fewer than balances sorting it against the
    ``len(high) * len(ys)`` (row, ``y``) queries, as those are vectorised,
    or fewer if that is the deepest split whose walks both fit int64. On an
    int64 walk ``H = fl(high / (den / top))`` rounds once (``den / top =
    n^(t-1-h)`` is exact) and ``L = fl(low * fl(bottom / den))`` twice; on
    Python ints each is ``fl(half / den)`` of its scaled half. The low half
    is sorted on ``L``, and on its ints where two ``L`` are equal. Per row,
    with ``d = fl(y - H)``, one ``searchsorted`` counts the ``L <= fl(d -
    M)``, which all round to at most ``y``. Where the next ``L`` is at most
    ``fl(d + M)`` a second search ends that band, in which the exact test
    ``S / den <= y`` (Python's correctly rounded int division, on ints built
    for band members only) holds for a prefix, as the ints and their
    rounding are monotone: a binary search decides it in ``O(log)``
    divisions even where all of the low half is in it (``alpha`` near 0).
    Every ``|S / den|`` is at most about half of ``B = 2 (max |H| + max |L|)
    + 2^-1070``, so clipping ``y`` to ``[-B, B]`` leaves its count unchanged.

    The margin is ``M = 2^-50 (|H| + max |L| + |d|) + 2^-1070``. With ``u =
    2^-53`` and ``e = 2^-1074``, ``q = S / den`` lies within ``u|H| + 3u
    max|L| + e`` of ``H + L``: ``H`` is rounded once (by at most ``e / 2``
    below the normal range) and ``L`` at most twice, in int64 never below it
    (``bottom / den > 2^-159``, as ``n^h < 2^53`` and, unless both walks are
    int64, ``h >= ceil(t/2) - 1``). ``y - H`` lies within ``u|d|`` of ``d``.
    So ``L <= fl(d - M)`` gives ``q <= y``, hence ``fl(q) <= y``, once ``M``
    covers ``u (|H| + 3 max|L| + 2|d|) + e``; and ``L > fl(d + M)`` puts
    ``q`` at or past the float after ``y`` (at most ``2u|y| + e`` above),
    hence ``fl(q) > y``, once ``M`` covers ``u (3|H| + 3 max|L| + 4|d|) +
    2e``. Computed in floats, ``M`` is within ``3u`` of ``8u (|H| + max|L|
    + |d|) + 16e``: about twice either need after the rounding of ``d +-
    M``. Nothing here rests on an ``assert``; the band is decided in ints.
    """
    ys = np.asarray(ys, dtype=float)
    h = min(t, max(0, math.ceil((t + math.log2(max(ys.size, 1))) / 2) - 1))
    m, n = alpha.numerator, alpha.denominator
    h = next((s for s in range(h, -1, -1) if n ** max(s, t - s) < 2**53), h)
    high, low = _level(m, n, t - h), _level(m, n, h)
    top, bottom, den = n**h, m ** (t - h), n ** max(t - 1, 0)
    # At h = t, den / top is 1/n and high is [0].
    high_x = high / (den / top) if high.dtype == np.int64 else (top * high / den).astype(float)
    low_x = low * (bottom / den) if low.dtype == np.int64 else (bottom * low / den).astype(float)
    by_x = np.argsort(low_x)
    low_x, low = low_x[by_x], low[by_x]
    if (low_x[1:] == low_x[:-1]).any():  # equal floats: their ints decide
        low = np.sort(low)
    low_max = float(np.abs(low_x).max())
    clip = 2.0 * (float(np.abs(high_x).max()) + low_max) + 2.0**-1070
    y = np.clip(ys.ravel(), -clip, clip)
    d = y - high_x[:, None]
    margin = np.abs(d)
    margin += np.abs(high_x)[:, None] + low_max
    margin *= 2.0**-50
    margin += 2.0**-1070
    upper = d + margin  # fl(d + M), the band's upper end
    d -= margin
    del margin
    sure = np.searchsorted(low_x, d, "right")
    del d
    cells = np.flatnonzero(np.append(low_x, np.inf)[sure] <= upper)
    ends = np.searchsorted(low_x, upper.ravel()[cells], "right").tolist()
    counts = sure.sum(axis=0)
    for cell, end in zip(cells.tolist(), ends):
        (i, q), start = divmod(cell, y.size), int(sure.flat[cell])
        row, y_q = top * int(high[i]), y[q]
        counts[q] += bisect.bisect_left(
            range(start, end), True, key=lambda j: (row + bottom * int(low[j])) / den > y_q
        )
    return counts.reshape(ys.shape)


class ExactDistribution:
    """Exact law of ``X_t``: support as scaled integers with symbolic weights.

    ``entries`` is the :class:`PathLattice` of the ``2^t`` paths; as a
    sequence it holds the scaled integer positions ``S = X_t * n^(t-1)`` in
    increasing order. The one path that lands on ``S`` has ``k`` minus
    steps, the popcount of its index, and probability ``weights[k]``.
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
        return self.weights[int(lattice.ordered[0][lattice.index(scaled)]).bit_count()]

    def columns(self) -> tuple:
        """``(positions, scaled, k, probabilities)``, the table columns of
        ``DIST_HEADER`` in increasing position order: ``float_law``'s positions,
        the lattice, whose ints are computed when read, and two coded by ``k``."""
        order, xs = self.entries.ordered
        k = np.bitwise_count(order)
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
        return xs, np.array([float(w) for w in self.weights])[np.bitwise_count(order)]

    @cached_property
    def cdf(self) -> DiscreteCdf:
        """``x -> P(X_t <= x)``, evaluated against the float image of the support."""
        return DiscreteCdf(*self.float_law())


def enumerate_distribution(params: WalkParams) -> ExactDistribution:
    """Enumerate the exact law of ``X_t`` for rational alpha.

    Builds the two half-horizon lattices of scaled numerators, each by level
    doubling; a path's minus-step count is the popcount of its index. The
    support is ordered when first read, by a sort of the exactly rounded
    positions whose equal-float runs are sorted on the ints; that raises
    ``RuntimeError`` if two paths shared a position. Raises
    :class:`HorizonTooLargeError` past the cap.
    """
    frac = _require_exact_alpha(params.alpha)
    _check_cap(params.t)
    return ExactDistribution(params.t, frac, params.p, _path_lattice(frac, params.t))


def support_size(dist: ExactDistribution) -> int:
    """Number of distinct support points, counted on the ordered support,
    which raises if two paths share a position."""
    return len(dist.entries.ordered[0])


def _int_weights(p, t: int) -> tuple:
    """``([a^k (b-a)^(t-k) for k in 0..t], b^t)``: ``path_weights(p = a/b, t)`` over ``b^t``."""
    a, b = Fraction(p).as_integer_ratio()
    return [a**k * (b - a) ** (t - k) for k in range(t + 1)], b**t


def _half_moments(values: np.ndarray, p) -> tuple:
    """``(b^s, sum w v, sum w v^2)`` over a half of ``s`` steps, ``w`` of
    ``_int_weights(p, s)`` at the popcount of the path index."""
    weights, total = _int_weights(p, values.size.bit_length() - 1)
    sums = [[0, 0] for _ in weights]
    for i, v in enumerate(values.tolist()):
        row = sums[i.bit_count()]
        row[0] += v
        row[1] += v * v
    return (total, *(sum(w * s for w, s in zip(weights, column)) for column in zip(*sums)))


def exact_moments(dist: ExactDistribution):
    """Probability-weighted mean and variance of the support.

    A path's ``S`` is ``high + low`` and its weight ``p^k (1-p)^(t-k)`` the
    product of its halves' weights, so ``high`` and ``low`` are independent:
    ``E[S] = E[high] + E[low]`` and ``E[S^2] = E[high^2] + 2 E[high] E[low]
    + E[low^2]``, each from one pass over its half. That is ``O(2^(t/2))``
    big-int operations. For ``p = a/b`` each half of ``s`` steps weighs its
    paths by the ints ``a^k (b-a)^(s-k)`` over ``b^s``, so the sums are ints
    and each result is one Fraction. Returns Fractions when ``p`` is a
    Fraction, floats otherwise (the float path evaluates the rational sum
    exactly at ``p``'s binary value and rounds once).
    """
    lattice = dist.entries
    b_high, high, high2 = _half_moments(lattice.high, dist.p)
    b_low, low, low2 = _half_moments(lattice.low, dist.p)
    scale = b_high * b_low * dist.scale_denominator  # b^t n^(t-1)
    sum1 = high * b_low + low * b_high  # E[S] b^t
    sum2 = high2 * b_low + 2 * high * low + low2 * b_high  # E[S^2] b^t
    mean = Fraction(sum1, scale)
    var = Fraction(sum2 * b_high * b_low - sum1 * sum1, scale * scale)
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
    positions = np.zeros(1)
    for _ in range(t):  # the int walk's doubling, in floats
        positions = _double(float(alpha), positions, 1)
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
    ``j = 0..t``, each the Fraction ``c / b^t`` of an int ``c`` for ``p =
    a/b`` (a float ``p`` at its binary value).

    The ``s``-step paths are the half lattices of ``_path_lattice(alpha,
    s)``: ``S_s = high[i] + low[j]`` is nonnegative exactly when ``low[j] >=
    -high[i]``, so with ``low`` ranked on its ints each sign is an int
    comparison of ``rank[j]`` with the first rank at or above ``-high[i]``.
    Cells ``T_+ * (t + 1) + k`` are int16 codes, ``k`` the uint8 sum of the
    halves' index popcounts, counted a block at a time and weighted by the
    ints ``a^k (b-a)^(t-k)``.
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
    row_k, col_k = (np.bitwise_count(np.arange(half.size)) for half in (lattice.high, lattice.low))
    codes += np.add.outer(row_k, col_k).ravel()  # uint8, the popcount of i * len(low) + j
    blocks = np.split(codes, range(_BLOCK, codes.size, _BLOCK))
    cells = sum(np.bincount(block, minlength=(t + 1) ** 2) for block in blocks)
    weights, total = _int_weights(params.p, t)
    sums = cells.reshape(t + 1, t + 1).astype(object) @ np.array(weights, dtype=object)
    return {j: Fraction(paths, total) for j, paths in enumerate(sums.tolist())}
