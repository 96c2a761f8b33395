"""Exact distribution of the walk on the lattice of its ``2^t`` paths.

For rational ``alpha = m/n`` (reduced, 0 < m < n) the position after ``t``
steps is ``X_t = S_t / n^(t-1)`` with the integer numerator

    S_t = sum_{s=1..t} m^(t-s) n^(s-1) xi_s.

Path ``i`` takes step ``xi_s = -1`` exactly when bit ``s - 1`` of ``i`` is
set, so its minus-step count ``k`` is the popcount of ``i``. With ``h =
t // 2``, ``S`` of path ``i * 2^h + j`` is ``high[i] + low[j]``: the first
``h`` steps give ``low`` and the rest ``high``, two half lattices of about
``2^(t/2)`` Python ints each (ints, so position equality stays decidable,
which floating point cannot certify). Over all ``2^t`` paths only ``k`` is
built eagerly; the moments convolve per-``k`` sums of the halves.
``_path_lattice`` alone lays out the halves, also of each prefix for the
residence law, and ``_levels`` alone walks levels, in ints and in floats.

The support is ordered when first read, by a sort of the exactly rounded
positions ``S / n^(t-1)``. Each is composed in floats from double-double
splits of the halves and certified against a proved error bound; the few
that fail the test, such as exact rounding midpoints, are divided in ints.
Rounding is monotone, so only points with equal floats can be out of order,
and those are sorted on their ints, the only ``S`` the ordering computes.
The full array of ``S`` is built only when something reads the ints.
Distinct paths land on distinct positions for rational alpha in (0, 1), and
a tie raises. The probability of a point is entry ``k`` of the ``t + 1``
path weights ``p^k (1-p)^(t-k)``, so the law is exact for any step
parameter ``p``, including irrational ``p``.
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


class PathLattice(Mapping):
    """The endpoints of all ``2^t`` paths, held as their two half lattices.

    Path ``i * len(low) + j`` has the exact numerator ``high[i] + low[j]``
    (Python ints) of its position over ``den``, and ``k[i * len(low) + j] =
    high_k[i] + low_k[j]`` minus steps. Only ``k`` and, on first read, the
    ordered positions are built over all paths; ``scaled``, every numerator
    in path-index order, is built when something reads the ints. As a
    read-only mapping it sends each scaled value to its ``k``, iterating in
    increasing order; a lookup is a binary search.
    """

    def __init__(self, high, high_k, low, low_k, den: int):
        self.high, self.high_k = high, high_k
        self.low, self.low_k = low, low_k
        self.k = np.add.outer(high_k, low_k).ravel()
        self.den = den

    @cached_property
    def scaled(self) -> np.ndarray:
        """Every numerator ``S``, in path-index order."""
        return np.add.outer(self.high, self.low).ravel()

    def _numerators(self, paths: np.ndarray) -> np.ndarray:
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
    levels = list(_levels(m, n, t - half))
    (low, low_k), (high, high_k) = levels[half], levels[-1]
    # S_t = m^(t-h) S_h(steps 1..h) + n^h S_(t-h)(steps h+1..t); the later
    # steps are the high index bits, so they index the rows of the outer sum.
    return PathLattice(n**half * high, high_k, m ** (t - half) * low, low_k, n ** max(t - 1, 0))


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
    """Number of distinct support points."""
    return len(dist.entries)


def _moment_sums(values: np.ndarray, k: np.ndarray, size: int) -> list:
    """``[count, sum, sum of squares]`` of ``values`` by minus-step count."""
    sums = [[0, 0, 0] for _ in range(size)]
    for v, j in zip(values.tolist(), k.tolist()):
        row = sums[j]
        row[0] += 1
        row[1] += v
        row[2] += v * v
    return sums


def exact_moments(dist: ExactDistribution):
    """Probability-weighted mean and variance of the support.

    The sums of ``S`` and ``S^2`` over the paths with ``k`` minus steps come
    from the two half lattices: a path's ``S`` is ``high + low`` and its ``k``
    the sum of theirs, so the per-``k`` count, sum and sum of squares of
    each half convolve over ``k``. That is ``O(2^(t/2) + t^2)`` big-int
    operations, and only ``t + 1`` rational terms are weighted. Returns
    Fractions when ``p`` is a Fraction, floats otherwise (the float path
    still evaluates the rational sum exactly and rounds once).
    """
    lattice, t = dist.entries, dist.t
    sums1, sums2 = [0] * (t + 1), [0] * (t + 1)
    highs = _moment_sums(lattice.high, lattice.high_k, t + 1)
    lows = _moment_sums(lattice.low, lattice.low_k, t + 1)
    for i, (count_a, sum_a, square_a) in enumerate(highs):
        for j, (count_b, sum_b, square_b) in enumerate(lows[: t + 1 - i]):
            sums1[i + j] += sum_a * count_b + count_a * sum_b
            sums2[i + j] += square_a * count_b + 2 * sum_a * sum_b + count_a * square_b
    scale = Fraction(dist.scale_denominator)
    weights = path_weights(Fraction(dist.p), t)
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
    *_, (positions, _) = _levels(float(alpha), 1, t)
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
