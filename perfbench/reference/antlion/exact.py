"""Exact distribution of the walk by big-integer path enumeration.

For rational ``alpha = m/n`` (reduced, 0 < m < n) the position after ``t``
steps is ``X_t = S_t / n^(t-1)`` with the integer numerator

    S_t = sum_{s=1..t} m^(t-s) n^(s-1) xi_s,

maintained incrementally as ``S_s = m * S_{s-1} + n^(s-1) * xi_s``. Carrying
``S_t`` exactly makes position equality decidable, which is what the
support-size and path-uniqueness checks rely on; floating point cannot
certify either. Probabilities are kept symbolic per support point as
``(k, multiplicity)`` where ``k`` counts the -1 steps, so the distribution is
exact for any step parameter ``p``, including irrational ``p``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

from .core import Alpha, WalkParams

__all__ = [
    "DEFAULT_HORIZON_CAP",
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
]

# 2^24 paths is the desk-scale ceiling; larger horizons exhaust memory long
# before they exhaust patience.
DEFAULT_HORIZON_CAP = 24


class HorizonTooLargeError(ValueError):
    """Raised when an enumeration would walk more than 2^cap paths."""


def _require_exact_alpha(alpha: Alpha) -> Fraction:
    if not alpha.exact:
        raise ValueError("exact enumeration requires a rational alpha (exact mode)")
    return alpha.value


def _check_cap(t: int, cap: int) -> None:
    if t > cap:
        raise HorizonTooLargeError(
            f"horizon t={t} exceeds the enumeration cap {cap} (2^{t} paths); "
            f"raise the cap explicitly if you really want this"
        )


class ExactDistribution:
    """Exact law of ``X_t``: support as scaled integers with symbolic weights.

    ``entries`` maps the scaled integer position ``S = X_t * n^(t-1)`` to
    ``(k, multiplicity)``. For rational alpha in (0, 1) every multiplicity is
    1 and ``k`` is well defined per point because distinct paths land on
    distinct positions; the enumerator still merges defensively and would
    refuse an ambiguous ``k``.
    """

    def __init__(self, t: int, alpha: Fraction, p, entries: dict):
        self.t = t
        self.alpha = alpha
        self.p = p
        self.entries = entries
        self._tables = None

    def __repr__(self) -> str:
        return (
            f"ExactDistribution(t={self.t}, alpha={self.alpha}, p={self.p}, "
            f"support={len(self.entries)})"
        )

    @property
    def scale_denominator(self) -> int:
        return self.alpha.denominator ** max(self.t - 1, 0)

    def point_probability(self, scaled: int):
        """Probability of one support point, in the arithmetic of ``p``."""
        k, mult = self.entries[scaled]
        p, t = self.p, self.t
        return mult * p**k * (1 - p) ** (t - k)

    def items_sorted(self):
        """Yield ``(scaled, k, multiplicity)`` in increasing position order."""
        for scaled in sorted(self.entries):
            k, mult = self.entries[scaled]
            yield scaled, k, mult

    def support_fractions(self) -> list:
        den = self.scale_denominator
        return [Fraction(s, den) for s in sorted(self.entries)]

    def support_floats(self) -> np.ndarray:
        den = self.scale_denominator
        return np.array([s / den for s in sorted(self.entries)], dtype=float)

    def total_probability(self):
        return sum(self.point_probability(s) for s in self.entries)

    def _ensure_tables(self):
        if self._tables is None:
            scaled_sorted = sorted(self.entries)
            den = self.scale_denominator
            xs = np.array([s / den for s in scaled_sorted], dtype=float)
            probs = np.array(
                [float(self.point_probability(s)) for s in scaled_sorted], dtype=float
            )
            self._tables = (xs, np.cumsum(probs))
        return self._tables

    def cdf(self, x: float) -> float:
        """P(X_t <= x), evaluated against the float image of the support."""
        xs, cum = self._ensure_tables()
        idx = int(np.searchsorted(xs, x, side="right"))
        if idx == 0:
            return 0.0
        return float(min(cum[idx - 1], 1.0))

    def to_csv(self, path) -> None:
        den = self.scale_denominator
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["position_real", "scaled_value", "k_minus_steps", "probability"])
            for scaled, k, mult in self.items_sorted():
                prob = float(mult * self.p**k * (1 - self.p) ** (self.t - k))
                writer.writerow([repr(scaled / den), scaled, k, repr(prob)])

    def to_json_dict(self) -> dict:
        den = self.scale_denominator
        return {
            "t": self.t,
            "alpha": f"{self.alpha.numerator}/{self.alpha.denominator}",
            "p": float(self.p),
            "scale_denominator": str(den),
            "points": [
                {
                    "position": scaled / den,
                    "scaled_value": str(scaled),
                    "k_minus_steps": k,
                    "multiplicity": mult,
                    "probability": float(mult * self.p**k * (1 - self.p) ** (self.t - k)),
                }
                for scaled, k, mult in self.items_sorted()
            ],
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)


def _merge_level(entries: dict, m: int, weight: int) -> dict:
    # Slow path with genuine merging; only reached if a level actually collides.
    nxt: dict = {}
    for scaled, (k, mult) in entries.items():
        base = m * scaled
        for new_scaled, new_k in ((base + weight, k), (base - weight, k + 1)):
            cur = nxt.get(new_scaled)
            if cur is None:
                nxt[new_scaled] = (new_k, mult)
            elif cur[0] == new_k:
                nxt[new_scaled] = (new_k, cur[1] + mult)
            else:
                # Same position via different minus-step counts: the symbolic
                # (k, multiplicity) form cannot represent it.
                raise RuntimeError(
                    "position collision with mismatched minus-step counts; "
                    "this cannot happen for rational alpha in (0, 1)"
                )
    return nxt


def enumerate_distribution(
    params: WalkParams, *, cap: int = DEFAULT_HORIZON_CAP
) -> ExactDistribution:
    """Enumerate the exact law of ``X_t`` for rational alpha.

    Walks all ``2^t`` increment sequences via a level-by-level sweep with the
    scaled-integer update, deduplicating through a map keyed on the scaled
    value. Raises :class:`HorizonTooLargeError` past the cap.
    """
    frac = _require_exact_alpha(params.alpha)
    _check_cap(params.t, cap)
    m, n = frac.numerator, frac.denominator
    entries: dict = {0: (0, 1)}
    weight = 1  # n^(s-1) at step s
    for _ in range(params.t):
        nxt: dict = {}
        for scaled, km in entries.items():
            base = m * scaled
            nxt[base + weight] = km
            nxt[base - weight] = (km[0] + 1, km[1])
        if len(nxt) != 2 * len(entries):
            # Overwrites hid a collision; redo the level with real merging.
            nxt = _merge_level(entries, m, weight)
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
    t = dist.t
    sums1: dict = {}
    sums2: dict = {}
    for scaled, (k, mult) in dist.entries.items():
        v = mult * scaled
        sums1[k] = sums1.get(k, 0) + v
        sums2[k] = sums2.get(k, 0) + v * scaled
    scale = Fraction(dist.scale_denominator)
    pf = Fraction(dist.p)
    qf = 1 - pf
    mean = sum(pf**k * qf ** (t - k) * s for k, s in sums1.items()) / scale
    ex2 = sum(pf**k * qf ** (t - k) * s for k, s in sums2.items()) / (scale * scale)
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
    doubles as a regression oracle for the enumeration engine.
    """
    if isinstance(alpha, Fraction):
        alpha = Alpha.from_fraction(alpha)
    frac = _require_exact_alpha(alpha)
    _check_cap(t, cap)
    dist = enumerate_distribution(WalkParams(alpha=alpha, p=0.5, t=t), cap=cap)
    if len(dist.entries) == 2**t and all(mult == 1 for _, mult in dist.entries.values()):
        return CollisionReport([])
    return _collision_pairs_exact(frac, t)


def _collision_pairs_exact(frac: Fraction, t: int) -> CollisionReport:
    # Only reachable on a theorem violation; recovers the offending paths.
    m, n = frac.numerator, frac.denominator
    weights = [m ** (t - s) * n ** (s - 1) for s in range(1, t + 1)]
    seen: dict = {}
    collisions = []
    for index in range(2**t):
        path = tuple(1 if (index >> s) & 1 else -1 for s in range(t))
        scaled = sum(w * x for w, x in zip(weights, path))
        if scaled in seen:
            collisions.append(
                Collision(seen[scaled], path, scaled / n ** (t - 1), t)
            )
        else:
            seen[scaled] = path
    return CollisionReport(collisions)


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
    # scaled -> (nonnegative-visit count, minus-step count, multiplicity);
    # the scaled value determines the whole prefix for rational alpha, so the
    # merge branch below is defensive only.
    state: dict = {0: (0, 0, 1)}
    weight = 1
    for _ in range(t):
        nxt: dict = {}
        for scaled, (cnt, k, mult) in state.items():
            base = m * scaled
            for new_scaled, new_k in ((base + weight, k), (base - weight, k + 1)):
                new_cnt = cnt + (1 if new_scaled >= 0 else 0)
                cur = nxt.get(new_scaled)
                if cur is None:
                    nxt[new_scaled] = (new_cnt, new_k, mult)
                elif cur[0] == new_cnt and cur[1] == new_k:
                    nxt[new_scaled] = (new_cnt, new_k, cur[2] + mult)
                else:
                    raise RuntimeError(
                        "residence collision with mismatched labels; "
                        "impossible for rational alpha in (0, 1)"
                    )
        state = nxt
        weight *= n
    cells: dict = {}
    for cnt, k, mult in state.values():
        cells[(cnt, k)] = cells.get((cnt, k), 0) + mult
    pf = Fraction(params.p)
    qf = 1 - pf
    pmf = {j: Fraction(0) for j in range(t + 1)}
    for (cnt, k), paths in cells.items():
        pmf[cnt] += paths * pf**k * qf ** (t - k)
    return pmf
