"""Distributional analysis: standardization, CvM distance, residence laws.

The Cramer-von Mises distance here is the fixed-grid sum

    d(U, V) = ((m2 - m1) / n) * sum_{k=1..n} (F_U(u_k) - F_V(u_k))^2,
    u_k = m1 + (m2 - m1) * k / n,

with defaults (m1, m2, n) = (-3, 3, 600). No square root is taken and the
grid is left exactly as defined so tabulated values are reproducible to the
last bit. CDF arguments are plain callables ``x -> P(<= x)``; exact,
empirical, binomial, and normal evaluators all conform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb
from typing import Callable, Mapping, NamedTuple, Union

import numpy as np

from . import exact
from .core import Alpha, DiscreteCdf, check_elements
from .exact import ExactDistribution

__all__ = [
    "CvmGrid",
    "CvmResult",
    "ResidenceSummary",
    "standardize_arw",
    "standardize_srw",
    "normal_cdf",
    "uniform_cdf",
    "exact_standardized_cdf",
    "simple_rw_exact_cdf",
    "check_cvm_grid",
    "cvm_distance",
    "cvm_from_grid",
    "cvm_grid_table",
    "residence_binomial",
    "compare_residence_to_binomial",
    "cvm_lower_bound",
]

CdfFn = Callable[[float], float]


def standardize_arw(x, alpha: float, t: int):
    """Rescale a walk position to unit symmetric-case variance.

    Multiplies by ``sqrt((1 - alpha^2) / (1 - alpha^(2t)))``; for p = 1/2 the
    result has variance exactly 1. Accepts scalars or arrays.
    """
    return _arw_factor(alpha, t) * x


def _arw_factor(alpha: float, t: int) -> float:
    if not (0 < alpha < 1):
        raise ValueError(f"standardization requires 0 < alpha < 1, got {alpha}")
    if t < 1:
        raise ValueError("standardization requires t >= 1")
    return math.sqrt((1.0 - alpha * alpha) / (1.0 - alpha ** (2 * t)))


def standardize_srw(s, t: int):
    """Simple-RW rescaling ``s / sqrt(t)``."""
    if t < 1:
        raise ValueError("standardization requires t >= 1")
    return s / math.sqrt(t)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the library complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def uniform_cdf(lo: float, hi: float) -> CdfFn:
    """CDF of the uniform law on [lo, hi] as a callable."""
    if not lo < hi:
        raise ValueError("uniform_cdf requires lo < hi")
    width = hi - lo

    def cdf(x: float) -> float:
        if x <= lo:
            return 0.0
        if x >= hi:
            return 1.0
        return (x - lo) / width

    return cdf


def exact_standardized_cdf(dist: ExactDistribution) -> DiscreteCdf:
    """CDF of the standardized variable of an exact distribution."""
    xs, probs = dist.float_law()
    return DiscreteCdf(standardize_arw(xs, float(dist.alpha), dist.t), probs)


def _preimage(u: np.ndarray, factor: float) -> np.ndarray:
    """The largest float ``y`` with ``fl(factor * y) <= u``, for each ``u``
    (not NaN) and a ``factor > 0``. Rounding is monotone, so ``fl(factor *
    x) <= u`` exactly when ``x <= y``. ``fl(u / factor)`` is a few floats
    from ``y``, and nextafter steps reach it; ``+-inf`` are their own."""
    y = u / factor
    above = factor * y > u
    while above.any():
        y[above] = np.nextafter(y[above], -np.inf)
        above = factor * y > u
    while True:
        up = np.nextafter(y, np.inf)
        below = (factor * up <= u) & (y < np.inf)
        if not below.any():
            return y
        y[below] = up[below]


class _ExactGridCdf:
    """``u -> P(X <= u)`` of the standardized walk at ``p = 1/2``, bit for bit
    ``exact_standardized_cdf``'s value, by counting paths.

    Every path weighs ``2^-t``, so that CDF is ``N(u) 2^-t`` with ``N(u)`` the
    paths whose standardized float ``fl(factor * fl(S / den))`` is at most
    ``u``: the paths with ``fl(S / den) <= _preimage(u)``, which
    ``exact._count_at_most`` counts without ordering the ``2^t`` positions.
    The parameters are checked here; the counting runs when called, once per
    call, so call it with the whole grid.
    """

    def __init__(self, alpha: Alpha, t: int):
        self.alpha = exact._require_exact_alpha(alpha)
        exact._check_cap(t)
        self.t = t
        self.factor = _arw_factor(float(self.alpha), t)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        y = _preimage(u.ravel(), self.factor)
        cdf = np.ldexp(exact._count_at_most(self.alpha, self.t, y), -self.t)
        return cdf.reshape(u.shape) if u.ndim else float(cdf[0])


def simple_rw_exact_cdf(t: int) -> DiscreteCdf:
    """Exact CDF of the standardized simple-RW position ``S_t / sqrt(t)``."""
    if not 1 <= t <= 64:
        raise ValueError("exact simple-RW CDF supports 1 <= t <= 64")
    xs = [(2 * j - t) / math.sqrt(t) for j in range(t + 1)]
    probs = [comb(t, j) / 2**t for j in range(t + 1)]  # int division rounds once
    return DiscreteCdf(xs, probs)


@dataclass(frozen=True)
class CvmResult:
    """Grid CvM distance together with the grid it was computed on."""

    distance: float
    m1: float
    m2: float
    n: int


def cvm_distance(
    cdf_u: CdfFn,
    cdf_v: CdfFn,
    m1: float = -3.0,
    m2: float = 3.0,
    n: int = 600,
) -> CvmResult:
    """Squared-difference grid sum between two CDFs.

    The sum runs over the squared differences of :func:`cvm_grid_table` in
    grid order (fsum), so results do not depend on evaluation scheduling.
    """
    return cvm_from_grid(_tabulate(cdf_u, cdf_v, m1, m2, n), m1, m2, n)


def cvm_from_grid(grid: "CvmGrid", m1: float, m2: float, n: int) -> CvmResult:
    """The distance of :func:`cvm_distance` from the :func:`cvm_grid_table`
    of the same grid."""
    return CvmResult((m2 - m1) / n * math.fsum(grid.sq_diff), m1, m2, n)


def check_cvm_grid(m1: float, m2: float, n: int) -> None:
    """Raise ``ValueError`` unless ``m1 < m2`` with a finite width and ``n >= 1``,
    and ``ResourceLimitError`` when the grid table's columns would not fit."""
    # A finite m2 - m1 also rules out an infinite or NaN bound.
    if not (m1 < m2 and math.isfinite(m2 - m1)):
        raise ValueError(f"the CvM grid requires finite m1 < m2, got {m1}, {m2}")
    if n < 1:
        raise ValueError("the CvM grid requires n >= 1")
    check_elements(4 * n, f"a CvM grid table of {n} points")


class CvmGrid(NamedTuple):
    """A CDF pair tabulated on a CvM grid: one list entry per grid point."""

    u: list
    f_u: list
    f_v: list
    sq_diff: list


# Typed caches: an int and a float bound of equal value can give different
# grids, since ``m2 - m1`` is exact in int64 and rounded in floats.
@lru_cache(maxsize=16, typed=True)
def _grid(m1: float, m2: float, n: int) -> np.ndarray:
    # The same floats as ``m1 + (m2 - m1) * k / n`` point by point, which
    # overflow to inf as quietly as Python's floats do. Every law on a grid
    # shares this array, so it is read-only.
    with np.errstate(over="ignore"):
        u = m1 + (m2 - m1) * np.arange(1, n + 1) / n
    u.flags.writeable = False
    return u


@lru_cache(maxsize=16, typed=True)
def _normal_column(m1: float, m2: float, n: int) -> np.ndarray:
    column = np.array(list(map(normal_cdf, _grid(m1, m2, n).tolist())))
    column.flags.writeable = False
    return column


def _on_grid(cdf: CdfFn, u: np.ndarray, m1: float, m2: float, n: int) -> np.ndarray:
    if isinstance(cdf, (DiscreteCdf, _ExactGridCdf)):  # one call for the whole grid
        return cdf(u)
    if cdf is normal_cdf:  # the same column for every law on this grid
        return _normal_column(m1, m2, n)
    return np.array([float(cdf(x)) for x in u.tolist()])


def _tabulate(cdf_u: CdfFn, cdf_v: CdfFn, m1: float, m2: float, n: int) -> CvmGrid:
    """:func:`cvm_grid_table`'s grid, its first three columns left as arrays."""
    check_cvm_grid(m1, m2, n)
    u = _grid(m1, m2, n)
    fu, fv = _on_grid(cdf_u, u, m1, m2, n), _on_grid(cdf_v, u, m1, m2, n)
    # Python's ``(a - b) ** 2`` is libm's pow of ``|a - b|``; numpy's square
    # and ``d * d`` can differ from it in the last bit.
    return CvmGrid(u, fu, fv, list(map(math.pow, np.abs(fu - fv).tolist(), repeat(2.0))))


def cvm_grid_table(
    cdf_u: CdfFn, cdf_v: CdfFn, m1: float = -3.0, m2: float = 3.0, n: int = 600
) -> CvmGrid:
    """Columns ``u_k, F_U(u_k), F_V(u_k)`` and the squared differences, at
    ``u_k = m1 + (m2 - m1) k / n`` for ``k = 1..n``."""
    u, fu, fv, sq_diff = _tabulate(cdf_u, cdf_v, m1, m2, n)
    return CvmGrid(u.tolist(), fu.tolist(), fv.tolist(), sq_diff)


def residence_binomial(t: int, p: Union[float, Fraction], num=float) -> list:
    """``[C(t, j) q^j p^(t-j) for j in 0..t]``, ``q = 1 - p``: the pmf of
    ``B(t, 1-p)`` in the arithmetic of ``num`` (``float`` or ``Fraction``)."""
    p = num(p)
    q = 1 - p
    return [comb(t, j) * q**j * p ** (t - j) for j in range(t + 1)]


@dataclass(frozen=True)
class ResidenceSummary:
    """Residence-time law versus its binomial reference.

    ``condition_holds`` records whether alpha <= 1/2 or alpha^t - 2 alpha + 1
    > 0, the sufficient condition for the law to be exactly B(t, 1-p). The
    distance is reported either way; outside the condition no claim is made.
    """

    t: int
    pmf: Mapping[int, Union[float, Fraction]]
    binomial_q: Union[float, Fraction]
    tv_distance: Union[float, Fraction]
    condition_holds: bool


def compare_residence_to_binomial(
    pmf: Mapping[int, Union[float, Fraction]],
    t: int,
    p: Union[float, Fraction],
    alpha: float,
) -> ResidenceSummary:
    """Total-variation distance between a residence pmf and ``B(t, 1-p)``.

    A pmf made of Fractions is compared in exact rational arithmetic (the
    distance is then exactly zero when the binomial law holds); any other
    pmf is compared in float arithmetic.
    """
    num = Fraction if all(isinstance(v, Fraction) for v in pmf.values()) else float
    binomial = residence_binomial(t, p, num)
    tv = sum(abs(num(pmf.get(j, 0)) - b) for j, b in enumerate(binomial)) / 2
    condition = alpha <= 0.5 or alpha**t - 2.0 * alpha + 1.0 > 0.0
    return ResidenceSummary(t, dict(pmf), 1 - num(p), tv, condition)


def cvm_lower_bound(alpha: float) -> float:
    """Tail lower bound ``2 * integral_{-inf}^{c} Phi(u)^2 du``, ``c = -1/sqrt(1-alpha)``.

    In closed form, ``2 (c Phi(c)^2 + 2 phi(c) Phi(c) - Phi(sqrt(2) c) / sqrt(pi))``
    with ``phi`` the standard normal density: differentiate to check. The
    three terms cancel as ``alpha -> 1`` (relative error about 1e-10 at 0.99),
    and the bound underflows to 0 past ``alpha`` near 0.998.
    """
    if not (0 < alpha < 1):
        raise ValueError(f"cvm_lower_bound requires 0 < alpha < 1, got {alpha}")
    c = -1.0 / math.sqrt(1.0 - alpha)
    cdf = normal_cdf(c)
    pdf = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
    tail = normal_cdf(math.sqrt(2.0) * c) / math.sqrt(math.pi)
    return 2.0 * (c * cdf * cdf + 2.0 * pdf * cdf - tail)
