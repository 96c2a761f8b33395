"""Core model of the antlion random walk.

The walk evolves as ``X_t = alpha * X_{t-1} + xi_t`` where the steps ``xi_t``
are i.i.d. two-point (generalized Rademacher) variables with
``P(xi = -1) = p`` and ``P(xi = +1) = 1 - p``. The memory parameter ``alpha``
contracts the previous position toward the origin before each step;
``alpha = 1`` recovers the simple random walk and ``alpha = 0`` makes
successive positions independent copies of the step.

An ``Alpha``'s mode is the type of its value: a ``fractions.Fraction`` is
exact mode, so the enumeration engine can run on integers, and anything
else is real mode, held as a float. The number-theoretic facts (path
uniqueness, support size) collapse under rounding, which is why nothing
converts one mode into the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

__all__ = [
    "Alpha",
    "WalkParams",
    "DiscreteCdf",
    "ResourceLimitError",
    "DEFAULT_ELEMENT_LIMIT",
    "check_elements",
    "philox_stream",
    "parse_number",
    "evolve",
    "closed_form_mean",
    "closed_form_variance",
]

Probability = Union[float, Fraction]


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed a fixed size budget."""


# The one size budget: most values one computation may hold; 2e8 float64
# values is ~1.6 GB.
DEFAULT_ELEMENT_LIMIT = 200_000_000


def check_elements(count: int, what: str) -> None:
    """Raise :class:`ResourceLimitError` when ``count`` values exceed
    ``DEFAULT_ELEMENT_LIMIT`` (read at call time); call it before allocating."""
    if count > DEFAULT_ELEMENT_LIMIT:
        raise ResourceLimitError(
            f"{what} would hold {count} values, over the limit of {DEFAULT_ELEMENT_LIMIT}"
        )


def philox_stream(seed, *spawn_key: int) -> np.random.Generator:
    """The one stream convention of the package, part of its determinism
    contract: Philox on ``SeedSequence(entropy=seed, spawn_key=spawn_key)``.
    A ``SeedSequence`` seed is used as it is."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(seed))


def parse_number(text: str) -> Union[Fraction, float]:
    """Parse ``"m/n"`` as an exact Fraction and anything else as a float."""
    text = text.strip()
    if "/" not in text:
        return float(text)
    num, _, den = text.partition("/")
    if int(den) == 0:
        raise ValueError(f"{text!r} has a zero denominator")
    return Fraction(int(num), int(den))


class DiscreteCdf:
    """Right-continuous CDF of a finite discrete law.

    ``xs`` is the support in increasing order and ``cum[i] = P(X <= xs[i])``,
    clamped to 1 against rounding; a call is one ``searchsorted`` on ``xs``.
    This is the one step-CDF type: exact, empirical and simple-RW laws all
    evaluate through it. A support already in increasing order, as an exact
    law's is, is kept as given, without a sort or a copy.
    """

    def __init__(self, xs, probs):
        xs = np.asarray(xs, dtype=np.float64)
        probs = np.asarray(probs, dtype=np.float64)
        if not np.all(xs[1:] >= xs[:-1]):
            order = np.argsort(xs, kind="stable")
            xs, probs = xs[order], probs[order]
        self.xs = xs
        self.cum = np.cumsum(probs)
        np.minimum(self.cum, 1.0, out=self.cum)

    def __call__(self, x):
        idx = np.searchsorted(self.xs, x, side="right")
        if np.isscalar(idx):
            return float(self.cum[idx - 1]) if idx else 0.0
        return np.where(idx > 0, self.cum[np.maximum(idx - 1, 0)], 0.0)


@dataclass(frozen=True)
class Alpha:
    """Memory parameter, exact (rational) or real (float) by its value's type.

    ``exact`` is derived, never given: a ``Fraction`` value is exact mode
    and must lie in the open interval (0, 1). Any other value is real mode,
    stored as a float in [0, 1]; the endpoint 1.0 is admitted only so the
    simple-random-walk reduction stays expressible, and 0.0 only as the
    degenerate i.i.d. case. Operations that need 0 < alpha < 1 (bounds,
    reachability, enumeration) validate that themselves.
    """

    value: Union[Fraction, float]
    exact: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "exact", isinstance(self.value, Fraction))
        if self.exact:
            if not (0 < self.value < 1):
                raise ValueError(f"exact alpha must lie in (0, 1), got {self.value}")
        else:
            v = float(self.value)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"real alpha must lie in [0, 1], got {v}")
            object.__setattr__(self, "value", v)

    @staticmethod
    def from_fraction(value: Fraction) -> "Alpha":
        return Alpha(Fraction(value))

    @staticmethod
    def from_real(value: float) -> "Alpha":
        return Alpha(float(value))

    @staticmethod
    def parse(text: str) -> "Alpha":
        """Parse ``"m/n"`` as exact mode and a decimal string as real mode."""
        return Alpha(parse_number(text))

    @property
    def as_float(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        if self.exact:
            return f"{self.value.numerator}/{self.value.denominator}"
        return repr(self.value)


@dataclass(frozen=True)
class WalkParams:
    """Parameters of one walk: memory ``alpha``, minus-step probability ``p``,
    horizon ``t``.

    Note the orientation: ``p`` is the probability of a -1 step, so the mean
    step is ``1 - 2p``. ``p`` may be a Fraction, in which case downstream
    exact computations stay in rational arithmetic.
    """

    alpha: Alpha
    p: Probability = 0.5
    t: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.p <= 1):
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if not isinstance(self.t, int) or self.t < 0:
            raise ValueError(f"t must be a nonnegative integer, got {self.t}")


def evolve(x, alpha: Union[Alpha, float, Fraction], xi: int):
    """One update ``alpha * x + xi``.

    Arithmetic follows the operand types: Fraction positions with an exact
    alpha stay exact, floats stay floats.
    """
    a = alpha.value if isinstance(alpha, Alpha) else alpha
    return a * x + xi


def closed_form_mean(params: WalkParams):
    """Expected position after ``t`` steps: ``(1-2p)(1-alpha^t)/(1-alpha)``.

    ``alpha = 1`` (real mode) returns the simple-RW mean ``(1-2p) t``.
    Exact alpha with Fraction ``p`` gives an exact Fraction.
    """
    a = params.alpha.value
    p, t = params.p, params.t
    if a == 1:
        return (1 - 2 * p) * t
    return (1 - 2 * p) * (1 - a**t) / (1 - a)


def closed_form_variance(params: WalkParams):
    """Variance after ``t`` steps: ``4p(1-p)(1-alpha^(2t))/(1-alpha^2)``.

    ``alpha = 1`` (real mode) returns the simple-RW variance ``4p(1-p) t``.
    """
    a = params.alpha.value
    p, t = params.p, params.t
    if a == 1:
        return 4 * p * (1 - p) * t
    return 4 * p * (1 - p) * (1 - a ** (2 * t)) / (1 - a * a)

