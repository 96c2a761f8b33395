"""Antlion random walk toolkit.

A walk that is pulled back toward the origin by a memory factor before every
unit step. The package covers exact distribution enumeration for rational
memory parameters, reproducible Monte Carlo, reachability analysis with
witnesses and gap certificates, positive-side residence times, Cramer-von
Mises distances to the standard normal, and the two-armed bandit threshold
model the walk originates from.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all.
"""

__version__ = "0.1.0"

from . import analysis, bandit, core, exact, montecarlo, reachability
from .analysis import *  # noqa: F401,F403
from .bandit import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .exact import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .reachability import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *core.__all__,
    *exact.__all__,
    *montecarlo.__all__,
    *analysis.__all__,
    *reachability.__all__,
    *bandit.__all__,
]
