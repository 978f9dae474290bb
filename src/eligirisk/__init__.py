"""Capital-requirement risk measures with general eligible assets on finite
probability spaces.

The package evaluates requirements of the form

    rho(X) = inf{m : X + (m / S0) * S1 acceptable},

where the eligible asset S has price S0 > 0 and strictly positive payoff S1
and acceptability is defined through value-at-risk, expected shortfall,
distortion mixtures, a plain expectation floor, or a user-supplied
decreasing functional.  Alongside the solver it ships exact comonotonicity
tests and executable checkers for the structural results that tie
comonotonic additivity of the requirement to properties of the acceptance
set and of the asset: additivity survives a risky asset only when the set
absorbs the fully leveraged payoff, and never when the set is pointed.
"""

__version__ = "0.1.0"

# each layer's ``__all__`` is its public surface; the package re-exports them
# in layer order and states no name of its own but the version
from . import acceptance, comonotone, engine, measures, reporting, spaces, theorems
from .spaces import *
from .measures import *
from .acceptance import *
from .engine import *
from .comonotone import *
from .reporting import *
from .theorems import *

__all__ = [
    "__version__",
    *spaces.__all__,
    *measures.__all__,
    *acceptance.__all__,
    *engine.__all__,
    *comonotone.__all__,
    *reporting.__all__,
    *theorems.__all__,
]
