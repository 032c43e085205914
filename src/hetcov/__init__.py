"""Load-aware downlink coverage analysis for K-tier heterogeneous cellular
networks.

Exact series coverage probabilities with truncation bounds for networks
whose interference field is conditionally thinned by per-tier activity
factors, together with an independent Monte Carlo simulator of the same
model for cross-validation.  The package re-exports the public names of
its four modules; each module's __all__ is the one list of them.
"""

from . import analytic, mcsim, model, specfun
from .analytic import *  # noqa: F401,F403
from .mcsim import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = analytic.__all__ + mcsim.__all__ + model.__all__ + specfun.__all__
