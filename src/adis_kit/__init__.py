"""adis-kit: constrained blind source separation by projection pursuit.

The core is a verifiable augmented-Lagrangian trust-region solver; around it
sit the probabilistic whitening model, two-stage latent-dimensionality
estimation, multistage negentropy pursuit, and a separation-quality
benchmark harness.
"""

__version__ = "0.1.0"

from .contrast import (
    ConstraintSet,
    LogCoshNegentropy,
    ProblemFactory,
    g_logcosh,
    gauss_expectation,
    negentropy,
)
from .latdim import LatDimSummary, cv_profile, estimate_q, permute_lower_bound
from .pursuit import (
    PursuitConfig,
    PursuitError,
    PursuitResult,
    decompose,
    extract_component,
    refine_joint,
    seed_search,
)
from .whiten import (
    DataMatrix,
    PpcaModel,
    SourceStats,
    center,
    fit_ppca,
    source_stats,
)

__all__ = [
    "ConstraintSet",
    "DataMatrix",
    "LatDimSummary",
    "LogCoshNegentropy",
    "PpcaModel",
    "ProblemFactory",
    "PursuitConfig",
    "PursuitError",
    "PursuitResult",
    "SourceStats",
    "center",
    "cv_profile",
    "decompose",
    "estimate_q",
    "extract_component",
    "fit_ppca",
    "g_logcosh",
    "gauss_expectation",
    "negentropy",
    "permute_lower_bound",
    "refine_joint",
    "seed_search",
    "source_stats",
]
