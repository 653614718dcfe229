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
    DegenerateSpectrumError,
    NonStationaryARError,
    PpcaModel,
    SourceStats,
    center,
    fit_ppca,
    prewhiten_iterate,
    source_stats,
)

__all__ = [
    "ConstraintSet",
    "DataMatrix",
    "DegenerateSpectrumError",
    "LatDimSummary",
    "LogCoshNegentropy",
    "NonStationaryARError",
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
    "prewhiten_iterate",
    "refine_joint",
    "seed_search",
    "source_stats",
]
