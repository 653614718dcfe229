"""Equality/inequality/bound-constrained nonlinear minimization."""

from .problem import (
    DimensionError,
    NlpProblem,
    add_slacks,
    check_gradients,
    kkt_residual,
    project_box,
)
from .quasi_newton import (
    DenseQuasiNewton,
    LimitedQuasiNewton,
    make_quasi_newton,
    quasi_newton_update,
)
from .solver import (
    AugLagConfig,
    NlpSolution,
    SolveStatus,
    inner_solve,
    make_aug_lag_model,
    projected_gradient_norm,
    solve,
)
from .subproblem import cauchy_point, steihaug_cg, trust_region_update
from .trace import SolveTrace, TraceRecord

__all__ = [
    "AugLagConfig",
    "DenseQuasiNewton",
    "DimensionError",
    "LimitedQuasiNewton",
    "NlpProblem",
    "NlpSolution",
    "SolveStatus",
    "SolveTrace",
    "TraceRecord",
    "add_slacks",
    "cauchy_point",
    "check_gradients",
    "inner_solve",
    "kkt_residual",
    "make_aug_lag_model",
    "make_quasi_newton",
    "project_box",
    "projected_gradient_norm",
    "quasi_newton_update",
    "solve",
    "steihaug_cg",
    "trust_region_update",
]
