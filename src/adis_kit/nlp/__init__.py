"""Equality/inequality/bound-constrained nonlinear minimization."""

from .problem import (
    DimensionError,
    NlpProblem,
    add_slacks,
    check_gradients,
    kkt_residual,
    project_box,
    projected_gradient_norm,
)
from .quasi_newton import (
    DenseQuasiNewton,
    quasi_newton_update,
)
from .solver import (
    AugLagConfig,
    NlpSolution,
    SolveScale,
    SolveStatus,
    inner_solve,
    solve,
)
from .subproblem import cauchy_point, steihaug_cg, trust_region_update
from .trace import SolveTrace, TraceRecord

__all__ = [
    "AugLagConfig",
    "DenseQuasiNewton",
    "DimensionError",
    "NlpProblem",
    "NlpSolution",
    "SolveScale",
    "SolveStatus",
    "SolveTrace",
    "TraceRecord",
    "add_slacks",
    "cauchy_point",
    "check_gradients",
    "inner_solve",
    "kkt_residual",
    "project_box",
    "projected_gradient_norm",
    "quasi_newton_update",
    "solve",
    "steihaug_cg",
    "trust_region_update",
]
