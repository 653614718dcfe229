"""Augmented-Lagrangian outer loop with trust-region inner solves.

The outer loop maintains multipliers ``lam`` and a penalty ``mu`` for the
merit function

    L(x, lam, mu) = f(x) - lam'c(x) + (mu/2) ||c(x)||^2

and asks the inner solver for a point whose projected-gradient norm meets a
running tolerance. Feasibility progress drives the multiplier update and the
tolerance schedule; an unsolvable subproblem lowers ``mu`` and retries.
Inequalities are converted to equalities with nonnegative slacks up front, so
the inner problem is always bound-constrained.

Every inner iteration appends one diagnostics record; the final record is
stamped with penalty-free KKT residuals. A solve that takes no iteration
records its start point, so every trace ends in a stamped record.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .problem import NlpProblem, add_slacks, kkt_residual, project_box
from .quasi_newton import make_quasi_newton
from .subproblem import cauchy_point, steihaug_cg, trust_region_update
from .trace import SolveTrace, TraceRecord


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    INNER_FAILURE = "inner_failure"


# Penalty schedule and trust-region constants: the initial penalty, its
# raise and cut factors, the floor below which an unsolvable subproblem ends
# the solve, the initial radius and the step-acceptance ratio.
MU0 = 10.0
THETA_H = 10.0
THETA_L = 0.5
MU_FLOOR = 1e-8
DELTA0 = 1.0
RHO_ACCEPT = 0.1


@dataclass
class AugLagConfig:
    """Stopping tolerances, iteration budgets and quasi-Newton variant.

    The two stopping tolerances default to 1e-6. ``qn_kind`` is one of
    ``sr1``, ``bfgs``, ``l-sr1`` and ``l-bfgs``; ``lm_memory`` is the window
    of the limited-memory variants.
    """

    eta_con_star: float = 1e-6
    eta_grad_star: float = 1e-6
    max_outer: int = 100
    j_max: int = 200
    qn_kind: str = "sr1"
    lm_memory: int = 10

    def validate(self) -> None:
        if self.eta_con_star <= 0 or self.eta_grad_star <= 0:
            raise ValueError("stopping tolerances must be positive")
        if self.j_max < 1 or self.max_outer < 1 or self.lm_memory < 1:
            raise ValueError("iteration limits must be positive")
        make_quasi_newton(self.qn_kind, 1, 1.0)  # raises on unknown kind


@dataclass
class RawEval:
    """Objective and equality-constraint data at one point."""

    f: float
    g: np.ndarray
    c: np.ndarray
    J: np.ndarray

    @property
    def c_norm(self) -> float:
        return float(np.max(np.abs(self.c))) if self.c.size else 0.0


@dataclass
class NlpSolution:
    x: np.ndarray
    lam: np.ndarray
    f: float
    status: SolveStatus
    trace: SolveTrace
    kkt_grad: float
    kkt_con: float
    slack: Optional[np.ndarray] = None
    n_inner: int = 0
    n_outer: int = 0

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


@dataclass
class InnerResult:
    x: np.ndarray
    success: bool
    iterations: int
    payload: object = None


def projected_gradient_norm(x: np.ndarray, g: np.ndarray, lower: np.ndarray,
                            upper: np.ndarray) -> float:
    step = x - project_box(x - g, lower, upper)
    return float(np.max(np.abs(step))) if step.size else 0.0


def make_aug_lag_model(problem: NlpProblem, lam: np.ndarray, mu: float
                       ) -> Callable[[np.ndarray], Tuple[float, np.ndarray, RawEval]]:
    """Closure evaluating the merit function, its gradient and raw data."""

    def model(x: np.ndarray):
        f, g = problem.eval_objective(x)
        c, J = problem.eval_eq(x)
        value = f - float(lam @ c) + 0.5 * mu * float(c @ c)
        grad = g - J.T @ (lam - mu * c)
        return value, grad, RawEval(f=f, g=g, c=c, J=J)

    return model


def inner_solve(model, x_start: np.ndarray, lower: np.ndarray,
                upper: np.ndarray, eta_grad: float, j_max: int, qn,
                delta0: float = DELTA0, rho_accept: float = RHO_ACCEPT,
                on_iteration: Optional[Callable] = None) -> InnerResult:
    """Bound-constrained minimization of a model by projected Cauchy steps
    plus subspace CG refinement inside an inf-norm trust region.

    ``model(x)`` returns ``(value, gradient, payload)``. The quasi-Newton
    state ``qn`` is updated at every iteration, accepted or not. Success means
    the projected-gradient norm reached ``eta_grad`` within ``j_max``
    iterations.
    """
    x = project_box(np.asarray(x_start, dtype=float), lower, upper)
    value, grad, payload = model(x)
    pg = projected_gradient_norm(x, grad, lower, upper)
    if pg <= eta_grad:
        return InnerResult(x=x, success=True, iterations=0, payload=payload)

    delta = delta0
    for j in range(1, j_max + 1):
        B = qn.matrix()
        lo = np.maximum(lower - x, -delta)
        hi = np.minimum(upper - x, delta)
        cp = cauchy_point(B, grad, lo, hi)
        step = cp.p
        free = ~cp.active
        if np.any(free):
            g_red = (grad + B @ cp.p)[free]
            B_red = B[np.ix_(free, free)]
            v_lo = np.minimum(lo[free] - cp.p[free], 0.0)
            v_hi = np.maximum(hi[free] - cp.p[free], 0.0)
            gr_norm = float(np.linalg.norm(g_red))
            if gr_norm > 0.0:
                tol = min(0.1, np.sqrt(gr_norm))
                v = steihaug_cg(B_red, g_red, delta=np.inf, tol=tol,
                                box=(v_lo, v_hi), abs_tol=0.5 * eta_grad)
                step = cp.p.copy()
                step[free] += v

        step_norm = float(np.max(np.abs(step)))
        if step_norm < 1e-15 * (1.0 + float(np.max(np.abs(x)))):
            # the model admits no feasible descent; give the outer loop a
            # chance to change the subproblem
            return InnerResult(x=x, success=False, iterations=j, payload=payload)

        predicted = -(float(grad @ step) + 0.5 * float(step @ (B @ step)))
        x_trial = project_box(x + step, lower, upper)
        value_trial, grad_trial, payload_trial = model(x_trial)
        actual = value - value_trial
        rho = actual / predicted if predicted > 0 else -np.inf
        accepted = rho > rho_accept

        delta = trust_region_update(rho if np.isfinite(rho) else -1.0, step, delta)
        applied = qn.update(x_trial - x, grad_trial - grad)

        if accepted:
            x, value, grad, payload = x_trial, value_trial, grad_trial, payload_trial
        pg = projected_gradient_norm(x, grad, lower, upper)

        if on_iteration is not None:
            on_iteration(j, x, value, grad, pg, delta, rho, accepted,
                         not applied, payload)
        if pg <= eta_grad:
            return InnerResult(x=x, success=True, iterations=j, payload=payload)

    return InnerResult(x=x, success=False, iterations=j_max, payload=payload)


def solve(problem: NlpProblem, x0: Optional[np.ndarray] = None,
          config: Optional[AugLagConfig] = None) -> NlpSolution:
    """Minimize an NLP; inequalities are slack-converted internally.

    The returned ``x`` is in the original variable space; multipliers cover
    all equalities of the converted problem (original ones first, then one
    per converted inequality).
    """
    cfg = config if config is not None else AugLagConfig()
    cfg.validate()

    converted = problem.n_ineq > 0
    prob = add_slacks(problem) if converted else problem
    if x0 is None:
        if prob.x0 is None:
            raise ValueError("no starting point: pass x0 or set problem.x0")
        z = prob.x0.copy()
    else:
        z = np.asarray(x0, dtype=float).copy()
        if converted and z.shape == (problem.dim,):
            g0, _ = problem.eval_ineq(z)
            z = np.concatenate([z, np.maximum(g0, 0.0)])
    if z.shape != (prob.dim,):
        raise ValueError(f"x0 has shape {z.shape}, expected ({prob.dim},)")
    if not np.all(np.isfinite(z)):
        raise ValueError("x0 must be finite")
    x = project_box(z, prob.lower, prob.upper)

    lam = np.zeros(prob.n_eq)

    mu = MU0
    eta_con = mu ** -0.1
    eta_grad = 1.0 / mu

    _, g0 = prob.eval_objective(x)
    gamma = max(1.0, float(np.max(np.abs(g0))) if g0.size else 1.0)
    qn = make_quasi_newton(cfg.qn_kind, prob.dim, gamma, cfg.lm_memory)

    trace = SolveTrace()
    status = SolveStatus.MAX_ITERATIONS
    ev: Optional[RawEval] = None
    n_inner_total = 0
    outer_done = 0

    for k in range(cfg.max_outer):
        outer_done = k + 1

        def on_iter(j, xi, L, gi, pg, delta, rho, accepted, qn_skipped,
                    payload, _k=k):
            trace.append(TraceRecord(
                outer=_k, inner=j, f=payload.f, lagrangian=L, pg_norm=pg,
                c_norm=payload.c_norm,
                lam_norm=float(np.max(np.abs(lam))) if lam.size else 0.0,
                mu=mu, delta=delta,
                rho=None if not np.isfinite(rho) else float(rho),
                accepted=accepted, qn_skipped=qn_skipped,
                eta_con=eta_con, eta_grad=eta_grad))

        failed = False
        while True:
            res = inner_solve(make_aug_lag_model(prob, lam, mu), x,
                              prob.lower, prob.upper, eta_grad, cfg.j_max, qn,
                              on_iteration=on_iter)
            n_inner_total += res.iterations
            if res.success:
                x = res.x
                ev = res.payload
                break
            mu = THETA_L * mu
            if mu < MU_FLOOR:
                x = res.x
                ev = res.payload
                status = SolveStatus.INNER_FAILURE
                failed = True
                break
            eta_con = mu ** -0.1
            eta_grad = 1.0 / mu
            # multipliers unchanged; retry from the previous outer iterate
        if failed:
            break

        c_norm = ev.c_norm
        if c_norm <= eta_con:
            grad_free = ev.g - ev.J.T @ lam
            kkt_grad = projected_gradient_norm(x, grad_free, prob.lower, prob.upper)
            if c_norm <= cfg.eta_con_star and kkt_grad <= cfg.eta_grad_star:
                status = SolveStatus.CONVERGED
                break
            lam = lam - mu * ev.c
            eta_con = eta_con / mu ** 0.9
            eta_grad = eta_grad / mu
        else:
            mu = THETA_H * mu
            eta_con = mu ** -0.1
            eta_grad = 1.0 / mu

    if not trace.records:
        # the start point met the tolerances (or no step was ever taken):
        # one zero-iteration record carries the final KKT stamp
        L, grad, raw = make_aug_lag_model(prob, lam, mu)(x)
        trace.append(TraceRecord(
            outer=outer_done - 1, inner=0, f=raw.f, lagrangian=L,
            pg_norm=projected_gradient_norm(x, grad, prob.lower, prob.upper),
            c_norm=raw.c_norm,
            lam_norm=float(np.max(np.abs(lam))) if lam.size else 0.0,
            mu=mu, delta=DELTA0, rho=None, accepted=True,
            qn_skipped=False, eta_con=eta_con, eta_grad=eta_grad))

    # independent of the loop's own bookkeeping
    kkt_grad_final, kkt_con_final = kkt_residual(prob, x, lam)
    trace.stamp_final(status.value, kkt_grad_final, kkt_con_final)

    if ev is None:  # pragma: no cover - max_outer >= 1 guarantees ev
        f_final = prob.eval_objective(x)[0]
    else:
        f_final = ev.f
    if converted:
        n0 = problem.dim
        return NlpSolution(x=x[:n0], lam=lam, f=f_final, status=status,
                           trace=trace, kkt_grad=kkt_grad_final,
                           kkt_con=kkt_con_final, slack=x[n0:],
                           n_inner=n_inner_total, n_outer=outer_done)
    return NlpSolution(x=x, lam=lam, f=f_final, status=status, trace=trace,
                       kkt_grad=kkt_grad_final, kkt_con=kkt_con_final,
                       n_inner=n_inner_total, n_outer=outer_done)
