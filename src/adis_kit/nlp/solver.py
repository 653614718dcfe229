"""Augmented-Lagrangian outer loop with trust-region inner solves.

The outer loop maintains multipliers ``lam`` and a penalty ``mu`` for the
merit function

    L(x, lam, mu) = f(x) - lam'c(x) + (mu/2) ||c(x)||^2

and asks the inner solver for a point whose projected-gradient norm meets a
running tolerance. Feasibility progress drives the multiplier update and the
tolerance schedule; an unsolvable subproblem lowers ``mu`` and retries.
Inequalities are converted to equalities with nonnegative slacks up front, so
the inner problem is always bound-constrained.

A problem with no equality rows after that conversion (unconstrained or
bound-only) runs no schedule: its merit is f, which neither ``lam`` nor
``mu`` changes, so the loop reduces to the inner solver (Conn, Gould & Toint
1991, SIAM J. Numer. Anal. 28(2)). The inner solve is asked for
``eta_grad_star`` from the start and usually finishes in one outer
iteration. When it fails, the next outer iteration goes on from the point it
reached, with a fresh trust region; a failed inner solve that took no step
ends the solve, since lowering ``mu`` would only retry the same model from
the same point.

Such a solve also starts at a scale. The default start, B = max(1,
|g0|_inf)·I and a trust radius of 1, suits no pursuit problem: their
gradients are about 2e-3, their curvatures about 0.007, and their optima lie
0.1-0.5 away. Given no scale, the quasi-Newton matrix is reset to
(y'y / y's)·I just before its first pair, when y's > 0 (Shanno & Phua 1978,
Math. Program. 14; Nocedal & Wright 2006, Numerical Optimization, eq. 6.20).
The solve reports the scale it ended with, ``NlpSolution.scale``: its last
trust radius and y'y / y's of its last pair with y's > 0. Given a scale, it
takes the radius as its first trust radius and, when there is a curvature
c, starts at B = c·I with no rescaling. The pursuit hands each converged
solve's scale to the next solve. Objective evaluations per operation and
inner iterations per Stage 1 / Stage 2 solve (benchmark seed 3, bss-synth5
ops 1..40 and bss-noisy-long ops 1..8):

    start                            synth5             noisy
    B = max(1, |g0|)·I, radius 1     94.05  7.53/15.82  112.38  9.12/21.38
    first-pair rescaling alone       85.92  7.27/ 9.80   91.25  7.69/11.75
    + the last solve's radius        76.25  6.34/ 7.55   84.38  6.88/11.38
    + its curvature (Stage 1 only)   62.85  4.58/ 8.25   72.75  5.48/10.88

With equality rows the rule took more iterations (polygon-6 88 -> 108 with
SR1, 82 -> 121 with BFGS), so those solves start as before, ignore a given
scale and report none.

Each point is evaluated once: an inner solve starts from the raw data the
outer loop holds for its iterate, and only the final KKT stamp evaluates
again, independently.

A trial step is judged by the ratio rho of the actual to the predicted
decrease of L. When the predicted decrease is positive but at most
``10 * eps * max(1, |L|)`` (eps the float64 machine epsilon), the actual
decrease is rounding noise in L, so the step is taken with rho = 1 (Conn,
Gould & Toint 2000, Trust-Region Methods, section 17.4.2).

Every inner iteration appends one diagnostics record; the final record is
stamped with penalty-free KKT residuals. A solve that takes no iteration
records its start point, so every trace ends in a stamped record.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .problem import (NlpProblem, add_slacks, kkt_residual, project_box,
                      projected_gradient_norm)
from .quasi_newton import DenseQuasiNewton
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
# a predicted decrease at most this times max(1, |L|) is below the rounding
# of the merit value L
MERIT_ROUNDING = 10.0 * np.finfo(float).eps


@dataclass
class AugLagConfig:
    """Five fields: stopping tolerances, iteration budgets and quasi-Newton
    variant.

    The two stopping tolerances default to 1e-6. ``qn_kind`` is ``sr1`` or
    ``bfgs``, in any letter case.
    """

    eta_con_star: float = 1e-6
    eta_grad_star: float = 1e-6
    max_outer: int = 100
    j_max: int = 200
    qn_kind: str = "sr1"

    def validate(self) -> None:
        if self.eta_con_star <= 0 or self.eta_grad_star <= 0:
            raise ValueError("stopping tolerances must be positive")
        if self.j_max < 1 or self.max_outer < 1:
            raise ValueError("iteration limits must be positive")
        if self.qn_kind.lower() not in DenseQuasiNewton.KINDS:
            raise ValueError(f"unknown quasi-Newton kind {self.qn_kind!r}")


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


@dataclass(frozen=True)
class SolveScale:
    """The scale a solve without equality rows ends with, to start another
    from: its last trust radius and the curvature scale y'y / y's of its
    last pair with y's > 0. A ``curvature`` of None leaves the start matrix
    to the first-pair rescaling."""

    radius: float
    curvature: Optional[float] = None


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
    # None when the converted problem has equality rows
    scale: Optional[SolveScale] = None

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


@dataclass
class InnerResult:
    x: np.ndarray
    success: bool
    iterations: int
    payload: object = None
    delta: float = DELTA0       # the trust radius it ended with


def evaluate_raw(problem: NlpProblem, x: np.ndarray) -> RawEval:
    f, g = problem.eval_objective(x)
    c, J = problem.eval_eq(x)
    return RawEval(f=f, g=g, c=c, J=J)


def aug_lag_merit(raw: RawEval, lam: np.ndarray, mu: float
                  ) -> Tuple[float, np.ndarray, RawEval]:
    """Merit value, its gradient and the raw data, from data already held."""
    if not raw.c.size:
        # no equality rows: lam'c and c'c are 0.0 and J'(lam - mu c) is a
        # zero vector, so the full form reduces to these scalars and a copy
        # of g, bit for bit ((f - 0.0) + 0.0 turns -0.0 into +0.0, as the
        # full form does)
        return raw.f - 0.0 + 0.5 * mu * 0.0, raw.g.copy(), raw
    value = raw.f - float(lam @ raw.c) + 0.5 * mu * float(raw.c @ raw.c)
    grad = raw.g - raw.J.T @ (lam - mu * raw.c)
    return value, grad, raw


def inner_solve(model, x_start: np.ndarray, lower: np.ndarray,
                upper: np.ndarray, eta_grad: float, j_max: int, qn,
                delta0: float = DELTA0,
                on_iteration: Optional[Callable] = None,
                start_eval: Optional[Tuple[float, np.ndarray, object]] = None
                ) -> InnerResult:
    """Bound-constrained minimization of a model by projected Cauchy steps
    plus subspace CG refinement inside an inf-norm trust region.

    ``model(x)`` returns ``(value, gradient, payload)``. ``start_eval``, when
    given, is that triple at the (projected) start point, which is then not
    evaluated again. The quasi-Newton state ``qn`` is updated at every
    iteration, accepted or not. A step whose predicted decrease is positive
    but below ``MERIT_ROUNDING * max(1, |value|)`` is judged with rho = 1.
    Success means the projected-gradient norm reached ``eta_grad`` within
    ``j_max`` iterations.
    """
    x = project_box(np.asarray(x_start, dtype=float), lower, upper)
    value, grad, payload = start_eval if start_eval is not None else model(x)
    # clamping onto bounds that are all infinite changes no bit, so an
    # unbounded problem skips the clamps of the trial point and of the
    # projected gradient. From a finite start every accepted point is finite
    # too (a step with an infinite or NaN entry predicts an infinite or NaN
    # decrease and is rejected), so its subproblem box max(lower - x,
    # -delta) .. min(upper - x, delta) is -delta .. delta in every
    # component, and is passed as floats.
    bounds = (lower, upper) if (np.count_nonzero(lower != -np.inf)
                                or np.count_nonzero(upper != np.inf)) else ()
    radius_box = not bounds and np.count_nonzero(np.isfinite(x)) == x.size
    pg = projected_gradient_norm(x, grad, *bounds)
    if pg <= eta_grad:
        return InnerResult(x=x, success=True, iterations=0, payload=payload,
                           delta=delta0)

    delta = delta0
    for j in range(1, j_max + 1):
        B = qn.matrix()
        if radius_box:
            lo, hi = -delta, delta
        else:
            lo = np.maximum(lower - x, -delta)
            hi = np.minimum(upper - x, delta)
        p, active = cauchy_point(B, grad, lo, hi)
        step = p
        n_active = np.count_nonzero(active)
        if n_active < p.size:
            if n_active:
                free = ~active
                # a C-ordered copy, as B[np.ix_(free, free)] is: the
                # layout picks the BLAS kernel and so the rounding
                B_red = B.compress(free, 0).compress(free, 1)
            else:
                # most steps: every variable is free, so index nothing
                free, B_red = slice(None), B
            g_red = (grad + B.dot(p))[free]
            gr_norm = math.sqrt(float(g_red.dot(g_red)))
            if gr_norm > 0.0:
                tol = min(0.1, math.sqrt(gr_norm))
                # steihaug_cg widens the box to contain 0 itself
                p_free = p[free]
                lo_free, hi_free = ((lo, hi) if radius_box else
                                    (lo[free], hi[free]))
                v = steihaug_cg(B_red, g_red, lo_free - p_free,
                                hi_free - p_free, tol=tol,
                                abs_tol=0.5 * eta_grad)
                if n_active:
                    step = p.copy()
                    step[free] += v
                else:
                    step = p + v

        step_norm = float(np.abs(step).max())
        if step_norm < 1e-15 * (1.0 + float(np.abs(x).max())):
            # the model admits no feasible descent; give the outer loop a
            # chance to change the subproblem
            return InnerResult(x=x, success=False, iterations=j,
                               payload=payload, delta=delta)

        predicted = -(float(grad.dot(step)) + 0.5 * float(step.dot(B.dot(step))))
        x_trial = x + step
        if bounds:
            np.maximum(x_trial, lower, out=x_trial)
            np.minimum(x_trial, upper, out=x_trial)
        value_trial, grad_trial, payload_trial = model(x_trial)
        if predicted > MERIT_ROUNDING * max(1.0, abs(value)):
            rho = (value - value_trial) / predicted
        elif predicted > 0:
            rho = 1.0       # the actual decrease would be rounding noise
        else:
            rho = -np.inf
        accepted = rho > RHO_ACCEPT

        delta = trust_region_update(rho if math.isfinite(rho) else -1.0,
                                    step_norm, delta)
        applied = qn.update(x_trial - x, grad_trial - grad)

        if accepted:
            x, value, grad, payload = x_trial, value_trial, grad_trial, payload_trial
            pg = projected_gradient_norm(x, grad, *bounds)

        if on_iteration is not None:
            on_iteration(j, x, value, grad, pg, delta, rho, accepted,
                         not applied, payload)
        if pg <= eta_grad:
            return InnerResult(x=x, success=True, iterations=j,
                               payload=payload, delta=delta)

    return InnerResult(x=x, success=False, iterations=j_max, payload=payload,
                       delta=delta)


def solve(problem: NlpProblem, x0: Optional[np.ndarray] = None,
          config: Optional[AugLagConfig] = None,
          scale: Optional[SolveScale] = None) -> NlpSolution:
    """Minimize an NLP; inequalities are slack-converted internally.

    The returned ``x`` is in the original variable space; multipliers cover
    all equalities of the converted problem (original ones first, then one
    per converted inequality).

    When the converted problem has no equality rows, ``scale`` (another
    solve's ``NlpSolution.scale``) sets the first trust radius and, if it
    has a curvature, the start matrix curvature·I; without a curvature the
    matrix is rescaled at the first pair. Such a solve reports the scale it
    ended with, or the one it was given when it took no iteration. With
    equality rows ``scale`` is ignored and none is reported.
    """
    cfg = config if config is not None else AugLagConfig()
    cfg.validate()
    if scale is not None and not (
            0.0 < scale.radius < math.inf
            and (scale.curvature is None
                 or 0.0 < scale.curvature < math.inf)):
        raise ValueError(f"scale must be positive and finite, got {scale}")

    converted = problem.n_ineq > 0
    prob = add_slacks(problem) if converted else problem
    if x0 is None:
        if problem.x0 is None:
            raise ValueError("no starting point: pass x0 or set problem.x0")
        x0 = problem.x0
    z = np.asarray(x0, dtype=float).copy()
    if converted and z.shape == (problem.dim,):
        g0, _ = problem.eval_ineq(z)
        z = np.concatenate([z, np.maximum(g0, 0.0)])
    if z.shape != (prob.dim,):
        raise ValueError(f"x0 has shape {z.shape}, expected ({prob.dim},)")
    if np.count_nonzero(np.isfinite(z)) != z.size:
        raise ValueError("x0 must be finite")
    x = project_box(z, prob.lower, prob.upper)

    lam = np.zeros(prob.n_eq)
    lam_norm = 0.0

    mu = MU0
    # without equality rows the merit is f and mu changes nothing, so the
    # inner solve gets the final tolerance at once and no schedule runs
    schedule = prob.n_eq > 0
    if schedule:
        eta_con = mu ** -0.1
        eta_grad = 1.0 / mu
    else:
        eta_con, eta_grad = cfg.eta_con_star, cfg.eta_grad_star

    # the raw data at the current outer iterate x: each inner solve starts
    # from it, so no point is evaluated twice
    ev = evaluate_raw(prob, x)
    gamma = max(1.0, float(np.abs(ev.g).max()))
    delta0, rescale_first = DELTA0, False
    if not schedule:
        if scale is not None:
            delta0 = scale.radius
        if scale is None or scale.curvature is None:
            rescale_first = True
        else:
            gamma = scale.curvature
    qn = DenseQuasiNewton(prob.dim, cfg.qn_kind, gamma, rescale_first)

    trace = SolveTrace()
    status = SolveStatus.MAX_ITERATIONS
    n_inner_total = 0
    outer_done = 0

    def model(xi):
        # lam and mu change only between inner solves
        return aug_lag_merit(evaluate_raw(prob, xi), lam, mu)

    for k in range(cfg.max_outer):
        outer_done = k + 1

        def on_iter(j, xi, L, gi, pg, delta, rho, accepted, qn_skipped,
                    payload, _k=k):
            trace.append(TraceRecord(
                outer=_k, inner=j, f=payload.f, lagrangian=L, pg_norm=pg,
                c_norm=payload.c_norm, lam_norm=lam_norm, mu=mu, delta=delta,
                rho=None if not math.isfinite(rho) else float(rho),
                accepted=accepted, qn_skipped=qn_skipped,
                eta_con=eta_con, eta_grad=eta_grad))

        failed = False
        while True:
            res = inner_solve(model, x,
                              prob.lower, prob.upper, eta_grad, cfg.j_max, qn,
                              delta0=delta0, on_iteration=on_iter,
                              start_eval=aug_lag_merit(ev, lam, mu))
            n_inner_total += res.iterations
            if res.success:
                x = res.x
                ev = res.payload
                break
            if not schedule:
                # lowering mu cannot change the model: the next outer
                # iteration goes on from where this one stopped, and one
                # that took no step ends the solve
                failed = np.array_equal(res.x, x)
                if failed:
                    status = SolveStatus.INNER_FAILURE
                x, ev = res.x, res.payload
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
        if not schedule:
            # no rows: c is empty and the inner solve's projected gradient
            # is the KKT one, so its success is convergence, and a failure
            # that took steps leaves the KKT test unmet
            if res.success:
                status = SolveStatus.CONVERGED
                break
            continue

        c_norm = ev.c_norm
        if c_norm <= eta_con:
            grad_free = ev.g - ev.J.T @ lam
            kkt_grad = projected_gradient_norm(x, grad_free, prob.lower, prob.upper)
            if c_norm <= cfg.eta_con_star and kkt_grad <= cfg.eta_grad_star:
                status = SolveStatus.CONVERGED
                break
            lam = lam - mu * ev.c
            lam_norm = float(np.abs(lam).max())
            eta_con = eta_con / mu ** 0.9
            eta_grad = eta_grad / mu
        else:
            mu = THETA_H * mu
            eta_con = mu ** -0.1
            eta_grad = 1.0 / mu

    if not trace.records:
        # the start point met the tolerances (or no step was ever taken):
        # one zero-iteration record carries the final KKT stamp
        L, grad, _ = aug_lag_merit(ev, lam, mu)
        trace.append(TraceRecord(
            outer=outer_done - 1, inner=0, f=ev.f, lagrangian=L,
            pg_norm=projected_gradient_norm(x, grad, prob.lower, prob.upper),
            c_norm=ev.c_norm, lam_norm=lam_norm, mu=mu, delta=delta0,
            rho=None, accepted=True, qn_skipped=False, eta_con=eta_con,
            eta_grad=eta_grad))

    # independent of the loop's own bookkeeping
    kkt_grad_final, kkt_con_final = kkt_residual(prob, x, lam)
    trace.stamp_final(status.value, kkt_grad_final, kkt_con_final)

    f_final = ev.f
    if converted:
        n0 = problem.dim
        return NlpSolution(x=x[:n0], lam=lam, f=f_final, status=status,
                           trace=trace, kkt_grad=kkt_grad_final,
                           kkt_con=kkt_con_final, slack=x[n0:],
                           n_inner=n_inner_total, n_outer=outer_done)
    end_scale = None
    if not schedule:
        end_scale = (scale if n_inner_total == 0 else
                     SolveScale(res.delta, qn.pair_scale))
    return NlpSolution(x=x, lam=lam, f=f_final, status=status, trace=trace,
                       kkt_grad=kkt_grad_final, kkt_con=kkt_con_final,
                       n_inner=n_inner_total, n_outer=outer_done,
                       scale=end_scale)
