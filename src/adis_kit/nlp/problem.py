"""Problem container for smooth nonlinear programs.

A problem is ``min f(x)`` subject to equality constraints ``c(x) = 0``,
inequality constraints ``g(x) >= 0`` and box bounds ``l <= x <= u``.
Callbacks return values together with first derivatives; no Hessians are
required anywhere in the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

ObjectiveFn = Callable[[np.ndarray], Tuple[float, np.ndarray]]
ConstraintFn = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


class DimensionError(ValueError):
    """A callback returned arrays whose shape disagrees with the declaration."""


@dataclass
class NlpProblem:
    """Smooth NLP with callback-supplied values and gradients.

    ``objective(x) -> (f, grad)`` with ``grad`` of shape ``(dim,)``.
    ``eq_constraints(x) -> (c, J)`` with ``c`` of shape ``(n_eq,)`` and ``J``
    of shape ``(n_eq, dim)``; same layout for ``ineq_constraints``.
    Bounds may contain ``-inf``/``+inf``; equal lower and upper bounds pin a
    variable.
    """

    dim: int
    objective: ObjectiveFn
    eq_constraints: Optional[ConstraintFn] = None
    n_eq: int = 0
    ineq_constraints: Optional[ConstraintFn] = None
    n_ineq: int = 0
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    x0: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        self.lower = _as_bound(self.lower, self.dim, -np.inf)
        self.upper = _as_bound(self.upper, self.dim, np.inf)
        if np.count_nonzero(self.lower > self.upper):
            bad = int(np.argmax(self.lower > self.upper))
            raise ValueError(f"lower > upper at index {bad}")
        if (self.eq_constraints is None) != (self.n_eq == 0):
            raise ValueError("n_eq must match presence of eq_constraints")
        if (self.ineq_constraints is None) != (self.n_ineq == 0):
            raise ValueError("n_ineq must match presence of ineq_constraints")
        if self.x0 is not None:
            self.x0 = np.asarray(self.x0, dtype=float)
            if self.x0.shape != (self.dim,):
                raise DimensionError(
                    f"x0 has shape {self.x0.shape}, expected ({self.dim},)")

    def eval_objective(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        f, g = self.objective(x)
        g = np.asarray(g, dtype=float)
        if g.shape != (self.dim,):
            raise DimensionError(
                f"objective gradient has shape {g.shape}, expected ({self.dim},)")
        return float(f), g

    def eval_eq(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self._eval_block(self.eq_constraints, x, self.n_eq, "equality")

    def eval_ineq(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self._eval_block(self.ineq_constraints, x, self.n_ineq,
                                "inequality")

    def _eval_block(self, block, x: np.ndarray, rows: int, label: str
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Values and Jacobian of a constraint block at ``x``, checked
        against its declared ``rows``; empty when there is no block."""
        if block is None:
            return np.zeros(0), np.zeros((0, self.dim))
        v, J = block(x)
        v = np.atleast_1d(np.asarray(v, dtype=float))
        J = np.asarray(J, dtype=float).reshape(-1, self.dim)
        if v.shape != (rows,) or J.shape != (rows, self.dim):
            raise DimensionError(
                f"{label} block returned shapes {v.shape}, {J.shape}; "
                f"declared ({rows},), ({rows}, {self.dim})")
        return v, J


def _as_bound(b, n: int, fill: float) -> np.ndarray:
    if b is None:
        return np.full(n, fill)
    b = np.asarray(b, dtype=float)
    if b.ndim == 0:
        return np.full(n, float(b))
    if b.shape != (n,):
        raise DimensionError(f"bound has shape {b.shape}, expected ({n},)")
    return b.copy()


def project_box(z: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Componentwise clamp of ``z`` into ``[lower, upper]``."""
    z = np.asarray(z, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if z.shape != lower.shape or z.shape != upper.shape:
        raise DimensionError(
            f"shape mismatch: z {z.shape}, lower {lower.shape}, upper {upper.shape}")
    if np.count_nonzero(lower > upper):
        raise ValueError("lower > upper")
    return np.minimum(np.maximum(z, lower), upper)


def projected_gradient_norm(x: np.ndarray, g: np.ndarray,
                            lower: Optional[np.ndarray] = None,
                            upper: Optional[np.ndarray] = None) -> float:
    """Inf-norm of ``x - P(x - g)``, P the clamp onto ``[lower, upper]``;
    all arrays share one shape. Without bounds P is the identity, which is
    what clamping onto infinite bounds computes, bit for bit."""
    z = x - g
    if lower is not None:
        np.maximum(z, lower, out=z)
        np.minimum(z, upper, out=z)
    np.subtract(x, z, out=z)
    return float(np.abs(z, out=z).max()) if z.size else 0.0


def add_slacks(problem: NlpProblem) -> NlpProblem:
    """Convert ``g(x) >= 0`` into equalities ``g(x) - s = 0`` with ``s >= 0``.

    The returned problem has dimension ``dim + n_ineq`` and only equality
    constraints; the original variables are ``z[:dim]``. It carries no start:
    ``solve`` appends the slacks ``max(g(x0), 0)`` to the original one.
    """
    if problem.n_ineq == 0:
        return problem
    n, L, m = problem.dim, problem.n_ineq, problem.n_eq
    base = problem

    def objective(z):
        f, g = base.eval_objective(z[:n])
        return f, np.concatenate([g, np.zeros(L)])

    def eq(z):
        x, s = z[:n], z[n:]
        gv, Jg = base.eval_ineq(x)
        c = np.empty(m + L)
        J = np.zeros((m + L, n + L))
        if m:
            cv, Jc = base.eval_eq(x)
            c[:m] = cv
            J[:m, :n] = Jc
        c[m:] = gv - s
        J[m:, :n] = Jg
        J[m:, n:] = -np.eye(L)
        return c, J

    lower = np.concatenate([base.lower, np.zeros(L)])
    upper = np.concatenate([base.upper, np.full(L, np.inf)])
    return NlpProblem(
        dim=n + L,
        objective=objective,
        eq_constraints=eq,
        n_eq=m + L,
        lower=lower,
        upper=upper,
    )


def lagrangian_gradient(problem: NlpProblem, x: np.ndarray,
                        lam: np.ndarray) -> np.ndarray:
    """Gradient of f - lam'c at ``x`` (the penalty-free Lagrangian)."""
    _, g = problem.eval_objective(x)
    if problem.n_eq:
        _, J = problem.eval_eq(x)
        g = g - J.T @ lam
    return g


def kkt_residual(problem: NlpProblem, x: np.ndarray,
                 lam: np.ndarray) -> Tuple[float, float]:
    """First-order optimality residuals at ``(x, lam)``.

    Returns ``(grad_residual, feas_residual)`` where the gradient residual is
    the sup-norm of ``x - P(x - grad L(x, lam), l, u)`` with the penalty-free
    Lagrangian gradient, and the feasibility residual is ``||c(x)||_inf``.
    """
    if problem.n_ineq:
        raise ValueError("convert inequalities with add_slacks first")
    x = np.asarray(x, dtype=float)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if x.shape != (problem.dim,):
        raise DimensionError(f"x has shape {x.shape}, expected ({problem.dim},)")
    if lam.shape != (problem.n_eq,):
        raise DimensionError(
            f"lam has shape {lam.shape}, expected ({problem.n_eq},)")
    g = lagrangian_gradient(problem, x, lam)
    grad_res = projected_gradient_norm(x, g, problem.lower, problem.upper)
    if problem.n_eq:
        c, _ = problem.eval_eq(x)
        feas_res = float(np.abs(c).max())
    else:
        feas_res = 0.0
    return grad_res, feas_res


def check_gradients(problem: NlpProblem, x: np.ndarray,
                    rel_tol: float = 1e-5) -> float:
    """Audit analytic derivatives against central finite differences.

    Step per coordinate is ``1e-6 * (1 + |x_i|)``. Returns the worst relative
    error over the objective gradient and all constraint Jacobians and raises
    if it exceeds ``rel_tol``.
    """
    x = np.asarray(x, dtype=float)
    n = problem.dim
    h = 1e-6 * (1.0 + np.abs(x))

    blocks = [("objective", lambda y: np.array([problem.eval_objective(y)[0]]),
               lambda y: problem.eval_objective(y)[1][None, :])]
    if problem.n_eq:
        blocks.append(("equalities", lambda y: problem.eval_eq(y)[0],
                       lambda y: problem.eval_eq(y)[1]))
    if problem.n_ineq:
        blocks.append(("inequalities", lambda y: problem.eval_ineq(y)[0],
                       lambda y: problem.eval_ineq(y)[1]))

    worst = 0.0
    for label, value, jac in blocks:
        J = jac(x)
        J_fd = np.zeros_like(J)
        for i in range(n):
            xp = x.copy(); xp[i] += h[i]
            xm = x.copy(); xm[i] -= h[i]
            J_fd[:, i] = (value(xp) - value(xm)) / (2 * h[i])
        err = np.max(np.abs(J_fd - J) / (1.0 + np.abs(J)))
        worst = max(worst, float(err))
        if err > rel_tol:
            raise AssertionError(
                f"{label} derivative check failed: rel err {err:.3e} > {rel_tol:.1e}")
    return worst
