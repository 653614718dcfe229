"""Contrast functions for projection pursuit and their NLP wrappers.

A contrast maps a direction w and whitened data to a scalar "interestingness"
and its gradient. The built-in contrast is the squared distance of the
projected log-cosh moment from its Gaussian value, a robust non-Gaussianity
score. ``ProblemFactory`` turns a contrast plus an optional hook and user
constraints into minimization problems for the solver: the per-component
problem in deflated coordinates and the joint problem over rotations of all
directions at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Optional, Protocol, Tuple

import numpy as np

from .nlp import NlpProblem


def g_logcosh(x):
    """Overflow-safe log cosh and its derivative tanh.

    ``log cosh x = |x| + log((1 + exp(-2|x|)) / 2)`` stays finite over the
    whole double range. Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    value = a + np.log1p(np.exp(-2.0 * np.minimum(a, 400.0))) - np.log(2.0)
    deriv = np.tanh(x)
    if value.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


@lru_cache(maxsize=None)
def gauss_expectation(nodes: int = 80) -> float:
    """E[log cosh v] for standard normal v, by Gauss-Hermite quadrature."""
    if nodes < 60:
        raise ValueError("use at least 60 quadrature nodes")
    t, w = np.polynomial.hermite.hermgauss(nodes)
    vals, _ = g_logcosh(np.sqrt(2.0) * t)
    return float((w @ vals) / np.sqrt(np.pi))


def negentropy(w: np.ndarray, x_tilde: np.ndarray) -> Tuple[float, np.ndarray]:
    """Squared excess of the projected log-cosh moment over the Gaussian one.

    Returns the score and its gradient with respect to ``w``. The projection
    is ``w' x_tilde``; the expectation is the plain sample mean.
    """
    w = np.asarray(w, dtype=float)
    X = np.asarray(x_tilde, dtype=float)
    n = X.shape[1]
    if n < 2:
        raise ValueError("need at least 2 samples")
    z = w @ X
    vals, derivs = g_logcosh(z)
    m = float(vals.mean())
    c = gauss_expectation()
    diff = m - c
    grad = (2.0 * diff / n) * (X @ derivs)
    return diff * diff, grad


# Element budget of one projected block in LogCoshNegentropy.scores: 64k
# doubles (512 KiB) keep the block in cache. Whole (directions x samples)
# temporaries miss cache and lose to a per-direction loop, and so do small
# fixed row counts at large n.
SCORE_BLOCK_ELEMENTS = 1 << 16


class ContrastFn(Protocol):
    def evaluate(self, w: np.ndarray, x_tilde: np.ndarray
                 ) -> Tuple[float, np.ndarray]: ...

    def scores(self, D: np.ndarray, x_tilde: np.ndarray) -> np.ndarray:
        """Values only, one per row of ``D``: ``evaluate(d, x_tilde)[0]``.

        The default loops over ``evaluate``; a contrast overrides it when
        it can score many directions faster without their gradients.
        """
        return np.array([self.evaluate(d, x_tilde)[0] for d in D])


class LogCoshNegentropy(ContrastFn):
    """Default contrast; stateless apart from the cached Gaussian moment."""

    def evaluate(self, w, x_tilde):
        return negentropy(w, x_tilde)

    def scores(self, D, x_tilde):
        """``negentropy`` values for the rows of ``D``, without gradients.

        Projects a block of rows at a time, sized by
        ``SCORE_BLOCK_ELEMENTS``, and evaluates log cosh in place in one
        reused buffer; no tanh is computed.
        """
        D = np.asarray(D, dtype=float)
        X = np.asarray(x_tilde, dtype=float)
        n = X.shape[1]
        if n < 2:
            raise ValueError("need at least 2 samples")
        m = D.shape[0]
        k = max(1, min(m, SCORE_BLOCK_ELEMENTS // n))
        z = np.empty((k, n))
        log2, c = np.log(2.0), gauss_expectation()
        out = np.empty(m)
        for i in range(0, m, k):
            rows = D[i:i + k]
            zb = z[:rows.shape[0]]
            np.matmul(rows, X, out=zb)
            np.abs(zb, out=zb)
            total = zb.sum(axis=1)
            # g_logcosh caps |z| at 400 before exp; exp(-2|z|) is already 0
            # from |z| = 373 on, so the uncapped values are the same
            zb *= -2.0
            np.exp(zb, out=zb)
            np.log1p(zb, out=zb)
            total += zb.sum(axis=1)
            out[i:i + rows.shape[0]] = (total / n - log2) - c
        return out * out


# hook signature: (w, x_tilde) -> (value, gradient wrt w)
HookFn = Callable[[np.ndarray, np.ndarray], Tuple[float, np.ndarray]]
# user constraint block: (w, x_tilde) -> (values, jacobian wrt w)
UserConstraintFn = Callable[[np.ndarray, np.ndarray],
                            Tuple[np.ndarray, np.ndarray]]


@dataclass
class ConstraintSet:
    """User equality and inequality blocks on a single direction."""

    eq: List[Tuple[UserConstraintFn, int]] = field(default_factory=list)
    ineq: List[Tuple[UserConstraintFn, int]] = field(default_factory=list)

    @property
    def n_eq(self) -> int:
        return sum(m for _, m in self.eq)

    @property
    def n_ineq(self) -> int:
        return sum(m for _, m in self.ineq)

    def violation(self, w: np.ndarray, X: np.ndarray) -> float:
        """Largest equality residual or inequality shortfall at ``w``."""
        worst = 0.0
        if self.eq:
            c, _ = _stack_user_block(self.eq, w, X, None)
            worst = max(worst, float(np.max(np.abs(c))))
        if self.ineq:
            g, _ = _stack_user_block(self.ineq, w, X, None)
            worst = max(worst, float(np.max(-g)))
        return worst


def _stack_user_block(blocks, w, X, chain: Optional[np.ndarray]):
    """Evaluate user constraint blocks at w, mapping Jacobians through chain."""
    vals, jacs = [], []
    for fn, m in blocks:
        v, J = fn(w, X)
        v = np.atleast_1d(np.asarray(v, dtype=float))
        J = np.asarray(J, dtype=float).reshape(-1, w.size)
        if v.shape != (m,) or J.shape != (m, w.size):
            raise ValueError(
                f"user constraint returned shapes {v.shape}, {J.shape}; "
                f"declared ({m},), ({m}, {w.size})")
        vals.append(v)
        jacs.append(J if chain is None else J @ chain)
    return np.concatenate(vals), np.vstack(jacs)


@dataclass
class ProblemFactory:
    """Builds solver problems from a contrast, a hook and user constraints.

    This is how a custom contrast, hook or constraint set reaches the
    pipeline: ``decompose(data, factory=ProblemFactory(my_contrast))``.
    The solver minimizes, so objectives are the negated contrast (plus hook).
    """

    contrast: ContrastFn
    b_hook: Optional[HookFn] = None
    constraints: ConstraintSet = field(default_factory=ConstraintSet)

    def score(self, w, X):
        """Contrast plus hook at direction ``w``: value and gradient."""
        value, grad = self.contrast.evaluate(w, X)
        if self.b_hook is not None:
            bv, bg = self.b_hook(w, X)
            value = value + float(bv)
            grad = grad + np.asarray(bg, dtype=float)
        return value, grad

    def component_problem(self, w_basis: np.ndarray,
                          x_tilde: np.ndarray) -> NlpProblem:
        """Problem over reduced coordinates z with direction w = w_basis @ z.

        One built-in equality keeps z on the unit sphere; user constraints are
        chained through the basis. Orthogonality to earlier directions is
        structural (the basis spans their complement).
        """
        W = np.asarray(w_basis, dtype=float)
        X = np.asarray(x_tilde, dtype=float)
        r = W.shape[1]

        def objective(z):
            w = W @ z
            value, grad_w = self.score(w, X)
            return -value, -(W.T @ grad_w)

        cs = self.constraints

        def eq(z):
            w = W @ z
            c = np.array([float(z @ z) - 1.0])
            J = (2.0 * z)[None, :]
            if cs.eq:
                uc, uJ = _stack_user_block(cs.eq, w, X, W)
                c = np.concatenate([c, uc])
                J = np.vstack([J, uJ])
            return c, J

        ineq = None
        n_ineq = cs.n_ineq
        if n_ineq:
            def ineq(z):
                return _stack_user_block(cs.ineq, W @ z, X, W)

        return NlpProblem(dim=r, objective=objective, eq_constraints=eq,
                          n_eq=1 + cs.n_eq, ineq_constraints=ineq,
                          n_ineq=n_ineq, name="pursuit-component")

    def joint_problem(self, x_tilde: np.ndarray,
                      Q_start: np.ndarray) -> NlpProblem:
        """Problem over the rotations of all directions at once.

        The variables are the strictly upper triangle of a skew matrix K and
        the directions are the rows of ``cayley_rotation(x, Q_start)[0]``, so
        orthonormality is structural and the only constraints are the user
        blocks, applied to each direction and pulled back through the map.
        The objective sums the per-direction score.
        """
        X = np.asarray(x_tilde, dtype=float)
        Q_start = np.asarray(Q_start, dtype=float)
        q = Q_start.shape[0]
        cs = self.constraints

        def objective(x):
            Q, pull = cayley_rotation(x, Q_start)
            total = 0.0
            G = np.empty_like(Q)
            for k in range(q):
                value, G[k] = self.score(Q[k], X)
                total += value
            return -total, -pull(G)

        def per_direction(blocks):
            def fn(x):
                Q, pull = cayley_rotation(x, Q_start)
                vals, jacs = [], []
                for k in range(q):
                    v, J = _stack_user_block(blocks, Q[k], X, None)
                    G = np.zeros((v.size, q, q))
                    G[:, k] = J
                    vals.append(v)
                    jacs.append(pull(G))
                return np.concatenate(vals), np.vstack(jacs)
            return fn

        return NlpProblem(dim=q * (q - 1) // 2, objective=objective,
                          eq_constraints=per_direction(cs.eq) if cs.eq else None,
                          n_eq=cs.n_eq * q,
                          ineq_constraints=(per_direction(cs.ineq)
                                            if cs.ineq else None),
                          n_ineq=cs.n_ineq * q, name="pursuit-joint")


def cayley_rotation(x: np.ndarray, Q_start: np.ndarray
                    ) -> Tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Rotate the rows of ``Q_start`` by the Cayley transform of a skew K.

    ``x`` holds the strictly upper triangle of K (row-major) and
    ``C(K) = (I - K/2)^{-1} (I + K/2)``; the rotated directions are
    ``C(K) @ Q_start``. C(K) is orthogonal for every K and reaches every
    rotation without an eigenvalue -1, so the image is every orthonormal
    matrix whose rotation relative to ``Q_start`` has no eigenvalue -1.

    Returns the rotated matrix and the pullback that maps gradients with
    respect to it, of shape ``(..., q, q)``, to gradients with respect to
    ``x``: the strictly upper triangle of ``M - M'`` with
    ``M = (I - K/2)^{-T} G Q_start' (C + I)' / 2``.
    """
    q = Q_start.shape[0]
    iu = np.triu_indices(q, 1)
    K = np.zeros((q, q))
    K[iu] = x
    K -= K.T
    eye = np.eye(q)
    inv = np.linalg.inv(eye - 0.5 * K)
    C = inv @ (eye + 0.5 * K)
    right = Q_start.T @ (C + eye).T

    def pull(G):
        M = 0.5 * (inv.T @ G @ right)
        return (M - np.swapaxes(M, -1, -2))[..., iu[0], iu[1]]

    return C @ Q_start, pull

