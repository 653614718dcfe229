"""Contrast functions for projection pursuit and their NLP wrappers.

A contrast maps a direction w and whitened data to a scalar "interestingness"
and its gradient. The built-in contrast is the squared distance of the
projected log-cosh moment from its Gaussian value, a robust non-Gaussianity
score. ``ProblemFactory`` turns a contrast and user constraints into
minimization problems for the solver; any other objective is a contrast of
its own, so Stages 0, 1 and 2 all see one function. Both pursuit stages
move directions by a Cayley rotation of orthonormal rows (one row in Stage
1, in closed form, and all rows in Stage 2), so the solver's constraints are
the user's alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Optional, Protocol, Tuple

import numpy as np

from .nlp import NlpProblem
from .whiten import _contract_columns, _matmul_columns


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


def gauss_expectation(nodes: int = 80) -> float:
    """E[log cosh v] for standard normal v, by Gauss-Hermite quadrature."""
    if nodes < 60:
        raise ValueError("use at least 60 quadrature nodes")
    t, w = np.polynomial.hermite.hermgauss(nodes)
    vals, _ = g_logcosh(np.sqrt(2.0) * t)
    return float((w @ vals) / np.sqrt(np.pi))


# E[log cosh v] for standard normal v: the 40-digit integral, rounded once.
# ``gauss_expectation(80)`` is 5.8e-13 above it (the quadrature's own error);
# reading a constant also keeps the first contrast call of a process from
# running ``hermgauss``, a LAPACK eigensolver that wakes OpenBLAS's pool.
GAUSS_LOGCOSH = 0.37456720749143796

# _mean_logcosh takes one logarithm per product of this many cosh values
_LOGCOSH_BLOCK = 16


def _mean_logcosh(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Mean of log cosh over the last axis of ``z``: one value per row.

    ``scratch`` has the shape of ``z`` and is overwritten with ``cosh z``;
    ``z`` is left intact (a ``scratch`` that is ``z`` itself is replaced by
    a new buffer). The sum over a row is taken as one ``log`` per product of
    ``_LOGCOSH_BLOCK`` values ``cosh z``, and one ``log`` per sample for the
    fewer than 16 samples after the last full block. A block gathers the
    samples ``j, j + b, ..., j + 15 b`` of a row with b blocks, so the
    product is a reduction over a ``(..., 16, b)`` view, not a copy. Each
    factor is at least 1, so a product never underflows; its relative error
    is at most about 31u, u being the unit roundoff (16 rounded cosh values
    and 15 products; Higham 2002, *Accuracy and Stability of Numerical
    Algorithms*, sec. 3.1).

    A product overflows only when a single |z| exceeds about 710, or |z|
    averages above about 44 over its block. Such a row sums to +inf, and is
    summed again from ``z`` as ``|z| - log 2 + log1p(exp(-2|z|))``, the
    form of ``g_logcosh`` that stays finite over the whole double range;
    no overflow warning escapes. An infinite ``z`` gives +inf either way,
    and NaN propagates.
    """
    if scratch is z:
        scratch = np.empty_like(z)
    n = z.shape[-1]
    blocks = n // _LOGCOSH_BLOCK
    full = blocks * _LOGCOSH_BLOCK
    with np.errstate(over="ignore"):
        c = np.cosh(z, out=scratch)
        logs = np.multiply.reduce(
            c[..., :full].reshape(c.shape[:-1] + (_LOGCOSH_BLOCK, blocks)),
            axis=-2)
    np.log(logs, out=logs)
    total = logs.sum(axis=-1)
    if full < n:
        rest = c[..., full:]
        np.log(rest, out=rest)
        total += rest.sum(axis=-1)
    over = np.isinf(total)
    if over.any():
        total = np.where(over, g_logcosh(z)[0].sum(axis=-1), total)
    return total / n


def negentropy(w: np.ndarray, x_tilde: np.ndarray) -> Tuple[float, np.ndarray]:
    """Squared excess of the projected log-cosh moment over the Gaussian one.

    Returns the score and its gradient with respect to ``w``. The projection
    is ``w' x_tilde``; the expectation is the plain sample mean, taken by
    ``_mean_logcosh``. A 2-D ``w`` scores each of its rows in one pass: an
    array of scores and one gradient row per row of ``w``. Two arrays of the
    projection's size are held: the projection, turned into tanh in place
    once the mean is taken, and one scratch buffer.
    """
    w = np.asarray(w, dtype=float)
    X = np.asarray(x_tilde, dtype=float)
    n = X.shape[1]
    if n < 2:
        raise ValueError("need at least 2 samples")
    z = w @ X
    diff = _mean_logcosh(z, np.empty_like(z)) - GAUSS_LOGCOSH
    np.tanh(z, out=z)
    if w.ndim == 2:
        grad = (2.0 * diff / n)[:, None] * (z @ X.T)
        return diff * diff, grad
    diff = float(diff)
    grad = (2.0 * diff / n) * (X @ z)
    return diff * diff, grad


# Element budget of one projected block in LogCoshNegentropy.scores and
# evaluate_rows: 64k doubles (512 KiB) keep the block, and the cosh buffer of
# the same size, in cache. Whole (directions x samples) temporaries miss
# cache and lose to a per-direction loop, and so do small fixed row counts at
# large n (one row per block at n = 20,000 took 7.2 ms per 100 directions,
# three rows 5.3 ms). Re-measured with the second buffer: scores on 100
# directions of q = 5 took 6.4 / 4.4 / 4.6 ms at 2^15 / 2^16 / 2^17 for
# n = 20,000, and 0.50 / 0.47 / 0.47 ms for n = 2,000. scores allocates both
# buffers as one array: as two, glibc trimmed the heap after each call (it
# trims when the free top reaches twice the largest block freed), and every
# call faulted its pages in again, 872 minor faults per bss-synth5 operation
# against 0.1 as one (seed 3, ops 2..21).
SCORE_BLOCK_ELEMENTS = 1 << 16


class ContrastFn(Protocol):
    def evaluate(self, w: np.ndarray, x_tilde: np.ndarray
                 ) -> Tuple[float, np.ndarray]: ...

    def evaluate_rows(self, W: np.ndarray, x_tilde: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Values and gradients, one per row of ``W``: ``evaluate`` on each.

        The default loops over ``evaluate``; a contrast overrides it when
        it can evaluate many directions in fewer calls.
        """
        pairs = [self.evaluate(w, x_tilde) for w in W]
        return (np.array([float(v) for v, _ in pairs]),
                np.array([np.asarray(g, dtype=float) for _, g in pairs]))

    def scores(self, D: np.ndarray, x_tilde: np.ndarray) -> np.ndarray:
        """Values only, one per row of ``D``: ``evaluate(d, x_tilde)[0]``.

        The default loops over ``evaluate``; a contrast overrides it when
        it can score many directions faster without their gradients.
        """
        return np.array([self.evaluate(d, x_tilde)[0] for d in D])

    def hessian_rows(self, W: np.ndarray, x_tilde: np.ndarray
                     ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Gradients and Hessians in w, one per row of ``W``, of the
        ``evaluate_rows`` values; None when the contrast offers no
        curvature, as the default does."""
        return None


class LogCoshNegentropy(ContrastFn):
    """Default contrast; stateless."""

    def evaluate(self, w, x_tilde):
        return negentropy(w, x_tilde)

    def evaluate_rows(self, W, x_tilde):
        """``negentropy`` of every row of ``W``: in one call when the
        projected rows fit ``SCORE_BLOCK_ELEMENTS``, else row by row, where
        a block gains nothing over the 1-D path. Like ``scores``, it is
        plain log-cosh at every sample count, whatever ``evaluate`` a
        subclass gives."""
        W = np.asarray(W, dtype=float)
        X = np.asarray(x_tilde, dtype=float)
        if W.shape[0] * X.shape[1] <= SCORE_BLOCK_ELEMENTS:
            return negentropy(W, X)
        pairs = [negentropy(w, X) for w in W]
        return (np.array([v for v, _ in pairs]),
                np.array([g for _, g in pairs]))

    def scores(self, D, x_tilde):
        """``negentropy`` values for the rows of ``D``, without gradients.

        Projects a block of rows at a time, sized by
        ``SCORE_BLOCK_ELEMENTS``, into one buffer reused for every block,
        and takes ``_mean_logcosh`` with a second buffer of the same size
        for its cosh values; no tanh is computed.
        """
        D = np.asarray(D, dtype=float)
        X = np.asarray(x_tilde, dtype=float)
        n = X.shape[1]
        if n < 2:
            raise ValueError("need at least 2 samples")
        m = D.shape[0]
        k = max(1, min(m, SCORE_BLOCK_ELEMENTS // n))
        # both buffers in one allocation (see SCORE_BLOCK_ELEMENTS)
        z, cosh = np.empty((2, k, n))
        out = np.empty(m)
        for i in range(0, m, k):
            rows = D[i:i + k]
            zb = z[:rows.shape[0]]
            np.matmul(rows, X, out=zb)
            out[i:i + rows.shape[0]] = (
                _mean_logcosh(zb, cosh[:rows.shape[0]]) - GAUSS_LOGCOSH)
        return out * out

    def hessian_rows(self, W, x_tilde):
        """Gradient and Hessian in w of ``negentropy`` for each row of
        ``W``: with ``m`` the mean log cosh of the projection and ``nu`` its
        Gaussian value, the score is ``(m - nu)^2``, its gradient
        ``2 (m - nu) grad m`` and its Hessian ``2 grad m grad m' + 2 (m -
        nu) X diag(1 - tanh^2) X' / n``. Returns arrays of shapes ``(r, q)``
        and ``(r, q, q)``, the Hessians exactly symmetric. Every product
        over the sample axis runs in column blocks (``whiten``'s
        ``_matmul_columns`` and ``_contract_columns``), none of which woke
        OpenBLAS's thread pool up to q = 15 at n = 20,000."""
        W = np.asarray(W, dtype=float)
        X = np.asarray(x_tilde, dtype=float)
        n = X.shape[1]
        if n < 2:
            raise ValueError("need at least 2 samples")
        Z = _matmul_columns(W, X)
        diff = _mean_logcosh(Z, np.empty_like(Z)) - GAUSS_LOGCOSH
        t = np.tanh(Z, out=Z)
        grad_m = _contract_columns(t, X) / n
        t *= t
        np.subtract(1.0, t, out=t)
        # the weighted Grams plus their transposes: each twice X diag(1 -
        # tanh^2) X', symmetric to the last bit
        buf = np.empty_like(X)
        grams = np.array([_contract_columns(np.multiply(X, s, out=buf), X)
                          for s in t])
        grams += grams.transpose(0, 2, 1)
        H = (diff / n)[:, None, None] * grams
        H += 2.0 * grad_m[:, :, None] * grad_m[:, None, :]
        return 2.0 * diff[:, None] * grad_m, H


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
            c, _ = _stack_user_block(self.eq, w, X)
            worst = max(worst, float(np.max(np.abs(c))))
        if self.ineq:
            g, _ = _stack_user_block(self.ineq, w, X)
            worst = max(worst, float(np.max(-g)))
        return worst


def _stack_user_block(blocks, w, X):
    """Evaluate user constraint blocks at w: stacked values and Jacobian."""
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
        jacs.append(J)
    return np.concatenate(vals), np.vstack(jacs)


@dataclass
class ProblemFactory:
    """Builds solver problems from a contrast and user constraints.

    This is how a custom contrast or constraint set reaches the pipeline:
    ``decompose(data, factory=ProblemFactory(my_contrast))``. The solver
    minimizes, so objectives are the negated contrast.
    """

    contrast: ContrastFn
    constraints: ConstraintSet = field(default_factory=ConstraintSet)

    def rotation_problem(self, x_tilde: np.ndarray, start: np.ndarray,
                         moved: int) -> NlpProblem:
        """Problem over rotations of the first ``moved`` rows of ``start``.

        ``start`` holds r orthonormal rows; the variables are the entries of
        a skew K in rows ``0 .. moved-1`` of its strict upper triangle, the
        rest of K being zero, and the moved directions are the first
        ``moved`` rows of ``cayley_rotation(x, start)[0]``. Unit norm and
        orthogonality are structural, so the only constraints are the user
        blocks on each moved direction, pulled back through the map. The
        objective sums the negated contrast of each moved direction. With
        ``moved == 1`` the map is ``cayley_row0``, the closed form of that
        row.
        """
        X = np.asarray(x_tilde, dtype=float)
        start = np.asarray(start, dtype=float)
        r = start.shape[0]
        dim = moved * (r - 1) - moved * (moved - 1) // 2
        cs = self.constraints

        if moved == 1:
            def objective(x):
                w, pull = cayley_row0(x, start)
                value, g = self.contrast.evaluate(w, X)
                return -value, -pull(g)

            def per_direction(blocks):
                def fn(x):
                    w, pull = cayley_row0(x, start)
                    v, J = _stack_user_block(blocks, w, X)
                    return v, pull(J)
                return fn
        else:
            def objective(x):
                Q, pull = cayley_rotation(x, start)
                G = np.zeros_like(Q)
                values, G[:moved] = self.contrast.evaluate_rows(Q[:moved], X)
                return -values.sum(), -pull(G)

            def per_direction(blocks):
                def fn(x):
                    Q, pull = cayley_rotation(x, start)
                    vals, jacs = [], []
                    for k in range(moved):
                        v, J = _stack_user_block(blocks, Q[k], X)
                        G = np.zeros((v.size,) + Q.shape)
                        G[:, k] = J
                        vals.append(v)
                        jacs.append(pull(G))
                    return np.concatenate(vals), np.vstack(jacs)
                return fn

        return NlpProblem(dim=dim, objective=objective,
                          eq_constraints=per_direction(cs.eq) if cs.eq else None,
                          n_eq=cs.n_eq * moved,
                          ineq_constraints=(per_direction(cs.ineq)
                                            if cs.ineq else None),
                          n_ineq=cs.n_ineq * moved)

    def rotation_hessian(self, x_tilde: np.ndarray, start: np.ndarray,
                         moved: int) -> Optional[np.ndarray]:
        """Exact Hessian of ``rotation_problem(x_tilde, start, moved)``'s
        objective at x = 0, or None when the contrast offers no curvature
        (``ContrastFn.hessian_rows``).

        Variable i is the entry (a, b), a < b, of the skew K; its generator
        is ``E_i = e_a e_b' - e_b e_a'``. The Cayley map is ``C(K) = I + K +
        K^2/2 + O(K^3)``, so the summed score of the moved rows has the
        Hessian ``T1 + T2``. ``T1_ij = sum_k (E_i Q)_k' H_k (E_j Q)_k``
        pulls back each moved row's Hessian H_k (Q is ``start``), and
        ``T2_ij = tr(E_i E_j S)``, with S the symmetric part of ``Q G'``
        and G the moved rows' gradients, is the gradient times the
        ``K^2/2`` term. As E_i has two entries, both reduce to entries of
        ``N_k = Q H_k Q' - S`` (H_k = 0 for the rows not moved): with j =
        (c, d), ``[a=c] N_a[b, d] - [a=d] N_a[b, c] - [b=c] N_b[a, d] +
        [b=d] N_b[a, c]``. The objective is the negated score.
        """
        X = np.asarray(x_tilde, dtype=float)
        start = np.asarray(start, dtype=float)
        curvature = self.contrast.hessian_rows(start[:moved], X)
        if curvature is None:
            return None
        grads, hessians = curvature
        r = start.shape[0]
        dim = moved * (r - 1) - moved * (moved - 1) // 2
        P = np.zeros((r, r))
        P[:, :moved] = start @ grads.T
        N = np.zeros((r, r, r))
        N[:moved] = start @ hessians @ start.T
        N -= 0.5 * (P + P.T)
        rows, cols = _triu_pairs(r)
        a, b = rows[:dim, None], cols[:dim, None]
        c, d = rows[None, :dim], cols[None, :dim]
        T = ((a == c) * N[a, b, d] - (a == d) * N[a, b, c]
             - (b == c) * N[b, a, d] + (b == d) * N[b, a, c])
        return -0.5 * (T + T.T)


def cayley_row0(x: np.ndarray, start: np.ndarray
                ) -> Tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Row 0 of ``cayley_rotation(x, start)[0]`` when ``x`` fills row 0 of
    K (``x.size == r - 1``), in closed form.

    K is then skew of rank two, and with ``s = |x|^2 / 4``, ``b0 = start[0]``
    and ``B1 = start[1:]`` the row is ``w = ((1 - s) b0 + x B1) / (1 + s)``
    (Wen & Yin 2013, Math. Program. 142): no r x r inverse or product.
    Returns ``w`` and the pullback that maps gradients with respect to ``w``,
    of shape ``(..., q)``, to gradients with respect to ``x``:
    ``(g B1' - (g . (b0 + w)) x / 2) / (1 + s)``.
    """
    b0, B1 = start[0], start[1:]
    s = 0.25 * float(x.dot(x))
    w = ((1.0 - s) * b0 + x.dot(B1)) / (1.0 + s)

    def pull(G):
        return (G.dot(B1.T) - np.multiply.outer(0.5 * G.dot(b0 + w), x)
                ) / (1.0 + s)

    return w, pull


@lru_cache(maxsize=None)
def _triu_pairs(r: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row-major index pairs of the strict upper triangle of an r x r
    matrix, built once per r and read-only."""
    rows, cols = np.triu_indices(r, 1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def cayley_rotation(x: np.ndarray, start: np.ndarray
                    ) -> Tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Rotate the r orthonormal rows of the r x q ``start`` by the Cayley
    transform ``C(K) = (I - K/2)^{-1} (I + K/2)`` of an r x r skew K.

    ``x`` holds the leading entries of the strictly upper triangle of K in
    row-major order, the rest being zero. C(K) is orthogonal and reaches
    every rotation without an eigenvalue -1; with row 0 of K alone, row 0 of
    ``C(K) @ start`` reaches every unit vector in the span of ``start`` but
    ``-start[0]``.

    Returns ``C(K) @ start`` and the pullback that maps gradients with
    respect to it, of shape ``(..., r, q)``, to gradients with respect to
    ``x``: the leading entries of the strictly upper triangle of ``M - M'``
    with ``M = (I - K/2)^{-T} G start' (C + I)' / 2``.
    """
    r = start.shape[0]
    rows, cols = _triu_pairs(r)
    iu = rows[:x.size], cols[:x.size]
    K = np.zeros((r, r))
    K[iu] = x
    K -= K.T
    eye = np.eye(r)
    inv = np.linalg.inv(eye - 0.5 * K)
    C = inv @ (eye + 0.5 * K)
    right = start.T @ (C + eye).T

    def pull(G):
        M = 0.5 * (inv.T @ G @ right)
        return (M - np.swapaxes(M, -1, -2))[..., iu[0], iu[1]]

    return C @ start, pull
