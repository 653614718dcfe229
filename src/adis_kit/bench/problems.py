"""Classic constrained test problems used to exercise the solver.

Three fixtures: minimum-energy point charges on the unit sphere, nonnegative
least squares, and the largest polygon of unit diameter. All supply analytic
gradients and a starting point.
"""

from __future__ import annotations

import numpy as np

from ..nlp import NlpProblem


def electron_problem(n_p: int, seed: int = 0) -> NlpProblem:
    """Coulomb energy minimization of ``n_p`` charges on the unit sphere.

    Variables are the interleaved coordinates ``(x_i, y_i, z_i)``; each charge
    carries one equality constraint pinning it to the sphere. The starting
    point draws uniform points and projects them onto the sphere.
    """
    if n_p < 2:
        raise ValueError("need at least two charges")
    n = 3 * n_p

    def objective(x):
        P = x.reshape(n_p, 3)
        diff = P[:, None, :] - P[None, :, :]
        d2 = np.sum(diff * diff, axis=2)
        iu = np.triu_indices(n_p, k=1)
        d = np.sqrt(d2[iu])
        f = float(np.sum(1.0 / d))
        inv3 = np.zeros_like(d2)
        inv3[iu] = d ** -3
        inv3 = inv3 + inv3.T
        grad = -(inv3[:, :, None] * diff).sum(axis=1)
        return f, grad.ravel()

    def eq(x):
        P = x.reshape(n_p, 3)
        c = np.sum(P * P, axis=1) - 1.0
        J = np.zeros((n_p, n))
        for i in range(n_p):
            J[i, 3 * i:3 * i + 3] = 2.0 * P[i]
        return c, J

    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(n_p, 3))
    norms = np.linalg.norm(pts, axis=1)
    norms[norms == 0] = 1.0
    x0 = (pts / norms[:, None]).ravel()

    return NlpProblem(dim=n, objective=objective, eq_constraints=eq,
                      n_eq=n_p, x0=x0)


def nnls_problem(A: np.ndarray, b: np.ndarray, C: np.ndarray,
                 d: np.ndarray) -> NlpProblem:
    """``min ||Ax - b||^2`` subject to ``Cx - d >= 0``.

    The squared residual norm is used so the objective stays smooth at an
    exact fit; the minimizer is unchanged.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    C = np.asarray(C, dtype=float)
    d = np.asarray(d, dtype=float)
    n = A.shape[1]
    if A.shape[0] != b.size or C.shape[1] != n or C.shape[0] != d.size:
        raise ValueError("inconsistent shapes")

    def objective(x):
        r = A @ x - b
        return float(r @ r), 2.0 * (A.T @ r)

    def ineq(x):
        return C @ x - d, C.copy()

    return NlpProblem(dim=n, objective=objective, ineq_constraints=ineq,
                      n_ineq=C.shape[0], x0=np.zeros(n))


def random_nnls_instance(m: int, n: int, seed: int):
    """Random least-squares data with plain nonnegativity (C = I, d = 0)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    return A, b, np.eye(n), np.zeros(n)


def polygon_problem(n_v: int, seed: int | None = None) -> NlpProblem:
    """Largest-area polygon of unit diameter, ``n_v`` vertices in polar form.

    Variables are ``[r_1..r_nv, theta_1..theta_nv]``. The last vertex is
    pinned to the origin with angle pi (equal bounds), which closes the fan
    so the objective is the polygon area. The fan-area objective is negated
    for minimization. Pairwise squared distances stay below 1 and the angles
    stay sorted via inequality constraints. ``seed`` perturbs the regular-fan
    starting point for multistart runs.
    """
    if n_v < 3:
        raise ValueError("need at least three vertices")
    nv = n_v
    n = 2 * nv
    pairs = [(i, j) for i in range(nv - 1) for j in range(i + 1, nv)]

    def split(x):
        return x[:nv], x[nv:]

    def objective(x):
        r, th = split(x)
        dth = th[1:] - th[:-1]
        s = np.sin(dth)
        c = np.cos(dth)
        f = -0.5 * float(np.sum(r[1:] * r[:-1] * s))
        gr = np.zeros(nv)
        gth = np.zeros(nv)
        gr[:-1] += -0.5 * r[1:] * s
        gr[1:] += -0.5 * r[:-1] * s
        prod = -0.5 * r[1:] * r[:-1] * c
        gth[1:] += prod
        gth[:-1] -= prod
        return f, np.concatenate([gr, gth])

    def ineq(x):
        r, th = split(x)
        n_pair = len(pairs)
        n_ord = nv - 1
        g = np.empty(n_pair + n_ord)
        J = np.zeros((n_pair + n_ord, n))
        for idx, (i, j) in enumerate(pairs):
            dth = th[i] - th[j]
            cij = np.cos(dth)
            sij = np.sin(dth)
            g[idx] = 1.0 - r[i] ** 2 - r[j] ** 2 + 2.0 * r[i] * r[j] * cij
            J[idx, i] = -2.0 * r[i] + 2.0 * r[j] * cij
            J[idx, j] = -2.0 * r[j] + 2.0 * r[i] * cij
            J[idx, nv + i] = -2.0 * r[i] * r[j] * sij
            J[idx, nv + j] = 2.0 * r[i] * r[j] * sij
        for i in range(n_ord):
            g[n_pair + i] = th[i + 1] - th[i]
            J[n_pair + i, nv + i + 1] = 1.0
            J[n_pair + i, nv + i] = -1.0
        return g, J

    lower = np.concatenate([np.zeros(nv), np.zeros(nv)])
    upper = np.concatenate([np.full(nv, np.inf), np.full(nv, np.pi)])
    # pin the closing vertex
    lower[nv - 1] = upper[nv - 1] = 0.0
    lower[-1] = upper[-1] = np.pi

    r0 = np.full(nv, 0.5)
    th0 = np.array([(i + 1) * np.pi / (nv + 1) for i in range(nv)])
    if seed is not None:
        rng = np.random.default_rng(seed)
        r0 = np.clip(r0 + 0.35 * rng.uniform(-1.0, 1.0, nv), 0.05, 0.95)
        th0 = np.sort(np.clip(
            th0 + 0.5 * rng.uniform(-1.0, 1.0, nv), 0.02, np.pi - 0.02))
    r0[nv - 1] = 0.0
    th0[nv - 1] = np.pi
    x0 = np.concatenate([r0, th0])

    return NlpProblem(dim=n, objective=objective, ineq_constraints=ineq,
                      n_ineq=len(pairs) + nv - 1, lower=lower, upper=upper,
                      x0=x0)


def polygon_area(x: np.ndarray, n_v: int) -> float:
    """Fan area of a polygon solution vector (positive objective)."""
    r, th = x[:n_v], x[n_v:]
    return 0.5 * float(np.sum(r[1:] * r[:-1] * np.sin(th[1:] - th[:-1])))
