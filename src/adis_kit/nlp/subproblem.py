"""Trust-region subproblem pieces: projected Cauchy point, truncated CG, radius update.

The subproblem at a point x is

    min_p  g'p + 0.5 p'Bp   s.t.  lo <= p <= hi

where the box is the intersection of the shifted variable bounds with the
inf-norm trust region (itself a box). The Cauchy point is the first local
minimizer of the model along the projected steepest-descent path; the step is
then refined by conjugate gradients on the free subspace, truncated at the
box boundary or at negative curvature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

ACTIVE_TOL = 1e-12


def trust_region_update(rho: float, step: np.ndarray, delta: float) -> float:
    """Radius update from the actual/predicted decrease ratio.

    Three mutually exclusive branches: expand when the model is good and the
    step presses against the region, hold for moderate agreement, halve
    otherwise.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    step_norm = float(np.max(np.abs(step))) if np.size(step) else 0.0
    if rho > 0.75:
        if step_norm > 0.8 * delta:
            return 2.0 * delta
        return delta
    if rho >= 0.1:
        return delta
    return 0.5 * delta


@dataclass
class CauchyResult:
    p: np.ndarray            # Cauchy point in step coordinates
    active: np.ndarray       # boolean mask of components at a box face
    model_decrease: float    # m(0) - m(p) >= 0


def cauchy_point(B: np.ndarray, g: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> CauchyResult:
    """First local minimizer of the quadratic model along P(-t g).

    Walks the piecewise-linear projected gradient path segment by segment,
    freezing components as they reach their bounds. ``lo <= 0 <= hi``
    componentwise is required (the zero step must be feasible).
    """
    n = g.size
    p = np.zeros(n)
    d = -g.copy()
    # components already pinned at a face with an outward direction never move
    d[(lo >= -ACTIVE_TOL) & (d < 0)] = 0.0
    d[(hi <= ACTIVE_TOL) & (d > 0)] = 0.0

    # breakpoint of each component along d
    t_hit = np.full(n, np.inf)
    pos = d > 0
    neg = d < 0
    t_hit[pos] = hi[pos] / d[pos]
    t_hit[neg] = lo[neg] / d[neg]

    Bp = np.zeros(n)          # B @ p, maintained incrementally
    Bd = B @ d                # B @ d, downdated when components freeze
    t = 0.0
    decrease = 0.0
    moving = d != 0.0

    while np.any(moving):
        t_next = np.min(t_hit[moving])
        seg = min(t_next, np.inf) - t
        f1 = float(g @ d + Bp @ d)      # d/dt of the model at segment start
        f2 = float(d @ Bd)              # curvature along d
        if f1 >= 0.0:
            break
        if f2 > 0.0:
            t_star = -f1 / f2
            if t_star < seg:
                p = p + t_star * d
                decrease += -(f1 * t_star + 0.5 * f2 * t_star * t_star)
                Bp = Bp + t_star * Bd
                t += t_star
                break
        if not np.isfinite(t_next):
            # unbounded segment with nonpositive curvature cannot occur in a
            # bounded box; guard anyway
            break
        p = p + seg * d
        decrease += -(f1 * seg + 0.5 * f2 * seg * seg)
        Bp = Bp + seg * Bd
        t = t_next
        frozen = moving & (t_hit <= t_next + ACTIVE_TOL * (1 + t_next))
        for i in np.flatnonzero(frozen):
            p[i] = hi[i] if d[i] > 0 else lo[i]
            Bd = Bd - B[:, i] * d[i]
            d[i] = 0.0
            t_hit[i] = np.inf
            moving[i] = False

    active = (p <= lo + ACTIVE_TOL * (1.0 + np.abs(lo))) | \
             (p >= hi - ACTIVE_TOL * (1.0 + np.abs(hi))) | (lo == hi)
    return CauchyResult(p=p, active=active, model_decrease=float(decrease))


def _max_step_in_box(v: np.ndarray, d: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray) -> float:
    """Largest alpha >= 0 with v + alpha d inside [lo, hi]."""
    alpha = np.inf
    pos = d > 0
    neg = d < 0
    if np.any(pos):
        alpha = min(alpha, float(np.min((hi[pos] - v[pos]) / d[pos])))
    if np.any(neg):
        alpha = min(alpha, float(np.min((lo[neg] - v[neg]) / d[neg])))
    return max(alpha, 0.0)


def steihaug_cg(B: np.ndarray, g: np.ndarray, delta: float, tol: float = 0.1,
                box: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                max_iter: Optional[int] = None,
                abs_tol: float = 0.0) -> np.ndarray:
    """Truncated CG for ``min 0.5 v'Bv + g'v`` inside a box trust region.

    The feasible set is the inf-norm ball of radius ``delta`` intersected with
    ``box`` when given. Terminates on a residual below ``tol * ||g||``
    (tightened to ``abs_tol`` when that is smaller and positive), on negative
    curvature (step extended to the boundary) or on crossing the boundary.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    g = np.asarray(g, dtype=float)
    n = g.size
    B = np.asarray(B, dtype=float)

    lo = np.full(n, -delta)
    hi = np.full(n, delta)
    if box is not None:
        lo = np.maximum(lo, np.asarray(box[0], dtype=float))
        hi = np.minimum(hi, np.asarray(box[1], dtype=float))
    lo = np.minimum(lo, 0.0)
    hi = np.maximum(hi, 0.0)

    gnorm = np.linalg.norm(g)
    if gnorm == 0.0:
        return np.zeros(n)
    threshold = tol * gnorm
    if abs_tol > 0.0:
        threshold = min(threshold, abs_tol)
    if max_iter is None:
        max_iter = 2 * n + 5

    v = np.zeros(n)
    r = g.copy()                 # residual of the model gradient Bv + g
    d = -r
    rr = float(r @ r)
    for _ in range(max_iter):
        Bd = B @ d
        kappa = float(d @ Bd)
        if kappa <= 0.0:
            return v + _max_step_in_box(v, d, lo, hi) * d
        alpha = rr / kappa
        alpha_max = _max_step_in_box(v, d, lo, hi)
        if alpha >= alpha_max:
            return v + alpha_max * d
        v = v + alpha * d
        r = r + alpha * Bd
        if np.linalg.norm(r) <= threshold:
            return v
        rr_new = float(r @ r)
        d = -r + (rr_new / rr) * d
        rr = rr_new
    return v
