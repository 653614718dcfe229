"""Trust-region subproblem pieces: projected Cauchy point, truncated CG, radius update.

The subproblem at a point x is

    min_p  g'p + 0.5 p'Bp   s.t.  lo <= p <= hi

where the box is the intersection of the shifted variable bounds with the
inf-norm trust region (itself a box). The Cauchy point is the first local
minimizer of the model along the projected steepest-descent path; the step is
then refined by conjugate gradients on the free subspace, truncated at the
box boundary or at negative curvature (Steihaug 1983, SIAM J. Numer. Anal.
20(3)).

Both kernels take the box as their only region; the trust radius is already
in it, so neither takes a radius:
- ``cauchy_point(B, g, lo, hi)`` requires ``lo <= 0 <= hi`` and returns
  ``(p, active)``, the Cauchy point and the mask of its components at a face;
- ``steihaug_cg(B, g, lo, hi)`` widens the box to contain 0 itself and takes
  at most ``2n + 5`` iterations.

The problems are small (one to a few hundred variables), so the cost of these
kernels is the number of numpy calls, not the arithmetic: each loop does its
vector work in as few calls as give the same floating-point operations in the
same order. Products use ``ndarray.dot``, which makes the same BLAS call as
``@`` on these contiguous arrays with less dispatch.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

import numpy as np

ACTIVE_TOL = 1e-12


def trust_region_update(rho: float, step_norm: float, delta: float) -> float:
    """Radius update from the actual/predicted decrease ratio and the
    inf-norm of the step.

    Three mutually exclusive branches: expand when the model is good and the
    step presses against the region, hold for moderate agreement, halve
    otherwise.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if rho > 0.75:
        if step_norm > 0.8 * delta:
            return 2.0 * delta
        return delta
    if rho >= 0.1:
        return delta
    return 0.5 * delta


def cauchy_point(B: np.ndarray, g: np.ndarray, lo: Union[np.ndarray, float],
                 hi: Union[np.ndarray, float]
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """First local minimizer of the quadratic model along P(-t g), and the
    boolean mask of its components at a box face.

    Walks the piecewise-linear projected gradient path segment by segment,
    freezing components as they reach their bounds. ``lo`` and ``hi`` are
    arrays of g's shape, or floats for a box with the same bounds in every
    component; ``lo <= 0 <= hi`` componentwise is required (the zero step
    must be feasible).
    """
    p = np.zeros(g.size)
    d = -g
    # distance from 0 to the face each component moves towards
    room = np.where(d > 0, hi, -lo)
    # components already pinned at that face never move
    d[room <= ACTIVE_TOL] = 0.0
    # breakpoints hi/d or lo/d; inf where d == 0 (inf / 0 is inf, exactly
    # and without a floating-point warning)
    room[d == 0] = np.inf
    t_hit = room / np.abs(d)

    Bp = None                 # B @ p, maintained from the first breakpoint on
    Bd = B.dot(d)             # B @ d, downdated when components freeze
    t = 0.0

    while np.count_nonzero(d):
        t_next = t_hit.min()
        seg = t_next - t
        # d/dt of the model at segment start; p = 0 on the first segment
        f1 = float(g.dot(d)) if Bp is None else float(g.dot(d) + Bp.dot(d))
        f2 = float(d.dot(Bd))           # curvature along d
        if f1 >= 0.0:
            break
        if f2 > 0.0:
            t_star = -f1 / f2
            if t_star < seg:
                p = p + t_star * d
                break
        if not math.isfinite(t_next):
            # unbounded segment with nonpositive curvature cannot occur in a
            # bounded box; guard anyway
            break
        p = p + seg * d
        Bp = seg * Bd if Bp is None else Bp + seg * Bd
        t = t_next
        for i in np.flatnonzero(t_hit <= t_next + ACTIVE_TOL * (1 + t_next)):
            # a moving component's room is hi there, or -lo
            p[i] = room[i] if d[i] > 0 else -room[i]
            Bd = Bd - B[:, i] * d[i]
            d[i] = 0.0
            t_hit[i] = np.inf

    # with float bounds the face tolerances are two floats, not arrays, and
    # lo == hi is one bool, which pins every component or none
    active = (p <= lo + ACTIVE_TOL * (1.0 + abs(lo))) | \
             (p >= hi - ACTIVE_TOL * (1.0 + abs(hi)))
    pinned = lo == hi
    if pinned is not False:
        active |= pinned
    return p, active


def _max_step_in_box(v: np.ndarray, d: np.ndarray, lo: list,
                     hi: list) -> float:
    """Largest alpha >= 0 with v + alpha d inside [lo, hi], the bounds given
    as lists.

    Each component's ratio is the float division numpy would make, taken in
    a Python loop: up to about 50 components that costs less than the seven
    array calls of the vectorized form. A NaN ratio makes the result NaN, as
    ``ndarray.min`` does.
    """
    alpha = math.inf
    for vi, di, li, hi_i in zip(v.tolist(), d.tolist(), lo, hi):
        if di > 0.0:
            a = (hi_i - vi) / di
        elif di != 0.0:         # negative or NaN
            a = (li - vi) / di
        else:
            continue
        if a != a:
            return a
        if a < alpha:
            alpha = a
    return max(alpha, 0.0)


def steihaug_cg(B: np.ndarray, g: np.ndarray, lo: np.ndarray,
                hi: np.ndarray, tol: float = 0.1,
                abs_tol: float = 0.0) -> np.ndarray:
    """Truncated CG for ``min 0.5 v'Bv + g'v`` inside the box ``[lo, hi]``.

    The box is widened to contain v = 0. Terminates on a residual below
    ``tol * ||g||`` (tightened to ``abs_tol`` when that is smaller and
    positive), on negative curvature (step extended to the boundary), on
    crossing the boundary or after ``2n + 5`` iterations.
    """
    n = g.size
    # ||r|| is taken as sqrt(r'r), which is what np.linalg.norm computes, so
    # the dot product CG needs anyway gives the norm too
    rr = float(g.dot(g))
    gnorm = math.sqrt(rr)
    if gnorm == 0.0:
        return np.zeros(n)
    threshold = tol * gnorm
    if abs_tol > 0.0:
        threshold = min(threshold, abs_tol)
    lo = np.minimum(lo, 0.0).tolist()
    hi = np.maximum(hi, 0.0).tolist()

    # v and the residual r = Bv + g are the rows of vr, the direction d and
    # B @ d the rows of dbd: one multiply and one add update both of the
    # first pair, elementwise as two separate updates would
    vr = np.zeros((2, n))
    v, r = vr
    r[:] = g
    dbd = np.empty((2, n))
    d, Bd = dbd
    np.negative(g, out=d)
    for _ in range(2 * n + 5):
        np.dot(B, d, out=Bd)
        kappa = float(d.dot(Bd))
        alpha_max = _max_step_in_box(v, d, lo, hi)
        if kappa <= 0.0 or rr / kappa >= alpha_max:
            # negative curvature, or the minimizer along d is outside the box
            return v + alpha_max * d
        alpha = rr / kappa
        vr += alpha * dbd
        rr_new = float(r.dot(r))
        if math.sqrt(rr_new) <= threshold:
            return v
        d *= rr_new / rr
        d -= r
        rr = rr_new
    return v
