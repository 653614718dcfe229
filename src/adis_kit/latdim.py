"""Latent dimensionality estimation.

Two stages: a permutation bound first (eigenvalues of the column-permuted
data flatten systematic structure, so ranks where the observed spectrum
exceeds the permuted one are significant), then leave-one-out cross
validation of the constant-tail eigenvalue model, scored by the step size of
the mean CV error and robustified by a cumulative-argmax vote. Leaving
member i out of a tail of length k and mean m errs by k (t_i - m) / (k - 1),
so the whole profile, every q of a spectrum, is one masked pass over centred
deviations (``cv_profile``). A bootstrap over the columns reruns the CV
stage on resampled spectra; a strict majority of the resamples can overrule
the full-data estimate. The standardized drop saturates at a cap set by the
tail length alone, so on a single spectrum a noise step with a short tail
can outscore the genuine step, but seldom on a majority of resamples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

VAR_GUARD = 1e-300
# exceedance tolerance: eigenvalues that are structural zeros (the centering
# projection annihilates one direction in both the observed and the permuted
# matrix) land at +-1e-14 * lambda_1 and must not decide the bound
EXCEED_RTOL = 1e-9
# bootstrap resamples of the columns; a different estimate needs more than
# half of them
BOOT_REPS = 15
# the CV scan ends at q = p - 4; fewer channels leave it too short to vote
MIN_CHANNELS = 8


@dataclass
class LatDimSummary:
    q_l: int
    lam: np.ndarray               # observed spectrum, non-increasing
    lam_b: np.ndarray             # permuted spectrum, non-increasing
    qs: np.ndarray                # scanned q values (q_l .. p-4)
    e_bar: np.ndarray             # mean CV error at each scanned q
    var_e: np.ndarray             # variance of the mean CV error
    delta: np.ndarray             # standardized error drop q -> q+1
    f_of_r: np.ndarray            # cumulative argmax of delta
    g_counts: Dict[int, int]      # vote counts per argmax location
    q_hat: int
    boot_votes: Dict[int, int]    # CV estimate counts over the resamples
    rng_seed: int
    degenerate: bool = False      # every delta hit the zero-variance guard
    scan_empty: bool = False      # q_l .. p-4 was empty

    def to_json(self) -> str:
        return json.dumps({
            "q_hat": self.q_hat,
            "q_l": self.q_l,
            "rng_seed": self.rng_seed,
            "degenerate": self.degenerate,
            "scan_empty": self.scan_empty,
            "lambda": self.lam.tolist(),
            "lambda_b": self.lam_b.tolist(),
            "qs": self.qs.tolist(),
            "e_bar": self.e_bar.tolist(),
            "var_e": self.var_e.tolist(),
            "delta": self.delta.tolist(),
            "f_of_r": self.f_of_r.tolist(),
            "g_counts": {str(k): v for k, v in self.g_counts.items()},
            "boot_votes": {str(k): v for k, v in self.boot_votes.items()},
        })

    def profile_csv(self) -> str:
        lines = ["q,e_bar,var_e,delta"]
        for i, q in enumerate(self.qs):
            lines.append(f"{q},{self.e_bar[i]:.17g},{self.var_e[i]:.17g},"
                         f"{self.delta[i]:.17g}")
        return "\n".join(lines) + "\n"


def permute_columns(X: np.ndarray, seed: int) -> np.ndarray:
    """Independently permute the entries of every column."""
    rng = np.random.default_rng(seed)
    return rng.permuted(np.asarray(X, dtype=float), axis=0)


def _spectrum(X: np.ndarray) -> np.ndarray:
    n = X.shape[1]
    vals = np.linalg.eigvalsh((X @ X.T) / n)
    return vals[::-1]


def permute_lower_bound(X: np.ndarray, seed: int
                        ) -> Tuple[int, np.ndarray, np.ndarray]:
    """Lower bound on the latent dimension from a column permutation.

    Returns ``(q_l, lam, lam_b)`` with both spectra sorted non-increasing and
    ``q_l`` the largest 1-based rank where the observed eigenvalue exceeds
    the permuted one (0 if none).
    """
    X = np.asarray(X, dtype=float)
    lam = _spectrum(X)
    lam_b = _spectrum(permute_columns(X, seed))
    tol = EXCEED_RTOL * max(abs(lam[0]), abs(lam_b[0]), 1e-300)
    exceed = np.nonzero(lam > lam_b + tol)[0]
    q_l = int(exceed[-1]) + 1 if exceed.size else 0
    return q_l, lam, lam_b


def cv_profile(lam: np.ndarray, qs: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Leave-one-out CV of the constant-tail model at every dimension in
    ``qs``, in one pass.

    The tail at q is the eigenvalues ranked q+1 .. p-1, of length
    ``k = p - 1 - q`` and mean m. Each member is predicted by the mean of the
    others, and ``t_i - mean_{-i} = k (t_i - m) / (k - 1)``, so the squared
    errors are ``E_i = (k / (k - 1))^2 (t_i - m)^2``. Their mean is
    ``e_bar`` and their population variance, divided by k, is ``var_e``.
    Every tail is one row of a masked ``(len(qs), p - 1)`` array of centred
    deviations; raw power sums would cancel on flat tails. Valid for tails
    of at least two values (every q in ``[0, p - 3]``).
    """
    lam = np.asarray(lam, dtype=float)
    qs = np.asarray(qs, dtype=int)
    p = lam.size
    bad = qs[(qs < 0) | (qs > p - 3)]
    if bad.size:
        raise ValueError(f"q must lie in [0, {p - 3}], got {int(bad[0])}")
    k = (p - 1 - qs).astype(float)[:, None]
    mask = np.arange(p - 1) >= qs[:, None]
    tail = np.where(mask, lam[:p - 1], 0.0)
    dev = np.where(mask, tail - tail.sum(axis=1, keepdims=True) / k, 0.0)
    # the rounding of the mean shifts every deviation alike; one corrected
    # pass removes the shift (exact to rounding on flat tails)
    dev = np.where(mask, dev - dev.sum(axis=1, keepdims=True) / k, 0.0)
    E = (k / (k - 1)) ** 2 * dev ** 2
    e_bar = E.sum(axis=1, keepdims=True) / k
    var_e = (np.where(mask, E - e_bar, 0.0) ** 2).sum(axis=1) / k[:, 0] ** 2
    return e_bar[:, 0], var_e


def vote_from_delta(qs: np.ndarray, delta: np.ndarray
                    ) -> Tuple[np.ndarray, Dict[int, int], int]:
    """Cumulative-argmax vote; every tie resolves to the smallest index.

    Returns ``(f_of_r, g_counts, winner)`` where ``winner`` is the voted
    location of the maximum.
    """
    best_idx = 0
    f_of_r = np.empty(qs.size, dtype=int)
    for i in range(qs.size):
        if delta[i] > delta[best_idx]:
            best_idx = i
        f_of_r[i] = qs[best_idx]
    g_counts: Dict[int, int] = {}
    for y in f_of_r:
        g_counts[int(y)] = g_counts.get(int(y), 0) + 1
    top = max(g_counts.values())
    winner = min(y for y, cnt in g_counts.items() if cnt == top)
    return f_of_r, g_counts, winner


def _cv_drops(lam: np.ndarray, qs: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CV profile at every scanned q and the standardized drop to q+1.

    ``qs`` is a run of consecutive values. Returns ``(e_bar, var_e, delta,
    guarded)``; ``guarded`` marks drops whose variance hit the zero guard
    (their delta is 0).
    """
    e_all, v_all = cv_profile(lam, np.append(qs, qs[-1] + 1))
    num = e_all[:-1] - e_all[1:]
    den = v_all[:-1] + v_all[1:]
    guarded = den < VAR_GUARD
    delta = np.divide(num, np.sqrt(den), out=np.zeros_like(num),
                      where=~guarded)
    return e_all[:-1], v_all[:-1], delta, guarded


def _bootstrap_votes(X: np.ndarray, qs: np.ndarray, q_l: int, seed: int
                     ) -> Dict[int, int]:
    """CV estimates on ``BOOT_REPS`` column resamples, counted per value.

    Each resample reruns the CV stage and vote over the scan ``qs`` of the
    full data; a resample whose drops are all guarded votes for ``q_l``.
    """
    rng = np.random.default_rng([seed, 1])
    n = X.shape[1]
    votes: Dict[int, int] = {}
    for _ in range(BOOT_REPS):
        # np.take gives the same matrix as X[:, idx], C-ordered, in half the time
        lam = _spectrum(np.take(X, rng.integers(0, n, size=n), axis=1))
        _, _, delta, guarded = _cv_drops(lam, qs)
        q = q_l if guarded.all() else 1 + vote_from_delta(qs, delta)[2]
        votes[q] = votes.get(q, 0) + 1
    return dict(sorted(votes.items()))


def estimate_q(X: np.ndarray, seed: int) -> LatDimSummary:
    """Two-stage latent dimension estimate on a centered matrix.

    The full-data CV estimate stands unless more than half of the
    ``BOOT_REPS`` bootstrap resamples agree on another value. Ties in every
    argmax go to the smallest index. All randomness comes from ``seed``, so
    identical inputs reproduce identical summaries. Raises ``ValueError``
    for fewer than ``MIN_CHANNELS`` channels.
    """
    X = np.asarray(X, dtype=float)
    p = X.shape[0]
    if p < MIN_CHANNELS:
        raise ValueError(f"need at least {MIN_CHANNELS} channels for the "
                         f"scan range, got {p}")
    q_l, lam, lam_b = permute_lower_bound(X, seed)

    # The drop statistic peaks at q_true - 1, which a scan starting exactly at
    # the lower bound would miss whenever the bound is tight (q_l = q_true),
    # forcing an overestimate. Scanning one point below keeps every candidate
    # >= q_l reachable while never returning less than q_l.
    scan_lo = max(q_l - 1, 0)
    qs = np.arange(scan_lo, p - 3)      # q values scan_lo .. p-4
    if qs.size == 0:
        return LatDimSummary(
            q_l=q_l, lam=lam, lam_b=lam_b, qs=qs, e_bar=np.zeros(0),
            var_e=np.zeros(0), delta=np.zeros(0), f_of_r=np.zeros(0, int),
            g_counts={}, q_hat=max(q_l, 1), boot_votes={}, rng_seed=seed,
            scan_empty=True)

    e_bar, var_e, delta, guarded = _cv_drops(lam, qs)
    if bool(guarded.all()):
        return LatDimSummary(
            q_l=q_l, lam=lam, lam_b=lam_b, qs=qs, e_bar=e_bar, var_e=var_e,
            delta=delta, f_of_r=qs.copy(), g_counts={}, q_hat=q_l,
            boot_votes={}, rng_seed=seed, degenerate=True)

    f_of_r, g_counts, y_star = vote_from_delta(qs, delta)
    q_hat = 1 + y_star
    votes = _bootstrap_votes(X, qs, q_l, seed)
    top = max(votes, key=votes.get)
    if votes[top] > BOOT_REPS // 2:
        q_hat = top
    return LatDimSummary(
        q_l=q_l, lam=lam, lam_b=lam_b, qs=qs, e_bar=e_bar, var_e=var_e,
        delta=delta, f_of_r=f_of_r, g_counts=g_counts, q_hat=q_hat,
        boot_votes=votes, rng_seed=seed)
