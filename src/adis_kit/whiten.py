"""Second-order fit of the noisy mixing model and whitening.

The generative model is x = mu + A s + eta with p observed channels, q latent
sources and isotropic noise. Fitting is by eigendecomposition of the sample
covariance: the trailing eigenvalues estimate the noise floor sigma2, and
the leading subspace gives the mixing estimate up to an orthogonal rotation.
The whitened coordinates are the projections on the q leading eigenvectors,
each divided by sqrt(lambda_i - sigma2), so only their signal part is white:
with sigma2 > 0 their sample covariance is I + N, with N = sigma2 diag(1 /
(lambda_i - sigma2)), not the identity.

Centering is one step: ``center`` returns the centered block, and
``fit_ppca`` and ``source_stats`` take that block as it is.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

EIGENGAP_FLOOR = 1e-12

# Columns per block of a product over the sample axis. OpenBLAS runs a dgemm
# on the calling thread up to 10^6 multiply-adds on its small-matrix path,
# and up to 524,288 with that path off (one thread per 262,144); above that
# it wakes its thread pool (scipy-openblas 0.3.31, 2-CPU Xeon; the second
# figure with OPENBLAS_CORETYPE=Haswell). Once woken, the pool spins for
# about 130 ms through the single-threaded numpy work that follows, so the
# second CPU stays busy doing nothing. A 12 x 5 by 5 x 20,000 product
# (1.2 x 10^6) woke it. Blocks of 4,096 columns keep every product with
# rows x inner size below 128 under both limits.
_SAMPLE_BLOCK = 4096


def _matmul_columns(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``A @ X`` for a (rows x k) ``A`` and a (k x n) ``X``, computed in
    blocks of ``_SAMPLE_BLOCK`` columns written into one output array.

    Each entry is a row of A times a column of X either way, so the bits are
    those of the one-call product for a row-major or strided ``X`` (for a
    column-major one, those of its row-major copy). A one-column block would
    go to gemv, whose sums run in another order, so a one-column tail joins
    the block before it.
    """
    n = X.shape[1]
    out = np.empty((A.shape[0], n), dtype=np.result_type(A, X))
    starts = list(range(0, n, _SAMPLE_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    for j0, j1 in zip(starts, starts[1:] + [n]):
        np.matmul(A, X[:, j0:j1], out=out[:, j0:j1])
    return out


def _contract_columns(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B.T`` for a (rows x n) ``A`` and a (k x n) ``B``: the products
    of blocks of ``_SAMPLE_BLOCK`` columns, summed. Each block stays under
    OpenBLAS's single-thread limit for rows x k below 244 (the one-call
    product wakes the pool from about 10^6 multiply-adds); the sums run in
    another order than the one call's.
    """
    out = A[:, :_SAMPLE_BLOCK] @ B[:, :_SAMPLE_BLOCK].T
    for j0 in range(_SAMPLE_BLOCK, A.shape[1], _SAMPLE_BLOCK):
        out += A[:, j0:j0 + _SAMPLE_BLOCK] @ B[:, j0:j0 + _SAMPLE_BLOCK].T
    return out


@dataclass
class DataMatrix:
    """p x n data block: p channels (or time points), n samples."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        p, n = self.values.shape
        if p < 2:
            raise ValueError(f"need at least 2 channels, got {p}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("data contains non-finite entries")
        if n < p:
            warnings.warn(
                f"fewer samples ({n}) than channels ({p}); "
                "covariance estimates will be poor", stacklevel=2)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Centered:
    """A centered p x n block, the sample mean removed from it and the
    centering flag that produced it."""

    values: np.ndarray            # p x n
    mean: np.ndarray              # p
    channel_center: bool


@dataclass
class PpcaModel:
    """Fitted second-order model. ``mu_hat`` and ``channel_center`` record
    how the data were centered; ``clipped`` that the eigengap floor was
    applied."""

    mu_hat: np.ndarray            # p
    eigvals: np.ndarray           # p, non-increasing
    U: np.ndarray                 # p x p eigenvectors (columns)
    q: int
    sigma2_hat: float
    A_hat: np.ndarray             # p x q, rotation = identity
    x_tilde: np.ndarray           # q x n whitened data
    clipped: bool
    channel_center: bool

    def mixing_for(self, Q: np.ndarray) -> np.ndarray:
        """Mixing estimate for an arbitrary orthogonal rotation Q (rows)."""
        return self.A_hat @ np.asarray(Q).T

    def to_json(self) -> str:
        return json.dumps({
            "q": self.q,
            "sigma2_hat": self.sigma2_hat,
            "eigvals": self.eigvals.tolist(),
            "mu_hat": self.mu_hat.tolist(),
            "clipped": self.clipped,
            "channel_center": self.channel_center,
        })


@dataclass
class SourceStats:
    """Per-sample uncertainty and relative-variance map for fitted sources."""

    cov_base: np.ndarray          # q x q, scale by sigma2[i] for sample i
    sigma2: np.ndarray            # n
    rv: np.ndarray                # q x n, columns sum to 1 where defined


def center(values: np.ndarray, channel_center: bool = True) -> Centered:
    """Remove the per-sample channel mean, then the sample mean.

    With ``channel_center`` the projection I - 11'/p is applied to every
    sample of the p x n ``values`` (columns then sum to zero); the sample
    mean subtraction afterwards preserves that property. Returns the
    centered block with the sample mean that was removed.
    """
    X = values
    if channel_center:
        X = X - X.mean(axis=0, keepdims=True)
    mu = X.mean(axis=1)
    return Centered(X - mu[:, None], mu, channel_center)


def fit_ppca(centered: Centered, q: int) -> PpcaModel:
    """Fit the model at latent dimension ``q`` to a centered block.

    The noise floor is the mean of the eigenvalues ranked q+1 .. p-1 (the
    last one is zero by construction under channel centering); it is defined
    as 0 when that range is empty (q >= p-1). Where the floor reaches
    lambda_q the eigengap is floored at ``EIGENGAP_FLOOR`` and the model is
    flagged ``clipped``.
    """
    Xc = centered.values
    p, n = Xc.shape
    if not 1 <= q <= p:
        raise ValueError(f"q must lie in [1, {p}], got {q}")

    cov = (Xc @ Xc.T) / n
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]

    if q <= p - 2:
        sigma2 = max(0.0, float(np.sum(vals[q:p - 1]) / (p - q - 1)))
    else:
        sigma2 = 0.0

    gap = vals[:q] - sigma2
    clipped = bool(np.any(gap < EIGENGAP_FLOOR))
    gap = np.maximum(gap, EIGENGAP_FLOOR)

    U_q = vecs[:, :q]
    scale = np.sqrt(gap)
    A_hat = U_q * scale[None, :]
    x_tilde = _matmul_columns((U_q / scale[None, :]).T, Xc)

    return PpcaModel(mu_hat=centered.mean, eigvals=vals, U=vecs, q=q,
                     sigma2_hat=sigma2, A_hat=A_hat, x_tilde=x_tilde,
                     clipped=clipped, channel_center=centered.channel_center)


def source_stats(model: PpcaModel, centered: Centered, s_hat: np.ndarray,
                 mixing: Optional[np.ndarray] = None) -> SourceStats:
    """Residual variance, source covariance scale and relative-variance map
    of ``s_hat`` against the block the model was fitted to.

    ``mixing`` defaults to the model's unrotated estimate; pass the final
    rotated mixing when ``s_hat`` comes from a rotated solution.

    The residual energy of each sample is divided by the residual's degrees
    of freedom: p - q, less one under channel centering, which leaves every
    sample in the (p - 1)-dimensional sum-zero subspace. At q = p - 1 under
    channel centering none are left and the residual is zero up to
    rounding; ``sigma2`` is then 0, as ``fit_ppca``'s noise floor is.
    """
    Xc = centered.values
    p, n = Xc.shape
    q = model.q
    if p == q:
        raise ZeroDivisionError("residual variance undefined at p == q")
    s_hat = np.asarray(s_hat, dtype=float)
    if s_hat.shape != (q, n):
        raise ValueError(f"s_hat has shape {s_hat.shape}, expected ({q}, {n})")
    A = model.A_hat if mixing is None else np.asarray(mixing, dtype=float)
    if A.shape != (p, q):
        raise ValueError(f"mixing has shape {A.shape}, expected ({p}, {q})")

    resid = Xc - _matmul_columns(A, s_hat)
    dof = p - q - int(centered.channel_center)
    sigma2 = (np.sum(resid * resid, axis=0) / dof if dof else np.zeros(n))
    cov_base = np.linalg.inv(A.T @ A)

    col_var = np.var(A, axis=0)
    weighted = col_var[:, None] * s_hat ** 2
    denom = weighted.sum(axis=0)
    rv = np.zeros_like(weighted)
    np.divide(weighted, denom, out=rv, where=denom > 0)
    return SourceStats(cov_base=cov_base, sigma2=sigma2, rv=rv)
