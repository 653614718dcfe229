"""Second-order fit of the noisy mixing model and whitening.

The generative model is x = mu + A s + eta with p observed channels, q latent
sources and isotropic noise. Fitting is by eigendecomposition of the sample
covariance: the trailing eigenvalues estimate the noise floor, the leading
subspace gives the mixing estimate up to an orthogonal rotation, and the
whitened coordinates have identity sample covariance.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.linalg

EIGENGAP_FLOOR = 1e-12


class DegenerateSpectrumError(ValueError):
    """The requested latent dimension reaches into the noise floor."""


class NonStationaryARError(ValueError):
    """An autoregressive fit produced roots on or inside the unit circle."""

    def __init__(self, channel: int, message: str):
        super().__init__(message)
        self.channel = channel


@dataclass
class DataMatrix:
    """p x n data block: p channels (or time points), n samples."""

    values: np.ndarray
    row_labels: Optional[list] = None
    col_labels: Optional[list] = None

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


@dataclass
class PpcaModel:
    """Fitted second-order model."""

    mu_hat: np.ndarray            # p
    eigvals: np.ndarray           # p, non-increasing
    U: np.ndarray                 # p x p eigenvectors (columns)
    q: int
    sigma2_hat: float
    A_hat: np.ndarray             # p x q, rotation = identity
    x_tilde: np.ndarray           # q x n whitened data
    clipped: bool = False         # eigengap floor was applied
    channel_center: bool = True

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

    def save(self, directory) -> None:
        """Write model.json plus the matrices in the raw binary layout."""
        from pathlib import Path

        from .dataio import save_matrix_binary

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "model.json").write_text(self.to_json() + "\n")
        save_matrix_binary(directory / "mixing.bin", self.A_hat)
        save_matrix_binary(directory / "eigvecs.bin", self.U)
        save_matrix_binary(directory / "whitened.bin", self.x_tilde)


@dataclass
class SourceStats:
    """Per-sample uncertainty and relative-variance map for fitted sources."""

    cov_base: np.ndarray          # q x q, scale by sigma2[i] for sample i
    sigma2: np.ndarray            # n
    rv: np.ndarray                # q x n, columns sum to 1 where defined

    def cov_at(self, i: int) -> np.ndarray:
        return self.cov_base * self.sigma2[i]


def center(data: DataMatrix, channel_center: bool = True
           ) -> Tuple[DataMatrix, np.ndarray]:
    """Remove the per-sample channel mean, then the sample mean.

    With ``channel_center`` the projection I - 11'/p is applied to every
    sample (columns then sum to zero); the sample mean subtraction afterwards
    preserves that property. Returns the centered block and the sample mean
    that was removed.
    """
    X = data.values
    if channel_center:
        X = X - X.mean(axis=0, keepdims=True)
    mu = X.mean(axis=1)
    Xc = X - mu[:, None]
    return DataMatrix(Xc, data.row_labels, data.col_labels), mu


def fit_ppca(data: DataMatrix, q: int, channel_center: bool = True,
             degenerate: str = "error") -> PpcaModel:
    """Fit the model at latent dimension ``q``.

    The noise floor is the mean of the eigenvalues ranked q+1 .. p-1 (the
    last one is zero by construction under channel centering); it is defined
    as 0 when that range is empty (q >= p-1). ``degenerate`` selects the
    behavior when the floor reaches lambda_q: ``"error"`` raises,
    ``"clip"`` floors the gap at 1e-12 and flags the model.
    """
    p, n = data.p, data.n
    if not 1 <= q <= p:
        raise ValueError(f"q must lie in [1, {p}], got {q}")
    if degenerate not in ("error", "clip"):
        raise ValueError("degenerate must be 'error' or 'clip'")

    centered, mu = center(data, channel_center=channel_center)
    Xc = centered.values
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
    clipped = False
    if np.any(gap < EIGENGAP_FLOOR):
        if degenerate == "error":
            idx = int(np.argmax(gap < EIGENGAP_FLOOR)) + 1
            raise DegenerateSpectrumError(
                f"eigenvalue {idx} ({vals[idx - 1]:.6g}) does not exceed the "
                f"noise floor {sigma2:.6g}")
        clipped = True
        gap = np.maximum(gap, EIGENGAP_FLOOR)

    U_q = vecs[:, :q]
    scale = np.sqrt(gap)
    A_hat = U_q * scale[None, :]
    x_tilde = (U_q / scale[None, :]).T @ Xc

    return PpcaModel(mu_hat=mu, eigvals=vals, U=vecs, q=q, sigma2_hat=sigma2,
                     A_hat=A_hat, x_tilde=x_tilde, clipped=clipped,
                     channel_center=channel_center)


def source_stats(model: PpcaModel, data: DataMatrix, s_hat: np.ndarray,
                 mixing: Optional[np.ndarray] = None) -> SourceStats:
    """Residual variance, source covariance scale and relative-variance map.

    ``mixing`` defaults to the model's unrotated estimate; pass the final
    rotated mixing when ``s_hat`` comes from a rotated solution.
    """
    p, n = data.p, data.n
    q = model.q
    if p == q:
        raise ZeroDivisionError("residual variance undefined at p == q")
    s_hat = np.asarray(s_hat, dtype=float)
    if s_hat.shape != (q, n):
        raise ValueError(f"s_hat has shape {s_hat.shape}, expected ({q}, {n})")
    A = model.A_hat if mixing is None else np.asarray(mixing, dtype=float)
    if A.shape != (p, q):
        raise ValueError(f"mixing has shape {A.shape}, expected ({p}, {q})")

    centered, _ = center(data, channel_center=model.channel_center)
    resid = centered.values - A @ s_hat
    sigma2 = np.sum(resid * resid, axis=0) / (p - q)
    cov_base = np.linalg.inv(A.T @ A)

    col_var = np.var(A, axis=0)
    weighted = col_var[:, None] * s_hat ** 2
    denom = weighted.sum(axis=0)
    rv = np.zeros_like(weighted)
    nz = denom > 0
    rv[:, nz] = weighted[:, nz] / denom[nz]
    return SourceStats(cov_base=cov_base, sigma2=sigma2, rv=rv)


def estimate_ar_coefficients(series: np.ndarray, order: int) -> np.ndarray:
    """Yule-Walker fit of AR(order) coefficients on one zero-mean series."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    n = x.size
    if n <= order + 1:
        raise ValueError("series too short for the requested order")
    acov = np.array([x[:n - k] @ x[k:] for k in range(order + 1)]) / n
    if acov[0] <= 0.0:
        raise ValueError("zero-variance series")
    return scipy.linalg.solve_toeplitz(acov[:order], acov[1:order + 1])


def _ar_is_stationary(phi: np.ndarray) -> bool:
    roots = np.roots(np.concatenate([[1.0], -phi]))
    return bool(np.all(np.abs(roots) < 1.0 - 1e-10))


def _apply_ar_filter(row: np.ndarray, phi: np.ndarray) -> np.ndarray:
    out = row.copy()
    for j, c in enumerate(phi, start=1):
        out[j:] -= c * row[:-j]
    return out


def prewhiten_iterate(data: DataMatrix,
                      decompose_callback: Callable[[DataMatrix], np.ndarray],
                      ar_order: int = 1, max_rounds: int = 5,
                      tol: float = 1e-6,
                      significance: float = 2.0) -> DataMatrix:
    """Alternate decomposition and autoregressive prewhitening of each channel.

    Each round fits the current data, estimates AR(ar_order) coefficients on
    every channel of the residual (Yule-Walker along the sample axis), and
    filters the data with them. Channels whose residual autocorrelations stay
    within ``significance / sqrt(n)`` are treated as white and left alone.
    Stops when the mean squared change drops below ``tol`` or after
    ``max_rounds`` rounds. A library step: ``decompose`` does not call it.
    ``max_rounds=0`` returns the input unchanged.
    """
    if ar_order < 1:
        raise ValueError("ar_order must be >= 1")
    cur = data.values.copy()
    n = data.n
    acf_cut = significance / np.sqrt(n)

    for _ in range(max_rounds):
        resid = np.asarray(decompose_callback(DataMatrix(cur)), dtype=float)
        if resid.shape != cur.shape:
            raise ValueError("decompose callback must return a residual "
                             "matrix matching the data shape")
        new = cur.copy()
        any_filtered = False
        for ch in range(data.p):
            r = resid[ch] - resid[ch].mean()
            r0 = float(r @ r) / n
            if r0 <= 0.0:
                raise NonStationaryARError(
                    ch, f"channel {ch}: residual has zero variance")
            acf = np.array([float(r[:n - k] @ r[k:]) / (n * r0)
                            for k in range(1, ar_order + 1)])
            if np.all(np.abs(acf) < acf_cut):
                continue
            phi = estimate_ar_coefficients(resid[ch], ar_order)
            if not _ar_is_stationary(phi):
                raise NonStationaryARError(
                    ch, f"channel {ch}: AR fit has roots on the unit circle")
            new[ch] = _apply_ar_filter(cur[ch], phi)
            any_filtered = True
        if not any_filtered:
            break
        change = float(np.mean((new - cur) ** 2))
        cur = new
        if change < tol:
            break
    return DataMatrix(cur, data.row_labels, data.col_labels)
