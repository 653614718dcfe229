"""Source-to-interferences ratio of estimated sources against ground truth.

Each estimate is matched to a true source by maximal absolute correlation,
then split into the projection onto its matched source (target) and the rest
of its projection onto the full true span (interference). The ratio of the
two energies in decibels is the score; a perfect recovery is capped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

SIR_CAP_DB = 150.0
CAP_ENERGY_RATIO = 1e-15


@dataclass
class SirReport:
    """Per-source scores for one evaluation plus the matching used."""

    sir_db: np.ndarray
    matching: np.ndarray      # matching[j] = index of the true source for estimate j

    @property
    def mean_db(self) -> float:
        return float(np.mean(self.sir_db))


def _greedy_match(corr: np.ndarray) -> np.ndarray:
    """Greedy assignment on |corr|; ties resolve to the lowest flat index."""
    c = np.abs(corr).copy()
    q = c.shape[0]
    match = np.full(q, -1, dtype=int)
    for _ in range(q):
        flat = int(np.argmax(c))
        i, j = divmod(flat, q)
        match[i] = j
        c[i, :] = -np.inf
        c[:, j] = -np.inf
    return match


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a @ b`` as an elementwise product and numpy's pairwise sum. BLAS
    ddot wakes OpenBLAS's thread pool above 10,000 elements, and the pool
    then spins for about 130 ms (whiten.py, ``_SAMPLE_BLOCK``)."""
    return float(np.add.reduce(a * b))


def sir(S_true: np.ndarray, S_hat: np.ndarray) -> SirReport:
    """Score each estimated source against the true set.

    Requires full-rank true sources (the span projection is ill-defined
    otherwise) and more samples than sources.
    """
    S = np.asarray(S_true, dtype=float)
    Y = np.asarray(S_hat, dtype=float)
    if S.ndim != 2 or Y.shape != S.shape:
        raise ValueError(f"shape mismatch: {S.shape} vs {Y.shape}")
    q, n = S.shape
    if n <= q:
        raise ValueError("need more samples than sources")
    G = S @ S.T
    if np.linalg.matrix_rank(G) < q:
        raise ValueError("true sources are rank deficient")

    # row-wise correlation; zero-variance rows correlate with nothing
    Sc = S - S.mean(axis=1, keepdims=True)
    Yc = Y - Y.mean(axis=1, keepdims=True)
    s_norm = np.linalg.norm(Sc, axis=1)
    y_norm = np.linalg.norm(Yc, axis=1)
    denom = np.outer(y_norm, s_norm)
    corr = np.divide(Yc @ Sc.T, denom, out=np.zeros((q, q)), where=denom > 0)
    match = _greedy_match(corr)

    chol = np.linalg.cholesky(G)
    sir_db = np.empty(q)
    for j in range(q):
        y = Y[j]
        tgt_row = S[match[j]]
        target = (_dot(tgt_row, y) / _dot(tgt_row, tgt_row)) * tgt_row
        beta = np.linalg.solve(chol.T, np.linalg.solve(chol, S @ y))
        span_proj = S.T @ beta
        interf = span_proj - target
        e_t = _dot(target, target)
        e_i = _dot(interf, interf)
        if e_t == 0.0:
            sir_db[j] = -SIR_CAP_DB
        elif e_i < CAP_ENERGY_RATIO * e_t:
            sir_db[j] = SIR_CAP_DB
        else:
            sir_db[j] = 10.0 * np.log10(e_t / e_i)
    return SirReport(sir_db=sir_db, matching=match)


@dataclass
class McSirReport:
    """Aggregate over Monte-Carlo runs: per-run mean scores and their spread."""

    run_means: np.ndarray          # mean SIR of each successful run
    M: float                       # mean of run means
    S: float                       # std of run means
    runs: List[SirReport] = field(default_factory=list)
    stage1_run_means: Optional[np.ndarray] = None
    n_failed: int = 0
    master_seed: int = 0

    @classmethod
    def from_runs(cls, reports: List[SirReport], n_failed: int = 0,
                  master_seed: int = 0,
                  stage1: Optional[List[SirReport]] = None) -> "McSirReport":
        means = np.array([r.mean_db for r in reports])
        s1 = np.array([r.mean_db for r in stage1]) if stage1 else None
        return cls(run_means=means, M=float(means.mean()),
                   S=float(means.std()), runs=reports,
                   stage1_run_means=s1, n_failed=n_failed,
                   master_seed=master_seed)

    def to_json(self) -> str:
        return json.dumps({
            "M": self.M,
            "S": self.S,
            "n_runs": int(self.run_means.size),
            "n_failed": self.n_failed,
            "master_seed": self.master_seed,
            "run_means": self.run_means.tolist(),
            "stage1_run_means": (None if self.stage1_run_means is None
                                 else self.stage1_run_means.tolist()),
        })

    def runs_csv(self) -> str:
        lines = ["run,mean_sir_db,stage1_mean_sir_db"]
        for i, m in enumerate(self.run_means):
            s1 = ("" if self.stage1_run_means is None
                  else f"{self.stage1_run_means[i]:.17g}")
            lines.append(f"{i},{m:.17g},{s1}")
        return "\n".join(lines) + "\n"
