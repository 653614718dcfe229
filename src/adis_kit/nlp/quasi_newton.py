"""SR1 and BFGS Hessian approximations, full and limited-memory.

All variants expose the same small surface: ``update(s, y)`` returning whether
the pair was applied, and ``matrix()`` returning the current dense
approximation. Limited-memory variants keep the last ``memory`` pairs and
rebuild the dense matrix from a scaled identity on demand (cached between
updates); at the problem sizes this solver targets that is equivalent to the
compact representation and avoids its middle-matrix degeneracies.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

import numpy as np

SR1_SKIP_FACTOR = 1e-8
BFGS_CURVATURE_FLOOR = 1e-12


def sr1_update(B: np.ndarray, s: np.ndarray, y: np.ndarray,
               skip_factor: float = SR1_SKIP_FACTOR) -> Tuple[np.ndarray, bool]:
    """One symmetric rank-1 update; skipped when the denominator is unsafe."""
    w = y - B @ s
    den = float(w @ s)
    if abs(den) <= skip_factor * np.linalg.norm(s) * np.linalg.norm(w):
        return B, False
    return B + np.outer(w, w) / den, True


def bfgs_update(B: np.ndarray, s: np.ndarray, y: np.ndarray,
                curvature_floor: float = BFGS_CURVATURE_FLOOR
                ) -> Tuple[np.ndarray, bool]:
    """One BFGS update; skipped when s'y fails the curvature floor."""
    ys = float(y @ s)
    if ys <= curvature_floor * np.linalg.norm(s) * np.linalg.norm(y):
        return B, False
    Bs = B @ s
    sBs = float(s @ Bs)
    if sBs <= 0.0:
        return B, False
    return B + np.outer(y, y) / ys - np.outer(Bs, Bs) / sBs, True


def quasi_newton_update(B: np.ndarray, s: np.ndarray, y: np.ndarray,
                        kind: str = "sr1") -> Tuple[np.ndarray, bool]:
    """Functional update entry point; ``kind`` is ``"sr1"`` or ``"bfgs"``."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(s) == 0.0:
        raise ValueError("zero step")
    kind = kind.lower()
    if kind == "sr1":
        return sr1_update(np.asarray(B, dtype=float), s, y)
    if kind == "bfgs":
        return bfgs_update(np.asarray(B, dtype=float), s, y)
    raise ValueError(f"unknown quasi-Newton kind {kind!r}")


class DenseQuasiNewton:
    """Full-memory SR1 or BFGS approximation held as a dense matrix."""

    def __init__(self, n: int, kind: str = "sr1", gamma: float = 1.0):
        self.n = n
        self.kind = kind.lower()
        if self.kind not in ("sr1", "bfgs"):
            raise ValueError(f"unknown quasi-Newton kind {kind!r}")
        self._B = gamma * np.eye(n)
        self.n_skipped = 0
        self.n_applied = 0

    @classmethod
    def from_matrix(cls, B: np.ndarray, kind: str = "sr1") -> "DenseQuasiNewton":
        obj = cls(B.shape[0], kind=kind)
        obj._B = np.asarray(B, dtype=float).copy()
        return obj

    def update(self, s: np.ndarray, y: np.ndarray) -> bool:
        self._B, applied = quasi_newton_update(self._B, s, y, self.kind)
        if applied:
            self.n_applied += 1
        else:
            self.n_skipped += 1
        return applied

    def matrix(self) -> np.ndarray:
        return self._B


class LimitedQuasiNewton:
    """Limited-memory SR1 or BFGS over a window of recent (s, y) pairs."""

    def __init__(self, n: int, kind: str = "l-sr1", gamma: float = 1.0,
                 memory: int = 10):
        self.n = n
        base = kind.lower().replace("l-", "")
        if base not in ("sr1", "bfgs"):
            raise ValueError(f"unknown quasi-Newton kind {kind!r}")
        self.kind = base
        self.gamma0 = gamma
        self.memory = memory
        self._pairs: Deque[Tuple[np.ndarray, np.ndarray]] = deque(maxlen=memory)
        self._cache: np.ndarray | None = None
        self.n_skipped = 0
        self.n_applied = 0

    def _base_scale(self) -> float:
        if self.kind == "bfgs" and self._pairs:
            s, y = self._pairs[-1]
            ys = float(y @ s)
            if ys > 0:
                return float(y @ y) / ys
        return self.gamma0

    def update(self, s: np.ndarray, y: np.ndarray) -> bool:
        # the skip rule is evaluated against the current matrix, as in the
        # full-memory recursion
        _, applied = quasi_newton_update(self.matrix(), s, y, self.kind)
        if applied:
            self._pairs.append((s.copy(), y.copy()))
            self._cache = None
            self.n_applied += 1
        else:
            self.n_skipped += 1
        return applied

    def matrix(self) -> np.ndarray:
        if self._cache is None:
            B = self._base_scale() * np.eye(self.n)
            for s, y in self._pairs:
                B, _ = quasi_newton_update(B, s, y, self.kind)
            self._cache = B
        return self._cache


def make_quasi_newton(kind: str, n: int, gamma: float, memory: int = 10):
    kind = kind.lower()
    if kind in ("sr1", "bfgs"):
        return DenseQuasiNewton(n, kind=kind, gamma=gamma)
    if kind in ("l-sr1", "l-bfgs"):
        return LimitedQuasiNewton(n, kind=kind, gamma=gamma, memory=memory)
    raise ValueError(f"unknown quasi-Newton kind {kind!r}")
