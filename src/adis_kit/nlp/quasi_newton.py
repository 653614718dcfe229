"""SR1 Hessian approximations, full and limited-memory.

SR1 is the one update rule. It may make B indefinite, and a trust-region
solver uses that: ``steihaug_cg`` leaves at negative curvature (Conn, Gould &
Toint 1991, Math. Program. 50; Byrd, Khalfan & Schnabel 1996, SIAM J. Optim.
6(4)).

Both variants expose the same small surface: ``update(s, y)`` returning
whether the pair was applied, and ``matrix()`` returning the current dense
approximation. Each also keeps ``pair_scale``, the curvature scale y'y / y's
of the last pair offered with y's > 0 (Shanno & Phua 1978, Math. Program. 14;
Nocedal & Wright 2006, eq. 6.20). Built with ``rescale_first``, a variant
resets its matrix to that scale times I just before its first pair, when
y's > 0, so only the first step is taken at the starting scale.
``solve`` builds one ``DenseQuasiNewton``. ``LimitedQuasiNewton`` keeps the
last ``memory`` pairs and rebuilds the dense matrix from a scaled identity on
demand (cached between updates); ``solve`` does not use it.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Tuple

import numpy as np

SR1_SKIP_FACTOR = 1e-8


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a vector, bit for bit, without its dispatch."""
    return math.sqrt(float(v.dot(v)))


def _sr1_terms(B: np.ndarray, s: np.ndarray, y: np.ndarray, s_norm: float):
    """``(w, den)`` of the SR1 update of ``B`` by ``(s, y)``, with ``w = y -
    B s`` and ``den = w's``; None when the denominator is unsafe."""
    w = y - B.dot(s)
    den = float(w.dot(s))
    if abs(den) <= SR1_SKIP_FACTOR * s_norm * _norm(w):
        return None
    return w, den


def sr1_update(B: np.ndarray, s: np.ndarray, y: np.ndarray, s_norm: float
               ) -> Tuple[np.ndarray, bool]:
    """One symmetric rank-1 update, ``s_norm`` being ``|s|``; skipped when
    the denominator is unsafe."""
    terms = _sr1_terms(B, s, y, s_norm)
    if terms is None:
        return B, False
    w, den = terms
    # B + outer(w, w) / den, built in the outer product's own buffer
    M = np.multiply.outer(w, w)
    M /= den
    M += B
    return M, True


def _check_pair(s, y) -> Tuple[np.ndarray, np.ndarray, float]:
    """The pair as float arrays and ``|s|``; a zero step (s's = 0) is an
    error."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    ss = float(s.dot(s))
    if ss == 0.0:
        raise ValueError("zero step")
    return s, y, math.sqrt(ss)


def quasi_newton_update(B: np.ndarray, s: np.ndarray, y: np.ndarray
                        ) -> Tuple[np.ndarray, bool]:
    """Functional SR1 update entry point."""
    s, y, s_norm = _check_pair(s, y)
    return sr1_update(np.asarray(B, dtype=float), s, y, s_norm)


class _PairScale:
    """The scale bookkeeping both variants share."""

    rescale_first = False
    pair_scale = None

    def _take_scale(self, s: np.ndarray, y: np.ndarray):
        """Note y'y / y's of the pair when y's > 0 (and the ratio is
        finite); return it when this is the first pair of a
        ``rescale_first`` approximation, else None."""
        ys = float(y.dot(s))
        scale = float(y.dot(y)) / ys if ys > 0.0 else math.nan
        first, self.rescale_first = self.rescale_first, False
        if not math.isfinite(scale):
            return None
        self.pair_scale = scale
        return scale if first else None


class DenseQuasiNewton(_PairScale):
    """Full-memory SR1 approximation held as a dense matrix."""

    def __init__(self, n: int, gamma: float = 1.0,
                 rescale_first: bool = False):
        self.n = n
        self._B = gamma * np.eye(n)
        self.rescale_first = rescale_first

    @classmethod
    def from_matrix(cls, B: np.ndarray) -> "DenseQuasiNewton":
        obj = cls(B.shape[0])
        obj._B = np.asarray(B, dtype=float).copy()
        return obj

    def update(self, s: np.ndarray, y: np.ndarray) -> bool:
        s, y, s_norm = _check_pair(s, y)
        scale = self._take_scale(s, y)
        if scale is not None:
            self._B = scale * np.eye(self.n)
        self._B, applied = sr1_update(self._B, s, y, s_norm)
        return applied

    def matrix(self) -> np.ndarray:
        return self._B


# Nothing in the package builds this class. It stays only because the
# benchmark's tracer names LimitedQuasiNewton.update; ROADMAP item 8 deletes
# it once item 4 has taken that name out of the tracer.
class LimitedQuasiNewton(_PairScale):
    """Limited-memory SR1 over a window of recent (s, y) pairs."""

    def __init__(self, n: int, gamma: float = 1.0, memory: int = 10,
                 rescale_first: bool = False):
        self.n = n
        self.gamma0 = gamma
        self.memory = memory
        self.rescale_first = rescale_first
        self._pairs: Deque[Tuple[np.ndarray, np.ndarray]] = deque(maxlen=memory)
        self._cache: np.ndarray | None = None

    def update(self, s: np.ndarray, y: np.ndarray) -> bool:
        # the skip rule is evaluated against the current matrix, as in the
        # full-memory recursion, from the terms that decide it alone
        s, y, s_norm = _check_pair(s, y)
        scale = self._take_scale(s, y)
        if scale is not None:
            self.gamma0 = scale
            self._cache = None
        applied = _sr1_terms(self.matrix(), s, y, s_norm) is not None
        if applied:
            self._pairs.append((s.copy(), y.copy()))
            self._cache = None
        return applied

    def matrix(self) -> np.ndarray:
        if self._cache is None:
            B = self.gamma0 * np.eye(self.n)
            for s, y in self._pairs:
                B, _ = quasi_newton_update(B, s, y)
            self._cache = B
        return self._cache

