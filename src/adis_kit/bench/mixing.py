"""Seeded generators for the mixing-matrix families used in benchmarking."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.linalg

MAX_REGEN = 100
# the random-sparse fill fraction, and the ill-conditioned family's target
# condition number
SPARSE_DENSITY = 0.2
COND_TARGET = 1e4


class MixingFamily(enum.Enum):
    UNIFORM_RANDOM = "uniform-random"
    RANDOM_SPARSE = "random-sparse"
    RANDOM_BIPOLAR = "random-bipolar"
    SYMMETRIC_RANDOM = "symmetric-random"
    ILL_CONDITIONED_RANDOM = "ill-conditioned-random"
    HILBERT = "hilbert"
    TOEPLITZ = "toeplitz"
    HANKEL = "hankel"
    ORTHOGONAL = "orthogonal"
    NONNEGATIVE_SYMMETRIC = "nonnegative-symmetric"
    BIPOLAR_SYMMETRIC = "bipolar-symmetric"
    SKEW_SYMMETRIC = "skew-symmetric"


@dataclass
class MixingSpec:
    family: MixingFamily
    dim: int
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.family, str):
            self.family = MixingFamily(self.family)
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.family is MixingFamily.SKEW_SYMMETRIC and self.dim % 2 == 1:
            raise ValueError("skew-symmetric matrices of odd dimension are "
                             "singular; pick an even dim")


def _draw(spec: MixingSpec, seed: int) -> np.ndarray:
    q = spec.dim
    rng = np.random.default_rng(seed)
    fam = spec.family
    if fam is MixingFamily.UNIFORM_RANDOM:
        return rng.uniform(0.0, 1.0, (q, q))
    if fam is MixingFamily.RANDOM_SPARSE:
        mask = rng.random((q, q)) < SPARSE_DENSITY
        return rng.standard_normal((q, q)) * mask
    if fam is MixingFamily.RANDOM_BIPOLAR:
        return rng.choice([-1.0, 1.0], size=(q, q))
    if fam is MixingFamily.SYMMETRIC_RANDOM:
        M = rng.uniform(-1.0, 1.0, (q, q))
        return (M + M.T) / 2.0
    if fam is MixingFamily.ILL_CONDITIONED_RANDOM:
        U, _ = np.linalg.qr(rng.standard_normal((q, q)))
        V, _ = np.linalg.qr(rng.standard_normal((q, q)))
        if q == 1:
            return np.array([[1.0]])
        s = np.geomspace(1.0, 1.0 / COND_TARGET, q)
        return U @ np.diag(s) @ V.T
    if fam is MixingFamily.HILBERT:
        return scipy.linalg.hilbert(q)
    if fam is MixingFamily.TOEPLITZ:
        c = rng.uniform(0.0, 1.0, q)
        r = np.concatenate([[c[0]], rng.uniform(0.0, 1.0, q - 1)])
        return scipy.linalg.toeplitz(c, r)
    if fam is MixingFamily.HANKEL:
        c = rng.uniform(0.0, 1.0, q)
        r = np.concatenate([[c[-1]], rng.uniform(0.0, 1.0, q - 1)])
        return scipy.linalg.hankel(c, r)
    if fam is MixingFamily.ORTHOGONAL:
        Q, R = np.linalg.qr(rng.standard_normal((q, q)))
        return Q * np.sign(np.diag(R))[None, :]
    if fam is MixingFamily.NONNEGATIVE_SYMMETRIC:
        M = rng.uniform(0.0, 1.0, (q, q))
        return (M + M.T) / 2.0
    if fam is MixingFamily.BIPOLAR_SYMMETRIC:
        upper = rng.choice([-1.0, 1.0], size=(q, q))
        return np.triu(upper) + np.triu(upper, 1).T
    if fam is MixingFamily.SKEW_SYMMETRIC:
        M = rng.uniform(-1.0, 1.0, (q, q))
        return (M - M.T) / 2.0
    raise ValueError(f"unhandled family {fam}")  # pragma: no cover


def gen_mixing(spec: MixingSpec) -> np.ndarray:
    """Generate a full-rank q x q matrix of the requested family.

    Rank-deficient draws (possible for the sparse family) are regenerated
    with an incremented seed, up to a fixed number of attempts.
    """
    for attempt in range(MAX_REGEN):
        A = _draw(spec, spec.seed + attempt)
        if np.linalg.matrix_rank(A) == spec.dim:
            return A
    raise RuntimeError(
        f"no full-rank draw for {spec.family.value} (dim {spec.dim}) in "
        f"{MAX_REGEN} attempts from seed {spec.seed}")
