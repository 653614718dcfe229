"""Synthetic source generators for desk-scale benchmarking.

External benchmark recordings are not redistributed; these parameterized
generators stand in for them. Every generator standardizes each source to
zero mean and unit variance and is deterministic for a given seed.
"""

from __future__ import annotations

import numpy as np

# sparse_bells: bells per source, and each bell's width as a fraction of n
BELLS_PER_SOURCE = 2
BELL_WIDTH_FRAC = 0.008


def _check_samples(n: int) -> None:
    """Every generator needs n >= 2, the fewest samples
    ``contrast.negentropy`` scores; checked before any array is built."""
    if n < 2:
        raise ValueError(f"need at least 2 samples, got n={n}")


def _standardize(S: np.ndarray) -> np.ndarray:
    S = S - S.mean(axis=1, keepdims=True)
    sd = S.std(axis=1, keepdims=True)
    sd[sd == 0] = 1.0
    return S / sd


def synth5(n: int = 2000, seed: int = 0) -> np.ndarray:
    """Five classic test sources: sine, square, sawtooth, uniform, Laplacian."""
    _check_samples(n)
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    rows = [
        np.sin(2 * np.pi * 7.3 * t / n),
        np.sign(np.sin(2 * np.pi * 3.7 * t / n + 0.5)),
        2.0 * ((5.1 * t / n) % 1.0) - 1.0,
        rng.uniform(-1.0, 1.0, n),
        rng.laplace(0.0, 1.0, n),
    ]
    return _standardize(np.array(rows))


def sparse_bells(q: int = 10, n: int = 2000, seed: int = 0) -> np.ndarray:
    """Sparse smooth sources: a few Gaussian bells each, mostly zero."""
    _check_samples(n)
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    width = max(2.0, BELL_WIDTH_FRAC * n)
    S = np.zeros((q, n))
    bumps = BELLS_PER_SOURCE
    for k in range(q):
        centers = rng.uniform(0.05 * n, 0.95 * n, bumps)
        amps = rng.uniform(0.5, 1.5, bumps) * rng.choice([-1.0, 1.0], bumps)
        for c, a in zip(centers, amps):
            S[k] += a * np.exp(-0.5 * ((t - c) / width) ** 2)
    return _standardize(S)


def narrowband(q: int = 5, n: int = 2000, seed: int = 0) -> np.ndarray:
    """Narrow-band sources: a cluster of sinusoids per source."""
    _check_samples(n)
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    S = np.zeros((q, n))
    for k in range(q):
        f0 = 0.02 + 0.06 * k + rng.uniform(0, 0.01)
        for df in rng.uniform(-0.002, 0.002, 4):
            S[k] += np.sin(2 * np.pi * (f0 + df) * t + rng.uniform(0, 2 * np.pi))
    return _standardize(S)


def speech_like(q: int = 5, n: int = 2000, seed: int = 0) -> np.ndarray:
    """Speech-like sources: AR(2) with poles near the unit circle, driven by
    heavy-tailed innovations."""
    _check_samples(n)
    rng = np.random.default_rng(seed)
    S = np.empty((q, n))
    for k in range(q):
        radius = rng.uniform(0.93, 0.985)
        angle = rng.uniform(0.1, np.pi - 0.1)
        a1 = 2 * radius * np.cos(angle)
        a2 = -radius ** 2
        e = rng.laplace(0.0, 1.0, n + 200)
        x = np.zeros(n + 200)
        for t in range(2, n + 200):
            x[t] = a1 * x[t - 1] + a2 * x[t - 2] + e[t]
        S[k] = x[200:]
    return _standardize(S)


def model_dataset(p: int, q: int, n: int, sigma: float, family: str = "gaussian",
                  seed: int = 0, return_truth: bool = False):
    """Noisy mixed data with a uniform mixing matrix scaled to unit smallest
    singular value. Source families: gaussian, uniform (negative kurtosis
    excess), gamma (positive)."""
    _check_samples(n)
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, (p, q))
    A = A / np.linalg.svd(A, compute_uv=False)[-1]
    if family == "gaussian":
        S = rng.standard_normal((q, n))
    elif family == "uniform":
        S = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), (q, n))
    elif family == "gamma":
        S = rng.gamma(1.0, 1.0, (q, n)) - 1.0
    else:
        raise ValueError(f"unknown source family {family!r}")
    X = A @ S + sigma * rng.standard_normal((p, n))
    if return_truth:
        return X, A, S
    return X


SOURCE_SUITES = {
    "synth5": synth5,
    "sparse-bells": sparse_bells,
    "narrowband": narrowband,
    "speech-like": speech_like,
}


def make_sources(name: str, n: int, seed: int) -> np.ndarray:
    try:
        gen = SOURCE_SUITES[name]
    except KeyError:
        raise ValueError(f"unknown source suite {name!r}; "
                         f"available: {sorted(SOURCE_SUITES)}") from None
    return gen(n=n, seed=seed)
