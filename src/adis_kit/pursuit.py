"""Multistage source extraction.

Stage 0 scatters random unit vectors over the feasible manifold and keeps the
best-scoring few as seeds. Stage 1 extracts one direction at a time in
deflated coordinates (an orthonormal basis of the complement of the earlier
directions), so orthogonality is structural and each solve carries a single
unit-norm constraint. Stage 2 re-optimizes all directions jointly by rotating
the Stage 1 solution, ``Q = C(K) @ Q_stage1`` with C the Cayley transform of
a skew-symmetric K, in one unconstrained solve over K; it falls back to the
Stage 1 solution, explicitly, if that solve fails or loses objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .contrast import (ContrastFn, LogCoshNegentropy, ProblemFactory,
                       cayley_rotation)
from .latdim import LatDimSummary, estimate_q
from .nlp import AugLagConfig, SolveTrace, TraceRecord, solve
from .whiten import DataMatrix, PpcaModel, SourceStats, center, fit_ppca, source_stats


class PursuitError(RuntimeError):
    """Extraction failed; carries the stage name and all solver traces."""

    def __init__(self, stage: str, message: str, traces=None):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.traces = traces or []


@dataclass
class PursuitConfig:
    n_seeds: int = 1000          # random starts scored in Stage 0
    retained: int = 2            # seeds carried into Stage 1 solves
    run_stage2: bool = True
    rng_seed: int = 0
    solver: AugLagConfig = field(default_factory=AugLagConfig)
    channel_center: bool = True

    def validate(self):
        if not 1 <= self.retained <= self.n_seeds:
            raise ValueError("need 1 <= retained <= n_seeds")
        self.solver.validate()


@dataclass
class PursuitResult:
    Q: np.ndarray                      # q x q, rows are the directions
    S_hat: np.ndarray                  # q x n sources, equals Q @ x_tilde
    component_traces: List[SolveTrace]
    joint_trace: Optional[SolveTrace]
    stage1_objectives: np.ndarray
    stage2_objectives: np.ndarray
    Q_stage1: np.ndarray
    joint_fallback: bool = False       # Stage 2 result was discarded
    latdim: Optional[LatDimSummary] = None

    @property
    def q_source(self) -> str:
        """``"estimated"`` when the latent dimension came from ``estimate_q``,
        ``"user"`` when it was given."""
        return "user" if self.latdim is None else "estimated"


def orthonormal_complement(priors: np.ndarray, q: int) -> np.ndarray:
    """Orthonormal basis of the complement of the given rows in R^q.

    Modified Gram-Schmidt with one re-orthogonalization pass; candidate
    vectors are the standard basis in index order, so the result is
    deterministic.
    """
    priors = np.asarray(priors, dtype=float).reshape(-1, q)
    k = priors.shape[0]
    cols = []
    for i in range(q):
        v = np.zeros(q)
        v[i] = 1.0
        for _ in range(2):
            for w in priors:
                v -= (v @ w) * w
            for w in cols:
                v -= (v @ w) * w
        norm = np.linalg.norm(v)
        if norm > 1e-10:
            cols.append(v / norm)
        if len(cols) == q - k:
            break
    if len(cols) != q - k:
        raise ValueError("could not complete an orthonormal complement")
    return np.stack(cols, axis=1)


def seed_search(contrast: ContrastFn, w_basis: np.ndarray,
                x_tilde: np.ndarray, n_seeds: int, retained: int,
                rng: np.random.Generator
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Score random unit vectors in reduced coordinates, keep the best.

    Draws uniform entries on (-1, 1), normalizes each draw, scores the
    lifted directions with ``contrast.scores`` and returns the ``retained``
    reduced vectors with the highest scores (ties keep the lower draw index).
    Returns ``(seeds, scores)`` with seeds as rows.
    """
    W = np.asarray(w_basis, dtype=float)
    X = np.asarray(x_tilde, dtype=float)
    r = W.shape[1]
    Z = rng.uniform(-1.0, 1.0, size=(n_seeds, r))
    norms = np.linalg.norm(Z, axis=1)
    # a zero draw has probability zero; re-draw deterministically if it happens
    while np.any(norms == 0.0):
        bad = norms == 0.0
        Z[bad] = rng.uniform(-1.0, 1.0, size=(int(bad.sum()), r))
        norms = np.linalg.norm(Z, axis=1)
    Z /= norms[:, None]
    scores = contrast.scores(Z @ W.T, X)
    order = np.argsort(-scores, kind="stable")[:retained]
    return Z[order], scores[order]


def _closed_form_last_component(factory: ProblemFactory, w_basis: np.ndarray,
                                x_tilde: np.ndarray, eta_con_star: float
                                ) -> Tuple[np.ndarray, float, SolveTrace]:
    """One-dimensional manifold: the direction is +-basis, pick the better.

    No freedom is left to meet user constraints, so the trace carries their
    true residual at the chosen direction and reads ``infeasible`` when it
    exceeds ``eta_con_star``.
    """
    w = w_basis[:, 0]
    best_sign = 1.0
    best_val, _ = factory.score(w, x_tilde)
    val_neg, _ = factory.score(-w, x_tilde)
    if val_neg > best_val:
        best_sign, best_val = -1.0, val_neg
    w = best_sign * w
    con = factory.constraints.violation(w, x_tilde)
    status = "converged" if con <= eta_con_star else "infeasible"
    trace = SolveTrace()
    trace.append(TraceRecord(outer=0, inner=1, f=-best_val,
                             lagrangian=-best_val, pg_norm=0.0, c_norm=con,
                             lam_norm=0.0, mu=0.0, delta=0.0, rho=None,
                             accepted=True, qn_skipped=False,
                             status=status, kkt_grad=0.0, kkt_con=con))
    return w, best_val, trace


def extract_component(k: int, priors: np.ndarray, x_tilde: np.ndarray,
                      factory: ProblemFactory, config: PursuitConfig,
                      rng: np.random.Generator
                      ) -> Tuple[np.ndarray, float, SolveTrace]:
    """Extract direction ``k`` (1-based) orthogonal to the prior rows.

    Runs Stage 0 seeding then one solve per retained seed; returns the
    best-scoring converged direction, its score and the trace of the winning
    solve. Raises ``PursuitError`` with all traces when every solve fails.
    """
    X = np.asarray(x_tilde, dtype=float)
    q = X.shape[0]
    W = orthonormal_complement(priors, q)
    r = W.shape[1]

    if r == 1:
        return _closed_form_last_component(factory, W, X,
                                           config.solver.eta_con_star)

    seeds, _ = seed_search(factory.contrast, W, X, config.n_seeds,
                           config.retained, rng)
    problem = factory.component_problem(W, X)
    traces, winners = [], []
    for z0 in seeds:
        sol = solve(problem, x0=z0, config=config.solver)
        traces.append(sol.trace)
        if sol.converged:
            z = sol.x / np.linalg.norm(sol.x)   # polish onto the sphere
            w = W @ z
            value, _ = factory.score(w, X)
            winners.append((value, w, sol.trace))
    if not winners:
        raise PursuitError(f"component {k}",
                           f"all {len(seeds)} seed solves failed to converge",
                           traces)
    value, w, trace = max(winners, key=lambda t: t[0])
    return w, value, trace


def refine_joint(Q_init: np.ndarray, x_tilde: np.ndarray,
                 factory: ProblemFactory, config: PursuitConfig
                 ) -> Tuple[np.ndarray, Optional[SolveTrace], bool]:
    """Joint re-optimization of all directions from the Stage 1 solution.

    The directions move on the rotation group, ``Q = C(K) @ Q_init`` with C
    the Cayley transform of a skew-symmetric K, in one unconstrained solve
    over the q(q-1)/2 entries of K from K = 0. Orthonormality is structural,
    so no penalty or multiplier has to enforce it. Cayley reaches every
    rotation of ``Q_init`` that has no eigenvalue -1, which leaves out only
    rotations by exactly pi in some plane.

    Falls back to the input when the solve does not converge or loses
    objective value; returns ``(Q, trace, fell_back)`` with the trace of the
    joint solve.
    """
    X = np.asarray(x_tilde, dtype=float)
    Q_init = np.asarray(Q_init, dtype=float)
    q = Q_init.shape[0]
    problem = factory.joint_problem(X, Q_init)
    sol = solve(problem, x0=np.zeros(problem.dim), config=config.solver)
    if not sol.converged:
        return Q_init, sol.trace, True

    def joint_value(Q):
        return sum(factory.score(Q[k], X)[0] for k in range(q))

    Q_new, _ = cayley_rotation(sol.x, Q_init)
    if joint_value(Q_new) < joint_value(Q_init) - 1e-8:
        return Q_init, sol.trace, True
    return Q_new, sol.trace, False


def _fix_signs(Q: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Sign convention: positive skewness per source, falling back to a
    positive largest-magnitude entry. Returns the flip signs applied."""
    signs = np.ones(Q.shape[0])
    for k, s in enumerate(S):
        sd = s.std()
        skew = float(np.mean((s - s.mean()) ** 3)) / sd ** 3 if sd > 0 else 0.0
        if abs(skew) > 1e-8:
            signs[k] = np.sign(skew)
        else:
            signs[k] = np.sign(s[np.argmax(np.abs(s))]) or 1.0
    return signs


def run_stages(x_tilde: np.ndarray, factory: ProblemFactory,
               config: PursuitConfig) -> PursuitResult:
    """Stage 0/1 deflation over all components plus optional Stage 2."""
    X = np.asarray(x_tilde, dtype=float)
    q = X.shape[0]
    seed_seq = np.random.SeedSequence(config.rng_seed)
    children = seed_seq.spawn(q)

    rows: List[np.ndarray] = []
    values: List[float] = []
    traces: List[SolveTrace] = []
    for k in range(1, q + 1):
        priors = np.array(rows) if rows else np.zeros((0, q))
        rng = np.random.default_rng(children[k - 1])
        w, value, trace = extract_component(k, priors, X, factory, config, rng)
        rows.append(w)
        values.append(value)
        traces.append(trace)
    Q1 = np.array(rows)
    stage1 = np.array(values)

    joint_trace = None
    fallback = False
    Q = Q1
    if config.run_stage2 and q >= 2:
        Q, joint_trace, fallback = refine_joint(Q1, X, factory, config)
    stage2 = np.array([factory.score(Q[k], X)[0] for k in range(q)])

    S = Q @ X
    signs = _fix_signs(Q, S)
    Q = signs[:, None] * Q
    S = Q @ X

    return PursuitResult(
        Q=Q, S_hat=S, component_traces=traces,
        joint_trace=joint_trace, stage1_objectives=stage1,
        stage2_objectives=stage2, Q_stage1=Q1, joint_fallback=fallback)


def decompose(data: DataMatrix, q: Optional[int] = None,
              config: Optional[PursuitConfig] = None,
              factory: Optional[ProblemFactory] = None
              ) -> Tuple[PursuitResult, PpcaModel, Optional[SourceStats]]:
    """Full pipeline: center, estimate the latent dimension when not given,
    whiten, extract sources, compute source statistics.

    Source statistics need p > q (the residual has p - q degrees of freedom);
    for square problems they are returned as None. Deterministic for a fixed
    ``config.rng_seed``. ``factory`` carries the contrast, hook and user
    constraints; the default is the log-cosh negentropy alone.
    """
    cfg = config or PursuitConfig()
    cfg.validate()
    if factory is None:
        factory = ProblemFactory(LogCoshNegentropy())

    latdim_summary = None
    if q is None:
        centered, _ = center(data, channel_center=cfg.channel_center)
        latdim_summary = estimate_q(centered.values, seed=cfg.rng_seed)
        q = latdim_summary.q_hat
    if not 1 <= q <= data.p:
        raise ValueError(f"latent dimension {q} out of range [1, {data.p}]")

    model = fit_ppca(data, q, channel_center=cfg.channel_center,
                     degenerate="clip")
    result = run_stages(model.x_tilde, factory, cfg)
    result.latdim = latdim_summary

    stats = None
    if data.p > q:
        stats = source_stats(model, data, result.S_hat,
                             mixing=model.mixing_for(result.Q))
    return result, model, stats
