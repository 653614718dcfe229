"""Monte-Carlo separation benchmark: fresh mixing matrix per run.

The baseline protocol is square noiseless mixing with the latent dimension
known. The channel-centering projection would destroy one direction of a
square mixture, so runs here use sample-mean centering only. Per-run seeds
derive from the master seed as SeedSequence(master, spawn_key=(run,)); child
0 seeds the mixing matrix, child 1 the decomposition, so each run's result
depends only on the master seed and its run index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from ..pursuit import PursuitConfig, PursuitError, decompose
from ..whiten import DataMatrix
from .mixing import MixingFamily, MixingSpec, gen_mixing
from .sir import McSirReport, SirReport, sir


@dataclass
class McRunDetail:
    run: int
    report: Optional[SirReport]
    stage1_report: Optional[SirReport]
    joint_gain: float = 0.0          # stage2 - stage1 summed objective
    error: Optional[str] = None


def _run_seeds(master_seed: int, run: int) -> tuple[int, int]:
    ss = np.random.SeedSequence(master_seed, spawn_key=(run,))
    mix_child, dec_child = ss.spawn(2)
    return (int(mix_child.generate_state(1)[0]),
            int(dec_child.generate_state(1)[0]))


def _single_run(run: int, sources: np.ndarray, family: MixingFamily,
                config: PursuitConfig, master_seed: int) -> McRunDetail:
    q = sources.shape[0]
    mix_seed, dec_seed = _run_seeds(master_seed, run)
    try:
        A = gen_mixing(MixingSpec(family=family, dim=q, seed=mix_seed))
        X = A @ sources
        cfg = replace(config, rng_seed=dec_seed, channel_center=False)
        result, model, _ = decompose(DataMatrix(X), q=q, config=cfg)
        report = sir(sources, result.S_hat)
        stage1 = sir(sources, result.Q_stage1 @ model.x_tilde)
        gain = float(result.stage2_objectives.sum()
                     - result.stage1_objectives.sum())
        return McRunDetail(run=run, report=report, stage1_report=stage1,
                           joint_gain=gain)
    except (PursuitError, ValueError, np.linalg.LinAlgError) as exc:
        return McRunDetail(run=run, report=None, stage1_report=None,
                           error=f"{type(exc).__name__}: {exc}")


def monte_carlo_bss(sources: np.ndarray, family: MixingFamily | str,
                    n_b: int, config: Optional[PursuitConfig] = None,
                    master_seed: int = 0
                    ) -> tuple[McSirReport, List[McRunDetail]]:
    """Mix the given sources ``n_b`` times and score each decomposition.

    Returns the aggregate report (failures excluded, counted) plus per-run
    details in run order. Run ``r`` gives the same result for any ``n_b > r``.
    """
    if n_b < 1:
        raise ValueError(f"n_b must be at least 1, got {n_b}")
    sources = np.asarray(sources, dtype=float)
    q = sources.shape[0]
    if np.linalg.matrix_rank(sources @ sources.T) < q:
        raise ValueError("sources are rank deficient")
    family = MixingFamily(family)
    cfg = config or PursuitConfig()
    details = [_single_run(run, sources, family, cfg, master_seed)
               for run in range(n_b)]
    good = [d for d in details if d.report is not None]
    agg = McSirReport.from_runs(
        [d.report for d in good], n_failed=n_b - len(good),
        master_seed=master_seed, stage1=[d.stage1_report for d in good])
    return agg, details
