"""Validation grid for the latent-dimensionality estimator.

Cells sweep source family, signal-to-noise ratio and latent fraction at fixed
p and n; each cell repeats the simulate-estimate cycle and reports the bias
of the estimate. The ratio axis is sigma_min(A)/sigma with the mixing scaled
to sigma_min(A) = 1, so the noise level is 1/ratio.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..latdim import estimate_q
from ..whiten import center
from .sources import model_dataset

FAMILIES = ("gaussian", "uniform", "gamma")


@dataclass
class GridCell:
    family: str
    ratio: float
    q_over_p: float
    q_true: int
    mean_bias: float
    std_bias: float
    estimates: List[int] = field(default_factory=list)


@dataclass
class GridConfig:
    p: int = 50
    n: int = 1000
    families: Sequence[str] = FAMILIES
    ratios: Sequence[float] = (0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    q_fracs: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5)
    reps: int = 20
    master_seed: int = 0

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError(f"reps must be at least 1, got {self.reps}")
        bad = [r for r in self.ratios if not r > 0]
        if bad:
            raise ValueError(f"ratios must be positive, got {bad}")
        # q = round(q_frac * p) needs a latent component and a noise subspace
        bad = [qf for qf in self.q_fracs if not 1 <= round(qf * self.p) < self.p]
        if bad:
            raise ValueError(f"q_fracs {bad} need 1 <= round(q_frac * p) < p "
                             f"at p={self.p}")
        bad = [f for f in self.families if f not in FAMILIES]
        if bad:
            raise ValueError(f"unknown source families {bad}; "
                             f"choose from {list(FAMILIES)}")


def _cell_seed(cfg: GridConfig, fi: int, ri: int, qi: int, rep: int) -> int:
    ss = np.random.SeedSequence(cfg.master_seed, spawn_key=(fi, ri, qi, rep))
    return int(ss.generate_state(1)[0])


def _run_cell(cfg: GridConfig, fi: int, ri: int, qi: int) -> GridCell:
    family = cfg.families[fi]
    ratio = cfg.ratios[ri]
    qf = cfg.q_fracs[qi]
    q = int(round(qf * cfg.p))
    sigma = 1.0 / ratio
    estimates = []
    for rep in range(cfg.reps):
        seed = _cell_seed(cfg, fi, ri, qi, rep)
        X = model_dataset(cfg.p, q, cfg.n, sigma, family=family, seed=seed)
        estimates.append(estimate_q(center(X).values, seed=seed).q_hat)
    bias = np.array(estimates, dtype=float) - q
    return GridCell(family=family, ratio=float(ratio), q_over_p=float(qf),
                    q_true=q, mean_bias=float(bias.mean()),
                    std_bias=float(bias.std()), estimates=estimates)


def latdim_validation(config: Optional[GridConfig] = None) -> List[GridCell]:
    """Run every cell of the grid, ordered by family, ratio and latent
    fraction. Each repetition is seeded from its cell indices and repetition
    index, so repetition ``r`` of a cell is the same for any ``reps > r``."""
    cfg = config or GridConfig()
    cells = [_run_cell(cfg, fi, ri, qi)
             for fi in range(len(cfg.families))
             for ri in range(len(cfg.ratios))
             for qi in range(len(cfg.q_fracs))]
    cells.sort(key=lambda c: (cfg.families.index(c.family), c.ratio, c.q_over_p))
    return cells


def grid_csv(cells: List[GridCell]) -> str:
    lines = ["family,ratio,q_over_p,q_true,mean_bias,std_bias"]
    for c in cells:
        lines.append(f"{c.family},{c.ratio},{c.q_over_p},{c.q_true},"
                     f"{c.mean_bias:.17g},{c.std_bias:.17g}")
    return "\n".join(lines) + "\n"


def grid_json(cells: List[GridCell]) -> str:
    return json.dumps([{
        "family": c.family, "ratio": c.ratio, "q_over_p": c.q_over_p,
        "q_true": c.q_true, "mean_bias": c.mean_bias,
        "std_bias": c.std_bias, "estimates": c.estimates,
    } for c in cells])
