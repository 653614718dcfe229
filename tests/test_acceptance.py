"""Acceptance suite: one test per criterion, each printing PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Criterion 5's final clause is expected to fail; see the note on the
joint-stage/capped-source interaction in its test.
"""

import os
import time

import numpy as np
import pytest
from scipy.optimize import nnls as scipy_nnls

from adis_kit.bench import (
    GridConfig,
    electron_problem,
    latdim_validation,
    monte_carlo_bss,
    nnls_problem,
    polygon_area,
    polygon_problem,
    random_nnls_instance,
    synth5,
)
from adis_kit.bench.sir import sir
from adis_kit.contrast import negentropy
from adis_kit.latdim import estimate_q
from adis_kit.nlp import (
    AugLagConfig,
    DenseQuasiNewton,
    cauchy_point,
    check_gradients,
    solve,
    steihaug_cg,
)
from adis_kit.bench.sources import model_dataset
from adis_kit.pursuit import PursuitConfig, decompose
from adis_kit.whiten import DataMatrix, center, fit_ppca

ELECTRON_50_BEST = 1055.1823
POLYGON_6_BEST = 0.675
NNLS_300_BEST = 633785.4462


def report(name, ok, detail=""):
    print(f"  {'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    return ok


def test_criterion_1_electron_50():
    print("\ncriterion 1: electron-50")
    t0 = time.time()
    sol = solve(electron_problem(50, seed=0), config=AugLagConfig())
    elapsed = time.time() - t0
    ok = True
    rel = abs(sol.f - ELECTRON_50_BEST) / ELECTRON_50_BEST
    ok &= report("objective within rel 1e-3 of 1055.1823", rel <= 1e-3,
                 f"f={sol.f:.6f}, rel={rel:.2e}")
    ok &= report("KKT residuals <= 1e-6", sol.kkt_grad <= 1e-6
                 and sol.kkt_con <= 1e-6,
                 f"grad={sol.kkt_grad:.2e}, con={sol.kkt_con:.2e}")
    ok &= report("outer iterations <= 40", sol.n_outer <= 40,
                 f"outer={sol.n_outer}")
    ok &= report("runtime <= 60 s", elapsed <= 60.0, f"{elapsed:.1f}s")
    assert ok


def test_criterion_2_polygon_6_multistart():
    print("\ncriterion 2: largest small polygon, n_v=6, 5 starts")
    t0 = time.time()
    best_area, best_sol = -np.inf, None
    for seed in [None, 0, 1, 2, 3]:
        sol = solve(polygon_problem(6, seed=seed), config=AugLagConfig())
        if sol.converged:
            area = polygon_area(sol.x, 6)
            if area > best_area:
                best_area, best_sol = area, sol
    elapsed = time.time() - t0
    ok = True
    ok &= report("best area within 1e-3 of 0.675",
                 abs(best_area - POLYGON_6_BEST) <= 1e-3,
                 f"area={best_area:.6f}")
    ok &= report("feasibility <= 1e-6", best_sol.kkt_con <= 1e-6,
                 f"con={best_sol.kkt_con:.2e}")
    ok &= report("runtime <= 60 s", elapsed <= 60.0, f"{elapsed:.1f}s")
    assert ok


def test_criterion_3_nnls_oracle_equivalence():
    print("\ncriterion 3: NNLS vs active-set oracle, 20 instances")
    worst = 0.0
    all_converged = True
    for seed in range(20):
        A, b, C, d = random_nnls_instance(40, 20, seed=seed)
        sol = solve(nnls_problem(A, b, C, d), config=AugLagConfig())
        all_converged &= sol.converged
        _, resid = scipy_nnls(A, b)
        f_oracle = resid ** 2
        worst = max(worst, abs(sol.f - f_oracle) / max(1.0, f_oracle))
    ok = report("all 20 solves converged", all_converged)
    ok &= report("objective matches oracle within rel 1e-6", worst <= 1e-6,
                 f"worst rel={worst:.2e}")

    external = os.environ.get("ADIS_NNLS_GAMS", "")
    if external and os.path.exists(external):
        with np.load(external) as npz:
            A, b = npz["A"], npz["b"]
            C = npz["C"] if "C" in npz else np.eye(A.shape[1])
            d = npz["d"] if "d" in npz else np.zeros(C.shape[0])
        sol = solve(nnls_problem(A, b, C, d), config=AugLagConfig())
        rel = abs(sol.f - NNLS_300_BEST) / NNLS_300_BEST
        ok &= report("external 300-var instance within rel 1e-4", rel <= 1e-4,
                     f"f={sol.f:.4f}")
    else:
        print("  SKIP  external 300-var instance (set ADIS_NNLS_GAMS to run)")
    assert ok


def test_criterion_4_latent_dimensionality():
    print("\ncriterion 4: latent dimensionality grid + high-dim scenario")
    t0 = time.time()
    cfg = GridConfig(ratios=(1.0, 1.5, 2.0), q_fracs=(0.1, 0.3, 0.5),
                     reps=20, master_seed=0)
    cells = latdim_validation(cfg)
    worst = max(abs(c.mean_bias) for c in cells)
    ok = report("27 grid cells, |mean bias| <= 1 in every cell", worst <= 1.0,
                f"worst={worst:.3f}")

    # q=35 of p=100 at n=1000; noise level 0.75 reproduces the documented
    # drop-statistic peak at 34 (see the ledger note on the ratio reading)
    hits = 0
    for rep in range(20):
        X = model_dataset(100, 35, 1000, sigma=0.75, family="gaussian",
                          seed=300 + rep)
        centered = center(X)
        if estimate_q(centered.values, seed=300 + rep).q_hat == 35:
            hits += 1
    ok &= report("q_hat = 35 in >= 15 of 20 seeded reps", hits >= 15,
                 f"hits={hits}/20")
    elapsed = time.time() - t0
    ok &= report("runtime <= 10 min", elapsed <= 600.0, f"{elapsed:.0f}s")
    assert ok


def test_criterion_5_bss_quality_monte_carlo():
    print("\ncriterion 5: square noiseless Monte-Carlo on the 5-source suite")
    S = synth5(n=2000, seed=11)
    cfg = PursuitConfig(rng_seed=0)
    agg, details = monte_carlo_bss(S, "uniform-random", n_b=20, config=cfg,
                                   master_seed=1)
    ok = True
    ok &= report("no failed runs", agg.n_failed == 0,
                 f"failed={agg.n_failed}")
    med = float(np.median(agg.run_means))
    ok &= report("median per-run mean SIR >= 15 dB", med >= 15.0,
                 f"median={med:.2f} dB")
    ok &= report("std of mean SIR <= 2 dB", agg.S <= 2.0,
                 f"std={agg.S:.3f} dB")
    gains = [d.joint_gain for d in details if d.error is None]
    ok &= report("joint objective >= stage-1 objective on every run",
                 all(g >= -1e-8 for g in gains),
                 f"min gain={min(gains):.2e}")
    # Expected red: the suite's square wave is two-valued, making its true
    # direction an exact stationary point of the empirical contrast; stage 1
    # stops at its certified tolerance next to it, about 90-150 dB (stage 1
    # mean 43.34 dB), and the joint stage's genuine objective climb
    # (required by the previous clause) rotates all rows by O(1/sqrt(n)),
    # knocking the square wave to ~30 dB. Improving the joint objective and
    # preserving the square wave's stage 1 SIR are mutually exclusive on this
    # suite.
    s1 = float(np.mean(agg.stage1_run_means))
    s12 = float(np.mean(agg.run_means))
    ok &= report("stage 1+2 mean SIR >= stage 1 mean SIR - 0.1 dB",
                 s12 >= s1 - 0.1, f"stage1={s1:.2f}, stage1+2={s12:.2f}")
    assert ok


def test_criterion_6_property_suites():
    print("\ncriterion 6: property suites")
    ok = True

    # finite-difference audits
    rng = np.random.default_rng(0)
    worst_neg = 0.0
    for _ in range(5):
        r = int(rng.integers(2, 6))
        X = rng.standard_normal((r, 150))
        w = rng.standard_normal(r)
        _, grad = negentropy(w, X)
        fd = np.zeros(r)
        for i in range(r):
            h = 1e-6 * (1 + abs(w[i]))
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd[i] = (negentropy(wp, X)[0] - negentropy(wm, X)[0]) / (2 * h)
        worst_neg = max(worst_neg,
                        float(np.max(np.abs(fd - grad) / (1 + np.abs(grad)))))
    ok &= report("negentropy gradient audit rel <= 1e-5", worst_neg <= 1e-5,
                 f"worst={worst_neg:.2e}")

    audits = {
        "electron": electron_problem(6, seed=1),
        "nnls": nnls_problem(*random_nnls_instance(12, 5, seed=2)),
        "polygon": polygon_problem(5),
    }
    for name, prob in audits.items():
        x = prob.x0 if prob.x0 is not None else rng.standard_normal(prob.dim)
        err = check_gradients(prob, x + 0.01, rel_tol=1e-5)
        ok &= report(f"{name} gradient audit rel <= 1e-5", err <= 1e-5,
                     f"worst={err:.2e}")

    # SIR orthogonal decomposition identity
    S = rng.standard_normal((4, 400))
    mixed = rng.standard_normal((4, 4)) @ S
    rep = sir(S, mixed)
    G = S @ S.T
    worst_dot = 0.0
    for j in range(4):
        y = mixed[j]
        t_row = S[rep.matching[j]]
        target = (t_row @ y / (t_row @ t_row)) * t_row
        span = S.T @ np.linalg.solve(G, S @ y)
        interf = span - target
        scale = np.linalg.norm(target) * np.linalg.norm(interf)
        if scale > 0:
            worst_dot = max(worst_dot, abs(float(target @ interf)) / scale)
    ok &= report("SIR decomposition orthogonality <= 1e-10",
                 worst_dot <= 1e-10, f"worst={worst_dot:.2e}")

    # whitening covariance in the zero-floor regime
    A = rng.standard_normal((8, 4))
    model = fit_ppca(center(A @ rng.standard_normal((4, 500))), q=4)
    cov_err = float(np.max(np.abs(
        model.x_tilde @ model.x_tilde.T / 500 - np.eye(4))))
    ok &= report("whitening covariance = I within 1e-8", cov_err <= 1e-8,
                 f"err={cov_err:.2e}")

    # Q orthonormality after the joint stage
    laplace = np.random.default_rng(5).laplace(size=(3, 2500))
    Xd = rng.standard_normal((5, 3)) @ laplace
    res, _, _ = decompose(DataMatrix(Xd), q=3,
                          config=PursuitConfig(rng_seed=1, n_seeds=200))
    orth = float(np.max(np.abs(res.Q @ res.Q.T - np.eye(3))))
    ok &= report("Q orthonormality <= 1e-6 post-stage-2", orth <= 1e-6,
                 f"err={orth:.2e}")

    # secant residuals on applied updates of the SR1 state solve runs
    worst_sec = 0.0
    qn = DenseQuasiNewton(5, gamma=1.0)
    H = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    for _ in range(10):
        s = rng.standard_normal(5)
        y = H @ s
        if qn.update(s, y):
            resid = np.linalg.norm(qn.matrix() @ s - y)
            worst_sec = max(worst_sec, resid / (1 + np.linalg.norm(y)))
    ok &= report("secant residual <= 1e-10 on applied updates",
                 worst_sec <= 1e-10, f"worst={worst_sec:.2e}")

    # Steihaug boundary and model decrease on 100 random triples
    steihaug_ok = True
    for seed in range(100):
        r2 = np.random.default_rng(seed)
        n = int(r2.integers(2, 8))
        M = r2.standard_normal((n, n))
        B = (M + M.T) / 2
        g = r2.standard_normal(n)
        delta = float(r2.uniform(0.1, 3.0))
        lo, hi = np.full(n, -delta), np.full(n, delta)
        v = steihaug_cg(B, g, lo, hi, tol=1e-10)
        steihaug_ok &= bool(np.max(np.abs(v)) <= delta + 1e-12)
        p, active = cauchy_point(B, g, lo, hi)
        step = p.copy()
        free = ~active
        if free.any():
            vv = steihaug_cg(B[np.ix_(free, free)], (g + B @ p)[free],
                             -delta - p[free], delta - p[free], tol=1e-8)
            step[free] += vv
        m = lambda s: g @ s + 0.5 * s @ B @ s
        steihaug_ok &= bool(m(step) <= m(p) + 1e-10)
    ok &= report("Steihaug boundary + model decrease on 100 triples",
                 steihaug_ok)

    # seeded bit-exact reproducibility
    X = model_dataset(8, 2, 900, 0.3, family="gamma", seed=4)
    cfg = PursuitConfig(rng_seed=9, n_seeds=200)
    r1, _, _ = decompose(DataMatrix(X), q=2, config=cfg)
    r2d, _, _ = decompose(DataMatrix(X), q=2, config=cfg)
    ok &= report("decompose bit-exact under fixed seed",
                 np.array_equal(r1.Q, r2d.Q)
                 and np.array_equal(r1.S_hat, r2d.S_hat))

    S5 = synth5(n=600, seed=2)
    mc_cfg = PursuitConfig(n_seeds=100, rng_seed=0)
    a1, _ = monte_carlo_bss(S5, "uniform-random", 2, config=mc_cfg,
                            master_seed=3)
    a2, _ = monte_carlo_bss(S5, "uniform-random", 2, config=mc_cfg,
                            master_seed=3)
    gcfg = GridConfig(families=("gaussian",), ratios=(1.5,), q_fracs=(0.2,),
                      reps=3, master_seed=4)
    g1 = latdim_validation(gcfg)
    g2 = latdim_validation(gcfg)
    ok &= report("benchmark harnesses bit-exact under fixed master seed",
                 np.array_equal(a1.run_means, a2.run_means)
                 and [c.estimates for c in g1] == [c.estimates for c in g2])
    assert ok


def test_criterion_7_noise_spectrum():
    print("\ncriterion 7: eigenvalue tail of simulated model data")
    rng = np.random.default_rng(77)
    p, q, n = 50, 5, 10000
    A = rng.uniform(0, 1, (p, q))
    A = A / np.linalg.svd(A, compute_uv=False)[-1]
    X = A @ rng.standard_normal((q, n)) + rng.standard_normal((p, n))
    centered = center(X)
    lam = np.linalg.eigvalsh(centered.values @ centered.values.T / n)[::-1]
    tail_mean = float(np.mean(lam[q:p - 1]))
    ok = report("tail eigenvalue mean within 5% of sigma^2 = 1",
                abs(tail_mean - 1.0) <= 0.05, f"mean={tail_mean:.4f}")
    ok &= report("last eigenvalue <= 1e-10 after centering",
                 abs(lam[-1]) <= 1e-10, f"lam_p={lam[-1]:.2e}")
    assert ok
