import itertools
from dataclasses import replace

import numpy as np
import pytest

from adis_kit.bench import (
    SOURCE_SUITES,
    GridConfig,
    MixingFamily,
    MixingSpec,
    electron_problem,
    gen_mixing,
    grid_csv,
    latdim_validation,
    make_sources,
    model_dataset,
    monte_carlo_bss,
    nnls_problem,
    polygon_area,
    polygon_problem,
    random_nnls_instance,
    sparse_bells,
    speech_like,
    narrowband,
    synth5,
)
from adis_kit.nlp import AugLagConfig, check_gradients, solve
from adis_kit.pursuit import PursuitConfig


class TestMixingFamilies:
    def test_hilbert_exact(self):
        A = gen_mixing(MixingSpec(family="hilbert", dim=3))
        expected = [[1, 1 / 2, 1 / 3], [1 / 2, 1 / 3, 1 / 4],
                    [1 / 3, 1 / 4, 1 / 5]]
        np.testing.assert_allclose(A, expected, rtol=0, atol=0)

    def test_orthogonal_family(self):
        A = gen_mixing(MixingSpec(family="orthogonal", dim=6, seed=3))
        assert np.max(np.abs(A.T @ A - np.eye(6))) <= 1e-10

    def test_ill_conditioned_target(self):
        A = gen_mixing(MixingSpec(family="ill-conditioned-random", dim=8,
                                  seed=4))
        cond = np.linalg.cond(A)
        assert 0.5e4 <= cond <= 2e4

    def test_structural_properties(self):
        for fam, check in [
            ("symmetric-random", lambda A: np.array_equal(A, A.T)),
            ("nonnegative-symmetric",
             lambda A: np.array_equal(A, A.T) and np.all(A >= 0)),
            ("bipolar-symmetric",
             lambda A: np.array_equal(A, A.T) and set(np.unique(A)) <= {-1.0, 1.0}),
            ("skew-symmetric", lambda A: np.array_equal(A.T, -A)),
            ("random-bipolar", lambda A: set(np.unique(A)) <= {-1.0, 1.0}),
        ]:
            A = gen_mixing(MixingSpec(family=fam, dim=6, seed=5))
            assert check(A), fam

    def test_toeplitz_and_hankel_structure(self):
        T = gen_mixing(MixingSpec(family="toeplitz", dim=5, seed=6))
        for k in range(-4, 5):
            diag = np.diagonal(T, offset=k)
            assert np.all(diag == diag[0])
        H = gen_mixing(MixingSpec(family="hankel", dim=5, seed=6))
        for k in range(-4, 5):
            anti = np.diagonal(np.fliplr(H), offset=k)
            assert np.all(anti == anti[0])

    def test_determinism_per_seed(self):
        for fam in MixingFamily:
            dim = 4
            a1 = gen_mixing(MixingSpec(family=fam, dim=dim, seed=11))
            a2 = gen_mixing(MixingSpec(family=fam, dim=dim, seed=11))
            np.testing.assert_array_equal(a1, a2)

    def test_all_families_full_rank(self):
        for fam in MixingFamily:
            A = gen_mixing(MixingSpec(family=fam, dim=6, seed=0))
            assert np.linalg.matrix_rank(A) == 6

    def test_skew_symmetric_odd_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            MixingSpec(family="skew-symmetric", dim=5)

    def test_sparse_density(self):
        A = gen_mixing(MixingSpec(family="random-sparse", dim=30, seed=7))
        frac = np.mean(A != 0)
        assert 0.1 <= frac <= 0.3


class TestSources:
    def test_suites_standardized(self):
        for name in ("synth5", "sparse-bells", "narrowband", "speech-like"):
            S = make_sources(name, n=1500, seed=3)
            np.testing.assert_allclose(S.mean(axis=1), 0.0, atol=1e-10)
            np.testing.assert_allclose(S.std(axis=1), 1.0, atol=1e-10)

    def test_synth5_shapes_and_types(self):
        S = synth5(n=2000, seed=0)
        assert S.shape == (5, 2000)
        # square wave is two-valued after standardization
        assert len(np.unique(np.round(S[1], 12))) == 2

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            make_sources("nband99", n=100, seed=0)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_generators_reject_fewer_than_two_samples(self, n):
        # two samples are the fewest the contrast scores
        for gen in SOURCE_SUITES.values():
            with pytest.raises(ValueError, match="at least 2 samples"):
                gen(n=n)
        with pytest.raises(ValueError, match="at least 2 samples"):
            model_dataset(p=4, q=2, n=n, sigma=0.5)

    def test_generators_accept_two_samples(self):
        assert synth5(n=2).shape == (5, 2)
        assert model_dataset(p=4, q=2, n=2, sigma=0.5).shape == (4, 2)

    def test_determinism(self):
        np.testing.assert_array_equal(synth5(500, 7), synth5(500, 7))
        np.testing.assert_array_equal(sparse_bells(5, 500, 7),
                                      sparse_bells(5, 500, 7))
        np.testing.assert_array_equal(speech_like(3, 500, 7),
                                      speech_like(3, 500, 7))
        np.testing.assert_array_equal(narrowband(3, 500, 7),
                                      narrowband(3, 500, 7))


class TestElectron:
    def test_two_charges_antipodal(self):
        sol = solve(electron_problem(2, seed=1), config=AugLagConfig())
        assert sol.converged
        assert sol.f == pytest.approx(0.5, abs=1e-6)

    def test_three_charges_equilateral(self):
        sol = solve(electron_problem(3, seed=1), config=AugLagConfig())
        assert sol.converged
        assert sol.f == pytest.approx(np.sqrt(3.0), rel=1e-6)

    def test_gradients(self):
        p = electron_problem(7, seed=2)
        check_gradients(p, p.x0)

    def test_requires_two_charges(self):
        with pytest.raises(ValueError):
            electron_problem(1)


class TestNnls:
    def test_inactive_constraints_match_least_squares(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((15, 6))
        x_pos = rng.uniform(0.5, 2.0, 6)
        b = A @ x_pos                      # LS optimum is positive
        sol = solve(nnls_problem(A, b, np.eye(6), np.zeros(6)),
                    config=AugLagConfig())
        assert sol.converged
        np.testing.assert_allclose(sol.x, x_pos, atol=1e-5)
        assert sol.f <= 1e-10

    def test_small_instance_matches_enumeration_oracle(self):
        # exhaustive active-set enumeration at n = 8
        rng = np.random.default_rng(9)
        m, n = 16, 8
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)

        best = np.inf
        for mask in itertools.product([0, 1], repeat=n):
            free = [i for i in range(n) if mask[i]]
            x = np.zeros(n)
            if free:
                sub, *_ = np.linalg.lstsq(A[:, free], b, rcond=None)
                if np.any(sub < -1e-12):
                    continue
                x[free] = sub
            r = A @ x - b
            best = min(best, float(r @ r))

        sol = solve(nnls_problem(A, b, np.eye(n), np.zeros(n)),
                    config=AugLagConfig())
        assert sol.converged
        assert sol.f == pytest.approx(best, rel=1e-6, abs=1e-10)

    def test_gradients(self):
        A, b, C, d = random_nnls_instance(10, 4, seed=10)
        p = nnls_problem(A, b, C, d)
        rng = np.random.default_rng(11)
        check_gradients(p, rng.standard_normal(4))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            nnls_problem(np.eye(3), np.zeros(2), np.eye(3), np.zeros(3))


class TestPolygon:
    def test_triangle_matches_grid_oracle(self):
        # enumerate (r1, r2, separation) for the unit-diameter triangle with
        # one vertex pinned at the origin; coarse grid refined once around
        # its argmax
        def grid_max(r1_rng, r2_rng, phi_rng, m=100):
            r1 = np.linspace(*r1_rng, m)
            r2 = np.linspace(*r2_rng, m)
            phi = np.linspace(*phi_rng, m)
            R1, R2, PHI = np.meshgrid(r1, r2, phi, indexing="ij")
            feas = (R1 ** 2 + R2 ** 2 - 2 * R1 * R2 * np.cos(PHI)) <= 1.0
            area = np.where(feas, 0.5 * R1 * R2 * np.sin(PHI), -np.inf)
            idx = np.unravel_index(np.argmax(area), area.shape)
            return (float(area[idx]), r1[idx[0]], r2[idx[1]], phi[idx[2]])

        best, r1c, r2c, phic = grid_max((0, 1), (0, 1), (0, np.pi))
        w_r, w_phi = 2 / 99, 2 * np.pi / 99
        best, *_ = grid_max((max(0, r1c - w_r), min(1, r1c + w_r)),
                            (max(0, r2c - w_r), min(1, r2c + w_r)),
                            (max(0, phic - w_phi), min(np.pi, phic + w_phi)))

        sol = solve(polygon_problem(3), config=AugLagConfig())
        assert sol.converged
        assert polygon_area(sol.x, 3) == pytest.approx(best, abs=1e-3)

    def test_feasibility_of_solution(self):
        sol = solve(polygon_problem(6, seed=1), config=AugLagConfig())
        assert sol.converged
        r, th = sol.x[:6], sol.x[6:]
        for i in range(5):
            for j in range(i + 1, 6):
                d2 = r[i] ** 2 + r[j] ** 2 - 2 * r[i] * r[j] * np.cos(th[i] - th[j])
                assert d2 <= 1.0 + 1e-6
        assert np.all(np.diff(th) >= -1e-9)

    def test_gradients(self):
        p = polygon_problem(5)
        check_gradients(p, p.x0 + 0.01)

    def test_last_vertex_pinned(self):
        p = polygon_problem(4)
        assert p.lower[3] == p.upper[3] == 0.0
        assert p.lower[-1] == p.upper[-1] == np.pi


class TestMonteCarlo:
    def test_reproducible_aggregates(self):
        S = synth5(n=800, seed=2)
        cfg = PursuitConfig(n_seeds=100, rng_seed=0)
        agg1, _ = monte_carlo_bss(S, "uniform-random", n_b=2, config=cfg,
                                  master_seed=5)
        agg2, _ = monte_carlo_bss(S, "uniform-random", n_b=2, config=cfg,
                                  master_seed=5)
        np.testing.assert_array_equal(agg1.run_means, agg2.run_means)
        assert agg1.M == agg2.M and agg1.S == agg2.S

    def test_run_count_invariance(self):
        # run-indexed seeding: run r is the same whatever n_b > r is asked
        S = synth5(n=800, seed=2)
        cfg = PursuitConfig(n_seeds=100, rng_seed=0)
        two, _ = monte_carlo_bss(S, "uniform-random", n_b=2, config=cfg,
                                 master_seed=6)
        three, _ = monte_carlo_bss(S, "uniform-random", n_b=3, config=cfg,
                                   master_seed=6)
        np.testing.assert_array_equal(two.run_means, three.run_means[:2])

    def test_rank_deficient_sources_rejected(self):
        S = np.ones((3, 100))
        with pytest.raises(ValueError):
            monte_carlo_bss(S, "uniform-random", n_b=1)

    def test_stage1_scores_recorded(self):
        S = synth5(n=800, seed=2)
        cfg = PursuitConfig(n_seeds=100, rng_seed=0)
        agg, details = monte_carlo_bss(S, "uniform-random", n_b=2, config=cfg,
                                       master_seed=7)
        assert agg.stage1_run_means is not None
        assert agg.stage1_run_means.size == 2
        assert all(d.error is None for d in details)


class TestLatdimGrid:
    def test_default_grid_enumerates_all_cells(self):
        cfg = GridConfig(reps=1)
        cells = latdim_validation(cfg)
        assert len(cells) == 3 * 6 * 5

    def test_easy_cell_nearly_unbiased(self):
        cfg = GridConfig(families=("gaussian",), ratios=(2.0,),
                         q_fracs=(0.1,), reps=20, master_seed=1)
        cells = latdim_validation(cfg)
        assert len(cells) == 1
        assert abs(cells[0].mean_bias) <= 0.5

    def test_rep_count_invariance_and_csv(self):
        # repetition r of a cell is seeded from its indices alone; at ratio
        # 1 the estimates vary from rep to rep, so a seed change shows
        cfg = GridConfig(families=("gaussian",), ratios=(1.0,),
                         q_fracs=(0.2, 0.4), reps=3, master_seed=2)
        three = latdim_validation(cfg)
        two = latdim_validation(replace(cfg, reps=2))
        assert [c.estimates for c in two] == \
            [c.estimates[:2] for c in three]
        text = grid_csv(three)
        assert text.splitlines()[0] == \
            "family,ratio,q_over_p,q_true,mean_bias,std_bias"
        assert len(text.splitlines()) == 3
