import itertools

import numpy as np
import pytest

from adis_kit.bench import MixingSpec, gen_mixing, sir, sparse_bells, synth5
from adis_kit.contrast import (ConstraintSet, LogCoshNegentropy,
                               ProblemFactory, negentropy)
from adis_kit.nlp import SolveTrace, check_gradients
from adis_kit.pursuit import (
    PursuitConfig,
    PursuitError,
    decompose,
    extract_component,
    orthonormal_complement,
    refine_joint,
    run_stages,
    seed_search,
)
from adis_kit.whiten import DataMatrix, fit_ppca
from test_contrast import mean_abs


def whitened_mixture(S, mix_seed):
    q = S.shape[0]
    A = gen_mixing(MixingSpec(family="uniform-random", dim=q, seed=mix_seed))
    model = fit_ppca(DataMatrix(A @ S), q, channel_center=False,
                     degenerate="clip")
    return model.x_tilde


@pytest.fixture(scope="module")
def factory():
    return ProblemFactory(LogCoshNegentropy())


@pytest.fixture(scope="module")
def laplace_xt():
    rng = np.random.default_rng(0)
    S = rng.laplace(size=(3, 3000))
    return whitened_mixture(S, mix_seed=8)


class TestComplement:
    def test_spans_complement(self):
        rng = np.random.default_rng(1)
        priors, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        W = orthonormal_complement(priors.T[:2], 5)
        assert W.shape == (5, 3)
        assert np.max(np.abs(W.T @ W - np.eye(3))) <= 1e-12
        assert np.max(np.abs(W.T @ priors)) <= 1e-12

    def test_empty_priors_gives_identity_like_basis(self):
        W = orthonormal_complement(np.zeros((0, 4)), 4)
        np.testing.assert_allclose(W, np.eye(4))


class TestSeedSearch:
    def test_seeds_are_unit_and_orthogonal_to_priors(self, factory, laplace_xt):
        rng = np.random.default_rng(2)
        prior = np.zeros((1, 3))
        prior[0, 0] = 1.0
        W = orthonormal_complement(prior, 3)
        seeds, scores = seed_search(factory.contrast, W, laplace_xt,
                                    n_seeds=50, retained=50,
                                    rng=np.random.default_rng(3))
        for z in seeds:
            assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-10)
            u = W @ z
            assert abs(u @ prior[0]) <= 1e-10
        assert np.all(np.diff(scores) <= 1e-15)   # sorted by score

    def test_all_seeds_returned_when_retained_equals_count(self, factory,
                                                           laplace_xt):
        W = np.eye(3)
        seeds, scores = seed_search(factory.contrast, W, laplace_xt, 20, 20,
                                    np.random.default_rng(4))
        assert seeds.shape == (20, 3)

    def test_seeded_determinism(self, factory, laplace_xt):
        W = np.eye(3)
        s1, v1 = seed_search(factory.contrast, W, laplace_xt, 100, 5,
                             np.random.default_rng(9))
        s2, v2 = seed_search(factory.contrast, W, laplace_xt, 100, 5,
                             np.random.default_rng(9))
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(v1, v2)

    @staticmethod
    def per_seed_reference(contrast, W, X, n_seeds, retained, rng):
        """Stage 0 with one ``evaluate`` call per draw."""
        Z = rng.uniform(-1.0, 1.0, size=(n_seeds, W.shape[1]))
        norms = np.linalg.norm(Z, axis=1)
        while np.any(norms == 0.0):
            bad = norms == 0.0
            Z[bad] = rng.uniform(-1.0, 1.0, size=(int(bad.sum()), W.shape[1]))
            norms = np.linalg.norm(Z, axis=1)
        Z /= norms[:, None]
        scores = np.array([contrast.evaluate(W @ z, X)[0] for z in Z])
        order = np.argsort(-scores, kind="stable")[:retained]
        return Z[order], scores[order]

    def test_batched_scores_keep_per_seed_ranking(self, factory, laplace_xt):
        S = np.random.default_rng(7).laplace(size=(5, 20000))
        cases = [(laplace_xt, orthonormal_complement(np.eye(3)[:1], 3)),
                 (whitened_mixture(S, mix_seed=3), np.eye(5))]
        for (X, W), retained in itertools.product(cases, (2, 10)):
            got = seed_search(factory.contrast, W, X, 1000, retained,
                              np.random.default_rng(11))
            ref = self.per_seed_reference(factory.contrast, W, X, 1000,
                                          retained, np.random.default_rng(11))
            np.testing.assert_array_equal(got[0], ref[0])
            np.testing.assert_allclose(got[1], ref[1], rtol=1e-12, atol=0)


class TestExtractComponent:
    def test_last_component_is_sign_choice(self, factory, laplace_xt):
        # two priors leave a one-dimensional manifold: +-w
        cfg = PursuitConfig(n_seeds=50, rng_seed=0)
        rng = np.random.default_rng(5)
        w1, _, _ = extract_component(1, np.zeros((0, 3)), laplace_xt, factory,
                                     cfg, rng)
        w2, _, _ = extract_component(2, np.array([w1]), laplace_xt, factory,
                                     cfg, rng)
        w3, value, trace = extract_component(3, np.array([w1, w2]),
                                             laplace_xt, factory, cfg, rng)
        assert trace.final.status == "converged"
        v_flip, _ = negentropy(-w3, laplace_xt)
        assert value >= v_flip - 1e-15

    def test_last_component_reports_user_constraint_violation(self,
                                                              laplace_xt):
        # the last direction is fixed up to sign, so a user equality cannot
        # be met there; its trace must say so
        constrained = ProblemFactory(
            LogCoshNegentropy(),
            constraints=ConstraintSet(eq=[(mean_abs(0.75), 1)]))
        cfg = PursuitConfig(n_seeds=100, rng_seed=3, run_stage2=False)
        res = run_stages(laplace_xt, constrained, cfg)
        for w, trace in zip(res.Q_stage1[:2], res.component_traces[:2]):
            assert trace.final.status == "converged"
            assert abs(mean_abs(0.75)(w, laplace_xt)[0][0]) <= 1e-6
        c, _ = mean_abs(0.75)(res.Q_stage1[2], laplace_xt)
        final = res.component_traces[2].final
        assert abs(c[0]) > cfg.solver.eta_con_star
        assert final.kkt_con == abs(c[0])
        assert final.status == "infeasible"

    def test_two_source_direction_matches_circle_grid_oracle(self, factory):
        rng = np.random.default_rng(6)
        S = np.vstack([rng.laplace(size=4000),
                       rng.uniform(-np.sqrt(3), np.sqrt(3), 4000)])
        Xt = whitened_mixture(S, mix_seed=10)
        angles = np.linspace(0, np.pi, 20000, endpoint=False)
        scores = [negentropy(np.array([np.cos(a), np.sin(a)]), Xt)[0]
                  for a in angles]
        a_star = angles[int(np.argmax(scores))]
        w_oracle = np.array([np.cos(a_star), np.sin(a_star)])
        cfg = PursuitConfig(rng_seed=1)
        w1, _, trace = extract_component(1, np.zeros((0, 2)), Xt, factory,
                                         cfg, np.random.default_rng(7))
        assert abs(w1 @ w_oracle) >= 0.99
        assert trace.final.kkt_grad <= 1e-6
        assert trace.final.kkt_con <= 1e-6

    def test_all_failures_carry_traces(self, factory, laplace_xt):
        from dataclasses import replace
        cfg = PursuitConfig(n_seeds=10, retained=2, rng_seed=0)
        cfg.solver = replace(cfg.solver, max_outer=1, j_max=1)
        with pytest.raises(PursuitError) as info:
            extract_component(1, np.zeros((0, 3)), laplace_xt, factory, cfg,
                              np.random.default_rng(8))
        assert len(info.value.traces) == 2
        assert "component 1" in str(info.value)


class TestRunStages:
    def test_deflation_orthogonality_and_norms(self, factory, laplace_xt):
        cfg = PursuitConfig(n_seeds=200, rng_seed=3)
        res = run_stages(laplace_xt, factory, cfg)
        Q1 = res.Q_stage1
        for k in range(3):
            assert np.linalg.norm(Q1[k]) == pytest.approx(1.0, abs=1e-8)
            for l in range(k):
                assert abs(Q1[k] @ Q1[l]) <= 1e-10
        assert np.max(np.abs(res.Q @ res.Q.T - np.eye(3))) <= 1e-6
        np.testing.assert_allclose(res.S_hat, res.Q @ laplace_xt, atol=0)

    def test_stage2_never_degrades_joint_objective(self, factory, laplace_xt):
        cfg = PursuitConfig(n_seeds=200, rng_seed=3)
        res = run_stages(laplace_xt, factory, cfg)
        assert res.stage2_objectives.sum() >= res.stage1_objectives.sum() - 1e-8

    def test_trace_count_is_components_plus_joint(self, factory, laplace_xt):
        cfg = PursuitConfig(n_seeds=100, rng_seed=4)
        res = run_stages(laplace_xt, factory, cfg)
        assert len(res.component_traces) == 3
        assert res.joint_trace is not None

    def test_seeded_determinism_bit_exact(self, factory, laplace_xt):
        cfg = PursuitConfig(n_seeds=100, rng_seed=5)
        r1 = run_stages(laplace_xt, factory, cfg)
        r2 = run_stages(laplace_xt, factory, cfg)
        assert np.array_equal(r1.Q, r2.Q)
        assert np.array_equal(r1.S_hat, r2.S_hat)

    def test_signed_permutation_equivariance(self, factory, laplace_xt):
        cfg = PursuitConfig(n_seeds=200, rng_seed=6)
        base = run_stages(laplace_xt, factory, cfg)
        P = np.array([[0.0, 1.0, 0.0],
                      [0.0, 0.0, -1.0],
                      [1.0, 0.0, 0.0]])
        res = run_stages(P @ laplace_xt, factory, cfg)
        # recovered source sets match up to sign and order
        C = np.abs(np.corrcoef(base.S_hat, res.S_hat))[:3, 3:]
        matched = sorted(C.max(axis=1))
        assert all(m >= 0.999 for m in matched)


class TestRefineJoint:
    def test_joint_local_max_is_fixed_point(self, factory, laplace_xt):
        cfg = PursuitConfig(n_seeds=100, rng_seed=7)
        res = run_stages(laplace_xt, factory, cfg)
        Q2, trace, fallback = refine_joint(res.Q, laplace_xt, factory, cfg)
        assert not fallback
        assert np.max(np.abs(Q2 - res.Q)) <= 1e-6

    def test_output_orthonormal_per_entry(self, factory, laplace_xt):
        cfg = PursuitConfig(n_seeds=100, rng_seed=8)
        res = run_stages(laplace_xt, factory, cfg)
        assert not res.joint_fallback
        assert np.max(np.abs(res.Q @ res.Q.T - np.eye(3))) <= 1e-12

    def test_joint_trace_certifies_returned_q(self, factory, laplace_xt):
        cfg = PursuitConfig(n_seeds=100, rng_seed=8)
        res = run_stages(laplace_xt, factory, cfg)
        final = res.joint_trace.final
        assert final.status == "converged"
        assert final.kkt_grad <= 1e-6
        total = res.stage2_objectives.sum()
        assert abs(final.f + total) <= 1e-12 * abs(total)
        back = SolveTrace.from_jsonl(res.joint_trace.to_jsonl())
        assert back.records == res.joint_trace.records

    def test_user_equality_holds_on_every_row(self, laplace_xt):
        constrained = ProblemFactory(
            LogCoshNegentropy(),
            constraints=ConstraintSet(eq=[(mean_abs(0.75), 1)]))
        cfg = PursuitConfig(n_seeds=100, rng_seed=3)
        res = run_stages(laplace_xt, constrained, cfg)
        assert not res.joint_fallback
        assert res.joint_trace.final.status == "converged"
        for w in res.Q:
            c, _ = mean_abs(0.75)(w, laplace_xt)
            assert abs(c[0]) <= 1e-6
        problem = constrained.joint_problem(laplace_xt, res.Q_stage1)
        assert problem.n_eq == 3
        check_gradients(problem, np.random.default_rng(9).standard_normal(3))

    def test_sparse_bells_joint_stage_improves_mean_sir(self, factory):
        # deflation error accumulates on sparse bell sources; the joint stage
        # recovers it (mean over mixing draws)
        S = sparse_bells(q=10, n=2000, seed=1)
        stage1, joint = [], []
        for mix_seed in (21, 22):
            Xt = whitened_mixture(S, mix_seed)
            cfg = PursuitConfig(rng_seed=5)
            res = run_stages(Xt, factory, cfg)
            stage1.append(sir(S, res.Q_stage1 @ Xt).mean_db)
            joint.append(sir(S, res.Q @ Xt).mean_db)
        assert np.mean(joint) > np.mean(stage1)


class TestDecompose:
    def test_identity_mixing_super_gaussian_sources(self):
        rng = np.random.default_rng(9)
        S = rng.laplace(size=(3, 5000))
        A = np.eye(4)[:, :3]
        cfg = PursuitConfig(rng_seed=42, n_seeds=300)
        res, model, stats = decompose(DataMatrix(A @ S), q=3, config=cfg)
        C = np.abs(np.corrcoef(res.S_hat, S))[:3, 3:]
        assert np.all(np.sort(C.max(axis=0)) >= 0.99)
        assert stats is not None

    def test_single_source_recovery(self):
        rng = np.random.default_rng(10)
        s = rng.laplace(size=(1, 3000))
        A = rng.standard_normal((3, 1))
        X = A @ s + 1e-6 * rng.standard_normal((3, 3000))
        cfg = PursuitConfig(rng_seed=0, n_seeds=100)
        res, model, stats = decompose(DataMatrix(X), q=1, config=cfg)
        report = sir(s, res.S_hat)
        assert report.sir_db[0] >= 40.0

    def test_latent_dimension_estimated_when_missing(self):
        rng = np.random.default_rng(11)
        A = rng.uniform(0, 1, (12, 2))
        A = A / np.linalg.svd(A, compute_uv=False)[-1]
        S = rng.gamma(1.0, 1.0, (2, 3000)) - 1.0
        X = A @ S + 0.2 * rng.standard_normal((12, 3000))
        cfg = PursuitConfig(rng_seed=1, n_seeds=200)
        res, model, stats = decompose(DataMatrix(X), config=cfg)
        assert res.q_source == "estimated"
        assert res.latdim is not None
        assert res.Q.shape[0] == res.latdim.q_hat == 2

    def test_full_run_emits_q_plus_one_traces(self):
        rng = np.random.default_rng(12)
        S = rng.laplace(size=(3, 2000))
        A = rng.standard_normal((5, 3))
        cfg = PursuitConfig(rng_seed=2, n_seeds=100)
        res, _, _ = decompose(DataMatrix(A @ S), q=3, config=cfg)
        assert len(res.component_traces) == 3
        assert res.joint_trace is not None

    def test_square_case_skips_source_stats(self):
        S = synth5(n=1000, seed=0)
        A = gen_mixing(MixingSpec(family="orthogonal", dim=5, seed=1))
        cfg = PursuitConfig(rng_seed=3, n_seeds=100, channel_center=False)
        res, model, stats = decompose(DataMatrix(A @ S), q=5, config=cfg)
        assert stats is None

    def test_sign_convention_positive_skewness(self):
        rng = np.random.default_rng(13)
        S = rng.gamma(1.0, 1.0, (2, 4000)) - 1.0   # positively skewed truth
        A = rng.standard_normal((4, 2))
        cfg = PursuitConfig(rng_seed=4, n_seeds=100)
        res, _, _ = decompose(DataMatrix(A @ S), q=2, config=cfg)
        for row in res.S_hat:
            skew = np.mean((row - row.mean()) ** 3) / row.std() ** 3
            assert skew > 0
