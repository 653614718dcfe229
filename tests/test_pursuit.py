import numpy as np
import pytest

from adis_kit.bench import MixingSpec, gen_mixing, sir, sparse_bells, synth5
from adis_kit.contrast import (ConstraintSet, LogCoshNegentropy,
                               ProblemFactory, cayley_row0, cayley_rotation,
                               negentropy)
from adis_kit.nlp import SolveScale, SolveTrace, add_slacks, check_gradients
from adis_kit.pursuit import (
    PursuitConfig,
    PursuitError,
    decompose,
    extract_component,
    refine_joint,
    run_stages,
    seed_search,
)
from adis_kit.whiten import DataMatrix, center, fit_ppca
from test_contrast import Cubic, LogCoshPlusQuadratic, mean_abs


def whitened_mixture(S, mix_seed):
    q = S.shape[0]
    A = gen_mixing(MixingSpec(family="uniform-random", dim=q, seed=mix_seed))
    model = fit_ppca(center(A @ S, channel_center=False), q)
    return model.x_tilde


@pytest.fixture(scope="module")
def factory():
    return ProblemFactory(LogCoshNegentropy())


@pytest.fixture(scope="module")
def laplace_xt():
    rng = np.random.default_rng(0)
    S = rng.laplace(size=(3, 3000))
    return whitened_mixture(S, mix_seed=8)


class TestSourceProduct:
    def test_q8_sources_are_the_one_call_product(self, factory):
        # at q = 8 and n = 20,000 one product has 1.28e6 multiply-adds, more
        # than OpenBLAS runs on one thread; run_stages forms it in column
        # blocks, with the bits of the one call
        S = np.random.default_rng(8).laplace(size=(8, 20000))
        x_tilde = whitened_mixture(S, mix_seed=8)
        cfg = PursuitConfig(n_seeds=10, rng_seed=2, run_stage2=False)
        res = run_stages(x_tilde, factory, cfg)
        np.testing.assert_array_equal(res.S_hat, res.Q @ x_tilde)


class TestCarriedBlock:
    @pytest.mark.parametrize("q", [10, 12])
    def test_block_spans_what_is_left(self, factory, q, monkeypatch):
        # each component hands its rotated block on; with no
        # re-orthogonalization its rows stay orthonormal, and the rows handed
        # on stay orthogonal to every extracted direction
        import adis_kit.pursuit as pursuit
        blocks = []
        original = pursuit.extract_component

        def recorded(*args, **kwargs):
            out = original(*args, **kwargs)
            blocks.append(out[0])
            return out

        monkeypatch.setattr(pursuit, "extract_component", recorded)
        S = np.random.default_rng(q).laplace(size=(q, 2000))
        cfg = PursuitConfig(n_seeds=20, rng_seed=1, run_stage2=False)
        res = run_stages(whitened_mixture(S, mix_seed=q), factory, cfg)
        assert [len(b) for b in blocks] == list(range(q, 0, -1))
        for k, block in enumerate(blocks):
            np.testing.assert_array_equal(block[0], res.Q_stage1[k])
            r = block.shape[0]
            assert np.max(np.abs(block @ block.T - np.eye(r))) <= 1e-12
            assert np.max(np.abs(res.Q_stage1[:k + 1] @ block[1:].T),
                          initial=0.0) <= 1e-12

    def test_last_step_hands_on_an_empty_block(self, factory, laplace_xt):
        cfg = PursuitConfig(n_seeds=50, rng_seed=0)
        basis = np.eye(3)[2:]
        block, value, _, _ = extract_component(3, basis, laplace_xt, factory,
                                               cfg, np.random.default_rng(0))
        assert block.shape == (1, 3)
        assert block[1:].shape == (0, 3)
        assert abs(block[0] @ basis[0]) == 1.0
        assert value == negentropy(block[0], laplace_xt)[0]


class TestSeedSearch:
    def test_seeds_are_unit_and_orthogonal_to_priors(self, factory, laplace_xt):
        rng = np.random.default_rng(2)
        frame, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        prior, basis = frame.T[0], frame.T[1:]
        seeds, scores = seed_search(factory.contrast, basis, laplace_xt,
                                    n_seeds=50, rng=np.random.default_rng(3))
        for z in seeds:
            assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-10)
            u = z @ basis
            assert abs(u @ prior) <= 1e-10
        assert np.all(np.diff(scores) <= 1e-15)   # sorted by score

    def test_all_seeds_returned_when_retained_equals_count(self, factory,
                                                           laplace_xt):
        seeds, scores = seed_search(factory.contrast, np.eye(3), laplace_xt,
                                    20, np.random.default_rng(4))
        assert seeds.shape == (20, 3)
        assert scores.shape == (20,)

    def test_seeded_determinism(self, factory, laplace_xt):
        s1, v1 = seed_search(factory.contrast, np.eye(3), laplace_xt, 100,
                             np.random.default_rng(9))
        s2, v2 = seed_search(factory.contrast, np.eye(3), laplace_xt, 100,
                             np.random.default_rng(9))
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(v1, v2)

    @staticmethod
    def per_seed_reference(contrast, B, X, n_seeds, rng):
        """Stage 0 with one ``evaluate`` call per draw."""
        Z = rng.uniform(-1.0, 1.0, size=(n_seeds, B.shape[0]))
        norms = np.linalg.norm(Z, axis=1)
        while np.any(norms == 0.0):
            bad = norms == 0.0
            Z[bad] = rng.uniform(-1.0, 1.0, size=(int(bad.sum()), B.shape[0]))
            norms = np.linalg.norm(Z, axis=1)
        Z /= norms[:, None]
        scores = np.array([contrast.evaluate(z @ B, X)[0] for z in Z])
        order = np.argsort(-scores, kind="stable")
        return Z[order], scores[order]

    def test_batched_scores_keep_per_seed_ranking(self, factory, laplace_xt):
        S = np.random.default_rng(7).laplace(size=(5, 20000))
        cases = [(laplace_xt, np.eye(3)[1:]),
                 (whitened_mixture(S, mix_seed=3), np.eye(5))]
        for X, B in cases:
            got = seed_search(factory.contrast, B, X, 1000,
                              np.random.default_rng(11))
            ref = self.per_seed_reference(factory.contrast, B, X, 1000,
                                          np.random.default_rng(11))
            np.testing.assert_array_equal(got[0], ref[0])
            np.testing.assert_allclose(got[1], ref[1], rtol=1e-12, atol=0)


class TestExtractComponent:
    def test_last_component_is_sign_choice(self, factory, laplace_xt):
        # two priors leave a one-dimensional manifold: +-w
        cfg = PursuitConfig(n_seeds=50, rng_seed=0)
        rng = np.random.default_rng(5)
        b1, _, _, _ = extract_component(1, np.eye(3), laplace_xt, factory,
                                        cfg, rng)
        b2, _, _, _ = extract_component(2, b1[1:], laplace_xt, factory, cfg,
                                        rng)
        b3, value, trace, _ = extract_component(3, b2[1:], laplace_xt,
                                                factory, cfg, rng)
        assert trace.final.status == "converged"
        v_flip, _ = negentropy(-b3[0], laplace_xt)
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
        block, _, trace, _ = extract_component(1, np.eye(2), Xt, factory, cfg,
                                               np.random.default_rng(7))
        assert abs(block[0] @ w_oracle) >= 0.99
        assert trace.final.kkt_grad <= 1e-6
        assert trace.final.kkt_con <= 1e-6

    def test_direction_is_unit_without_projection(self, factory, laplace_xt):
        # the rotation keeps the direction on the sphere and orthogonal to
        # the earlier one; its value is the solver's own objective
        cfg = PursuitConfig(n_seeds=100, rng_seed=2)
        rng = np.random.default_rng(3)
        b1, _, _, _ = extract_component(1, np.eye(3), laplace_xt, factory,
                                        cfg, rng)
        b2, value, trace, _ = extract_component(2, b1[1:], laplace_xt,
                                                factory, cfg, rng)
        w1, w2 = b1[0], b2[0]
        assert trace.final.status == "converged"
        for w in (w1, w2):
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
        assert abs(w1 @ w2) <= 1e-12
        assert value == negentropy(w2, laplace_xt)[0]

    def test_all_failures_carry_traces(self, factory, laplace_xt):
        # every seed of the ranking is tried before giving up, one trace each
        from dataclasses import replace
        cfg = PursuitConfig(n_seeds=10, retained=2, rng_seed=0)
        cfg.solver = replace(cfg.solver, max_outer=1, j_max=1)
        with pytest.raises(PursuitError) as info:
            extract_component(1, np.eye(3), laplace_xt, factory, cfg,
                              np.random.default_rng(8))
        assert len(info.value.traces) == 10
        assert "component 1" in str(info.value)

    # every rng_seed in 0..59 where both retained seeds of a component fail
    # and the walk goes on; the set moves with the rounding of the contrast,
    # so it is re-derived by this rule when that changes
    @pytest.mark.parametrize("rng_seed", [19, 34, 35, 51, 56, 58])
    def test_constrained_seeds_walk_on_past_failed_solves(self, laplace_xt,
                                                          rng_seed,
                                                          monkeypatch):
        # both retained seeds of a component sit where the user equality is
        # stationary; the next seeds of the ranking converge
        import adis_kit.pursuit as pursuit
        statuses = []
        original = pursuit.solve

        def recorded(*args, **kwargs):
            sol = original(*args, **kwargs)
            statuses.append(sol.converged)
            return sol

        monkeypatch.setattr(pursuit, "solve", recorded)
        constrained = ProblemFactory(
            LogCoshNegentropy(),
            constraints=ConstraintSet(eq=[(mean_abs(0.75), 1)]))
        cfg = PursuitConfig(n_seeds=100, rng_seed=rng_seed, run_stage2=False)
        res = run_stages(laplace_xt, constrained, cfg)
        # two solved components, so more than 2 * retained solves means a
        # whole chunk failed and the walk went on
        assert len(statuses) > 2 * cfg.retained
        assert statuses.count(False) >= cfg.retained
        for w, trace in zip(res.Q_stage1[:2], res.component_traces[:2]):
            assert trace.final.status == "converged"
            assert abs(mean_abs(0.75)(w, laplace_xt)[0][0]) <= 1e-6


    @pytest.mark.parametrize("ulps", [-1, 1])
    def test_tied_scores_hand_on_the_better_ranked_seed(self, factory,
                                                        laplace_xt, ulps,
                                                        monkeypatch):
        # both retained seeds reach one optimum; with the second solve's
        # objective one ulp either side of the first's, the first seed of the
        # ranking wins either way, and its block is handed on
        import adis_kit.pursuit as pursuit
        from dataclasses import replace
        sols, starts = [], []
        solve, seed_first = pursuit.solve, pursuit._seed_first

        def nudged(*args, **kwargs):
            sol = solve(*args, **kwargs)
            if sols:
                sol = replace(sol, f=float(np.nextafter(
                    sols[0].f, ulps * np.inf)))
            sols.append(sol)
            return sol

        def recorded(basis, z0):
            starts.append(seed_first(basis, z0))
            return starts[-1]

        monkeypatch.setattr(pursuit, "solve", nudged)
        monkeypatch.setattr(pursuit, "_seed_first", recorded)
        cfg = PursuitConfig(n_seeds=100, rng_seed=0)
        block, value, trace, _ = extract_component(
            1, np.eye(3), laplace_xt, factory, cfg, np.random.default_rng(6))
        assert len(sols) == 2 and all(sol.converged for sol in sols)
        w = [cayley_row0(sol.x, start)[0] for sol, start in zip(sols, starts)]
        assert abs(w[0] @ w[1]) >= 1.0 - 1e-6
        assert (value, trace) == (-sols[0].f, sols[0].trace)
        first = cayley_rotation(sols[0].x, starts[0])[0]
        assert block[0].tobytes() == w[0].tobytes()
        assert block[1:].tobytes() == first[1:].tobytes()


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

    @pytest.mark.parametrize("signs", [(1.0, 1.0, 1.0), (-1.0, 1.0, -1.0),
                                       (-1.0, -1.0, -1.0)])
    def test_sources_are_rotated_data_bit_for_bit(self, factory, laplace_xt,
                                                  signs, monkeypatch):
        # the sign convention flips rows of S instead of multiplying again;
        # forced signs make every pattern of flips show
        import adis_kit.pursuit as pursuit
        monkeypatch.setattr(pursuit, "_fix_signs",
                            lambda Q, S: np.array(signs))
        res = run_stages(laplace_xt, factory,
                         PursuitConfig(n_seeds=50, rng_seed=2))
        assert res.S_hat.tobytes() == (res.Q @ laplace_xt).tobytes()

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

    @pytest.mark.parametrize("scale", [0.1, 1.0])
    def test_custom_contrast_reaches_every_stage(self, laplace_xt, scale):
        # log-cosh plus c (w . a)^2: every Stage 1 value is that sum at the
        # returned row, so the term entered Stages 1 and 0 alike
        a = scale * np.random.default_rng(12).standard_normal(3)
        contrast = LogCoshPlusQuadratic(a)
        res = run_stages(laplace_xt, ProblemFactory(contrast),
                         PursuitConfig(rng_seed=3))
        assert np.max(np.abs(res.Q @ res.Q.T - np.eye(3))) <= 1e-12
        for trace in res.component_traces + [res.joint_trace]:
            assert trace.final.status == "converged"
        for w, value in zip(res.Q_stage1, res.stage1_objectives):
            assert value == contrast.evaluate(w, laplace_xt)[0]
            assert value > negentropy(w, laplace_xt)[0]


class TestRefineJoint:
    def test_joint_local_max_is_fixed_point(self, factory, laplace_xt):
        cfg = PursuitConfig(n_seeds=100, rng_seed=7)
        res = run_stages(laplace_xt, factory, cfg)
        Q2, trace, fallback, values = refine_joint(
            res.Q, res.stage2_objectives, laplace_xt, factory, cfg)
        assert not fallback
        assert np.max(np.abs(Q2 - res.Q)) <= 1e-6
        np.testing.assert_array_equal(
            values, [negentropy(w, laplace_xt)[0] for w in Q2])

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

    @staticmethod
    def stage2_scales(monkeypatch, run):
        """The Stage 2 problem and the scale it starts at, while ``run()``
        runs, and the scale the solve before it ended with."""
        import adis_kit.pursuit as pursuit
        seen, original = [], pursuit.solve

        def recorded(problem, x0=None, config=None, scale=None):
            sol = original(problem, x0=x0, config=config, scale=scale)
            seen.append((problem, scale, sol.scale))
            return sol

        monkeypatch.setattr(pursuit, "solve", recorded)
        run()
        monkeypatch.undo()
        return seen[-1][0], seen[-1][1], seen[-2][2]

    def test_stage2_starts_at_the_exact_hessian(self, factory, laplace_xt,
                                                monkeypatch):
        cfg = PursuitConfig(rng_seed=8)
        res = None

        def run():
            nonlocal res
            res = run_stages(laplace_xt, factory, cfg)

        problem, scale, stage1_end = self.stage2_scales(monkeypatch, run)
        want = factory.rotation_hessian(laplace_xt, res.Q_stage1, 3)
        assert scale.curvature.tobytes() == want.tobytes()
        assert scale.radius == stage1_end.radius

    def test_contrast_without_curvature_keeps_stage2_bits(self, monkeypatch):
        # Cubic offers no Hessian, so Stage 2 starts at the Stage 1 radius
        # alone and gives the bits it gave before the Hessian start
        import hashlib
        rng = np.random.default_rng(21)
        X = whitened_mixture(rng.gamma(1.0, 1.0, (4, 2000)) - 1.0,
                             mix_seed=3)
        out = []
        problem, scale, stage1_end = self.stage2_scales(
            monkeypatch, lambda: out.append(run_stages(
                X, ProblemFactory(Cubic()), PursuitConfig(rng_seed=4))))
        res = out[0]
        assert problem.dim == 6
        assert scale == SolveScale(stage1_end.radius)
        assert not res.joint_fallback
        assert res.stage2_objectives.sum() > res.stage1_objectives.sum()
        h = hashlib.sha256()
        for a in (res.Q, res.stage1_objectives, res.stage2_objectives):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest()[:16] == "01f7116fcb41c069"

    @pytest.mark.parametrize("rng_seed", [3, 1, 4, 5, 6, 11])
    def test_user_equality_holds_on_every_row(self, laplace_xt, rng_seed):
        # the closed-form last Stage 1 row cannot meet the equality, so the
        # converged joint solution is kept whatever its objective
        constrained = ProblemFactory(
            LogCoshNegentropy(),
            constraints=ConstraintSet(eq=[(mean_abs(0.75), 1)]))
        cfg = PursuitConfig(n_seeds=100, rng_seed=rng_seed)
        res = run_stages(laplace_xt, constrained, cfg)
        assert not res.joint_fallback
        assert res.joint_trace.final.status == "converged"
        for w in res.Q:
            c, _ = mean_abs(0.75)(w, laplace_xt)
            assert abs(c[0]) <= 1e-6
        problem = constrained.rotation_problem(laplace_xt, res.Q_stage1,
                                               moved=3)
        assert problem.n_eq == 3
        check_gradients(problem, np.random.default_rng(9).standard_normal(3))

    def test_sparse_bells_joint_stage_improves_mean_sir(self, factory):
        # deflation error accumulates on sparse bell sources; the joint stage
        # recovers it. Stage 1 SIR spreads from 12 to 18 dB across draws, so
        # the mean is taken over 20 of them.
        S = sparse_bells(q=10, n=2000, seed=1)
        stage1, joint = [], []
        for mix_seed in range(21, 41):
            Xt = whitened_mixture(S, mix_seed)
            cfg = PursuitConfig(rng_seed=5)
            res = run_stages(Xt, factory, cfg)
            stage1.append(sir(S, res.Q_stage1 @ Xt).mean_db)
            joint.append(sir(S, res.Q @ Xt).mean_db)
        assert np.mean(joint) > np.mean(stage1)


class TestUserInequality:
    # mean |w' x| >= 0.75 binds at the unconstrained solution: the Laplace
    # sources that log-cosh finds have mean |z| = 1/sqrt(2), about 0.707
    BOUND = 0.75

    def constrained(self):
        return ProblemFactory(
            LogCoshNegentropy(),
            constraints=ConstraintSet(ineq=[(mean_abs(self.BOUND), 1)]))

    @pytest.mark.parametrize("moved", [1, 3])
    def test_rotation_problem_gradients(self, laplace_xt, moved):
        # the inequality block pulled back through the rotation, before and
        # after the slack conversion that solve applies
        rng = np.random.default_rng(moved)
        start, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        problem = self.constrained().rotation_problem(laplace_xt, start,
                                                      moved=moved)
        assert problem.n_eq == 0 and problem.n_ineq == moved
        x = rng.standard_normal(problem.dim)
        g, _ = problem.eval_ineq(x)
        Q, _ = cayley_rotation(x, start)
        np.testing.assert_allclose(
            g, [mean_abs(self.BOUND)(w, laplace_xt)[0][0] for w in Q[:moved]],
            rtol=0, atol=1e-14)
        check_gradients(problem, x)
        converted = add_slacks(problem)
        assert converted.n_eq == moved and converted.n_ineq == 0
        check_gradients(converted,
                        np.concatenate([x, np.abs(g) + 0.1]))

    @pytest.mark.parametrize("rng_seed, stage1_feasible", [(1, True),
                                                          (3, False)])
    def test_binding_inequality_holds_on_every_row(self, factory, laplace_xt,
                                                   rng_seed, stage1_feasible):
        free = run_stages(laplace_xt, factory,
                          PursuitConfig(n_seeds=100, rng_seed=rng_seed))
        assert all(mean_abs(self.BOUND)(w, laplace_xt)[0][0] < -0.03
                   for w in free.Q)
        constrained = self.constrained()
        cfg = PursuitConfig(n_seeds=100, rng_seed=rng_seed)
        res = run_stages(laplace_xt, constrained, cfg)
        tol = cfg.solver.eta_con_star
        for w in res.Q:
            assert constrained.constraints.violation(w, laplace_xt) <= tol
        # the closed-form last Stage 1 row meets the bound only by chance;
        # refine_joint compares objectives only against a feasible Stage 1
        assert stage1_feasible == all(
            constrained.constraints.violation(w, laplace_xt) <= tol
            for w in res.Q_stage1)
        if res.joint_fallback:
            np.testing.assert_array_equal(np.abs(res.Q),
                                          np.abs(res.Q_stage1))
        else:
            assert res.joint_trace.final.status == "converged"
            if stage1_feasible:
                assert (res.stage2_objectives.sum()
                        >= res.stage1_objectives.sum() - 1e-8)


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

    @pytest.mark.parametrize("q", [None, 2])
    def test_centers_once(self, q, monkeypatch):
        # one centered block feeds estimate_q, fit_ppca and source_stats
        import adis_kit.pursuit as pursuit
        import adis_kit.whiten as whiten
        calls = []
        original = whiten.center

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pursuit, "center", counted)
        monkeypatch.setattr(whiten, "center", counted)
        rng = np.random.default_rng(11)
        A = rng.uniform(0, 1, (12, 2))
        S = rng.gamma(1.0, 1.0, (2, 3000)) - 1.0
        X = A @ S + 0.2 * rng.standard_normal((12, 3000))
        cfg = PursuitConfig(rng_seed=1, n_seeds=20)
        res, _, stats = decompose(DataMatrix(X), q=q, config=cfg)
        assert res.q_source == ("user" if q else "estimated")
        assert stats is not None
        assert len(calls) == 1

    def test_sign_convention_positive_skewness(self):
        rng = np.random.default_rng(13)
        S = rng.gamma(1.0, 1.0, (2, 4000)) - 1.0   # positively skewed truth
        A = rng.standard_normal((4, 2))
        cfg = PursuitConfig(rng_seed=4, n_seeds=100)
        res, _, _ = decompose(DataMatrix(A @ S), q=2, config=cfg)
        for row in res.S_hat:
            skew = np.mean((row - row.mean()) ** 3) / row.std() ** 3
            assert skew > 0


# one decompose call whose outputs are printed as hex, run the same way in
# this process and in a fresh one
_SCALED_RUN = """
import hashlib
import numpy as np
from adis_kit.bench import MixingSpec, gen_mixing, synth5
from adis_kit.pursuit import PursuitConfig, decompose
from adis_kit.whiten import DataMatrix
A = gen_mixing(MixingSpec(family="uniform-random", dim=4, seed=3))
res, _, _ = decompose(DataMatrix(A @ synth5(n=1500)[:4]), q=4,
                      config=PursuitConfig(rng_seed=5, channel_center=False))
h = hashlib.sha256()
for part in (res.Q, res.Q_stage1, res.stage1_objectives,
             res.stage2_objectives):
    h.update(part.tobytes())
print(h.hexdigest())
"""


class TestNoStateBetweenCalls:
    """The scale a solve hands on lives in one ``run_stages`` call: no
    decompose sees another's."""

    @staticmethod
    def run_here():
        import contextlib
        import io
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(_SCALED_RUN, {})
        return out.getvalue().strip()

    def test_identical_calls_give_identical_bits(self):
        cfg = PursuitConfig(rng_seed=8, n_seeds=100)
        S = np.random.default_rng(14).laplace(size=(3, 2000))
        A = np.random.default_rng(15).standard_normal((5, 3))
        first, _, _ = decompose(DataMatrix(A @ S), q=3, config=cfg)
        second, _, _ = decompose(DataMatrix(A @ S), q=3, config=cfg)
        for name in ("Q", "S_hat", "Q_stage1", "stage1_objectives",
                     "stage2_objectives"):
            assert (getattr(first, name).tobytes()
                    == getattr(second, name).tobytes()), name

    def test_a_call_after_another_matches_a_fresh_process(self):
        import os
        import subprocess
        import sys
        from pathlib import Path
        import adis_kit
        # an unrelated decompose first, with its own scales
        S = np.random.default_rng(16).laplace(size=(3, 2000))
        decompose(DataMatrix(np.random.default_rng(17).standard_normal(
            (3, 3)) @ S), q=3, config=PursuitConfig(rng_seed=9))
        here = self.run_here()
        src = str(Path(adis_kit.__file__).resolve().parent.parent)
        fresh = subprocess.run([sys.executable, "-c", _SCALED_RUN],
                               capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": src})
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout.strip() == here
