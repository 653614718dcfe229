import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from adis_kit.bench import (MixingSpec, electron_problem, gen_mixing,
                            model_dataset, nnls_problem, polygon_problem,
                            random_nnls_instance, synth5)
from adis_kit.contrast import (ConstraintSet, LogCoshNegentropy,
                               ProblemFactory)
from adis_kit.nlp import (
    AugLagConfig,
    DenseQuasiNewton,
    NlpProblem,
    SolveStatus,
    SolveTrace,
    TraceRecord,
    add_slacks,
    inner_solve,
    kkt_residual,
    project_box,
    solve,
)
from adis_kit.nlp.solver import (DELTA0, MERIT_ROUNDING, MU0, MU_FLOOR,
                                 RHO_ACCEPT, THETA_H, THETA_L, InnerResult,
                                 NlpSolution, RawEval, SolveScale)
from adis_kit.pursuit import PursuitConfig, decompose, run_stages
from adis_kit.whiten import DataMatrix, center, fit_ppca
from test_contrast import mean_abs
from test_subproblem import _reference_cauchy_point, _reference_steihaug_cg


def quadratic_model(B, g0):
    """Model callable for inner_solve: value, gradient, payload."""
    def model(x):
        return float(g0 @ x + 0.5 * x @ B @ x), g0 + B @ x, None
    return model


def box_qp_oracle(B, g, lo, hi):
    """Exact box-QP minimizer by enumerating active sets (tiny instances)."""
    n = len(g)
    best_x, best_val = None, np.inf
    for states in itertools.product(("lo", "hi", "free"), repeat=n):
        fixed = {i: (lo[i] if s == "lo" else hi[i])
                 for i, s in enumerate(states) if s != "free"}
        free = [i for i, s in enumerate(states) if s == "free"]
        x = np.array([fixed.get(i, 0.0) for i in range(n)])
        if free:
            rhs = -(g[free] + B[np.ix_(free, list(fixed))] @
                    np.array(list(fixed.values()))) if fixed else -g[free]
            try:
                x_free = np.linalg.solve(B[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            x[free] = x_free
        if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
            continue
        val = g @ x + 0.5 * x @ B @ x
        if val < best_val:
            best_val, best_x = val, x
    return best_x, best_val


class TestInnerSolve:
    def test_exact_model_converges_in_one_accepted_step(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((5, 5))
        B = M @ M.T + 3 * np.eye(5)
        g0 = rng.standard_normal(5)
        qn = DenseQuasiNewton.from_matrix(B)
        res = inner_solve(quadratic_model(B, g0), np.zeros(5),
                          np.full(5, -np.inf), np.full(5, np.inf),
                          eta_grad=1e-8, j_max=50, qn=qn, delta0=1e6)
        assert res.success
        assert res.iterations == 1
        np.testing.assert_allclose(res.x, np.linalg.solve(B, -g0), atol=1e-8)

    def test_box_constrained_matches_active_set_oracle(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((3, 3))
        B = M @ M.T + np.eye(3)
        g0 = np.array([-4.0, 3.0, -2.0])   # pushes the minimizer outside
        lo, hi = np.full(3, -0.5), np.full(3, 0.5)
        qn = DenseQuasiNewton.from_matrix(B)
        res = inner_solve(quadratic_model(B, g0), np.zeros(3), lo, hi,
                          eta_grad=1e-10, j_max=100, qn=qn, delta0=10.0)
        assert res.success
        x_star, _ = box_qp_oracle(B, g0, lo, hi)
        np.testing.assert_allclose(res.x, x_star, atol=1e-8)

    def test_negative_curvature_step_hits_boundary(self):
        B = np.diag([-1.0, 1.0])
        g0 = np.array([1.0, 0.0])
        qn = DenseQuasiNewton.from_matrix(B)
        steps = []

        def watch(j, x, L, g, pg, delta, rho, accepted, skipped, payload):
            steps.append((x.copy(), delta))

        inner_solve(quadratic_model(B, g0), np.zeros(2),
                    np.full(2, -np.inf), np.full(2, np.inf),
                    eta_grad=1e-6, j_max=1, qn=qn, delta0=0.7,
                    on_iteration=watch)
        first_step_norm = np.max(np.abs(steps[0][0]))
        assert first_step_norm == pytest.approx(0.7, abs=1e-10)

    def test_iterate_changes_only_on_accepted_steps(self):
        # rho <= RHO_ACCEPT must leave the stored iterate untouched
        rng = np.random.default_rng(9)

        def rosenbrock(x):
            f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
            g = np.array([-400 * x[0] * (x[1] - x[0] ** 2) - 2 * (1 - x[0]),
                          200 * (x[1] - x[0] ** 2)])
            return f, g, None

        qn = DenseQuasiNewton(2, gamma=1.0)
        seen = []

        def watch(j, x, L, g, pg, delta, rho, accepted, skipped, payload):
            seen.append((x.copy(), rho, accepted))

        inner_solve(rosenbrock, np.array([-1.2, 1.0]),
                    np.full(2, -np.inf), np.full(2, np.inf),
                    eta_grad=1e-6, j_max=150, qn=qn, delta0=1.0,
                    on_iteration=watch)
        prev = np.array([-1.2, 1.0])
        for x, rho, accepted in seen:
            if accepted:
                prev = x
            else:
                np.testing.assert_array_equal(x, prev)


    def test_decrease_below_merit_rounding_is_taken(self):
        # a merit of about 119 that carries terms of about 4096, as a large
        # penalty term does: the model decrease of about 1e-13 is below the
        # rounding of the merit, whose computed value stays 119 exactly. The
        # raw ratio is 0 at every radius, which rejects every step until
        # j_max; the guarded ratio takes the step.
        curv = 1e-7

        def model(x):
            bowl = 0.5 * curv * float(x @ x)
            return (4096.0 + bowl) - 4096.0 + 119.0, curv * x, None

        seen = []

        def watch(j, x, L, g, pg, delta, rho, accepted, skipped, payload):
            seen.append((L, rho, accepted))

        x0 = np.array([1e-3, -1e-3])
        res = inner_solve(model, x0, np.full(2, -np.inf), np.full(2, np.inf),
                          eta_grad=1e-12, j_max=30,
                          qn=DenseQuasiNewton(2, gamma=curv),
                          on_iteration=watch)
        assert res.success
        assert res.iterations == 1
        assert seen == [(119.0, 1.0, True)]
        np.testing.assert_array_equal(res.x, np.zeros(2))


class TestOuterSolve:
    def test_unconstrained_quadratic(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal(6)
        p = NlpProblem(dim=6, objective=lambda x: (0.5 * x @ x - b @ x, x - b))
        sol = solve(p, x0=np.zeros(6))
        assert sol.converged
        np.testing.assert_allclose(sol.x, b, atol=1e-6)

    def test_equality_constrained_quadratic(self):
        # min ||x||^2 s.t. x0 + x1 = 1; solution (0.5, 0.5), multiplier 1
        p = NlpProblem(
            dim=2,
            objective=lambda x: (float(x @ x), 2 * x),
            eq_constraints=lambda x: (np.array([x[0] + x[1] - 1.0]),
                                      np.array([[1.0, 1.0]])),
            n_eq=1,
        )
        sol = solve(p, x0=np.array([2.0, -3.0]))
        assert sol.converged
        np.testing.assert_allclose(sol.x, [0.5, 0.5], atol=1e-6)
        np.testing.assert_allclose(sol.lam, [1.0], atol=1e-4)

    def test_converged_implies_kkt_reverified(self):
        p = NlpProblem(
            dim=3,
            objective=lambda x: (float(x @ x), 2 * x),
            eq_constraints=lambda x: (np.array([x[0] - 1.0]),
                                      np.array([[1.0, 0.0, 0.0]])),
            n_eq=1,
        )
        cfg = AugLagConfig()
        sol = solve(p, x0=np.ones(3), config=cfg)
        assert sol.converged
        kg, kc = kkt_residual(p, sol.x, sol.lam)
        assert kg <= cfg.eta_grad_star
        assert kc <= cfg.eta_con_star

    def test_bound_constrained_solution(self):
        # min (x-2)^2 with x <= 1 -> x* = 1
        p = NlpProblem(dim=1,
                       objective=lambda x: (float((x[0] - 2) ** 2),
                                            np.array([2 * (x[0] - 2)])),
                       lower=np.array([-np.inf]), upper=np.array([1.0]))
        sol = solve(p, x0=np.array([0.0]))
        assert sol.converged
        assert sol.x[0] == pytest.approx(1.0, abs=1e-8)

    def test_tolerance_schedule_bookkeeping(self):
        # whenever mu increases between records, the tolerances are reset to
        # the powers of the new mu; multiplier rounds strictly shrink eta_con
        p = NlpProblem(
            dim=2,
            objective=lambda x: (float(x @ x), 2 * x),
            eq_constraints=lambda x: (np.array([x[0] * x[1] - 1.0]),
                                      np.array([[x[1], x[0]]])),
            n_eq=1,
        )
        sol = solve(p, x0=np.array([3.0, -2.0]))
        recs = sol.trace.records
        assert len(recs) == sol.n_inner
        for prev, cur in zip(recs, recs[1:]):
            if cur.mu > prev.mu:
                assert cur.eta_con == pytest.approx(cur.mu ** -0.1)
                assert cur.eta_grad == pytest.approx(1.0 / cur.mu)
            if cur.mu == prev.mu and cur.eta_con != prev.eta_con and prev.mu >= 1.0:
                assert cur.eta_con < prev.eta_con

    def test_trace_roundtrip_and_final_stamp(self):
        p = NlpProblem(
            dim=2,
            objective=lambda x: (float(x @ x), 2 * x),
            eq_constraints=lambda x: (np.array([x[0] - 0.3]),
                                      np.array([[1.0, 0.0]])),
            n_eq=1,
        )
        sol = solve(p, x0=np.array([1.0, 1.0]))
        final = sol.trace.final
        assert final.status == "converged"
        assert final.kkt_grad == sol.kkt_grad
        assert final.kkt_con == sol.kkt_con
        rt = SolveTrace.from_jsonl(sol.trace.to_jsonl())
        assert rt.records == sol.trace.records

        # non-finite values round-trip through JSONL
        odd = SolveTrace()
        odd.append(replace(final, f=math.inf, lagrangian=math.nan))
        rt = SolveTrace.from_jsonl(odd.to_jsonl()).records[0]
        assert rt.f == math.inf and math.isnan(rt.lagrangian)

    def test_start_at_optimum_is_certified(self):
        # no iteration runs, yet the trace still ends in a stamped record
        p = NlpProblem(dim=2, objective=lambda x: (float(x @ x), 2 * x))
        sol = solve(p, x0=np.zeros(2))
        assert sol.converged and sol.n_inner == 0
        assert len(sol.trace) == 1
        final = sol.trace.final
        assert final.inner == 0 and final.status == "converged"
        assert final.kkt_grad == 0.0 and final.kkt_con == 0.0

    @pytest.mark.parametrize("problem, x0", [
        (NlpProblem(dim=3, objective=lambda x: (
            float((x - 1.0) @ (x - 1.0) + x[0] ** 4),
            2 * (x - 1.0) + np.array([4 * x[0] ** 3, 0.0, 0.0]))),
         np.zeros(3)),
        (NlpProblem(dim=2, objective=lambda x: (float(x @ x), 2 * x),
                    eq_constraints=lambda x: (np.array([x[0] * x[1] - 1.0]),
                                              np.array([[x[1], x[0]]])),
                    n_eq=1),
         np.array([3.0, -2.0])),
        (NlpProblem(dim=2, objective=lambda x: (float(x @ x), 2 * x)),
         np.zeros(2)),
    ], ids=["unconstrained", "equality", "start-at-optimum"])
    def test_one_objective_evaluation_per_point(self, problem, x0,
                                                monkeypatch):
        # the start point once, each trial point once, and the independent
        # KKT stamp once: no inner solve re-evaluates its start point
        calls = []
        original = NlpProblem.eval_objective

        def counted(self, x):
            calls.append(np.array(x))
            return original(self, x)

        monkeypatch.setattr(NlpProblem, "eval_objective", counted)
        sol = solve(problem, x0=x0)
        assert sol.converged
        trials = sum(rec.inner >= 1 for rec in sol.trace.records)
        assert len(calls) == 1 + trials + 1
        np.testing.assert_array_equal(calls[-1], sol.x)

    @pytest.mark.parametrize("bounded", [False, True],
                             ids=["unconstrained", "bound-only"])
    def test_no_equality_rows_take_one_outer_iteration(self, bounded):
        # the merit is f, so the inner solve gets the final tolerance at
        # once: one outer iteration and no schedule on any record
        b = np.array([2.0, -1.0, 0.5, 3.0])
        upper = np.array([1.0, np.inf, np.inf, 2.0]) if bounded else None

        def f(x):
            d = x - b
            return float(d @ d + 0.25 * (d @ d) ** 2), (2.0 + d @ d) * d

        cfg = AugLagConfig()
        sol = solve(NlpProblem(dim=4, objective=f, upper=upper),
                    x0=np.zeros(4), config=cfg)
        assert sol.converged and sol.n_outer == 1
        assert sol.kkt_grad <= cfg.eta_grad_star
        assert len(sol.trace) == sol.n_inner > 1
        for rec in sol.trace.records:
            assert rec.outer == 0
            assert rec.eta_grad == cfg.eta_grad_star
            assert rec.eta_con == cfg.eta_con_star
        if bounded:
            assert sol.x[0] == pytest.approx(1.0, abs=1e-8)
            assert sol.x[3] == pytest.approx(2.0, abs=1e-8)

    def test_stalled_unconstrained_solve_ends_within_max_outer(self,
                                                               monkeypatch):
        # two inner iterations per subproblem never reach the tolerance at
        # a quartic minimum; each outer iteration goes on from the point the
        # last one reached, so the solve ends after max_outer inner solves
        import adis_kit.nlp.solver as solver
        calls = []
        original = solver.inner_solve

        def counted(*args, **kwargs):
            calls.append(args[1].copy())
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "inner_solve", counted)

        b = np.array([1.0, 2.0])

        def quartic(x):
            d = x - b
            return float(np.sum(d ** 4)), 4.0 * d ** 3

        cfg = AugLagConfig(max_outer=5, j_max=2)
        sol = solve(NlpProblem(dim=2, objective=quartic), x0=np.zeros(2),
                    config=cfg)
        assert sol.status is SolveStatus.MAX_ITERATIONS
        assert sol.n_outer == len(calls) == cfg.max_outer
        assert sol.n_inner <= cfg.max_outer * cfg.j_max
        # no inner solve restarts from the point another one started from
        assert len({c.tobytes() for c in calls}) == len(calls)

    def test_unconstrained_inner_failure_without_a_step_ends_at_once(
            self, monkeypatch):
        # a gradient of the wrong sign makes every trial step an ascent: the
        # inner solve rejects them all and stops where it started, and a
        # retry at that point could only repeat it
        import adis_kit.nlp.solver as solver
        calls = []
        original = solver.inner_solve

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "inner_solve", counted)
        x0 = np.array([0.5, -0.5])
        sol = solve(NlpProblem(dim=2, objective=lambda x: (float(x @ x),
                                                           -2.0 * x)),
                    x0=x0, config=AugLagConfig(j_max=4))
        assert sol.status is SolveStatus.INNER_FAILURE
        assert len(calls) == sol.n_outer == 1
        np.testing.assert_array_equal(sol.x, x0)
        assert sol.trace.final.status == "inner_failure"

    def test_max_iterations_status(self):
        p = NlpProblem(
            dim=2,
            objective=lambda x: (float(x @ x), 2 * x),
            eq_constraints=lambda x: (np.array([x[0] - 0.3]),
                                      np.array([[1.0, 0.0]])),
            n_eq=1,
        )
        sol = solve(p, x0=np.array([5.0, 5.0]),
                    config=AugLagConfig(max_outer=1))
        assert sol.status is SolveStatus.MAX_ITERATIONS

    def test_inequalities_are_converted_and_solved(self):
        # min (x+2)^2 s.t. x >= 0 -> x* = 0, active constraint
        p = NlpProblem(
            dim=1,
            objective=lambda x: (float((x[0] + 2) ** 2),
                                 np.array([2 * (x[0] + 2)])),
            ineq_constraints=lambda x: (x.copy(), np.array([[1.0]])),
            n_ineq=1,
        )
        sol = solve(p, x0=np.array([3.0]))
        assert sol.converged
        assert sol.x[0] == pytest.approx(0.0, abs=1e-6)
        assert sol.slack is not None and sol.slack[0] == pytest.approx(0.0, abs=1e-6)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AugLagConfig(eta_con_star=0).validate()
        with pytest.raises(ValueError):
            AugLagConfig(j_max=0).validate()
        # SR1 is the one quasi-Newton rule, so no field picks one
        with pytest.raises(TypeError):
            AugLagConfig(qn_kind="sr1")


def _small_curvature_quadratic():
    # curvature about 0.01, far below the start matrix max(1, |g0|)·I
    H = np.diag([0.01, 0.02, 0.04])
    b = np.array([0.002, -0.003, 0.001])
    return NlpProblem(dim=3, objective=lambda x: (0.5 * x @ H @ x - b @ x,
                                                  H @ x - b))


class TestStartScale:
    """A solve without equality rows starts at a given scale, or rescales its
    matrix at the first pair; with equality rows nothing changes."""

    @staticmethod
    def first_inner_start(monkeypatch, problem, **kwargs):
        import adis_kit.nlp.solver as solver_module
        seen = []
        original = solver_module.inner_solve

        def recorded(model, x_start, lower, upper, eta_grad, j_max, qn,
                     **kw):
            seen.append((qn.matrix().copy(), qn.rescale_first,
                         kw["delta0"]))
            return original(model, x_start, lower, upper, eta_grad, j_max,
                            qn, **kw)

        monkeypatch.setattr(solver_module, "inner_solve", recorded)
        sol = solve(problem, x0=np.zeros(problem.dim), **kwargs)
        monkeypatch.undo()
        return sol, seen[0]

    def test_given_scale_sets_first_radius_and_matrix(self, monkeypatch):
        problem = _small_curvature_quadratic()
        sol, (B, rescale, delta0) = self.first_inner_start(
            monkeypatch, problem, scale=SolveScale(0.3, 0.025))
        assert delta0 == 0.3 and not rescale
        assert B.tobytes() == (0.025 * np.eye(3)).tobytes()
        assert sol.converged
        first = sol.trace.records[0]
        assert first.delta in (0.15, 0.3, 0.6)

    def test_without_a_scale_the_first_pair_rescales(self, monkeypatch):
        problem = _small_curvature_quadratic()
        sol, (B, rescale, delta0) = self.first_inner_start(monkeypatch,
                                                           problem)
        assert delta0 == DELTA0 and rescale
        assert B.tobytes() == np.eye(3).tobytes()
        # radius only: the matrix still starts at max(1, |g0|)·I
        _, (B, rescale, delta0) = self.first_inner_start(
            monkeypatch, problem, scale=SolveScale(0.3))
        assert delta0 == 0.3 and rescale
        assert B.tobytes() == np.eye(3).tobytes()

    def test_reports_the_scale_it_ended_with(self):
        problem = _small_curvature_quadratic()
        sol = solve(problem, x0=np.zeros(3))
        assert sol.scale.radius == sol.trace.records[-1].delta
        assert 0.01 <= sol.scale.curvature <= 0.04
        # a solve that takes no iteration hands on the scale it was given
        given = SolveScale(0.2, 0.03)
        at_optimum = solve(problem, x0=sol.x, scale=given)
        assert at_optimum.n_inner == 0 and at_optimum.scale is given
        assert at_optimum.trace.records[0].delta == 0.2

    @pytest.mark.parametrize("scale", [
        SolveScale(0.0), SolveScale(-1.0, 0.1), SolveScale(np.inf),
        SolveScale(0.5, 0.0), SolveScale(0.5, np.nan)])
    def test_rejects_a_scale_that_is_not_positive_and_finite(self, scale):
        with pytest.raises(ValueError):
            solve(_small_curvature_quadratic(), x0=np.zeros(3), scale=scale)

    @pytest.mark.parametrize("make", [
        lambda: polygon_problem(6, seed=0),
        lambda: nnls_problem(*random_nnls_instance(40, 20, seed=0)),
    ], ids=["polygon-0", "nnls-0"])
    def test_equality_rows_ignore_the_scale(self, make):
        problem = make()
        assert problem.n_eq + problem.n_ineq > 0
        sol = solve(problem)
        given = solve(problem, scale=SolveScale(0.01, 123.0))
        assert sol.scale is None and given.scale is None
        _assert_same_solution(given, sol)


# The solve chain as it was before its loop was rewritten for fewer numpy
# calls: solve, inner_solve, the evaluation wrappers, the quasi-Newton
# update, the radius update and the KKT stamp, on the kernels kept in
# test_subproblem. The rewrite must give the same bits, so these stay as the
# reference. They also carry the start rule of a solve without equality
# rows: a given scale's radius and curvature, or else the matrix rescaled
# to (y'y / y's)·I at the first pair.


def _reference_trust_region_update(rho, step, delta):
    if rho > 0.75:
        step_norm = float(np.abs(step).max()) if np.size(step) else 0.0
        if step_norm > 0.8 * delta:
            return 2.0 * delta
        return delta
    if rho >= 0.1:
        return delta
    return 0.5 * delta


class _ReferenceQuasiNewton:
    """Dense SR1, updated at every iteration, accepted or not."""

    def __init__(self, n, gamma, rescale_first):
        self.B = gamma * np.eye(n)
        self.rescale_first = rescale_first
        self.pair_scale = None

    def update(self, s, y):
        if float(s @ s) == 0.0:
            raise ValueError("zero step")
        if float(y @ s) > 0.0:
            self.pair_scale = float(y @ y) / float(y @ s)
            if self.rescale_first:
                self.B = self.pair_scale * np.eye(len(s))
        self.rescale_first = False
        w = y - self.B @ s
        den = float(w @ s)
        if abs(den) <= 1e-8 * np.linalg.norm(s) * np.linalg.norm(w):
            return False
        self.B = self.B + np.outer(w, w) / den
        return True


def _reference_projected_gradient_norm(x, g, lower, upper):
    step = x - np.minimum(np.maximum(x - g, lower), upper)
    return float(np.abs(step).max()) if step.size else 0.0


def _reference_kkt_residual(problem, x, lam):
    _, g = problem.eval_objective(x)
    if problem.n_eq:
        _, J = problem.eval_eq(x)
        g = g - J.T @ lam
    step = x - project_box(x - g, problem.lower, problem.upper)
    grad_res = float(np.max(np.abs(step))) if step.size else 0.0
    if problem.n_eq:
        c, _ = problem.eval_eq(x)
        return grad_res, float(np.max(np.abs(c)))
    return grad_res, 0.0


def _reference_model(problem, lam, mu):
    def model(x):
        f, g = problem.eval_objective(x)
        c, J = problem.eval_eq(x)
        raw = RawEval(f=f, g=g, c=c, J=J)
        return _reference_merit(raw, lam, mu)
    return model


def _reference_merit(raw, lam, mu):
    value = raw.f - float(lam @ raw.c) + 0.5 * mu * float(raw.c @ raw.c)
    return value, raw.g - raw.J.T @ (lam - mu * raw.c), raw


def _reference_inner_solve(model, x_start, lower, upper, eta_grad, j_max, qn,
                           delta0, on_iteration, start_eval):
    x = project_box(np.asarray(x_start, dtype=float), lower, upper)
    value, grad, payload = start_eval
    pg = _reference_projected_gradient_norm(x, grad, lower, upper)
    if pg <= eta_grad:
        return InnerResult(x=x, success=True, iterations=0, payload=payload,
                           delta=delta0)
    delta = delta0
    for j in range(1, j_max + 1):
        B = qn.B
        lo = np.maximum(lower - x, -delta)
        hi = np.minimum(upper - x, delta)
        p, active, _ = _reference_cauchy_point(B, grad, lo, hi)
        step = p
        free = ~active
        if free.any():
            B_red = B[np.ix_(free, free)]
            g_red = (grad + B @ p)[free]
            v_lo = np.minimum(lo[free] - p[free], 0.0)
            v_hi = np.maximum(hi[free] - p[free], 0.0)
            gr_norm = np.linalg.norm(g_red)
            if gr_norm > 0.0:
                tol = min(0.1, np.sqrt(gr_norm))
                v = _reference_steihaug_cg(B_red, g_red, delta=np.inf,
                                           tol=tol, box=(v_lo, v_hi),
                                           abs_tol=0.5 * eta_grad)
                step = p.copy()
                step[free] += v
        step_norm = float(np.max(np.abs(step)))
        if step_norm < 1e-15 * (1.0 + float(np.max(np.abs(x)))):
            return InnerResult(x=x, success=False, iterations=j,
                               payload=payload, delta=delta)
        predicted = -(float(grad @ step) + 0.5 * float(step @ (B @ step)))
        x_trial = np.minimum(np.maximum(x + step, lower), upper)
        value_trial, grad_trial, payload_trial = model(x_trial)
        if predicted > MERIT_ROUNDING * max(1.0, abs(value)):
            rho = (value - value_trial) / predicted
        elif predicted > 0:
            rho = 1.0
        else:
            rho = -np.inf
        accepted = rho > RHO_ACCEPT
        delta = _reference_trust_region_update(
            rho if math.isfinite(rho) else -1.0, step, delta)
        applied = qn.update(x_trial - x, grad_trial - grad)
        if accepted:
            x, value, grad, payload = (x_trial, value_trial, grad_trial,
                                       payload_trial)
            pg = _reference_projected_gradient_norm(x, grad, lower, upper)
        on_iteration(j, x, value, grad, pg, delta, rho, accepted,
                     not applied, payload)
        if pg <= eta_grad:
            return InnerResult(x=x, success=True, iterations=j,
                               payload=payload, delta=delta)
    return InnerResult(x=x, success=False, iterations=j_max, payload=payload,
                       delta=delta)


def _reference_solve(problem, x0, cfg, scale=None):
    converted = problem.n_ineq > 0
    prob = add_slacks(problem) if converted else problem
    z = np.asarray(x0, dtype=float).copy()
    if converted and z.shape == (problem.dim,):
        g0, _ = problem.eval_ineq(z)
        z = np.concatenate([z, np.maximum(g0, 0.0)])
    x = project_box(z, prob.lower, prob.upper)
    lam = np.zeros(prob.n_eq)
    mu = MU0
    schedule = prob.n_eq > 0
    if schedule:
        eta_con, eta_grad = mu ** -0.1, 1.0 / mu
    else:
        eta_con, eta_grad = cfg.eta_con_star, cfg.eta_grad_star
    f0, g0 = prob.eval_objective(x)
    c0, J0 = prob.eval_eq(x)
    ev = RawEval(f=f0, g=g0, c=c0, J=J0)
    gamma = max(1.0, float(np.max(np.abs(ev.g))) if ev.g.size else 1.0)
    delta0 = DELTA0
    if not schedule and scale is not None:
        delta0 = scale.radius
    own_scale = not schedule and (scale is None or scale.curvature is None)
    if not schedule and not own_scale:
        gamma = scale.curvature
    qn = _ReferenceQuasiNewton(prob.dim, gamma, own_scale)
    trace = SolveTrace()
    status = SolveStatus.MAX_ITERATIONS
    n_inner_total = 0
    outer_done = 0
    for k in range(cfg.max_outer):
        outer_done = k + 1

        def on_iter(j, xi, L, gi, pg, delta, rho, accepted, qn_skipped,
                    payload, _k=k):
            trace.append(TraceRecord(
                outer=_k, inner=j, f=payload.f, lagrangian=L, pg_norm=pg,
                c_norm=payload.c_norm,
                lam_norm=float(np.max(np.abs(lam))) if lam.size else 0.0,
                mu=mu, delta=delta,
                rho=None if not np.isfinite(rho) else float(rho),
                accepted=accepted, qn_skipped=qn_skipped,
                eta_con=eta_con, eta_grad=eta_grad))

        failed = False
        while True:
            res = _reference_inner_solve(
                _reference_model(prob, lam, mu), x, prob.lower, prob.upper,
                eta_grad, cfg.j_max, qn, delta0, on_iter,
                _reference_merit(ev, lam, mu))
            n_inner_total += res.iterations
            if res.success:
                x, ev = res.x, res.payload
                break
            if not schedule:
                failed = np.array_equal(res.x, x)
                if failed:
                    status = SolveStatus.INNER_FAILURE
                x, ev = res.x, res.payload
                break
            mu = THETA_L * mu
            if mu < MU_FLOOR:
                x, ev = res.x, res.payload
                status = SolveStatus.INNER_FAILURE
                failed = True
                break
            eta_con, eta_grad = mu ** -0.1, 1.0 / mu
        if failed:
            break
        c_norm = ev.c_norm
        if c_norm <= eta_con:
            kkt_grad = _reference_projected_gradient_norm(
                x, ev.g - ev.J.T @ lam, prob.lower, prob.upper)
            if c_norm <= cfg.eta_con_star and kkt_grad <= cfg.eta_grad_star:
                status = SolveStatus.CONVERGED
                break
            if schedule:
                lam = lam - mu * ev.c
                eta_con = eta_con / mu ** 0.9
                eta_grad = eta_grad / mu
        else:
            mu = THETA_H * mu
            eta_con, eta_grad = mu ** -0.1, 1.0 / mu
    if not trace.records:
        L, grad, _ = _reference_merit(ev, lam, mu)
        trace.append(TraceRecord(
            outer=outer_done - 1, inner=0, f=ev.f, lagrangian=L,
            pg_norm=_reference_projected_gradient_norm(x, grad, prob.lower,
                                                       prob.upper),
            c_norm=ev.c_norm,
            lam_norm=float(np.max(np.abs(lam))) if lam.size else 0.0,
            mu=mu, delta=delta0, rho=None, accepted=True,
            qn_skipped=False, eta_con=eta_con, eta_grad=eta_grad))
    kkt_grad, kkt_con = _reference_kkt_residual(prob, x, lam)
    trace.stamp_final(status.value, kkt_grad, kkt_con)
    end_scale = None
    if not schedule:
        end_scale = (scale if n_inner_total == 0 else
                     SolveScale(res.delta, qn.pair_scale))
    n0 = problem.dim
    return NlpSolution(x=x[:n0], lam=lam, f=ev.f, status=status, trace=trace,
                       kkt_grad=kkt_grad, kkt_con=kkt_con,
                       slack=x[n0:] if converted else None,
                       n_inner=n_inner_total, n_outer=outer_done,
                       scale=end_scale)


def _bits(value):
    """A value's exact identity: floats and arrays by their bytes."""
    if isinstance(value, float):
        return ("float", float.hex(value))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    return (type(value).__name__, value)


def _assert_same_solution(sol, ref):
    for name in ("x", "lam", "f", "status", "kkt_grad", "kkt_con", "slack",
                 "n_inner", "n_outer"):
        assert _bits(getattr(sol, name)) == _bits(getattr(ref, name)), name
    scales = [None if sc is None else (_bits(sc.radius), _bits(sc.curvature))
              for sc in (sol.scale, ref.scale)]
    assert scales[0] == scales[1], "scale"
    assert len(sol.trace) == len(ref.trace)
    for got, want in zip(sol.trace.records, ref.trace.records):
        for name in got.__dataclass_fields__:
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), \
                (name, got, want)


def _recorded_pursuit_solves(monkeypatch, run):
    """Every (problem, x0, config, scale) the pursuit solves while ``run()``
    runs."""
    import adis_kit.pursuit as pursuit
    seen = []
    original = pursuit.solve

    def recording(problem, x0=None, config=None, scale=None):
        seen.append((problem, x0, config, scale))
        return original(problem, x0=x0, config=config, scale=scale)

    monkeypatch.setattr(pursuit, "solve", recording)
    run()
    return seen


def _check_against_reference(solves):
    for problem, x0, cfg, scale in solves:
        _assert_same_solution(solve(problem, x0=x0, config=cfg, scale=scale),
                              _reference_solve(problem, x0, cfg, scale))


class TestRewrittenSolverMatchesReference:
    def test_bss_synth5_stage1_and_stage2(self, monkeypatch):
        # one operation of the bss-synth5 benchmark workload
        S = synth5(n=2000)
        A = gen_mixing(MixingSpec(family="uniform-random", dim=5, seed=41))
        cfg = PursuitConfig(rng_seed=7, channel_center=False)
        solves = _recorded_pursuit_solves(
            monkeypatch, lambda: decompose(DataMatrix(A @ S), q=5,
                                           config=cfg))
        moved = [p.dim for p, _, _, _ in solves]
        assert moved == [4, 4, 3, 3, 2, 2, 1, 1, 10]
        # every solve after the first starts at a handed-on scale, Stage 2
        # at the radius alone
        scales = [sc for _, _, _, sc in solves]
        assert scales[0] is None and None not in scales[1:]
        assert scales[-1].curvature is None
        assert all(sc.curvature > 0 for sc in scales[1:-1])
        _check_against_reference(solves)

    def test_bss_noisy_stage1_and_stage2(self, monkeypatch):
        # the bss-noisy-long operation at a fifth of its samples
        X = model_dataset(p=12, q=5, n=4000, sigma=0.5, family="uniform",
                          seed=5)
        cfg = PursuitConfig(rng_seed=2)
        solves = _recorded_pursuit_solves(
            monkeypatch, lambda: decompose(DataMatrix(X), q=5, config=cfg))
        assert len(solves) == 9 and solves[-1][0].dim == 10
        _check_against_reference(solves)

    @pytest.mark.parametrize("kind", ["eq", "ineq"])
    def test_user_constrained_pursuit(self, monkeypatch, kind):
        # mean |w' x| = 0.75 runs the tolerance schedule; >= 0.75 adds
        # slacks with a lower bound of 0
        rng = np.random.default_rng(0)
        S = rng.laplace(size=(3, 3000))
        A = gen_mixing(MixingSpec(family="uniform-random", dim=3, seed=8))
        X = fit_ppca(center(A @ S, channel_center=False), 3).x_tilde
        factory = ProblemFactory(
            LogCoshNegentropy(),
            constraints=ConstraintSet(**{kind: [(mean_abs(0.75), 1)]}))
        cfg = PursuitConfig(n_seeds=100, rng_seed=1)
        solves = _recorded_pursuit_solves(
            monkeypatch, lambda: run_stages(X, factory, cfg))
        assert all(p.n_eq + p.n_ineq > 0 for p, _, _, _ in solves)
        _check_against_reference(solves)

    @pytest.mark.parametrize("make", [
        lambda: electron_problem(8, seed=0),
        *[(lambda s=s: polygon_problem(6, seed=s))
          for s in (None, 0, 1, 2, 3)],
        *[(lambda s=s: nnls_problem(*random_nnls_instance(40, 20, seed=s)))
          for s in (0, 1, 2)],
    ], ids=[f"sr1-{name}" for name in (
        "electron-8", "polygon-fan", "polygon-0", "polygon-1", "polygon-2",
        "polygon-3", "nnls-0", "nnls-1", "nnls-2")])
    def test_fixtures(self, make):
        problem = make()
        cfg = AugLagConfig()
        _assert_same_solution(solve(problem, config=cfg),
                              _reference_solve(problem, problem.x0, cfg))


class TestKernelLookups:
    """``solve`` reaches ``inner_solve``, ``cauchy_point`` and
    ``steihaug_cg`` through the module globals of ``adis_kit.nlp.solver``,
    the attributes a wrapper replaces to observe them."""

    def test_wrapped_kernels_see_every_call(self, monkeypatch):
        import adis_kit.nlp.solver as solver_module
        counts = {"inner_solve": 0, "cauchy_point": 0, "steihaug_cg": 0}
        for name in counts:
            original = getattr(solver_module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(solver_module, name, counted)

        # one Stage 1 solve of the pursuit: a rotation of the first row of
        # a whitened 3-source Laplace mixture
        rng = np.random.default_rng(4)
        X = fit_ppca(center(rng.standard_normal((3, 3)) @
                            rng.laplace(size=(3, 2000)),
                            channel_center=False), 3).x_tilde
        problem = ProblemFactory(LogCoshNegentropy()).rotation_problem(
            X, np.eye(3), moved=1)
        sol = solve(problem, x0=np.zeros(problem.dim))
        assert sol.converged and sol.n_inner > 0
        assert counts["inner_solve"] == sol.n_outer
        assert counts["cauchy_point"] == sol.n_inner
        assert counts["steihaug_cg"] >= 1
