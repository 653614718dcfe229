import csv
import io
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from adis_kit.nlp import (
    AugLagConfig,
    DenseQuasiNewton,
    NlpProblem,
    SolveStatus,
    SolveTrace,
    inner_solve,
    kkt_residual,
    solve,
)


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
        qn = DenseQuasiNewton.from_matrix(B, kind="bfgs")
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
        qn = DenseQuasiNewton.from_matrix(B, kind="bfgs")
        res = inner_solve(quadratic_model(B, g0), np.zeros(3), lo, hi,
                          eta_grad=1e-10, j_max=100, qn=qn, delta0=10.0)
        assert res.success
        x_star, _ = box_qp_oracle(B, g0, lo, hi)
        np.testing.assert_allclose(res.x, x_star, atol=1e-8)

    def test_negative_curvature_step_hits_boundary(self):
        B = np.diag([-1.0, 1.0])
        g0 = np.array([1.0, 0.0])
        qn = DenseQuasiNewton.from_matrix(B, kind="sr1")
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
        # rho <= rho_accept must leave the stored iterate untouched
        rng = np.random.default_rng(9)

        def rosenbrock(x):
            f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
            g = np.array([-400 * x[0] * (x[1] - x[0] ** 2) - 2 * (1 - x[0]),
                          200 * (x[1] - x[0] ** 2)])
            return f, g, None

        qn = DenseQuasiNewton(2, kind="sr1", gamma=1.0)
        seen = []

        def watch(j, x, L, g, pg, delta, rho, accepted, skipped, payload):
            seen.append((x.copy(), rho, accepted))

        inner_solve(rosenbrock, np.array([-1.2, 1.0]),
                    np.full(2, -np.inf), np.full(2, np.inf),
                    eta_grad=1e-6, j_max=150, qn=qn, delta0=1.0,
                    rho_accept=0.1, on_iteration=watch)
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
                          qn=DenseQuasiNewton(2, kind="sr1", gamma=curv),
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
        assert sol.trace.to_csv().count("\n") == len(sol.trace) + 1

        # non-finite values round-trip through JSONL and read the same in CSV
        odd = SolveTrace()
        odd.append(replace(final, f=math.inf, lagrangian=math.nan))
        rt = SolveTrace.from_jsonl(odd.to_jsonl()).records[0]
        assert rt.f == math.inf and math.isnan(rt.lagrangian)
        row = next(csv.DictReader(io.StringIO(odd.to_csv())))
        assert row["f"] == "inf" and row["lagrangian"] == "nan"

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
        with pytest.raises(ValueError):
            AugLagConfig(qn_kind="nope").validate()
        with pytest.raises(ValueError):
            AugLagConfig(qn_kind="lbfgs").validate()
