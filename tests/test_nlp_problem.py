import numpy as np
import pytest

from adis_kit.nlp import (
    DimensionError,
    NlpProblem,
    add_slacks,
    check_gradients,
    kkt_residual,
    project_box,
    solve,
)
from adis_kit.bench import nnls_problem, random_nnls_instance


class TestProjectBox:
    def test_clamp(self):
        out = project_box(np.array([-2.0, 0.5, 3.0]), np.zeros(3), np.ones(3))
        np.testing.assert_array_equal(out, [0.0, 0.5, 1.0])

    def test_identity_inside(self):
        z = np.array([0.2, 0.9, 0.5])
        out = project_box(z, np.zeros(3), np.ones(3))
        np.testing.assert_array_equal(out, z)

    def test_unbounded_passthrough(self):
        out = project_box(np.array([5.0]), np.array([-np.inf]), np.array([np.inf]))
        np.testing.assert_array_equal(out, [5.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(10) * 3
        lo, hi = -np.ones(10), np.ones(10)
        once = project_box(z, lo, hi)
        np.testing.assert_array_equal(project_box(once, lo, hi), once)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            project_box(np.zeros(3), np.zeros(2), np.ones(2))

    def test_crossed_bounds(self):
        with pytest.raises(ValueError):
            project_box(np.zeros(2), np.ones(2), np.zeros(2))


def quadratic_problem(n=4):
    return NlpProblem(dim=n, objective=lambda x: (0.5 * x @ x, x))


class TestAddSlacks:
    def test_no_inequalities_unchanged(self):
        p = quadratic_problem()
        assert add_slacks(p) is p

    def test_single_inequality(self):
        p = NlpProblem(
            dim=1,
            objective=lambda x: (float(x[0] ** 2), 2 * x),
            ineq_constraints=lambda x: (np.array([x[0] - 1.0]),
                                        np.array([[1.0]])),
            n_ineq=1,
        )
        conv = add_slacks(p)
        assert conv.dim == 2
        assert conv.n_eq == 1 and conv.n_ineq == 0
        z = np.array([3.0, 0.5])
        c, J = conv.eval_eq(z)
        # g(x) - s = (x - 1) - s
        np.testing.assert_allclose(c, [3.0 - 1.0 - 0.5])
        np.testing.assert_allclose(J, [[1.0, -1.0]])
        assert conv.lower[1] == 0.0 and np.isinf(conv.upper[1])

    def test_nnls_dimension_counts_rows_of_C(self):
        A, b, C, d = random_nnls_instance(12, 7, seed=0)
        p = nnls_problem(A, b, C, d)
        conv = add_slacks(p)
        assert conv.dim == 7 + C.shape[0]

    def test_converted_gradients_consistent(self):
        A, b, C, d = random_nnls_instance(10, 5, seed=1)
        conv = add_slacks(nnls_problem(A, b, C, d))
        rng = np.random.default_rng(2)
        check_gradients(conv, rng.standard_normal(conv.dim))


class TestKktResidual:
    def test_unconstrained_minimum(self):
        p = quadratic_problem()
        g, c = kkt_residual(p, np.zeros(4), np.zeros(0))
        assert g == 0.0 and c == 0.0

    def test_nonstationary_point_is_gradient_norm(self):
        p = quadratic_problem()
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4)
        g, c = kkt_residual(p, x, np.zeros(0))
        assert g == pytest.approx(np.max(np.abs(x)))
        assert c == 0.0

    def test_rejects_unconverted_inequalities(self):
        p = NlpProblem(
            dim=2,
            objective=lambda x: (float(x @ x), 2 * x),
            ineq_constraints=lambda x: (x.copy(), np.eye(2)),
            n_ineq=2,
        )
        with pytest.raises(ValueError):
            kkt_residual(p, np.zeros(2), np.zeros(2))

    def test_rejects_multiplier_without_equality_row(self):
        # a length-1 lam on a problem without equality rows is an error,
        # not a multiplier to drop
        with pytest.raises(DimensionError):
            kkt_residual(quadratic_problem(), np.zeros(4), np.zeros(1))

    @pytest.mark.parametrize("n_lam", [0, 2])
    def test_rejects_wrong_multiplier_count(self, n_lam):
        p = NlpProblem(dim=2, objective=lambda x: (float(x @ x), 2 * x),
                       eq_constraints=lambda x: (np.array([x[0] - 0.3]),
                                                 np.array([[1.0, 0.0]])),
                       n_eq=1)
        with pytest.raises(DimensionError):
            kkt_residual(p, np.zeros(2), np.zeros(n_lam))

    def test_accepts_the_shapes_solve_passes(self):
        # solve stamps its result with lam of shape (n_eq,), for n_eq = 0
        # and n_eq > 0 alike
        free = solve(quadratic_problem(), x0=np.ones(4))
        assert free.lam.shape == (0,)
        assert kkt_residual(quadratic_problem(), free.x, free.lam) == \
            (free.kkt_grad, free.kkt_con)
        p = NlpProblem(dim=2, objective=lambda x: (float(x @ x), 2 * x),
                       eq_constraints=lambda x: (np.array([x[0] - 0.3]),
                                                 np.array([[1.0, 0.0]])),
                       n_eq=1)
        sol = solve(p, x0=np.ones(2))
        assert sol.lam.shape == (1,)
        assert kkt_residual(p, sol.x, sol.lam) == (sol.kkt_grad, sol.kkt_con)


class TestCallbackValidation:
    def test_bad_gradient_shape(self):
        p = NlpProblem(dim=3, objective=lambda x: (0.0, np.zeros(2)))
        with pytest.raises(DimensionError):
            p.eval_objective(np.zeros(3))

    @pytest.mark.parametrize("kind", ["eq", "ineq"])
    def test_bad_constraint_shape(self, kind):
        label = {"eq": "equality", "ineq": "inequality"}[kind]
        p = NlpProblem(
            dim=2,
            objective=lambda x: (0.0, np.zeros(2)),
            **{f"{kind}_constraints": lambda x: (np.zeros(3),
                                                  np.zeros((3, 2))),
               f"n_{kind}": 2},
        )
        with pytest.raises(DimensionError, match=f"^{label} block returned "
                           r"shapes \(3,\), \(3, 2\); declared \(2,\), "
                           r"\(2, 2\)$"):
            getattr(p, f"eval_{kind}")(np.zeros(2))

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            NlpProblem(dim=2, objective=lambda x: (0.0, np.zeros(2)),
                       lower=np.array([1.0, 0.0]), upper=np.array([0.0, 1.0]))
