import numpy as np
import pytest

from adis_kit.contrast import (
    ConstraintSet,
    ContrastFn,
    LogCoshNegentropy,
    ProblemFactory,
    cayley_rotation,
    g_logcosh,
    gauss_expectation,
    negentropy,
)
from adis_kit.nlp import AugLagConfig, check_gradients, solve


def mean_abs(t_target):
    """User equality: the mean absolute projection pinned to ``t_target``."""

    def constraint(w, Xd):
        z = w @ Xd
        val = np.abs(z).mean() - t_target
        grad = (np.sign(z) @ Xd.T) / Xd.shape[1]
        return np.array([val]), grad[None, :]

    return constraint


class TestGLogcosh:
    def test_zero(self):
        v, d = g_logcosh(0.0)
        assert v == 0.0
        assert d == 0.0

    def test_large_argument_no_overflow(self):
        v, d = g_logcosh(700.0)
        assert v == pytest.approx(700.0 - np.log(2.0), abs=1e-12)
        assert d == 1.0

    def test_against_high_precision_oracle(self):
        import mpmath
        mpmath.mp.dps = 40
        expected = float(mpmath.log(mpmath.cosh(1)))
        v, d = g_logcosh(1.0)
        assert v == pytest.approx(expected, abs=1e-15)
        assert d == pytest.approx(float(mpmath.tanh(1)), abs=1e-15)

    def test_finite_over_double_range(self):
        for x in (1e300, 1e308, -1e308, -12345.6):
            v, d = g_logcosh(x)
            assert np.isfinite(v)
            assert np.isfinite(d)

    def test_vectorized(self):
        x = np.array([-2.0, 0.0, 2.0])
        v, d = g_logcosh(x)
        np.testing.assert_allclose(v, [np.log(np.cosh(2))] * 2 + [0.0]
                                   if False else
                                   [np.log(np.cosh(2)), 0.0, np.log(np.cosh(2))],
                                   atol=1e-12)
        np.testing.assert_allclose(d, np.tanh(x))


class TestGaussExpectation:
    def test_node_count_stability(self):
        # quadrature self-consistency; the 60-node value is not yet at
        # 1e-12 of the converged one, 80 and beyond are
        g60, g80, g100 = (gauss_expectation(n) for n in (60, 80, 100))
        assert abs(g80 - g100) <= 1e-12
        assert abs(g60 - g100) <= 1e-10

    def test_positive(self):
        assert gauss_expectation() > 0.0

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(0)
        draws = rng.standard_normal(10_000_000)
        vals, _ = g_logcosh(draws)
        mc = vals.mean()
        se = vals.std() / np.sqrt(draws.size)
        assert abs(mc - gauss_expectation()) <= 3 * se

    def test_minimum_node_count(self):
        with pytest.raises(ValueError):
            gauss_expectation(40)


class TestNegentropy:
    def test_gaussian_projection_scores_near_zero(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((3, 1_000_000))
        w = np.array([1.0, 0.0, 0.0])
        J, _ = negentropy(w, X)
        assert J <= 1e-4

    def test_zero_direction(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((3, 100))
        J, grad = negentropy(np.zeros(3), X)
        assert J == pytest.approx(gauss_expectation() ** 2)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_against_central_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        r = int(rng.integers(2, 9))
        X = rng.standard_normal((r, 200))
        w = rng.standard_normal(r)
        J, grad = negentropy(w, X)
        fd = np.zeros(r)
        for i in range(r):
            h = 1e-6 * (1.0 + abs(w[i]))
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd[i] = (negentropy(wp, X)[0] - negentropy(wm, X)[0]) / (2 * h)
        assert np.max(np.abs(fd - grad) / (1.0 + np.abs(grad))) <= 1e-5

    def test_sign_symmetry_exact(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 300))
        w = rng.standard_normal(4)
        assert negentropy(w, X)[0] == negentropy(-w, X)[0]

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X = rng.standard_normal((3, 50))
            w = rng.standard_normal(3)
            assert negentropy(w, X)[0] >= 0.0

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            negentropy(np.ones(2), np.ones((2, 1)))


class TestScores:
    @staticmethod
    def directions(m, seed):
        rng = np.random.default_rng(seed)
        D = rng.uniform(-1.0, 1.0, size=(m, 5))
        return D / np.linalg.norm(D, axis=1)[:, None]

    @pytest.mark.parametrize("n", [600, 2000, 20000])
    @pytest.mark.parametrize("m", [1, 7, 1001])
    def test_matches_evaluate(self, n, m):
        # blocks of SCORE_BLOCK_ELEMENTS // n rows end mid-matrix here
        X = np.random.default_rng(n).laplace(size=(5, n))
        D = self.directions(m, seed=m)
        c = LogCoshNegentropy()
        ref = np.array([c.evaluate(d, X)[0] for d in D])
        np.testing.assert_allclose(c.scores(D, X), ref, rtol=1e-12, atol=0)

    def test_default_loops_over_evaluate(self):
        class Cubic(ContrastFn):
            name = "cubic"

            def evaluate(self, w, x_tilde):
                z = w @ x_tilde
                return float(np.mean(z ** 3)), np.zeros_like(w)

        X = np.random.default_rng(1).laplace(size=(5, 300))
        D = self.directions(7, seed=2)
        c = Cubic()
        ref = np.array([c.evaluate(d, X)[0] for d in D])
        np.testing.assert_array_equal(c.scores(D, X), ref)

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            LogCoshNegentropy().scores(np.ones((2, 2)), np.ones((2, 1)))


class TestCompose:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.X = rng.standard_normal((3, 400))
        self.W = np.linalg.qr(rng.standard_normal((3, 3)))[0][:, :2]

    def test_objective_is_negated_contrast(self):
        factory = ProblemFactory(LogCoshNegentropy())
        problem = factory.component_problem(self.W, self.X)
        z = np.array([0.6, 0.8])
        f, _ = problem.eval_objective(z)
        J, _ = negentropy(self.W @ z, self.X)
        assert f == pytest.approx(-J, abs=1e-14)

    def test_constant_hook_shifts_objective_only(self):
        kappa = 0.37
        plain = ProblemFactory(LogCoshNegentropy())
        hooked = ProblemFactory(
            LogCoshNegentropy(), b_hook=lambda w, X: (kappa, np.zeros(w.size)))
        z = np.array([1.0, 0.0])
        f0, g0 = plain.component_problem(self.W, self.X).eval_objective(z)
        f1, g1 = hooked.component_problem(self.W, self.X).eval_objective(z)
        assert f1 == pytest.approx(f0 - kappa, abs=1e-14)
        np.testing.assert_allclose(g1, g0, atol=1e-14)

    def test_component_problem_passes_gradient_audit(self):
        factory = ProblemFactory(LogCoshNegentropy())
        problem = factory.component_problem(self.W, self.X)
        rng = np.random.default_rng(6)
        check_gradients(problem, rng.standard_normal(2))

    def test_joint_problem_passes_gradient_audit(self):
        # the rotation problem at a random skew point, away from K = 0
        factory = ProblemFactory(LogCoshNegentropy())
        rng = np.random.default_rng(7)
        Q_start = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        problem = factory.joint_problem(self.X, Q_start)
        assert problem.dim == 3 and problem.n_eq == 0
        check_gradients(problem, rng.standard_normal(3))

    def test_cayley_rotation_is_orthogonal_and_identity_at_zero(self):
        rng = np.random.default_rng(9)
        Q_start = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        Q0, _ = cayley_rotation(np.zeros(6), Q_start)
        np.testing.assert_array_equal(Q0, Q_start)
        Q, _ = cayley_rotation(3.0 * rng.standard_normal(6), Q_start)
        assert np.max(np.abs(Q @ Q.T - np.eye(4))) <= 1e-12

    def test_user_equality_driven_to_tolerance(self):
        # one extra equality: mean absolute projection pinned to a level
        # reachable on the unit sphere
        X = self.X
        factory = ProblemFactory(
            LogCoshNegentropy(),
            constraints=ConstraintSet(eq=[(mean_abs(0.75), 1)]))
        problem = factory.component_problem(np.eye(3)[:, :3], X)
        sol = solve(problem, x0=np.array([1.0, 0.0, 0.0]),
                    config=AugLagConfig())
        assert sol.converged
        c, _ = problem.eval_eq(sol.x)
        assert np.max(np.abs(c)) <= 1e-6
