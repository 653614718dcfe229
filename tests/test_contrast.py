import warnings

import numpy as np
import pytest

from adis_kit.contrast import (
    GAUSS_LOGCOSH,
    ConstraintSet,
    ContrastFn,
    LogCoshNegentropy,
    SCORE_BLOCK_ELEMENTS,
    ProblemFactory,
    cayley_rotation,
    _mean_logcosh,
    cayley_row0,
    g_logcosh,
    gauss_expectation,
    negentropy,
)
from adis_kit.nlp import AugLagConfig, check_gradients, solve
from adis_kit.whiten import center, fit_ppca


def mean_abs(t_target):
    """User equality: the mean absolute projection pinned to ``t_target``."""

    def constraint(w, Xd):
        z = w @ Xd
        val = np.abs(z).mean() - t_target
        grad = (np.sign(z) @ Xd.T) / Xd.shape[1]
        return np.array([val]), grad[None, :]

    return constraint


class Cubic(ContrastFn):
    """Third sample moment of the projection; inherits the default
    ``scores`` and ``evaluate_rows`` loops."""

    def evaluate(self, w, x_tilde):
        z = w @ x_tilde
        n = x_tilde.shape[1]
        return float(np.mean(z ** 3)), 3.0 * (x_tilde @ (z * z)) / n


class CubicPlusQuadratic(Cubic):
    """``Cubic`` plus ``0.1 (w . a)^2``; overrides ``evaluate`` alone, so
    ``evaluate_rows`` and ``scores`` are the defaults that loop over it."""

    def __init__(self, a):
        self.a = a

    def evaluate(self, w, x_tilde):
        value, grad = super().evaluate(w, x_tilde)
        t = w @ self.a
        return value + 0.1 * t * t, grad + 0.2 * t * self.a


class LogCoshPlusQuadratic(ContrastFn):
    """Log-cosh negentropy plus ``c (w . a)^2`` in every stage: the README's
    pattern for a supplementary objective term. It holds the log-cosh
    contrast instead of subclassing it, so each of the three methods adds
    the term once to that contrast's own method."""

    def __init__(self, a, c=0.1):
        self.base, self.a, self.c = LogCoshNegentropy(), np.asarray(a), c

    def evaluate(self, w, x_tilde):
        value, grad = self.base.evaluate(w, x_tilde)
        t = float(w @ self.a)
        return value + self.c * t * t, grad + 2.0 * self.c * t * self.a

    def evaluate_rows(self, W, x_tilde):
        values, grads = self.base.evaluate_rows(W, x_tilde)
        t = W @ self.a
        return (values + self.c * t * t,
                grads + 2.0 * self.c * np.multiply.outer(t, self.a))

    def scores(self, D, x_tilde):
        t = D @ self.a
        return self.base.scores(D, x_tilde) + self.c * t * t


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

    def test_constant_is_the_integral_rounded_once(self):
        import mpmath
        with mpmath.workdps(40):
            def density(v):
                return (mpmath.log(mpmath.cosh(v)) * mpmath.exp(-v * v / 2)
                        / mpmath.sqrt(2 * mpmath.pi))
            # the integrand is even; beyond 40 it is below 1e-340
            exact = 2 * mpmath.quad(density, [0, 1, 2, 4, 8, 16, 40])
            assert abs(GAUSS_LOGCOSH - exact) <= 1e-16

    def test_constant_against_the_quadrature(self):
        # the 80-node rule is 5.8e-13 above the integral (its own error, as
        # test_node_count_stability bounds it); 120 nodes come within 2e-15
        assert abs(GAUSS_LOGCOSH - gauss_expectation(80)) <= 1e-12
        assert abs(GAUSS_LOGCOSH - gauss_expectation(120)) <= 2e-15


def _reference_mean_logcosh(z):
    """Mean of log cosh over ``z`` at 40 digits, rounded once."""
    import mpmath
    with mpmath.workdps(40):
        total = mpmath.fsum(mpmath.log(mpmath.cosh(mpmath.mpf(float(v))))
                            for v in z)
        return float(total / len(z))


class TestMeanLogcoshKernel:
    """The block-product kernel against a 40-digit reference: one log per
    16 samples, with the rows' last blocks ending mid-row."""

    SIZES = [2, 15, 16, 17, 33, 600, 2000, 20000]

    @staticmethod
    def projection(family, n, seed=0):
        rng = np.random.default_rng(seed + n)
        if family == "laplace":
            return rng.laplace(size=n) / np.sqrt(2.0)
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=n)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("family", ["laplace", "uniform"])
    def test_mean_within_1e15_of_reference(self, family, n):
        z = self.projection(family, n)
        ref = _reference_mean_logcosh(z)
        got = _mean_logcosh(z, np.empty_like(z))
        assert abs(float(got) - ref) <= 1e-15
        # in place, as scores runs it, z itself is the scratch
        assert _mean_logcosh(z.copy(), z) == got

    @pytest.mark.parametrize("n", SIZES)
    def test_rows_match_single_rows(self, n):
        Z = np.array([self.projection(f, n, seed=s)
                      for s in range(3) for f in ("laplace", "uniform")])
        means = _mean_logcosh(Z, np.empty_like(Z))
        assert means.shape == (6,)
        for z, m in zip(Z, means):
            assert m == pytest.approx(_mean_logcosh(z, np.empty_like(z)),
                                      rel=1e-13, abs=0)
            assert abs(m - _reference_mean_logcosh(z)) <= 1e-15

    @pytest.mark.parametrize("n", [17, 33, 600])
    def test_large_values(self, n):
        # exp(-2|z|) is 0 from |z| = 373 on; 1e300 dwarfs the rest
        z = self.projection("laplace", n)
        z[[0, 5, 16]] = [373.0, -400.0, 1e4]
        ref = _reference_mean_logcosh(z)
        assert _mean_logcosh(z, np.empty_like(z)) == pytest.approx(
            ref, rel=1e-15, abs=1e-15)
        z[n // 2] = -1e300
        ref = _reference_mean_logcosh(z)
        assert _mean_logcosh(z, np.empty_like(z)) == pytest.approx(
            ref, rel=1e-15, abs=0)

    @pytest.mark.parametrize("n", [2, 17, 600])
    def test_infinities_and_nan(self, n):
        z = self.projection("uniform", n)
        for bad in (np.inf, -np.inf):
            zb = z.copy()
            zb[-1] = bad
            assert _mean_logcosh(zb, np.empty_like(zb)) == np.inf
        zb = z.copy()
        zb[0] = np.nan
        assert np.isnan(_mean_logcosh(zb, np.empty_like(zb)))
        Z = np.array([z, zb, z])
        means = _mean_logcosh(Z, np.empty_like(Z))
        assert np.isnan(means[1]) and np.all(np.isfinite(means[[0, 2]]))

    def test_nan_propagates_through_the_contrast(self):
        # a NaN sample reaches every projection, even one with a zero
        # weight on its channel (0 * NaN is NaN), and every gradient entry
        X = np.random.default_rng(6).laplace(size=(3, 40))
        X[1, 7] = np.nan
        D = np.array([[0.6, 0.0, 0.8], [0.0, 1.0, 0.0]])
        for w in D:
            value, grad = negentropy(w, X)
            assert np.isnan(value) and np.all(np.isnan(grad))
        values, grads = negentropy(D, X)
        assert np.all(np.isnan(values)) and np.all(np.isnan(grads))
        assert np.all(np.isnan(LogCoshNegentropy().scores(D, X)))


class TestMeanLogcoshOverflow:
    """Rows whose cosh product overflows are summed again from z: within
    1e-15 of the 40-digit reference, with no warning."""

    N = 600     # 37 blocks of 16, and a tail of 8 samples

    @staticmethod
    def check(z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _mean_logcosh(z, np.empty_like(z))
        ref = _reference_mean_logcosh(z)
        if np.isnan(ref) or np.isinf(ref):
            assert got == ref or (np.isnan(got) and np.isnan(ref))
        else:
            assert abs(got - ref) <= 1e-15
        return got

    def base(self):
        return TestMeanLogcoshKernel.projection("laplace", self.N)

    def test_a_block_of_finite_cosh_values_overflows(self):
        # cosh(50)^16 is about e^800 / 2^16: every factor finite, the
        # product not; block 3 holds samples 3, 3 + 37, ..., 3 + 15 * 37
        z = self.base()
        z[3:16 * 37:37] = 50.0
        with np.errstate(over="ignore"):
            assert np.isinf(np.prod(np.cosh(z[3:16 * 37:37])))
        self.check(z)

    @pytest.mark.parametrize("where", [5, 595])
    def test_a_single_cosh_overflows(self, where):
        # sample 5 lies in a full block, sample 595 in the tail
        z = self.base()
        z[where] = -800.0
        self.check(z)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_next_to_an_overflowing_block(self, bad):
        z = self.base()
        z[3:16 * 37:37] = 50.0
        z[100] = bad
        got = self.check(z)
        assert np.isnan(got) if np.isnan(bad) else got == np.inf

    def test_overflowing_row_among_rows(self):
        # only the overflowing row is summed again; the others keep their
        # block-product values (row 1's mean is about 17, hence relative)
        Z = np.array([self.base(), self.base(), self.base()])
        Z[1, 7] = 1e4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            means = _mean_logcosh(Z, np.empty_like(Z))
        assert means[0] == means[2] == _mean_logcosh(Z[0], np.empty_like(Z[0]))
        assert means[1] == pytest.approx(_reference_mean_logcosh(Z[1]),
                                         rel=1e-15, abs=1e-15)

    def test_scratch_that_is_z_leaves_z_intact(self):
        z = self.base()
        z[5] = 800.0
        kept = z.copy()
        assert _mean_logcosh(z, z) == _mean_logcosh(kept, np.empty_like(z))
        assert z.tobytes() == kept.tobytes()


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
        X = np.random.default_rng(1).laplace(size=(5, 300))
        D = self.directions(7, seed=2)
        c = Cubic()
        ref = np.array([c.evaluate(d, X)[0] for d in D])
        np.testing.assert_array_equal(c.scores(D, X), ref)

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            LogCoshNegentropy().scores(np.ones((2, 2)), np.ones((2, 1)))


class TestEvaluateRows:
    @staticmethod
    def rows_and_data(n, m=5, seed=0):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((m, 5))
        return W / np.linalg.norm(W, axis=1)[:, None], rng.laplace(size=(5, n))

    # 5 x 2,000 projected elements fit the block budget, 5 x 20,000 do not
    @pytest.mark.parametrize("n", [2000, 20000])
    def test_block_negentropy_matches_each_row(self, n):
        W, X = self.rows_and_data(n)
        values, grads = negentropy(W, X)
        assert values.shape == (5,) and grads.shape == (5, 5)
        for w, v, g in zip(W, values, grads):
            v1, g1 = negentropy(w, X)
            assert v == pytest.approx(v1, rel=1e-13, abs=0)
            np.testing.assert_allclose(g, g1, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [2000, 20000])
    def test_logcosh_rows_match_evaluate(self, n):
        W, X = self.rows_and_data(n, seed=1)
        values, grads = LogCoshNegentropy().evaluate_rows(W, X)
        ref = [negentropy(w, X) for w in W]
        if W.shape[0] * n > SCORE_BLOCK_ELEMENTS:
            # above the budget every row takes the 1-D path, bit for bit
            np.testing.assert_array_equal(values, [v for v, _ in ref])
            np.testing.assert_array_equal(grads, [g for _, g in ref])
        else:
            np.testing.assert_allclose(values, [v for v, _ in ref],
                                       rtol=1e-13, atol=0)
            np.testing.assert_allclose(grads, [g for _, g in ref],
                                       rtol=1e-13, atol=0)

    def test_default_loops_over_evaluate(self):
        W, X = self.rows_and_data(300, m=4, seed=2)
        c = Cubic()
        values, grads = c.evaluate_rows(W, X)
        for w, v, g in zip(W, values, grads):
            v1, g1 = c.evaluate(w, X)
            assert v == v1
            np.testing.assert_array_equal(g, g1)

    @pytest.mark.parametrize("n", [2000, 20000])
    def test_subclass_evaluate_leaves_rows_on_logcosh(self, n):
        # below and above the block budget alike, the rows are plain
        # log-cosh: an overridden evaluate reaches neither path
        class Shifted(LogCoshNegentropy):
            def evaluate(self, w, x_tilde):
                value, grad = super().evaluate(w, x_tilde)
                return value + 1.0, grad

        W, X = self.rows_and_data(n, seed=5)
        values, grads = Shifted().evaluate_rows(W, X)
        ref = [negentropy(w, X) for w in W]
        np.testing.assert_allclose(values, [v for v, _ in ref],
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(grads, [g for _, g in ref],
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [2000, 20000])
    def test_added_term_rows_match_evaluate(self, n):
        # the term is added once below and above the block budget, where
        # the log-cosh rows go through its own evaluate, not the sum's
        W, X = self.rows_and_data(n, seed=3)
        c = LogCoshPlusQuadratic(np.random.default_rng(4).standard_normal(5))
        values, grads = c.evaluate_rows(W, X)
        for w, v, g in zip(W, values, grads):
            v1, g1 = c.evaluate(w, X)
            assert v == pytest.approx(v1, rel=1e-13, abs=0)
            np.testing.assert_allclose(g, g1, rtol=1e-13, atol=0)
        D = W / np.linalg.norm(W, axis=1)[:, None]
        np.testing.assert_allclose(
            c.scores(D, X), [c.evaluate(d, X)[0] for d in D],
            rtol=1e-12, atol=0)

    @pytest.mark.parametrize("moved", [2, 3])
    def test_default_rows_and_added_term_pass_gradient_audit(self, moved):
        # a Stage 2 problem through the default evaluate_rows of a contrast
        # with a term added to evaluate; moved = 2 rotates two of three rows
        rng = np.random.default_rng(11)
        X = rng.laplace(size=(3, 500))
        contrast = CubicPlusQuadratic(rng.standard_normal(3))
        assert type(contrast).evaluate_rows is ContrastFn.evaluate_rows
        factory = ProblemFactory(contrast)
        Q_start = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        problem = factory.rotation_problem(X, Q_start, moved=moved)
        assert problem.dim == 3
        x = rng.standard_normal(3)
        check_gradients(problem, x)
        Q, _ = cayley_rotation(x, Q_start)
        f, _ = problem.eval_objective(x)
        expected = sum(contrast.evaluate(w, X)[0] for w in Q[:moved])
        assert f == pytest.approx(-expected, rel=1e-14)


class TestCayleyRow0:
    """The closed form of row 0 of a Cayley rotation whose K has only row 0
    against the general ``cayley_rotation``."""

    @staticmethod
    def case(r, size, seed):
        rng = np.random.default_rng(seed)
        # r orthonormal rows of R^(r+2), the shape of a carried Stage 1 block
        start = np.linalg.qr(rng.standard_normal((r + 2, r + 2)))[0][:r]
        x = rng.standard_normal(r - 1)
        return start, size * x / np.linalg.norm(x), rng

    @pytest.mark.parametrize("size", [1e-8, 1e-3, 1.0, 30.0, 1e3])
    @pytest.mark.parametrize("r", range(2, 13))
    def test_row_pullback_and_block_match_general_map(self, r, size):
        start, x, rng = self.case(r, size, seed=100 * r)
        Q, pull = cayley_rotation(x, start)
        w, pull0 = cayley_row0(x, start)
        np.testing.assert_allclose(w, Q[0], rtol=0, atol=1e-14)
        # gradients of the objective (one row) and of a 3-row Jacobian
        g = rng.standard_normal(start.shape[1])
        G = np.zeros_like(Q)
        G[0] = g
        np.testing.assert_allclose(pull0(g), pull(G), rtol=0, atol=1e-14)
        J = rng.standard_normal((3, start.shape[1]))
        GJ = np.zeros((3,) + Q.shape)
        GJ[:, 0] = J
        np.testing.assert_allclose(pull0(J), pull(GJ), rtol=0, atol=1e-14)


class TestCompose:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.X = rng.standard_normal((4, 400))
        # three orthonormal rows of R^4: the basis of a deflated complement
        self.start = np.linalg.qr(rng.standard_normal((4, 4)))[0][:, :3].T
        self.factory = ProblemFactory(LogCoshNegentropy())

    def test_component_problem_has_no_constraints(self):
        # unit norm and orthogonality are structural: no built-in equality
        problem = self.factory.rotation_problem(self.X, self.start, moved=1)
        assert problem.dim == 2
        assert problem.n_eq == 0 and problem.n_ineq == 0

    def test_objective_is_negated_contrast(self):
        problem = self.factory.rotation_problem(self.X, self.start, moved=1)
        f, _ = problem.eval_objective(np.zeros(2))
        J, _ = negentropy(self.start[0], self.X)
        assert f == pytest.approx(-J, abs=1e-14)

    def test_constant_term_shifts_objective_only(self):
        kappa = 0.37

        class Shifted(LogCoshNegentropy):
            def evaluate(self, w, x_tilde):
                value, grad = super().evaluate(w, x_tilde)
                return value + kappa, grad

        x = np.array([0.4, -0.3])
        f0, g0 = self.factory.rotation_problem(
            self.X, self.start, moved=1).eval_objective(x)
        f1, g1 = ProblemFactory(Shifted()).rotation_problem(
            self.X, self.start, moved=1).eval_objective(x)
        assert f1 == pytest.approx(f0 - kappa, abs=1e-14)
        np.testing.assert_allclose(g1, g0, atol=1e-14)

    def test_component_problem_passes_gradient_audit(self):
        problem = self.factory.rotation_problem(self.X, self.start, moved=1)
        rng = np.random.default_rng(6)
        check_gradients(problem, rng.standard_normal(2))

    def test_constrained_component_problem_passes_gradient_audit(self):
        # the user equality's Jacobian goes through the row-0 pullback too
        factory = ProblemFactory(
            LogCoshNegentropy(),
            constraints=ConstraintSet(eq=[(mean_abs(0.75), 1)]))
        problem = factory.rotation_problem(self.X, self.start, moved=1)
        assert problem.n_eq == 1
        rng = np.random.default_rng(6)
        check_gradients(problem, rng.standard_normal(2))

    def test_joint_problem_passes_gradient_audit(self):
        # the rotation of every row at a random skew point, away from K = 0
        rng = np.random.default_rng(7)
        Q_start = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        problem = self.factory.rotation_problem(self.X[:3], Q_start, moved=3)
        assert problem.dim == 3 and problem.n_eq == 0
        check_gradients(problem, rng.standard_normal(3))

    def test_cayley_rotation_is_orthogonal_and_identity_at_zero(self):
        rng = np.random.default_rng(9)
        Q_start = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        Q0, _ = cayley_rotation(np.zeros(6), Q_start)
        np.testing.assert_array_equal(Q0, Q_start)
        Q, _ = cayley_rotation(3.0 * rng.standard_normal(6), Q_start)
        assert np.max(np.abs(Q @ Q.T - np.eye(4))) <= 1e-12

    def test_cayley_rotation_keeps_rectangular_rows_orthonormal(self):
        # four orthonormal rows of R^6; three leading entries move row 0,
        # six move every row; the rows stay in the span of the start
        rng = np.random.default_rng(10)
        start = np.linalg.qr(rng.standard_normal((6, 6)))[0][:, :4].T
        for size in (3, 6):
            Q, _ = cayley_rotation(3.0 * rng.standard_normal(size), start)
            assert Q.shape == (4, 6)
            assert np.max(np.abs(Q @ Q.T - np.eye(4))) <= 1e-12
            assert np.max(np.abs(Q - Q @ start.T @ start)) <= 1e-12

    def test_user_equality_driven_to_tolerance(self):
        # one extra equality: mean absolute projection pinned to a level
        # reachable on the unit sphere of R^3
        X = np.random.default_rng(5).standard_normal((3, 400))
        factory = ProblemFactory(
            LogCoshNegentropy(),
            constraints=ConstraintSet(eq=[(mean_abs(0.75), 1)]))
        problem = factory.rotation_problem(X, np.eye(3), moved=1)
        assert problem.n_eq == 1
        sol = solve(problem, x0=np.zeros(2), config=AugLagConfig())
        assert sol.converged
        c, _ = problem.eval_eq(sol.x)
        assert np.max(np.abs(c)) <= 1e-6


def _central_jacobian(fn, x, h=1e-5):
    """Central differences of a vector function of x, one column per
    entry of x."""
    cols = [(fn(x + e) - fn(x - e)) / (2.0 * h) for e in h * np.eye(x.size)]
    return np.array(cols).T


class TestCurvature:
    """``hessian_rows`` and ``ProblemFactory.rotation_hessian`` against
    central differences of the analytic gradients."""

    @staticmethod
    def data(q, n=3000, seed=0):
        rng = np.random.default_rng(seed + q)
        S = rng.laplace(size=(q, n))
        Qr, _ = np.linalg.qr(rng.standard_normal((q, q)))
        start, _ = np.linalg.qr(rng.standard_normal((q, q)))
        X = fit_ppca(center(Qr @ S, channel_center=False), q).x_tilde
        return X, start

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_rows_match_negentropy(self, q):
        X, W = self.data(q)
        grads, hessians = LogCoshNegentropy().hessian_rows(W, X)
        values, want = negentropy(W, X)
        np.testing.assert_allclose(grads, want, rtol=1e-12, atol=1e-16)
        for w, H in zip(W, hessians):
            assert np.array_equal(H, H.T)
            fd = _central_jacobian(lambda v: negentropy(v, X)[1], w)
            assert np.abs(H - fd).max() <= 1e-8 * np.abs(H).max()

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    def test_rotation_hessian_matches_differences(self, q):
        X, start = self.data(q)
        factory = ProblemFactory(LogCoshNegentropy())
        for moved in sorted({1, q}):
            problem = factory.rotation_problem(X, start, moved)
            H = factory.rotation_hessian(X, start, moved)
            assert H.shape == (problem.dim, problem.dim)
            assert np.array_equal(H, H.T)
            fd = _central_jacobian(lambda x: problem.eval_objective(x)[1],
                                   np.zeros(problem.dim))
            assert np.abs(H - fd).max() <= 1e-9

    def test_contrast_without_curvature_offers_none(self):
        X, start = self.data(3)
        assert Cubic().hessian_rows(start, X) is None
        assert ProblemFactory(Cubic()).rotation_hessian(X, start, 3) is None
