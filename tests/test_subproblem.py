import numpy as np
import pytest

from adis_kit.nlp import cauchy_point, steihaug_cg, trust_region_update


class TestTrustRegionUpdate:
    def test_expand_on_good_step_at_boundary(self):
        step = np.array([1.0, 0.2])
        assert trust_region_update(0.9, step, 1.0) == 2.0

    def test_hold_on_good_step_inside(self):
        step = np.array([0.5, 0.2])
        assert trust_region_update(0.9, step, 1.0) == 1.0

    def test_hold_on_moderate_ratio(self):
        assert trust_region_update(0.5, np.array([1.0]), 1.0) == 1.0

    def test_shrink_on_poor_ratio(self):
        assert trust_region_update(0.05, np.array([1.0]), 1.0) == 0.5

    def test_branch_boundaries(self):
        assert trust_region_update(0.1, np.array([1.0]), 2.0) == 2.0
        assert trust_region_update(0.75, np.array([2.0]), 2.0) == 2.0

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            trust_region_update(0.5, np.array([1.0]), 0.0)


class TestSteihaug:
    def test_identity_returns_negative_gradient(self):
        g = np.array([1.0, -2.0, 0.5])
        v = steihaug_cg(np.eye(3), g, delta=100.0, tol=1e-12)
        np.testing.assert_allclose(v, -g, atol=1e-12)

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((4, 4))
        B = M @ M.T + 4 * np.eye(4)
        g = rng.standard_normal(4)
        v = steihaug_cg(B, g, delta=1e6, tol=1e-14, max_iter=100)
        np.testing.assert_allclose(v, np.linalg.solve(B, -g), atol=1e-10)

    def test_negative_curvature_reaches_boundary(self):
        B = np.diag([-1.0, 1.0])
        g = np.array([1.0, 0.0])
        v = steihaug_cg(B, g, delta=2.0)
        assert np.max(np.abs(v)) == pytest.approx(2.0, abs=1e-12)

    def test_zero_gradient_returns_zero(self):
        v = steihaug_cg(np.eye(3), np.zeros(3), delta=1.0)
        np.testing.assert_array_equal(v, np.zeros(3))

    def test_respects_variable_box(self):
        B = np.eye(2)
        g = np.array([-5.0, 0.0])   # unconstrained step would be +5 in x0
        v = steihaug_cg(B, g, delta=10.0, box=(np.array([-1.0, -1.0]),
                                               np.array([0.5, 1.0])))
        assert v[0] <= 0.5 + 1e-12

    @pytest.mark.parametrize("seed", range(100))
    def test_boundary_and_cauchy_dominance(self, seed):
        # random (B, g, delta): step stays inside the region and the model
        # value never exceeds the classic Cauchy point's (the minimizer of
        # the model along -g truncated at the region boundary)
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 8)
        M = rng.standard_normal((n, n))
        B = (M + M.T) / 2          # indefinite on purpose
        g = rng.standard_normal(n)
        delta = float(rng.uniform(0.1, 3.0))
        v = steihaug_cg(B, g, delta=delta, tol=1e-10)
        assert np.max(np.abs(v)) <= delta + 1e-12

        model = lambda p: g @ p + 0.5 * p @ B @ p
        t_edge = delta / np.max(np.abs(g))
        curv = float(g @ B @ g)
        if curv > 0:
            t_star = min(float(g @ g) / curv, t_edge)
        else:
            t_star = t_edge
        cauchy_classic = -t_star * g
        assert model(v) <= model(cauchy_classic) + 1e-10
        assert model(v) <= 0.0 + 1e-12   # never worse than the zero step

    @pytest.mark.parametrize("seed", range(100))
    def test_composed_step_dominates_projected_cauchy_point(self, seed):
        # the solver's composition: projected Cauchy point then CG on the
        # free subspace; the combined step must not lose model value
        rng = np.random.default_rng(1000 + seed)
        n = rng.integers(2, 8)
        M = rng.standard_normal((n, n))
        B = (M + M.T) / 2
        g = rng.standard_normal(n)
        delta = float(rng.uniform(0.1, 3.0))
        lo, hi = np.full(n, -delta), np.full(n, delta)
        cp = cauchy_point(B, g, lo, hi)
        step = cp.p.copy()
        free = ~cp.active
        if free.any():
            g_red = (g + B @ cp.p)[free]
            B_red = B[np.ix_(free, free)]
            v = steihaug_cg(B_red, g_red, delta=np.inf, tol=1e-8,
                            box=(np.minimum(lo[free] - cp.p[free], 0),
                                 np.maximum(hi[free] - cp.p[free], 0)))
            step[free] += v
        model = lambda p: g @ p + 0.5 * p @ B @ p
        assert np.max(np.abs(step)) <= delta + 1e-12
        assert model(step) <= model(cp.p) + 1e-10


class TestCauchyPoint:
    def test_unconstrained_quadratic_exact_minimizer_direction(self):
        # B = I: the path minimizer along -g is -g itself when inside the box
        g = np.array([0.3, -0.4])
        cp = cauchy_point(np.eye(2), g, np.full(2, -10.0), np.full(2, 10.0))
        np.testing.assert_allclose(cp.p, -g, atol=1e-14)
        assert not cp.active.any()

    def test_freezes_at_bounds(self):
        g = np.array([-1.0, 0.0])
        cp = cauchy_point(np.eye(2), g, np.full(2, -0.25), np.full(2, 0.25))
        assert cp.p[0] == pytest.approx(0.25)
        assert cp.active[0]

    def test_pinned_variable_never_moves(self):
        g = np.array([-1.0, -1.0])
        lo = np.array([0.0, -1.0])
        hi = np.array([0.0, 1.0])   # first variable pinned
        cp = cauchy_point(np.eye(2), g, lo, hi)
        assert cp.p[0] == 0.0
        assert cp.active[0]

    def test_model_decrease_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = rng.integers(2, 7)
            M = rng.standard_normal((n, n))
            B = (M + M.T) / 2
            g = rng.standard_normal(n)
            delta = float(rng.uniform(0.1, 2.0))
            cp = cauchy_point(B, g, np.full(n, -delta), np.full(n, delta))
            model = g @ cp.p + 0.5 * cp.p @ B @ cp.p
            assert model <= 1e-12
            assert cp.model_decrease == pytest.approx(-model, abs=1e-10)
