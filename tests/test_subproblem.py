import numpy as np
import pytest

from adis_kit.nlp import cauchy_point, steihaug_cg, trust_region_update
from adis_kit.nlp import subproblem
from adis_kit.nlp.subproblem import ACTIVE_TOL, _max_step_in_box


def _ball(n, delta):
    """The inf-norm trust region of radius ``delta`` as a box."""
    return np.full(n, -delta), np.full(n, delta)


def _model(B, g, p):
    """g'p + 0.5 p'Bp, the model value of the step p."""
    return float(g @ p + 0.5 * p @ B @ p)


class TestTrustRegionUpdate:
    # the second argument is the step's inf-norm
    def test_expand_on_good_step_at_boundary(self):
        assert trust_region_update(0.9, 1.0, 1.0) == 2.0

    def test_hold_on_good_step_inside(self):
        assert trust_region_update(0.9, 0.5, 1.0) == 1.0

    def test_hold_on_moderate_ratio(self):
        assert trust_region_update(0.5, 1.0, 1.0) == 1.0

    def test_shrink_on_poor_ratio(self):
        assert trust_region_update(0.05, 1.0, 1.0) == 0.5

    def test_branch_boundaries(self):
        assert trust_region_update(0.1, 1.0, 2.0) == 2.0
        assert trust_region_update(0.75, 2.0, 2.0) == 2.0

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            trust_region_update(0.5, 1.0, 0.0)


class TestSteihaug:
    def test_identity_returns_negative_gradient(self):
        g = np.array([1.0, -2.0, 0.5])
        v = steihaug_cg(np.eye(3), g, *_ball(3, 100.0), tol=1e-12)
        np.testing.assert_allclose(v, -g, atol=1e-12)

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((4, 4))
        B = M @ M.T + 4 * np.eye(4)
        g = rng.standard_normal(4)
        v = steihaug_cg(B, g, *_ball(4, 1e6), tol=1e-14)
        np.testing.assert_allclose(v, np.linalg.solve(B, -g), atol=1e-10)

    def test_negative_curvature_reaches_boundary(self):
        B = np.diag([-1.0, 1.0])
        g = np.array([1.0, 0.0])
        v = steihaug_cg(B, g, *_ball(2, 2.0))
        assert np.max(np.abs(v)) == pytest.approx(2.0, abs=1e-12)

    def test_zero_gradient_returns_zero(self):
        v = steihaug_cg(np.eye(3), np.zeros(3), *_ball(3, 1.0))
        np.testing.assert_array_equal(v, np.zeros(3))

    def test_respects_variable_box(self):
        B = np.eye(2)
        g = np.array([-5.0, 0.0])   # unconstrained step would be +5 in x0
        v = steihaug_cg(B, g, np.array([-1.0, -1.0]), np.array([0.5, 1.0]))
        assert v[0] <= 0.5 + 1e-12

    def test_widens_box_to_contain_zero(self):
        # a box that excludes v = 0 is widened to contain it: the minimizer
        # 0.25 lies below the given lower bound 0.5 and is returned
        v = steihaug_cg(np.eye(2), np.array([-0.25, 0.0]),
                        np.array([0.5, 0.5]), np.array([2.0, 2.0]))
        np.testing.assert_array_equal(v, [0.25, 0.0])

    def test_stops_after_2n_plus_5_iterations(self, monkeypatch):
        # with a residual tolerance of 0 and a box it never reaches, only the
        # iteration limit stops CG on an ill-conditioned B; each iteration
        # takes one step length to the box
        n = 12
        B = np.diag(np.logspace(0, 12, n))
        g = np.ones(n)
        calls = []

        def counted(*args):
            calls.append(1)
            return _max_step_in_box(*args)

        monkeypatch.setattr(subproblem, "_max_step_in_box", counted)
        v = steihaug_cg(B, g, *_ball(n, 1e9), tol=0.0)
        assert len(calls) == 2 * n + 5
        ref = _reference_steihaug_cg(B, g, delta=1e9, tol=0.0)
        assert _same_bits(v, ref)

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
        v = steihaug_cg(B, g, *_ball(n, delta), tol=1e-10)
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
        p, active = cauchy_point(B, g, lo, hi)
        step = p.copy()
        free = ~active
        if free.any():
            g_red = (g + B @ p)[free]
            B_red = B[np.ix_(free, free)]
            v = steihaug_cg(B_red, g_red, lo[free] - p[free],
                            hi[free] - p[free], tol=1e-8)
            step[free] += v
        assert np.max(np.abs(step)) <= delta + 1e-12
        assert _model(B, g, step) <= _model(B, g, p) + 1e-10


class TestCauchyPoint:
    def test_unconstrained_quadratic_exact_minimizer_direction(self):
        # B = I: the path minimizer along -g is -g itself when inside the box
        g = np.array([0.3, -0.4])
        p, active = cauchy_point(np.eye(2), g, *_ball(2, 10.0))
        np.testing.assert_allclose(p, -g, atol=1e-14)
        assert not active.any()

    def test_freezes_at_bounds(self):
        g = np.array([-1.0, 0.0])
        p, active = cauchy_point(np.eye(2), g, *_ball(2, 0.25))
        assert p[0] == pytest.approx(0.25)
        assert active[0]

    def test_pinned_variable_never_moves(self):
        g = np.array([-1.0, -1.0])
        lo = np.array([0.0, -1.0])
        hi = np.array([0.0, 1.0])   # first variable pinned
        p, active = cauchy_point(np.eye(2), g, lo, hi)
        assert p[0] == 0.0
        assert active[0]

    def test_model_decrease_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = rng.integers(2, 7)
            M = rng.standard_normal((n, n))
            B = (M + M.T) / 2
            g = rng.standard_normal(n)
            delta = float(rng.uniform(0.1, 2.0))
            p, _ = cauchy_point(B, g, *_ball(n, delta))
            assert -_model(B, g, p) >= -1e-12


# The kernels as they were before they were rewritten for fewer numpy calls:
# the rewrite must give the same bits, so these stay as the reference.

def _reference_cauchy_point(B, g, lo, hi):
    n = g.size
    p = np.zeros(n)
    d = -g.copy()
    d[(lo >= -ACTIVE_TOL) & (d < 0)] = 0.0
    d[(hi <= ACTIVE_TOL) & (d > 0)] = 0.0

    t_hit = np.full(n, np.inf)
    pos = d > 0
    neg = d < 0
    t_hit[pos] = hi[pos] / d[pos]
    t_hit[neg] = lo[neg] / d[neg]

    Bp = np.zeros(n)
    Bd = B @ d
    t = 0.0
    decrease = 0.0
    moving = d != 0.0

    while np.any(moving):
        t_next = np.min(t_hit[moving])
        seg = min(t_next, np.inf) - t
        f1 = float(g @ d + Bp @ d)
        f2 = float(d @ Bd)
        if f1 >= 0.0:
            break
        if f2 > 0.0:
            t_star = -f1 / f2
            if t_star < seg:
                p = p + t_star * d
                decrease += -(f1 * t_star + 0.5 * f2 * t_star * t_star)
                Bp = Bp + t_star * Bd
                t += t_star
                break
        if not np.isfinite(t_next):
            break
        p = p + seg * d
        decrease += -(f1 * seg + 0.5 * f2 * seg * seg)
        Bp = Bp + seg * Bd
        t = t_next
        frozen = moving & (t_hit <= t_next + ACTIVE_TOL * (1 + t_next))
        for i in np.flatnonzero(frozen):
            p[i] = hi[i] if d[i] > 0 else lo[i]
            Bd = Bd - B[:, i] * d[i]
            d[i] = 0.0
            t_hit[i] = np.inf
            moving[i] = False

    active = (p <= lo + ACTIVE_TOL * (1.0 + np.abs(lo))) | \
             (p >= hi - ACTIVE_TOL * (1.0 + np.abs(hi))) | (lo == hi)
    return p, active, float(decrease)


def _reference_max_step_in_box(v, d, lo, hi):
    alpha = np.inf
    pos = d > 0
    neg = d < 0
    if np.any(pos):
        alpha = min(alpha, float(np.min((hi[pos] - v[pos]) / d[pos])))
    if np.any(neg):
        alpha = min(alpha, float(np.min((lo[neg] - v[neg]) / d[neg])))
    return max(alpha, 0.0)


def _reference_steihaug_cg(B, g, delta, tol=0.1, box=None, max_iter=None,
                           abs_tol=0.0):
    g = np.asarray(g, dtype=float)
    n = g.size
    B = np.asarray(B, dtype=float)
    lo = np.full(n, -delta)
    hi = np.full(n, delta)
    if box is not None:
        lo = np.maximum(lo, np.asarray(box[0], dtype=float))
        hi = np.minimum(hi, np.asarray(box[1], dtype=float))
    lo = np.minimum(lo, 0.0)
    hi = np.maximum(hi, 0.0)

    gnorm = np.linalg.norm(g)
    if gnorm == 0.0:
        return np.zeros(n)
    threshold = tol * gnorm
    if abs_tol > 0.0:
        threshold = min(threshold, abs_tol)
    if max_iter is None:
        max_iter = 2 * n + 5

    v = np.zeros(n)
    r = g.copy()
    d = -r
    rr = float(r @ r)
    for _ in range(max_iter):
        Bd = B @ d
        kappa = float(d @ Bd)
        if kappa <= 0.0:
            return v + _reference_max_step_in_box(v, d, lo, hi) * d
        alpha = rr / kappa
        alpha_max = _reference_max_step_in_box(v, d, lo, hi)
        if alpha >= alpha_max:
            return v + alpha_max * d
        v = v + alpha * d
        r = r + alpha * Bd
        if np.linalg.norm(r) <= threshold:
            return v
        rr_new = float(r @ r)
        d = -r + (rr_new / rr) * d
        rr = rr_new
    return v


def _random_subproblem(seed):
    """A small trust-region subproblem with every kind of bound the solver
    builds: one-sided, infinite and pinned variable bounds, faces within
    ACTIVE_TOL of zero, and zero gradient entries. Returns the variable
    bounds shifted to the current point (which may be infinite) and the
    finite box ``lo, hi`` they leave inside the radius ``delta``, as
    ``inner_solve`` builds it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    M = rng.standard_normal((n, n))
    if seed % 3 == 0:
        B = M @ M.T + 0.1 * np.eye(n)
    else:
        B = (M + M.T) / 2          # indefinite
    g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 1)
    g[rng.random(n) < 0.2] = 0.0
    delta = float(rng.uniform(0.05, 3.0))
    lower = -rng.uniform(0.0, 2.0 * delta, size=n)
    upper = rng.uniform(0.0, 2.0 * delta, size=n)
    kind = rng.integers(0, 6, size=n)
    lower[kind == 1] = -np.inf               # one-sided
    upper[kind == 2] = np.inf                # one-sided
    lower[kind == 3] = upper[kind == 3] = 0.0    # pinned
    lower[kind == 4] = -np.inf               # unbounded
    upper[kind == 4] = np.inf
    lower[kind == 5] = 0.0                   # at a face
    if seed % 4 == 1:
        lower[rng.random(n) < 0.3] = -0.3 * ACTIVE_TOL
    lo = np.maximum(lower, -delta)
    hi = np.minimum(upper, delta)
    return B, g, lower, upper, lo, hi, delta


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


class TestRewrittenKernelsMatchReference:
    @pytest.mark.parametrize("seed", range(240))
    def test_bit_identical(self, seed):
        B, g, lower, upper, lo, hi, delta = _random_subproblem(seed)
        cp_p, cp_active = cauchy_point(B, g, lo, hi)
        p, active, _ = _reference_cauchy_point(B, g, lo, hi)
        assert np.array_equal(cp_p, p) and _same_bits(cp_p, p)
        assert np.array_equal(cp_active, active)

        # the plain trust-region form, with and without a variable box: the
        # kernel takes the radius as part of its box
        for box, region in ((None, _ball(g.size, delta)),
                            ((lower, upper), (lo, hi))):
            v = steihaug_cg(B, g, *region, tol=1e-3)
            ref = _reference_steihaug_cg(B, g, delta=delta, tol=1e-3, box=box)
            assert np.array_equal(v, ref) and _same_bits(v, ref)

        # the form inner_solve uses: CG on the variables the Cauchy point
        # left free, inside the box that remains, with no radius of its own
        free = ~active
        if free.any():
            g_red = (g + B @ p)[free]
            B_red = B[np.ix_(free, free)]
            box = (np.minimum(lo[free] - p[free], 0.0),
                   np.maximum(hi[free] - p[free], 0.0))
            tol = min(0.1, np.sqrt(np.linalg.norm(g_red)))
            v = steihaug_cg(B_red, g_red, *box, tol=tol, abs_tol=5e-7)
            ref = _reference_steihaug_cg(B_red, g_red, delta=np.inf, tol=tol,
                                         box=box, abs_tol=5e-7)
            assert np.array_equal(v, ref) and _same_bits(v, ref)

    @pytest.mark.parametrize("seed", range(60))
    def test_float_bounds_match_arrays(self, seed):
        # the trust region alone, as inner_solve passes it for a problem
        # without finite bounds: -delta .. delta as floats
        B, g, _, _, _, _, delta = _random_subproblem(seed)
        lo, hi = np.full(g.size, -delta), np.full(g.size, delta)
        cp_p, cp_active = cauchy_point(B, g, -delta, delta)
        p, active, _ = _reference_cauchy_point(B, g, lo, hi)
        assert _same_bits(cp_p, p) and np.array_equal(cp_active, active)


def _vectorized_max_step_in_box(v, d, lo, hi):
    # the form the Python loop replaced
    alpha = np.divide(np.where(d > 0, hi - v, lo - v), d,
                      out=np.full(d.size, np.inf), where=d != 0)
    return max(float(alpha.min()), 0.0)


class TestMaxStepInBox:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_vectorized_form(self, seed):
        # zero, signed-zero and NaN directions, infinite bounds, points on
        # and just outside a face
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        lo = -rng.uniform(0.0, 2.0, size=n)
        hi = rng.uniform(0.0, 2.0, size=n)
        lo[rng.random(n) < 0.2] = -np.inf
        hi[rng.random(n) < 0.2] = np.inf
        v = rng.uniform(-1.0, 1.0, size=n) * 0.5
        on_face = rng.random(n) < 0.2
        v[on_face] = np.where(np.isfinite(hi), hi, 0.0)[on_face]
        d = rng.standard_normal(n)
        d[rng.random(n) < 0.2] = 0.0
        d[rng.random(n) < 0.1] = -0.0
        if seed % 5 == 0:
            d[rng.integers(n)] = np.nan
        if seed % 7 == 0:
            v[rng.integers(n)] = hi.max() + 1e-3     # outside the box
        with np.errstate(invalid="ignore"):
            want = _vectorized_max_step_in_box(v, d, lo, hi)
        got = _max_step_in_box(v, d, lo.tolist(), hi.tolist())
        assert float.hex(got) == float.hex(want)

    def test_no_movement_allows_any_step(self):
        zero = np.zeros(3)
        assert _max_step_in_box(zero, zero, [-1.0] * 3, [1.0] * 3) == np.inf
