from fractions import Fraction

import numpy as np
import pytest

import adis_kit.nlp.quasi_newton as qn_module
from adis_kit.nlp import AugLagConfig, DenseQuasiNewton, quasi_newton_update
from adis_kit.nlp.quasi_newton import LimitedQuasiNewton


def build(kind, n, gamma, rescale_first=False):
    """The dense state for ``sr1``, the limited one (window 4) for
    ``l-sr1``."""
    if kind == "l-sr1":
        return LimitedQuasiNewton(n, gamma, memory=4,
                                  rescale_first=rescale_first)
    return DenseQuasiNewton(n, gamma, rescale_first)


def sr1_exact_rational(H, steps):
    """SR1 recursion in exact rational arithmetic, starting from the identity."""
    n = len(H)
    B = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    for s in steps:
        s = [Fraction(v) for v in s]
        y = [sum(Fraction(H[i][j]) * s[j] for j in range(n)) for i in range(n)]
        Bs = [sum(B[i][j] * s[j] for j in range(n)) for i in range(n)]
        w = [y[i] - Bs[i] for i in range(n)]
        den = sum(w[i] * s[i] for i in range(n))
        if den == 0:
            continue
        for i in range(n):
            for j in range(n):
                B[i][j] += w[i] * w[j] / den
    return np.array([[float(B[i][j]) for j in range(n)] for i in range(n)])


class TestSR1:
    def test_recovers_quadratic_hessian_in_n_steps(self):
        # integer Hessian so the rational oracle is exact
        H = np.array([[4, 1, 0, 0, 0],
                      [1, 5, 2, 0, 0],
                      [0, 2, 6, 1, 0],
                      [0, 0, 1, 7, 3],
                      [0, 0, 0, 3, 8]], dtype=float)
        steps = [np.eye(5)[i] for i in range(5)]
        qn = DenseQuasiNewton(5, gamma=1.0)
        for s in steps:
            qn.update(s, H @ s)
        oracle = sr1_exact_rational(H.astype(int).tolist(),
                                    [s.tolist() for s in steps])
        np.testing.assert_allclose(qn.matrix(), oracle, atol=1e-12)
        np.testing.assert_allclose(qn.matrix(), H, atol=1e-8)

    def test_skip_when_y_equals_Bs(self):
        qn = DenseQuasiNewton(3, gamma=2.0)
        B_before = qn.matrix().copy()
        s = np.array([1.0, 0.0, 0.0])
        applied = qn.update(s, 2.0 * s)   # y = B s exactly
        assert not applied
        np.testing.assert_array_equal(qn.matrix(), B_before)

    def test_functional_entry_point(self):
        B = np.eye(2)
        s = np.array([1.0, 0.0])
        y = np.array([3.0, 1.0])
        B2, applied = quasi_newton_update(B, s, y)
        assert applied
        np.testing.assert_allclose(B2 @ s, y, atol=1e-12)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            quasi_newton_update(np.eye(2), np.zeros(2), np.ones(2))


@pytest.mark.parametrize("kind", ["sr1", "l-sr1"])
class TestSecantCondition:
    def test_secant_on_applied_updates(self, kind):
        rng = np.random.default_rng(42)
        qn = build(kind, 6, gamma=1.5)
        H = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        for _ in range(15):
            s = rng.standard_normal(6)
            y = H @ s
            applied = qn.update(s, y)
            if applied:
                resid = np.linalg.norm(qn.matrix() @ s - y)
                assert resid <= 1e-10 * (1.0 + np.linalg.norm(y))


@pytest.mark.parametrize("kind", ["sr1", "l-sr1"])
class TestFirstPairScale:
    """``rescale_first`` resets the matrix to (y'y / y's)·I just before the
    first pair, when y's > 0, and never again."""

    S1, Y1 = np.array([0.3, -0.1, 0.2]), np.array([0.02, 0.001, 0.015])
    S2, Y2 = np.array([-0.1, 0.25, 0.05]), np.array([-0.004, 0.01, 0.003])

    def test_first_pair_rescales_before_updating(self, kind):
        scale = float(self.Y1 @ self.Y1) / float(self.Y1 @ self.S1)
        qn = build(kind, 3, gamma=1.0, rescale_first=True)
        ref = build(kind, 3, gamma=scale)
        for s, y in ((self.S1, self.Y1), (self.S2, self.Y2)):
            assert qn.update(s, y) == ref.update(s, y)
            assert qn.matrix().tobytes() == ref.matrix().tobytes()
        assert qn.pair_scale == float(self.Y2 @ self.Y2) / float(
            self.Y2 @ self.S2)

    def test_nonpositive_curvature_keeps_the_start(self, kind):
        # y's < 0 at the first pair: no rescale then, and none at the second
        # pair either, though its y's > 0
        qn = build(kind, 3, gamma=1.5, rescale_first=True)
        ref = build(kind, 3, gamma=1.5)
        for s, y in ((self.S1, -self.Y1), (self.S2, self.Y2)):
            assert qn.update(s, y) == ref.update(s, y)
            assert qn.matrix().tobytes() == ref.matrix().tobytes()
        assert not qn.rescale_first

    def test_pair_scale_skips_nonpositive_curvature(self, kind):
        qn = build(kind, 3, gamma=1.0)
        assert qn.pair_scale is None
        qn.update(self.S1, self.Y1)
        first = qn.pair_scale
        assert first == float(self.Y1 @ self.Y1) / float(self.Y1 @ self.S1)
        qn.update(self.S2, -self.Y2)
        assert qn.pair_scale == first


class TestLimitedMemory:
    def test_window_is_bounded(self):
        qn = LimitedQuasiNewton(3, gamma=1.0, memory=2)
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = rng.standard_normal(3)
            qn.update(s, 2.0 * s + 0.01 * rng.standard_normal(3))
        assert len(qn._pairs) <= 2

    def test_unknown_kind_rejected(self):
        # SR1 is the one rule: nothing takes a kind
        with pytest.raises(TypeError):
            DenseQuasiNewton(3, kind="sr1")
        with pytest.raises(TypeError):
            LimitedQuasiNewton(3, kind="l-sr1")
        with pytest.raises(TypeError):
            quasi_newton_update(np.eye(2), np.ones(2), np.ones(2), "sr1")
        with pytest.raises(TypeError):
            AugLagConfig(qn_kind="sr1")


class _FullUpdateLimitedQuasiNewton(LimitedQuasiNewton):
    """The limited-memory update that decides the skip by building the whole
    updated matrix and discarding it."""

    def update(self, s, y):
        _, applied = qn_module.quasi_newton_update(self.matrix(), s, y)
        if applied:
            self._pairs.append((s.copy(), y.copy()))
            self._cache = None
        return applied


class TestLimitedSkipFromTerms:
    """``LimitedQuasiNewton.update`` decides the skip from the terms that
    decide it: the same matrices and skips as building the whole updated
    matrix, with one rank-one update fewer per pair offered."""

    @pytest.mark.parametrize("kind", ["l-sr1"])
    def test_same_skips_on_pairs_that_fail(self, kind, monkeypatch):
        calls = [0]
        full_update = qn_module.quasi_newton_update

        def counted(*args):
            calls[0] += 1
            return full_update(*args)

        monkeypatch.setattr(qn_module, "quasi_newton_update", counted)
        # y = B s leaves SR1 no denominator: the rule skips some pairs here
        # and applies others
        rng = np.random.default_rng(5)
        new = LimitedQuasiNewton(4, memory=3)
        old = _FullUpdateLimitedQuasiNewton(4, memory=3)
        decisions, new_calls, old_calls = [], 0, 0
        for i in range(40):
            s = rng.standard_normal(4)
            if i % 5 == 4:
                y = new.matrix() @ s
            else:
                y = rng.standard_normal(4) + (2.0 if i % 3 else -0.5) * s
            start = calls[0]
            decisions.append(new.update(s, y))
            B_new = new.matrix().tobytes()
            mid = calls[0]
            assert old.update(s, y) == decisions[-1]
            assert old.matrix().tobytes() == B_new
            new_calls += mid - start
            old_calls += calls[0] - mid
        assert any(decisions) and not all(decisions)
        # each pair offered no longer builds an updated matrix
        assert old_calls - new_calls == len(decisions)
