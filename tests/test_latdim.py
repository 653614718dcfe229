import warnings
from fractions import Fraction

import numpy as np
import pytest

from adis_kit.latdim import (
    BOOT_REPS,
    _cv_drops,
    cv_profile,
    estimate_q,
    permute_columns,
    permute_lower_bound,
    vote_from_delta,
)
from adis_kit.bench import model_dataset
from adis_kit.whiten import center


def centered_model_data(p, q, n, sigma, seed, family="gaussian"):
    X = model_dataset(p, q, n, sigma, family=family, seed=seed)
    centered = center(X)
    return centered.values


class TestPermutation:
    def test_columns_keep_their_multisets(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 9))
        Xb = permute_columns(X, seed=4)
        for j in range(9):
            np.testing.assert_array_equal(np.sort(X[:, j]), np.sort(Xb[:, j]))
        assert not np.array_equal(X, Xb)

    def test_determinism(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((10, 40))
        q1, l1, b1 = permute_lower_bound(X, seed=7)
        q2, l2, b2 = permute_lower_bound(X, seed=7)
        assert q1 == q2
        np.testing.assert_array_equal(b1, b2)

    def test_dominant_rank_one_component_detected(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(50)
        v = rng.standard_normal(1000)
        X = 100 * np.outer(u, v) / np.linalg.norm(u) / np.linalg.norm(v) \
            * np.sqrt(1000) + rng.standard_normal((50, 1000))
        centered = center(X)
        q_l, lam, lam_b = permute_lower_bound(centered.values, seed=7)
        assert q_l >= 1
        assert lam[0] > 50 * lam[1]

    def test_signal_bound_brackets_truth(self):
        # q = 10 sources at high SNR: the bound never exceeds the truth and
        # rarely falls far below it (frozen from a 50-run calibration)
        hits_le, hits_ge = 0, 0
        for seed in range(50):
            X = centered_model_data(50, 10, 1000, sigma=0.5, seed=seed)
            q_l, _, _ = permute_lower_bound(X, seed=seed)
            hits_le += (q_l <= 10)
            hits_ge += (q_l >= 8)
        assert hits_le == 50
        assert hits_ge >= 45

    def test_white_noise_bound_is_large(self):
        # With a single permutation draw the permuted spectrum has the same
        # distribution as the observed one, so rank-wise comparisons are fair
        # coin flips and the largest exceedance index concentrates near p.
        # (Null data is flagged by the bound being near p, not near 0.)
        qls = []
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            centered = center(rng.standard_normal((50, 1000)))
            q_l, _, _ = permute_lower_bound(centered.values, seed=seed)
            qls.append(q_l)
        assert np.median(qls) >= 40

    def test_replicate_averaging(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((8, 100))
        q1, _, b1 = permute_lower_bound(X, seed=3)
        q2, _, b2 = permute_lower_bound(X, seed=3)
        assert q1 == q2
        np.testing.assert_array_equal(b1, b2)


def loop_cv_profile(lam, q):
    """Reference: leave-one-out CV of the constant-tail model at one q, each
    member predicted by the mean of the others."""
    tail = np.asarray(lam, dtype=float)[q:lam.size - 1]
    k = tail.size
    E = (tail - (tail.sum() - tail) / (k - 1)) ** 2
    return float(E.mean()), float(E.var() / k)


def exact_cv_profile(lam, q):
    """The reference loop in exact rational arithmetic."""
    tail = [Fraction(float(v)) for v in lam[q:len(lam) - 1]]
    k = len(tail)
    total = sum(tail)
    E = [(t - (total - t) / (k - 1)) ** 2 for t in tail]
    e_bar = sum(E) / k
    return e_bar, sum((e - e_bar) ** 2 for e in E) / k / k


class TestCvProfile:
    def test_constant_tail_has_zero_error(self):
        lam = np.concatenate([[50.0, 20.0], np.full(6, 3.0), [0.0]])
        e_bar, var_e = cv_profile(lam, np.arange(2, 7))
        np.testing.assert_array_equal(e_bar, 0.0)
        np.testing.assert_array_equal(var_e, 0.0)

    def test_hand_expanded_tail(self):
        # tail (2,1,1,1,1): errors are (2-1)^2 = 1 once and (1-5/4)^2 = 1/16
        # four times; mean 1/4, population variance 0.140625, divided by 5
        lam = np.concatenate([[9.0], [2.0, 1.0, 1.0, 1.0, 1.0], [0.0]])
        e_bar, var_e = cv_profile(lam, np.array([1, 2]))
        assert e_bar[0] == pytest.approx(0.25)
        assert var_e[0] == pytest.approx(0.140625 / 5)
        assert e_bar[1] == 0.0 and var_e[1] == 0.0

    def test_error_nonnegative(self):
        rng = np.random.default_rng(3)
        lam = np.sort(rng.uniform(0, 5, 12))[::-1]
        e_bar, var_e = cv_profile(lam, np.arange(0, 10))
        assert np.all(e_bar >= 0.0)
        assert np.all(var_e >= 0.0)

    def test_range_validation(self):
        lam = np.arange(10, 0, -1, dtype=float)
        cv_profile(lam, np.arange(0, 8))   # p - 3 = 7 is the last valid value
        with pytest.raises(ValueError):
            cv_profile(lam, np.array([0, -1, 3]))
        with pytest.raises(ValueError):
            cv_profile(lam, np.array([2, 8]))

    @pytest.mark.parametrize("p", [8, 9, 12, 20, 50, 100, 150])
    def test_matches_reference_loop(self, p):
        rng = np.random.default_rng(p)
        for _ in range(5):
            lam = np.sort(rng.gamma(1.0, 1.0, p) * 10 ** rng.uniform(-3, 3)
                          )[::-1]
            qs = np.arange(0, p - 2)
            e_bar, var_e = cv_profile(lam, qs)
            ref = np.array([loop_cv_profile(lam, q) for q in qs])
            np.testing.assert_allclose(e_bar, ref[:, 0], rtol=1e-12, atol=0)
            # at q = p - 3 both errors of the two-value tail are equal, so
            # the variance is 0 up to rounding of e_bar
            np.testing.assert_allclose(var_e[:-1], ref[:-1, 1], rtol=1e-11,
                                       atol=0)
            assert var_e[-1] <= 1e-30 * e_bar[-1] ** 2

    def test_flat_tail_no_less_accurate_than_loop(self):
        # eigenvalues 1e8 apart by 1e-3: a sum of the tail cancels all but
        # 11 of its 16 digits, so only centred deviations keep the profile
        rng = np.random.default_rng(7)
        lam = np.sort(1e8 + rng.normal(0.0, 1e-3, 40))[::-1]
        qs = np.arange(0, 36)
        e_bar, var_e = cv_profile(lam, qs)
        err = np.zeros((2, 2))
        for i, q in enumerate(qs):
            exact = [float(v) for v in exact_cv_profile(lam, q)]
            for j, (fast, loop) in enumerate(
                    zip((e_bar[i], var_e[i]), loop_cv_profile(lam, q))):
                err[j, 0] = max(err[j, 0], abs(fast - exact[j]) / exact[j])
                err[j, 1] = max(err[j, 1], abs(loop - exact[j]) / exact[j])
        assert np.all(err[:, 0] <= err[:, 1])
        assert np.all(err[:, 0] <= 1e-12)


class TestCvDrops:
    def test_constant_tail_is_guarded_without_warnings(self):
        # tails from q = 2 on are constant, so every drop from q = 2 on has
        # zero variance on both sides and 0 / 0 must never be evaluated
        lam = np.concatenate([[50.0, 20.0], np.full(6, 3.0), [0.0]])
        qs = np.arange(0, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e_bar, var_e, delta, guarded = _cv_drops(lam, qs)
        np.testing.assert_array_equal(guarded, qs >= 2)
        np.testing.assert_array_equal(delta[2:], 0.0)
        assert np.all(delta[:2] > 0.0)
        np.testing.assert_array_equal(e_bar[2:], 0.0)


class TestEstimateQ:
    def test_exact_rank_data_recovers_q(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((12, 3))
        S = rng.standard_normal((3, 400))
        centered = center(A @ S)
        summary = estimate_q(centered.values, seed=0)
        assert summary.q_hat == 3

    def test_determinism(self):
        X = centered_model_data(20, 4, 300, sigma=0.3, seed=9)
        s1 = estimate_q(X, seed=11)
        s2 = estimate_q(X, seed=11)
        assert s1.q_hat == s2.q_hat
        assert s1.q_l == s2.q_l
        np.testing.assert_array_equal(s1.delta, s2.delta)

    def test_scale_invariance(self):
        X = centered_model_data(20, 4, 300, sigma=0.5, seed=10)
        base = estimate_q(X, seed=2)
        for c in (4.0, 3.7):   # a power of two and a generic scale
            scaled = estimate_q(c * X, seed=2)
            assert scaled.q_hat == base.q_hat
            assert scaled.q_l == base.q_l
            np.testing.assert_array_equal(scaled.f_of_r, base.f_of_r)
            assert scaled.g_counts == base.g_counts
            np.testing.assert_allclose(scaled.delta, base.delta, rtol=1e-9)

    def test_lower_bound_respected(self):
        X = centered_model_data(30, 6, 500, sigma=0.4, seed=12)
        s = estimate_q(X, seed=12)
        assert s.q_l <= s.q_hat <= 30 - 3

    def test_votes_sum_to_scan_length(self):
        X = centered_model_data(25, 5, 400, sigma=0.5, seed=13)
        s = estimate_q(X, seed=13)
        assert sum(s.g_counts.values()) == s.qs.size

    def test_json_and_csv_exports(self):
        X = centered_model_data(15, 3, 200, sigma=0.5, seed=14)
        s = estimate_q(X, seed=14)
        import json
        doc = json.loads(s.to_json())
        assert doc["q_hat"] == s.q_hat
        assert doc["boot_votes"] == {str(k): v for k, v in s.boot_votes.items()}
        lines = s.profile_csv().splitlines()
        assert lines[0] == "q,e_bar,var_e,delta"
        assert len(lines) == s.qs.size + 1

    @pytest.mark.parametrize("seed,op", [(0, 30), (2, 8), (8, 22)])
    def test_bootstrap_vote_overrules_saturated_drop(self, seed, op):
        # noisy p=12 draws (5 uniform sources, sigma 0.5, n=20000) on which
        # the full-data CV vote misses q=5 (7, 7 and 2): a noise step with a
        # short tail outscores the genuine step on this spectrum only
        ss = np.random.SeedSequence(seed, spawn_key=(op,))
        data_seed, dec_seed = (int(v) for v in ss.generate_state(2))
        X = model_dataset(12, 5, 20000, 0.5, family="uniform", seed=data_seed)
        centered = center(X)
        s = estimate_q(centered.values, seed=dec_seed)
        top = max(s.g_counts.values())
        assert 1 + min(y for y, c in s.g_counts.items() if c == top) != 5
        assert s.boot_votes.get(5, 0) > BOOT_REPS // 2
        assert sum(s.boot_votes.values()) == BOOT_REPS
        assert s.q_hat == 5


class TestVote:
    def test_cumulative_argmax_first_occurrence(self):
        qs = np.array([2, 3, 4, 5])
        delta = np.array([1.0, 1.0, 0.5, 2.0])
        f_of_r, g, winner = vote_from_delta(qs, delta)
        np.testing.assert_array_equal(f_of_r, [2, 2, 2, 5])
        assert g == {2: 3, 5: 1}
        assert winner == 2

    def test_count_tie_takes_smallest_location(self):
        qs = np.array([1, 2, 3, 4])
        delta = np.array([1.0, 2.0, 0.0, 0.0])
        f_of_r, g, winner = vote_from_delta(qs, delta)
        assert g == {1: 1, 2: 3}
        assert winner == 2
        delta2 = np.array([2.0, 0.0, 3.0, 0.0])
        _, g2, winner2 = vote_from_delta(qs, delta2)
        assert g2 == {1: 2, 3: 2}
        assert winner2 == 1   # tie between counts 2 and 2 -> smaller q
