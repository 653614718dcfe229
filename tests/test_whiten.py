import numpy as np
import pytest

from adis_kit.whiten import (_SAMPLE_BLOCK, DataMatrix, _matmul_columns,
                             center, fit_ppca, source_stats)


class TestMatmulColumns:
    """The blocked sample-axis product gives the bits of one ``A @ X``."""

    @pytest.mark.parametrize("n", [2, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK,
                                   _SAMPLE_BLOCK + 1, 20000])
    @pytest.mark.parametrize("rows", [1, 5, 12])
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_equals_one_call_product(self, n, rows, k):
        rng = np.random.default_rng(n + 100 * rows + 10000 * k)
        A = rng.standard_normal((rows, k))
        X = rng.standard_normal((k, n))
        np.testing.assert_array_equal(_matmul_columns(A, X), A @ X)

    @pytest.mark.parametrize("n", [_SAMPLE_BLOCK + 1, 2 * _SAMPLE_BLOCK + 3,
                                   20000])
    def test_strided_operands(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((5, 12)).T      # column-major 12 x 5
        X = rng.standard_normal((5, 2 * n))[:, ::2]
        assert not X.flags.c_contiguous and not X.flags.f_contiguous
        np.testing.assert_array_equal(_matmul_columns(A, X), A @ X)

    def test_column_major_samples_give_the_row_major_bits(self):
        # a one-call product of a column-major X can round its last few
        # columns differently; the blocked product does not depend on it
        rng = np.random.default_rng(4)
        A = rng.standard_normal((12, 5))
        X = rng.standard_normal((5, _SAMPLE_BLOCK + 2))
        np.testing.assert_array_equal(
            _matmul_columns(A, np.asfortranarray(X)), A @ X)


class TestCenter:
    def test_constant_matrix_becomes_zero(self):
        centered = center(np.full((4, 50), 3.7))
        np.testing.assert_allclose(centered.values, 0.0, atol=1e-12)

    def test_doubly_centered_is_fixed_point(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 80))
        once = center(X)
        twice = center(once.values)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)
        np.testing.assert_allclose(twice.mean, 0.0, atol=1e-12)

    def test_random_matrix_both_centerings_hold(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 100)) * 4 + 2
        centered = center(X)
        # direct recomputation: column sums and row means vanish
        assert np.max(np.abs(centered.values.sum(axis=0))) <= 1e-10
        assert np.max(np.abs(centered.values.mean(axis=1))) <= 1e-10

    def test_channel_center_off_keeps_column_sums(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 30)) + 5
        centered = center(X, channel_center=False)
        assert np.max(np.abs(centered.values.mean(axis=1))) <= 1e-10
        assert np.max(np.abs(centered.values.sum(axis=0))) > 1e-3


class TestFitPpca:
    def test_noiseless_rank_q_noise_floor_vanishes(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 3))
        S = rng.standard_normal((3, 400))
        model = fit_ppca(center(A @ S), q=3)
        assert model.sigma2_hat <= 1e-10

    def test_noise_floor_estimate_on_model_data(self):
        # channel-centered isotropic noise keeps p-1 eigenvalues at sigma^2
        rng = np.random.default_rng(4)
        p, q, n = 50, 5, 10000
        A = rng.uniform(0, 1, (p, q))
        A = A / np.linalg.svd(A, compute_uv=False)[-1]
        X = A @ rng.standard_normal((q, n)) + rng.standard_normal((p, n))
        model = fit_ppca(center(X), q=q)
        assert model.sigma2_hat == pytest.approx(1.0, abs=0.05)

    def test_whitened_covariance_is_identity_without_noise_floor(self):
        # the noise-adjusted scaling whitens exactly when the floor vanishes
        rng = np.random.default_rng(5)
        A = rng.standard_normal((7, 4))
        S = rng.standard_normal((4, 300))
        model = fit_ppca(center(A @ S), q=4)
        cov = model.x_tilde @ model.x_tilde.T / 300
        assert np.max(np.abs(cov - np.eye(4))) <= 1e-8

    def test_whitened_covariance_with_noise_floor(self):
        # with a positive floor the scaled coordinates have the
        # model-consistent covariance lambda_i / (lambda_i - sigma2), not I
        rng = np.random.default_rng(5)
        X = rng.standard_normal((7, 300)) @ np.diag(np.arange(1, 301) ** 0.1)
        model = fit_ppca(center(X), q=4)
        assert model.sigma2_hat > 0
        cov = model.x_tilde @ model.x_tilde.T / X.shape[1]
        lam = model.eigvals[:4]
        expected = np.diag(lam / (lam - model.sigma2_hat))
        np.testing.assert_allclose(cov, expected, atol=1e-8)

    def test_eigvals_sorted_and_reconstruction(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((6, 200))
        model = fit_ppca(center(X), q=2)
        assert np.all(np.diff(model.eigvals) <= 1e-12)
        centered = center(X)
        cov = centered.values @ centered.values.T / X.shape[1]
        recon = model.U @ np.diag(model.eigvals) @ model.U.T
        err = np.linalg.norm(cov - recon) / np.linalg.norm(cov)
        assert err <= 1e-8

    def test_degenerate_clip_mode_flags_model(self):
        rng = np.random.default_rng(20)
        A = rng.standard_normal((6, 2))
        X = A @ rng.standard_normal((2, 200))
        model = fit_ppca(center(X), q=3)
        assert model.clipped
        assert np.all(np.isfinite(model.x_tilde))

    def test_q_out_of_range(self):
        X = np.random.default_rng(0).standard_normal((5, 50))
        with pytest.raises(ValueError):
            fit_ppca(center(X), q=0)
        with pytest.raises(ValueError):
            fit_ppca(center(X), q=6)

    def test_rotation_leaves_mixing_gram_invariant(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((6, 500))
        model = fit_ppca(center(X), q=3)
        base = model.A_hat @ model.A_hat.T
        for k in range(10):
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            A_rot = model.mixing_for(Q)
            np.testing.assert_allclose(A_rot @ A_rot.T, base, atol=1e-10)

    def test_least_squares_sources_equal_rotated_whitened(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((6, 500))
        centered = center(X)
        model = fit_ppca(centered, q=3)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        A = model.mixing_for(Q)
        s_ls = np.linalg.solve(A.T @ A, A.T @ centered.values)
        np.testing.assert_allclose(s_ls, Q @ model.x_tilde, atol=1e-10)

    def test_sigma2_mean_over_replications(self):
        # estimator bias check on the generative model
        p, q, n = 50, 5, 10000
        estimates = []
        for rep in range(50):
            rng = np.random.default_rng(100 + rep)
            A = rng.uniform(0, 1, (p, q))
            A = A / np.linalg.svd(A, compute_uv=False)[-1]
            X = A @ rng.standard_normal((q, n)) + rng.standard_normal((p, n))
            estimates.append(fit_ppca(center(X), q=q).sigma2_hat)
        assert abs(np.mean(estimates) - 1.0) <= 0.05


class TestSourceStats:
    def test_exact_reconstruction_gives_zero_variance(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((6, 2))
        S = rng.standard_normal((2, 300))
        centered = center(A @ S)
        model = fit_ppca(centered, q=2)
        s_hat = model.x_tilde
        stats = source_stats(model, centered, s_hat)
        assert np.max(stats.sigma2) <= 1e-16
        assert np.max(np.abs(stats.cov_base * stats.sigma2[0])) <= 1e-12

    def test_single_component_rv_is_one(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((5, 1))
        S = rng.standard_normal((1, 200))
        centered = center(A @ S + 0.01 * rng.standard_normal((5, 200)))
        model = fit_ppca(centered, q=1)
        stats = source_stats(model, centered, model.x_tilde)
        nz = np.abs(model.x_tilde[0]) > 1e-12
        np.testing.assert_allclose(stats.rv[0, nz], 1.0)

    def test_rv_matches_direct_formula(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((6, 2))
        S = rng.standard_normal((2, 150))
        centered = center(A @ S + 0.1 * rng.standard_normal((6, 150)))
        model = fit_ppca(centered, q=2)
        s_hat = model.x_tilde
        stats = source_stats(model, centered, s_hat)
        col_var = np.var(model.A_hat, axis=0)
        direct = col_var[:, None] * s_hat ** 2
        direct = direct / direct.sum(axis=0, keepdims=True)
        np.testing.assert_allclose(stats.rv, direct, atol=1e-12)
        sums = stats.rv.sum(axis=0)
        np.testing.assert_allclose(sums, 1.0, atol=1e-10)

    def test_rv_bits_match_masked_division(self):
        # np.divide with a where mask gives the bits of dividing the columns
        # picked by a boolean mask, and leaves a column whose denominator is
        # 0 (here a sample where every source is 0) at 0
        rng = np.random.default_rng(13)
        A = rng.standard_normal((6, 3))
        S = rng.standard_normal((3, 400))
        centered = center(A @ S + 0.1 * rng.standard_normal((6, 400)))
        model = fit_ppca(centered, q=3)
        s_hat = model.x_tilde.copy()
        s_hat[:, [7, 123]] = 0.0
        stats = source_stats(model, centered, s_hat)
        weighted = np.var(model.A_hat, axis=0)[:, None] * s_hat ** 2
        denom = weighted.sum(axis=0)
        old = np.zeros_like(weighted)
        nz = denom > 0
        old[:, nz] = weighted[:, nz] / denom[nz]
        assert np.count_nonzero(~nz) == 2
        assert stats.rv.tobytes() == old.tobytes()
        assert not stats.rv[:, ~nz].any()

    def test_square_case_rejected(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((3, 100))
        model = fit_ppca(center(X), q=3)
        with pytest.raises(ZeroDivisionError):
            source_stats(model, center(X), model.x_tilde)


class TestDataMatrix:
    def test_requires_two_channels(self):
        with pytest.raises(ValueError):
            DataMatrix(np.zeros((1, 10)))

    def test_rejects_nonfinite(self):
        X = np.zeros((3, 10))
        X[1, 2] = np.nan
        with pytest.raises(ValueError):
            DataMatrix(X)

    def test_warns_when_samples_fewer_than_channels(self):
        with pytest.warns(UserWarning, match="fewer samples"):
            DataMatrix(np.random.default_rng(0).standard_normal((10, 5)))
