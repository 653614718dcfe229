import numpy as np
import pytest

from adis_kit.bench import McSirReport, sir, synth5
from adis_kit.bench.sir import CAP_ENERGY_RATIO, SIR_CAP_DB, _greedy_match


def _reference_sir(S, Y):
    """The scores as ``sir`` took them with BLAS dot products over the
    samples; the matching is shared."""
    q = S.shape[0]
    G = S @ S.T
    Sc = S - S.mean(axis=1, keepdims=True)
    Yc = Y - Y.mean(axis=1, keepdims=True)
    denom = np.outer(np.linalg.norm(Yc, axis=1), np.linalg.norm(Sc, axis=1))
    corr = np.divide(Yc @ Sc.T, denom, out=np.zeros((q, q)), where=denom > 0)
    match = _greedy_match(corr)
    chol = np.linalg.cholesky(G)
    sir_db = np.empty(q)
    for j in range(q):
        y = Y[j]
        tgt_row = S[match[j]]
        target = (float(tgt_row @ y) / float(tgt_row @ tgt_row)) * tgt_row
        beta = np.linalg.solve(chol.T, np.linalg.solve(chol, S @ y))
        interf = S.T @ beta - target
        e_t = float(target @ target)
        e_i = float(interf @ interf)
        if e_t == 0.0:
            sir_db[j] = -SIR_CAP_DB
        elif e_i < CAP_ENERGY_RATIO * e_t:
            sir_db[j] = SIR_CAP_DB
        else:
            sir_db[j] = 10.0 * np.log10(e_t / e_i)
    return sir_db, match


@pytest.fixture
def sources():
    rng = np.random.default_rng(0)
    return rng.standard_normal((4, 500))


class TestSir:
    def test_perfect_recovery_capped(self, sources):
        report = sir(sources, sources.copy())
        np.testing.assert_array_equal(report.sir_db, SIR_CAP_DB)
        np.testing.assert_array_equal(np.sort(report.matching), np.arange(4))

    def test_signed_permutation_invariance(self, sources):
        perm = [2, 0, 3, 1]
        signs = np.array([1.0, -1.0, -1.0, 1.0])
        shuffled = signs[:, None] * sources[perm]
        report = sir(sources, shuffled)
        np.testing.assert_array_equal(report.sir_db, SIR_CAP_DB)
        np.testing.assert_array_equal(report.matching, perm)

    def test_hand_computed_twenty_db(self):
        # orthonormal truth: contamination 0.1 in amplitude = -20 dB exactly
        n = 1000
        t = np.arange(n)
        s1 = np.sqrt(2) * np.sin(2 * np.pi * 8 * t / n)
        s2 = np.sqrt(2) * np.cos(2 * np.pi * 8 * t / n)
        S = np.vstack([s1, s2])
        mixed = (s1 + 0.1 * s2) / np.sqrt(1.01)
        report = sir(S, np.vstack([mixed, s2]))
        assert report.sir_db[0] == pytest.approx(10 * np.log10(1.0 / 0.01),
                                                 abs=1e-6)

    def test_orthogonal_decomposition_identity(self, sources):
        rng = np.random.default_rng(1)
        mixed = rng.standard_normal((4, 4)) @ sources
        S = sources
        G = S @ S.T
        for j in range(4):
            y = mixed[j]
            report = sir(S, mixed)
            tgt_row = S[report.matching[j]]
            target = (tgt_row @ y / (tgt_row @ tgt_row)) * tgt_row
            span = S.T @ np.linalg.solve(G, S @ y)
            interf = span - target
            # identity and orthogonality of the split
            np.testing.assert_allclose(target + interf, span, atol=1e-10)
            scale = np.linalg.norm(target) * np.linalg.norm(interf)
            if scale > 0:
                assert abs(target @ interf) / scale <= 1e-10

    def test_scale_invariance_per_source(self, sources):
        rng = np.random.default_rng(2)
        mixed = rng.standard_normal((4, 4)) @ sources
        base = sir(sources, mixed)
        scaled = mixed.copy()
        scaled[2] *= -7.3
        report = sir(sources, scaled)
        np.testing.assert_allclose(report.sir_db, base.sir_db, atol=1e-10)

    def test_rank_deficient_truth_rejected(self):
        rng = np.random.default_rng(3)
        S = rng.standard_normal((3, 100))
        S[2] = S[0] + S[1]
        with pytest.raises(ValueError, match="rank deficient"):
            sir(S, S.copy())

    def test_requires_more_samples_than_sources(self):
        with pytest.raises(ValueError):
            sir(np.eye(3), np.eye(3))

    def test_mean_property(self, sources):
        report = sir(sources, sources.copy())
        assert report.mean_db == pytest.approx(SIR_CAP_DB)


class TestMatchesBlasDotScores:
    """``sir`` sums its products over the samples elementwise; the scores
    stay those of the BLAS dot products to 1e-9 dB."""

    @pytest.mark.parametrize("n", [500, 20000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_draws(self, n, seed):
        rng = np.random.default_rng(seed)
        S = rng.standard_normal((4, n))
        Y = rng.standard_normal((4, 4)) @ S + 0.1 * rng.standard_normal((4, n))
        ref_db, ref_match = _reference_sir(S, Y)
        report = sir(S, Y)
        np.testing.assert_array_equal(report.matching, ref_match)
        np.testing.assert_allclose(report.sir_db, ref_db, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n", [2000, 20000])
    @pytest.mark.parametrize("eps", [1e-1, 1e-3])
    def test_synth5_draws(self, n, eps):
        # near recoveries: a little cross-talk on permuted, rescaled rows
        rng = np.random.default_rng(int(n * eps))
        S = synth5(n=n)
        mix = np.eye(5)[[3, 0, 4, 1, 2]] * rng.uniform(0.5, 2.0, (5, 1))
        Y = (mix + eps * rng.standard_normal((5, 5))) @ S
        ref_db, ref_match = _reference_sir(S, Y)
        report = sir(S, Y)
        np.testing.assert_array_equal(report.matching, ref_match)
        np.testing.assert_allclose(report.sir_db, ref_db, rtol=0, atol=1e-9)

    def test_exact_copy_is_capped(self):
        S = synth5(n=20000)
        Y = np.random.default_rng(5).standard_normal(S.shape)
        Y[2] = S[4]
        report = sir(S, Y)
        assert report.matching[2] == 4
        assert report.sir_db[2] == SIR_CAP_DB
        assert np.all(report.sir_db[[0, 1, 3, 4]] < SIR_CAP_DB)

    def test_zero_row_gets_the_negative_cap(self):
        S = synth5(n=20000)
        Y = S[[1, 0, 2, 3, 4]].copy()
        Y[3] = 0.0
        report = sir(S, Y)
        assert report.sir_db[3] == -SIR_CAP_DB
        np.testing.assert_array_equal(report.sir_db[[0, 1, 2, 4]],
                                      SIR_CAP_DB)


class TestMcReport:
    def test_aggregation(self):
        reports = [sir(np.eye(2, 50) + np.random.default_rng(i).normal(
            0, 0.01, (2, 50)), np.eye(2, 50)) for i in range(3)]
        agg = McSirReport.from_runs(reports, n_failed=1, master_seed=9)
        assert agg.run_means.size == 3
        assert agg.M == pytest.approx(np.mean([r.mean_db for r in reports]))
        assert agg.n_failed == 1
        doc = agg.to_json()
        assert '"n_failed": 1' in doc
        csv = agg.runs_csv()
        assert csv.splitlines()[0] == "run,mean_sir_db,stage1_mean_sir_db"
        assert len(csv.splitlines()) == 4
