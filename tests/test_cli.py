import json
import pickle
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

from adis_kit.cli import main
from adis_kit.dataio import load_matrix, save_matrix_csv
from adis_kit.bench import model_dataset
from adis_kit.pursuit import PursuitConfig
from adis_kit.whiten import center


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    # 10 x 2000 with two embedded non-Gaussian sources at favorable SNR
    path = tmp_path_factory.mktemp("data") / "X.csv"
    X = model_dataset(p=10, q=2, n=2000, sigma=0.3, family="gamma", seed=5)
    save_matrix_csv(path, X)
    return path


class TestDecompose:
    def test_smoke_writes_all_outputs(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["decompose", "--input", str(fixture_csv), "--seed", "7",
                     "--output", str(out)])
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted([
            "Q.csv", "sources.csv", "mixing.csv", "model.json", "stats.csv",
            "trace-component-1.jsonl", "trace-component-2.jsonl",
            "trace-joint.jsonl", "latdim.json", "latdim-profile.csv",
            "manifest.json",
        ])
        assert len(names) == 11

    def test_estimated_q_saves_latdim_report(self, fixture_csv, tmp_path):
        # the estimate behind q-hat is the one `adis latdim` reports
        dec, lat = tmp_path / "dec", tmp_path / "lat"
        assert main(["decompose", "--input", str(fixture_csv), "--seed", "7",
                     "--output", str(dec)]) == 0
        assert main(["latdim", "--input", str(fixture_csv), "--seed", "7",
                     "--output", str(lat)]) == 0
        for name in ("latdim.json", "latdim-profile.csv"):
            assert (dec / name).read_bytes() == (lat / name).read_bytes()
        user = tmp_path / "user"
        assert main(["decompose", "--input", str(fixture_csv), "--q", "2",
                     "--output", str(user)]) == 0
        assert not (user / "latdim.json").exists()

    def test_missing_input_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "never"
        code = main(["decompose", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(out)])
        assert code == 2
        assert not out.exists()

    def test_too_few_channels_to_estimate_q_exit_2(self, tmp_path, capsys):
        # q cannot be estimated on 4 channels; given, it still decomposes
        path = tmp_path / "p4.csv"
        assert main(["gen", "model", "--p", "4", "--q", "2", "--n", "300",
                     "--sigma", "0.3", "--family", "gamma", "--seed", "1",
                     "--out", str(path)]) == 0
        out = tmp_path / "never"
        assert main(["decompose", "--input", str(path), "--output",
                     str(out)]) == 2
        err = capsys.readouterr().err
        assert "at least 8 channels" in err and "Traceback" not in err
        assert not out.exists()
        ok = tmp_path / "given"
        assert main(["decompose", "--input", str(path), "--q", "2",
                     "--output", str(ok)]) == 0
        assert (ok / "Q.csv").exists()

    @pytest.mark.parametrize("channel_center", [True, False])
    def test_model_json_records_centering(self, fixture_csv, tmp_path,
                                          channel_center):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"pursuit": {"channel_center": channel_center}}))
        out = tmp_path / "run"
        assert main(["decompose", "--input", str(fixture_csv), "--q", "2",
                     "--config", str(cfg), "--output", str(out)]) == 0
        doc = json.loads((out / "model.json").read_text())
        assert set(doc) == {"q", "sigma2_hat", "eigvals", "mu_hat",
                            "clipped", "channel_center"}
        assert doc["channel_center"] is channel_center
        removed = center(load_matrix(fixture_csv), channel_center).mean
        np.testing.assert_array_equal(doc["mu_hat"], removed)

    def test_q_override_recorded_in_manifest(self, fixture_csv, tmp_path):
        out = tmp_path / "q3"
        code = main(["decompose", "--input", str(fixture_csv), "--q", "3",
                     "--seed", "1", "--output", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["q"] == 3
        assert manifest["q_source"] == "user"

    def test_seeded_outputs_bit_identical(self, fixture_csv, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["decompose", "--input", str(fixture_csv), "--seed",
                         "3", "--q", "2", "--output", str(out)]) == 0
            outs.append(out)
        for name in ("Q.csv", "sources.csv", "mixing.csv", "model.json",
                     "stats.csv", "trace-component-1.jsonl"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_rerun_from_manifest_reproduces(self, fixture_csv, tmp_path):
        first = tmp_path / "first"
        cfg = tmp_path / "first.json"
        cfg.write_text(json.dumps({
            "pursuit": {"n_seeds": 60, "retained": 3, "run_stage2": False,
                        "channel_center": False},
            "solver": {"qn_kind": "bfgs", "eta_con_star": 1e-7}}))
        assert main(["decompose", "--input", str(fixture_csv), "--seed", "9",
                     "--q", "2", "--config", str(cfg),
                     "--output", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        pursuit = manifest["config"]["pursuit"]
        assert set(pursuit) == {f.name for f in fields(PursuitConfig)} - {
            "solver", "rng_seed"}
        assert pursuit["n_seeds"] == 60 and pursuit["run_stage2"] is False
        assert manifest["config"]["solver"]["qn_kind"] == "bfgs"
        assert manifest["config"]["seed"] == 9
        assert not (first / "trace-joint.jsonl").exists()
        second = tmp_path / "second"
        assert main(["decompose", "--config", str(first / "manifest.json"),
                     "--output", str(second)]) == 0
        assert (first / "Q.csv").read_bytes() == (second / "Q.csv").read_bytes()
        assert (first / "sources.csv").read_bytes() == \
            (second / "sources.csv").read_bytes()

    def test_unknown_config_keys_rejected(self, fixture_csv, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"input": str(fixture_csv), "junk": 1}))
        assert main(["decompose", "--config", str(cfg)]) == 2
        cfg.write_text(json.dumps(["input"]))   # not a JSON object
        assert main(["decompose", "--config", str(cfg), "--input",
                     str(fixture_csv)]) == 2

    def test_removed_threads_option_rejected(self, fixture_csv, tmp_path,
                                             capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--input", str(fixture_csv), "--threads", "1"])
        assert exc.value.code == 2
        cfg = tmp_path / "threads.json"
        cfg.write_text(json.dumps({"input": str(fixture_csv), "threads": 1}))
        capsys.readouterr()
        assert main(["decompose", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_unknown_solver_key_rejected(self, fixture_csv, tmp_path, capsys):
        # besides a junk key: names of the fixed penalty and trust-region
        # constants, of a preconditioner and Hessian scale the solver does
        # not have, and of the limited-memory window, which older manifests
        # carry
        for key in ("momentum", "mu0", "theta_h", "theta_l", "mu_floor",
                    "delta0", "rho_accept", "precondition", "b0_scale",
                    "lm_memory"):
            cfg = tmp_path / f"bad-{key}.json"
            cfg.write_text(json.dumps({"input": str(fixture_csv),
                                       "solver": {key: 1}}))
            capsys.readouterr()
            assert main(["decompose", "--config", str(cfg)]) == 2, key
            assert "unknown solver keys" in capsys.readouterr().err, key

    def test_unknown_contrast_rejected(self, fixture_csv, tmp_path, capsys):
        # no contrast key: a custom contrast enters through ProblemFactory
        for name in ("kurtosis", "negentropy-logcosh"):
            cfg = tmp_path / "bad3.json"
            cfg.write_text(json.dumps({"input": str(fixture_csv),
                                       "contrast": name}))
            capsys.readouterr()
            assert main(["decompose", "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert "unknown config keys: ['contrast']" in err


def test_decompose_config_accepts_null_and_int_for_float(fixture_csv,
                                                        tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(fixture_csv), "q": None,
                               "pursuit": {"n_seeds": 50},
                               "solver": {"eta_grad_star": 1}}))
    out = tmp_path / "out"
    assert main(["decompose", "--config", str(cfg), "--output",
                 str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["q_source"] == "estimated"
    assert manifest["config"]["seed"] == PursuitConfig().rng_seed
    assert manifest["config"]["solver"]["eta_grad_star"] == 1


# case -> (config file entries, extra flags); every case must exit 2
BAD_DECOMPOSE_CONFIGS = {
    "solver-qn-kind-int": ({"solver": {"qn_kind": 5}}, []),
    "solver-qn-kind-limited": ({"solver": {"qn_kind": "l-sr1"}}, []),
    "solver-j-max-str": ({"solver": {"j_max": "10"}}, []),
    "pursuit-n-seeds-str": ({"pursuit": {"n_seeds": "5"}}, []),
    "q-str": ({"q": "3"}, []),
    "q-float": ({"q": 2.5}, []),
    "seed-str": ({"seed": "7"}, []),
    "run-stage2-str": ({"pursuit": {"run_stage2": "no"}}, []),
    "retained-bool": ({"pursuit": {"retained": True}}, []),
    "pursuit-rng-seed": ({"pursuit": {"rng_seed": 5}}, []),
    "contrast": ({"contrast": "negentropy-logcosh"}, []),
    "q-zero": ({}, ["--q", "0"]),
    "q-above-p": ({}, ["--q", "99"]),
}


@pytest.mark.parametrize("case", sorted(BAD_DECOMPOSE_CONFIGS))
def test_decompose_bad_config_exits_2(case, fixture_csv, tmp_path, capsys):
    entries, flags = BAD_DECOMPOSE_CONFIGS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(fixture_csv), **entries}))
    out = tmp_path / "out"
    assert main(["decompose", "--config", str(cfg), "--output", str(out),
                 *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


class TestLatdim:
    def test_prints_estimate(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "lat"
        code = main(["latdim", "--input", str(fixture_csv), "--seed", "3",
                     "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "2"
        doc = json.loads((out / "latdim.json").read_text())
        assert doc["q_hat"] == 2
        profile = (out / "latdim-profile.csv").read_text()
        assert profile.splitlines()[0] == "q,e_bar,var_e,delta"

    def test_seeded_identical_bytes(self, fixture_csv, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["latdim", "--input", str(fixture_csv), "--seed",
                         "11", "--output", str(out)]) == 0
            outs.append(out / "latdim.json")
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_too_few_channels_exit_2(self, tmp_path, capsys):
        path = tmp_path / "small.csv"
        save_matrix_csv(path, np.random.default_rng(0).standard_normal((4, 60)))
        out = tmp_path / "never"
        assert main(["latdim", "--input", str(path), "--output",
                     str(out)]) == 2
        assert "at least 8 channels" in capsys.readouterr().err
        assert not out.exists()


class TestBench:
    def test_nlp_electron_small(self, capsys):
        code = main(["bench", "nlp", "electron", "--np", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "electron n_p=8" in out and "converged" in out

    def test_nlp_polygon_small(self, capsys):
        code = main(["bench", "nlp", "polygon", "--nv", "4",
                     "--multistart", "2"])
        assert code == 0
        assert "polygon n_v=4" in capsys.readouterr().out

    def test_nlp_nnls_random(self, capsys):
        code = main(["bench", "nlp", "nnls", "--rows", "20", "--cols", "8",
                     "--seed", "2"])
        assert code == 0
        assert "nnls 20x8" in capsys.readouterr().out

    def test_nnls_external_npz(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((10, 4))
        b = rng.standard_normal(10)
        path = tmp_path / "inst.npz"
        np.savez(path, A=A, b=b)
        code = main(["bench", "nlp", "nnls", "--file", str(path)])
        assert code == 0
        assert "nnls 10x4" in capsys.readouterr().out

    def test_sir_mc_deterministic_csv(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main(["bench", "sir-mc", "--sources", "synth5", "--n",
                         "600", "--nb", "2", "--seed", "1", "--output",
                         str(out)])
            assert code == 0
            outs.append(out / "sir-runs.csv")
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_score_external_estimates(self, tmp_path, capsys):
        # the plug-in seam: any program that turns a mixed-matrix file into a
        # source-matrix file is scored by the same pipeline
        rng = np.random.default_rng(4)
        S = rng.standard_normal((3, 300))
        truth = tmp_path / "S.csv"
        est = tmp_path / "Shat.csv"
        save_matrix_csv(truth, S)
        save_matrix_csv(est, S[[2, 0, 1]] * np.array([[-1.0], [1.0], [-1.0]]))
        out = tmp_path / "score"
        code = main(["bench", "score", "--truth", str(truth), "--estimates",
                     str(est), "--output", str(out)])
        assert code == 0
        assert "mean_sir_db=150.0000" in capsys.readouterr().out
        doc = json.loads((out / "sir-score.json").read_text())
        assert doc["matching"] == [2, 0, 1]

    def test_latdim_grid_writes_reports(self, tmp_path):
        out = tmp_path / "grid"
        code = main(["bench", "latdim-grid", "--reps", "2", "--ratios", "2",
                     "--qps", "0.1", "--families", "gaussian", "--seed", "4",
                     "--output", str(out)])
        assert code == 0
        text = (out / "latdim-grid.csv").read_text()
        assert len(text.splitlines()) == 2


def _write_rank_deficient_sources(path):
    row = np.random.default_rng(0).standard_normal(300)
    save_matrix_csv(path, np.vstack([row, 2.0 * row]))


def _write_pickle(path):
    with open(path, "wb") as fh:
        pickle.dump({"A": np.eye(2), "b": np.zeros(2)}, fh)


# case -> (arguments after "bench", writer of the input file the case names)
BAD_BENCH_INPUTS = {
    "grid-ratios-text": (["latdim-grid", "--ratios", "a,b"], None),
    "grid-families-unknown": (["latdim-grid", "--families", "nope"], None),
    "grid-ratios-zero": (["latdim-grid", "--ratios", "0"], None),
    "grid-qps-zero": (["latdim-grid", "--qps", "0"], None),
    "grid-qps-one": (["latdim-grid", "--qps", "1"], None),
    "grid-qps-above-one": (["latdim-grid", "--qps", "1.5", "--ratios", "2",
                            "--families", "gaussian", "--reps", "1"], None),
    "grid-reps-zero": (["latdim-grid", "--reps", "0"], None),
    "sir-mc-nb-zero": (["sir-mc", "--n", "300", "--nb", "0"], None),
    "sir-mc-n-zero": (["sir-mc", "--sources", "sparse-bells", "--n", "0",
                       "--nb", "1"], None),
    "sir-mc-rank-deficient": (["sir-mc", "--sources", "S.csv"],
                              _write_rank_deficient_sources),
    "nnls-npy": (["nlp", "nnls", "--file", "inst.npy"],
                 lambda path: np.save(path, np.ones((3, 2)))),
    "nnls-csv": (["nlp", "nnls", "--file", "inst.csv"],
                 lambda path: save_matrix_csv(path, np.ones((3, 2)))),
    "nnls-pickle": (["nlp", "nnls", "--file", "inst.pkl"], _write_pickle),
    "nnls-object-array": (
        ["nlp", "nnls", "--file", "inst.npz"],
        lambda path: np.savez(path, A=np.array([{}], dtype=object),
                              b=np.zeros(1))),
    "electron-one-charge": (["nlp", "electron", "--np", "1"], None),
    "polygon-two-vertices": (["nlp", "polygon", "--nv", "2"], None),
}


@pytest.mark.parametrize("case", sorted(BAD_BENCH_INPUTS))
def test_bench_bad_input_exits_2(case, tmp_path, monkeypatch, capsys):
    args, write = BAD_BENCH_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    if write is not None:
        write(tmp_path / args[-1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["bench", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    # the script would print these to stderr ahead of the error line
    assert not caught, [str(w.message) for w in caught]
    if case != "sir-mc-rank-deficient":
        assert "rank deficient" not in err
    assert not (tmp_path / "adis-out").exists()


# case -> arguments after "gen", before "--out"; every case must exit 2
BAD_GEN_INPUTS = {
    "model-family-unknown": ["model", "--p", "4", "--q", "2",
                             "--family", "nope"],
    "model-n-zero": ["model", "--p", "4", "--q", "2", "--n", "0"],
    "synth5-n-zero": ["synth5", "--n", "0"],
    "synth5-n-one": ["synth5", "--n", "1"],
}


@pytest.mark.parametrize("case", sorted(BAD_GEN_INPUTS))
def test_gen_bad_input_exits_2(case, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["gen", *BAD_GEN_INPUTS[case], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


class TestGen:
    def test_synth5(self, tmp_path, capsys):
        path = tmp_path / "S.csv"
        assert main(["gen", "synth5", "--n", "500", "--seed", "2", "--out",
                     str(path)]) == 0
        from adis_kit.dataio import load_matrix_csv
        assert load_matrix_csv(path).shape == (5, 500)

    def test_model(self, tmp_path):
        path = tmp_path / "X.csv"
        assert main(["gen", "model", "--p", "12", "--q", "3", "--n", "200",
                     "--sigma", "0.5", "--seed", "3", "--out", str(path)]) == 0
        from adis_kit.dataio import load_matrix_csv
        assert load_matrix_csv(path).shape == (12, 200)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "adis_kit.cli", "--version"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "adis-kit" in result.stdout
