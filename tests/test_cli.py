import json
import subprocess
import sys

import numpy as np
import pytest

from adis_kit.cli import main
from adis_kit.dataio import save_matrix_csv
from adis_kit.bench import model_dataset


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
            "trace-joint.jsonl", "manifest.json",
        ])
        assert len(names) == 9

    def test_missing_input_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "never"
        code = main(["decompose", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(out)])
        assert code == 2
        assert not out.exists()

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
        assert main(["decompose", "--input", str(fixture_csv), "--seed", "9",
                     "--q", "2", "--output", str(first)]) == 0
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

    def test_unknown_solver_key_rejected(self, fixture_csv, tmp_path):
        cfg = tmp_path / "bad2.json"
        cfg.write_text(json.dumps({"input": str(fixture_csv),
                                   "solver": {"momentum": 0.9}}))
        assert main(["decompose", "--config", str(cfg)]) == 2

    def test_unknown_contrast_rejected(self, fixture_csv, tmp_path, capsys):
        cfg = tmp_path / "bad3.json"
        cfg.write_text(json.dumps({"input": str(fixture_csv),
                                   "contrast": "kurtosis"}))
        assert main(["decompose", "--config", str(cfg)]) == 2
        assert "unknown contrast" in capsys.readouterr().err

    def test_named_contrast_accepted(self, fixture_csv, tmp_path):
        cfg = tmp_path / "good.json"
        out = tmp_path / "named"
        cfg.write_text(json.dumps({"input": str(fixture_csv), "q": 2,
                                   "seed": 2, "output": str(out),
                                   "contrast": "negentropy-logcosh"}))
        assert main(["decompose", "--config", str(cfg)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["contrast"] == "negentropy-logcosh"


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
        assert main(["latdim", "--input", str(path)]) == 2
        assert "at least 8 channels" in capsys.readouterr().err


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
