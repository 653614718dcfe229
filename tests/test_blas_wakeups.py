"""Smoke test of tools/blas_wakeups.py, which prints the BLAS thread-pool
CPU of each step of a noisy-model operation."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_PATH = _ROOT / "tools" / "blas_wakeups.py"
_spec = importlib.util.spec_from_file_location("blas_wakeups", _PATH)
blas_wakeups = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(blas_wakeups)


def test_every_step_is_listed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src")] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env
                                else []))
    proc = subprocess.run([sys.executable, str(_PATH), "--n", "3000"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    if not os.path.isdir(blas_wakeups.TASKS):
        assert "nothing measured" in proc.stdout
        return
    rows = {line.split()[0]: line.split()[1:]
            for line in proc.stdout.splitlines()[2:]}
    names = [name for name, _ in blas_wakeups.steps(3000, 3, 1)]
    assert list(rows) == names + ["total"]
    for name in names:
        wall_ms, _ = (float(v) for v in rows[name])
        assert wall_ms > 0.0


def test_without_proc_it_says_so(monkeypatch, capsys):
    monkeypatch.setattr(blas_wakeups, "TASKS", "/nonexistent/task")
    assert blas_wakeups.main(["--n", "3000"]) == 0
    assert "nothing measured" in capsys.readouterr().out
