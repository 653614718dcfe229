"""Smoke test of the benchmark at reduced input sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def small_run(workload, trace, seed=1):
    """One operation at reduced size, with the full set-up: the fresh-process
    probes and their digest and count checks run as in a real run."""
    return run.run(workload, seed, 0.0, trace, params=workloads.SMALL[workload])


def test_spec_matches_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert set(workloads.SMALL) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_metrics(workload):
    detail, result = small_run(workload, trace=False)
    assert result["correct"], detail["problems"] + [r["failures"] for r in detail["ops"]]
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values())
    assert json.loads(json.dumps(result)) == result


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_per_layer_metrics(workload):
    detail, result = small_run(workload, trace=True)
    assert result["correct"], detail["problems"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    values = {k: v["value"] for k, v in metrics.items()}
    assert values["nlp.solve.calls"] > 0
    assert values["nlp.solve.unconverged"] == 0
    if workload == "nlp-fixtures":
        busy = {k: v for k, v in values.items()
                if k.startswith(("pursuit.", "contrast.")) and v != 0}
        assert busy == {}
    else:
        assert values["pursuit.stage2.solves"] > 0
        assert values["contrast.negentropy.calls"] > 0
    if workload == "bss-noisy-long":
        assert values["latdim.estimate_q.s"] > 0
        assert values["whiten.source_stats.s"] > 0


def test_tracing_restores_the_package():
    import adis_kit.nlp
    import adis_kit.pursuit

    before = (adis_kit.pursuit.refine_joint, adis_kit.nlp.solve,
              adis_kit.nlp.NlpProblem.eval_objective)
    with tracing.Tracer().patched():
        assert adis_kit.pursuit.refine_joint is not before[0]
    assert (adis_kit.pursuit.refine_joint, adis_kit.nlp.solve,
            adis_kit.nlp.NlpProblem.eval_objective) == before
