"""Benchmark of adis-kit: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload bss-synth5 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else. A run sets up (imports plus one
warm-up operation on fixed inputs) in this process and in fresh
subprocesses: four untraced ones, or with ``--trace 1`` one traced one. It
checks that all warm-ups give bit-identical outputs, then runs operations
made from ``--seed`` back to back for ``--seconds`` seconds, checking each.
With ``--trace 1`` the layers' public functions are wrapped in spans (see
``tracing.py``) and the per-layer metrics are reported instead of the
end-to-end ones.

Standard output ends with a detail line (environment, per-operation records,
every metric with its direction) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

T_START = time.perf_counter()

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5          # this process plus SETUP_REPS - 1 fresh subprocesses
TRACE_PROBES = 1        # fresh traced subprocesses compared against this one
OVERHEAD_PAIRS = 2      # untraced/traced warm-up pairs timing the tracing
WARMUP_SEED = 0         # the warm-up op always sees the same inputs
PROBE_TIMEOUT_S = 150


def metric_specs() -> dict:
    """name -> {"unit", "better", ...} of every metric in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import adis_kit
    except ImportError as exc:
        raise SystemExit(f"perfbench: no adis_kit under {ROOT / 'src'}: {exc}")
    where = Path(adis_kit.__file__).resolve().parent
    if where != ROOT / "src" / "adis_kit":
        raise SystemExit(f"perfbench: adis_kit imported from {where}, "
                         f"not from this checkout")


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> dict:
    import numpy as np

    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads = int(getter())
                break
    return {"name": cfg.get("name"), "version": cfg.get("version"),
            "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {"platform": platform.platform(), "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "blas": blas_info(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": git_sha(), "seed": seed}


def run_op(fn, seed, op, span, params):
    """One operation; an exception is recorded as the operation's failure."""
    from workloads import OpResult

    try:
        return fn(seed, op, span, **params)
    except Exception as exc:  # the loop must go on; the op counts as failed
        traceback.print_exc(file=sys.stderr)
        return OpResult(digest="", failures=[f"{type(exc).__name__}: {exc}"])


def traced_op(fn, seed, op, params):
    """Run one operation under a fresh tracer; returns (result, spans)."""
    from tracing import Tracer

    tracer = Tracer()
    with tracer.patched():
        with tracer.span("bench.op"):
            res = run_op(fn, seed, op, tracer.span, params)
    return res, tracer.take()


def warm_up(workload: str, trace: bool):
    """The untimed warm-up: one reduced-size operation on fixed inputs, which
    pays the first-call costs (lazy imports, caches, BLAS start-up) before
    timing. Returns (result, wall seconds, count metrics or None)."""
    import workloads
    from tracing import aggregate, count_metrics, per_op_metrics

    fn, params = workloads.WORKLOADS[workload], workloads.SMALL[workload]
    t0 = time.perf_counter()
    if not trace:
        res = run_op(fn, WARMUP_SEED, 0, workloads.no_span, params)
        return res, time.perf_counter() - t0, None
    res, spans = traced_op(fn, WARMUP_SEED, 0, params)
    counts = count_metrics(per_op_metrics(aggregate(spans), 1))
    return res, time.perf_counter() - t0, counts


def setup_probe(workload: str, trace: bool) -> dict:
    """Set-up of a fresh process: imports plus the warm-up."""
    res, _, counts = warm_up(workload, trace)
    return {"setup_s": time.perf_counter() - T_START, "digest": res.digest,
            "failures": res.failures, "counts": counts}


def spawn_probe(workload: str, trace: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=os.getcwd(), capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_loop(fn, seed, seconds, trace, params):
    """Operations 1, 2, ... of ``seed`` back to back until ``seconds`` have
    passed (at least one). Returns (records, loop wall time, span aggregate,
    empty when untraced)."""
    import workloads
    from tracing import aggregate, merge

    records, agg = [], {}
    t_loop = time.perf_counter()
    op = 1
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        if trace:
            res, spans = traced_op(fn, seed, op, params)
            merge(agg, aggregate(spans))
        else:
            res = run_op(fn, seed, op, workloads.no_span, params)
        t1, c1 = time.perf_counter(), time.process_time()
        records.append({"op": op, "s": t1 - t0, "cpu_s": c1 - c0,
                        "digest": res.digest, "sir_db": res.sir_db,
                        "objective_rel": res.objective_rel,
                        "solves": res.solves, "certified": res.certified,
                        "failures": res.failures})
        op += 1
        if t1 - t_loop >= seconds:
            break
    return records, time.perf_counter() - t_loop, agg


def run(workload: str, seed: int, seconds: float, trace: bool, params=None):
    """One benchmark run; returns (detail, result) dictionaries.

    ``params`` overrides the sizes of the timed operations (the smoke test
    shrinks them); the warm-up is the same either way.
    """
    import workloads
    from tracing import per_op_metrics

    fn, params = workloads.WORKLOADS[workload], params or {}
    warm, _, _ = warm_up(workload, False)
    setups = [time.perf_counter() - T_START]
    digests = [warm.digest]
    problems = list(warm.failures)
    if trace:
        # tracing must not change outputs and its counts must repeat, here
        # and in a fresh process; the overhead compares warm runs of the
        # same operation with and without tracing
        ratios, count_sets = [], []
        for _ in range(OVERHEAD_PAIRS):
            res, plain_s, _ = warm_up(workload, False)
            digests.append(res.digest)
            res, traced_s, counts = warm_up(workload, True)
            digests.append(res.digest)
            ratios.append(traced_s / plain_s)
            count_sets.append(counts)
        overhead = statistics.median(ratios) - 1.0
        probes = [spawn_probe(workload, True) for _ in range(TRACE_PROBES)]
        count_sets += [p["counts"] for p in probes]
        if any(c != count_sets[0] for c in count_sets):
            problems.append("traced warm-up counts differ between runs")
    else:
        probes = [spawn_probe(workload, False) for _ in range(SETUP_REPS - 1)]
        setups += [p["setup_s"] for p in probes]
    for p in probes:
        digests.append(p["digest"])
        problems += p["failures"]
    if len(set(digests)) != 1:
        problems.append(f"warm-up outputs differ between runs: {digests}")

    records, loop_s, agg = timed_loop(fn, seed, seconds, trace,
                                                params)
    n = len(records)
    ok = [r for r in records if not r["failures"]]
    sirs = [r["sir_db"] for r in ok if r["sir_db"] is not None]
    failed = n - len(ok)

    if trace:
        values = per_op_metrics(agg, n)
        values["trace.overhead_frac"] = overhead
        values["bench.sir.db_mean"] = statistics.fmean(sirs) if sirs else 0.0
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": n / loop_s,
            "op_s_p50": statistics.median(r["s"] for r in records),
            "cpu_s_per_op": statistics.median(r["cpu_s"] for r in records),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "objective_rel_p50":
                statistics.median(r["objective_rel"] for r in ok) if ok else 0.0,
            "certified_frac": sum(r["certified"] for r in records)
                / max(1, sum(r["solves"] for r in records)),
        }
    specs = metric_specs()
    metrics = {k: {"value": v, "unit": specs[k]["unit"]}
               for k, v in values.items()}
    result = {"correct": failed == 0 and not problems, "attempted": n,
              "failed": failed, "metrics": metrics}
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "env": environment(seed),
        "setup_reps_s": setups, "warmup_digests": digests,
        "problems": problems,
        "failed_frac": failed / n,
        "sir_db_mean": statistics.fmean(sirs) if sirs else None,
        "ops": records,
        "metrics": {k: dict(m, better=specs[k]["better"])
                    for k, m in metrics.items()},
    }
    return detail, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, bool(args.trace))))
        return 0
    detail, result = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
