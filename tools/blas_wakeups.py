"""Show which step of a noisy-model operation wakes the BLAS thread pool.

    PYTHONPATH=src python3 tools/blas_wakeups.py [--n 20000] [--seed 3] [--op 1]

Runs one operation shaped like the ``bss-noisy-long`` benchmark workload
(``model_dataset`` with p = 12, q = 5, sigma 0.5 and uniform sources, then
the steps of ``decompose`` with q estimated, then ``sir``) one step at a
time, after one unmeasured run of the same operation that pays the
first-call costs (the contrast's Gaussian moment is computed once per
process, by a LAPACK call that wakes the pool). Before each step it sleeps
until a woken pool has gone back to sleep,
then it reads the CPU time of every thread of the process but the calling
one from ``/proc/self/task/*/schedstat`` (read only). Each step's figure
runs from the end of the sleep before it to the end of the sleep after it,
so it includes the spin a woken pool keeps up once the call has returned.
For each step it prints the wall time and that other-thread CPU time; a
step that woke an OpenBLAS pool shows about 130 ms of it, one that did not
shows about 0. On a system without ``/proc`` it says so and exits 0. Uses
the standard library, numpy and the package only; the operation's seeds are
derived as the benchmark derives them, so ``--seed 3 --op 1`` is that
workload's operation 1 of seed 3.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time

import numpy as np

# longer than the spin of a woken OpenBLAS pool (about 130 ms measured)
SETTLE_S = 0.4
TASKS = "/proc/self/task"


def _thread_cpu_s(tid: str) -> float:
    try:
        with open(f"{TASKS}/{tid}/schedstat") as f:
            return int(f.read().split()[0]) * 1e-9
    except FileNotFoundError:
        pass
    # kernels without schedstat: user plus system clock ticks
    with open(f"{TASKS}/{tid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def other_threads_cpu_s() -> float:
    """CPU seconds used so far by every thread of this process but the
    calling one (a thread that has exited counts no more)."""
    me = str(threading.get_native_id())
    total = 0.0
    for tid in os.listdir(TASKS):
        if tid != me:
            try:
                total += _thread_cpu_s(tid)
            except (FileNotFoundError, ProcessLookupError):
                pass
    return total


def steps(n: int, seed: int, op: int):
    """The operation as ``(name, thunk)`` pairs; each thunk reads what the
    steps before it left in ``state``."""
    from adis_kit.bench import model_dataset, sir
    from adis_kit.contrast import LogCoshNegentropy, ProblemFactory
    from adis_kit.latdim import estimate_q
    from adis_kit.pursuit import PursuitConfig, run_stages
    from adis_kit.whiten import center, fit_ppca, source_stats

    data_seed, dec_seed = (int(s) for s in np.random.SeedSequence(
        seed, spawn_key=(op,)).generate_state(2))
    cfg = PursuitConfig(rng_seed=dec_seed)
    state = {}

    def make_data():
        state["X"], _, state["S"] = model_dataset(
            p=12, q=5, n=n, sigma=0.5, family="uniform", seed=data_seed,
            return_truth=True)

    def do_center():
        state["centered"] = center(state["X"],
                                   channel_center=cfg.channel_center)

    def do_estimate_q():
        state["q"] = estimate_q(state["centered"].values, seed=dec_seed).q_hat

    def do_fit_ppca():
        state["model"] = fit_ppca(state["centered"], state["q"])

    def do_run_stages():
        state["result"] = run_stages(
            state["model"].x_tilde, ProblemFactory(LogCoshNegentropy()), cfg)

    def do_source_stats():
        model, result = state["model"], state["result"]
        source_stats(model, state["centered"], result.S_hat,
                     mixing=model.mixing_for(result.Q))

    def do_sir():
        # sir needs the true shape, as in the benchmark
        if state["result"].S_hat.shape == state["S"].shape:
            sir(state["S"], state["result"].S_hat)

    return [("model_dataset", make_data), ("center", do_center),
            ("estimate_q", do_estimate_q), ("fit_ppca", do_fit_ppca),
            ("run_stages", do_run_stages), ("source_stats", do_source_stats),
            ("sir", do_sir)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, default=20000, help="samples")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--op", type=int, default=1)
    args = parser.parse_args(argv)
    if not os.path.isdir(TASKS):
        print(f"blas_wakeups: no {TASKS} on this system; nothing measured")
        return 0
    for _, thunk in steps(args.n, args.seed, args.op):
        thunk()
    plan = steps(args.n, args.seed, args.op)
    print(f"n={args.n} seed={args.seed} op={args.op} "
          f"threads={len(os.listdir(TASKS))} settle={SETTLE_S} s")
    print(f"{'step':<14} {'wall ms':>9} {'other-thread CPU ms':>20}")
    time.sleep(SETTLE_S)
    total = 0.0
    for name, thunk in plan:
        cpu0 = other_threads_cpu_s()
        t0 = time.perf_counter()
        thunk()
        wall = time.perf_counter() - t0
        time.sleep(SETTLE_S)
        other = other_threads_cpu_s() - cpu0
        total += other
        print(f"{name:<14} {wall * 1e3:9.2f} {other * 1e3:20.2f}")
    print(f"{'total':<14} {'':>9} {total * 1e3:20.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
