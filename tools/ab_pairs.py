"""Compare two checkouts on the benchmark in alternating pairs.

    python3 tools/ab_pairs.py PARENT CHANGE --workload bss-synth5 --seed 7 \
        --pairs 10 --seconds 50 [--out runs.json]

PARENT and CHANGE are the roots of two source checkouts. Each pair runs
``perfbench/run.py`` once in each, from that checkout's root and with its
own copy of the benchmark; the first of a pair alternates between the two
sides. For every end-to-end metric the script prints both sides' median and
quartiles, the pairs the change won (ties count for neither), the relative
change of the median and its bound from ``BENCHMARK.json``, and whether the
claim rule holds: the change wins at least nine tenths of the pairs, and
the medians differ by more than the distance between the parent's
quartiles. It also compares the output digests from each run's detail line:
per pair, whether the warm-up digests match and how many of the operations
both sides ran have the same digest, and, over the operations both sides
completed, the largest change of ``objective_rel`` and its largest decrease
(parent minus change; negative when every operation rose). A change meant
to keep every output shows identical digests throughout; one that moves
outputs by rounding shows how far. It uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``root``: its result line, with the
    direction of every metric and the outputs (``warmup`` digests, and the
    ``ops`` digests and ``objective_rel`` values in operation order) taken
    from its detail line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"ab_pairs: run in {root} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    for name, metric in result["metrics"].items():
        metric["better"] = detail["metrics"][name]["better"]
    result["digests"] = {"warmup": detail["warmup_digests"],
                         "ops": [r["digest"] for r in detail["ops"]],
                         "objective_rel": [r["objective_rel"]
                                           for r in detail["ops"]]}
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(pairs, bounds: dict) -> list:
    """One row per metric from ``[(parent_result, change_result), ...]``."""
    rows = []
    for name, metric in pairs[0][0]["metrics"].items():
        sign = 1.0 if metric["better"] == "higher" else -1.0
        base = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(sign * (b - a) > 0 for a, b in zip(base, new))
        m_base, m_new = statistics.median(base), statistics.median(new)
        q1, q3 = quartiles(base)
        c1, c3 = quartiles(new)
        gain = sign * (m_new - m_base)
        rel = (m_new - m_base) / abs(m_base) if m_base else math.nan
        bound = bounds.get(name)
        rows.append({
            "metric": name, "better": metric["better"],
            "parent_median": m_base, "parent_q1": q1, "parent_q3": q3,
            "change_median": m_new, "change_q1": c1, "change_q3": c3,
            "wins": wins, "pairs": len(pairs), "rel_change": rel,
            "bound": bound,
            "within_bound": bound is None or -sign * rel <= bound,
            "claim_holds": wins >= math.ceil(0.9 * len(pairs))
                           and gain > q3 - q1,
        })
    return rows


def compare_digests(pairs) -> list:
    """Per pair: whether both sides' warm-up digests match; of the
    operations both sides ran, how many have the same non-empty digest (a
    failed operation has an empty one); and of those both completed, how
    many there are, the largest ``|objective_rel|`` difference and the
    largest decrease of ``objective_rel`` from parent to change (both None
    when there are none)."""
    rows = []
    for p, c in pairs:
        ops = list(zip(p["digests"]["ops"], c["digests"]["ops"]))
        rels = zip(p["digests"]["objective_rel"],
                   c["digests"]["objective_rel"])
        drops = [a - b for (da, db), (a, b) in zip(ops, rels) if da and db]
        deltas = [abs(d) for d in drops]
        rows.append({
            "warmup_match": p["digests"]["warmup"] == c["digests"]["warmup"],
            "common_ops": len(ops),
            "same_ops": sum(bool(a) and a == b for a, b in ops),
            "completed_ops": len(deltas),
            "max_objective_delta": max(deltas, default=None),
            "max_objective_decrease": max(drops, default=None),
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--out", type=Path,
                        help="write every run's result line here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            got[side] = run_once(sides[side], args.workload, args.seed,
                                 args.seconds)
            print(f"pair {i + 1}/{args.pairs} {side}: "
                  f"correct={got[side]['correct']} "
                  f"attempted={got[side]['attempted']} "
                  f"failed={got[side]['failed']}", file=sys.stderr)
        pairs.append((got["parent"], got["change"]))

    rows = compare(pairs, bounds)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs; medians with quartiles")
    for r in rows:
        bound = "" if r["bound"] is None else f" (bound {r['bound']:.0%})"
        print(f"  {r['metric']:18s} {r['parent_median']:.5g} "
              f"[{r['parent_q1']:.5g}, {r['parent_q3']:.5g}] -> "
              f"{r['change_median']:.5g} "
              f"[{r['change_q1']:.5g}, {r['change_q3']:.5g}]  "
              f"{r['rel_change']:+.2%}{bound}  "
              f"wins {r['wins']}/{r['pairs']}  "
              f"claim {'holds' if r['claim_holds'] else 'does not hold'}"
              f"{'' if r['within_bound'] else '  WORSE THAN BOUND'}")
    correct = all(p["correct"] and c["correct"] for p, c in pairs)
    failed = sum(p["failed"] + c["failed"] for p, c in pairs)
    print(f"  all runs correct: {correct}; failed operations: {failed}")
    digests = compare_digests(pairs)
    print(f"  digests: warm-up identical in "
          f"{sum(d['warmup_match'] for d in digests)}/{len(digests)} pairs; "
          f"{sum(d['same_ops'] for d in digests)} of "
          f"{sum(d['common_ops'] for d in digests)} common operations "
          f"identical")
    deltas = [d["max_objective_delta"] for d in digests
              if d["max_objective_delta"] is not None]
    drops = [d["max_objective_decrease"] for d in digests
             if d["max_objective_decrease"] is not None]
    print(f"  objective_rel: largest per-operation |change| "
          f"{max(deltas, default=0.0):.3g}, largest decrease "
          f"{max(drops, default=0.0):.3g} over "
          f"{sum(d['completed_ops'] for d in digests)} operations both "
          f"sides completed")
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "rows": rows, "digests": digests,
             "runs": [{"parent": p, "change": c} for p, c in pairs]},
            indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
