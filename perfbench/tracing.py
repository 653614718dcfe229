"""Spans around the public functions of adis_kit's layers.

``Tracer.patched()`` replaces each layer's public function, at the module
attribute its callers look it up by, with a wrapper that records a span:
name, start, end, parent index and a few attributes read from the return
value. Nothing in the package changes; leaving the context restores every
original. ``per_op_metrics`` folds the spans of one operation into the
per-layer metrics.

Counts of solver work come from the solver's own ``NlpSolution`` fields and
``SolveTrace`` records, attached to the ``nlp.solve`` span; the wrappers add
only span counts and times.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Dict, List, Optional

import adis_kit.contrast
import adis_kit.nlp
import adis_kit.nlp.quasi_newton
import adis_kit.nlp.solver
import adis_kit.pursuit
from adis_kit.nlp import NlpProblem

EVAL_SPANS = ("nlp.problem.eval_objective", "nlp.problem.eval_eq")

# (span name, the object whose attribute is replaced, attribute name)
PATCHES = [
    ("pursuit.seed_search", adis_kit.pursuit, "seed_search"),
    ("pursuit.extract_component", adis_kit.pursuit, "extract_component"),
    ("pursuit.refine_joint", adis_kit.pursuit, "refine_joint"),
    ("latdim.estimate_q", adis_kit.pursuit, "estimate_q"),
    ("whiten.fit_ppca", adis_kit.pursuit, "fit_ppca"),
    ("whiten.source_stats", adis_kit.pursuit, "source_stats"),
    ("contrast.negentropy", adis_kit.contrast, "negentropy"),
    ("nlp.solve", adis_kit.pursuit, "solve"),
    ("nlp.solve", adis_kit.nlp, "solve"),
    ("nlp.inner_solve", adis_kit.nlp.solver, "inner_solve"),
    ("nlp.cauchy_point", adis_kit.nlp.solver, "cauchy_point"),
    ("nlp.steihaug_cg", adis_kit.nlp.solver, "steihaug_cg"),
    ("nlp.qn.update", adis_kit.nlp.quasi_newton.DenseQuasiNewton, "update"),
    ("nlp.qn.update", adis_kit.nlp.quasi_newton.LimitedQuasiNewton, "update"),
    ("nlp.problem.eval_objective", NlpProblem, "eval_objective"),
    ("nlp.problem.eval_eq", NlpProblem, "eval_eq"),
]


def _solve_attrs(sol) -> dict:
    records = sol.trace.records
    return {"outer": sol.n_outer, "inner": sol.n_inner,
            "converged": sol.converged, "records": len(records),
            "accepted": sum(r.accepted for r in records),
            "qn_skipped": sum(r.qn_skipped for r in records)}


# read from each traced call's arguments and return value
ATTRS = {
    "nlp.solve": lambda args, out: _solve_attrs(out),
    "nlp.inner_solve": lambda args, out: {"failed": not out.success},
    "pursuit.refine_joint": lambda args, out: {"fallback": bool(out[2])},
    "contrast.negentropy": lambda args, out: {"samples": args[1].shape[1]},
}


class Tracer:
    """In-memory span log of one process; not thread-safe (the benchmark
    runs one client on one thread)."""

    def __init__(self):
        self.spans: List[tuple] = []   # (name, start, end, parent, attrs)
        self._stack: List[int] = []

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                out = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs.update(attrs_of(args, out))
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for name, owner, attr in PATCHES:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block; the block may fill the yielded attributes."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        attrs: dict = {}
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, attrs)

    def take(self) -> List[tuple]:
        spans, self.spans = self.spans, []
        return spans


def _stage_of(spans, index: int) -> Optional[str]:
    parent = spans[index][3]
    while parent >= 0:
        name = spans[parent][0]
        if name == "pursuit.refine_joint":
            return "stage2"
        if name == "pursuit.extract_component":
            return "stage1"
        parent = spans[parent][3]
    return None


def aggregate(spans: List[tuple]) -> Dict[str, dict]:
    """Calls, total time, self time and summed attributes per span name,
    plus the ``nlp.solve`` attributes split by pursuit stage."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    agg: Dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if name in EVAL_SPANS and parent >= 0 and spans[parent][0] in EVAL_SPANS:
            # a slack-converted problem evaluates its base problem inside
            # its own evaluation; count the solver's evaluation once
            continue
        keys = [name]
        if name == "nlp.solve":
            stage = _stage_of(spans, i)
            if stage is not None:
                keys.append(f"pursuit.{stage}")
        for key in keys:
            a = agg[key]
            a["calls"] += 1
            a["s"] += end - start
            a["self_s"] += end - start - child_time[i]
            for k, v in attrs.items():
                a[k] += float(v)
    return agg


def merge(total: Dict[str, dict], agg: Dict[str, dict]) -> None:
    """Add one operation's aggregate into a running total."""
    for name, fields in agg.items():
        into = total.setdefault(name, defaultdict(float))
        for k, v in fields.items():
            into[k] += v


def per_op_metrics(agg: Dict[str, dict], n_ops: int) -> Dict[str, float]:
    """Per-layer metrics, each a mean per operation or a ratio of sums."""

    def get(name, field):
        return agg[name][field] if name in agg else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    solve_records = get("nlp.solve", "records")
    m = {
        "op.s": get("bench.op", "s"),
        "pursuit.refine_joint.s": get("pursuit.refine_joint", "s"),
        "pursuit.refine_joint.self_s": get("pursuit.refine_joint", "self_s"),
        "pursuit.stage2.solves": get("pursuit.stage2", "calls"),
        "pursuit.stage2.inner": get("pursuit.stage2", "inner"),
        "pursuit.stage2.fallbacks": get("pursuit.refine_joint", "fallback"),
        "pursuit.seed_search.s": get("pursuit.seed_search", "s"),
        "pursuit.seed_search.calls": get("pursuit.seed_search", "calls"),
        "pursuit.extract_component.s": get("pursuit.extract_component", "s"),
        "pursuit.extract_component.self_s":
            get("pursuit.extract_component", "self_s"),
        "pursuit.stage1.solves": get("pursuit.stage1", "calls"),
        "contrast.negentropy.calls": get("contrast.negentropy", "calls"),
        "contrast.negentropy.s": get("contrast.negentropy", "s"),
        "nlp.solve.calls": get("nlp.solve", "calls"),
        "nlp.solve.outer": get("nlp.solve", "outer"),
        "nlp.solve.inner": get("nlp.solve", "inner"),
        "nlp.solve.unconverged":
            get("nlp.solve", "calls") - get("nlp.solve", "converged"),
        "nlp.inner_solve.calls": get("nlp.inner_solve", "calls"),
        "nlp.inner_solve.failed": get("nlp.inner_solve", "failed"),
        "nlp.steihaug_cg.calls": get("nlp.steihaug_cg", "calls"),
        "nlp.steihaug_cg.self_s": get("nlp.steihaug_cg", "self_s"),
        "nlp.cauchy_point.calls": get("nlp.cauchy_point", "calls"),
        "nlp.cauchy_point.self_s": get("nlp.cauchy_point", "self_s"),
        "nlp.qn.update.s": get("nlp.qn.update", "s"),
        "nlp.problem.eval_objective.calls":
            get("nlp.problem.eval_objective", "calls"),
        "nlp.problem.eval_eq.calls": get("nlp.problem.eval_eq", "calls"),
        "latdim.estimate_q.s": get("latdim.estimate_q", "s"),
        "whiten.fit_ppca.s": get("whiten.fit_ppca", "s"),
        "whiten.source_stats.s": get("whiten.source_stats", "s"),
        "bench.sir.s": get("bench.sir", "s"),
    }
    m = {k: v / n_ops for k, v in m.items()}
    m["pursuit.stage1.converged_frac"] = ratio(
        get("pursuit.stage1", "converged"), get("pursuit.stage1", "calls"))
    m["contrast.samples_per_s"] = ratio(
        get("contrast.negentropy", "samples"), get("contrast.negentropy", "s"))
    m["nlp.tr.accept_frac"] = ratio(get("nlp.solve", "accepted"), solve_records)
    m["nlp.qn.skip_frac"] = ratio(get("nlp.solve", "qn_skipped"), solve_records)
    return m


def count_metrics(metrics: Dict[str, float]) -> Dict[str, float]:
    """The metrics that count work rather than time it; a seeded rerun must
    reproduce them exactly."""
    timed = (".s", ".self_s", "samples_per_s", "overhead_frac")
    return {k: v for k, v in metrics.items() if not k.endswith(timed)}
