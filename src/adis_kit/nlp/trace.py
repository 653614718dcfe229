"""Per-iteration convergence diagnostics with lossless export."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import List, Optional


@dataclass
class TraceRecord:
    """One inner (trust region) iteration of the solver."""

    outer: int
    inner: int
    f: float                    # raw objective at the stored iterate
    lagrangian: float           # augmented Lagrangian value
    pg_norm: float              # ||x - P(x - grad L, l, u)||_inf
    c_norm: float               # ||c(x)||_inf
    lam_norm: float             # ||lambda||_inf
    mu: float
    delta: float
    rho: Optional[float]
    accepted: bool
    qn_skipped: bool
    eta_con: float = 0.0        # outer-loop tolerance schedule at this iteration
    eta_grad: float = 0.0
    status: str = "running"
    kkt_grad: Optional[float] = None   # stamped on the final record
    kkt_con: Optional[float] = None


_FIELDS = [f.name for f in fields(TraceRecord)]


@dataclass
class SolveTrace:
    """Ordered list of iteration records for one solve."""

    records: List[TraceRecord] = field(default_factory=list)

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def final(self) -> Optional[TraceRecord]:
        return self.records[-1] if self.records else None

    def stamp_final(self, status: str, kkt_grad: float, kkt_con: float) -> None:
        if self.records:
            last = self.records[-1]
            last.status = status
            last.kkt_grad = kkt_grad
            last.kkt_con = kkt_con

    # -- serialization ----------------------------------------------------

    def to_jsonl(self) -> str:
        lines = []
        for r in self.records:
            d = asdict(r)
            for k, v in d.items():
                if isinstance(v, float) and not math.isfinite(v):
                    d[k] = repr(v)  # inf/nan are not valid JSON scalars
            lines.append(json.dumps(d))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "SolveTrace":
        records = []
        for line in text.splitlines():
            if not line.strip():
                continue
            d = json.loads(line)
            for k, v in d.items():
                if isinstance(v, str) and v in ("inf", "-inf", "nan"):
                    d[k] = float(v)
            records.append(TraceRecord(**d))
        return cls(records=records)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_FIELDS)
        writer.writeheader()
        for r in self.records:
            writer.writerow(asdict(r))
        return buf.getvalue()

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())
