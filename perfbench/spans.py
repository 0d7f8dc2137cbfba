"""In-memory spans around every call the benchmark makes into renormray.

A span is one call of a module's public function, named
``<module>.<function>``.  Its parent is the span of the benchmark operation
that made the call (named ``op.<class>``), and every span carries the
operation id.  Counters are recorded at the same boundaries.  With tracing
off, ``call`` is a plain function call and nothing is stored.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, op_id]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._op_id: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def begin_op(self, op_id: int, cls: str) -> None:
        self._op_id = op_id
        if self.enabled:
            self._stack.append(len(self.spans))
            self.spans.append([f"op.{cls}", perf_counter(), 0.0, None, op_id])

    def end_op(self) -> None:
        if self.enabled:
            self.spans[self._stack.pop()][2] = perf_counter()
        self._op_id = None

    def add(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters[name] = max(self.counters.get(name, value), value)

    def write(self, path, workload: str, seed: int) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end, "parent": parent,
                    "op": op_id, "workload": workload, "seed": seed,
                }) + "\n")


def durations(spans, scale, name: str | None = None, prefix: str | None = None) -> list[float]:
    """Durations of the spans with this name or name prefix, each divided by
    ``scale(op)``, the slowness of the machine when the calling op ran."""
    return [
        (end - start) / scale(op)
        for n, start, end, _, op in spans
        if (name is not None and n == name) or (prefix is not None and n.startswith(prefix))
    ]


def call_stats(spans, name: str, batches: int, scale) -> dict[str, float]:
    """Calls and busy seconds per batch, and the median call in microseconds."""
    ds = durations(spans, scale, name=name)
    return {
        f"{name}.calls": len(ds) / batches,
        f"{name}.busy_s": sum(ds) / batches,
        f"{name}.p50_us": statistics.median(ds) * 1e6 if ds else 0.0,
    }


def module_busy(spans, module: str, batches: int, scale) -> float:
    """Seconds per batch spent in calls into one module."""
    return sum(durations(spans, scale, prefix=module + ".")) / batches
