"""In-memory spans recorded by the benchmark around its calls into doqr.

A span has a name, start and end (``time.perf_counter`` seconds), the index
of its parent span, the operation id of the root span it belongs to, the
workload unit that opened it, and a divisor ``per`` for metrics that are
reported per item (for example microseconds per point).  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import statistics
import time

# span name -> scale applied to (self time / per); names are the per-layer
# metric names of BENCHMARK.json
SCALE = {"halfspace.depth_2d_exact_us_per_point": 1e6}


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_op = 0
        self.unit = ""

    @contextlib.contextmanager
    def span(self, name: str, per: float = 1.0):
        """Record a span around the body; a new root span starts a new operation."""
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            op = self._next_op
            self._next_op += 1
        else:
            op = self.spans[parent]["op"]
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "op": op, "unit": self.unit, "per": per}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def add(self, name: str, seconds: float) -> None:
        """Record an interval timed elsewhere (e.g. inside a child process)."""
        if self.enabled:
            with self.span(name):
                pass
            rec = self.spans[-1]
            rec["start"] = rec["end"] - seconds

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def per_layer(self, names, unit_order) -> dict[str, float]:
        """Median self time per span name.

        Spans of one name can come from several workload units (a traced
        tukey_median runs in the bivariate session and in the small-median
        enumeration); only the first unit in ``unit_order`` that produced
        the name counts, so each value describes one kind of input.
        """
        selft = self.self_times()
        out = {}
        for name in names:
            by_unit: dict[str, list[float]] = {}
            for s, st in zip(self.spans, selft):
                if s["name"] == name:
                    by_unit.setdefault(s["unit"], []).append(st / s["per"])
            unit = next((u for u in unit_order if u in by_unit), None)
            if unit is not None:
                out[name] = statistics.median(by_unit[unit]) * SCALE.get(name, 1.0)
        return out
