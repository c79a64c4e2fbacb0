"""In-memory span recorder for the traced benchmark run.

A span is one call into a ``paramcsp`` layer, made from the benchmark's own
code: its name (``<layer>.<call>``), start and end on ``perf_counter``, the
index of the enclosing span, the request it belongs to, and counters taken
at the same boundary (branches, table entries, bytes...). Spans stay in
memory until the run ends and are then written out as JSON lines.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.request: object = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict collects the span's counters."""
        rec = {
            "name": name,
            "request": self.request,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
            "counts": {},
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        return [rec["end"] - rec["start"] - child_time[i] for i, rec in enumerate(self.spans)]

    def totals(self, request_filter=None) -> tuple[dict[str, float], dict[str, int]]:
        """Self time per span name and summed counters, over matching requests."""
        seconds: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for rec, own in zip(self.spans, self.self_times()):
            if request_filter is not None and not request_filter(rec["request"]):
                continue
            seconds[rec["name"]] += own
            for key, value in rec["counts"].items():
                counts[key] += value
        return seconds, counts

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec, sort_keys=True) + "\n")
