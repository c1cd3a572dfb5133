"""In-memory span recorder and the statistics the per-layer metrics use.

A span is one call into a harmreg layer, recorded from the benchmark's own
code around that call: name, start, end (``time.perf_counter``, which is
CLOCK_MONOTONIC on Linux and so comparable across the pool's processes),
the id of the enclosing span, the replication id and the process id.
Spans stay in memory until the run ends and are then written as JSON lines.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rep=None):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "rep": rep,
            "pid": os.getpid(),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def merge(self, spans: list[dict]) -> None:
        """Append spans recorded by another tracer (a pool worker),
        renumbering their ids so parents still resolve."""
        offset = len(self.spans)
        for record in spans:
            record = dict(record)
            record["id"] += offset
            if record["parent"] is not None:
                record["parent"] += offset
            self.spans.append(record)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def busy(self, name: str) -> float:
        return sum(self.durations(name))

    def child_coverage(self, name: str) -> list[float]:
        """For every span called ``name``, the share of its duration that
        its direct children cover."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
        return [
            covered.get(s["id"], 0.0) / (s["end"] - s["start"])
            for s in self.spans
            if s["name"] == name and s["end"] > s["start"]
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def median(values) -> float:
    """Median, or 0.0 when the layer made no call in this workload."""
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, str]:
    """The highest of p99.9, p99 and p90 that has at least ten samples
    beyond it, with its label; the median when there are too few samples."""
    n = len(values)
    if n == 0:
        return 0.0, "none"
    ordered = sorted(values)
    for q, label in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")):
        rank = math.ceil(round(q * n, 9))  # nearest-rank percentile
        if n - rank >= 10:
            return ordered[rank - 1], label
    return statistics.median(ordered), "p50"
