"""In-memory spans and counters, written out once when a traced run ends.

A span is (id, parent, name, start_ns, end_ns, n): the wall interval of one
call the benchmark made into a layer, the span open around it when it began,
and how many calls of the same function it covers (a probe that times a
function in a loop records one span with n > 1).  A span's self time is its
duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, n: int = 1):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [sid, parent, name, time.perf_counter_ns(), 0, n]
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield record
        finally:
            record[4] = time.perf_counter_ns()
            self._open.pop()

    def add(self, name: str, start_ns: int, end_ns: int, n: int = 1) -> None:
        """Record a span timed elsewhere on the same monotonic clock.

        Child processes report CLOCK_MONOTONIC readings (Python's
        perf_counter on Linux), which share one time base across processes.
        """
        parent = self._open[-1] if self._open else -1
        self.spans.append([len(self.spans), parent, name, start_ns, end_ns, n])

    def count(self, name: str, value: float) -> None:
        self.counters[name] = value

    def self_ns(self) -> list[int]:
        children: dict[int, list[tuple[int, int]]] = {}
        for sid, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out = []
        for sid, _, _, start, end, _ in self.spans:
            covered, reach = 0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def durations(self, name: str) -> list[tuple[int, int]]:
        """(duration_ns, n) of every span with this name."""
        return [(end - start, n) for _, _, nm, start, end, n in self.spans if nm == name]

    def median_per_call(self, name: str) -> float:
        """Median over spans of duration / n, in seconds."""
        return statistics.median(d / n for d, n in self.durations(name)) / 1e9

    def mean_per_call(self, name: str) -> float:
        """Total duration over total calls, in seconds."""
        spans = self.durations(name)
        return sum(d for d, _ in spans) / sum(n for _, n in spans) / 1e9

    def total(self, name: str) -> float:
        return sum(d for d, _ in self.durations(name)) / 1e9

    def write(self, path: Path) -> None:
        """One JSON line per span (times in ns), then one line of counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for (sid, parent, name, start, end, n), self_time in zip(self.spans, self.self_ns()):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end, "n": n,
                                     "self_ns": self_time}) + "\n")
            fh.write(json.dumps({"counters": self.counters}) + "\n")


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str, n: int = 1):
        return self._null

    def count(self, name: str, value: float) -> None:
        pass
