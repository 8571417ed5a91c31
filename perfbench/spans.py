"""In-memory spans and counters around the benchmark's calls into bellbound.

A span has a name, the job it belongs to, its parent span, a start and an
end.  A layer's self time is its span's duration minus the time its child
spans cover.  With tracing off, ``span`` returns one shared null context so
the untraced run pays for a method call and nothing else.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, job_id, parent, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self.job_id = -1
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, self.job_id, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] = max(self.counts[name], value)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, _, _, start, end in self.spans if n == name]

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self seconds)."""
        child_time = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for index, (name, _, _, start, end) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += (end - start) - child_time[index]
        return {name: (calls, total) for name, (calls, total) in out.items()}
