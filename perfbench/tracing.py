"""In-memory spans around the benchmark's own calls into the package.

A span is (name, start, end, parent index, op id).  The module of a span
is the part of its name before the first dot ("cli.main" -> "cli").  Spans
stay in memory while the run is timed and are written out once, when the
run ends.  An untraced run uses :data:`NO_TRACE`, whose spans cost one
shared ``nullcontext``.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

_NULL = contextlib.nullcontext()


class NoTrace:
    """Span recorder that records nothing (untraced runs)."""

    def span(self, name: str, op: int = -1):
        return _NULL


NO_TRACE = NoTrace()


class Tracer:
    """Span recorder that keeps every span in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: int = -1):
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, op]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def self_time_by_module(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Seconds per module, each span minus the time its children cover.

        Children of one span run one after another, so the time they cover
        is the sum of their durations.
        """
        spans = self.spans[first:last]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(spans, child_time):
            module = name.split(".", 1)[0]
            totals[module] = totals.get(module, 0.0) + (end - start) - covered
        return totals

    def write(self, path: Path, extra: dict) -> None:
        keys = ("name", "start", "end", "parent", "op")
        payload = dict(extra, spans=[dict(zip(keys, s)) for s in self.spans])
        path.write_text(json.dumps(payload) + "\n")
