"""The benchmark's own span recorder.

Spans are opened from outside the program: :meth:`SpanRecorder.wrap`
replaces one public method on one *instance* the workload built with a
wrapper that records ``(name, start, end, parent, pass_id)``.  Nothing
under ``src/`` is edited, and an unwrapped instance runs the seed's code
unchanged, so end-to-end metrics are always measured with no recorder.

A span's self time is its duration minus the time its direct children
cover; because wrappers nest strictly (one thread, call/return), the self
times of a root span and all its descendants sum to the root's duration.
"""

from __future__ import annotations

import json
from time import perf_counter


class SpanRecorder:
    """In-memory spans for one process; written out when the run ends."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, pass id); None while open
        self.spans: list[tuple | None] = []
        self.pass_id = 0
        self._stack: list[int] = []

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Record a span named *name* around every ``obj.attr(...)``."""
        setattr(obj, attr, self.traced(getattr(obj, attr), name))

    def traced(self, inner, name: str):
        """*inner* wrapped so each call is one span."""
        spans = self.spans
        stack = self._stack

        def span(*args, **kwargs):
            start = perf_counter()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            try:
                return inner(*args, **kwargs)
            finally:
                stack.pop()
                spans[index] = (name, start, perf_counter(), parent,
                                self.pass_id)

        return span

    def totals(self, pass_id: int) -> dict[str, dict[str, float]]:
        """Per span name within one pass: ``calls``, ``busy_s`` (sum of
        durations), ``self_s`` (durations minus direct children) and
        ``root_s`` (durations of the spans that have no parent)."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span is not None and span[4] == pass_id and span[3] >= 0:
                child_time[span[3]] = child_time.get(span[3], 0.0) \
                    + (span[2] - span[1])
        totals: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if span is None or span[4] != pass_id:
                continue
            entry = totals.setdefault(
                span[0], {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                          "root_s": 0.0})
            duration = span[2] - span[1]
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += duration - child_time.get(index, 0.0)
            if span[3] < 0:
                entry["root_s"] += duration
        return totals

    def dump(self, path: str) -> None:
        """One JSON object per line: id, name, start, end, parent (the id
        of the enclosing span, -1 for a root), pass_id."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent, pass_id = span
                    handle.write(json.dumps({
                        "id": index, "name": name, "start": start,
                        "end": end, "parent": parent,
                        "pass_id": pass_id}) + "\n")


def span_total(totals: dict, name: str, field: str = "busy_s") -> float:
    """``totals[name][field]``, 0 when the span never opened."""
    return totals.get(name, {}).get(field, 0.0)
