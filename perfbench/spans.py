"""In-memory spans recorded from the benchmark's side of each call.

The benchmark adds no spans inside ``src/``: it times the public calls
it makes, and for the query path it wraps the public methods of the
session's :class:`~repro.plan.Planner` instance, so the spans nest as
the calls do (``query`` → ``parse`` / ``canonicalize`` / ``route`` /
``kernel.*``).  A layer's self time is its span minus its children.
Spans are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict


class _Timed:
    """Context manager result: ``seconds`` once the block has ended."""

    __slots__ = ("seconds",)

    def __init__(self):
        self.seconds = 0.0


class _Span(_Timed):
    __slots__ = ("tracer", "name", "op", "record", "start")

    def __init__(self, tracer, name, op):
        super().__init__()
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else 0
        span_id = next(tracer._ids)
        op = self.op if self.op is not None else tracer.op
        self.record = [span_id, parent, self.name, 0.0, 0.0, op]
        tracer._stack.append(span_id)
        tracer.spans.append(self.record)
        self.start = self.record[3] = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        end = time.perf_counter()
        self.record[4] = end
        self.seconds = end - self.start
        self.tracer._stack.pop()
        return False


class _Stopwatch(_Timed):
    """The untraced stand-in: times the block, records nothing."""

    __slots__ = ("start",)

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.seconds = time.perf_counter() - self.start
        return False


class Tracer:
    """Spans of one thread: ``[id, parent, name, start, end, op]``."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def span(self, name: str, op=None):
        if not self.enabled:
            return _Stopwatch()
        return _Span(self, name, op)

    def add(self, name: str, start: float, end: float, op=None, parent=0) -> int:
        """Record a finished span measured elsewhere (the load
        generator's send/receive stamps)."""
        span_id = next(self._ids)
        if self.enabled:
            self.spans.append([span_id, parent, name, start, end, op])
        return span_id

    def wrap(self, obj, method: str, name):
        """Shadow ``obj.method`` with a span-recording wrapper.

        ``name`` is a span name or a callable mapping the call's
        arguments to one.  Returns a function that restores the method.
        """
        original = getattr(obj, method)

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                return original(*args, **kwargs)

        setattr(obj, method, traced)
        return lambda: delattr(obj, method)

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Total self time per span name (seconds), over spans recorded
        from index ``since`` on."""
        spans = self.spans[since:]
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _, start, end, _ in spans:
            if parent:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end, _ in spans:
            totals[name] += (end - start) - child_time.get(span_id, 0.0)
        return dict(totals)

    def durations(self, name: str, since: int = 0) -> list[float]:
        return [
            end - start
            for _, _, span_name, start, end, _ in self.spans[since:]
            if span_name == name
        ]

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, op in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "op": op,
                        }
                    )
                    + "\n"
                )
