"""In-memory spans recorded around calls into gradpath's layers.

Spans are recorded from the benchmark's own files only: the benchmark
calls a layer through :meth:`Tracer.call`, or replaces a module or class
attribute with :meth:`Tracer.wrap` so that calls made inside gradpath
are timed too.  A span's self time is its duration minus the time of the
spans it directly caused.  Per-call spans of hot functions (one per
gradient evaluation) are only aggregated; every other span is also kept
whole, and all of it is handed back when the run ends.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self):
        #: (name, parent name) -> [count, total seconds, child seconds]
        self.stats: dict[tuple[str, str | None], list] = {}
        #: (id, name, parent id, start, end) of every kept span
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        #: name -> counts attached to the spans of that name
        self.counts: dict[str, dict[str, float]] = {}
        self._stack: list[list] = []  # [id, name, child seconds]
        self._next_id = 0

    def call(self, name, fn, *args, keep=True, on_result=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``on_result(result, *args)`` may return a dict of counts, which
        are summed per span name.
        """
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[2] += duration
            stat = self.stats.setdefault((name, parent[1] if parent else None), [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += duration
            stat[2] += frame[2]
            if keep:
                self.spans.append((span_id, name, parent[0] if parent else None, start, end))
        if on_result is not None:
            bucket = self.counts.setdefault(name, {})
            for key, value in on_result(result, *args).items():
                bucket[key] = bucket.get(key, 0) + value
        return result

    def wrap(self, name, fn, **options):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **options, **kwargs)

        return traced

    def count(self, name: str) -> int:
        return sum(s[0] for (n, _), s in self.stats.items() if n == name)

    def total(self, name: str, parent: str | None = ...) -> float:
        """Seconds in spans called ``name`` (only those directly under ``parent`` if given)."""
        return sum(s[1] for (n, p), s in self.stats.items() if n == name and (parent is ... or p == parent))

    def self_time(self, name: str) -> float:
        return sum(s[1] - s[2] for (n, _), s in self.stats.items() if n == name)

    def summary(self) -> dict:
        """Aggregates and kept spans, as plain JSON data."""
        return {
            "stats": [
                {"name": n, "parent": p, "count": s[0], "total_s": s[1], "self_s": s[1] - s[2]}
                for (n, p), s in sorted(self.stats.items(), key=lambda kv: -kv[1][1])
            ],
            "counts": self.counts,
            "spans": [
                {"id": i, "name": n, "parent": p, "start": s, "end": e} for i, n, p, s, e in self.spans
            ],
        }
