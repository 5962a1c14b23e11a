"""In-memory span tracer for the benchmark's layer boundaries.

Spans are recorded only by the benchmark, around its calls into the
toolchain's public functions; nothing inside the program is
instrumented.  A disabled tracer hands out one shared null context, so
the untraced runs execute the same benchmark code at negligible cost.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from time import perf_counter_ns

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: Tracer, index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> _Span:
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.index)


class Tracer:
    """Nested spans: ``[name, start_ns, end_ns, parent, root]`` each.

    ``root`` is the index of the outermost enclosing span, so metrics
    can be aggregated per top-level unit (one cold build, one pass).
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else index
        self.spans.append([name, perf_counter_ns(), 0, parent, root])
        self._stack.append(index)
        return _Span(self, index)

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, obj: object, method: str, name: str) -> None:
        """Shadow ``obj.method`` with a spanned call (instance only)."""
        if not self.enabled:
            return
        inner = getattr(obj, method)

        def spanned(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, method, spanned)

    def self_times(self) -> list[float]:
        """Per-span seconds not covered by the span's direct children."""
        own = [(s[2] - s[1]) for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return [ns / 1e9 for ns in own]

    def layer_seconds(self, roots: tuple[str, ...], since: int = 0) -> dict[str, float]:
        """Summed self time per span name, over spans from index *since*
        below top-level spans whose name is in *roots* (the roots
        themselves excluded)."""
        own = self.self_times()
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans[since:], start=since):
            if s[4] != i and self.spans[s[4]][0] in roots:
                out[s[0]] = out.get(s[0], 0.0) + own[i]
        return out

    def root_count(self, roots: tuple[str, ...]) -> int:
        return sum(1 for i, s in enumerate(self.spans) if s[4] == i and s[0] in roots)

    def outside_share(self, roots: tuple[str, ...], since: int = 0) -> float:
        """Share of the wall time of top-level *roots* spans (from index
        *since*) that no layer span below them covers."""
        own = self.self_times()
        wall = gap = 0.0
        for i, s in enumerate(self.spans[since:], start=since):
            if s[4] == i and s[0] in roots:
                wall += (s[2] - s[1]) / 1e9
                gap += own[i]
        return gap / wall if wall else 0.0

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        origin = min((s[1] for s in self.spans), default=0)
        pid = os.getpid()
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) / 1000,
                "dur": (end - start) / 1000,
                "pid": pid,
                "tid": 1,
                "args": {"id": i, "parent": parent},
            }
            for i, (name, start, end, parent, _root) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
