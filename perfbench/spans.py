"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark's own code around calls into each
layer's public functions (or by wrapping a public function where a module
binds it); nothing is recorded inside ``src/``.  A span is
``(id, name, start, end, parent, rid)`` with times in seconds from
``time.perf_counter``; spans of one request share ``rid``.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    """Spans, per-name numeric samples and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, *,
            parent: int | None = None, rid: Any = None) -> int:
        """Record an interval measured elsewhere (e.g. by the load
        generator); returns the span id."""
        sid = len(self.spans)
        self.spans.append([sid, name, start, end, parent, rid])
        return sid

    @contextmanager
    def span(self, name: str, rid: Any = None) -> Iterator[None]:
        """Time the ``with`` body as a child of the enclosing span.

        Nesting follows the call stack, so use it only for synchronous
        code; concurrent requests record flat spans through :meth:`add`.
        """
        parent = self._stack[-1] if self._stack else None
        sid = self.add(name, time.perf_counter(), 0.0, parent=parent, rid=rid)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][3] = time.perf_counter()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def patch(self, module: Any, attr: str, name: str) -> None:
        """Wrap ``module.attr`` where that module binds it (for the rest of
        the process)."""
        setattr(module, attr, self.wrap(getattr(module, attr), name))

    @staticmethod
    def span_cost_s(calls: int = 2000) -> float:
        """Seconds one recorded span adds to the code it wraps: an empty
        ``with span(...)`` body timed over ``calls`` calls, in a throwaway
        tracer (the median of five rounds)."""
        rounds = []
        for _ in range(5):
            probe = Tracer()
            t0 = time.perf_counter()
            for _ in range(calls):
                with probe.span("probe"):
                    pass
            rounds.append((time.perf_counter() - t0) / calls)
        return sorted(rounds)[2]

    def merge(self, other: dict) -> None:
        """Fold in a trace written by a child process (ids renumbered)."""
        offset = len(self.spans)
        for sid, name, start, end, parent, rid in other.get("spans", []):
            self.spans.append([
                sid + offset, name, start, end,
                None if parent is None else parent + offset, rid,
            ])
        for name, values in other.get("samples", {}).items():
            self.samples[name].extend(values)
        self.counters.update(other.get("counters", {}))

    def as_dict(self) -> dict:
        return {
            "spans": self.spans,
            "samples": dict(self.samples),
            "counters": self.counters,
        }

    def dump(self, path: str, **header: Any) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, **self.as_dict()}, fh)


def durations(trace: dict, name: str) -> list[float]:
    """Wall seconds of every span called ``name``."""
    return [end - start for _, n, start, end, _, _ in trace["spans"] if n == name]


def self_times(trace: dict) -> dict[str, list[float]]:
    """Per span name, each span's duration minus the part of its interval
    that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in trace["spans"]:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, list[float]] = defaultdict(list)
    for sid, name, start, end, _, _ in trace["spans"]:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name].append((end - start) - covered)
    return out
