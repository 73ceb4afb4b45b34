"""Per-layer metrics, derived from one traced run's span file.

This table is the single definition of every per-layer metric: the traced
run prints it as its result and ``summarize.py`` prints it from the span
file.  Each metric comes with its unit and its base (the number of spans,
samples or operations it rests on).  A layer a workload never enters has
no data there and reads 0 with base 0: that is the measured amount of
work the layer did.

Layers are named after the program's modules: ``net`` (repro.net),
``serve`` (repro.serve), ``engine`` (repro.engine), ``dispatch``
(repro.batch.parallel payloads), ``mallows`` (repro.mallows),
``schedule`` (repro.batch.schedule as driven by repro.experiments),
``batch.cache`` (repro.batch.cache), ``algorithms``/``fairness``/``utils``
(the per-call self time of the paper's algorithms, the weakly fair
construction and the bootstrap), ``analysis`` (repro.analysis) and
``process`` (importing the package).
"""

from __future__ import annotations

import statistics
from typing import Callable

from spans import durations, self_times

#: Artefact families of ``run_all``'s work units (the first element of a
#: unit's ``kind``).
UNIT_FAMILIES = ("fig1", "fig2", "fig34", "table1", "gc")
#: Registry names the German Credit panels call through ``make_algorithm``.
ALGORITHMS = ("dp", "detconstsort", "ipf", "mallows")

Derived = tuple[float, int]


def _median(values: list[float], scale: float = 1.0) -> Derived:
    if not values:
        return 0.0, 0
    return scale * statistics.median(values), len(values)


def _span_p50(name: str, scale: float) -> Callable[[dict], Derived]:
    return lambda t: _median(durations(t, name), scale)


def _sample_p50(name: str, scale: float = 1.0) -> Callable[[dict], Derived]:
    return lambda t: _median(t["samples"].get(name, []), scale)


def _sample_sum(name: str) -> Callable[[dict], Derived]:
    def derive(t: dict) -> Derived:
        values = t["samples"].get(name, [])
        return float(sum(values)), len(values)
    return derive


def _counter(name: str, base: str | None = None) -> Callable[[dict], Derived]:
    def derive(t: dict) -> Derived:
        c = t["counters"]
        if name not in c:
            return 0.0, 0
        return float(c[name]), int(c.get(base, 1) if base else 1)
    return derive


def _self_total(name: str) -> Callable[[dict], Derived]:
    def derive(t: dict) -> Derived:
        values = self_times(t).get(name, [])
        return float(sum(values)), len(values)
    return derive


def _difference(a: Callable[[dict], Derived], b: Callable[[dict], Derived]):
    def derive(t: dict) -> Derived:
        (va, na), (vb, nb) = a(t), b(t)
        if not na or not nb:
            return 0.0, 0
        return va - vb, min(na, nb)
    return derive


def _ratio(num: Callable[[dict], float], den: Callable[[dict], float],
           base: Callable[[dict], int]):
    def derive(t: dict) -> Derived:
        d = den(t)
        return (num(t) / d, base(t)) if d > 0 else (0.0, 0)
    return derive


def _unit_samples(t: dict) -> list[float]:
    return [v for f in UNIT_FAMILIES for v in t["samples"].get(f"schedule.unit_s.{f}", [])]


def _count(t: dict, name: str) -> float:
    return float(t["counters"].get(name, 0.0))


#: name -> (unit, derivation)
METRICS: dict[str, tuple[str, Callable[[dict], Derived]]] = {
    # repro.net: what the wire adds over the in-process tier, and its parts.
    "net.tax_ms": ("ms", _difference(_span_p50("http.request", 1e3),
                                     _span_p50("inproc.request", 1e3))),
    "net.decode_us": ("us", _span_p50("net.decode", 1e6)),
    "net.encode_us": ("us", _span_p50("net.encode", 1e6)),
    "net.parse_us": ("us", _span_p50("net.parse", 1e6)),
    "net.request_bytes": ("bytes", _sample_p50("net.request_bytes")),
    "net.response_bytes": ("bytes", _sample_p50("net.response_bytes")),
    # repro.serve: admission, coalescing window and dispatcher hand-off.
    "serve.tax_ms": ("ms", _difference(_span_p50("inproc.request", 1e3),
                                       _sample_p50("inproc.compute_s", 1e3))),
    "serve.server_p50_ms": ("ms", _counter("serve.server_p50_ms", "serve.completed")),
    "serve.requests_per_batch": ("count", _ratio(
        lambda t: _count(t, "serve.dispatched_requests"),
        lambda t: _count(t, "serve.dispatched_batches"),
        lambda t: int(_count(t, "serve.dispatched_batches")))),
    "serve.queued": ("count", _counter("serve.queued", "serve.submitted")),
    "serve.rejected": ("count", _counter("serve.rejected", "serve.submitted")),
    # repro.engine: compute as the worker clocks it.
    "engine.compute_ms": ("ms", _sample_p50("engine.compute_s", 1e3)),
    "engine.rank_ms": ("ms", _span_p50("engine.rank", 1e3)),
    "engine.busy_share": ("ratio", _ratio(
        lambda t: sum(t["samples"].get("engine.high_compute_s", [])),
        lambda t: _count(t, "engine.high_wall_s") * _count(t, "serve.n_jobs"),
        lambda t: len(t["samples"].get("engine.high_compute_s", [])))),
    # repro.batch.parallel: the unit payload a pooled request pickles.
    "dispatch.pickle_bytes": ("bytes", _sample_p50("dispatch.pickle_bytes")),
    "dispatch.pickle_us": ("us", _span_p50("dispatch.pickle", 1e6)),
    # repro.mallows: one batch draw at the workload's request shape.
    "mallows.sample_ms": ("ms", _span_p50("mallows.sample_mallows_batch", 1e3)),
    # repro.batch.schedule under run_all (unit wall-times from its costs hook).
    "schedule.units": ("count", lambda t: (float(len(_unit_samples(t))), len(_unit_samples(t)))),
    "schedule.busy_s": ("s", lambda t: (float(sum(_unit_samples(t))), len(_unit_samples(t)))),
    "schedule.utilization": ("ratio", _ratio(
        lambda t: sum(_unit_samples(t)),
        lambda t: _count(t, "schedule.wall_s") * _count(t, "schedule.n_jobs"),
        lambda t: len(_unit_samples(t)))),
    **{f"schedule.unit_s.{f}": ("s", _sample_sum(f"schedule.unit_s.{f}"))
       for f in UNIT_FAMILIES},
    "batch.cache.hit_ratio": ("ratio", _ratio(
        lambda t: _count(t, "batch.cache.hits"),
        lambda t: _count(t, "batch.cache.hits") + _count(t, "batch.cache.misses"),
        lambda t: int(_count(t, "batch.cache.hits") + _count(t, "batch.cache.misses")))),
    # Self time of the paper's algorithms and helpers (serial traced run).
    **{f"algorithms.{a}.self_s": ("s", _self_total(f"algorithms.{a}")) for a in ALGORITHMS},
    "fairness.weakly_fair_ranking.self_s": ("s", _self_total("fairness.weakly_fair_ranking")),
    "utils.bootstrap.self_s": ("s", _self_total("utils.bootstrap")),
    # repro.analysis: the lint dev loop.
    "analysis.import_s": ("s", _sample_p50("analysis.import_s")),
    "analysis.lint_s": ("s", _span_p50("analysis.lint_paths", 1.0)),
    "analysis.summary_misses": ("count", _counter("analysis.summary_misses")),
    "analysis.project_recomputed": ("count", _counter("analysis.project_recomputed")),
    "analysis.project_reused": ("count", _counter("analysis.project_reused")),
    # Package root: what every fresh process pays before doing anything.
    "process.import_s": ("s", _sample_p50("process.import_s")),
    # Tracing itself: spans recorded, the cost of one, and the traced run's
    # own end-to-end medians (a noise check, see summarize.py).
    "trace.spans": ("count", lambda t: (float(len(t["spans"])), len(t["spans"]))),
    "trace.span_us": ("us", _counter("trace.span_us")),
    "trace.p50_ms.low": ("ms", _counter("trace.p50_ms.low")),
    "trace.p50_ms.high": ("ms", _counter("trace.p50_ms.high")),
}


def derive(trace: dict) -> dict[str, tuple[float, str, int]]:
    """``{metric: (value, unit, base)}`` for every per-layer metric."""
    out = {}
    for name, (unit, fn) in METRICS.items():
        value, base = fn(trace)
        out[name] = (float(value), unit, int(base))
    return out
