"""One fresh process of the ``pipeline-full`` workload.

Run as ``python pipeline_child.py MODE [TRACE_FILE]`` with the checkout's
``src`` on ``PYTHONPATH``.  It imports the package, warms a two-worker
pool and prints ``READY`` (the parent times spawn-to-ready as set-up),
then:

* ``MODE=run``: ``run_all(fast=False, n_jobs=2)`` (the paper's full
  protocol), then ``run_all(fast=True, n_jobs=2)`` ``FAST_PASSES`` times,
  each with a fresh cost table; prints one JSON line with wall times and
  digests.
* ``MODE=trace``: the same full run, recording every unit's wall-time
  through ``run_all``'s ``costs`` hook; one fast run; then the full
  protocol again at ``n_jobs=1`` with the algorithms, the weakly fair
  construction, the bootstrap and the sampler wrapped where the
  experiment modules bind them.  Writes the spans to TRACE_FILE.
"""

from __future__ import annotations

import json
import sys
import time

from repro.batch import shutdown_workers
from repro.engine import RankingEngine
from repro.engine.costs import CostModel
from repro.experiments.runner import reports_digest, run_all

#: Fast passes after each full run: short samples, so more of them.
FAST_PASSES = 3


def main() -> int:
    mode = sys.argv[1]
    engine = RankingEngine(n_jobs=2).warm_up()
    print("READY", flush=True)
    try:
        if mode == "run":
            t0 = time.perf_counter()
            full = reports_digest(run_all(fast=False, n_jobs=2))
            full_s = time.perf_counter() - t0
            fast_s, fast = [], []
            for _ in range(FAST_PASSES):
                t0 = time.perf_counter()
                fast.append(reports_digest(run_all(fast=True, n_jobs=2, costs=CostModel())))
                fast_s.append(time.perf_counter() - t0)
            print(json.dumps({"full_s": full_s, "full": full,
                              "fast_s": fast_s, "fast": fast}), flush=True)
        else:
            trace(sys.argv[2])
    finally:
        engine.close()
        shutdown_workers()
    return 0


def trace(path: str) -> None:
    from repro.batch.cache import active_cache
    import repro.algorithms.mallows_postprocess as mallows_postprocess
    import repro.experiments.fig1_infeasible as fig1
    import repro.experiments.fig2_central_ii as fig2
    import repro.experiments.fig34_tradeoff as fig34
    import repro.experiments.german_credit_exp as gc
    from spans import Tracer

    tracer = Tracer()

    class RecordingCosts(CostModel):
        """The ``costs`` hook: run_all reports every unit's wall-time here."""

        def observe(self, kind, seconds):
            family = kind[0] if isinstance(kind, tuple) and kind else str(kind)
            tracer.samples[f"schedule.unit_s.{family}"].append(float(seconds))
            super().observe(kind, seconds)

    t0 = time.perf_counter()
    digests = {"full": reports_digest(run_all(fast=False, n_jobs=2, costs=RecordingCosts()))}
    tracer.counters["schedule.wall_s"] = time.perf_counter() - t0
    tracer.counters["schedule.n_jobs"] = 2
    tracer.counters["trace.p50_ms.high"] = 1e3 * tracer.counters["schedule.wall_s"]
    t0 = time.perf_counter()
    digests["fast"] = reports_digest(run_all(fast=True, n_jobs=2, costs=CostModel()))
    tracer.counters["trace.p50_ms.low"] = 1e3 * (time.perf_counter() - t0)

    make_algorithm = gc.make_algorithm

    def traced_make_algorithm(name, **params):
        algorithm = make_algorithm(name, **params)
        algorithm.rank = tracer.wrap(algorithm.rank, f"algorithms.{name}")
        return algorithm

    gc.make_algorithm = traced_make_algorithm
    tracer.patch(gc, "weakly_fair_ranking", "fairness.weakly_fair_ranking")
    for module in (fig1, fig2, fig34, gc):
        tracer.patch(module, "bootstrap_ci", "utils.bootstrap")
    tracer.patch(mallows_postprocess, "sample_mallows_batch", "mallows.sample_mallows_batch")

    before = active_cache().stats()
    digests["serial"] = reports_digest(run_all(fast=False, n_jobs=1, costs=CostModel()))
    after = active_cache().stats()
    tracer.counters["batch.cache.hits"] = after.hits - before.hits
    tracer.counters["batch.cache.misses"] = after.misses - before.misses
    tracer.dump(path, digests=digests)


if __name__ == "__main__":
    raise SystemExit(main())
