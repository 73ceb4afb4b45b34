"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the program in ``src/``.
With ``--trace 0`` it measures the workload's end-to-end metrics with no
tracing and runs its correctness gate; with ``--trace 1`` it runs the
traced variant, writes the span file under ``.perfbench-out/`` and
reports the per-layer metrics of ``layers.py``.
The last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A run whose gate fails reports ``correct: false`` and counts the failure;
a run that cannot measure at all exits non-zero without a result.
See ``perfbench/README.md`` for what each workload exercises.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import traceback

import benchlib
from benchlib import BenchError, emit_result, metric

WORKLOADS = ("pipeline-full", "serve-heavy", "lint-edit")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _module(workload: str):
    if workload == "pipeline-full":
        import wl_pipeline
        return wl_pipeline
    if workload == "lint-edit":
        import wl_lint
        return wl_lint
    import wl_serve
    return wl_serve


def measure(args: argparse.Namespace, work: str) -> None:
    start = benchlib.cpu_jiffies()
    correct, attempted, failed, metrics, detail = _module(args.workload).run(
        args.seed, args.seconds, work)
    # How much of the host's CPU other guests took while this run measured.
    detail["steal_share"] = benchlib.steal_share(start)
    emit_result(correct, attempted, failed, metrics, detail)


def trace(args: argparse.Namespace, work: str) -> None:
    import layers
    from spans import Tracer

    tracer = Tracer()
    detail = _module(args.workload).run_traced(args.seed, args.seconds, work, tracer)
    tracer.counters["trace.span_us"] = 1e6 * Tracer.span_cost_s()
    path = os.path.join(benchlib.OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    os.makedirs(benchlib.OUT_DIR, exist_ok=True)
    tracer.dump(path, workload=args.workload, seed=args.seed, detail=detail)
    derived = layers.derive(tracer.as_dict())
    emit_result(
        detail["gate"]["ok"], detail["attempted"], detail["failed"],
        {name: metric(value, unit) for name, (value, unit, _) in derived.items()},
        {"trace_file": path, **detail},
    )


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # A terminated run still stops and reaps its children (the finally
    # blocks run on SystemExit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        benchlib.require_checkout()
        benchlib.use_program_imports()
        work = benchlib.make_work_dir()
        try:
            (trace if args.trace else measure)(args, work)
        finally:
            benchlib.remove_work_dir(work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
