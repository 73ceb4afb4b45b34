"""Trace summarizer: every per-layer metric of a traced run, by name.

    python3 perfbench/summarize.py TRACE.json [TRACE.json ...] [--untraced RESULTS]

Reads span files written by ``run.py --trace 1`` and prints each per-layer
metric of ``layers.py`` with its unit and base count (the spans, samples
or operations it rests on); with several files of one workload, the
median across them.  The tracing overhead is the number of spans times
the measured cost of one span.  ``--untraced`` names a file of ``run.py
--trace 0`` result lines (one JSON object per line) of the same workload;
the traced runs' end-to-end medians are then set against the untraced
ones.  The traced run records no spans while its end-to-end phases run,
so that comparison shows run-to-run noise, not overhead.  It also checks
the seed predictions the benchmark was defined with, and says whether
each holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import layers

#: Predictions made before measuring, checked against the traced runs:
#: workload -> (text, test(layer medians, end-to-end medians) -> (holds, shown)).
PREDICTIONS = {
    "serve-heavy": (
        "engine.busy_share <= 0.5 (single-unit batches leave the 2nd worker idle)",
        lambda lay, e2e: (lay["engine.busy_share"] <= 0.5,
                          f"busy_share {lay['engine.busy_share']:.3f}"),
    ),
    "lint-edit": (
        "import repro.analysis takes more than half of the hub-edit re-lint",
        lambda lay, e2e: (lay["analysis.import_s"] > 0.5e-3 * e2e["p50_ms.high"],
                          f"{lay['analysis.import_s']:.3f} s of "
                          f"{1e-3 * e2e['p50_ms.high']:.3f} s"),
    ),
}

#: The traced run's own end-to-end counters and the metric each repeats.
NOISE_PAIRS = (("trace.p50_ms.low", "p50_ms.low"), ("trace.p50_ms.high", "p50_ms.high"))


def report(traces: list[dict], untraced: list[dict] | None = None,
           out=sys.stdout) -> dict:
    """Print the per-layer table (medians over ``traces``), the tracing
    overhead against ``untraced`` results, and the seed predictions."""
    derived = [layers.derive(t) for t in traces]
    workload = traces[0].get("workload", "?")
    print(f"per-layer metrics: {workload}, {len(traces)} traced run(s)", file=out)
    print(f"{'metric':<38}{'value':>14}  {'unit':<6}{'base':>8}", file=out)
    medians: dict[str, float] = {}
    for name in layers.METRICS:
        value = statistics.median(d[name][0] for d in derived)
        unit = derived[0][name][1]
        base = int(statistics.median(d[name][2] for d in derived))
        medians[name] = value
        print(f"{name:<38}{value:>14.6g}  {unit:<6}{base:>8}", file=out)

    summary: dict = {"workload": workload, "layers": medians}
    overhead_ms = 1e-3 * medians["trace.spans"] * medians["trace.span_us"]
    summary["overhead.span_ms"] = overhead_ms
    print(f"tracing overhead: {medians['trace.spans']:.0f} spans x "
          f"{medians['trace.span_us']:.2f} us = {overhead_ms:.3f} ms per traced run "
          "(an upper bound: spans rebuilt afterwards from the load generator's "
          "timestamps cost nothing while requests run)", file=out)
    e2e = {new: medians[old] for old, new in NOISE_PAIRS}  # traced fallback
    if untraced:
        print("noise check (no spans are recorded while the traced run's "
              "end-to-end phases run; traced median vs untraced median):", file=out)
        for traced_name, name in NOISE_PAIRS:
            base = statistics.median(r["metrics"][name]["value"] for r in untraced)
            e2e[name] = base
            traced_value = medians[traced_name]
            share = traced_value / base - 1.0 if base else float("nan")
            summary[f"noise.{name}"] = share
            print(f"  {name}: traced {traced_value:.3f} ms vs untraced {base:.3f} ms "
                  f"({100.0 * share:+.1f}%, {len(traces)} vs {len(untraced)} runs)",
                  file=out)
    if workload in PREDICTIONS:
        text, test = PREDICTIONS[workload]
        holds, shown = test(medians, e2e)
        verdict = "confirmed" if holds else "refuted"
        summary["prediction"] = {"text": text, "verdict": verdict, "shown": shown}
        print(f"prediction: {text}: {verdict} ({shown})", file=out)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traces", nargs="+")
    parser.add_argument("--untraced", default=None,
                        help="file of run.py --trace 0 result lines")
    args = parser.parse_args(argv)
    traces = []
    for path in args.traces:
        with open(path, encoding="utf-8") as fh:
            traces.append(json.load(fh))
    if len({t.get("workload") for t in traces}) != 1:
        parser.error("all trace files must come from one workload")
    untraced = None
    if args.untraced:
        with open(args.untraced, encoding="utf-8") as fh:
            untraced = [json.loads(line) for line in fh if line.strip().startswith('{"correct"')]
    report(traces, untraced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
