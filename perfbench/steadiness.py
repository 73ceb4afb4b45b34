"""Steadiness report: run workloads repeatedly and show each metric's spread.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10] [--seed0 1]
                                    [--seconds S] [--traced N]

Runs ``perfbench/run.py`` once per seed (``seed0 .. seed0 + runs - 1``) on
each workload, then prints, for every end-to-end metric, the median,
quartiles and relative spread ``(q3 - q1) / median`` next to the metric's
bound from ``BENCHMARK.json`` (a spread under a third of the bound is
steady).  With ``--traced N`` it also makes N traced runs per workload and
prints the per-layer summary, the tracing overhead and the seed
predictions (see ``summarize.py``).

Every run is recorded, with the host facts (nproc, Python/NumPy/SciPy
versions) and each run's seed, rates, server ``n_jobs``, generator
lateness and the share of host CPU stolen by other guests, in
``.perfbench-out/steadiness-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from benchlib import OUT_DIR, ROOT, nproc, quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def host_facts() -> dict:
    facts = {"nproc": nproc(), "python": platform.python_version(),
             "machine": platform.machine()}
    code = "import numpy, scipy; print(numpy.__version__, scipy.__version__)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    if out.returncode == 0:
        facts["numpy"], facts["scipy"] = out.stdout.split()
    return facts


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in a fresh process; returns its parsed output."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace,
              "exit": proc.returncode, "wall_s": wall}
    if proc.returncode != 0 or not lines:
        record["error"] = proc.stderr[-2000:]
        return record
    record["result"] = json.loads(lines[-1])
    if len(lines) > 1 and lines[-2].startswith('{"detail"'):
        record["detail"] = json.loads(lines[-2])["detail"]
    return record


def spread_table(records: list[dict], metrics: list[dict]) -> list[dict]:
    rows = []
    for spec in metrics:
        values = [r["result"]["metrics"][spec["name"]]["value"]
                  for r in records if "result" in r
                  and spec["name"] in r["result"]["metrics"]]
        if len(values) < 2:
            continue
        row = {"metric": spec["name"], "unit": spec["unit"], "n": len(values),
               **quartile_spread(values)}
        if "bound" in spec:
            row["bound"] = spec["bound"]
            row["steady"] = row["spread"] < spec["bound"] / 3.0
        rows.append(row)
    return rows


def print_table(workload: str, rows: list[dict]) -> None:
    print(f"\n== {workload}")
    print(f"{'metric':<22}{'unit':>7}{'n':>4}{'median':>13}{'q1':>13}{'q3':>13}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for r in rows:
        verdict = "" if "bound" not in r else ("steady" if r["steady"] else "UNSTEADY")
        bound = f"{r['bound']:>7.2f}" if "bound" in r else " " * 7
        print(f"{r['metric']:<22}{r['unit']:>7}{r['n']:>4}{r['median']:>13.4f}"
              f"{r['q1']:>13.4f}{r['q3']:>13.4f}{r['spread']:>9.4f}{bound}  {verdict}")


def main(argv: list[str] | None = None) -> int:
    sys.stdout.reconfigure(line_buffering=True)  # progress shows while it runs
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args(argv)

    record = {"host": host_facts(), "seconds": args.seconds, "workloads": {}}
    failures = 0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.seed0 + i, args.seconds, 0) for i in range(args.runs)]
        traced = [run_once(workload, args.seed0 + i, args.seconds, 1)
                  for i in range(args.traced)]
        bad = [r for r in runs + traced
               if r["exit"] != 0 or not r["result"]["correct"] or r["result"]["failed"]]
        failures += len(bad)
        rows = spread_table(runs, bench["end_to_end"])
        print_table(workload, rows)
        for r in bad:
            print(f"  FAILED run seed={r['seed']} trace={r['trace']}: "
                  f"{r.get('error') or r['result']}")
        lateness = [d.get(p, {}).get("max_lateness_ms") for r in runs
                    if (d := r.get("detail")) for p in ("low", "high")]
        lateness = [x for x in lateness if x is not None]
        if lateness:
            print(f"  generator lateness: max {max(lateness):.2f} ms over {len(runs)} runs")
        print(f"  run wall: {min(r['wall_s'] for r in runs):.1f}-"
              f"{max(r['wall_s'] for r in runs):.1f} s")
        steal = [d["steal_share"] for r in runs
                 if (d := r.get("detail")) and d.get("steal_share") is not None]
        if steal:
            print(f"  host CPU stolen by other guests: {100 * min(steal):.1f}-"
                  f"{100 * max(steal):.1f}% per run")
        entry = {"runs": runs, "traced": traced, "spread": rows}
        if traced:
            import summarize

            entry["summary"] = summarize.report(
                [json.load(open(r["detail"]["trace_file"], encoding="utf-8"))
                 for r in traced if "detail" in r],
                [r["result"] for r in runs if "result" in r],
            )
        record["workloads"][workload] = entry
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"\nrecorded {path} (host: {record['host']})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
