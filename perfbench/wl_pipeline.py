"""``pipeline-full``: the paper's reproduction as a reader runs it.

Each sample is one fresh process (``pipeline_child.py``) that imports the
package, warms a two-worker pool, runs ``run_all(fast=False, n_jobs=2)``
(4 German Credit panels x 10 sizes x 15 repeats x 1000 bootstrap, plus
Figs. 1-4 and Table I) and then the ``fast=True`` pass three times.  It loads
the algorithms, fairness, mallows, batch kernels and the schedule
fan-out, and never touches ``serve`` or ``net``.  Processes repeat until
``--seconds`` have passed, and at least four run.

Latency metrics map onto the two variants a reader runs: ``high`` is the
full protocol (``repro all``), ``low`` the fast pass (``repro all
--fast``).  The gate pins both report digests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from benchlib import (
    BenchError,
    Children,
    fresh_import_s,
    median,
    metric,
    peak_child_rss_mb,
    read_line,
    tail_summary,
)

#: ``reports_digest(run_all(fast=False))`` and ``(fast=True)``: the
#: byte-equality contract of the pipeline, for every ``n_jobs``.
FULL_DIGEST = "e5674af517559d0546feb610d7cdc519b05befdd5d1afce04a1eb5d95339c813"
FAST_DIGEST = "c4c32696e51472fb4d23312fd4f845d325c53533bb62c28fb4fbc6871824eb0e"

#: Full-protocol samples per run, however slow the host: the median of four
#: is the mean of the middle two, steadier than the median of three.
MIN_PROCESSES = 4

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pipeline_child.py")


def spawn(children: Children, work: str, mode: str, *args: str) -> tuple[subprocess.Popen, float]:
    """Start one child; returns it once READY, with its spawn-to-ready time."""
    t0 = time.perf_counter()
    with open(os.path.join(work, "pipeline.log"), "ab") as log:
        proc = children.popen([sys.executable, CHILD, mode, *args],
                              stdout=subprocess.PIPE, stderr=log)
    read_line(proc, lambda line: line.strip() == "READY", 120.0,
              "the pipeline process did not become ready")
    return proc, time.perf_counter() - t0


def finish(children: Children, proc: subprocess.Popen, work: str,
           timeout: float = 170.0) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        children.stop(proc)
        raise BenchError("the pipeline process did not finish")
    if proc.returncode != 0:
        with open(os.path.join(work, "pipeline.log"), encoding="utf-8") as log:
            tail = log.read()[-1500:]
        raise BenchError(f"the pipeline process exited with {proc.returncode}:\n{tail}")
    return out.decode()


def run(seed: int, seconds: int, work: str) -> tuple:
    del seed  # the paper's protocol is pinned; there is nothing to draw
    children = Children()
    setups, full_s, fast_s = [], [], []
    good = attempted = 0
    t_start = time.perf_counter()
    try:
        while time.perf_counter() - t_start < seconds or len(full_s) < MIN_PROCESSES:
            proc, setup = spawn(children, work, "run")
            setups.append(setup)
            record = json.loads(finish(children, proc, work).strip().splitlines()[-1])
            attempted += 1 + len(record["fast"])
            good += (record["full"] == FULL_DIGEST) + record["fast"].count(FAST_DIGEST)
            full_s.append(record["full_s"])
            fast_s.extend(record["fast_s"])
        rss = peak_child_rss_mb()
    finally:
        children.stop_all()

    full_ms = [1e3 * s for s in full_s]
    fast_ms = [1e3 * s for s in fast_s]
    s_low, s_high = tail_summary(fast_ms), tail_summary(full_ms)
    wall = sum(full_s) + sum(fast_s)
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "p50_ms.low": metric(s_low["p50"], "ms"),
        "p50_ms.high": metric(s_high["p50"], "ms"),
        "max_rate_rps": metric((len(full_s) + len(fast_s)) / wall, "1/s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    detail = {
        "workload": "pipeline-full", "n_jobs": 2, "processes": len(full_s),
        "setup_s": setups, "full_s": full_s, "fast_s": fast_s,
        "tail_low": s_low, "tail_high": s_high,
        "gate": {"ok": good == attempted, "runs": attempted, "digest_ok": good},
    }
    return good == attempted, attempted, attempted - good, metrics, detail


def run_traced(seed: int, seconds: int, work: str, tracer) -> dict:
    del seed, seconds
    children = Children()
    path = os.path.join(work, "pipeline-trace.json")
    try:
        tracer.samples["process.import_s"].extend(fresh_import_s(children, "repro.cli"))
        proc, _ = spawn(children, work, "trace", path)
        finish(children, proc, work)
    finally:
        children.stop_all()
    with open(path, encoding="utf-8") as fh:
        child = json.load(fh)
    tracer.merge(child)
    digests = child["digests"]
    wrong = [name for name, want in (("full", FULL_DIGEST), ("serial", FULL_DIGEST),
                                     ("fast", FAST_DIGEST)) if digests[name] != want]
    return {"gate": {"ok": not wrong, "wrong_digests": wrong},
            "attempted": len(digests), "failed": len(wrong)}
