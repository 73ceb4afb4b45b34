"""Shared plumbing for the benchmark: the checkout layout, child-process
lifetime, summary statistics and the one-line result record.

Every workload runs the program from the checkout's ``src/`` tree, either
in fresh processes (``python -m repro.cli ...``) or by importing its
public API into the benchmark process.  Nothing here reaches inside
``src/``.
"""

from __future__ import annotations

import json
import math
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable

#: The benchmark runs from the root of a checkout.
ROOT = os.path.abspath(os.getcwd())
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (git-ignored); each run removes its own.
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
#: Trace files and steadiness records land here (git-ignored).
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


class BenchError(RuntimeError):
    """A run that cannot produce a result (setup failed, program missing)."""


def require_checkout() -> None:
    """Fail fast when the working directory holds no program to measure."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(
            f"no src/repro package under {ROOT}: run the benchmark from the "
            "root of a repository checkout"
        )


def use_program_imports() -> None:
    """Make ``import repro`` resolve to the checkout's source tree."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def program_env() -> dict[str, str]:
    """Environment for program child processes: the checkout's ``src`` on
    ``PYTHONPATH`` and no fault-injection plan inherited from the caller."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_INJECT_FAULT", None)
    return env


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def cpu_jiffies() -> tuple[int, int] | None:
    """(all, stolen) CPU time of the host so far, from ``/proc/stat``;
    stolen time is what the hypervisor gave to other guests."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields[:8]), fields[7] if len(fields) > 7 else 0


def steal_share(before: tuple[int, int] | None) -> float | None:
    """Share of CPU time stolen from this machine since ``before``."""
    after = cpu_jiffies()
    if before is None or after is None or after[0] <= before[0]:
        return None
    return (after[1] - before[1]) / (after[0] - before[0])


def make_work_dir() -> str:
    path = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_work_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)  # only succeeds when no other run is using it
    except OSError:
        pass


class Children:
    """Every process a run starts, so all are stopped and reaped on exit."""

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []

    def popen(self, argv: list[str], **kwargs) -> subprocess.Popen:
        kwargs.setdefault("env", program_env())
        proc = subprocess.Popen(argv, **kwargs)
        self._procs.append(proc)
        return proc

    def run(self, argv: list[str], *, timeout: float = 120.0, **kwargs):
        """Run a child to completion; returns ``(returncode, stdout, wall_s)``."""
        kwargs.setdefault("stdout", subprocess.PIPE)
        kwargs.setdefault("stderr", subprocess.DEVNULL)
        t0 = time.perf_counter()
        proc = self.popen(argv, **kwargs)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop(proc)
            raise BenchError(f"{argv[:4]} did not finish within {timeout:.0f}s")
        return proc.returncode, out, time.perf_counter() - t0

    def stop(self, proc: subprocess.Popen, *, grace: float = 20.0) -> None:
        """SIGTERM (a server drains), then SIGKILL if it will not exit."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for stream in (proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()

    def stop_all(self) -> None:
        for proc in self._procs:
            self.stop(proc)
        self._procs.clear()


def read_line(proc: subprocess.Popen, match: Callable[[str], bool],
              timeout: float, what: str) -> str:
    """The first line of ``proc``'s stdout that ``match`` accepts, read
    without blocking past ``timeout`` seconds; ``BenchError`` otherwise."""
    stdout = proc.stdout
    deadline = time.perf_counter() + timeout
    while stdout is not None and time.perf_counter() < deadline:
        ready, _, _ = select.select([stdout], [], [], 0.5)
        if ready:
            line = stdout.readline().decode()
            if not line:
                break
            if match(line):
                return line.strip()
    raise BenchError(f"{what} within {timeout:.0f}s")


def peak_child_rss_mb() -> float:
    """Largest peak RSS of any reaped descendant (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def fresh_import_s(children: Children, module: str, repeats: int = 3) -> list[float]:
    """Wall seconds of ``import module`` in fresh interpreters, timed inside
    the child so interpreter start-up is excluded."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(repeats):
        rc, out, _ = children.run([sys.executable, "-c", code])
        if rc != 0:
            raise BenchError(f"import {module} failed in a fresh process")
        samples.append(float(out.decode().strip().splitlines()[-1]))
    return samples


# -- statistics --------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def tail_summary(latencies_ms, misses: int = 0) -> dict:
    """Median and tail of one phase's latencies.

    The tail is the highest percentile with at least ten samples beyond
    it; a phase with fewer than eleven samples reports its slowest one
    (p100, nothing beyond).  Refused and failed requests count as misses
    of any limit: they sort above every served latency.
    """
    values = sorted(float(v) for v in latencies_ms) + [math.inf] * misses
    n = len(values)
    if n == 0:
        return {"p50": math.inf, "tail": math.inf, "tail_pct": 100.0,
                "beyond": 0, "n": 0}
    k = n - 11 if n >= 11 else n - 1
    return {
        "p50": float(statistics.median(values)),
        "tail": values[k],
        "tail_pct": 100.0 * (k + 1) / n,
        "beyond": n - 1 - k,
        "n": n,
    }


def quartile_spread(values) -> dict:
    """Median, quartiles and (q3 - q1) / median, as the acceptance rule
    computes them (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else math.inf,
    }


# -- the result record -------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit_result(correct: bool, attempted: int, failed: int, metrics: dict,
                detail: dict | None = None) -> None:
    """Print the detail record, then the result object as the last line."""
    for name, entry in metrics.items():
        if not math.isfinite(entry["value"]):
            raise BenchError(f"metric {name} has no finite value")
    if detail is not None:
        print(json.dumps({"detail": detail}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)
