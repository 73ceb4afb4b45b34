"""``lint-edit``: the incremental ``repro lint`` dev loop.

On a private copy of ``src/`` (in the run's scratch directory, with the
cache file beside the copy rather than in it), set-up is a cold ``repro
lint`` that builds the cache, done three times.  Then edits alternate
between a leaf module (``low``: few modules depend on it) and a hub
module (``high``: ``repro/engine/core.py``); each appends one comment and
times the re-lint in a fresh process, until ``--seconds`` have passed.
This is the only workload that runs ``repro.analysis``; it never imports
the serving stack or runs an experiment.

Gate: every lint exits 0; the cold findings equal a ``--no-cache`` lint
of the tree before the first edit, and the last edited findings equal one
of the edited tree.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

from benchlib import (
    SRC,
    BenchError,
    Children,
    fresh_import_s,
    median,
    metric,
    peak_child_rss_mb,
    tail_summary,
    use_program_imports,
)

#: Edited modules: a leaf (two modules re-analysed at project level after
#: an edit) and a hub (sixteen), relative to the copied tree.
LEAF = "repro/experiments/frontier.py"
HUB = "repro/engine/core.py"


def _lint_argv(tree: str, *flags: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", "lint", tree, "--format", "json", *flags]


def _findings(stdout: bytes, tree: str) -> dict | None:
    """The JSON report with the tree's own name stripped from paths, so
    reports of two copies compare equal (``None`` if there is no report)."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    for finding in report.get("findings", []):
        finding["path"] = os.path.relpath(finding["path"], tree)
    return report


class LintTree:
    """A private copy of ``src/`` and its cache file."""

    def __init__(self, children: Children, work: str, name: str):
        self.children = children
        self.work = work
        self.tree = name
        self.cache = os.path.join(work, f"{name}.lint-cache.json")
        shutil.copytree(os.path.join(SRC, "repro"), os.path.join(work, name, "repro"),
                        ignore=shutil.ignore_patterns("__pycache__"))

    def lint(self, *flags: str) -> tuple[float, int, dict | None]:
        """One cached lint in a fresh process: (wall, exit code, report)."""
        rc, out, wall = self.children.run(
            _lint_argv(self.tree, "--cache-file", self.cache, *flags), cwd=self.work)
        return wall, rc, _findings(out, self.tree)

    def cold(self) -> tuple[float, int, dict | None]:
        if os.path.exists(self.cache):
            os.remove(self.cache)
        return self.lint()

    def edit(self, module: str, note: str) -> None:
        with open(os.path.join(self.work, self.tree, module), "a", encoding="utf-8") as fh:
            fh.write(f"# {note}\n")

    def no_cache(self) -> subprocess.Popen:
        return self.children.popen(_lint_argv(self.tree, "--no-cache"), cwd=self.work,
                                   stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)


def _collect(proc: subprocess.Popen, tree: str) -> tuple[int, dict | None]:
    try:
        out, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        raise BenchError("repro lint --no-cache did not finish")
    return proc.returncode, _findings(out, tree)


def run(seed: int, seconds: int, work: str) -> tuple:
    children = Children()
    tree = LintTree(children, work, "tree")
    setups, low_s, high_s, exits = [], [], [], []
    try:
        for _ in range(3):
            wall, rc, cold = tree.cold()
            setups.append(wall)
            exits.append(rc)
        rc, ref_cold = _collect(tree.no_cache(), tree.tree)
        exits.append(rc)
        last = cold
        t_start = time.perf_counter()
        i = 0
        while time.perf_counter() - t_start < seconds or len(high_s) < 1:
            module, samples = (LEAF, low_s) if i % 2 == 0 else (HUB, high_s)
            tree.edit(module, f"perfbench edit seed={seed} n={i}")
            wall, rc, last = tree.lint()
            samples.append(wall)
            exits.append(rc)
            i += 1
        rss = peak_child_rss_mb()
        rc, ref_edited = _collect(tree.no_cache(), tree.tree)
        exits.append(rc)
    finally:
        children.stop_all()

    nonzero = sum(rc != 0 for rc in exits)
    gate = {"nonzero_exits": nonzero,
            "cold_equal": cold is not None and cold == ref_cold,
            "edited_equal": last is not None and last == ref_edited}
    ok = nonzero == 0 and gate["cold_equal"] and gate["edited_equal"]
    s_low = tail_summary([1e3 * s for s in low_s])
    s_high = tail_summary([1e3 * s for s in high_s])
    attempted = len(exits)
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "p50_ms.low": metric(s_low["p50"], "ms"),
        "p50_ms.high": metric(s_high["p50"], "ms"),
        "max_rate_rps": metric((len(low_s) + len(high_s)) / (sum(low_s) + sum(high_s)), "1/s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    detail = {"workload": "lint-edit", "seed": seed, "leaf": LEAF, "hub": HUB,
              "setup_s": setups, "low_s": low_s, "high_s": high_s,
              "tail_low": s_low, "tail_high": s_high, "gate": gate}
    failed = nonzero + (not gate["cold_equal"]) + (not gate["edited_equal"])
    return ok, attempted, failed, metrics, detail


def run_traced(seed: int, seconds: int, work: str, tracer) -> dict:
    children = Children()
    tree = LintTree(children, work, "tree")
    stats_file = os.path.join(work, "cache-stats.json")
    try:
        tracer.samples["process.import_s"].extend(fresh_import_s(children, "repro.cli"))
        tracer.samples["analysis.import_s"].extend(fresh_import_s(children, "repro.analysis"))
        with tracer.span("analysis.cold_lint"):
            exits = [tree.cold()[1]]
        for i, (module, key) in enumerate(((LEAF, "low"), (HUB, "high"))):
            tree.edit(module, f"perfbench trace seed={seed} n={i}")
            with tracer.span(f"analysis.relint.{key}"):
                wall, rc, last = tree.lint("--cache-stats", stats_file)
            exits.append(rc)
            tracer.counters[f"trace.p50_ms.{key}"] = 1e3 * wall
        with open(stats_file, encoding="utf-8") as fh:
            stats = json.load(fh)  # of the hub edit
        rc, reference = _collect(tree.no_cache(), tree.tree)
        exits.append(rc)
    finally:
        children.stop_all()
    for key in ("summary_misses", "project_recomputed", "project_reused"):
        tracer.counters[f"analysis.{key}"] = stats[key]

    # The same re-lint in process, with a warm cache: the lint work alone.
    use_program_imports()
    from repro.analysis import DEFAULT_CONFIG, LintCache, LintEngine

    cwd = os.getcwd()
    os.chdir(work)
    try:
        for i in range(3):
            tree.edit(HUB, f"perfbench trace seed={seed} in-process n={i}")
            cache = LintCache(tree.cache, DEFAULT_CONFIG)
            with tracer.span("analysis.lint_paths", rid=i):
                LintEngine(DEFAULT_CONFIG).lint_paths([tree.tree], cache=cache)
            cache.save()
    finally:
        os.chdir(cwd)
    del seconds
    equal = last is not None and last == reference
    nonzero = sum(rc != 0 for rc in exits)
    return {"cache_stats": stats,
            "gate": {"ok": equal and not nonzero, "exits": exits, "edited_equal": equal},
            "attempted": len(exits), "failed": nonzero + (not equal)}
