"""Tests for :mod:`repro.analysis.cache` — the incremental lint cache.

The contract under test: the cache is a pure accelerator.  A warm run
must be byte-identical to a cold run (and to a run with no cache at
all), edits must invalidate transitively through the module dependency
graph, and a damaged or mismatched cache file must degrade to a cold
run, never to a stale answer.
"""

import dataclasses
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    DEFAULT_CONFIG,
    LintCache,
    LintEngine,
    lint_paths,
    render_json,
)
from repro.analysis.cache import config_fingerprint

#: File count of the synthetic tree below (4 __init__ + 3 modules).
TREE_FILES = 7


def make_tree(root):
    """A small cross-module project with real findings:

    * ``repro.utils.helpers.stamp`` reads the clock directly (REP002);
    * ``repro.serve.core.tick`` reaches it transitively (REP009, with a
      witness chain crossing the module boundary);
    * ``repro.fairness.checks`` is clean and depends on nothing.
    """
    pkg = root / "repro"
    for sub in ("serve", "utils", "fairness"):
        (pkg / sub).mkdir(parents=True)
    for d in (pkg, pkg / "serve", pkg / "utils", pkg / "fairness"):
        (d / "__init__.py").write_text("")
    (pkg / "utils" / "helpers.py").write_text(
        "import time\n"
        "\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n"
    )
    (pkg / "serve" / "core.py").write_text(
        "from repro.utils.helpers import stamp\n"
        "\n"
        "\n"
        "def tick():\n"
        "    return stamp()\n"
    )
    (pkg / "fairness" / "checks.py").write_text(
        "def score(xs):\n"
        "    return sum(xs)\n"
    )
    return pkg


class TestIncrementalCache:
    def test_warm_run_is_byte_identical_and_all_hits(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache_path = str(tmp_path / "cache.json")

        uncached = render_json(lint_paths([str(pkg)]))
        assert '"REP009"' in uncached and '"witness"' in uncached

        cold_cache = LintCache(cache_path, DEFAULT_CONFIG)
        cold = render_json(lint_paths([str(pkg)], cache=cold_cache))
        cold_cache.save()
        assert cold_cache.stats.as_dict() == {
            "summary_hits": 0,
            "summary_misses": TREE_FILES,
            "project_reused": 0,
            "project_recomputed": TREE_FILES,
        }

        warm_cache = LintCache(cache_path, DEFAULT_CONFIG)
        warm = render_json(lint_paths([str(pkg)], cache=warm_cache))
        assert warm_cache.stats.as_dict() == {
            "summary_hits": TREE_FILES,
            "summary_misses": 0,
            "project_reused": TREE_FILES,
            "project_recomputed": 0,
        }
        assert cold == uncached
        assert warm == uncached

    def test_edit_invalidates_transitively(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache_path = str(tmp_path / "cache.json")
        cache = LintCache(cache_path, DEFAULT_CONFIG)
        before = render_json(lint_paths([str(pkg)], cache=cache))
        cache.save()

        # A comment-only edit: new content hash, same findings.
        helpers = pkg / "utils" / "helpers.py"
        helpers.write_text(helpers.read_text() + "\n# touched\n")

        cache = LintCache(cache_path, DEFAULT_CONFIG)
        after = render_json(lint_paths([str(pkg)], cache=cache))
        # Exactly one summary re-parsed; exactly the edited module plus
        # its dependents (repro.serve.core imports it) recomputed — the
        # unrelated modules reuse their stored transitive findings.
        assert cache.stats.as_dict() == {
            "summary_hits": TREE_FILES - 1,
            "summary_misses": 1,
            "project_reused": TREE_FILES - 2,
            "project_recomputed": 2,
        }
        assert after == before

    def test_other_spelling_of_the_same_tree_gets_the_cold_answer(
        self, tmp_path
    ):
        """One cache file, two spellings of the same directory (``pkg``
        and ``pkg/serve/..``): findings name the path as given, and the
        project findings land on their files under either spelling."""
        pkg = make_tree(tmp_path)
        (pkg / "serve" / "core.py").write_text(
            (pkg / "serve" / "core.py").read_text().replace(
                "return stamp()", "return stamp()  # repro: noqa[REP009] demo"
            )
        )
        other = os.path.join(str(pkg), "serve", "..")
        cache_path = str(tmp_path / "cache.json")
        for first, second in ((str(pkg), other), (other, str(pkg))):
            if os.path.exists(cache_path):
                os.remove(cache_path)
            cache = LintCache(cache_path, DEFAULT_CONFIG)
            lint_paths([first], cache=cache)
            cache.save()
            warm = render_json(
                lint_paths([second], cache=LintCache(cache_path, DEFAULT_CONFIG))
            )
            assert warm == render_json(lint_paths([second]))
            assert '"REP000"' not in warm  # the noqa still finds its REP009

    def test_one_cache_serves_every_rule_selection(self, tmp_path):
        # select/ignore are excluded from the fingerprint on purpose:
        # summaries store findings for every rule, the engine filters.
        pkg = make_tree(tmp_path)
        cache_path = str(tmp_path / "cache.json")
        cache = LintCache(cache_path, DEFAULT_CONFIG)
        lint_paths([str(pkg)], cache=cache)
        cache.save()

        narrowed = DEFAULT_CONFIG.with_rules(select=("REP002",))
        assert config_fingerprint(narrowed) == config_fingerprint(
            DEFAULT_CONFIG
        )
        cache = LintCache(cache_path, narrowed)
        result = LintEngine(narrowed).lint_paths([str(pkg)], cache=cache)
        assert cache.stats.summary_hits == TREE_FILES
        assert {f.rule for f in result.active} == {"REP002"}

    def test_scope_change_fences_the_whole_cache(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache_path = str(tmp_path / "cache.json")
        cache = LintCache(cache_path, DEFAULT_CONFIG)
        lint_paths([str(pkg)], cache=cache)
        cache.save()

        rescoped = dataclasses.replace(
            DEFAULT_CONFIG, clock_free_modules=("repro.serve",)
        )
        assert config_fingerprint(rescoped) != config_fingerprint(
            DEFAULT_CONFIG
        )
        cache = LintCache(cache_path, rescoped)
        LintEngine(rescoped).lint_paths([str(pkg)], cache=cache)
        assert cache.stats.summary_hits == 0
        assert cache.stats.summary_misses == TREE_FILES

    def test_corrupt_cache_degrades_to_cold_run(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json at all")

        cache = LintCache(str(cache_path), DEFAULT_CONFIG)
        result = render_json(lint_paths([str(pkg)], cache=cache))
        assert result == render_json(lint_paths([str(pkg)]))
        cache.save()  # rewrites a valid file ...
        json.loads(cache_path.read_text())
        cache = LintCache(str(cache_path), DEFAULT_CONFIG)
        lint_paths([str(pkg)], cache=cache)
        assert cache.stats.summary_hits == TREE_FILES  # ... that warms up

    def test_cache_file_is_byte_deterministic(self, tmp_path):
        pkg = make_tree(tmp_path)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        for path in (first, second):
            cache = LintCache(str(path), DEFAULT_CONFIG)
            lint_paths([str(pkg)], cache=cache)
            cache.save()
        assert first.read_text() == second.read_text()


# ---------------------------------------------------------------------------
# Property: caching never changes the answer
# ---------------------------------------------------------------------------

#: Body shapes the generator composes functions from: a clock read, a
#: pure return, an unordered iteration, and a call to the previous
#: function (which is what builds transitive chains of random depth).
_BODY_KINDS = 4


def _render_module(kinds):
    lines = ["import time", ""]
    for i, kind in enumerate(kinds):
        lines.append(f"def f{i}():")
        if kind == 0:
            lines.append("    return time.time()")
        elif kind == 1:
            lines.append("    return 1")
        elif kind == 2:
            lines.append("    for x in set(range(3)):")
            lines.append("        pass")
            lines.append("    return x")
        elif i > 0:
            lines.append(f"    return f{i - 1}()")
        else:
            lines.append("    return 0")
    return "\n".join(lines) + "\n"


class TestCachePropertyBased:
    @given(
        kinds=st.lists(
            st.integers(min_value=0, max_value=_BODY_KINDS - 1),
            min_size=1,
            max_size=6,
        )
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_cached_and_uncached_findings_json_agree(self, kinds):
        source = _render_module(kinds)
        with tempfile.TemporaryDirectory() as td:
            serve = os.path.join(td, "repro", "serve")
            os.makedirs(serve)
            for package in (os.path.join(td, "repro"), serve):
                with open(
                    os.path.join(package, "__init__.py"), "w"
                ) as fh:
                    fh.write("")
            with open(os.path.join(serve, "core.py"), "w") as fh:
                fh.write(source)
            target = os.path.join(td, "repro")
            cache_path = os.path.join(td, "cache.json")

            uncached = render_json(lint_paths([target]))
            cache = LintCache(cache_path, DEFAULT_CONFIG)
            cold = render_json(lint_paths([target], cache=cache))
            cache.save()
            cache = LintCache(cache_path, DEFAULT_CONFIG)
            warm = render_json(lint_paths([target], cache=cache))

            assert cold == uncached
            assert warm == uncached
