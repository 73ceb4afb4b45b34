"""Experiment-level work scheduler: one task graph, one shared pool.

The fan-out primitives of :mod:`repro.batch.parallel` parallelize *inside*
one experiment loop — a batch of Mallows rows, a run of trials.  Whole
pipelines (``run_all``) are made of many such loops plus work that fits
neither mode: seven figure experiments, four German Credit panels, a table.
Run one loop at a time and the pipeline scales with the *widest inner loop*,
not with the machine.  This module flattens the whole pipeline into a flat
graph of independent :class:`WorkUnit`\\ s — figure experiments, panels,
per-panel repeats, per-delta trial blocks — and interleaves all of them
through the one shared process pool.

Task-graph / seed-tree contract
-------------------------------
* A :class:`WorkUnit` is an independent job: a module-level callable ``fn``,
  an optional :class:`~numpy.random.SeedSequence`, a picklable ``payload``
  tuple, a hashable ``key`` and a ``weight`` (a relative cost estimate).
  Units never depend on each other — anything sequential (bootstrap
  aggregation, report rendering) stays in the caller, downstream of
  :func:`run_units`.
* ``fn`` is invoked as ``fn(seed, *payload)`` with the unit's
  ``SeedSequence`` (or ``None``).  Randomness must come only from
  generators derived from that seed, so the unit's output is a pure
  function of ``(fn, seed, payload)`` — the property that makes the
  schedule free to run units anywhere, in any order.
* The caller derives each unit's seed from its experiment's existing seed
  tree (the same ``SeedSequence`` children the serial loop would hand that
  piece of work).  Because child sequences are addressed by index, not by
  draw order, the flattening does not perturb any stream: byte-identical
  output for every ``n_jobs`` is inherited from the seed tree, not
  re-established per experiment.
* :func:`run_units` returns ``{unit.key: result}`` in *input order*,
  whatever order the pool finished in.  Keys must be unique per call.
  :func:`iter_units` is the streaming variant: it yields each
  :class:`CompletedUnit` (result plus measured compute wall-time) **as it
  finishes**, so a consumer can overlap aggregation or response delivery
  with the tail of the schedule — the as-completed mode the serving engine
  (:meth:`repro.engine.RankingEngine.rank_many`) is built on.
* Units are submitted heaviest-``weight``-first (longest-processing-time
  order), so a late long-running panel repeat cannot serialize the tail of
  the schedule.  Weights only shape the schedule, never the results.
* The pooled path is supervised (:mod:`repro.faults`): worker crashes
  rebuild the executor and resubmit the unserved units with their original
  seeds under a bounded :class:`~repro.faults.policy.RetryPolicy`, so one
  OOM-killed worker no longer aborts a whole pipeline — and because every
  unit is a pure function of ``(fn, seed, payload)``, recovery never
  changes a digest.
* The inner-loop primitives are themselves unit fan-outs: the row shards
  of ``mallows_sample_and_score`` and the trial shards of ``run_trials``
  are :class:`WorkUnit`\\ s run through :func:`run_units`, so they share
  this one supervised path and the per-``n_jobs`` pool.  Pool children
  are barred from nesting pools
  (:func:`~repro.batch.parallel.effective_n_jobs` forces ``n_jobs=1``
  inside workers) — a unit that internally calls ``run_trials`` or
  ``mallows_sample_and_score`` simply runs that part inline.

:class:`WorkerPool` is the shareable handle for all of this: experiment
configs carry one ``pool`` and every entry point schedules through it, so a
composite pipeline funnels every unit into the same executor instead of
each experiment spinning up its own fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator

import numpy as np

from repro.batch.parallel import _run_trials, effective_n_jobs
from repro.faults.policy import RetryPolicy
from repro.faults.supervisor import FaultCounters, run_timed, supervise_units


@dataclass(frozen=True)
class WorkUnit:
    """One independent job of a task graph (see the module docstring).

    Attributes
    ----------
    key:
        Hashable identity of the unit, unique within one schedule; results
        are returned keyed by it.
    fn:
        Module-level callable (pickled to the workers), invoked as
        ``fn(seed, *payload)``; its return value must be picklable.
    seed:
        The unit's private :class:`~numpy.random.SeedSequence` (or ``None``
        for deterministic units).  All of the unit's randomness must derive
        from it.
    payload:
        Extra positional arguments, pickled with the unit.
    weight:
        Relative cost estimate; heavier units are dispatched first.
    kind:
        Optional cost-class label shared by units expected to take similar
        time (e.g. ``("gc", size)`` for every German Credit repeat at one
        subsample size).  A :class:`repro.engine.costs.CostModel` keys its
        measured wall-times by it, turning the static ``weight`` guesses
        into learned dispatch weights.  ``None`` opts out of learning.
    """

    key: Hashable
    fn: Callable[..., Any]
    seed: np.random.SeedSequence | None = None
    payload: tuple[Any, ...] = ()
    weight: float = 1.0
    kind: Hashable | None = None


@dataclass(frozen=True)
class CompletedUnit:
    """One finished work unit, as yielded by :func:`iter_units`.

    ``seconds`` is the unit's measured compute wall-time — clocked inside
    the executing process around ``fn`` itself, so pool queueing and result
    pickling are excluded and the number is comparable between the inline
    and pooled paths.
    """

    key: Hashable
    result: Any
    seconds: float
    kind: Hashable | None = None


def _check_unique_keys(units: list[WorkUnit]) -> None:
    keys = [u.key for u in units]
    if len(set(keys)) != len(keys):
        seen: set[Hashable] = set()
        dup = next(k for k in keys if k in seen or seen.add(k))
        raise ValueError(f"duplicate work-unit key: {dup!r}")


def iter_units(
    units: Iterable[WorkUnit],
    *,
    n_jobs: int = 1,
    policy: RetryPolicy | None = None,
    counters: FaultCounters | None = None,
) -> Iterator[CompletedUnit]:
    """Run every unit through the shared ``n_jobs`` pool, yielding each as a
    :class:`CompletedUnit` **as it finishes** — the streaming twin of
    :func:`run_units`.

    With ``n_jobs=1`` (or inside a pool child) the units run inline and are
    yielded in input order; otherwise every unit, even a lone one, goes
    through the supervised pool and they arrive in completion order (so a
    request the serving tier drains alone still computes in a worker, with
    the pool's crash isolation).  Either way the *set* of ``(key, result)``
    pairs is identical, because every unit's output is a pure function of
    ``(fn, seed, payload)`` — consumers that need input order collect into a
    mapping (exactly what :func:`run_units` does), consumers that can act on
    partial results (streaming response loops, live report rendering)
    overlap their downstream work with the tail of the schedule.

    The pooled path is *supervised* (:func:`~repro.faults.supervise_units`):
    if a worker process dies (a crash fault), the executor is rebuilt and
    the unserved units are resubmitted with their original seeds under
    ``policy`` (default :data:`~repro.faults.policy.DEFAULT_RETRY_POLICY`),
    which bounds attempts per unit and rebuilds per run and finally
    degrades to inline execution (or raises
    :class:`~repro.exceptions.PoolRecoveryExhausted`, per the policy).
    Retries are digest-neutral — same ``(fn, seed, payload)``, same bytes.
    Recovery activity is tallied into ``counters`` (when given) and the
    process-wide :data:`~repro.faults.supervisor.GLOBAL_FAULTS`.

    If a unit raises (an *application* fault), the failure propagates at
    the point of iteration — never retried — and every not-yet-started
    unit is cancelled.  Abandoning the iterator early
    (``close()``/``break``) likewise cancels whatever has not started.
    """
    units = list(units)
    _check_unique_keys(units)
    n_jobs = effective_n_jobs(n_jobs)
    if n_jobs == 1:
        for u in units:
            result, seconds = run_timed(u.fn, u.seed, u.payload)
            yield CompletedUnit(
                key=u.key, result=result, seconds=seconds, kind=u.kind
            )
        return

    for index, result, seconds in supervise_units(
        units, n_jobs=n_jobs, policy=policy, counters=counters
    ):
        u = units[index]
        yield CompletedUnit(
            key=u.key, result=result, seconds=seconds, kind=u.kind
        )


def run_units(
    units: Iterable[WorkUnit],
    *,
    n_jobs: int = 1,
    on_unit_done: Callable[[Hashable, float], None] | None = None,
    policy: RetryPolicy | None = None,
    counters: FaultCounters | None = None,
) -> dict[Hashable, Any]:
    """Run every unit, interleaved through the shared ``n_jobs`` pool.

    Returns ``{unit.key: result}`` ordered like the input units.  With
    ``n_jobs=1`` (or inside a pool child) the units run inline in input
    order — the scheduled and inline paths produce identical mappings
    because every unit's output is a pure function of ``(fn, seed,
    payload)``.  A single unit always runs inline: a batch caller has
    nothing to overlap it with, so the pool hop would be pure overhead.

    ``on_unit_done`` (when given) is called in the parent with each unit's
    key and measured compute wall-time (seconds, clocked in the executing
    process) as that unit finishes — in completion order when pooled, in
    input order inline — so callers can surface live progress and feed
    measured costs back into dispatch weights (see
    :mod:`repro.engine.costs`); it must not depend on results.  If any unit
    raises, the first failure (in completion order) propagates and every
    not-yet-started unit is cancelled rather than left running in the
    shared pool.  Worker *crashes*, by contrast, are recovered under
    ``policy`` (see :func:`iter_units`) and tallied into ``counters``.
    """
    units = list(units)
    n_jobs = effective_n_jobs(n_jobs)
    if len(units) == 1:
        # Called directly, not via iter_units: the one-shard Mallows path
        # comes through here ~1,200 times per full pipeline run.
        (u,) = units
        result, seconds = run_timed(u.fn, u.seed, u.payload)
        if on_unit_done is not None:
            on_unit_done(u.key, seconds)
        return {u.key: result}
    results: dict[Hashable, Any] = {}
    for done in iter_units(
        units, n_jobs=n_jobs, policy=policy, counters=counters
    ):
        results[done.key] = done.result
        if on_unit_done is not None:
            on_unit_done(done.key, done.seconds)
    return {u.key: results[u.key] for u in units}


@dataclass(frozen=True)
class WorkerPool:
    """Shareable handle on the scheduler: an ``n_jobs`` budget plus the
    scheduling entry points, threaded through experiment configs.

    The handle is deliberately near-stateless (the executors themselves
    live in the process-wide registry of :mod:`repro.batch.parallel`,
    keyed by worker count), so it is cheap, picklable, and safe to embed
    in frozen config dataclasses: two configs built with the same handle
    schedule onto the same pool.  ``policy`` selects the crash-recovery
    budget for everything scheduled through the handle (``None`` = the
    scheduler default); ``counters`` (excluded from equality/hashing)
    optionally aims the recovery telemetry at a session-owned tally —
    engine sessions thread theirs here so ``engine.stats()`` sees
    pipeline-level recoveries too.
    """

    #: Worker processes (``-1`` = all cores); resolved at scheduling time.
    n_jobs: int = 1
    #: Crash-recovery budget (``None`` = DEFAULT_RETRY_POLICY).
    policy: RetryPolicy | None = None
    #: Session tally for recovery telemetry (identity-free: not compared).
    counters: FaultCounters | None = field(
        default=None, compare=False, repr=False
    )

    def run(
        self,
        units: Iterable[WorkUnit],
        on_unit_done: Callable[[Hashable, float], None] | None = None,
    ) -> dict[Hashable, Any]:
        """Schedule ``units`` through this pool (see :func:`run_units`)."""
        return run_units(
            units,
            n_jobs=self.n_jobs,
            on_unit_done=on_unit_done,
            policy=self.policy,
            counters=self.counters,
        )

    def iter(self, units: Iterable[WorkUnit]) -> Iterator[CompletedUnit]:
        """Stream ``units`` through this pool as they complete (see
        :func:`iter_units`)."""
        return iter_units(
            units,
            n_jobs=self.n_jobs,
            policy=self.policy,
            counters=self.counters,
        )

    def run_trials(
        self,
        trial_fn: Callable[..., Any],
        n_trials: int,
        *,
        seed=None,
        payload: tuple[Any, ...] = (),
    ) -> list[Any]:
        """Trial-granular fan-out on this pool (see
        :func:`repro.batch.parallel.run_trials`): the trial shards run
        through :meth:`run`, under this handle's policy and counters."""
        return _run_trials(self, trial_fn, n_trials, seed, payload)


def pool_for(pool: WorkerPool | None, n_jobs: int) -> WorkerPool:
    """The config-resolution rule: an explicitly threaded ``pool`` wins,
    otherwise a handle on the ``n_jobs``-sized shared pool."""
    return pool if pool is not None else WorkerPool(n_jobs)
