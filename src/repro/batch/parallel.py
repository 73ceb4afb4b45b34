"""Multi-core fan-out of the experiment hot loops, in two sharding modes.

Both modes cut one loop into shards and run each shard as a
:class:`~repro.batch.schedule.WorkUnit` through
:func:`~repro.batch.schedule.run_units` — the same supervised path as
every other pooled job.  A worker that dies mid-shard is therefore
recovered (the pool is rebuilt and the shard resubmitted with its original
stream, see :mod:`repro.faults`), never fatal to the call, and recovery
never changes a byte.  A lone shard runs inline in the calling process.

Mode 1 — row-range sharding (:func:`mallows_sample_and_score`)
--------------------------------------------------------------
The large-batch experiments (Figs. 1, 3, 4) run one inner pipeline: draw an
``(m, n)`` batch of Mallows samples, then score every row with the batched
kernels.  Rows are mutually independent, so the batch is sharded by
contiguous row range, one ``("rows", lo)`` unit per range.  The sampler
consumes exactly one uniform double per ``(row, item)`` cell, row-major,
from the caller's generator, so each shard carries a clone of the caller's
bit generator advanced to its first row's stream offset (``lo * n`` draws)
— PCG64's ``advance`` makes this O(1) — and the parent generator is
advanced past all ``m * n`` draws afterwards.  A single shard draws from
the caller's generator directly.  A shard's stream travels in its payload,
so a pool retry or the degraded inline fallback replays it from the same
state.  The upshot, pinned by the equivalence tests:

* any ``n_jobs`` (including 1) produces **byte-identical** samples and
  scores under a fixed seed;
* the caller's generator ends in the **same state** as if it had drawn the
  whole batch single-process, so downstream consumers of the same stream
  (e.g. bootstrap resampling) are unaffected by the fan-out.

Bit generators without ``advance`` (e.g. MT19937) fall back to drawing the
displacement matrix in the parent and shipping row slices in the shards —
same outputs, slightly less parallel.

Mode 2 — trial sharding (:func:`run_trials`)
--------------------------------------------
The remaining experiments (the German Credit panels of Figs. 5–7, Fig. 2)
iterate a *heterogeneous* trial — subsample, solve, score — whose batches
are far too small for row sharding; they parallelize at the
``(trial_index,)`` granularity instead, one ``("trials", lo)`` unit per
contiguous block of trials.  :func:`run_trials` derives one
:class:`~numpy.random.SeedSequence` child per trial from the caller's seed
(``spawn_seed_sequences`` style), so trial ``t`` sees the same stream no
matter which worker — or the serial loop — executes it.  Results are
returned in trial order, making the output **byte-identical to the serial
loop for every** ``n_jobs``.  Requests with fewer trials than workers are
clamped to ``min(n_jobs, n_trials)`` shards on the shared pool (heavy
few-repeat loops stay parallel); only a single-trial request runs inline,
after a one-time :class:`RuntimeWarning`.

This module owns the per-``n_jobs`` pooled ``ProcessPoolExecutor``\\ s the
scheduler dispatches to, reused across calls (the experiments fan out in
tight loops); :func:`shutdown_workers` tears the pools down explicitly,
and an ``atexit`` hook does so at interpreter exit.

Pool children never nest pools: every worker process is marked by a pool
initializer, and :func:`effective_n_jobs` — the resolution step every fan-out
entry point goes through — returns 1 inside a worker regardless of the
requested ``n_jobs``.  A batch kernel reached *from inside* a pooled trial or
work unit therefore always runs inline instead of forking grandchildren.
"""

from __future__ import annotations

import atexit
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.rankings.permutation import Ranking
from repro.utils.rng import SeedLike, as_generator, spawn_seed_sequences

if TYPE_CHECKING:  # lazy at runtime: repro.mallows.sampling imports repro.batch
    from repro.batch.schedule import WorkerPool
    from repro.fairness.constraints import FairnessConstraints
    from repro.groups.attributes import GroupAssignment

#: Below this many rows per worker the pool overhead dominates and the
#: pipeline runs single-process instead (output is identical either way; a
#: one-time RuntimeWarning flags the declined fan-out request).
MIN_ROWS_PER_JOB = 128

#: Keys of the one-time advisories (declined fan-outs, deprecated
#: constructors) that have already fired.  A registry (rather than one
#: boolean per call site) so test runs can wipe it wholesale between cases —
#: a module global that latches forever would both leak state across tests
#: and swallow later legitimate warnings.
_WARNED: set[str] = set()


def reset_warnings() -> None:
    """Forget which one-time advisories have fired, so the next occurrence
    of each warns again (used by the shared pytest fixture)."""
    _WARNED.clear()


def _warn_once(
    key: str,
    message: str,
    category: type[Warning] = RuntimeWarning,
    stacklevel: int = 4,
) -> None:
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, category, stacklevel=stacklevel)


def _warn_small_batch(m: int, n_jobs: int) -> None:
    _warn_once(
        "small_batch",
        f"n_jobs={n_jobs} requested but the batch has only {m} rows "
        f"(< 2 x MIN_ROWS_PER_JOB = {2 * MIN_ROWS_PER_JOB}), so the pipeline "
        "runs single-process: at this size the worker-pool dispatch costs "
        "more than the work.  Output is identical either way.  Small-m "
        "experiment loops parallelize at the per-trial granularity "
        "instead.  This warning is shown once per reset_warnings().",
    )


def _warn_small_trials(n_trials: int, n_jobs: int) -> None:
    _warn_once(
        "small_trials",
        f"n_jobs={n_jobs} requested but the loop has only {n_trials} "
        "trial(s), so it runs inline: dispatching a single trial to the "
        "pool pays the fork/pickle overhead for nothing.  Output is "
        "identical either way.  This warning is shown once per "
        "reset_warnings().",
    )


#: Live executors keyed by worker count, reused across pipeline calls.
_EXECUTORS: dict[int, ProcessPoolExecutor] = {}

#: Guards every read-modify-write of :data:`_EXECUTORS`: concurrent serve
#: drains look up, build and evict the same per-count pool from several
#: threads at once.
_EXECUTORS_LOCK = threading.Lock()

#: True in pool-child processes (set by the executor initializer); pool
#: children must never spawn pools of their own.
_IN_WORKER = False


def _mark_worker() -> None:
    """Executor initializer: flag this process as a pool child."""
    global _IN_WORKER
    _IN_WORKER = True


def _init_worker(plan: object = None) -> None:
    """Executor initializer: mark the pool child and, in chaos lanes,
    activate the fault-injection plan the parent configured.

    ``plan`` is the parent's :class:`repro.faults.InjectionPlan` (or
    ``None`` outside chaos runs); shipping it through ``initargs`` is what
    makes injection deterministic — every worker of an executor carries
    the same plan from birth, so a fault fires on the same ``(unit key,
    attempt)`` pair regardless of which worker draws the unit.
    """
    _mark_worker()
    if plan is not None:
        # Lazy: repro.faults.injection configures plans *through* this
        # module (install_plan evicts executors), so a top-level import
        # would be circular.
        from repro.faults.injection import _install_worker_plan

        _install_worker_plan(plan)  # type: ignore[arg-type]


def in_worker() -> bool:
    """Whether this process is a pool child of the shared executors."""
    return _IN_WORKER


def shard_row_ranges(m: int, n_shards: int) -> list[tuple[int, int]]:
    """Split ``m`` rows into at most ``n_shards`` contiguous ``(lo, hi)``
    ranges of near-equal size (empty ranges are dropped)."""
    if m < 0:
        raise ValueError(f"row count must be non-negative, got {m}")
    if n_shards < 1:
        raise ValueError(f"shard count must be >= 1, got {n_shards}")
    base, extra = divmod(m, n_shards)
    ranges: list[tuple[int, int]] = []
    lo = 0
    for s in range(n_shards):
        hi = lo + base + (1 if s < extra else 0)
        if hi > lo:
            ranges.append((lo, hi))
        lo = hi
    return ranges


def resolve_n_jobs(n_jobs: int) -> int:
    """Normalize an ``n_jobs`` request: ``-1`` means all cores, otherwise
    the value must be a positive integer."""
    if n_jobs == -1:
        import os

        return max(1, os.cpu_count() or 1)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 or -1 (all cores), got {n_jobs}")
    return int(n_jobs)


def effective_n_jobs(n_jobs: int) -> int:
    """:func:`resolve_n_jobs` plus the nesting guard: inside a pool child
    the answer is always 1, whatever was requested.

    ``resolve_n_jobs(-1)`` asks ``os.cpu_count()`` — a question only the
    parent should answer: a worker that resolved ``-1`` to all cores and
    forked its own pool would oversubscribe the machine ``n_jobs``-fold.
    Every fan-out entry point resolves through here, so batch kernels called
    from *inside* a pooled trial or work unit run inline by construction
    rather than by the accident of their workload sizes.
    """
    if n_jobs != 1 and in_worker():
        if n_jobs < 1 and n_jobs != -1:
            raise ValueError(
                f"n_jobs must be >= 1 or -1 (all cores), got {n_jobs}"
            )
        return 1
    return resolve_n_jobs(n_jobs)


def shutdown_workers() -> None:
    """Tear down every pooled worker process (they are lazily recreated)."""
    with _EXECUTORS_LOCK:
        executors = list(_EXECUTORS.values())
        _EXECUTORS.clear()
    for executor in executors:
        executor.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_workers)


def _get_executor(n_jobs: int) -> ProcessPoolExecutor:
    """The shared ``n_jobs``-worker executor, built on first use."""
    with _EXECUTORS_LOCK:
        executor = _EXECUTORS.get(n_jobs)
        if executor is None:
            from repro.faults.injection import configured_plan  # lazy: cycle

            executor = ProcessPoolExecutor(
                max_workers=n_jobs,
                initializer=_init_worker,
                initargs=(configured_plan(),),
            )
            _EXECUTORS[n_jobs] = executor
        return executor


def _forget_executor(n_jobs: int, executor: ProcessPoolExecutor) -> None:
    """Unregister ``executor`` — only if it is still the one registered
    under ``n_jobs``.  A late eviction of a pool that another thread has
    already replaced must not orphan the replacement."""
    with _EXECUTORS_LOCK:
        if _EXECUTORS.get(n_jobs) is executor:
            del _EXECUTORS[n_jobs]


@dataclass(frozen=True)
class MallowsBatchScores:
    """Outputs of one sharded sampling + scoring pipeline run.

    Attributes are ``None`` when the corresponding input (constraints,
    scores, ``return_orders``) was not supplied.
    """

    infeasible_index: np.ndarray | None
    ndcg: np.ndarray | None
    orders: np.ndarray | None


def _run_shard(
    _seed: None,
    center: Ranking,
    theta: float,
    rows: int,
    rng: np.random.Generator | None,
    displacements: np.ndarray | None,
    groups: "GroupAssignment | None",
    constraints: "FairnessConstraints | None",
    scores: np.ndarray | None,
    ndcg_k: int | None,
    return_orders: bool,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Row-shard unit: materialize the shard's ``rows`` rows — decoded from
    ``displacements`` when given, else drawn from ``rng`` — and score them."""
    from repro.batch.kernels import batch_infeasible_index, batch_ndcg
    from repro.mallows.sampling import (
        _orders_from_displacements,
        sample_mallows_batch,
    )

    if displacements is not None:
        orders = _orders_from_displacements(center.order, displacements)
    else:
        orders = sample_mallows_batch(center, theta, rows, seed=rng)
    iis = None
    if constraints is not None:
        iis = batch_infeasible_index(orders, groups, constraints)
    ndcgs = None
    if scores is not None:
        ndcgs = batch_ndcg(orders, scores, k=ndcg_k)
    return iis, ndcgs, orders if return_orders else None


def _shard_bit_generators(
    rng: np.random.Generator, ranges: Sequence[tuple[int, int]], n: int
) -> list[object] | None:
    """Clones of ``rng``'s bit generator advanced to each shard's stream
    offset, or ``None`` when the bit generator cannot ``advance``.

    On success the parent generator is advanced past the whole batch, so its
    subsequent draws match the single-process path exactly.
    """
    base = rng.bit_generator
    if not hasattr(base, "advance"):
        return None
    state = base.state
    clones: list[object] = []
    for lo, _hi in ranges:
        clone = type(base)()
        clone.state = state
        clone.advance(lo * n)
        clones.append(clone)
    base.advance(ranges[-1][1] * n)
    return clones


def mallows_sample_and_score(
    center: Ranking,
    theta: float,
    m: int,
    *,
    groups: "GroupAssignment | None" = None,
    constraints: "FairnessConstraints | None" = None,
    scores: Sequence[float] | np.ndarray | None = None,
    ndcg_k: int | None = None,
    seed: SeedLike = None,
    n_jobs: int = 1,
    return_orders: bool = False,
) -> MallowsBatchScores:
    """Draw ``m`` Mallows samples around ``center`` and score every row,
    sharded across ``n_jobs`` worker processes.

    Parameters
    ----------
    groups, constraints:
        When given (together), the per-row Two-Sided Infeasible Index is
        computed.
    scores:
        When given, the per-row NDCG against these item scores is computed
        (top ``ndcg_k``; the full ranking by default).
    seed:
        Any :data:`~repro.utils.rng.SeedLike`.  A passed-in generator is
        consumed exactly as the single-process path would consume it.
    n_jobs:
        Worker processes (``-1`` = all cores).  Output is byte-identical
        for every value.  Batches under ``2 * MIN_ROWS_PER_JOB`` rows run
        single-process regardless (pool dispatch would cost more than the
        work); a one-time :class:`RuntimeWarning` flags the declined
        request so the no-op is never silent.
    return_orders:
        Also return the ``(m, n)`` sample orders (costs inter-process
        transfer of the whole batch when sharded).
    """
    # Lazy: repro.batch.schedule imports this module.
    from repro.batch.schedule import WorkUnit, run_units

    if (groups is None) != (constraints is None):
        raise ValueError("groups and constraints must be supplied together")
    n_jobs = effective_n_jobs(n_jobs)
    if theta < 0:
        raise ValueError(f"theta must be non-negative, got {theta}")
    n = len(center)
    score_array = None
    if scores is not None:
        score_array = np.asarray(scores, dtype=np.float64)
    rng = as_generator(seed)

    n_shards = min(n_jobs, max(1, m // MIN_ROWS_PER_JOB)) if n > 0 else 1
    sources: list[tuple[np.random.Generator | None, np.ndarray | None]]
    if n_shards == 1:
        if n_jobs > 1 and 0 < m < 2 * MIN_ROWS_PER_JOB:
            _warn_small_batch(m, n_jobs)
        # A lone shard runs inline (run_units never pools one unit), so it
        # draws straight from the caller's generator: no clone to build.
        ranges = [(0, m)]
        sources = [(rng, None)]
    else:
        ranges = shard_row_ranges(m, n_shards)
        clones = _shard_bit_generators(rng, ranges, n)
        if clones is None:
            # Non-advanceable bit generator: draw centrally, decode remotely.
            from repro.mallows.sampling import _displacement_draws

            v = _displacement_draws(n, theta, m, rng)
            sources = [(None, v[lo:hi]) for lo, hi in ranges]
        else:
            sources = [(np.random.Generator(c), None) for c in clones]

    units = [
        WorkUnit(
            key=("rows", lo),
            fn=_run_shard,
            payload=(
                center, theta, hi - lo, shard_rng, shard_v, groups,
                constraints, score_array, ndcg_k, return_orders,
            ),
        )
        for (lo, hi), (shard_rng, shard_v) in zip(ranges, sources)
    ]
    by_key = run_units(units, n_jobs=n_jobs)  # repro: noqa[REP009] unit clock unused
    results = list(by_key.values())
    if len(results) == 1:
        iis, ndcgs, orders = results[0]
    else:  # join the shards' outputs in row order (None: not computed)
        iis, ndcgs, orders = (
            None if parts[0] is None else np.concatenate(parts)
            for parts in zip(*results)
        )
    return MallowsBatchScores(infeasible_index=iis, ndcg=ndcgs, orders=orders)


def _run_trial_shard(
    _seed: None,
    trial_fn: Callable[..., Any],
    first_trial: int,
    seeds: tuple[np.random.SeedSequence, ...],
    payload: tuple[Any, ...],
) -> list[Any]:
    """Trial-shard unit: run trials ``first_trial, first_trial + 1, ...``
    (one per seed sequence) in index order."""
    return [
        trial_fn(first_trial + i, np.random.default_rng(seq), *payload)
        for i, seq in enumerate(seeds)
    ]


def _run_trials(
    pool: "WorkerPool",
    trial_fn: Callable[..., Any],
    n_trials: int,
    seed: SeedLike,
    payload: tuple[Any, ...],
) -> list[Any]:
    """:func:`run_trials` on ``pool``: the trial shards become work units
    scheduled by ``pool.run``, under the pool's policy and counters."""
    from repro.batch.schedule import WorkUnit  # lazy: schedule imports us

    if n_trials < 0:
        raise ValueError(f"trial count must be non-negative, got {n_trials}")
    n_jobs = effective_n_jobs(pool.n_jobs)
    seqs = spawn_seed_sequences(seed, n_trials)
    if n_trials == 1 and n_jobs > 1:
        _warn_small_trials(n_trials, n_jobs)
    units = [
        WorkUnit(
            key=("trials", lo),
            fn=_run_trial_shard,
            payload=(trial_fn, lo, tuple(seqs[lo:hi]), payload),
        )
        for lo, hi in shard_row_ranges(n_trials, max(1, min(n_jobs, n_trials)))
    ]
    return [result for shard in pool.run(units).values() for result in shard]


def run_trials(
    trial_fn: Callable[..., Any],
    n_trials: int,
    *,
    seed: SeedLike = None,
    n_jobs: int = 1,
    payload: tuple[Any, ...] = (),
) -> list[Any]:
    """Run ``trial_fn(trial_index, rng, *payload)`` for every trial, fanned
    out across ``n_jobs`` worker processes, returning results in trial order.

    This is the trial-granular twin of :func:`mallows_sample_and_score`: it
    parallelizes experiment loops whose unit of work is one *repeat* (a
    subsample + solver run, say) rather than one batch row.  Each trial gets
    its own child :class:`~numpy.random.SeedSequence` derived from ``seed``,
    so trial ``t``'s stream is a function of ``(seed, t)`` only and the
    results are **byte-identical to the serial loop for every** ``n_jobs``.

    Parameters
    ----------
    trial_fn:
        Module-level callable (it is pickled to the workers) invoked as
        ``trial_fn(trial_index, rng, *payload)``.  Its return value must be
        picklable.
    n_trials:
        Number of trials to run.
    seed:
        Any :data:`~repro.utils.rng.SeedLike`; a passed-in generator is
        consumed exactly as :func:`~repro.utils.rng.spawn_generators` would
        consume it (one 63-bit draw).
    n_jobs:
        Worker processes (``-1`` = all cores).  When ``n_trials < n_jobs``
        the fan-out is *clamped*: the trials are sharded one-per-worker
        across ``min(n_jobs, n_trials)`` workers of the shared pool, so
        heavy few-repeat loops (German Credit at ``n_repeats=5`` under
        ``--jobs -1``) still run fully parallel.  Only the truly-inline
        case — a single trial — skips the pool, after a one-time
        :class:`RuntimeWarning`.  Output is identical for every value.
    payload:
        Extra positional arguments shipped to every trial (pickled once per
        shard, not once per trial).
    """
    from repro.batch.schedule import WorkerPool  # lazy: schedule imports us

    return _run_trials(WorkerPool(n_jobs), trial_fn, n_trials, seed, payload)
