"""``serve-heavy``: ``repro serve --http`` under load.

The requests are the paper's method, Mallows best-of-1000 on German
Credit subsamples of 250 applicants, sent to a two-worker server, so
worker compute (RIM decode, criterion scoring) and pool dispatch dominate
and the HTTP/JSON and serve tiers are a small share.  A run is:

1. set-up, three times: spawn the server, wait for the first 200 from
   ``/healthz`` and for one warm-up request per worker;
2. low and high blocks in turn for ``--seconds``: the low phase is
   open-loop at a fixed rate well under capacity, the high phase a closed
   loop that keeps every connection busy, so its completion rate is the
   most the server sustains for the generator's connections;
3. the correctness gate: every served ranking equals a serial
   ``rank_many`` over the same pinned request stream.

The traced run re-drives the low-phase stream through three public entry
points (``AsyncHttpClient.submit``, in-process
``AsyncRankingServer.submit``, direct ``RankingEngine.rank``) and times
the wire codec, the work units the engine hands to its scheduler, and the
sampler on the same requests.
"""

from __future__ import annotations

import asyncio
import pickle
import random
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from typing import Any, Awaitable, Callable

import numpy as np

import repro.engine.core as engine_core
from repro.algorithms.base import FairRankingProblem
from repro.batch import shutdown_workers
from repro.datasets.german_credit import load_german_credit
from repro.engine import RankingEngine, RankingRequest, responses_digest
from repro.exceptions import InfeasibleProblemError
from repro.fairness.constraints import FairnessConstraints
from repro.fairness.construction import weakly_fair_ranking
from repro.mallows.sampling import sample_mallows_batch
from repro.net import AsyncHttpClient
from repro.net.protocol import RequestParser, encode_request, encode_response
from repro.net.schemas import (
    SCHEMA_VERSION, decode_rank_request, dumps, encode_rank_request,
    encode_rank_response, loads,
)
from repro.serve import AsyncRankingServer, ServeConfig, ServerOverloaded, ServerUnhealthy
from repro.utils.rng import spawn_seed_sequences

import openloop
from benchlib import (
    BenchError,
    Children,
    fresh_import_s,
    median,
    metric,
    nproc,
    peak_child_rss_mb,
    read_line,
)

#: Worker processes of the server (``repro serve --jobs``).
JOBS = 2
#: Rate of the open-loop low phase (req/s), well under capacity: its
#: latency is one request's service time.
LOW_RATE = 5.0
#: The run alternates a low block (open-loop at LOW_RATE for LOW_BLOCK_S
#: seconds) and a high block (closed loop over every connection for
#: HIGH_BLOCK_S seconds) until ``--seconds`` have passed.  Host speed
#: swings by 10-25% over seconds, and medians over blocks spread across the
#: whole run are steadier than ones over a single stretch.
LOW_BLOCK_S, HIGH_BLOCK_S = 1.2, 1.0
#: Latency limit on the tail; each phase's misses are in the detail record.
LIMIT_MS = 150.0
#: Pinned requests, cycled so every phase sends fresh ordinals.
STREAM_SIZE = 64
#: The server's answers that mean it shed the request.
REFUSED = (ServerOverloaded, ServerUnhealthy)


def request_stream(seed: int, size: int = STREAM_SIZE) -> list[RankingRequest]:
    """Mallows best-of-1000 on German Credit subsamples of 250 applicants,
    theta alternating 0.5 / 1.0, each built as the paper's panels build
    their problems (weakly fair base ranking on the known attribute), with
    seeds pinned by ordinal."""
    data = load_german_credit(seed=0)
    rng = np.random.default_rng(seed)
    seeds = spawn_seed_sequences(seed, size)
    requests = []
    for k in range(size):
        sub = data.subsample(250, seed=rng)
        constraints = FairnessConstraints.proportional(sub.age_sex)
        try:
            base = weakly_fair_ranking(sub.credit_amount, sub.age_sex, constraints)
        except InfeasibleProblemError:
            base = weakly_fair_ranking(
                sub.credit_amount, sub.age_sex, constraints, strong=False
            )
        problem = FairRankingProblem(
            base_ranking=base, scores=sub.credit_amount,
            groups=sub.age_sex, constraints=constraints,
        )
        requests.append(RankingRequest(
            "mallows", problem,
            params={"theta": 0.5 if k % 2 == 0 else 1.0, "n_samples": 1000},
            seed=seeds[k], request_id=f"heavy#{k}",
        ))
    return requests


# -- the server process ------------------------------------------------------


class ServerProcess:
    """One ``repro serve --http 127.0.0.1:0`` child."""

    def __init__(self, children: Children, seed: int, log_path: str):
        self._children = children
        argv = [sys.executable, "-m", "repro.cli", "serve",
                "--http", "127.0.0.1:0", "--jobs", str(JOBS), "--seed", str(seed)]
        self.started = time.perf_counter()
        with open(log_path, "ab") as log:
            self.proc = children.popen(argv, stdout=subprocess.PIPE, stderr=log)
        line = read_line(self.proc, lambda s: s.startswith("serving on http://"),
                         60.0, "the server did not report its address")
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        self._children.stop(self.proc)


async def _until_ready(port: int, warmup: list) -> None:
    """First 200 from /healthz, then one warm-up request per worker, sent
    together so the pool spins up."""
    deadline = time.perf_counter() + 60.0
    async with AsyncHttpClient("127.0.0.1", port) as probe:
        while True:
            try:
                healthy, _ = await probe.healthz()
            except (ConnectionError, OSError):
                healthy = False
            if healthy:
                break
            if time.perf_counter() > deadline:
                raise BenchError("/healthz never answered 200")
            await asyncio.sleep(0.01)
    clients = [AsyncHttpClient("127.0.0.1", port) for _ in warmup]
    try:
        await asyncio.gather(*(c.submit(r) for c, r in zip(clients, warmup)))
    finally:
        for c in clients:
            await c.close()


def start_server(children: Children, seed: int, work: str,
                 stream: list) -> tuple[ServerProcess, float]:
    """A ready server and its spawn-to-ready seconds."""
    server = ServerProcess(children, seed, f"{work}/server.log")
    try:
        asyncio.run(_until_ready(server.port, stream[-JOBS:]))
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.started


# -- load phases -------------------------------------------------------------


class Phases:
    """Load phases over the given connections, cycling through the pinned
    stream so every phase sends fresh ordinals."""

    def __init__(self, transports: list, stream: list, seed: int):
        self.transports = transports
        self.stream = stream
        self.rng = random.Random(seed)
        self.next_ordinal = 0
        self.phases: list[openloop.PhaseReport] = []

    def _item(self, i: int) -> RankingRequest:
        return self.stream[(self.next_ordinal + i) % len(self.stream)]

    async def _record(self, report: openloop.PhaseReport) -> openloop.PhaseReport:
        self.next_ordinal += report.attempted
        self.phases.append(report)
        await asyncio.sleep(0.05)  # let the server settle between phases
        return report

    async def open_loop(self, rate: float, duration: float) -> openloop.PhaseReport:
        due = openloop.paced_due_times(rate, duration, self.rng)
        return await self._record(await openloop.drive(
            self.transports, [self._item(i) for i in range(len(due))], due,
            rate=rate, refused=REFUSED, first_ordinal=self.next_ordinal,
        ))

    async def saturated(self, duration: float) -> openloop.PhaseReport:
        return await self._record(await openloop.saturate(
            self.transports, self._item, duration,
            refused=REFUSED, first_ordinal=self.next_ordinal,
        ))


def over_http(port: int, stream: list, seed: int,
              body: Callable[[Phases, AsyncHttpClient], Awaitable[Any]]) -> tuple:
    """Run ``body(load, client)`` over ``nproc`` keep-alive connections to
    the server; returns ``(load, body's result)``."""
    async def session():
        clients = [AsyncHttpClient("127.0.0.1", port) for _ in range(nproc())]
        try:
            load = Phases([c.submit for c in clients], stream, seed)
            return load, await body(load, clients[0])
        finally:
            for c in clients:
                await c.close()

    return asyncio.run(session())


async def interleaved(load: Phases, seconds: int) -> tuple:
    """Low and high blocks in turn until ``seconds`` have passed; returns
    the low and the high blocks."""
    low, high = [], []
    deadline = time.perf_counter() + seconds
    while not low or time.perf_counter() < deadline:
        low.append(await load.open_loop(LOW_RATE, LOW_BLOCK_S))
        high.append(await load.saturated(HIGH_BLOCK_S))
    return low, high


# -- correctness gate --------------------------------------------------------


def gate(stream: list, phases: list[openloop.PhaseReport]) -> dict:
    """Every served ranking must equal the serial ``rank_many`` answer for
    its stream position, and the digests over the served positions must
    agree."""
    with RankingEngine(n_jobs=1) as engine:
        reference = sorted(engine.rank_many(stream, n_jobs=1), key=lambda r: r.index)
    first_served: dict[int, Any] = {}
    mismatches = 0
    for report in phases:
        for outcome in report.ok:
            k = outcome.ordinal % len(stream)
            got, want = outcome.result, reference[k]
            if got.algorithm != want.algorithm or not np.array_equal(
                got.ranking.order, want.ranking.order
            ):
                mismatches += 1
            first_served.setdefault(k, replace(got, index=k))
    served = responses_digest(first_served.values())
    serial = responses_digest(reference[k] for k in first_served)
    return {
        "ok": mismatches == 0 and served == serial and bool(first_served),
        "mismatches": mismatches,
        "positions": len(first_served),
        "digest": served[:16],
    }


# -- the runs ----------------------------------------------------------------


def _phase_detail(report: openloop.PhaseReport, rate: float) -> dict:
    s = report.summary()
    return {
        "rate": rate, "sent": report.attempted,
        "refused": report.count(openloop.REFUSED),
        "failed": report.count(openloop.FAILED),
        "p50_ms": s["p50"], "tail_ms": s["tail"],
        "tail_pct": round(s["tail_pct"], 2), "beyond": s["beyond"],
        "tail_window": s["window"], "tail_windows": s["windows"],
        "limit_misses": report.limit_misses(LIMIT_MS),
        "max_lateness_ms": report.max_lateness_ms(),
    }


def run(seed: int, seconds: int, work: str) -> tuple:
    stream = request_stream(seed)
    children = Children()
    setups = []
    try:
        for _ in range(2):
            server, setup = start_server(children, seed, work, stream)
            setups.append(setup)
            server.stop()
        server, setup = start_server(children, seed, work, stream)
        setups.append(setup)
        load, (low_blocks, high_blocks) = over_http(
            server.port, stream, seed, lambda load, _client: interleaved(load, seconds))
        children.stop_all()
        rss = peak_child_rss_mb()
    finally:
        children.stop_all()

    check = gate(stream, load.phases)
    attempted = sum(p.attempted for p in load.phases)
    failed = attempted - sum(len(p.ok) for p in load.phases)
    low, high = openloop.merge(low_blocks), openloop.merge(high_blocks)
    high_rates = [block.rate for block in high_blocks]
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "p50_ms.low": metric(low.summary()["p50"], "ms"),
        "p50_ms.high": metric(high.summary()["p50"], "ms"),
        "max_rate_rps": metric(median(high_rates), "1/s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    detail = {
        "workload": "serve-heavy", "seed": seed, "server_n_jobs": JOBS,
        "connections": nproc(), "limit_ms": LIMIT_MS,
        "setup_s": setups, "low": _phase_detail(low, LOW_RATE),
        "high": _phase_detail(high, median(high_rates)),
        "high_block_rates": high_rates, "gate": check,
    }
    if not check["ok"]:
        failed += max(1, check["mismatches"])
    return check["ok"], attempted, failed, metrics, detail


def run_traced(seed: int, seconds: int, work: str, tracer) -> dict:
    """Per-layer split of one request stream, see the module docstring."""
    stream = request_stream(seed)
    children = Children()
    try:
        tracer.samples["process.import_s"].extend(fresh_import_s(children, "repro.cli"))
        server, _ = start_server(children, seed, work, stream)

        async def body(load: Phases, client: AsyncHttpClient) -> tuple:
            before = await client.stats()
            low, high = await interleaved(load, seconds)
            return low, high, before, await client.stats()

        _, (low_blocks, high_blocks, before, after) = over_http(
            server.port, stream, seed, body)
    finally:
        children.stop_all()

    # The low blocks are what the in-process re-drive repeats.
    for block in low_blocks:
        for o in block.ok:
            tracer.add("http.request", block.origin + o.sent,
                       block.origin + o.done, rid=o.ordinal)
    low, high = openloop.merge(low_blocks), openloop.merge(high_blocks)
    tracer.samples["engine.compute_s"].extend(o.result.seconds for o in low.ok)
    tracer.samples["engine.high_compute_s"].extend(o.result.seconds for o in high.ok)
    c0, c1 = before["counters"], after["counters"]
    delta = {k: c1[k] - c0[k] for k in c1}
    kinds = after.get("latency_percentiles", {})
    tracer.counters.update({
        "serve.n_jobs": JOBS,
        "serve.submitted": delta["submitted"],
        "serve.completed": delta["completed"],
        "serve.queued": delta["queued"],
        "serve.rejected": delta["rejected"],
        "serve.dispatched_requests": delta["dispatched_requests"],
        "serve.dispatched_batches": delta["dispatched_batches"],
        # /stats reports p50 per kind; the median across kinds.
        "serve.server_p50_ms": 1e3 * statistics.median(
            v["p50"] for v in kinds.values()) if kinds else 0.0,
        "engine.high_wall_s": sum(block.span_s() for block in high_blocks),
        "trace.p50_ms.low": low.summary()["p50"],
        "trace.p50_ms.high": high.summary()["p50"],
    })

    low_items = [stream[o.ordinal % len(stream)] for o in low.outcomes]

    # The work units the serving path hands to the scheduler, captured
    # where the engine binds ``iter_units``: their (fn, seed, payload) is
    # what a pooled request pickles to a worker.
    units: list = []
    iter_units = engine_core.iter_units

    def capturing_iter_units(batch, *args, **kwargs):
        batch = list(batch)
        units.extend(batch)
        return iter_units(batch, *args, **kwargs)

    engine = RankingEngine(n_jobs=JOBS).warm_up()
    try:
        async def in_process():
            # The defaults are the ones `repro serve` runs with.
            async with AsyncRankingServer(engine, ServeConfig(seed=seed)) as inner:
                await asyncio.gather(*(inner.submit(r) for r in stream[-JOBS:]))
                # Each low block again, at its own due times.
                return [await openloop.drive(
                    [inner.submit] * nproc(),
                    [stream[o.ordinal % len(stream)] for o in block.outcomes],
                    [o.due for o in block.outcomes], rate=LOW_RATE,
                    refused=REFUSED, first_ordinal=block.outcomes[0].ordinal,
                ) for block in low_blocks]

        engine_core.iter_units = capturing_iter_units
        try:
            inproc_blocks = asyncio.run(in_process())
        finally:
            engine_core.iter_units = iter_units
        for block in inproc_blocks:
            for o in block.ok:
                tracer.add("inproc.request", block.origin + o.sent,
                           block.origin + o.done, rid=o.ordinal)
        inproc = openloop.merge(inproc_blocks)
        tracer.samples["inproc.compute_s"].extend(o.result.seconds for o in inproc.ok)

        responses = []
        for i, request in enumerate(low_items):
            with tracer.span("engine.rank", rid=i):
                responses.append(engine.rank(request))
    finally:
        engine.close()
        shutdown_workers()

    for i, (request, response) in enumerate(zip(low_items, responses)):
        body = dumps(encode_rank_request(request))
        wire = encode_request("POST", "/v1/rank", host="127.0.0.1:8080", body=body)
        tracer.samples["net.request_bytes"].append(len(wire))
        with tracer.span("net.parse", rid=i):
            RequestParser().feed(wire)
        with tracer.span("net.decode", rid=i):
            decode_rank_request(loads(body))
        with tracer.span("net.encode", rid=i):
            out = dumps({"version": SCHEMA_VERSION,
                         "response": encode_rank_response(response)})
        tracer.samples["net.response_bytes"].append(len(encode_response(200, out)))
    for i, unit in enumerate(units):
        with tracer.span("dispatch.pickle", rid=i):
            blob = pickle.dumps((unit.fn, unit.seed, unit.payload))
        tracer.samples["dispatch.pickle_bytes"].append(len(blob))

    for i, request in enumerate(low_items[:20]):
        with tracer.span("mallows.sample_mallows_batch", rid=i):
            sample_mallows_batch(request.problem.base_ranking, request.params["theta"],
                                 request.params["n_samples"], seed=i)
    check = gate(stream, [low, high, inproc])
    attempted = low.attempted + high.attempted + inproc.attempted
    served = len(low.ok) + len(high.ok) + len(inproc.ok)
    return {"low": _phase_detail(low, LOW_RATE),
            "high": _phase_detail(high, median(b.rate for b in high_blocks)),
            "dispatch_units": len(units), "gate": check, "attempted": attempted,
            "failed": attempted - served + check["mismatches"]}
