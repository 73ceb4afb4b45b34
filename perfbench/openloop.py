"""Open-loop load generator.

Requests leave on a schedule fixed in advance from the seed, whatever pace
the server keeps, so a slow server meets a growing queue instead of less
load.  One process drives at most ``nproc`` keep-alive connections; each
connection carries one request at a time, so a request whose due time
finds every connection busy waits client-side, and that wait is part of
its latency:

* latency is timed from the request's **due time**, not from its send;
* the generator's own **lateness** (send time minus the moment it could
  have sent: the later of the due time and a connection coming free) is
  reported separately, so a stalled generator is not mistaken for a slow
  server;
* **refused** (the server shed the request) and **failed** requests count
  against the number attempted and as misses of any latency limit.

:func:`saturate` is the closed-loop twin for measuring capacity: every
connection stays busy for a fixed time, and the phase reports the
completion rate the server sustained.

Transports are plain ``async`` callables taking one item, which keeps the
generator free of sockets: the benchmark passes
``AsyncHttpClient.submit`` or ``AsyncRankingServer.submit``, the tests a
fake.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Awaitable, Callable, Sequence

from benchlib import median, nproc, tail_summary

Transport = Callable[[Any], Awaitable[Any]]

OK, REFUSED, FAILED = "ok", "refused", "failed"

#: A phase longer than this many requests is split into consecutive
#: windows of at least this size (by due time), and its tail is the median
#: of the windows' tails, so one host stall moves one window, not the
#: reported tail.
TAIL_WINDOW = 250


def paced_due_times(rate: float, duration: float, rng: random.Random) -> list[float]:
    """Due times (seconds from the phase start) at ``rate`` per second.

    Request ``i`` is due in slot ``[i, i + 1) / rate``, at a seeded offset
    within the middle half of the slot: the offered rate over the phase is
    exact, arrivals are not lock-step, and the order never changes.
    """
    if rate <= 0.0 or duration <= 0.0:
        raise ValueError("rate and duration must be positive")
    n = max(1, round(rate * duration))
    return [(i + 0.5 + 0.25 * (2.0 * rng.random() - 1.0)) / rate for i in range(n)]


@dataclass
class Outcome:
    """One scheduled request; times are seconds from the phase start."""

    ordinal: int
    due: float
    sent: float
    done: float
    lateness: float
    status: str
    result: Any = None

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class PhaseReport:
    """Everything one scheduled phase produced."""

    rate: float
    connections: int
    #: The clock reading all outcome times are relative to.
    origin: float = 0.0
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    def count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def ok(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.status == OK]

    def latencies_ms(self) -> list[float]:
        return [1000.0 * o.latency for o in self.ok]

    def summary(self) -> dict:
        """p50 over the phase and the median of its windows' tails, in ms,
        with refused and failed requests as misses."""
        ordered = sorted(self.outcomes, key=lambda o: o.due)
        k = max(1, len(ordered) // TAIL_WINDOW)
        tails = []
        for w in range(k):
            window = ordered[w * len(ordered) // k:(w + 1) * len(ordered) // k]
            served = [1000.0 * o.latency for o in window if o.status == OK]
            tails.append(tail_summary(served, len(window) - len(served)))
        whole = tail_summary(self.latencies_ms(), self.attempted - len(self.ok))
        return {
            **whole,
            "tail": median(t["tail"] for t in tails),
            "tail_pct": median(t["tail_pct"] for t in tails),
            "beyond": min(t["beyond"] for t in tails),
            "window": min(t["n"] for t in tails) if tails else 0,
            "windows": k,
        }

    def limit_misses(self, limit_ms: float) -> int:
        """Requests that were refused, failed, or answered later than
        ``limit_ms`` after their due time."""
        return sum(
            1 for o in self.outcomes
            if o.status != OK or 1000.0 * o.latency > limit_ms
        )

    def max_lateness_ms(self) -> float:
        return 1000.0 * max((o.lateness for o in self.outcomes), default=0.0)

    def span_s(self) -> float:
        """First due time to last completion."""
        if not self.outcomes:
            return 0.0
        return max(o.done for o in self.outcomes) - min(o.due for o in self.outcomes)


def merge(reports: Sequence[PhaseReport]) -> PhaseReport:
    """One report over several phases at the same rate, with every time
    moved onto the first phase's clock origin."""
    origin = reports[0].origin
    merged = PhaseReport(rate=reports[0].rate, connections=reports[0].connections,
                         origin=origin)
    for report in reports:
        shift = report.origin - origin
        merged.outcomes.extend(
            replace(o, due=o.due + shift, sent=o.sent + shift, done=o.done + shift)
            for o in report.outcomes
        )
    return merged


async def drive(
    transports: Sequence[Transport],
    items: Sequence[Any],
    due: Sequence[float],
    *,
    rate: float,
    refused: tuple[type[BaseException], ...] = (),
    first_ordinal: int = 0,
) -> PhaseReport:
    """Send ``items[i]`` at ``due[i]`` over the given connections.

    ``transports`` holds one callable per connection (at most ``nproc``);
    a connection sends its next request only after its previous one
    returned.  ``refused`` lists the exception types that mean the server
    shed the request; any other exception is a failure.  Returns once
    every request has been answered.
    """
    cap = nproc()
    if not 1 <= len(transports) <= cap:
        raise ValueError(f"need 1..{cap} connections (nproc), got {len(transports)}")
    if len(items) != len(due) or list(due) != sorted(due):
        raise ValueError("due times must be sorted, one per item")
    now = asyncio.get_running_loop().time
    start = now() + 0.02  # time to start every connection before the first due
    pending = deque(range(len(items)))
    report = PhaseReport(rate=rate, connections=len(transports), origin=start)
    slots: list[Outcome | None] = [None] * len(items)

    async def connection(send: Transport) -> None:
        while pending:
            i = pending.popleft()
            free_at = now() - start
            wait = due[i] - free_at
            if wait > 0.0:
                await asyncio.sleep(wait)
            sent = now() - start
            status, result = OK, None
            try:
                result = await send(items[i])
            except refused as exc:
                status, result = REFUSED, exc
            except Exception as exc:  # counted against attempted, never raised
                status, result = FAILED, exc
            slots[i] = Outcome(
                ordinal=first_ordinal + i,
                due=due[i],
                sent=sent,
                done=now() - start,
                lateness=sent - max(due[i], free_at),
                status=status,
                result=result,
            )

    await asyncio.gather(*(connection(t) for t in transports))
    report.outcomes = [o for o in slots if o is not None]
    return report


async def saturate(
    transports: Sequence[Transport],
    item: Callable[[int], Any],
    duration: float,
    *,
    refused: tuple[type[BaseException], ...] = (),
    first_ordinal: int = 0,
) -> PhaseReport:
    """Closed loop: every connection sends its next request the moment its
    previous one returned, until ``duration`` seconds have passed.

    The ``i``-th request sent is ``item(i)``.  The backlog is bounded by
    the connection count, so latency (timed from the send: each request is
    due when it leaves) measures service under full load rather than a
    growing queue, and the report's ``rate`` is the completion rate the
    server sustained.  Refused and failed requests count as in
    :func:`drive`.
    """
    cap = nproc()
    if not 1 <= len(transports) <= cap:
        raise ValueError(f"need 1..{cap} connections (nproc), got {len(transports)}")
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    now = asyncio.get_running_loop().time
    start = now()
    outcomes: list[Outcome] = []
    sent_count = 0

    async def connection(send: Transport) -> None:
        nonlocal sent_count
        while now() - start < duration:
            i, sent_count = sent_count, sent_count + 1
            sent = now() - start
            status, result = OK, None
            try:
                result = await send(item(i))
            except refused as exc:
                status, result = REFUSED, exc
            except Exception as exc:  # counted against attempted, never raised
                status, result = FAILED, exc
            outcomes.append(Outcome(ordinal=first_ordinal + i, due=sent, sent=sent,
                                    done=now() - start, lateness=0.0,
                                    status=status, result=result))

    await asyncio.gather(*(connection(t) for t in transports))
    outcomes.sort(key=lambda o: o.ordinal)
    report = PhaseReport(rate=0.0, connections=len(transports), origin=start,
                         outcomes=outcomes)
    span = report.span_s()
    report.rate = len(report.ok) / span if span > 0.0 else 0.0
    return report
