"""Tests of the open-loop generator against fake transports (no sockets).

Timing assertions only bound from the side a busy host cannot break:
waits can only make latencies longer, never shorter.
"""

from __future__ import annotations

import asyncio
import random
import time

import pytest

import openloop
from benchlib import tail_summary


class Refused(Exception):
    """Stands in for the server shedding a request."""


class FakeServer:
    """Answers after ``service`` seconds; records the largest number of
    requests in flight at once, per connection and overall."""

    def __init__(self, service: float = 0.0, fail: dict | None = None):
        self.service = service
        self.fail = fail or {}
        self.in_flight = 0
        self.peak = 0
        self.seen: list = []

    def connection(self):
        busy = [False]

        async def send(item):
            assert not busy[0], "two requests on one connection"
            busy[0] = True
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.seen.append(item)
            try:
                await asyncio.sleep(self.service)
                if item in self.fail:
                    raise self.fail[item]
                return ("served", item)
            finally:
                self.in_flight -= 1
                busy[0] = False

        return send


def drive(transports, items, due, **kwargs):
    return asyncio.run(openloop.drive(transports, items, due, rate=1.0, **kwargs))


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(openloop, "nproc", lambda: 2)


def test_latency_is_timed_from_the_due_time(two_cpus):
    # One connection, three requests due together: the second and third
    # wait for the connection, and that wait is part of their latency.
    server = FakeServer(service=0.05)
    report = drive([server.connection()], ["a", "b", "c"], [0.0, 0.0, 0.0])
    latencies = [o.latency for o in report.outcomes]
    assert [o.result for o in report.outcomes] == [("served", x) for x in "abc"]
    assert latencies[0] >= 0.05
    assert latencies[1] >= 0.10
    assert latencies[2] >= 0.15
    # Sent late because the connection was busy, not because the
    # generator was slow: none of that wait is generator lateness.
    assert report.outcomes[2].sent >= 0.10
    assert report.outcomes[2].lateness < report.outcomes[2].sent - report.outcomes[2].due


def test_requests_wait_for_their_due_time(two_cpus):
    server = FakeServer()
    report = drive([server.connection()], [1, 2], [0.0, 0.08])
    assert report.outcomes[1].sent >= 0.08
    assert report.outcomes[1].latency >= 0.0


def test_connections_are_capped_at_nproc(two_cpus):
    server = FakeServer(service=0.02)
    with pytest.raises(ValueError, match="nproc"):
        drive([server.connection() for _ in range(3)], [1], [0.0])
    items = list(range(10))
    report = drive([server.connection() for _ in range(2)], items, [0.0] * 10)
    assert report.attempted == 10
    assert report.connections == 2
    assert server.peak == 2
    assert sorted(server.seen) == items


def test_generator_lateness_is_reported(two_cpus):
    # The first response blocks the event loop for 80 ms, so the second
    # request (due at 10 ms on the idle connection) leaves late.
    stalled = [False]

    async def send(item):
        if not stalled[0]:
            stalled[0] = True
            time.sleep(0.08)
        return item

    report = drive([send, FakeServer().connection()], ["stall", "next"], [0.0, 0.01])
    late = report.outcomes[1]
    assert late.lateness >= 0.05
    assert report.max_lateness_ms() >= 50.0
    assert late.latency >= late.lateness


def test_refused_and_failed_requests_count_as_misses(two_cpus):
    server = FakeServer(fail={"r": Refused("shed"), "f": RuntimeError("boom")})
    items = ["ok1", "r", "f", "ok2"]
    report = drive([server.connection()], items, [0.0, 0.0, 0.0, 0.0], refused=(Refused,))
    assert report.attempted == 4
    assert report.count(openloop.REFUSED) == 1
    assert report.count(openloop.FAILED) == 1
    assert len(report.ok) == 2
    # Both count against any limit, however generous.
    assert report.limit_misses(limit_ms=1e9) == 2
    summary = report.summary()
    assert summary["n"] == 4
    assert summary["tail"] == float("inf")


def test_ordinals_continue_across_phases(two_cpus):
    report = drive([FakeServer().connection()], ["x", "y"], [0.0, 0.0], first_ordinal=7)
    assert [o.ordinal for o in report.outcomes] == [7, 8]


def saturate(transports, duration, **kwargs):
    return asyncio.run(openloop.saturate(transports, lambda i: f"item{i}", duration, **kwargs))


def test_closed_loop_keeps_every_connection_busy_until_the_end(two_cpus):
    server = FakeServer(service=0.02)
    report = saturate([server.connection() for _ in range(2)], 0.2, first_ordinal=5)
    assert server.peak == 2
    assert report.connections == 2
    # Every request is due when it leaves, so latency is its service time.
    assert all(o.due == o.sent and o.lateness == 0.0 for o in report.outcomes)
    assert all(o.latency >= 0.02 for o in report.outcomes)
    assert [o.ordinal for o in report.outcomes] == list(range(5, 5 + report.attempted))
    assert sorted(server.seen) == sorted(f"item{i}" for i in range(report.attempted))
    # No request leaves after the duration; two connections at 20 ms each
    # finish at most 2 * 0.2 / 0.02 requests.
    assert max(o.sent for o in report.outcomes) < 0.2
    assert 2 <= report.attempted <= 20
    assert report.rate == pytest.approx(report.attempted / report.span_s())


def test_closed_loop_is_capped_at_nproc_and_counts_refusals(two_cpus):
    with pytest.raises(ValueError, match="nproc"):
        saturate([FakeServer().connection() for _ in range(3)], 0.1)
    server = FakeServer(service=0.01, fail={"item0": Refused("shed"),
                                            "item1": RuntimeError("boom")})
    report = saturate([server.connection()], 0.1, refused=(Refused,))
    assert report.count(openloop.REFUSED) == 1
    assert report.count(openloop.FAILED) == 1
    assert len(report.ok) == report.attempted - 2
    assert report.limit_misses(limit_ms=1e9) == 2
    # Only served requests count towards the completion rate.
    assert report.rate == pytest.approx(len(report.ok) / report.span_s())


def test_due_times_are_seeded_paced_and_ordered():
    a = openloop.paced_due_times(50.0, 2.0, random.Random(3))
    b = openloop.paced_due_times(50.0, 2.0, random.Random(3))
    c = openloop.paced_due_times(50.0, 2.0, random.Random(4))
    assert a == b != c
    assert len(a) == 100
    assert a == sorted(a)
    # Each request stays in the middle half of its own slot.
    assert all(0.25 <= t * 50.0 - i <= 0.75 for i, t in enumerate(a))


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))  # 100 samples
    s = tail_summary(values)
    assert s["tail"] == 90 and s["beyond"] == 10 and s["tail_pct"] == 90.0
    few = tail_summary([3.0, 1.0, 2.0])
    assert few["tail"] == 3.0 and few["beyond"] == 0 and few["tail_pct"] == 100.0
    assert tail_summary(values, misses=10)["tail"] == 100


def test_a_stall_in_one_window_does_not_move_the_tail():
    def phase(stall_ms):
        outcomes = []
        for i in range(3 * openloop.TAIL_WINDOW):
            latency = 0.005 + 0.00001 * (i % 100)
            if i < 20:  # a stall delays the first requests of the phase
                latency += stall_ms / 1000.0
            outcomes.append(openloop.Outcome(
                ordinal=i, due=i * 0.01, sent=i * 0.01, done=i * 0.01 + latency,
                lateness=0.0, status=openloop.OK))
        return openloop.PhaseReport(rate=100.0, connections=1, outcomes=outcomes).summary()

    def whole_phase_tail(stall_ms):
        latencies = [5.0 + 0.01 * (i % 100) + (stall_ms if i < 20 else 0.0)
                     for i in range(3 * openloop.TAIL_WINDOW)]
        return tail_summary(latencies)["tail"]

    calm, stalled = phase(0.0), phase(200.0)
    assert stalled["windows"] == 3 and stalled["window"] == openloop.TAIL_WINDOW
    assert stalled["tail"] == pytest.approx(calm["tail"], rel=0.01)
    assert whole_phase_tail(200.0) > 200.0  # what one window for the phase would say


def test_merged_blocks_keep_latencies_and_share_one_clock():
    def block(origin, latencies):
        outcomes = [openloop.Outcome(ordinal=i, due=0.1 * i, sent=0.1 * i,
                                     done=0.1 * i + lat, lateness=0.0,
                                     status=openloop.OK)
                    for i, lat in enumerate(latencies)]
        return openloop.PhaseReport(rate=10.0, connections=1, origin=origin,
                                    outcomes=outcomes)

    first, second = block(100.0, [0.01, 0.03]), block(105.0, [0.02, 0.04, 0.05])
    merged = openloop.merge([first, second])
    assert merged.origin == 100.0 and merged.attempted == 5
    assert sorted(merged.latencies_ms()) == pytest.approx([10.0, 20.0, 30.0, 40.0, 50.0])
    assert merged.summary()["p50"] == pytest.approx(30.0)
    # The second block's times moved onto the first block's origin.
    assert merged.outcomes[2].due == pytest.approx(5.0)
    assert merged.outcomes[2].done == pytest.approx(5.02)
