"""The batcher's linger policy: by default it never lingers; with a
``max_wait`` window, isolated requests still dispatch at once.

Three layers, cheapest first: the pure helpers over scripted timestamps, the
``submit()`` stamp driven through the real code path under a scripted clock
(no worker threads, no sleeps), and a few end-to-end checks whose
``max_wait`` (0.25 s) is far above anything the assertions time.
"""

import asyncio
import time

import numpy as np
import pytest

from repro import nn
from repro.codegen import using_codegen
from repro.serve import (
    AsyncServer,
    ProcServer,
    Server,
    ServerOverloaded,
)
from repro.serve import frontend
from repro.serve.frontend import is_isolated, linger_until

WINDOW = 0.25  # end-to-end max_wait: 2.5x the "at once" bound below
AT_ONCE = 0.1


def _model(seed=0):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Linear(6, 8, rng=rng), nn.ReLU(), nn.Linear(8, 3, rng=rng)
    )
    model.eval()
    return model


def _req(n=1):
    return np.zeros((n, 6), np.float32)


def _make(kind, **kwargs):
    kwargs.setdefault("buckets", (1, 4, 16))
    if kind == "process":
        return ProcServer(_model(), _req(), start_method="fork", **kwargs)
    return Server(_model(), _req(), **kwargs)


def _timed(future):
    start = time.monotonic()
    future.result(timeout=30)
    return time.monotonic() - start


# --------------------------------------------------------------------------- #
# The pure helpers
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "prev, arrival, max_wait, expected",
    [
        (None, 5.0, 0.25, True),     # first request since start
        (5.0, 5.125, 0.25, False),   # inside the predecessor's window
        (5.0, 5.25, 0.25, False),    # exactly at its edge: still inside
        (5.0, 5.375, 0.25, True),    # past it
        (5.0, 4.875, 0.25, False),   # racing submitters stamped out of order
        (None, 5.0, 0.0, True),
        (5.0, 5.0, 0.0, False),      # max_wait=0: only a tie is "together"
        (5.0, 5.125, 0.0, True),
    ],
)
def test_is_isolated(prev, arrival, max_wait, expected):
    assert is_isolated(prev, arrival, max_wait) is expected


@pytest.mark.parametrize(
    "isolated, collected_at, max_wait, earliest_deadline, expected",
    [
        (True, 10.0, 0.002, None, 10.0),     # isolated: no linger at all
        (True, 10.0, 0.002, 10.001, 10.0),
        (False, 10.0, 0.002, None, 10.002),  # a companion is likely: one window
        (False, 10.0, 0.0, None, 10.0),      # max_wait=0 never holds a request
        (False, 10.0, 0.3, 20.0, 10.3),      # distant deadline: no effect
        (False, 10.0, 0.3, 10.05, 10.025),   # capped at the midpoint to it
        (False, 10.0, 0.3, 10.6, 10.3),      # midpoint == window end
    ],
)
def test_linger_until(isolated, collected_at, max_wait, earliest_deadline,
                      expected):
    got = linger_until(isolated, collected_at, max_wait, earliest_deadline)
    assert got == pytest.approx(expected, abs=1e-12)
    # Never before collection, never longer than max_wait, and short of any
    # collected deadline.
    assert collected_at <= got <= collected_at + max_wait
    if earliest_deadline is not None and not isolated and max_wait > 0:
        assert got < earliest_deadline


# --------------------------------------------------------------------------- #
# submit() stamps, under a scripted clock
# --------------------------------------------------------------------------- #
class _Clock:
    """Stands in for the ``time`` module inside ``repro.serve.frontend``."""

    def __init__(self, now=100.0):
        self.now = now

    def monotonic(self):
        return self.now


@pytest.fixture
def scripted(monkeypatch):
    """A server that accepts submits but runs no thread: the queue keeps
    every request for inspection and time only moves when the test says."""
    clock = _Clock()
    monkeypatch.setattr(frontend, "time", clock)

    def build(**kwargs):
        server = _make("thread", max_wait=0.002, **kwargs)
        server._started = True  # accept submits without spawning workers
        return server

    return build, clock


def test_submit_stamps_isolation_from_arrival_gaps(scripted):
    build, clock = scripted
    server = build()
    gaps = [None, 0.0019, 0.0021, 0.0005, 0.0005, 1.0]
    for gap in gaps:
        clock.now += gap or 0.0
        server.submit(_req())
    assert [r.isolated for r in server._queue] == [
        True, False, True, False, False, True]


def test_zero_sample_and_refused_submits_are_not_arrivals(scripted):
    build, clock = scripted
    server = build(queue_limit=1, overload="reject")
    server.submit(_req())
    accepted_at = clock.now
    clock.now += 1.0
    assert server.submit(_req(0)).result(timeout=0).shape == (0, 3)
    with pytest.raises(ServerOverloaded):
        server.submit(_req())
    assert server._last_arrival == accepted_at
    # The next accepted request is measured against the last *accepted*
    # one, a second ago — not against the two non-arrivals just now.
    server._queue.clear()
    clock.now += 0.0001
    server.submit(_req())
    assert server._queue[0].isolated


def test_isolated_batch_is_collected_without_waiting_and_requeue_keeps_the_stamp(
        scripted):
    build, clock = scripted
    server = build()
    slot = server._slots[0]
    server.submit(_req())
    clock.now += 0.0005
    server.submit(_req(2))
    def no_wait(timeout=None):
        raise AssertionError(f"_collect waited (timeout={timeout})")

    server._cond.wait = no_wait  # the clock is frozen: a wait would never end
    requests, lingered = server._collect(slot)
    assert [r.n for r in requests] == [1, 2] and lingered is False
    assert [r.isolated for r in requests] == [True, False]
    # A worker killed mid-serve hands its requests back; an hour later the
    # head still carries the verdict of its arrival.
    clock.now += 3600.0
    server._requeue(requests)
    again, lingered = server._collect(slot)
    assert again == requests and lingered is False
    assert [r.isolated for r in again] == [True, False]


# --------------------------------------------------------------------------- #
# End to end
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["thread", "process"])
def test_isolated_request_is_served_at_once(kind):
    with _make(kind, max_wait=WINDOW) as server:
        # First request since start: isolated (and, in process mode, the
        # one that waits for the worker's startup handshake).
        server.submit(_req()).result(timeout=60)
        time.sleep(WINDOW * 1.2)  # idle for longer than the window
        assert _timed(server.submit(_req())) < AT_ONCE
        stats = server.stats()
    assert stats["batches_dispatched"] == stats["batches_immediate"] == 2


def test_isolated_request_is_served_at_once_through_the_async_door():
    async def run(server):
        aserver = AsyncServer(server)
        start = time.monotonic()
        await aserver.submit(_req())
        return time.monotonic() - start

    with _make("thread", max_wait=WINDOW) as server:
        assert asyncio.run(run(server)) < AT_ONCE


def test_a_request_on_the_heels_of_another_pays_the_window():
    with _make("thread", max_wait=WINDOW) as server:
        first = server.submit(_req())
        assert _timed(first) < AT_ONCE  # after idle: alone, at once
        # Its follower arrives inside the window the first would have
        # opened: a third may well be coming, so it lingers for it.
        assert _timed(server.submit(_req())) >= WINDOW
        stats = server.stats()
        lingered = [s.args["lingered"] for s in server.tracer.spans()
                    if s.name == "coalesce"]
    assert stats["batches_dispatched"] == 2
    assert stats["batches_immediate"] == 1
    assert lingered == [False, True]


def test_a_default_server_never_lingers():
    # max_wait defaults to 0: an idle worker serves a request at once, also
    # one on the heels of another.
    with _make("thread") as server:
        server.submit(_req()).result(timeout=30)
        server.submit(_req()).result(timeout=30)
        stats = server.stats()
        lingered = [s.args["lingered"] for s in server.tracer.spans()
                    if s.name == "coalesce"]
    assert stats["batches_immediate"] == stats["batches_dispatched"] == 2
    assert lingered == [False, False]


def test_process_workers_plan_gemm_stages():
    # A ProcServer worker builds a plain SessionPool: every step, the
    # linear head included, is planned for a compiled stage.  (Thread
    # workers keep GEMM steps on numpy; see frontend._ServerPool.)
    with using_codegen(True), _make("process", buckets=(1, 4)) as server:
        server.submit(_req()).result(timeout=60)
        (probe,) = server.probe_workers()
    assert sorted(probe["explain"]) == [1, 4]
    for rows in probe["explain"].values():
        assert rows and all(row["reason"] != "unplannable" for row in rows), rows


def test_back_to_back_burst_still_coalesces():
    n = 12
    with _make("thread", max_wait=WINDOW) as server:
        futures = [server.submit(_req()) for _ in range(n)]
        for future in futures:
            future.result(timeout=30)
        stats = server.stats()
    # The head of the burst may leave alone (or with whatever had queued
    # by the time the worker woke); everything behind it shares one window.
    assert stats["requests_completed"] == n
    assert stats["batches_dispatched"] <= 2


@pytest.mark.parametrize("kind", ["thread", "process"])
def test_linger_never_outlasts_a_collected_deadline(kind):
    # The window (3 s) is six times the request's whole budget: holding it
    # for stragglers served it late in thread mode and expired it in process
    # mode (the worker refuses a batch whose deadline has passed).  The
    # scale is what a loaded 2-vCPU box can honour: the linger stops at the
    # midpoint to the deadline, which leaves a forked worker 250 ms to pick
    # the batch up (a 50 ms budget left it 25 ms, and missed one run in nine).
    with _make(kind, max_wait=3.0) as server:
        server.submit(_req()).result(timeout=60)  # primes: the next follows it
        future = server.submit(_req(), timeout=0.5)
        assert _timed(future) < 1.5
        assert server.stats()["requests_expired"] == 0
