"""The batcher's one policy: an idle worker serves what is queued at once,
and batches form only from requests that queue while every worker is busy.

The collect loop is driven directly under a scripted clock (no worker
threads, no sleeps); the end-to-end checks time a serial request against a
bound far above a single serve, and hold the worker to queue a burst.
"""

import asyncio
import time

import numpy as np
import pytest

from repro import nn
from repro.codegen import using_codegen
from repro.serve import AsyncServer, ProcServer, Server
from repro.serve import frontend

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
# The collect loop, under a scripted clock
# --------------------------------------------------------------------------- #
class _Clock:
    """Stands in for the ``time`` module inside ``repro.serve.frontend``."""

    def __init__(self, now=100.0):
        self.now = now

    def monotonic(self):
        return self.now


def test_collect_takes_whole_queued_requests_and_never_waits(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(frontend, "time", clock)
    server = _make("thread", max_batch_size=4)
    server._started = True  # accept submits without spawning workers
    slot = server._slots[0]

    def no_wait(timeout=None):
        raise AssertionError(f"_collect waited (timeout={timeout})")

    server._cond.wait = no_wait  # the clock is frozen: a wait never ends
    expired = server.submit(_req(), timeout=1.0)
    ones = [server.submit(_req()), server.submit(_req(2))]
    cancelled = server.submit(_req())
    cancelled.cancel()
    rest = [server.submit(_req(2)), server.submit(_req(5))]
    clock.now += 2.0
    # The expired head is resolved and the cancelled one dropped, never
    # served; whole requests fill up to max_batch_size, and a request
    # larger than it leaves alone.
    batches = [server._collect(slot) for _ in range(3)]
    assert [[r.n for r in batch] for batch in batches] == [[1, 2], [2], [5]]
    assert [r.future for r in batches[0] + batches[1]] == ones + rest[:1]
    assert isinstance(expired.exception(timeout=0), frontend.DeadlineExceeded)
    assert cancelled.cancelled() and not server._queue
    # A killed worker's requests go back to the head and are collected
    # again, still RUNNING, ahead of later arrivals.
    late = server.submit(_req(2))
    server._requeue(batches[0])
    again = server._collect(slot)
    assert again == batches[0] and all(r.future.running() for r in again)
    assert [r.future for r in server._collect(slot)] == [late]


# --------------------------------------------------------------------------- #
# End to end
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["thread", "process"])
def test_isolated_request_is_served_at_once(kind):
    with _make(kind) as server:
        # The first request (in process mode, the one that waits for the
        # worker's startup handshake), then one with nothing else in flight.
        server.submit(_req()).result(timeout=60)
        assert _timed(server.submit(_req())) < AT_ONCE
        stats = server.stats()
    assert stats["batches_dispatched"] == 2


def test_isolated_request_is_served_at_once_through_the_async_door():
    async def run(server):
        aserver = AsyncServer(server)
        start = time.monotonic()
        await aserver.submit(_req())
        return time.monotonic() - start

    with _make("thread") as server:
        assert asyncio.run(run(server)) < AT_ONCE


def test_a_default_server_never_lingers():
    # A request on the heels of another is served at once, alone: nothing
    # holds it for a companion that may follow.
    with _make("thread") as server:
        assert _timed(server.submit(_req())) < AT_ONCE
        assert _timed(server.submit(_req())) < AT_ONCE
        stats = server.stats()
        coalesced = [s.args["batch_requests"] for s in server.tracer.spans()
                     if s.name == "coalesce"]
    assert stats["batches_dispatched"] == 2
    assert coalesced == [1, 1]


def test_process_workers_plan_gemm_stages():
    # A ProcServer worker builds a plain SessionPool: every step, the
    # linear head included, is planned for a compiled stage.  (Thread
    # workers keep convs, and a linear with nothing after it, on numpy; see
    # frontend._ServerPool.)
    with using_codegen(True), _make("process", buckets=(1, 4)) as server:
        server.submit(_req()).result(timeout=60)
        (probe,) = server.probe_workers()
    assert sorted(probe["explain"]) == [1, 4]
    for rows in probe["explain"].values():
        assert rows and all(row["reason"] != "unplannable" for row in rows), rows


def test_back_to_back_burst_still_coalesces(hold_workers):
    n = 12
    with _make("thread") as server:
        with hold_workers(server, _req()) as parked:
            futures = [server.submit(_req()) for _ in range(n)]
        for future in parked + futures:
            future.result(timeout=30)
        stats = server.stats()
    # The burst queued behind the busy worker leaves as one batch.
    assert stats["requests_completed"] == n + 1
    assert stats["batches_dispatched"] == 2
