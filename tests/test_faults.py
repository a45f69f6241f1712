"""Deterministic fault injection: isolation, retries, supervision.

These are the acceptance scenarios of the resilience layer, each driven by
seeded chaos hooks so the failure schedule is exact: a poisoned request
fails alone while co-batched requests succeed, transient faults are retried
with backoff, a killed worker is respawned by the watchdog, a crash loop
retires the slot and fails the queue loudly, and a stuck worker is replaced
by a fresh one.
"""

import time

import numpy as np
import pytest

from repro import nn
from repro.autograd import no_grad
from repro.serve import (
    FaultInjector,
    PoisonedRequest,
    RetryPolicy,
    Server,
    SessionPool,
    SupervisionPolicy,
    TransientError,
    inject_faults,
)


def _model(seed=0):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Linear(6, 8, rng=rng), nn.ReLU(), nn.Linear(8, 3, rng=rng)
    )
    model.eval()
    return model


def _req(rng, n=1):
    return rng.standard_normal((n, 6)).astype(np.float32)


def _eager(model, arr):
    with no_grad():
        return model(arr).data


def _server(model, **kwargs):
    kwargs.setdefault("buckets", (1, 2, 4))
    return Server(model, np.zeros((1, 6), np.float32), **kwargs)


# --------------------------------------------------------------------------- #
# The injector itself
# --------------------------------------------------------------------------- #
def test_injector_schedule_is_deterministic_on_a_bare_pool():
    model = _model()
    pool = SessionPool(model, np.zeros((1, 6), np.float32), buckets=(1, 2))
    rng = np.random.default_rng(0)
    data = _req(rng, 2)
    with inject_faults(pool, raise_on={2, 4}) as chaos:
        outcomes = []
        for _ in range(5):
            try:
                pool.serve(data)
                outcomes.append("ok")
            except TransientError:
                outcomes.append("fault")
    assert outcomes == ["ok", "fault", "ok", "fault", "ok"]
    assert chaos.calls == 5 and chaos.raised == 2
    # Uninstalled: the pool serves cleanly again.
    np.testing.assert_array_equal(pool.serve(data), _eager(model, data))


def test_injector_validates_configuration():
    with pytest.raises(ValueError, match="latency"):
        FaultInjector(latency=-0.1)
    with pytest.raises(ValueError, match="1-based"):
        FaultInjector(raise_on={0})
    with pytest.raises(ValueError, match="1-based"):
        FaultInjector(kill_on={-3})


def test_injector_latency_and_custom_fault_class():
    model = _model()
    pool = SessionPool(model, np.zeros((1, 6), np.float32), buckets=(1,))
    data = _req(np.random.default_rng(1))
    with inject_faults(pool, latency=0.05, raise_on={2}, fault=ValueError) as chaos:
        start = time.monotonic()
        pool.serve(data)
        assert time.monotonic() - start >= 0.05
        with pytest.raises(ValueError, match="injected fault"):
            pool.serve(data)
    assert chaos.delayed == 2 and chaos.raised == 1


# --------------------------------------------------------------------------- #
# Batch-failure isolation
# --------------------------------------------------------------------------- #
def test_poisoned_request_fails_alone_while_cobatched_succeed(hold_workers):
    rng = np.random.default_rng(2)
    model = _model()
    with _server(model, workers=1) as server:
        poison = lambda arrays: bool(np.isnan(arrays[0]).any())  # noqa: E731
        with inject_faults(server, poison=poison) as chaos:
            clean = [_req(rng) for _ in range(3)]
            bad = _req(rng)
            bad[0, 0] = np.nan
            # Occupy the worker so the next four requests coalesce into one
            # batch (max_batch_size = max bucket = 4).
            with hold_workers(server, _req(rng)) as (warm,):
                futures = [
                    server.submit(clean[0]),
                    server.submit(clean[1]),
                    server.submit(bad),
                    server.submit(clean[2]),
                ]
            assert warm.result(timeout=5).shape == (1, 3)
            # The poisoned request fails with the poison fault...
            with pytest.raises(PoisonedRequest):
                futures[2].result(timeout=5)
            # ...and every innocent co-batched request still succeeds,
            # matching its own eager forward.
            for arr, future in zip(
                [clean[0], clean[1], None, clean[2]], futures
            ):
                if arr is None:
                    continue
                np.testing.assert_allclose(
                    future.result(timeout=5), _eager(model, arr),
                    rtol=1e-4, atol=1e-5,
                )
            stats = server.stats()
    assert chaos.poisoned >= 1
    assert stats["requests_failed"] == 1
    assert stats["requests_completed"] == 4
    # Isolation re-served bisected halves (poison is non-transient: no
    # whole-batch retries, straight to bisection).
    assert stats["batches_retried"] >= 2


def test_transient_fault_is_retried_and_succeeds():
    rng = np.random.default_rng(3)
    model = _model()
    retry = RetryPolicy(max_retries=2, backoff_base=0.001)
    with _server(model, retry=retry) as server:
        with inject_faults(server, raise_on={1}) as chaos:
            data = _req(rng)
            np.testing.assert_array_equal(
                server.submit(data).result(timeout=5), _eager(model, data)
            )
        stats = server.stats()
    assert chaos.raised == 1 and chaos.calls == 2
    assert stats["batches_retried"] == 1
    assert stats["requests_failed"] == 0


def test_transient_retries_exhaust_then_fail_the_request():
    rng = np.random.default_rng(4)
    model = _model()
    retry = RetryPolicy(max_retries=1, backoff_base=0.001)
    with _server(model, retry=retry) as server:
        with inject_faults(server, raise_on={1, 2}) as chaos:
            future = server.submit(_req(rng))
            with pytest.raises(TransientError):
                future.result(timeout=5)
        stats = server.stats()
    assert chaos.raised == 2
    assert stats["batches_retried"] == 1  # one retry, then exhausted
    assert stats["requests_failed"] == 1


def test_nontransient_fault_fails_fast_without_retry():
    rng = np.random.default_rng(5)
    model = _model()
    with _server(model) as server:
        with inject_faults(server, raise_on={1}, fault=ValueError) as chaos:
            future = server.submit(_req(rng))
            with pytest.raises(ValueError):
                future.result(timeout=5)
        stats = server.stats()
    assert chaos.calls == 1  # no retry burned on a deterministic failure
    assert stats["batches_retried"] == 0
    assert stats["requests_failed"] == 1


def test_worker_survives_arbitrary_serve_exceptions():
    # The widened worker try (satellite bugfix): an exception anywhere in
    # the serve path fails the affected futures, not the worker thread.
    rng = np.random.default_rng(6)
    model = _model()
    with _server(model) as server:
        with inject_faults(server, raise_on={1}, fault=KeyError):
            future = server.submit(_req(rng))
            with pytest.raises(KeyError):
                future.result(timeout=5)
        # Same worker thread, still serving.
        assert server.health()["worker_restarts"] == 0
        data = _req(rng, 2)
        np.testing.assert_array_equal(
            server.submit(data).result(timeout=5), _eager(model, data)
        )


# --------------------------------------------------------------------------- #
# Worker supervision
# --------------------------------------------------------------------------- #
def test_killed_worker_is_respawned_and_the_request_still_served():
    rng = np.random.default_rng(7)
    model = _model()
    supervision = SupervisionPolicy(
        watchdog_interval=0.01, restart_backoff=0.001, restart_backoff_cap=0.01
    )
    with _server(model, supervision=supervision) as server:
        with inject_faults(server, kill_on={1}) as chaos:
            data = _req(rng)
            # The first serve call kills the worker; the watchdog respawns
            # it and the re-queued request is served on the second call.
            np.testing.assert_array_equal(
                server.submit(data).result(timeout=5), _eager(model, data)
            )
            health = server.health()
            assert health["workers_alive"] == 1
            assert health["worker_crashes"] == 1
            assert health["worker_restarts"] == 1
            assert server.ready()
            # Still serving afterwards.
            follow = _req(rng, 3)
            np.testing.assert_array_equal(
                server.submit(follow).result(timeout=5), _eager(model, follow)
            )
        stats = server.stats()
    assert chaos.killed == 1
    assert stats["worker_restarts"] == 1


def test_crash_loop_cap_holds_when_a_respawn_dies_within_the_sweep():
    # A crash loop retires the slot and fails the queue.  The respawned
    # thread collects the re-queued request and dies again before the
    # watchdog's sweep ends: the slot is dead with no respawn pending,
    # which must still count as recoverable (3 crashes, not "all workers
    # are dead" after the first).
    rng = np.random.default_rng(8)
    model = _model()
    supervision = SupervisionPolicy(
        watchdog_interval=0.005,
        max_restarts=2,
        restart_backoff=0.001,
        restart_backoff_cap=0.002,
    )
    with _server(model, supervision=supervision) as server:
        with inject_faults(server, kill_on=set(range(1, 50))) as chaos:
            future = server.submit(_req(rng))
            with pytest.raises(RuntimeError, match="all workers are dead"):
                future.result(timeout=5)
            assert not server.ready()
            health = server.health()
            assert health["workers_alive"] == 0
            assert health["worker_crashes"] == 3  # initial + 2 respawns
            assert health["worker_restarts"] == 2
            assert health["failed"] is not None
            with pytest.raises(RuntimeError, match="Server failed"):
                server.submit(_req(rng))
    assert chaos.killed == 3


def test_stuck_worker_is_replaced_and_new_requests_flow():
    rng = np.random.default_rng(9)
    model = _model()
    supervision = SupervisionPolicy(
        watchdog_interval=0.01, stuck_timeout=0.05
    )
    with _server(model, supervision=supervision) as server:
        with inject_faults(server, latency=0.4):
            wedged = server.submit(_req(rng))
            time.sleep(0.15)  # > stuck_timeout: the slot has been replaced
            health = server.health()
            assert health["workers_stuck"] == 1
            assert health["worker_restarts"] >= 1
            assert health["workers_alive"] >= 1
            # The replacement pool is fresh (not wrapped by the injector),
            # so a new request is served immediately, well before the
            # wedged 0.4 s batch would finish.
            data = _req(rng, 2)
            start = time.monotonic()
            np.testing.assert_array_equal(
                server.submit(data).result(timeout=5), _eager(model, data)
            )
            assert time.monotonic() - start < 0.3
            # The abandoned worker eventually finishes; its future still
            # resolves exactly once.
            assert wedged.result(timeout=5).shape == (1, 3)
