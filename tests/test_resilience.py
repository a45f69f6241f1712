"""Resilient serving: backpressure, deadlines, probes, stop semantics.

Deterministic failure timing comes from :mod:`repro.serve.faults` latency
injection: a known per-serve service time turns "the worker is busy" into a
schedulable event instead of a race.
"""

import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro import nn
from repro.autograd import no_grad
from repro.serve import (
    BACKPRESSURE_MODES,
    DeadlineExceeded,
    RetryPolicy,
    Server,
    ServerOverloaded,
    SupervisionPolicy,
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
# Policy objects
# --------------------------------------------------------------------------- #
def test_retry_policy_delays_and_transience():
    policy = RetryPolicy(max_retries=3, backoff_base=0.01, backoff_cap=0.03)
    assert policy.delay(0) == pytest.approx(0.01)
    assert policy.delay(1) == pytest.approx(0.02)
    assert policy.delay(2) == pytest.approx(0.03)  # capped
    assert policy.delay(10) == pytest.approx(0.03)
    from repro.serve import TransientError

    assert policy.is_transient(TransientError("x"))
    assert not policy.is_transient(ValueError("x"))
    with pytest.raises(ValueError, match="max_retries"):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError, match="backoff"):
        RetryPolicy(backoff_base=-0.1)


def test_supervision_policy_validation_and_backoff():
    policy = SupervisionPolicy(restart_backoff=0.01, restart_backoff_cap=0.04)
    assert policy.restart_delay(1) == pytest.approx(0.01)
    assert policy.restart_delay(2) == pytest.approx(0.02)
    assert policy.restart_delay(5) == pytest.approx(0.04)  # capped
    # A process that stays dead is counted every sweep; the 1 025th count
    # used to raise OverflowError on the watchdog thread.
    assert policy.restart_delay(5000) == pytest.approx(0.04)
    with pytest.raises(ValueError, match="watchdog_interval"):
        SupervisionPolicy(watchdog_interval=0.0)
    with pytest.raises(ValueError, match="stuck_timeout"):
        SupervisionPolicy(stuck_timeout=-1.0)
    with pytest.raises(ValueError, match="max_restarts"):
        SupervisionPolicy(max_restarts=-1)


def test_server_rejects_bad_resilience_config():
    model = _model()
    with pytest.raises(ValueError, match="queue_limit"):
        _server(model, queue_limit=0)
    with pytest.raises(ValueError, match="overload"):
        _server(model, overload="panic")
    with pytest.raises(ValueError, match="default_timeout"):
        _server(model, default_timeout=0.0)
    assert "panic" not in BACKPRESSURE_MODES


# --------------------------------------------------------------------------- #
# Backpressure
# --------------------------------------------------------------------------- #
def test_reject_mode_raises_and_keeps_depth_bounded():
    rng = np.random.default_rng(1)
    model = _model()
    with _server(model, queue_limit=2, overload="reject") as server:
        with inject_faults(server, latency=0.25):
            first = server.submit(_req(rng))
            time.sleep(0.05)  # first is collected and being served
            queued = [server.submit(_req(rng)) for _ in range(2)]
            with pytest.raises(ServerOverloaded, match="queue is full"):
                server.submit(_req(rng))
            stats = server.stats()
            assert stats["queue_depth"] <= 2
            assert stats["requests_rejected"] == 1
            for future in [first] + queued:
                assert future.result(timeout=5).shape == (1, 3)
    assert server.stats()["requests_rejected"] == 1


def test_shed_oldest_cancels_stalest_and_keeps_depth_bounded():
    rng = np.random.default_rng(2)
    model = _model()
    with _server(model, queue_limit=2, overload="shed_oldest") as server:
        with inject_faults(server, latency=0.25):
            first = server.submit(_req(rng))
            time.sleep(0.05)
            q1 = server.submit(_req(rng))
            q2 = server.submit(_req(rng))
            q3 = server.submit(_req(rng))  # sheds q1, the stalest
            assert server.stats()["queue_depth"] <= 2
            assert q1.cancelled()
            with pytest.raises(CancelledError):
                q1.result(timeout=1)
            for future in (first, q2, q3):
                assert future.result(timeout=5).shape == (1, 3)
            stats = server.stats()
            assert stats["requests_shed"] == 1
            assert stats["requests_rejected"] == 0


def test_shed_oldest_fails_a_requeued_request_instead_of_stranding_it():
    # A request re-queued after its worker was killed holds a RUNNING
    # future, which cancel() cannot take: shedding it must resolve it.
    rng = np.random.default_rng(2)
    slow_respawn = SupervisionPolicy(
        watchdog_interval=0.01, restart_backoff=5.0, restart_backoff_cap=5.0)
    with _server(_model(), workers=1, queue_limit=1, overload="shed_oldest",
                 supervision=slow_respawn) as server:
        with inject_faults(server, kill_on={1}) as chaos:
            first = server.submit(_req(rng))
            server._slots[0].thread.join(timeout=5)  # died, re-queued first
            assert chaos.killed == 1 and server.health()["queue_depth"] == 1
            second = server.submit(_req(rng))  # sheds first
            with pytest.raises(ServerOverloaded, match="shed"):
                first.result(timeout=1)
            assert server.stats()["requests_shed"] == 1
        server.stop(timeout=0.1)
    with pytest.raises(RuntimeError, match="unserved"):
        second.result(timeout=1)


def test_stop_without_draining_fails_a_requeued_request_instead_of_stranding_it():
    # stop(drain=False) cancels what is queued; a request re-queued after its
    # worker was killed holds a RUNNING future, which cancel() cannot take.
    rng = np.random.default_rng(2)
    slow_respawn = SupervisionPolicy(
        watchdog_interval=0.01, restart_backoff=5.0, restart_backoff_cap=5.0)
    server = _server(_model(), workers=1, supervision=slow_respawn).start()
    with inject_faults(server, kill_on={1}) as chaos:
        future = server.submit(_req(rng))
        server._slots[0].thread.join(timeout=5)  # died, re-queued the request
        assert chaos.killed == 1 and server.health()["queue_depth"] == 1
        server.stop(drain=False, timeout=1)
    assert future.done()
    with pytest.raises(RuntimeError, match="without draining"):
        future.result(timeout=0)


@pytest.mark.parametrize("bounded", [True, False], ids=["shed_oldest", "unbounded"])
def test_overload_burst_sheds_only_with_a_bounded_queue(bounded):
    # Capacity is one request per 2 ms and the whole burst arrives at once:
    # a bounded queue sheds the stalest, an unbounded one serves all 32.
    # Either way the completed requests carry a tail latency.
    rng = np.random.default_rng(3)
    kwargs = {"queue_limit": 8, "overload": "shed_oldest"} if bounded else {}
    with _server(_model(), buckets=(1,), workers=1, max_batch_size=1,
                 **kwargs) as server:
        with inject_faults(server, latency=0.002):
            futures = [server.submit(_req(rng)) for _ in range(32)]
            completed = 0
            for future in futures:
                try:
                    future.result(timeout=10)
                    completed += 1
                except CancelledError:
                    pass
            stats = server.stats()
    assert stats["latency_ms_p99"] > 0
    if bounded:
        assert stats["requests_shed"] > 0
        assert completed == 32 - stats["requests_shed"]
    else:
        assert stats["requests_shed"] == 0 and completed == 32


def test_block_mode_waits_for_space():
    rng = np.random.default_rng(3)
    model = _model()
    with _server(model, queue_limit=1, overload="block") as server:
        with inject_faults(server, latency=0.15):
            first = server.submit(_req(rng))
            time.sleep(0.05)
            queued = server.submit(_req(rng))  # fills the queue
            results = {}

            def blocked_submit():
                results["future"] = server.submit(_req(rng))

            thread = threading.Thread(target=blocked_submit)
            thread.start()
            thread.join(timeout=0.02)
            assert thread.is_alive()  # blocked: no space yet
            assert server.stats()["queue_depth"] <= 1
            thread.join(timeout=5)
            assert not thread.is_alive()
            for future in (first, queued, results["future"]):
                assert future.result(timeout=5).shape == (1, 3)


def test_block_mode_wakes_when_a_worker_sweeps_the_expired_head(hold_workers):
    # No watchdog: only the collecting worker can free the slot the expired
    # request holds, and it must wake the blocked submitter before it sleeps
    # on the emptied queue.
    rng = np.random.default_rng(3)
    with _server(_model(), workers=1, queue_limit=1, overload="block",
                 supervise=False) as server:
        results = {}
        thread = threading.Thread(
            target=lambda: results.setdefault("future", server.submit(_req(rng))))
        with hold_workers(server, _req(rng)) as (parked,):
            doomed = server.submit(_req(rng), timeout=0.001)  # fills the queue
            thread.start()
            thread.join(timeout=0.05)
            assert thread.is_alive()  # blocked: no space
        thread.join(timeout=5)
        assert not thread.is_alive()
        with pytest.raises(DeadlineExceeded):
            doomed.result(timeout=5)
        for future in (parked, results["future"]):
            assert future.result(timeout=5).shape == (1, 3)


def test_block_mode_honors_deadline_synchronously():
    rng = np.random.default_rng(4)
    model = _model()
    with _server(model, queue_limit=1, overload="block") as server:
        with inject_faults(server, latency=0.3):
            first = server.submit(_req(rng))
            time.sleep(0.05)
            queued = server.submit(_req(rng))
            start = time.monotonic()
            with pytest.raises(DeadlineExceeded, match="queue space"):
                server.submit(_req(rng), timeout=0.05)
            assert 0.04 <= time.monotonic() - start < 0.25
            assert server.stats()["requests_expired"] == 1
            for future in (first, queued):
                assert future.result(timeout=5).shape == (1, 3)


# --------------------------------------------------------------------------- #
# Deadlines
# --------------------------------------------------------------------------- #
def test_queued_request_expires_with_deadline_exceeded():
    rng = np.random.default_rng(5)
    model = _model()
    supervision = SupervisionPolicy(watchdog_interval=0.01)
    with _server(model, supervision=supervision) as server:
        with inject_faults(server, latency=0.3):
            first = server.submit(_req(rng))
            time.sleep(0.05)
            doomed = server.submit(_req(rng), timeout=0.05)
            with pytest.raises(DeadlineExceeded, match="expired"):
                doomed.result(timeout=5)
            assert first.result(timeout=5).shape == (1, 3)
        stats = server.stats()
    assert stats["requests_expired"] == 1
    assert stats["requests_completed"] == 1


def test_server_default_timeout_applies_without_explicit_timeout():
    rng = np.random.default_rng(6)
    model = _model()
    with _server(model, default_timeout=0.05) as server:
        with inject_faults(server, latency=0.3):
            first = server.submit(_req(rng))
            time.sleep(0.05)
            doomed = server.submit(_req(rng))  # inherits default_timeout
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=5)
            assert first.result(timeout=5).shape == (1, 3)
    assert server.stats()["requests_expired"] == 1


def test_submit_rejects_nonpositive_timeout():
    model = _model()
    with _server(model) as server:
        with pytest.raises(ValueError, match="timeout"):
            server.submit(np.zeros((1, 6), np.float32), timeout=0.0)


def test_unexpired_requests_are_served_normally_with_deadlines():
    rng = np.random.default_rng(7)
    model = _model()
    with _server(model, default_timeout=5.0) as server:
        data = _req(rng, 3)
        out = server.submit(data, timeout=5.0).result(timeout=5)
        assert out.shape == (3, 3)
    assert server.stats()["requests_expired"] == 0


# --------------------------------------------------------------------------- #
# Probes and stop semantics
# --------------------------------------------------------------------------- #
def test_health_and_ready_probes_across_lifecycle():
    model = _model()
    server = _server(model, workers=2)
    assert not server.ready()
    health = server.health()
    assert not health["started"] and health["workers_alive"] == 0
    server.start()
    assert server.ready()
    health = server.health()
    assert health["ready"] and health["workers_alive"] == 2
    assert health["workers_configured"] == 2
    assert health["worker_crashes"] == 0 and health["worker_restarts"] == 0
    server.stop()
    assert not server.ready()
    assert server.health()["stopping"]


def test_stop_timeout_bounds_shutdown_with_a_wedged_worker():
    # A worker wedged mid-serve must not hang stop(): the timeout expires,
    # stop returns, and the wedged batch still resolves when it finishes.
    rng = np.random.default_rng(8)
    model = _model()
    server = _server(model, supervise=False)
    server.start()
    with inject_faults(server, latency=0.5):
        future = server.submit(_req(rng))
        time.sleep(0.05)  # collected, now sleeping inside serve
        start = time.monotonic()
        server.stop(drain=True, timeout=0.1)
        assert time.monotonic() - start < 0.45
        assert future.result(timeout=5).shape == (1, 3)


def test_stop_drain_with_all_workers_dead_fails_queue_instead_of_hanging():
    # Satellite bugfix: stop(drain=True) after every worker died used to
    # strand the queued futures forever.
    from repro.serve import WorkerKill  # noqa: F401  (documents the path)

    rng = np.random.default_rng(9)
    model = _model()
    server = _server(model, supervise=False)
    server.start()
    with inject_faults(server, kill_on={1}):
        future = server.submit(_req(rng))
        time.sleep(0.1)  # the only worker is dead; the request re-queued
        assert server.health()["workers_alive"] == 0
        start = time.monotonic()
        server.stop(drain=True, timeout=2.0)
        assert time.monotonic() - start < 2.5
    with pytest.raises(RuntimeError, match="unserved"):
        future.result(timeout=1)


def test_stopped_server_still_reports_stats():
    rng = np.random.default_rng(10)
    model = _model()
    with _server(model) as server:
        data = _req(rng, 2)
        np.testing.assert_array_equal(
            server(data), _eager(model, data)
        )
    stats = server.stats()
    assert stats["requests_completed"] == 1
    for key in (
        "latency_ms_p99",
        "requests_rejected",
        "requests_shed",
        "requests_expired",
        "requests_failed",
        "batches_retried",
        "worker_restarts",
        "workers_alive",
    ):
        assert key in stats


def test_tbnet_serve_passes_resilience_knobs_through():
    from repro.models import TBNet, make_synthetic_batch
    from repro.nn.init import manual_seed

    manual_seed(11)
    model = TBNet(width=8)
    with model.serve(
        buckets=(1, 2), queue_limit=8, overload="reject", default_timeout=5.0
    ) as server:
        assert server.ready()
        images, context, _ = make_synthetic_batch(3, rng=np.random.default_rng(12))
        got = server(images.data, context.data)
        # Bucket decomposition (2+1) reassociates BLAS reductions, so the
        # whole request agrees with one eager forward only to tolerance.
        np.testing.assert_allclose(
            got, model.infer(images.data, context.data), rtol=1e-4, atol=1e-5
        )
        assert server.stats()["requests_rejected"] == 0
    manual_seed(13)
    bad = TBNet(width=8)
    with pytest.raises(ValueError, match="overload"):
        bad.serve(buckets=(1,), overload="bogus")
