"""Threaded stress: concurrent submit()/stop() and cancel-while-collecting.

Races here are probabilistic by nature; the invariant under test is strict
all the same — every submitted future must reach a terminal state (result,
declared server-side error, or cancellation) and the server must never
deadlock or strand a client.  The per-test watchdog in ``conftest.py``
turns any regression into a fast failure instead of a hung run.
"""

import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro import nn
from repro.autograd import no_grad
from repro.serve import DeadlineExceeded, Server

#: Historical case ids, kept so they stay stable: the ``backend`` values
#: are plain parametrize values, and every case runs the same numpy kernels.
BACKENDS = ("numpy", "fused")


def _model(rng):
    model = nn.Sequential(
        nn.Linear(6, 8, rng=rng), nn.ReLU(), nn.Linear(8, 3, rng=rng)
    )
    model.eval()
    return model


def _eager(model, arr):
    with no_grad():
        return model(arr).data


@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_submit_and_stop_leaves_no_future_stranded(backend):
    rng = np.random.default_rng(20)
    model = _model(rng)
    server = Server(
        model, np.zeros((1, 6), np.float32), buckets=(1, 2, 4),
        workers=2,
    )
    server.start()
    futures = []
    futures_lock = threading.Lock()
    submit_errors = []

    def submitter(seed):
        local = np.random.default_rng(seed)
        for _ in range(40):
            data = local.standard_normal((int(local.integers(1, 4)), 6))
            try:
                future = server.submit(data.astype(np.float32))
            except RuntimeError:
                submit_errors.append("stopped")  # server already stopping
                return
            with futures_lock:
                futures.append(future)

    threads = [threading.Thread(target=submitter, args=(30 + i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    time.sleep(0.01)
    server.stop(drain=True, timeout=10.0)  # races the submitters
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    # Every accepted future reaches a terminal state quickly.
    outcomes = {"ok": 0, "error": 0, "cancelled": 0}
    for future in futures:
        try:
            out = future.result(timeout=10)
            assert out.shape[1] == 3
            outcomes["ok"] += 1
        except CancelledError:
            outcomes["cancelled"] += 1
        except (RuntimeError, DeadlineExceeded):
            outcomes["error"] += 1
    assert outcomes["ok"] >= 1  # the drain served what it accepted
    stats = server.stats()
    assert stats["queue_depth"] == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_cancel_while_collecting_race(backend):
    # Clients cancel futures at random moments — before collection, during
    # coalescing, after dispatch.  Whatever the interleaving: cancelled
    # futures never resolve with data, uncancelled futures always resolve
    # correctly, and the workers survive every outcome.
    rng = np.random.default_rng(21)
    model = _model(rng)
    with Server(
        model, np.zeros((1, 6), np.float32), buckets=(1, 2, 4),
        workers=2,
    ) as server:
        for wave in range(6):
            requests = [
                rng.standard_normal((1, 6)).astype(np.float32)
                for _ in range(24)
            ]
            futures = [server.submit(r) for r in requests]
            cancel_rng = np.random.default_rng(100 + wave)
            targets = cancel_rng.choice(len(futures), size=8, replace=False)

            def canceller():
                for i in targets:
                    futures[i].cancel()

            thread = threading.Thread(target=canceller)
            thread.start()
            thread.join(timeout=10)
            for i, (request, future) in enumerate(zip(requests, futures)):
                if future.cancelled():
                    with pytest.raises(CancelledError):
                        future.result(timeout=10)
                    continue
                np.testing.assert_allclose(
                    future.result(timeout=10), _eager(model, request),
                    rtol=1e-4, atol=1e-5,
                )
        # The server survived six waves of cancel races intact.
        assert server.ready()
        health = server.health()
        assert health["workers_alive"] == 2
        assert health["worker_crashes"] == 0
    stats = server.stats()
    assert stats["queue_depth"] == 0
    assert stats["requests_failed"] == 0


def test_many_threads_hammering_one_server():
    # Pure throughput smoke under client concurrency: every request from
    # every thread resolves to its own eager-equivalent rows.
    rng = np.random.default_rng(22)
    model = _model(rng)
    failures = []
    with Server(
        model, np.zeros((1, 6), np.float32), buckets=(1, 2, 4),
        workers=2, queue_limit=256, overload="block",
    ) as server:

        def client(seed):
            local = np.random.default_rng(seed)
            for _ in range(25):
                data = local.standard_normal((int(local.integers(1, 5)), 6))
                data = data.astype(np.float32)
                try:
                    out = server.submit(data, timeout=30.0).result(timeout=30)
                except BaseException as exc:  # noqa: BLE001 - collected for assert
                    failures.append(exc)
                    return
                if out.shape != (data.shape[0], 3):
                    failures.append(AssertionError(out.shape))
                    return

        threads = [threading.Thread(target=client, args=(40 + i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not failures
        stats = server.stats()
        assert stats["requests_completed"] == 6 * 25
        assert stats["requests_failed"] == 0
        assert stats["worker_restarts"] == 0
