"""Dynamic-batching front end: bucket routing, the request queue, sharding."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, no_grad
from repro.models import TBNet, make_synthetic_batch
from repro.nn.init import manual_seed
from repro.serve import Server, SessionPool

#: Historical case ids, kept so they stay stable: the ``backend`` values
#: are plain parametrize values, and every case runs the same numpy kernels.
BACKENDS = ("numpy", "fused")
AWKWARD_COUNTS = (1, 5, 63, 65, 129)


def _mlp(rng):
    model = nn.Sequential(
        nn.Linear(12, 16, rng=rng),
        nn.BatchNorm1d(16),
        nn.ReLU(),
        nn.Linear(16, 5, rng=rng),
    )
    for _ in range(3):  # warm the running statistics
        x = rng.standard_normal((32, 12)).astype(np.float32)
        model(x).sum().backward()
        model.zero_grad()
    model.eval()
    return model


def _eager(model, *arrays):
    with no_grad():
        return model(*arrays).data


# --------------------------------------------------------------------------- #
# SessionPool: decomposition and routing
# --------------------------------------------------------------------------- #
def test_greedy_decomposition():
    pool = SessionPool(_mlp(np.random.default_rng(0)),
                       np.zeros((1, 12), np.float32), buckets=(1, 4, 16, 64))
    assert pool.buckets == (64, 16, 4, 1)
    assert pool.decompose(129) == ([64, 64, 1], 0)
    assert pool.decompose(85) == ([64, 16, 4, 1], 0)
    assert pool.decompose(3) == ([1, 1, 1], 0)
    assert pool.decompose(0) == ([], 0)
    with pytest.raises(ValueError, match=">= 0"):
        pool.decompose(-1)


def test_decomposition_remainder_without_unit_bucket():
    pool = SessionPool(_mlp(np.random.default_rng(0)),
                       np.zeros((1, 12), np.float32), buckets=(4, 16))
    assert pool.decompose(21) == ([16, 4], 1)
    assert pool.decompose(3) == ([], 3)


def test_bucket_validation():
    model = _mlp(np.random.default_rng(0))
    with pytest.raises(ValueError, match="positive"):
        SessionPool(model, np.zeros((1, 12), np.float32), buckets=(0, 4))
    with pytest.raises(ValueError, match="at least one bucket"):
        SessionPool(model, np.zeros((1, 12), np.float32), buckets=())


@pytest.mark.parametrize("backend", BACKENDS)
def test_pool_is_bit_equal_to_eager_for_awkward_counts(backend):
    # The numerics contract: every routed chunk is bit-equal to the eager
    # no_grad forward of exactly those samples, for every awkward count.
    rng = np.random.default_rng(1)
    model = _mlp(rng)
    pool = SessionPool(model, rng.standard_normal((2, 12)).astype(np.float32))
    for n in AWKWARD_COUNTS:
        data = rng.standard_normal((n, 12)).astype(np.float32)
        out = pool.serve(data)
        assert out.shape == (n, 5)
        chunks, remainder = pool.decompose(n)
        assert remainder == 0  # size-1 bucket: no eager last resort
        start = 0
        for chunk in chunks:
            np.testing.assert_array_equal(
                out[start : start + chunk],
                _eager(model, data[start : start + chunk]),
            )
            start += chunk
    assert pool.eager_calls == 0


def test_pool_routes_greedily_and_counts():
    rng = np.random.default_rng(2)
    pool = SessionPool(_mlp(rng), np.zeros((1, 12), np.float32))
    pool.serve(np.zeros((85, 12), np.float32))
    assert pool.bucket_calls == {64: 1, 16: 1, 4: 1, 1: 1}
    pool.serve(np.zeros((129, 12), np.float32))
    assert pool.bucket_calls == {64: 3, 16: 1, 4: 1, 1: 2}
    assert pool.eager_calls == 0


def test_pool_partial_only_stream_uses_eager_last_resort():
    # Smaller than every bucket: the eager fallback is the last resort.
    rng = np.random.default_rng(3)
    model = _mlp(rng)
    pool = SessionPool(model, np.zeros((1, 12), np.float32), buckets=(4, 16))
    data = rng.standard_normal((3, 12)).astype(np.float32)
    out = pool.serve(data)
    np.testing.assert_array_equal(out, _eager(model, data))
    assert pool.eager_calls == 1
    assert all(count == 0 for count in pool.bucket_calls.values())


def test_pool_zero_samples_is_pinned():
    pool = SessionPool(_mlp(np.random.default_rng(4)), np.zeros((1, 12), np.float32))
    out = pool.serve(np.zeros((0, 12), np.float32))
    assert out.shape == (0, 5)
    assert out.dtype == np.float32
    assert pool.eager_calls == 0 and all(v == 0 for v in pool.bucket_calls.values())


def test_pool_validates_shapes_and_dtypes():
    pool = SessionPool(_mlp(np.random.default_rng(5)), np.zeros((1, 12), np.float32))
    with pytest.raises(ValueError, match="per-sample shape"):
        pool.serve(np.zeros((4, 11), np.float32))
    with pytest.raises(ValueError, match="dtype"):
        pool.serve(np.zeros((4, 12), np.float64))
    with pytest.raises(ValueError, match="out has shape"):
        pool.serve(np.zeros((4, 12), np.float32), out=np.zeros((3, 5), np.float32))
    with pytest.raises(ValueError, match="out has dtype"):
        pool.serve(np.zeros((4, 12), np.float32), out=np.zeros((4, 5), np.float64))


def test_pool_rejects_reduced_outputs():
    class MeanHead(nn.Module):
        def forward(self, x):
            return Tensor._wrap(x).sum(axis=0)

    model = MeanHead()
    model.eval()
    with pytest.raises(ValueError, match="per-sample"):
        SessionPool(model, np.zeros((2, 3), np.float32), buckets=(2, 4))


def test_pool_parameters_stay_bound_by_reference():
    rng = np.random.default_rng(6)
    model = nn.Sequential(nn.Linear(6, 3, rng=rng))
    model.eval()
    pool = SessionPool(model, np.zeros((1, 6), np.float32), buckets=(1, 4))
    data = rng.standard_normal((5, 6)).astype(np.float32)
    before = pool.serve(data).copy()
    model[0].weight.data += 1.0  # in-place fine-tune, no recompile
    after = pool.serve(data)
    assert not np.array_equal(before, after)
    chunks, _ = pool.decompose(5)
    start = 0
    for chunk in chunks:
        np.testing.assert_array_equal(
            after[start : start + chunk], _eager(model, data[start : start + chunk])
        )
        start += chunk


@pytest.mark.parametrize("backend", BACKENDS)
def test_tbnet_pool_round_trip(backend):
    manual_seed(31)
    model = TBNet(width=8)
    model.eval()
    pool = SessionPool(
        model,
        (Tensor.zeros(1, 3, 16, 16), Tensor.zeros(1, 16)),
        buckets=(1, 4, 16),
    )
    images, context, _ = make_synthetic_batch(21, rng=np.random.default_rng(8))
    out = pool.serve((images, context))
    start = 0
    for chunk in pool.decompose(21)[0]:
        np.testing.assert_array_equal(
            out[start : start + chunk],
            model.infer(
                images.data[start : start + chunk],
                context.data[start : start + chunk],
            ),
        )
        start += chunk


# --------------------------------------------------------------------------- #
# Server: the request queue
# --------------------------------------------------------------------------- #
def test_server_serves_requests_bit_equal_per_dispatch():
    # A full-bucket request with an otherwise empty queue is dispatched
    # alone, so its result is bit-equal to the eager forward of the request.
    rng = np.random.default_rng(10)
    model = _mlp(rng)
    with Server(model, np.zeros((1, 12), np.float32), buckets=(1, 4, 16)) as server:
        data = rng.standard_normal((16, 12)).astype(np.float32)
        np.testing.assert_array_equal(server(data), _eager(model, data))


def test_server_coalesces_and_scatters_correct_rows(hold_workers):
    rng = np.random.default_rng(11)
    model = _mlp(rng)
    requests = [rng.standard_normal((n, 12)).astype(np.float32) for n in (1, 3, 1, 2, 5, 1, 1, 2)]
    with Server(
        model, np.zeros((1, 12), np.float32), buckets=(1, 4, 16), workers=2,
    ) as server:
        # Both workers busy: the 16-sample burst queues whole, and the
        # first worker back takes all of it as one batch.
        with hold_workers(server, requests[0]) as parked:
            futures = [server.submit(r) for r in requests]
        for future in parked:
            future.result(timeout=10)
        for request, future in zip(requests, futures):
            got = future.result(timeout=10)
            assert got.shape == (request.shape[0], 5)
            # Coalescing/bucket boundaries may reassociate BLAS reductions,
            # so cross-request rows agree with eager only to tolerance (a
            # scatter bug would swap whole rows, far outside it).
            np.testing.assert_allclose(
                got, _eager(model, request), rtol=1e-4, atol=1e-5
            )
        stats = server.stats()
    assert stats["requests_completed"] == len(requests) + 2
    assert stats["samples_completed"] == sum(r.shape[0] for r in requests) + 2
    assert stats["batches_dispatched"] == 3
    assert stats["queue_depth"] == 0


def test_server_results_are_owned_copies():
    rng = np.random.default_rng(12)
    model = _mlp(rng)
    with Server(model, np.zeros((1, 12), np.float32), buckets=(1, 4)) as server:
        futures = [
            server.submit(rng.standard_normal((1, 12)).astype(np.float32))
            for _ in range(8)
        ]
        results = [f.result(timeout=10) for f in futures]
    for a in results:
        assert a.flags.writeable
    # Writing into one result must not disturb any other.
    snapshot = [a.copy() for a in results]
    results[0][:] = -1.0
    for a, b in zip(results[1:], snapshot[1:]):
        np.testing.assert_array_equal(a, b)


def test_server_metrics_shape(hold_workers):
    rng = np.random.default_rng(13)
    model = _mlp(rng)
    with Server(
        model, np.zeros((1, 12), np.float32), buckets=(1, 4, 16)
    ) as server:
        with hold_workers(server, np.zeros((1, 12), np.float32)) as parked:
            futures = [
                server.submit(rng.standard_normal((1, 12)).astype(np.float32))
                for _ in range(32)
            ]
        for future in parked + futures:
            future.result(timeout=10)
        stats = server.stats()
    # Batching happened: the parked request, then two full batches of 16.
    assert stats["batches_dispatched"] == 3
    assert stats["batch_occupancy"] == pytest.approx(33 / 48)
    assert stats["latency_ms_p95"] >= stats["latency_ms_p50"] > 0.0
    assert stats["throughput_rps"] > 0.0
    # Each dispatch decomposes into >= 1 bucket runs.
    assert sum(stats["bucket_calls"].values()) >= stats["batches_dispatched"]


def test_server_submit_validates_synchronously():
    model = _mlp(np.random.default_rng(14))
    with Server(model, np.zeros((1, 12), np.float32), buckets=(1, 4)) as server:
        with pytest.raises(ValueError, match="per-sample shape"):
            server.submit(np.zeros((2, 11), np.float32))
        with pytest.raises(ValueError, match="dtype"):
            server.submit(np.zeros((2, 12), np.float64))
        # Zero-sample requests resolve immediately.
        empty = server.submit(np.zeros((0, 12), np.float32)).result(timeout=1)
        assert empty.shape == (0, 5)


def test_server_lifecycle():
    model = _mlp(np.random.default_rng(15))
    server = Server(model, np.zeros((1, 12), np.float32), buckets=(1, 4))
    with pytest.raises(RuntimeError, match="not running"):
        server.submit(np.zeros((1, 12), np.float32))
    server.start()
    future = server.submit(np.zeros((1, 12), np.float32))
    server.stop()  # drains: the pending future completes
    assert future.result(timeout=1).shape == (1, 5)
    with pytest.raises(RuntimeError, match="not running"):
        server.submit(np.zeros((1, 12), np.float32))
    with pytest.raises(RuntimeError, match="restarted"):
        server.start()


def test_server_survives_cancelled_futures():
    # A queued future a client cancels must be dropped at dispatch, not
    # resolved (set_result on a cancelled future raises InvalidStateError
    # and would kill the worker thread, hanging every later request).
    rng = np.random.default_rng(19)
    model = _mlp(rng)
    with Server(
        model, np.zeros((1, 12), np.float32), buckets=(1, 4)
    ) as server:
        first = server.submit(rng.standard_normal((1, 12)).astype(np.float32))
        second = server.submit(rng.standard_normal((1, 12)).astype(np.float32))
        second.cancel()  # may race the worker; either outcome must be safe
        first.result(timeout=10)
        # The worker is still alive and serving.
        data = rng.standard_normal((2, 12)).astype(np.float32)
        got = server.submit(data).result(timeout=10)
        np.testing.assert_allclose(got, _eager(model, data), rtol=1e-4, atol=1e-5)
        stats = server.stats()
    assert stats["queue_depth"] == 0


def test_server_occupancy_stays_a_fraction_for_oversized_requests():
    # Requests larger than max_batch_size dispatch alone; occupancy counts
    # them as one full dispatch instead of exceeding 1.0.
    rng = np.random.default_rng(20)
    model = _mlp(rng)
    with Server(
        model, np.zeros((1, 12), np.float32), buckets=(1, 4), max_batch_size=4
    ) as server:
        out = server(rng.standard_normal((10, 12)).astype(np.float32))
        assert out.shape == (10, 5)
        stats = server.stats()
    assert stats["batches_dispatched"] == 1
    assert stats["batch_occupancy"] == 1.0


def test_server_rejects_bad_config():
    model = _mlp(np.random.default_rng(16))
    with pytest.raises(ValueError, match="workers"):
        Server(model, np.zeros((1, 12), np.float32), workers=0)
    with pytest.raises(ValueError, match="max_batch_size"):
        Server(model, np.zeros((1, 12), np.float32), max_batch_size=0)


def test_tbnet_serve_convenience():
    manual_seed(17)
    model = TBNet(width=8)
    with model.serve(buckets=(1, 4), workers=1) as server:
        assert not model.training  # serve() switches to eval
        images, context, _ = make_synthetic_batch(4, rng=np.random.default_rng(18))
        got = server(images.data, context.data)
        np.testing.assert_array_equal(got, model.infer(images.data, context.data))
