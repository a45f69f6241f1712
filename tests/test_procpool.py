"""Process-sharded serving: shared-memory arenas, worker processes,
cross-process resilience, asyncio front door.

The contract under test is the PR 6 thread-mode contract transplanted onto
real OS processes: bit-identical results (determinism propagated under
``fork`` and ``spawn``), kill → respawn (including SIGKILL from outside),
crash-loop retirement, deadline expiry across the ring, bounded ``stop()``
— plus the process-specific guarantees: zero-copy rings (nothing pickled
on the hot path), versioned hot weight swaps, and **no leaked /dev/shm
segment** no matter how a worker dies.
"""

import asyncio
import os
import signal
import time

import numpy as np
import pytest

from repro import nn
from repro.autograd import no_grad
from repro.backend.registry import get_rng_state, manual_seed
from repro.codegen.jit import enable_codegen
from repro.models import TBNet
from repro.serve import (
    AsyncServer,
    DeadlineExceeded,
    ParamArena,
    ProcServer,
    RequestRing,
    Server,
    SupervisionPolicy,
    inject_faults,
)

HAVE_DEV_SHM = os.path.isdir("/dev/shm")

needs_dev_shm = pytest.mark.skipif(
    not HAVE_DEV_SHM, reason="segment-leak assertions list /dev/shm"
)


def _segments():
    return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}


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


_FAST = SupervisionPolicy(
    watchdog_interval=0.01, restart_backoff=0.001, restart_backoff_cap=0.01
)


def _server(model, **kwargs):
    kwargs.setdefault("buckets", (1, 2, 4))
    kwargs.setdefault("supervision", _FAST)
    return ProcServer(model, np.zeros((1, 6), np.float32), **kwargs)


# --------------------------------------------------------------------------- #
# Arena + ring primitives
# --------------------------------------------------------------------------- #
def test_arena_publish_attach_and_hot_swap_roundtrip():
    rng = np.random.default_rng(0)
    state = {
        "w": rng.standard_normal((4, 3)).astype(np.float32),
        "b": rng.standard_normal(3).astype(np.float64),
    }
    arena = ParamArena.create(state)
    try:
        assert arena.version == 1 and arena.active_bank == 0
        attached = ParamArena.attach(arena.spec())
        try:
            views = attached.views()
            for key in state:
                np.testing.assert_array_equal(views[key], state[key])
                assert views[key].dtype == state[key].dtype
            # Hot swap: new bytes land in the other bank, version bumps,
            # fresh views see them; the old views still alias the old bank.
            new_state = {k: v + 1 for k, v in state.items()}
            assert arena.publish(new_state) == 2
            assert attached.read_header() == (2, 1)
            for key in state:
                np.testing.assert_array_equal(
                    attached.views()[key], new_state[key]
                )
                np.testing.assert_array_equal(views[key], state[key])
        finally:
            attached.close()
    finally:
        arena.destroy()


def test_arena_publish_rejects_mismatched_state():
    arena = ParamArena.create({"w": np.zeros((2, 2), np.float32)})
    try:
        with pytest.raises(ValueError, match="missing arena keys"):
            arena.publish({})
        with pytest.raises(ValueError, match="fixed at create"):
            arena.publish({"w": np.zeros((3, 2), np.float32)})
        assert arena.version == 1  # failed publishes never tear the bank
    finally:
        arena.destroy()


def test_request_ring_slot_views_roundtrip():
    ring = RequestRing.create(
        [((6,), np.dtype(np.float32)), ((2,), np.dtype(np.float64))],
        ((3,), np.dtype(np.float32)),
        capacity=4, slots=2,
    )
    try:
        attached = RequestRing.attach(ring.spec())
        try:
            rng = np.random.default_rng(1)
            a = rng.standard_normal((3, 6)).astype(np.float32)
            b = rng.standard_normal((3, 2))
            for view, arr in zip(ring.input_views(1, 3), (a, b)):
                view[...] = arr
            got = attached.input_views(1, 3)
            np.testing.assert_array_equal(got[0], a)
            np.testing.assert_array_equal(got[1], b)
            attached.output_view(1, 3)[...] = 7.0
            assert np.all(ring.output_view(1, 3) == 7.0)
            with pytest.raises(ValueError, match="n must be in"):
                ring.input_views(0, 5)
        finally:
            attached.close()
    finally:
        ring.destroy()


# --------------------------------------------------------------------------- #
# Determinism: bit-identical to thread mode, env/RNG propagation
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_process_mode_is_bit_identical_to_thread_mode(start_method):
    rng = np.random.default_rng(3)
    manual_seed(3)
    model = TBNet(width=4, image_size=8, context_dim=8, rng=rng)
    model.eval()
    sizes = [1, 3, 5]
    reqs = [
        (rng.standard_normal((n, 3, 8, 8)).astype(np.float32),
         rng.standard_normal((n, 8)).astype(np.float32))
        for n in sizes
    ]
    example = (reqs[0][0][:1], reqs[0][1][:1])
    with Server(model, example, buckets=(1, 2)) as threaded:
        # Serial submits: one request per dispatch, so the bucket
        # decomposition (and therefore the numerics) is deterministic.
        expected = [threaded.submit(*r).result(timeout=30) for r in reqs]
    with ProcServer(model, example, buckets=(1, 2), workers=1,
                    start_method=start_method,
                    model_factory=model.spawn_factory()) as proc:
        got = [proc.submit(*r).result(timeout=120) for r in reqs]
    for want, have in zip(expected, got):
        assert want.tobytes() == have.tobytes()


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_env_and_rng_state_propagate_into_workers(start_method):
    model = _model()
    manual_seed(20240607)
    expected_rng = np.random.default_rng()
    expected_rng.bit_generator.state = get_rng_state()
    expected_draw = float(expected_rng.standard_normal())
    enable_codegen(False)
    try:
        with _server(model, workers=1, start_method=start_method,
                     buckets=(1, 2)) as server:
            server.submit(_req(np.random.default_rng(0))).result(timeout=60)
            (probe,) = server.probe_workers(rng_draw=True)
            # A probed worker goes on serving.
            server.submit(_req(np.random.default_rng(0))).result(timeout=60)
    finally:
        enable_codegen(None)
    assert probe["pid"] != os.getpid()
    assert probe["codegen"] is False
    assert probe["rng_draw"] == expected_draw


# --------------------------------------------------------------------------- #
# Serving behavior parity
# --------------------------------------------------------------------------- #
def test_coalesced_traffic_matches_eager_and_routes_buckets():
    rng = np.random.default_rng(5)
    model = _model()
    with _server(model, workers=2) as server:
        batches = [_req(rng, n) for n in (1, 2, 3, 4, 1, 2)]
        futures = [server.submit(b) for b in batches]
        for batch, future in zip(batches, futures):
            np.testing.assert_array_equal(
                future.result(timeout=30), _eager(model, batch)
            )
        stats = server.stats()
        assert stats["mode"] == "process"
        assert sum(stats["bucket_calls"].values()) >= 1
        assert stats["requests_completed"] == len(batches)


def test_zero_sample_and_validation_errors_stay_synchronous():
    model = _model()
    with _server(model, workers=1) as server:
        out = server.submit(np.zeros((0, 6), np.float32)).result(timeout=5)
        assert out.shape == (0, 3)
        with pytest.raises(ValueError, match="dtype"):
            server.submit(np.zeros((2, 6), np.float64))
        with pytest.raises(ValueError, match="per-sample shape"):
            server.submit(np.zeros((2, 5), np.float32))


def test_oversized_request_takes_pipe_fallback():
    rng = np.random.default_rng(6)
    model = _model()
    with _server(model, workers=1, buckets=(1, 2)) as server:
        big = _req(rng, 9)  # ring capacity is max bucket = 2
        np.testing.assert_array_equal(
            server.submit(big).result(timeout=30), _eager(model, big)
        )
        stats = server.stats()
        assert stats["pipe_fallbacks"] == 1.0


def test_proc_server_rejects_train_mode_models():
    model = _model()
    model.train()
    with pytest.raises(ValueError, match="eval-mode"):
        ProcServer(model, np.zeros((1, 6), np.float32), buckets=(1, 2))


def test_stats_and_health_gain_process_keys_and_keep_old_ones():
    model = _model()
    with _server(model, workers=2) as server:
        server.submit(_req(np.random.default_rng(0), 2)).result(timeout=30)
        stats = server.stats()
        for key in ("queue_depth", "requests_completed", "latency_ms_p99",
                    "worker_restarts", "bucket_calls"):  # PR 5/6 keys intact
            assert key in stats
        assert stats["mode"] == "process"
        assert stats["start_method"] in ("fork", "spawn", "forkserver")
        assert stats["arena_version"] == 1.0
        workers = stats["workers"]
        assert len(workers) == 2
        for worker in workers:
            assert worker["alive"] and worker["pid"] > 0
            assert worker["process_restarts"] == 0
        health = server.health()
        assert health["ready"] is True and health["workers_alive"] == 2
        assert health["mode"] == "process"
        assert health["processes_alive"] == 2
        assert len(health["worker_pids"]) == 2
        assert health["arena_version"] == 1


def test_tbnet_serve_workers_mode_process():
    rng = np.random.default_rng(11)
    model = TBNet(width=4, image_size=8, context_dim=8, rng=rng)
    images = rng.standard_normal((3, 3, 8, 8)).astype(np.float32)
    context = rng.standard_normal((3, 8)).astype(np.float32)
    with model.serve(buckets=(1, 2), workers=1,
                     workers_mode="process") as server:
        assert server.mode == "process"
        out = server.submit(images, context).result(timeout=60)
        with no_grad():
            np.testing.assert_array_equal(
                out, model(images, context).data
            )
    with pytest.raises(ValueError, match="workers_mode"):
        model.serve(workers_mode="gpu")


# --------------------------------------------------------------------------- #
# Hot weight swap
# --------------------------------------------------------------------------- #
def test_publish_weights_hot_swaps_without_restarting_workers():
    rng = np.random.default_rng(12)
    model = _model(seed=12)
    data = _req(rng, 3)
    with _server(model, workers=1) as server:
        before = server.submit(data).result(timeout=30)
        pid = server.stats()["workers"][0]["pid"]
        for _name, param in model.named_parameters():
            param.data *= 1.25
        assert server.publish_weights() == 2
        after = server.submit(data).result(timeout=30)
        stats = server.stats()
        assert stats["workers"][0]["pid"] == pid  # same process, new weights
        assert stats["workers"][0]["arena_version"] == 2
    assert not np.array_equal(before, after)
    np.testing.assert_array_equal(after, _eager(model, data))


def test_publishing_changed_buffers_recompiles_folded_sessions():
    rng = np.random.default_rng(13)
    manual_seed(13)
    model = TBNet(width=4, image_size=8, context_dim=8, rng=rng)
    # Give the batch-norm running stats non-trivial values, then eval.
    model.train()
    images = rng.standard_normal((8, 3, 8, 8)).astype(np.float32)
    context = rng.standard_normal((8, 8)).astype(np.float32)
    with no_grad():
        model(images, context)
    model.eval()
    example = (images[:1], context[:1])
    with ProcServer(model, example, buckets=(1, 2), workers=1) as server:
        before = server.submit(images[:3], context[:3]).result(timeout=60)
        # Shift a BN running mean: folded compiled constants go stale.
        for name, module in model.named_modules():
            if "running_mean" in module._buffers:
                module._buffers["running_mean"] = (
                    module._buffers["running_mean"] + 0.5
                )
                break
        server.publish_weights()
        after = server.submit(images[:3], context[:3]).result(timeout=60)
        with no_grad():
            expected = model(images[:3], context[:3]).data
    assert not np.array_equal(before, after)
    assert after.tobytes() == expected.tobytes()


# --------------------------------------------------------------------------- #
# Resilience: the PR 6 contract against real processes
# --------------------------------------------------------------------------- #
def test_injected_kill_takes_down_the_process_and_respawns():
    rng = np.random.default_rng(14)
    model = _model()
    with _server(model, workers=1) as server:
        first_pid = server.stats()["workers"][0]["pid"]
        with inject_faults(server, kill_on={1}) as chaos:
            data = _req(rng)
            np.testing.assert_array_equal(
                server.submit(data).result(timeout=30), _eager(model, data)
            )
        health = server.health()
        assert health["worker_crashes"] >= 1
        assert server.ready()
        # The injected WorkerKill SIGKILLed the real OS process.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            workers = server.stats()["workers"]
            if workers[0]["alive"] and workers[0]["pid"] != first_pid:
                break
            time.sleep(0.02)
        workers = server.stats()["workers"]
        assert workers[0]["alive"] and workers[0]["pid"] != first_pid
    assert chaos.killed == 1


def test_external_sigkill_mid_batch_request_is_still_served():
    rng = np.random.default_rng(15)
    model = _model()
    before = _segments() if HAVE_DEV_SHM else None
    with _server(model, workers=1, worker_latency=0.4) as server:
        data = _req(rng, 2)
        future = server.submit(data)
        time.sleep(0.15)  # batch is in flight inside the worker process
        pid = server.stats()["workers"][0]["pid"]
        os.kill(pid, signal.SIGKILL)
        # Death detected -> WorkerKill -> requeue -> respawn -> served.
        np.testing.assert_array_equal(
            future.result(timeout=60), _eager(model, data)
        )
        assert server.stats()["workers"][0]["pid"] != pid
    if before is not None:
        assert _segments() - before == set()


def test_idle_process_death_is_noticed_and_respawned_by_the_watchdog():
    model = _model()
    with _server(model, workers=1) as server:
        pid = server.stats()["workers"][0]["pid"]
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            worker = server.stats()["workers"][0]
            if worker["alive"] and worker["pid"] != pid:
                break
            time.sleep(0.02)
        worker = server.stats()["workers"][0]
        assert worker["alive"] and worker["pid"] != pid
        assert server.stats()["process_restarts"] >= 1.0
        data = _req(np.random.default_rng(0), 2)
        np.testing.assert_array_equal(
            server.submit(data).result(timeout=30), _eager(model, data)
        )


def test_crash_loop_cap_holds_when_a_respawn_dies_within_the_sweep():
    # A crash loop retires the slot and fails the queue, even when each
    # respawned worker dies again before the watchdog's sweep ends.
    rng = np.random.default_rng(16)
    model = _model()
    supervision = SupervisionPolicy(
        watchdog_interval=0.005, max_restarts=2,
        restart_backoff=0.001, restart_backoff_cap=0.002,
    )
    with _server(model, workers=1, supervision=supervision) as server:
        with inject_faults(server, kill_on=set(range(1, 50))):
            future = server.submit(_req(rng))
            with pytest.raises(RuntimeError, match="all workers are dead"):
                future.result(timeout=30)
            assert not server.ready()
            with pytest.raises(RuntimeError, match="Server failed"):
                server.submit(_req(rng))
        health = server.health()
        assert health["processes_alive"] == 0
        assert health["worker_crashes"] == 3  # initial + 2 respawns
        assert health["worker_restarts"] == 2


def test_deadline_expiry_propagates_across_the_ring():
    rng = np.random.default_rng(17)
    model = _model()
    with _server(model, workers=1, worker_latency=0.3) as server:
        future = server.submit(_req(rng), timeout=0.05)
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=30)
        assert server.ready()  # the worker survived refusing expired work


def test_stuck_process_worker_is_killed_and_replaced():
    rng = np.random.default_rng(18)
    model = _model()
    supervision = SupervisionPolicy(watchdog_interval=0.01, stuck_timeout=0.08)
    with _server(model, workers=1, supervision=supervision) as server:
        # Warm up: consume the spawn handshake so the injected latency is
        # the only thing holding the wedged batch (startup is exempt from
        # stuck detection — it is bounded by spawn_timeout instead).
        server.submit(_req(rng)).result(timeout=60)
        with inject_faults(server, latency=0.5):
            wedged_data = _req(rng)
            wedged = server.submit(wedged_data)
            time.sleep(0.2)  # > stuck_timeout: slot replaced, process killed
            health = server.health()
            assert health["workers_stuck"] == 1
            assert health["workers_alive"] >= 1
            # Replacement pool is unwrapped: new traffic flows immediately.
            data = _req(rng, 2)
            start = time.monotonic()
            np.testing.assert_array_equal(
                server.submit(data).result(timeout=30), _eager(model, data)
            )
            assert time.monotonic() - start < 5.0
            # The wedged batch was requeued when its process was killed and
            # is served by the replacement worker (thread mode can only
            # hope the stuck thread finishes; process mode can actually
            # reclaim the work).
            np.testing.assert_array_equal(
                wedged.result(timeout=30), _eager(model, wedged_data)
            )


def test_stuck_clock_restarts_at_the_spawn_handshake(monkeypatch):
    # Scripted clock, no process, no sleep.  The slot took its first batch at
    # t=100 and the worker needed 0.3 s to come up; the start-up exemption
    # (_awaiting_ready) ends at the handshake, so from that instant the
    # watchdog judges the slot by busy_since.  A sweep 0.4 ms later — before
    # the warm-up reply — must not see a slot that has been "busy" for the
    # whole start-up (it killed a healthy worker in 4-8 % of spawn runs).
    from repro.serve import procpool
    from repro.serve.resilience import WorkerSlot

    exempt_when_restamped = []

    class Clock:
        now = 100.0

        def monotonic(self):
            exempt_when_restamped.append(proxy._awaiting_ready)
            return self.now

    clock = Clock()
    monkeypatch.setattr(procpool, "time", clock)
    proxy = object.__new__(procpool._ProcWorkerProxy)
    proxy._awaiting_ready = True
    proxy._server_ref = lambda: None
    proxy.slot = slot = WorkerSlot(0, proxy)
    slot.busy_since = 100.0

    def handshake(timeout=None):
        clock.now = 100.3
        return ("ready", 4242, 0, False, {})

    proxy._recv = handshake
    proxy._ensure_ready()
    assert not proxy._awaiting_ready
    assert slot.busy_since == 100.3
    assert exempt_when_restamped == [True]  # clock restarted before the exemption ended
    policy = SupervisionPolicy(watchdog_interval=0.01, stuck_timeout=0.08)
    clock.now = 100.3004
    assert not clock.now - slot.busy_since > policy.stuck_timeout  # Server._watch's test
    # An idle slot (no batch in hand) has no clock to restart.
    proxy._awaiting_ready, slot.busy_since = True, None
    proxy._ensure_ready()
    assert slot.busy_since is None


def test_stop_is_bounded_with_a_wedged_worker_and_fails_the_stragglers():
    rng = np.random.default_rng(19)
    model = _model()
    before = _segments() if HAVE_DEV_SHM else None
    server = _server(model, workers=1, worker_latency=2.0,
                     supervision=SupervisionPolicy(watchdog_interval=0.01,
                                                   stuck_timeout=None))
    server.start()
    in_flight = server.submit(_req(rng))
    queued = server.submit(_req(rng))
    time.sleep(0.1)
    start = time.monotonic()
    server.stop(drain=True, timeout=0.5)
    assert time.monotonic() - start < 10.0
    with pytest.raises(RuntimeError):
        queued.result(timeout=10)
    with pytest.raises(RuntimeError):
        in_flight.result(timeout=10)
    if before is not None:
        assert _segments() - before == set()


# --------------------------------------------------------------------------- #
# Shared-memory hygiene
# --------------------------------------------------------------------------- #
@needs_dev_shm
def test_no_segment_leak_after_clean_stop():
    before = _segments()
    model = _model()
    with _server(model, workers=2) as server:
        server.submit(_req(np.random.default_rng(0), 3)).result(timeout=30)
        assert _segments() - before != set()  # arena + rings exist while live
    assert _segments() - before == set()


@needs_dev_shm
def test_no_segment_leak_after_worker_crash():
    before = _segments()
    model = _model()
    with _server(model, workers=1) as server:
        with inject_faults(server, kill_on={1}):
            data = _req(np.random.default_rng(1))
            server.submit(data).result(timeout=30)
    assert _segments() - before == set()


@needs_dev_shm
def test_no_segment_leak_without_explicit_stop():
    import gc

    before = _segments()
    server = _server(_model(), workers=1)
    server.start()
    server.submit(_req(np.random.default_rng(2))).result(timeout=30)
    finalizer = server._finalizer
    del server
    gc.collect()
    finalizer()  # what interpreter exit would run
    assert _segments() - before == set()


# --------------------------------------------------------------------------- #
# Asyncio front door
# --------------------------------------------------------------------------- #
def test_async_server_gathers_many_inflight_requests():
    rng = np.random.default_rng(21)
    model = _model()
    batches = [_req(rng, 1 + i % 3) for i in range(40)]

    async def run(server):
        aserver = AsyncServer(server)
        results = await asyncio.gather(
            *(aserver.submit(b) for b in batches)
        )
        stats = await aserver.stats()
        return results, stats

    with _server(model, workers=2) as server:
        results, stats = asyncio.run(run(server))
    assert stats["requests_completed"] <= len(batches)
    # After a draining stop, every request has been counted.
    assert server.stats()["requests_completed"] == len(batches)
    for batch, result in zip(batches, results):
        np.testing.assert_array_equal(result, _eager(model, batch))


def test_async_server_context_manager_and_block_mode_executor():
    rng = np.random.default_rng(22)
    model = _model()
    batches = [_req(rng) for _ in range(12)]

    async def run():
        server = _server(model, workers=1, queue_limit=2, overload="block")
        async with AsyncServer(server) as aserver:
            assert aserver._blocking_submit  # submit goes via executor
            results = await asyncio.gather(
                *(aserver.submit(b) for b in batches)
            )
            health = await aserver.health()
            assert health["ready"] is True
        assert not server.ready()  # stopped on exit
        return results

    results = asyncio.run(run())
    for batch, result in zip(batches, results):
        np.testing.assert_array_equal(result, _eager(model, batch))


def test_async_server_propagates_deadline_errors():
    model = _model()

    async def run(server):
        aserver = AsyncServer(server)
        with pytest.raises(DeadlineExceeded):
            await aserver.submit(_req(np.random.default_rng(3)), timeout=0.05)

    with _server(model, workers=1, worker_latency=0.3) as server:
        asyncio.run(run(server))


# --------------------------------------------------------------------------- #
# Structured regions across process boundaries
# --------------------------------------------------------------------------- #
class _ReduceTailModel(nn.Module):
    """Linear+relu trunk with a fused mean-over-features head: its serving
    trace carries a reduction-tail region, so worker processes exercise the
    structured (multi-stage) kernels end to end.  Module-level so ``spawn``
    workers can unpickle the factory."""

    def __init__(self, seed: int = 7):
        super().__init__()
        self.proj = nn.Linear(6, 8, rng=np.random.default_rng(seed))

    def forward(self, x):
        h = self.proj(x).relu()
        return (h * 0.5 + 0.25).mean(axis=-1, keepdims=True)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_reduction_tail_model_bit_identical_across_processes(start_method):
    import functools

    model = _ReduceTailModel()
    model.eval()
    rng = np.random.default_rng(5)
    reqs = [_req(rng, n) for n in (1, 3, 2)]
    expected = [_eager(model, r) for r in reqs]
    with ProcServer(model, np.zeros((1, 6), np.float32), buckets=(1, 2),
                    workers=1, start_method=start_method, supervision=_FAST,
                    model_factory=functools.partial(_ReduceTailModel)) as proc:
        got = [proc.submit(r).result(timeout=120) for r in reqs]
    for want, have in zip(expected, got):
        assert want.tobytes() == have.tobytes()


def test_worker_codegen_stats_fold_into_parent_metrics():
    # The ready handshake carries what the worker's pool build resolved at
    # once; kernels compiled off the request path land later and precede
    # the next reply.  The parent folds both into the mode="process"
    # labelled cache counters.
    from repro.codegen.jit import have_compiler
    from repro.obs.metrics import get_registry

    if not (have_compiler() and os.environ.get("REPRO_CODEGEN", "1") != "0"):
        pytest.skip("worker compiles no native kernels in this environment")

    def process_lookups() -> float:
        return sum(
            float(line.rsplit(" ", 1)[1])
            for line in get_registry().render().splitlines()
            if line.startswith(("repro_codegen_cache_hit_total{mode=\"process\"}",
                                "repro_codegen_cache_miss_total{mode=\"process\"}"))
        )

    model = _ReduceTailModel()
    model.eval()
    before = process_lookups()
    deadline = time.monotonic() + 120
    with ProcServer(model, np.zeros((1, 6), np.float32), buckets=(1, 2),
                    workers=1, supervision=_FAST) as proc:
        while process_lookups() == before and time.monotonic() < deadline:
            proc.submit(_req(np.random.default_rng(1))).result(timeout=120)
    assert process_lookups() > before  # compiled, or hit on disk / in the memo
