#!/usr/bin/env python
"""Benchmark the repro autograd engine against the frozen seed engine.

Workloads
---------
``mlp``
    A classifier training step (forward + backward) on a dense MLP.  On the
    seed engine the softmax cross-entropy loss is composed from tape
    primitives (max / exp / sum / log / getitem), which is the only way the
    seed could express it; on the new engine it uses the fused
    ``functional.softmax_cross_entropy`` kernel.  This measures the full
    stack this PR replaces: allocating ``_accumulate`` + non-freeing
    backward vs. in-place accumulation + graph freeing + fused loss.
``reduction``
    A chain of broadcasted elementwise ops and axis reductions — pure tape
    overhead, identical primitives on both engines.
``conv``
    conv2d → relu → max_pool2d → flatten → linear → cross-entropy on the new
    engine only (the seed engine has no dense spatial kernels).
``nn_mlp``
    The same MLP training step (forward + backward + SGD update) expressed
    through ``repro.nn`` modules (``Sequential`` + ``nn.optim.SGD``) vs.
    hand-rolled ``functional`` calls with manual parameter updates — measures
    the overhead the Module/optimizer layer adds over raw kernels.
``tbnet``
    A full ``repro.models.TBNet`` two-branch train step (conv + batch-norm +
    dropout branches, fused head, Adam) on synthetic data — the reference
    model's end-to-end step time.
``tbnet_infer``
    Eval-mode TBNet forward: eager ``no_grad`` dispatch vs. the compiled
    ``repro.serve`` replay of the captured trace (pre-allocated buffers,
    fused composites, no tape).  Ratios land in the JSON's ``inference``
    section; > 1.0 means compiled replay beats eager.  Measured at batch 1
    (latency serving, overhead-dominated) and the conv batch.
``fusion_chain``
    The *codegen* pair (``eager_fwd`` vs ``codegen``; keys prefixed
    ``fusion_chain/codegen/`` in the ``fusion`` section) runs an
    elementwise tail forward — the eager ufunc-by-ufunc sequence with its
    temporaries vs. the single compiled region kernel writing one
    pre-allocated buffer (``repro.codegen``); this is the raw win codegen
    delivers wherever fusion placed a region.
``fusion_reduce``
    The reduction-tail analogue of the codegen pair: the softmax-CE scoring
    tail (``mean(sum(-(logp * t), classes), batch)``) as eager ufuncs with
    a temporary per op vs. one structured region kernel — a fused
    elementwise stage feeding C reduction stages that replay numpy's
    pairwise summation bit-for-bit.  Keys land under
    ``fusion_reduce/codegen/`` in the ``fusion`` section.
``serve_queue``
    The dynamic-batching front end: a burst of single-sample TBNet requests
    served three ways — per-request eager ``no_grad``, per-request batch-1
    ``session.run``, and the queued ``repro.serve.Server`` (bucketed pools,
    sharded workers) — measured as wall-clock throughput over the burst.
    Ratios land in the ``serving`` section; > 1.0 on every row means queued
    dynamic batching beats both per-request paths.  An **overload** pair of
    rows drives arrival rate far above a deterministically capped service
    rate (fault-injected per-serve latency, ``max_batch_size=1``) and
    compares load-shedding (``queue_limit`` + ``shed_oldest``) against
    unbounded queueing: the shed rate and the p99 latency of completed
    requests land in the ``resilience`` section, alongside the queued run's
    resilience counters (``requests_rejected`` / ``requests_expired`` /
    ``batches_retried`` / ``worker_restarts`` / ``latency_ms_p99``).  An
    **observability** pair reruns the burst on two identical servers — the
    default instrumented one (metric registry + span tracer) vs one built
    with ``NULL_REGISTRY`` and tracing off — with interleaved rounds whose
    paired per-round ratios are median-merged; the ``observability``
    section records ``overhead_frac`` (``on/off - 1``; the acceptance
    budget is < 3%).  A **process-serving** pair (headline backend only)
    reruns the queued burst on a thread ``Server`` vs a ``ProcServer``
    (worker processes over shared-memory arenas) and adds an **open-loop**
    arrival-rate sweep — requests submitted on a fixed schedule regardless
    of completions, client-side p99 per offered rate — reporting each
    arm's sustained throughput at a 50 ms p99 SLO; ratios land under
    ``serving`` (``serve_proc/.../process_vs_thread``,
    ``serve_openloop/.../process_vs_thread_slo``) and the raw sweep under
    ``process_serving``.  Process sharding only pays on multi-core hosts;
    single-core runs record a ratio < 1 by design.

Every repro-engine workload runs on the ``numpy`` backend, the one built
in; rows keep a ``backend`` field so their keys read as before.  The
headline ``speedups`` compare the seed engine against it.

Usage::

    PYTHONPATH=src python benchmarks/bench_autograd.py [--quick] [--output PATH]

Writes ``BENCH_autograd.json`` (see ``schema`` key) with per-workload median
step times and seed/new speedups.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List

import numpy as np

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (os.path.join(_ROOT, "src"), _ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from benchmarks import _seed_tensor as seed_engine  # noqa: E402
from repro import nn, serve  # noqa: E402
from repro.autograd import Tensor as NewTensor  # noqa: E402
from repro.autograd import functional as F  # noqa: E402
from repro.autograd import no_grad  # noqa: E402
from repro.models import TBNet, make_synthetic_batch  # noqa: E402

SeedTensor = seed_engine.Tensor


# --------------------------------------------------------------------------- #
# Workload builders: each returns step() -> float running one fwd+bwd pass.
# --------------------------------------------------------------------------- #
def _init_mlp_params(tensor_cls, dims: List[int], rng: np.random.Generator):
    params = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = rng.standard_normal((fan_in, fan_out)).astype(np.float32) / np.sqrt(fan_in)
        b = np.zeros(fan_out, dtype=np.float32)
        params.append(
            (tensor_cls(w, requires_grad=True), tensor_cls(b, requires_grad=True))
        )
    return params


def _manual_cross_entropy(logits, targets_np: np.ndarray):
    """Softmax cross-entropy from tape primitives (the seed-engine path)."""
    n = targets_np.shape[0]
    zmax = logits.max(axis=1, keepdims=True)
    shifted = logits - zmax
    lse = shifted.exp().sum(axis=1, keepdims=True).log()
    logp = shifted - lse
    picked = logp[np.arange(n), targets_np]
    return -(picked.mean())


def build_mlp_step(engine: str, batch: int, dims: List[int], rng: np.random.Generator) -> Callable[[], float]:
    tensor_cls = SeedTensor if engine == "seed" else NewTensor
    params = _init_mlp_params(tensor_cls, dims, rng)
    x_np = rng.standard_normal((batch, dims[0])).astype(np.float32)
    y_np = rng.integers(0, dims[-1], batch)

    def step() -> float:
        h = tensor_cls(x_np)
        for i, (w, b) in enumerate(params):
            h = (h @ w + b) if engine == "seed" else F.linear(h, w, b)
            if i < len(params) - 1:
                h = h.relu()
        if engine == "seed":
            loss = _manual_cross_entropy(h, y_np)
        else:
            loss = F.softmax_cross_entropy(h, y_np)
        loss.backward()
        for w, b in params:
            w.zero_grad()
            b.zero_grad()
        return float(loss.data)

    return step


def build_reduction_step(engine: str, batch: int, width: int, depth: int, rng: np.random.Generator) -> Callable[[], float]:
    tensor_cls = SeedTensor if engine == "seed" else NewTensor
    x_np = rng.standard_normal((batch, width)).astype(np.float32)
    scale = tensor_cls(rng.standard_normal(width).astype(np.float32), requires_grad=True)
    shift = tensor_cls(rng.standard_normal(width).astype(np.float32), requires_grad=True)

    def step() -> float:
        h = tensor_cls(x_np)
        for _ in range(depth):
            h = (h * scale + shift).relu()
        loss = (h * h).mean() + h.sum(axis=0).mean()
        loss.backward()
        scale.zero_grad()
        shift.zero_grad()
        return float(loss.data)

    return step


def build_conv_step(batch: int, rng: np.random.Generator) -> Callable[[], float]:
    in_c, img = 3, 16
    w1 = NewTensor(rng.standard_normal((8, in_c, 3, 3)).astype(np.float32) * 0.1, requires_grad=True)
    b1 = NewTensor(np.zeros(8, dtype=np.float32), requires_grad=True)
    flat_dim = 8 * (img // 2) * (img // 2)
    w2 = NewTensor(rng.standard_normal((flat_dim, 10)).astype(np.float32) * 0.05, requires_grad=True)
    b2 = NewTensor(np.zeros(10, dtype=np.float32), requires_grad=True)
    params = [w1, b1, w2, b2]
    x_np = rng.standard_normal((batch, in_c, img, img)).astype(np.float32)
    y_np = rng.integers(0, 10, batch)

    def step() -> float:
        h = F.conv2d(NewTensor(x_np), w1, b1, stride=1, padding=1).relu()
        h = F.max_pool2d(h, 2)
        logits = h.flatten() @ w2 + b2
        loss = F.softmax_cross_entropy(logits, y_np)
        loss.backward()
        for p in params:
            p.zero_grad()
        return float(loss.data)

    return step


def build_nn_mlp_step(path: str, batch: int, dims: List[int], rng: np.random.Generator, lr: float = 0.01) -> Callable[[], float]:
    """Same MLP train step via ``repro.nn`` modules or hand-rolled kernels."""
    x_np = rng.standard_normal((batch, dims[0])).astype(np.float32)
    y_np = rng.integers(0, dims[-1], batch)

    if path == "module":
        layers: List[nn.Module] = []
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            layers.append(nn.Linear(fan_in, fan_out, rng=rng))
            if i < len(dims) - 2:
                layers.append(nn.ReLU())
        model = nn.Sequential(*layers)
        opt = nn.optim.SGD(model.parameters(), lr=lr)

        def step() -> float:
            loss = F.softmax_cross_entropy(model(NewTensor(x_np)), y_np)
            loss.backward()
            opt.step()
            opt.zero_grad()
            return float(loss.data)

        return step

    params = _init_mlp_params(NewTensor, dims, rng)

    def step() -> float:
        h = NewTensor(x_np)
        for i, (w, b) in enumerate(params):
            h = F.linear(h, w, b)
            if i < len(params) - 1:
                h = h.relu()
        loss = F.softmax_cross_entropy(h, y_np)
        loss.backward()
        for w, b in params:
            w.data -= lr * w.grad
            b.data -= lr * b.grad
            w.zero_grad()
            b.zero_grad()
        return float(loss.data)

    return step


def build_tbnet_step(batch: int, rng: np.random.Generator) -> Callable[[], float]:
    """Full two-branch reference-model train step with Adam."""
    model = TBNet(width=16, rng=rng)
    opt = nn.optim.Adam(model.parameters(), lr=1e-3)
    images, context, targets = make_synthetic_batch(batch, rng=rng)

    def step() -> float:
        return model.train_step(opt, images, context, targets)

    return step


def build_tbnet_infer_step(mode: str, batch: int, rng: np.random.Generator) -> Callable[[], float]:
    """Eval-mode TBNet forward: eager ``no_grad`` vs. compiled trace replay."""
    model = TBNet(width=16, rng=rng)
    model.eval()
    images, context, _ = make_synthetic_batch(batch, rng=rng)

    if mode == "compiled":
        session = serve.compile_inference(model, (images, context))

        def step() -> float:
            return float(session.run(images, context)[0, 0])

        return step

    def step() -> float:
        with no_grad():
            return float(model(images, context).data[0, 0])

    return step


def build_fusion_tail_step(
    mode: str, batch: int, rng: np.random.Generator, width: int = 128, depth: int = 4
) -> Callable[[], float]:
    """Forward-only elementwise tail: ``depth`` rounds of relu(h*scale+shift).

    ``eager_fwd`` runs the exact ufunc sequence the unfused tape executes
    (allocating every temporary); ``codegen`` runs the same program as one
    region kernel through :func:`repro.codegen.compile_region`, writing a
    single pre-allocated output buffer.  The two arms are bit-equal by the
    codegen contract — the ratio is pure execution cost.
    """
    from repro.codegen import RegionIR, RegionInput, compile_region

    x = rng.standard_normal((batch, width)).astype(np.float32)
    scale = rng.standard_normal(width).astype(np.float32)
    shift = rng.standard_normal(width).astype(np.float32)

    if mode == "codegen":
        ops = []
        h_slot = 0  # x
        for _ in range(depth):
            ops.append(("mul", (h_slot, 1)))
            ops.append(("add", (len(ops) + 2, 2)))
            ops.append(("relu", (len(ops) + 2,)))
            h_slot = len(ops) + 2
        region = RegionIR(
            [
                RegionInput(np.float32, x.shape),
                RegionInput(np.float32, scale.shape),
                RegionInput(np.float32, shift.shape),
            ],
            ops,
            x.shape,
            np.float32,
        )
        kern = compile_region(region)
        buf = np.empty(x.shape, np.float32)
        arrays = [x, scale, shift]

        def step() -> float:
            out = kern(arrays, out=buf)
            return float(out[0, 0])

        return step

    def step() -> float:
        h = x
        for _ in range(depth):
            h = np.maximum(np.add(np.multiply(h, scale), shift), 0.0)
        return float(h[0, 0])

    return step


def build_fusion_reduce_step(
    mode: str, batch: int, rng: np.random.Generator, classes: int = 512
) -> Callable[[], float]:
    """Forward-only softmax-CE scoring tail: ``mean(sum(-(logp * t), -1))``.

    ``eager_fwd`` is the ufunc-by-ufunc sequence (one temporary per op, a
    numpy reduction per axis group); ``codegen`` runs the same program as
    one structured region — the elementwise stage and both reduction
    stages compiled, the C reductions replaying numpy's pairwise summation
    bit-for-bit — through :func:`repro.codegen.compile_region`.
    """
    from repro.codegen import RegionIR, RegionInput, compile_region

    logp = -np.abs(rng.standard_normal((batch, classes))).astype(np.float32)
    t = rng.random((batch, classes)).astype(np.float32)

    if mode == "codegen":
        region = RegionIR(
            [
                RegionInput(np.float32, logp.shape),
                RegionInput(np.float32, t.shape),
            ],
            [
                ("mul", (0, 1)),
                ("neg", (2,)),
                ("sum", (3,), (1, False)),
                ("mean", (4,), (1, False)),
            ],
            (),
            np.float32,
        )
        kern = compile_region(region)
        buf = np.empty((), np.float32)
        arrays = [logp, t]

        def step() -> float:
            return float(kern(arrays, out=buf))

        return step

    def step() -> float:
        loss = np.negative(np.multiply(logp, t)).sum(axis=-1).mean(axis=-1)
        return float(loss)

    return step


def run_serve_queue(
    n_requests: int,
    buckets,
    workers: int,
    max_wait: float,
    rng: np.random.Generator,
    rounds: int,
) -> Dict:
    """Throughput of three ways to serve a burst of single-sample requests.

    ``eager`` runs the model's ``no_grad`` forward per request, ``session``
    replays a batch-1 compiled session per request, and ``queued`` submits
    every request to a :class:`repro.serve.Server` (bucketed pools over
    ``workers`` sharded threads) and drains the futures.  Unlike the
    step-timed workloads this measures wall clock over the whole burst —
    the queue's win *is* the coalescing, which per-step timing would hide.
    """
    model = TBNet(width=16, rng=rng)
    model.eval()
    images, context, _ = make_synthetic_batch(n_requests, rng=rng)
    img, ctx = images.data, context.data
    samples = [(img[i : i + 1], ctx[i : i + 1]) for i in range(n_requests)]

    session = serve.compile_inference(model, (img[:1], ctx[:1]))

    def eager_all() -> None:
        for si, sc in samples:
            model.infer(si, sc)

    def session_all() -> None:
        for si, sc in samples:
            session.run(si, sc)

    server = serve.Server(
        model, (img[:1], ctx[:1]), buckets, workers=workers, max_wait=max_wait
    )
    server.start()

    def queued_all() -> None:
        for future in [server.submit(si, sc) for si, sc in samples]:
            future.result()

    timings: Dict[str, float] = {}
    try:
        for mode, fn in (("eager", eager_all), ("session", session_all), ("queued", queued_all)):
            fn()  # warmup
            best = float("inf")
            for _ in range(rounds):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            timings[mode] = best
        stats = server.stats()
    finally:
        server.stop()
    return {"timings": timings, "stats": stats}


def run_serve_overload(
    n_requests: int,
    service_delay: float,
    queue_limit: int,
    rng: np.random.Generator,
) -> Dict:
    """Overload (arrival rate >> capacity): load-shedding vs unbounded queue.

    The service rate is capped deterministically: fault-injected latency of
    ``service_delay`` per serve call with ``max_batch_size=1``, so coalescing
    cannot absorb the burst and capacity is exactly ``1/service_delay``
    requests per second.  The whole burst is submitted effectively at once —
    far above capacity — so the unbounded queue builds a backlog whose tail
    latency grows with queue position, while ``shed_oldest`` with
    ``queue_limit`` caps the backlog (bounded p99 for completed requests) at
    the price of cancelled stale futures.  Reports per mode: wall-clock,
    completed count, shed rate, and the p99 latency of completed requests.
    """
    from concurrent.futures import CancelledError

    model = TBNet(width=16, rng=rng)
    model.eval()
    images, context, _ = make_synthetic_batch(n_requests, rng=rng)
    img, ctx = images.data, context.data
    samples = [(img[i : i + 1], ctx[i : i + 1]) for i in range(n_requests)]

    reports: Dict[str, Dict] = {}
    for mode in ("unbounded", "shed"):
        kwargs = (
            {"queue_limit": queue_limit, "overload": "shed_oldest"}
            if mode == "shed"
            else {}
        )
        server = serve.Server(
            model, (img[:1], ctx[:1]), (1,),
            workers=1, max_batch_size=1, max_wait=0.0, **kwargs,
        )
        server.start()
        try:
            with serve.inject_faults(server, latency=service_delay, seed=0):
                start = time.perf_counter()
                futures = [server.submit(si, sc) for si, sc in samples]
                completed = 0
                for future in futures:
                    try:
                        future.result()
                        completed += 1
                    except CancelledError:
                        pass  # shed
                elapsed = time.perf_counter() - start
                stats = server.stats()
        finally:
            server.stop()
        reports[mode] = {
            "elapsed": elapsed,
            "completed": completed,
            "shed_rate": stats["requests_shed"] / max(1.0, stats["requests_submitted"]),
            "latency_ms_p99": stats["latency_ms_p99"],
            "stats": stats,
        }
    return reports


def run_serve_procpool(
    n_requests: int,
    buckets,
    workers: int,
    max_wait: float,
    rng: np.random.Generator,
    rounds: int,
) -> Dict:
    """Closed-loop burst: thread-sharded vs process-sharded serving.

    The same single-sample TBNet burst drains through a thread
    :class:`repro.serve.Server` and a :class:`repro.serve.ProcServer`
    (worker processes over shared-memory arenas/rings) built with
    identical buckets/workers/max_wait.  Rounds interleave the two arms so
    both sample the same load conditions; the best round survives.  On a
    single core the process arm pays IPC for no parallelism and loses; on
    a multi-core host it escapes the interpreter serialization that caps
    thread workers on small (GIL-bound, not BLAS-bound) batches.
    """
    model = TBNet(width=16, rng=rng)
    model.eval()
    images, context, _ = make_synthetic_batch(n_requests, rng=rng)
    img, ctx = images.data, context.data
    samples = [(img[i : i + 1], ctx[i : i + 1]) for i in range(n_requests)]

    servers = {
        "thread": serve.Server(
            model, (img[:1], ctx[:1]), buckets,
            workers=workers, max_wait=max_wait,
        ),
        "process": serve.ProcServer(
            model, (img[:1], ctx[:1]), buckets,
            workers=workers, max_wait=max_wait,
            model_factory=model.spawn_factory(),
        ),
    }
    timings = {"thread": float("inf"), "process": float("inf")}
    stats: Dict[str, Dict] = {}
    try:
        for server in servers.values():
            server.start()

        def burst(server) -> None:
            for future in [server.submit(si, sc) for si, sc in samples]:
                future.result()

        for server in servers.values():
            burst(server)  # warmup (process arm also pays worker compile here)
        for _ in range(max(2, rounds)):
            for mode, server in servers.items():
                start = time.perf_counter()
                burst(server)
                timings[mode] = min(timings[mode], time.perf_counter() - start)
        for mode, server in servers.items():
            snap = server.stats()
            stats[mode] = {
                "batch_occupancy": snap["batch_occupancy"],
                "latency_ms_p99": snap["latency_ms_p99"],
            }
        stats["process"]["start_method"] = servers["process"].start_method
    finally:
        for server in servers.values():
            server.stop()
    return {"timings": timings, "stats": stats}


def run_serve_openloop(
    rates,
    duration: float,
    slo_ms: float,
    buckets,
    workers: int,
    max_wait: float,
    rng: np.random.Generator,
) -> Dict:
    """Open-loop arrival-rate sweep: throughput at a p99 latency SLO.

    Closed-loop bursts hide queueing delay (each client waits for its
    result before "sending" the next request); an open loop submits on a
    fixed arrival schedule regardless of completions, so latency includes
    the backlog a too-slow server accumulates — the standard way serving
    capacity is stated.  Both arms (thread Server, ProcServer) sweep the
    same absolute rate grid; per rate the client-side latency of every
    request is captured in a done-callback and the report records the p99
    and the achieved throughput.  ``sustained_rps`` per arm is the
    achieved throughput of the highest offered rate whose p99 stayed
    within ``slo_ms``.
    """
    model = TBNet(width=16, rng=rng)
    model.eval()
    pool_n = 64
    images, context, _ = make_synthetic_batch(pool_n, rng=rng)
    img, ctx = images.data, context.data
    samples = [(img[i : i + 1], ctx[i : i + 1]) for i in range(pool_n)]

    def sweep(server) -> Dict:
        per_rate = {}
        for future in [server.submit(si, sc) for si, sc in samples]:
            future.result()  # warmup
        for rate in rates:
            n = max(8, int(rate * duration))
            latencies: List[float] = []
            futures = []
            t0 = time.perf_counter()
            for i in range(n):
                target = t0 + i / rate
                now = time.perf_counter()
                if target > now:
                    time.sleep(target - now)
                si, sc = samples[i % pool_n]
                sent = time.perf_counter()
                future = server.submit(si, sc)
                future.add_done_callback(
                    lambda f, s=sent: latencies.append(time.perf_counter() - s)
                )
                futures.append(future)
            for future in futures:
                future.result()
            elapsed = time.perf_counter() - t0
            lat = sorted(latencies)
            per_rate[rate] = {
                "offered_rps": rate,
                "achieved_rps": n / elapsed,
                "p50_ms": lat[len(lat) // 2] * 1e3,
                "p99_ms": lat[min(len(lat) - 1, int(len(lat) * 0.99))] * 1e3,
                "requests": n,
            }
        return per_rate

    report: Dict[str, Dict] = {"slo_ms": slo_ms, "rates": {}, "sustained_rps": {}}
    for mode in ("thread", "process"):
        if mode == "thread":
            server = serve.Server(
                model, (img[:1], ctx[:1]), buckets,
                workers=workers, max_wait=max_wait,
            )
        else:
            server = serve.ProcServer(
                model, (img[:1], ctx[:1]), buckets,
                workers=workers, max_wait=max_wait,
                model_factory=model.spawn_factory(),
            )
        server.start()
        try:
            per_rate = sweep(server)
        finally:
            server.stop()
        report["rates"][mode] = per_rate
        passing = [r["achieved_rps"] for r in per_rate.values()
                   if r["p99_ms"] <= slo_ms]
        report["sustained_rps"][mode] = max(passing, default=0.0)
    return report


def run_obs_overhead(
    n_requests: int,
    buckets,
    workers: int,
    max_wait: float,
    rng: np.random.Generator,
    rounds: int,
) -> Dict:
    """Observability cost on the serving hot path: instrumented on vs off.

    Two identical Servers serve the same single-sample burst.  The ``on``
    arm keeps the default per-server metric registry and span tracer; the
    ``off`` arm is built with ``registry=NULL_REGISTRY, trace=False`` —
    the exact same code path, every metric write a no-op and no spans
    recorded.

    The burst is a threaded queue workload with ms-scale scheduler jitter,
    so a min-merge of a handful of rounds does not converge.  Two noise
    sources need different treatment: per-round scheduler drift (handled
    by pairing — each interleaved round yields one on/off ratio, and the
    session's estimate is the **median** paired ratio) and session-level
    placement luck (a Server's worker threads are created once, so a badly
    placed session is consistently slow — handled by running independent
    sessions with fresh server pairs and keeping the best session's
    median).  ``overhead_frac`` is that ratio minus one (0.01 =
    instrumentation costs 1% of burst wall-clock); the acceptance budget
    is < 3%.  ``on_ms`` / ``off_ms`` report the best session's per-arm
    median round time.
    """
    import statistics

    from repro.obs.metrics import NULL_REGISTRY

    model = TBNet(width=16, rng=rng)
    model.eval()
    images, context, _ = make_synthetic_batch(n_requests, rng=rng)
    img, ctx = images.data, context.data
    samples = [(img[i : i + 1], ctx[i : i + 1]) for i in range(n_requests)]

    def session() -> Dict:
        servers = {
            "on": serve.Server(
                model, (img[:1], ctx[:1]), buckets,
                workers=workers, max_wait=max_wait,
            ),
            "off": serve.Server(
                model, (img[:1], ctx[:1]), buckets,
                workers=workers, max_wait=max_wait,
                registry=NULL_REGISTRY, trace=False,
            ),
        }
        times = {"on": [], "off": []}
        try:
            for server in servers.values():
                server.start()

            def burst(server) -> None:
                for future in [server.submit(si, sc) for si, sc in samples]:
                    future.result()

            for server in servers.values():
                burst(server)  # warmup
            for _ in range(max(12, rounds)):
                for arm, server in servers.items():
                    start = time.perf_counter()
                    burst(server)
                    times[arm].append(time.perf_counter() - start)
        finally:
            for server in servers.values():
                server.stop()
        ratio = statistics.median(
            on / off for on, off in zip(times["on"], times["off"])
        )
        return {
            "on_ms": statistics.median(times["on"]) * 1e3,
            "off_ms": statistics.median(times["off"]) * 1e3,
            "overhead_frac": ratio - 1.0,
        }

    best = min((session() for _ in range(2)),
               key=lambda s: s["overhead_frac"])
    best["requests"] = n_requests
    return best


# --------------------------------------------------------------------------- #
# Timing
# --------------------------------------------------------------------------- #
def time_pair(step_a, step_b, repeats: int, inner: int, warmup: int):
    """:func:`time_step` for a ratio-bearing pair of steps.

    The two steps alternate per inner-block on a single timeline, so both
    arms sample the same load/thermal conditions at a granularity of one
    block (~a millisecond) instead of one whole measurement (~a second).
    On a busy host, coarse interleaving was observed to swing a ~1.0 ratio
    by >15% between runs; block-level pairing keeps both medians and both
    minima drawn from the same noise process.  Returns two dicts shaped
    like :func:`time_step` results.
    """
    for _ in range(warmup):
        step_a()
        step_b()
    samples_a: List[float] = []
    samples_b: List[float] = []
    loss_a = loss_b = float("nan")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            loss_a = step_a()
        samples_a.append((time.perf_counter() - start) / inner)
        start = time.perf_counter()
        for _ in range(inner):
            loss_b = step_b()
        samples_b.append((time.perf_counter() - start) / inner)

    def _pack(samples: List[float], loss: float) -> Dict:
        samples = sorted(samples)
        return {
            "per_step_ms": samples[len(samples) // 2] * 1e3,
            "best_ms": samples[0] * 1e3,
            "repeats": repeats,
            "inner_steps": inner,
            "final_loss": loss,
        }

    return _pack(samples_a, loss_a), _pack(samples_b, loss_b)


def time_step(step: Callable[[], float], repeats: int, inner: int, warmup: int) -> Dict:
    for _ in range(warmup):
        step()
    samples = []
    loss = float("nan")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            loss = step()
        samples.append((time.perf_counter() - start) / inner)
    samples.sort()
    median = samples[len(samples) // 2]
    return {
        "per_step_ms": median * 1e3,
        "best_ms": samples[0] * 1e3,
        "repeats": repeats,
        "inner_steps": inner,
        "final_loss": loss,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--output", default=os.path.join(_ROOT, "BENCH_autograd.json"))
    parser.add_argument("--quick", action="store_true", help="tiny config for CI smoke runs")
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats per workload")
    parser.add_argument("--batch-sizes", type=int, nargs="+", default=None)
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="interleaved measurement rounds per row (default: 3, 1 with --quick); "
        "raise on noisy hosts so the min-merged timings converge",
    )
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be >= 1")

    quick = args.quick
    repeats = args.repeats or (3 if quick else 15)
    inner = 2 if quick else 10
    warmup = 1 if quick else 5
    batches = args.batch_sizes or ([32] if quick else [64, 256])
    backends = ["numpy"]
    mlp_dims = [64, 64, 64, 64, 10]
    red_width, red_depth = 256, 8

    results = []

    # Every row — seed engine and repro alike — is the min-merge of `rounds`
    # independent time_step rounds, so the two sides of every ratio in the
    # report share one measurement methodology.
    rounds = args.rounds or (1 if quick else 3)

    def _min_merge(merged, timing) -> Dict:
        if merged is None:
            return dict(timing)
        merged["best_ms"] = min(merged["best_ms"], timing["best_ms"])
        merged["per_step_ms"] = min(merged["per_step_ms"], timing["per_step_ms"])
        return merged

    def record(workload: str, engine: str, batch: int, make_step, bench_inner: int, backend=None) -> Dict:
        merged = None
        for _ in range(rounds):
            merged = _min_merge(merged, time_step(make_step(), repeats, bench_inner, warmup))
        rec = {"workload": workload, "engine": engine, "batch": batch, "backend": backend}
        rec.update(merged)
        results.append(rec)
        tag = engine if backend is None else f"{engine}/{backend}"
        print(f"{workload:9s}{tag:14s} batch={batch:<4d} {rec['per_step_ms']:8.3f} ms/step")
        return rec

    def record_backends(workload: str, engine: str, batch: int, make_step, bench_inner: int) -> None:
        """Measure ``make_step()`` under every backend, interleaved.

        ``rounds`` alternating rounds per backend (one in --quick mode, where
        no interleaving happens) give each backend early and late slots, so
        thermal/load drift over the run cannot systematically favor whichever
        backend happens to be measured last; the best (minimum) timings
        across rounds survive into the record.
        """
        merged: Dict[str, Dict] = {}
        for _ in range(rounds):
            for bname in backends:
                step = make_step()
                timing = time_step(step, repeats, bench_inner, warmup)
                merged[bname] = _min_merge(merged.get(bname), timing)
        for bname in backends:
            rec = {"workload": workload, "engine": engine, "batch": batch, "backend": bname}
            rec.update(merged[bname])
            results.append(rec)
            print(f"{workload:9s}{engine + '/' + bname:14s} batch={batch:<4d} {rec['per_step_ms']:8.3f} ms/step")

    # Each (workload, batch) gets its own fixed seed so the seed and repro
    # engines train on byte-identical weights and inputs.  Seed-engine rows
    # carry backend=None; repro rows carry the "numpy" key.
    for batch in batches:
        record("mlp", "seed", batch,
               lambda b=batch: build_mlp_step("seed", b, mlp_dims, np.random.default_rng(1000 + b)),
               inner)
        record_backends(
            "mlp", "repro", batch,
            lambda b=batch: build_mlp_step("repro", b, mlp_dims, np.random.default_rng(1000 + b)),
            inner,
        )

        record("reduction", "seed", batch,
               lambda b=batch: build_reduction_step("seed", b, red_width, red_depth, np.random.default_rng(2000 + b)),
               inner)
        record_backends(
            "reduction", "repro", batch,
            lambda b=batch: build_reduction_step("repro", b, red_width, red_depth, np.random.default_rng(2000 + b)),
            inner,
        )

    conv_batch = batches[0] if quick else 64
    record_backends(
        "conv", "repro", conv_batch,
        lambda: build_conv_step(conv_batch, np.random.default_rng(3000 + conv_batch)),
        max(1, inner // 2),
    )

    for batch in batches:
        for path in ("functional", "module"):
            record_backends(
                "nn_mlp", path, batch,
                lambda p=path, b=batch: build_nn_mlp_step(p, b, mlp_dims, np.random.default_rng(4000 + b)),
                inner,
            )

    tbnet_batch = batches[0] if quick else 64
    record_backends(
        "tbnet", "module", tbnet_batch,
        lambda: build_tbnet_step(tbnet_batch, np.random.default_rng(5000 + tbnet_batch)),
        max(1, inner // 2),
    )

    def record_engine_pair(workload: str, engines, batch: int, make_step, bench_inner: int) -> None:
        """``record_backends`` for a ratio-bearing engine pair.

        The two engines are measured with :func:`time_pair` — alternating
        per inner-block on one timeline — so both sides of the reported
        ratio sample identical load/thermal conditions.  Measuring the pair
        in disjoint time windows — as the plain per-engine loop does — was
        observed to swing a ~1.0 fusion ratio by >15% on a busy host,
        which is larger than the effect being gated.  At least two rounds
        run even under ``--quick``, with the backend order rotated so no
        cell is always measured last.
        """
        ea, eb = engines
        merged: Dict[tuple, Dict] = {}
        for r in range(max(2, rounds)):
            for bname in backends[r % len(backends):] + backends[: r % len(backends)]:
                timing_a, timing_b = time_pair(
                    make_step(ea), make_step(eb), repeats, bench_inner, warmup
                )
                merged[(ea, bname)] = _min_merge(merged.get((ea, bname)), timing_a)
                merged[(eb, bname)] = _min_merge(merged.get((eb, bname)), timing_b)
        for ename in engines:
            for bname in backends:
                rec = {"workload": workload, "engine": ename, "batch": batch, "backend": bname}
                rec.update(merged[(ename, bname)])
                results.append(rec)
                print(f"{workload:9s}{ename + '/' + bname:14s} batch={batch:<4d} {rec['per_step_ms']:8.3f} ms/step")

    # Serving: eager no_grad vs compiled replay, at the latency-serving batch
    # (1, overhead-dominated like the paper's short-block workloads) and the
    # conv batch.  The eager/compiled pair backs the inference ratios, so it
    # is measured with the pair interleaved like the fusion rows.
    # Batch 1 runs even under --quick: the shape-specialized bucket kernels
    # are gated on the batch-1 ratio in CI, and the row is cheap to measure.
    infer_batches = [1, tbnet_batch] if tbnet_batch != 1 else [tbnet_batch]
    for batch in infer_batches:
        record_engine_pair(
            "tbnet_infer", ("eager", "compiled"), batch,
            lambda m, b=batch: build_tbnet_infer_step(m, b, np.random.default_rng(6000 + b)),
            inner,
        )

    # Region codegen, pinned to batch 64 even under --quick: the CI gate
    # reads the quick run, so gate and full bench must measure the same
    # operating point.  An explicit --batch-sizes still wins.
    fusion_batch = batches[0] if args.batch_sizes else 64
    # Full-size inner blocks even under --quick: these steps run in well
    # under a millisecond, so 2-step blocks sit at the timer's noise floor
    # and the gated ratio swings ±5%.
    fusion_inner = max(inner, 10)
    # Codegen: the elementwise tail forward, eager ufuncs vs one compiled
    # region kernel (the numpy-interpreter arm when no compiler exists).
    record_engine_pair(
        "fusion_chain", ("eager_fwd", "codegen"), fusion_batch,
        lambda m: build_fusion_tail_step(m, fusion_batch, np.random.default_rng(7100)),
        fusion_inner,
    )
    # Reduction-tail codegen: the softmax-CE scoring tail as eager ufuncs
    # plus numpy reductions vs one structured (map + reduce stages) region
    # kernel through compile_region.
    record_engine_pair(
        "fusion_reduce", ("eager_fwd", "codegen"), fusion_batch,
        lambda m: build_fusion_reduce_step(m, fusion_batch, np.random.default_rng(7200)),
        fusion_inner,
    )

    # Dynamic-batching front end: a burst of single-sample requests served
    # per-request (eager / compiled session) vs through the queued Server.
    serve_requests = 32 if quick else 192
    serve_buckets = (1, 4, 8) if quick else (1, 4, 16, 64)
    serve_workers = 2
    overload_requests = 32 if quick else 96
    overload_delay = 0.002
    overload_limit = 8
    resilience: Dict[str, Dict] = {}
    for bname in backends:
        queue_report = run_serve_queue(
            serve_requests, serve_buckets, serve_workers, 0.001,
            np.random.default_rng(8000), rounds,
        )
        qstats = queue_report["stats"]
        for mode, seconds in queue_report["timings"].items():
            rec = {
                "workload": "serve_queue", "engine": mode, "batch": 1,
                "backend": bname, "requests": serve_requests,
                "total_ms": seconds * 1e3,
                "throughput_rps": serve_requests / seconds,
            }
            if mode == "queued":
                rec["workers"] = serve_workers
                rec["buckets"] = list(serve_buckets)
                rec["batch_occupancy"] = qstats["batch_occupancy"]
                rec["latency_ms_p50"] = qstats["latency_ms_p50"]
                rec["latency_ms_p95"] = qstats["latency_ms_p95"]
                rec["latency_ms_p99"] = qstats["latency_ms_p99"]
            results.append(rec)
            print(
                f"{'serve_q':9s}{mode + '/' + bname:14s} reqs={serve_requests:<4d}"
                f" {rec['throughput_rps']:8.0f} req/s"
            )
        # Overload: arrival >> capacity, shed_oldest vs unbounded queueing.
        overload = run_serve_overload(
            overload_requests, overload_delay, overload_limit,
            np.random.default_rng(8100),
        )
        for mode, report in overload.items():
            rec = {
                "workload": "serve_queue", "engine": f"overload_{mode}",
                "batch": 1, "backend": bname, "requests": overload_requests,
                "total_ms": report["elapsed"] * 1e3,
                "completed": report["completed"],
                "shed_rate": report["shed_rate"],
                "latency_ms_p99": report["latency_ms_p99"],
                "queue_limit": overload_limit if mode == "shed" else None,
                "service_delay_ms": overload_delay * 1e3,
            }
            results.append(rec)
            print(
                f"{'serve_o':9s}{mode + '/' + bname:14s} reqs={overload_requests:<4d}"
                f" p99={rec['latency_ms_p99']:7.1f} ms  shed={rec['shed_rate']:.2f}"
            )
        # Resilience counters: the healthy queued run's stats() plus the
        # overload comparison, per backend — CI asserts these keys exist.
        resilience[bname] = {
            "requests_rejected": qstats["requests_rejected"],
            "requests_expired": qstats["requests_expired"],
            "requests_failed": qstats["requests_failed"],
            "batches_retried": qstats["batches_retried"],
            "worker_restarts": qstats["worker_restarts"],
            "latency_ms_p99": qstats["latency_ms_p99"],
            "overload": {
                "queue_limit": overload_limit,
                "service_delay_ms": overload_delay * 1e3,
                "shed_rate": overload["shed"]["shed_rate"],
                "completed_shed": overload["shed"]["completed"],
                "completed_unbounded": overload["unbounded"]["completed"],
                "p99_ms_shed": overload["shed"]["latency_ms_p99"],
                "p99_ms_unbounded": overload["unbounded"]["latency_ms_p99"],
            },
        }

    # Observability overhead: the instrumented hot path (registry + tracer)
    # vs the same Server with NULL_REGISTRY/no tracer, interleaved rounds.
    # A percent-level ratio needs a burst long enough to rise above
    # scheduler jitter, so the pair keeps a floor of 128 requests even in
    # the quick config (~2s extra, and the number is actually meaningful).
    obs_requests = max(128, serve_requests)
    observability: Dict[str, Dict] = {}
    for bname in backends:
        obs_report = run_obs_overhead(
            obs_requests, serve_buckets, serve_workers, 0.001,
            np.random.default_rng(8200), rounds,
        )
        observability[bname] = obs_report
        print(
            f"{'serve_m':9s}{'obs/' + bname:14s} reqs={obs_requests:<4d}"
            f" overhead={obs_report['overhead_frac'] * 100:+5.1f}%"
            f" (on={obs_report['on_ms']:.1f}ms off={obs_report['off_ms']:.1f}ms)"
        )

    # Process-sharded serving: thread vs process workers on the same burst,
    # plus the open-loop arrival-rate sweep (throughput at a p99 SLO).
    # Headline backend only — the comparison is worker substrate, not
    # kernels, and the process arm pays a worker-compile warmup per server.
    process_serving: Dict[str, Dict] = {}
    proc_backend = backends[0]
    openloop_rates = [50, 100, 200] if quick else [100, 200, 400, 800]
    openloop_duration = 0.25 if quick else 0.5
    openloop_slo_ms = 50.0
    proc_report = run_serve_procpool(
        serve_requests, serve_buckets, serve_workers, 0.001,
        np.random.default_rng(8300), rounds,
    )
    open_report = run_serve_openloop(
        openloop_rates, openloop_duration, openloop_slo_ms,
        serve_buckets, serve_workers, 0.001,
        np.random.default_rng(8400),
    )
    thread_s = proc_report["timings"]["thread"]
    process_s = proc_report["timings"]["process"]
    for mode, seconds in proc_report["timings"].items():
        rec = {
            "workload": "serve_proc", "engine": mode, "batch": 1,
            "backend": proc_backend, "requests": serve_requests,
            "workers": serve_workers, "total_ms": seconds * 1e3,
            "throughput_rps": serve_requests / seconds,
            "latency_ms_p99": proc_report["stats"][mode]["latency_ms_p99"],
        }
        results.append(rec)
        print(
            f"{'serve_p':9s}{mode + '/' + proc_backend:14s}"
            f" reqs={serve_requests:<4d}"
            f" {rec['throughput_rps']:8.0f} req/s"
        )
    sustained = open_report["sustained_rps"]
    process_serving[proc_backend] = {
        "workers": serve_workers,
        "cores": os.cpu_count(),
        "start_method": proc_report["stats"]["process"]["start_method"],
        "burst": {
            "thread_rps": serve_requests / thread_s,
            "process_rps": serve_requests / process_s,
            "process_vs_thread": thread_s / process_s,
        },
        "openloop": open_report,
    }
    if sustained["thread"] > 0:
        process_serving[proc_backend]["openloop"]["process_vs_thread_slo"] = (
            sustained["process"] / sustained["thread"]
        )
    print(
        f"{'serve_p':9s}{'openloop':14s} slo={openloop_slo_ms:.0f}ms"
        f" thread={sustained['thread']:.0f} rps"
        f" process={sustained['process']:.0f} rps"
    )

    # Headline speedups keep their historical keys and semantics (seed engine
    # vs. repro).
    headline = backends[0]
    speedups = {}
    for workload in ("mlp", "reduction"):
        for batch in batches:
            times = {
                r["backend"] or r["engine"]: r["per_step_ms"]
                for r in results
                if r["workload"] == workload and r["batch"] == batch
            }
            if "seed" in times and headline in times:
                speedups[f"{workload}/batch{batch}"] = times["seed"] / times[headline]

    def _paired_ratio(workload: str, num_engine: str, den_engine: str) -> Dict[str, float]:
        """Per-backend/batch best-of ratios between two engines of a workload.

        Best-of timings: the minimum over repeats is the least
        noise-contaminated estimate of a deterministic step, so ratios
        between two near-identical code paths are not dominated by
        scheduler jitter."""
        ratios = {}
        for r in results:
            if r["workload"] != workload or r["engine"] != num_engine:
                continue
            twin = next(
                (
                    s for s in results
                    if s["workload"] == workload and s["engine"] == den_engine
                    and (s["backend"], s["batch"]) == (r["backend"], r["batch"])
                ),
                None,
            )
            if twin is not None:
                key = f"{workload}/{r['backend']}/batch{r['batch']}"
                ratios[key] = r["best_ms"] / twin["best_ms"]
        return ratios

    # Inference section: eager-vs-compiled per backend/batch (> 1.0 means the
    # compiled replay beats the eager no_grad forward).
    inference = _paired_ratio("tbnet_infer", "eager", "compiled")
    # Fusion section: the forward-only eager-vs-codegen tails (> 1.0 means
    # the compiled region kernel beats the eager ufuncs).
    fusion_ratios = {}
    for key, value in _paired_ratio("fusion_chain", "eager_fwd", "codegen").items():
        fusion_ratios[key.replace("fusion_chain/", "fusion_chain/codegen/", 1)] = value
    for key, value in _paired_ratio("fusion_reduce", "eager_fwd", "codegen").items():
        fusion_ratios[key.replace("fusion_reduce/", "fusion_reduce/codegen/", 1)] = value

    # Serving section: queued dynamic batching vs both per-request paths
    # (> 1.0 on every row means the queue front end pays its overhead).
    serving = {}
    for bname in backends:
        rows = {
            r["engine"]: r for r in results
            if r["workload"] == "serve_queue" and r["backend"] == bname
        }
        if {"eager", "session", "queued"} <= rows.keys():
            queued_rps = rows["queued"]["throughput_rps"]
            serving[f"serve_queue/{bname}/queued_vs_session"] = (
                queued_rps / rows["session"]["throughput_rps"]
            )
            serving[f"serve_queue/{bname}/queued_vs_eager"] = (
                queued_rps / rows["eager"]["throughput_rps"]
            )
        if {"overload_unbounded", "overload_shed"} <= rows.keys():
            # > 1.0 means load-shedding bounds the completed-request p99
            # that unbounded queueing lets grow with the backlog.
            shed_p99 = rows["overload_shed"]["latency_ms_p99"]
            if shed_p99 > 0:
                serving[f"serve_queue/{bname}/overload_p99_unbounded_vs_shed"] = (
                    rows["overload_unbounded"]["latency_ms_p99"] / shed_p99
                )
    for bname, section in process_serving.items():
        # Worker-substrate ratios: > 1.0 means process sharding beats
        # thread sharding (expect < 1.0 on a single core, where the
        # process arm pays IPC for no parallelism).
        serving[f"serve_proc/{bname}/process_vs_thread"] = (
            section["burst"]["process_vs_thread"]
        )
        slo_ratio = section["openloop"].get("process_vs_thread_slo")
        if slo_ratio is not None:
            serving[f"serve_openloop/{bname}/process_vs_thread_slo"] = slo_ratio

    # Module-vs-functional ratios are overhead measurements, not seed-engine
    # speedups, so they live under their own key: the ROADMAP's "beat the
    # speedups" rule must not treat them as a perf trajectory.
    overhead = {}
    for batch in batches:
        times = {
            r["engine"]: r["per_step_ms"]
            for r in results
            if r["workload"] == "nn_mlp" and r["batch"] == batch and r["backend"] == headline
        }
        if "functional" in times and "module" in times:
            # >= 1.0 means the Module layer is free; < 1.0 is its overhead.
            overhead[f"nn_mlp/batch{batch}"] = times["functional"] / times["module"]

    from repro.codegen import codegen_stats, have_compiler

    report = {
        "schema": "bench_autograd/v10",
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "quick": quick,
            "backends": backends,
            "headline_backend": headline,
            # Pinning BLAS to one thread (OMP_NUM_THREADS=1) stabilizes the
            # paired ratios on noisy hosts; record it so artifacts are only
            # compared like-for-like.
            "blas_threads": os.environ.get("OMP_NUM_THREADS", "default"),
        },
        "config": {
            "mlp_dims": mlp_dims,
            "reduction": {"width": red_width, "depth": red_depth},
            "batch_sizes": batches,
            "repeats": repeats,
            "inner_steps": inner,
            "rounds": rounds,
        },
        "results": results,
        "speedups": speedups,
        "overhead": overhead,
        "inference": inference,
        "fusion": fusion_ratios,
        # Whether the codegen rows above ran the compiled arm or the
        # interpreter fallback, and how the kernel cache behaved.
        "codegen": {"have_compiler": have_compiler(), **codegen_stats()},
        "serving": serving,
        "resilience": resilience,
        "observability": observability,
        "process_serving": process_serving,
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"\nwrote {args.output}")
    for key, value in sorted(speedups.items()):
        print(f"  speedup {key}: {value:.2f}x")
    for key, value in sorted(overhead.items()):
        print(f"  overhead {key}: {value:.2f}x (functional/module)")
    for key, value in sorted(inference.items()):
        print(f"  inference {key}: {value:.2f}x (eager/compiled)")
    for key, value in sorted(fusion_ratios.items()):
        print(f"  fusion {key}: {value:.2f}x (eager/codegen)")
    for key, value in sorted(serving.items()):
        print(f"  serving {key}: {value:.2f}x (queued throughput gain)")
    for bname, section in sorted(resilience.items()):
        over = section["overload"]
        print(
            f"  resilience {bname}: shed_rate={over['shed_rate']:.2f} "
            f"p99 shed={over['p99_ms_shed']:.1f}ms vs "
            f"unbounded={over['p99_ms_unbounded']:.1f}ms"
        )
    for bname, section in sorted(observability.items()):
        print(
            f"  observability {bname}: overhead="
            f"{section['overhead_frac'] * 100:+.1f}% (budget < 3%)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
