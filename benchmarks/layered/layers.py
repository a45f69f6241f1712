"""Per-layer metrics: each layer driven from outside, through its public
functions, plus what the traced window says about the workload's own time.

A reading that attributes the workload's time to a layer (``tensor.*_ms``,
``nn.*``, ``frontend.*``) is 0 on a workload that never enters that layer;
the isolated drives run on every workload, at the workload's batch size
where a batch matters.  Timings are medians scaled to the calibration
probe's reference speed, like the end-to-end ones.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.autograd import Tensor, functional as F, fusion, ir, no_grad
from repro.backend import get_backend
from repro.codegen import (
    RegionInput, RegionIR, clear_kernel_memo, codegen_stats, compile_region)
from repro.models import TBNet, make_synthetic_batch
from repro.serve import (
    ParamArena, RequestRing, SessionPool, compile_inference)

from benchmarks.layered.hygiene import CALIB_REF_MS
from benchmarks.layered.spans import SpanRecorder
from benchmarks.layered.workloads import BUCKETS, Chain, Serve, Train

_pc = time.perf_counter


class Drive:
    """Times calls; every median is scaled by probes taken around it."""

    def __init__(self, calib, scale: float) -> None:
        self.calib = calib
        #: Share of the full repetition budget (the smoke run uses little).
        self.scale = scale

    def factor(self, before: float) -> float:
        return CALIB_REF_MS / ((before + self.calib.burst(3)) / 2.0)

    def each(self, fns, budget_s: float = 0.04, floor: int = 5):
        """Median seconds per call of each of ``fns``, called in turn."""
        before = self.calib.burst(3)
        times = [[] for _ in fns]
        deadline = _pc() + budget_s * self.scale
        while len(times[0]) < floor or _pc() < deadline:
            for fn, taken in zip(fns, times):
                start = _pc()
                fn()
                taken.append(_pc() - start)
        factor = self.factor(before)
        return [statistics.median(taken) * factor for taken in times]

    def one(self, fn, budget_s: float = 0.04, floor: int = 5) -> float:
        return self.each([fn], budget_s, floor)[0]

    def once(self, fn):
        """One cold call: ``(scaled seconds, result)``."""
        before = self.calib.burst(3)
        start = _pc()
        result = fn()
        elapsed = _pc() - start
        return elapsed * self.factor(before), result


# --------------------------------------------------------------------- #
# autograd.tensor, nn: the parts of a train step
# --------------------------------------------------------------------- #
def train_parts(recorder: SpanRecorder, factor: float = 1.0) -> tuple:
    """The traced train steps -> ``(median span per part, how the parts add
    up to the step)``.  The adding-up is taken on means: medians of parts
    need not add to the median of the whole."""
    spans = recorder.by_name(recorder.durations())
    ms = {name: statistics.median(values) * 1e3 * factor
          for name, values in spans.items()}
    mean_ms = {name: statistics.fmean(values) * 1e3 * factor
               for name, values in spans.items()}
    step_self = recorder.by_name(recorder.self_times())["train_step"]
    metrics = {"tensor.forward_ms": ms["forward"],
               "tensor.backward_ms": ms["backward"],
               "nn.optim_step_ms": ms["optim_step"],
               "nn.zero_grad_ms": ms["zero_grad"]}
    return metrics, {
        "step_ms": mean_ms["train_step"],
        "parts_ms": sum(mean_ms[part] for part in
                        ("forward", "backward", "optim_step", "zero_grad")),
        "step_self_ms": statistics.fmean(step_self) * 1e3 * factor}


def drive_train_parts(drive: Drive, batch: int, seed: int) -> tuple:
    """The same parts on a workload that does not train."""
    train = Train("train_b64", seed, drive.calib)
    train.batch = batch
    train.setup()
    train.recorder = SpanRecorder()
    before = drive.calib.burst(3)
    for i in range(max(3, int(12 * drive.scale))):
        train._traced_step(i)
    return train_parts(train.recorder, drive.factor(before))


def drive_tensor(drive: Drive, model, batch_arrays) -> dict:
    x = Tensor(np.linspace(-1.0, 1.0, 16, dtype=np.float32), requires_grad=True)
    a = Tensor(np.full(16, 0.999, dtype=np.float32))
    b = Tensor(np.full(16, 0.001, dtype=np.float32))
    tape = {}

    def forward():
        h = x
        for _ in range(256):
            h = h * a + b
        tape["loss"] = h.sum()

    def backward():
        tape["loss"].backward()
        x.zero_grad()

    fwd_s, bwd_s = drive.each([forward, backward], 0.06)
    model.train()
    with ir.capture() as graph:
        loss = model.loss(*batch_arrays)
    loss.backward()
    model.zero_grad()
    return {
        "tensor.dispatch_us_per_op": fwd_s / 512 * 1e6,
        "tensor.backward_us_per_node": bwd_s / 513 * 1e6,
        "tensor.tape_nodes": len(graph),
    }


# --------------------------------------------------------------------- #
# autograd.functional at the shapes TBNet presents
# --------------------------------------------------------------------- #
def drive_functional(drive: Drive, batch: int, rng) -> dict:
    def tensor(*shape, grad=False):
        return Tensor(rng.standard_normal(shape).astype(np.float32),
                      requires_grad=grad)

    def pair(forward, leaves):
        """fwd/bwd seconds of ``forward()``, grads cleared off the clock."""
        held = {}

        def fwd():
            for leaf in leaves:
                leaf.zero_grad()
            held["out"] = forward()

        def bwd():
            out = held["out"]
            out.backward(np.ones_like(out.data))

        return drive.each([fwd, bwd])

    totals = {}
    # The two convolutions, poolings and batch norms of the spatial branch.
    stages = ((3, 16, 16), (16, 32, 8))
    for kind in ("conv2d", "max_pool2d", "batch_norm"):
        fwd_total = bwd_total = 0.0
        for c_in, c_out, hw in stages:
            if kind == "conv2d":
                x = tensor(batch, c_in, hw, hw, grad=c_in != 3)
                w, b = tensor(c_out, c_in, 3, 3, grad=True), tensor(c_out, grad=True)
                leaves = (x, w, b)
                call = lambda x=x, w=w, b=b: F.conv2d(x, w, b, padding=1)
            elif kind == "max_pool2d":
                x = tensor(batch, c_out, hw, hw, grad=True)
                leaves = (x,)
                call = lambda x=x: F.max_pool2d(x, 2)
            else:
                x = tensor(batch, c_out, hw, hw, grad=True)
                w, b = tensor(c_out, grad=True), tensor(c_out, grad=True)
                mean = np.zeros(c_out, dtype=np.float32)
                var = np.ones(c_out, dtype=np.float32)
                leaves = (x, w, b)
                call = lambda x=x, w=w, b=b, mean=mean, var=var: F.batch_norm(
                    x, w, b, mean, var, training=True)
            fwd_s, bwd_s = pair(call, leaves)
            fwd_total += fwd_s
            bwd_total += bwd_s
        totals[f"functional.{kind}_fwd_ms"] = fwd_total * 1e3
        totals[f"functional.{kind}_bwd_ms"] = bwd_total * 1e3
    # TBNet's four linears: context 16->32->32, head 544->64->10.
    linears = []
    for d_in, d_out in ((16, 32), (32, 32), (544, 64), (64, 10)):
        x, w, b = tensor(batch, d_in), tensor(d_in, d_out, grad=True), tensor(d_out, grad=True)
        linears.append(lambda x=x, w=w, b=b: F.linear(x, w, b))
    totals["functional.linear_fwd_ms"] = sum(drive.each(linears)) * 1e3
    logits = tensor(batch, 10, grad=True)
    targets = rng.integers(0, 10, size=batch)

    def softmax_ce():
        logits.zero_grad()
        F.softmax_cross_entropy(logits, targets).backward()

    totals["functional.softmax_ce_ms"] = drive.one(softmax_ce) * 1e3
    return totals


# --------------------------------------------------------------------- #
# autograd.ir, autograd.fusion, backend
# --------------------------------------------------------------------- #
def drive_ir(drive: Drive, model, images, context) -> dict:
    model.eval()
    held = {}

    def plain():
        with no_grad():
            model(images, context)

    def captured():
        with no_grad(), ir.capture() as graph:
            model(images, context)
        held["graph"] = graph

    plain_s, captured_s = drive.each([plain, captured])
    return {"ir.capture_ms": (captured_s - plain_s) * 1e3,
            "ir.trace_nodes": len(held["graph"])}


class _LongChain(Chain):
    """A chain no workload compiles, so its first fusion plan is a cold build."""

    def forward(self, x) -> Tensor:
        h = self.body(x)
        for _ in range(4):
            h = (h * self.scale + self.shift).relu()
        return self.out(h)


def drive_fusion(drive: Drive, rng) -> dict:
    model = _LongChain(rng)
    model.eval()
    x = Tensor(rng.standard_normal((64, 128)).astype(np.float32))
    held = {}

    def retrace():
        with no_grad(), ir.capture() as graph:
            held["root"] = model(x)
        held["graph"] = graph

    def fuse():
        return fusion.fuse(held["root"])

    retrace()
    build_s, counts = drive.once(fuse)
    _trace_s, cached_s = drive.each([retrace, fuse])
    steps_after = compile_inference(model, (x,)).num_steps
    return {"fusion.plan_build_ms": build_s * 1e3,
            "fusion.plan_cached_ms": cached_s * 1e3,
            "fusion.regions": counts.get("region", 0),
            "fusion.nodes_fused": len(held["graph"]) - steps_after}


def drive_backend(drive: Drive) -> dict:
    be = get_backend()
    a = np.linspace(0.0, 1.0, 16, dtype=np.float32)
    b = a[::-1].copy()

    def through_backend():
        add = be.add
        for _ in range(200):
            add(a, b)

    def bare():
        add = np.add
        for _ in range(200):
            add(a, b)

    backend_s, bare_s = drive.each([through_backend, bare], 0.02)
    return {"backend.call_overhead_us": (backend_s - bare_s) / 200 * 1e6}


# --------------------------------------------------------------------- #
# codegen
# --------------------------------------------------------------------- #
def chain_tail_region(rows: int = 64, width: int = 128) -> RegionIR:
    """Three rounds of ``relu(h * scale + shift)``: the chain model's tail."""
    inputs = [RegionInput(np.float32, (rows, width)),
              RegionInput(np.float32, (width,)),
              RegionInput(np.float32, (width,))]
    ops, h = [], 0
    for _ in range(3):
        ops.append(("mul", (h, 1)))
        ops.append(("add", (len(inputs) + len(ops) - 1, 2)))
        ops.append(("relu", (len(inputs) + len(ops) - 1,)))
        h = len(inputs) + len(ops) - 1
    return RegionIR(inputs, ops, (rows, width), np.float32)


def drive_codegen(drive: Drive, rng, scratch: Path) -> dict:
    """Cold compile, disk load, and kernel against interpreter.

    The compile goes to an empty cache directory of its own, or the chain
    workload's identical region would turn it into a disk hit.
    """
    region = chain_tail_region()
    arrays = [rng.standard_normal(inp.shape).astype(np.float32)
              for inp in region.inputs]
    previous = os.environ.get("REPRO_KERNEL_CACHE")
    os.environ["REPRO_KERNEL_CACHE"] = str(scratch / f"kernels-cold-{os.getpid()}")
    try:
        clear_kernel_memo()
        cold_s, _kernel = drive.once(lambda: compile_region(region))
        clear_kernel_memo()
        disk_s, kernel = drive.once(lambda: compile_region(region))
    finally:
        if previous is None:
            del os.environ["REPRO_KERNEL_CACHE"]
        else:
            os.environ["REPRO_KERNEL_CACHE"] = previous
    out = np.empty(region.out_shape, dtype=np.float32)
    kernel_s, interpret_s = drive.each(
        [lambda: kernel(arrays, out), lambda: region.interpret(arrays, out)])
    return {"codegen.compile_cold_s": cold_s,
            "codegen.load_disk_ms": disk_s * 1e3,
            "codegen.kernel_call_us": kernel_s * 1e6,
            "codegen.interpret_call_us": interpret_s * 1e6}


# --------------------------------------------------------------------- #
# serve.session, SessionPool
# --------------------------------------------------------------------- #
def drive_session(drive: Drive, model, images, context) -> dict:
    result = {}
    for bucket in (1, 64):
        seconds, _ = drive.once(lambda: model.compile_serving(bucket))
        result[f"session.compile_ms_b{bucket}"] = seconds * 1e3
    pool = SessionPool(model, (images[:1], context[:1]), BUCKETS)
    run_s = {b: drive.one(
        lambda b=b: pool.sessions[b].run(images[:b], context[:b]), 0.03)
        for b in BUCKETS}
    for bucket in BUCKETS:
        result[f"session.run_ms_b{bucket}"] = run_s[bucket] * 1e3
    result["session.steps"] = pool.sessions[1].num_steps
    serve_s = {n: drive.one(
        lambda n=n: pool.serve((images[:n], context[:n])), 0.03)
        for n in (1, 23, 64)}
    for n, seconds in serve_s.items():
        result[f"pool.serve_ms_n{n}"] = seconds * 1e3
    chunks, _ = pool.decompose(23)
    result["pool.route_overhead_us"] = (
        serve_s[23] - sum(run_s[c] for c in chunks)) * 1e6
    return result


# --------------------------------------------------------------------- #
# serve.arena, serve.procpool
# --------------------------------------------------------------------- #
def drive_arena(drive: Drive, model, images, context) -> dict:
    result = {}
    specs = [(images.shape[1:], images.dtype), (context.shape[1:], context.dtype)]
    ring = RequestRing.create(specs, ((10,), np.float32), capacity=64)
    try:
        for n in (1, 64):
            sink = np.empty((n, 10), dtype=np.float32)

            def copy(n=n, sink=sink):
                views = ring.input_views(0, n)
                views[0][...] = images[:n]
                views[1][...] = context[:n]
                sink[...] = ring.output_view(0, n)

            result[f"arena.ring_copy_us_b{n}"] = drive.one(copy, 0.02) * 1e6
    finally:
        ring.destroy()
    state = model.state_dict()
    create_s, arena = drive.once(lambda: ParamArena.create(state))
    try:
        result["arena.param_create_ms"] = create_s * 1e3
        result["arena.param_publish_ms"] = drive.one(
            lambda: arena.publish(state), 0.02) * 1e3
    finally:
        arena.destroy()
    return result


def drive_procpool(drive: Drive, model, images, context) -> dict:
    request = (images[:1], context[:1])
    held = {}

    def start():
        held["server"] = model.serve(
            buckets=BUCKETS, workers=1, workers_mode="process",
            start_method="fork")
        held["server"].submit(*request).result(timeout=120)

    try:
        start_s, _ = drive.once(start)
        server = held["server"]
        rtt_s = drive.one(lambda: server.submit(*request).result(timeout=60), 0.1)
        publish_s = drive.one(server.publish_weights, 0.02)
        stats = server.stats()
    finally:
        if "server" in held:
            held["server"].stop()
    return {"procpool.start_s": start_s,
            "procpool.rtt_ms_b1": rtt_s * 1e3,
            "procpool.publish_weights_ms": publish_s * 1e3,
            "procpool.pipe_fallbacks": stats["pipe_fallbacks"],
            "procpool.respawns": stats["process_restarts"]}


# --------------------------------------------------------------------- #
# serve.frontend: read from the traced workload's own server
# --------------------------------------------------------------------- #
FRONTEND_STAGES = ("queue_wait", "coalesce", "serve", "scatter", "resolve")


def frontend_metrics(workload, window, latency_raw_ms: float) -> dict:
    """``Server.stats()`` and ``server.tracer`` after the traced window."""
    stats = workload.server.stats()
    load = workload.loads[-1]
    stage = {name: [] for name in FRONTEND_STAGES}
    for span in workload.server.tracer.spans():
        if span.name in stage:
            stage[span.name].append(span.duration)
    result = {
        f"frontend.stage_ms.{name}":
            statistics.median(values) * 1e3 if values else 0.0
        for name, values in stage.items()
    }
    submit = load.submit_end - load.sent_at
    lat = np.asarray(window.latency)
    marks = np.asarray(window.mark_t)
    by_slice = np.searchsorted(marks, np.asarray(window.start), "right") - 1
    p99 = [np.percentile(lat[(by_slice == s) & np.isfinite(lat)], 99)
           for s in range(len(marks) - 1)
           if ((by_slice == s) & np.isfinite(lat)).any()]
    batches = stats["batches_dispatched"]
    result.update({
        "frontend.submit_us": float(np.nanmedian(submit)) * 1e6,
        "frontend.queue_wait_ms_p50": stats["queue_wait_ms_p50"],
        "frontend.service_ms_p50": stats["service_ms_p50"],
        "frontend.mean_batch":
            stats["samples_completed"] / batches if batches else 0.0,
        "frontend.batch_occupancy": stats["batch_occupancy"],
        "frontend.eager_tail_serves": stats["eager_tail_serves"],
        "frontend.batches_retried": stats["batches_retried"],
        "frontend.unattributed_ms": latency_raw_ms
            - stats["queue_wait_ms_p50"] - stats["service_ms_p50"],
        "frontend.latency_ms_p99w": float(np.median(p99)) * 1e3,
        "frontend.bit_identical_frac": workload.verify()["bit_identical_frac"],
        "loadgen.late_ms_p99": window.extra["late_ms_p99"],
    })
    for bucket in BUCKETS:
        result[f"frontend.bucket_calls.{bucket}"] = stats["bucket_calls"].get(bucket, 0)
    if workload.process:
        result["procpool.pipe_fallbacks"] = stats["pipe_fallbacks"]
        result["procpool.respawns"] = stats["process_restarts"]
    return result


def drive_frontend(drive: Drive, seed: int) -> tuple:
    """The front end's readings on a workload that does not serve: half a
    second of the ``serve_thread_hi`` schedule on a server of its own.
    Returns ``(metrics, raw latency p50 in ms)``."""
    serve = Serve("serve_thread_hi", seed, drive.calib)
    serve.setup()
    try:
        serve.recorder = SpanRecorder()
        window = serve.run(max(0.1, 0.5 * drive.scale))
        latency = float(np.nanmedian(window.latency)) * 1e3
        return frontend_metrics(serve, window, latency), latency
    finally:
        serve.close()


def all_drives(drive: Drive, workload, scratch: Path) -> dict:
    """Every isolated drive, at the workload's batch size."""
    rng = workload.rng(7)
    batch = workload.batch
    model = TBNet(width=16, rng=workload.rng(8))
    images, context, targets = make_synthetic_batch(max(batch, 64), rng=rng)
    metrics = {}
    metrics.update(drive_tensor(
        drive, model, (images.data[:batch], context.data[:batch], targets[:batch])))
    metrics.update(drive_functional(drive, batch, rng))
    metrics.update(drive_ir(drive, model, images.data[:batch], context.data[:batch]))
    metrics.update(drive_fusion(drive, rng))
    metrics.update(drive_backend(drive))
    metrics.update(drive_codegen(drive, rng, scratch))
    metrics.update(drive_session(drive, model, images.data, context.data))
    metrics.update(drive_arena(drive, model, images.data, context.data))
    metrics.update(drive_procpool(drive, model, images.data, context.data))
    return metrics


def workload_codegen_counts() -> dict:
    """``codegen_stats()`` as the workload left it (read before the drives)."""
    return {f"codegen.{key}": value for key, value in codegen_stats().items()}
