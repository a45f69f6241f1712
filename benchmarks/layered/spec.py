"""Names of everything the benchmark reports: workloads, metrics, units.

``BENCHMARK.json`` at the repository root carries the same names (the
self-test keeps the two in step).  Nothing here imports numpy or ``repro``,
so the parent process and the self-test can read it for free.
"""

from __future__ import annotations

from typing import NamedTuple

RUN_SECONDS = 10


class Workload(NamedTuple):
    why: str         # one line: which layer does the work
    batch: int       # samples per operation; the layer drives use it too
    slo_ms: float    # the latency limit ``slo_ok_frac`` counts against
    timer_ms: float = 0.0  # part of every latency that is a timer, not work


WORKLOADS = {
    "train_b64": Workload(
        "kernel-bound training: conv/pool/batch-norm forward+backward in "
        "autograd.functional are >90% of a TBNet step at batch 64",
        64, 100.0),
    "train_b4": Workload(
        "same train step at batch 4, where about half the time is "
        "autograd.tensor dispatch, the tape walk and nn.optim Python loops",
        4, 15.0),
    "infer_tbnet_b1": Workload(
        "the paper's headline: one image through a compiled TBNet session, "
        "no server; all time is serve.session replay, no region kernel",
        1, 1.0),
    "infer_chain_b64": Workload(
        "a linear+elementwise chain compiled at batch 64: the one user path "
        "where autograd.fusion regions and codegen C kernels carry the number",
        64, 1.0),
    "serve_thread_lo": Workload(
        "open loop, 200 rps of single samples on the thread server: the "
        "batcher's 2 ms max_wait and the per-request fixed path dominate",
        1, 25.0, timer_ms=2.0),
    "serve_thread_hi": Workload(
        "open loop, 1500 rps on the same server: coalescing is live, so queue "
        "hand-off, coalesce, scatter and GIL sharing with submit() dominate",
        16, 25.0),
    "serve_proc_hi": Workload(
        "the serve_thread_hi schedule on one worker process: same front end, "
        "but serve.arena ring copies and the serve.procpool control pipe",
        16, 25.0),
    "serve_sat_mixed": Workload(
        "closed loop, 32 requests of 1-32 samples outstanding on the thread "
        "server: capacity, with SessionPool routing and big buckets dominant",
        64, 150.0),
}

#: (name, unit, better, bound): what a user of the system sees.  Every
#: workload reports every one of them.
END_TO_END = (
    ("latency_ms_p50", "ms", "lower", 0.20),
    ("samples_per_s", "1/s", "higher", 0.20),
    ("slo_ok_frac", "share", "higher", 0.05),
    ("cpu_ms_per_op", "ms", "lower", 0.20),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

_MS, _US, _S, _N, _F = "ms", "us", "s", "count", "share"

#: (name, unit, better): one reading per layer, taken in the traced run.
PER_LAYER = (
    # autograd.tensor
    ("tensor.forward_ms", _MS, "lower"),
    ("tensor.backward_ms", _MS, "lower"),
    ("tensor.tape_nodes", _N, "lower"),
    ("tensor.dispatch_us_per_op", _US, "lower"),
    ("tensor.backward_us_per_node", _US, "lower"),
    # autograd.functional
    ("functional.conv2d_fwd_ms", _MS, "lower"),
    ("functional.conv2d_bwd_ms", _MS, "lower"),
    ("functional.max_pool2d_fwd_ms", _MS, "lower"),
    ("functional.max_pool2d_bwd_ms", _MS, "lower"),
    ("functional.batch_norm_fwd_ms", _MS, "lower"),
    ("functional.batch_norm_bwd_ms", _MS, "lower"),
    ("functional.linear_fwd_ms", _MS, "lower"),
    ("functional.softmax_ce_ms", _MS, "lower"),
    # autograd.ir / autograd.fusion / backend
    ("ir.capture_ms", _MS, "lower"),
    ("ir.trace_nodes", _N, "lower"),
    ("fusion.plan_build_ms", _MS, "lower"),
    ("fusion.plan_cached_ms", _MS, "lower"),
    ("fusion.regions", _N, "higher"),
    ("fusion.nodes_fused", _N, "higher"),
    ("backend.call_overhead_us", _US, "lower"),
    # codegen
    ("codegen.compile_cold_s", _S, "lower"),
    ("codegen.load_disk_ms", _MS, "lower"),
    ("codegen.kernel_call_us", _US, "lower"),
    ("codegen.interpret_call_us", _US, "lower"),
    ("codegen.compiled", _N, "lower"),
    ("codegen.disk_hits", _N, "higher"),
    ("codegen.memo_hits", _N, "higher"),
    ("codegen.fallbacks", _N, "lower"),
    # nn
    ("nn.optim_step_ms", _MS, "lower"),
    ("nn.zero_grad_ms", _MS, "lower"),
    # serve.session
    ("session.compile_ms_b1", _MS, "lower"),
    ("session.compile_ms_b64", _MS, "lower"),
    ("session.run_ms_b1", _MS, "lower"),
    ("session.run_ms_b4", _MS, "lower"),
    ("session.run_ms_b16", _MS, "lower"),
    ("session.run_ms_b64", _MS, "lower"),
    ("session.steps", _N, "lower"),
    # serve.frontend: SessionPool
    ("pool.serve_ms_n1", _MS, "lower"),
    ("pool.serve_ms_n23", _MS, "lower"),
    ("pool.serve_ms_n64", _MS, "lower"),
    ("pool.route_overhead_us", _US, "lower"),
    # serve.frontend: Server
    ("frontend.submit_us", _US, "lower"),
    ("frontend.queue_wait_ms_p50", _MS, "lower"),
    ("frontend.service_ms_p50", _MS, "lower"),
    ("frontend.stage_ms.queue_wait", _MS, "lower"),
    ("frontend.stage_ms.coalesce", _MS, "lower"),
    ("frontend.stage_ms.serve", _MS, "lower"),
    ("frontend.stage_ms.scatter", _MS, "lower"),
    ("frontend.stage_ms.resolve", _MS, "lower"),
    ("frontend.mean_batch", _N, "higher"),
    ("frontend.batch_occupancy", _F, "higher"),
    ("frontend.bucket_calls.1", _N, "lower"),
    ("frontend.bucket_calls.4", _N, "lower"),
    ("frontend.bucket_calls.16", _N, "lower"),
    ("frontend.bucket_calls.64", _N, "lower"),
    ("frontend.eager_tail_serves", _N, "lower"),
    ("frontend.batches_retried", _N, "lower"),
    ("frontend.unattributed_ms", _MS, "lower"),
    ("frontend.latency_ms_p99w", _MS, "lower"),
    ("frontend.bit_identical_frac", _F, "higher"),
    ("loadgen.late_ms_p99", _MS, "lower"),
    # serve.arena / serve.procpool
    ("arena.ring_copy_us_b1", _US, "lower"),
    ("arena.ring_copy_us_b64", _US, "lower"),
    ("arena.param_create_ms", _MS, "lower"),
    ("arena.param_publish_ms", _MS, "lower"),
    ("procpool.start_s", _S, "lower"),
    ("procpool.rtt_ms_b1", _MS, "lower"),
    ("procpool.publish_weights_ms", _MS, "lower"),
    ("procpool.pipe_fallbacks", _N, "lower"),
    ("procpool.respawns", _N, "lower"),
    # the cost of looking
    ("obs.trace_overhead_frac", _F, "lower"),
)


def benchmark_json() -> dict:
    """The contract file, built from the tables above."""
    return {
        "command": ["python3", "benchmarks/layered/run.py"],
        "paths": ["benchmarks/layered"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": workload.why}
                      for name, workload in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }
