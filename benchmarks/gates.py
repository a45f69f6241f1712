"""Performance gates: each reading printed beside its bound.

    PYTHONPATH=src python benchmarks/gates.py

Exits 1 if any bound fails.  Both arms of a pair must return the same
bytes before it is timed, so a broken arm fails its gate with no ratio.
Compute pairs compare each arm's best block of steps, blocks interleaved;
serving pairs time bursts of single-sample requests.  On fewer than 4
cores process workers cannot outrun the GIL, so the serving ratio must
there only be positive.
"""

import contextlib
import os
import statistics
import sys
import time

import numpy as np

from repro import serve
from repro.autograd import no_grad
from repro.codegen import RegionInput, RegionIR, compile_region
from repro.models import TBNet, make_synthetic_batch
from repro.obs import NULL_REGISTRY

ROUNDS, REPEATS = 2, 3  # blocks per arm: ROUNDS * REPEATS, a warm-up step per round
SERVE_BUCKETS, SERVE = (1, 4, 8), {"workers": 2}


class ArmsDiffer(Exception):
    """The two arms of a pair returned different bytes."""


def same_bytes(a, b, what: str) -> None:
    a, b = np.asarray(a), np.asarray(b)
    if (a.dtype, a.shape, a.tobytes()) != (b.dtype, b.shape, b.tobytes()):
        raise ArmsDiffer(f"{what}: the arms return different bytes")


def best_ratio(step_a, step_b, inner: int) -> float:
    """Best per-block time of ``step_a`` over that of ``step_b``."""
    best_a = best_b = float("inf")
    for _ in range(ROUNDS):
        step_a()
        step_b()
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(inner):
                step_a()
            mid = time.perf_counter()
            for _ in range(inner):
                step_b()
            best_a = min(best_a, mid - start)
            best_b = min(best_b, time.perf_counter() - mid)
    return best_a / best_b


def fusion_pair(region: RegionIR, arrays, eager) -> float:
    """Eager ufuncs over ``region`` compiled to one kernel."""
    kernel = compile_region(region)
    buf = np.empty(region.out_shape, region.out_dtype)
    same_bytes(eager(), kernel(arrays, out=buf), "region kernel vs eager ufuncs")
    return best_ratio(eager, lambda: kernel(arrays, out=buf), inner=10)


def fusion_chain() -> float:
    rng = np.random.default_rng(7100)
    x = rng.standard_normal((64, 128)).astype(np.float32)
    scale = rng.standard_normal(128).astype(np.float32)
    shift = rng.standard_normal(128).astype(np.float32)
    ops, h = [], 0  # slots 0-2 are the inputs, op i writes slot 3 + i
    for _ in range(4):
        ops += [("mul", (h, 1)), ("add", (len(ops) + 3, 2)), ("relu", (len(ops) + 4,))]
        h = len(ops) + 2

    def eager(out=x):
        for _ in range(4):
            out = np.maximum(np.add(np.multiply(out, scale), shift), 0.0)
        return out

    inputs = [RegionInput(np.float32, a.shape) for a in (x, scale, shift)]
    return fusion_pair(RegionIR(inputs, ops, x.shape, np.float32), [x, scale, shift], eager)


def fusion_reduce() -> float:
    rng = np.random.default_rng(7200)
    logp = -np.abs(rng.standard_normal((64, 512))).astype(np.float32)
    t = rng.random((64, 512)).astype(np.float32)
    ops = [("mul", (0, 1)), ("neg", (2,)), ("sum", (3,), (1, False)), ("mean", (4,), (1, False))]

    def eager():
        return np.negative(np.multiply(logp, t)).sum(axis=-1).mean(axis=-1)

    inputs = [RegionInput(np.float32, a.shape) for a in (logp, t)]
    return fusion_pair(RegionIR(inputs, ops, (), np.float32), [logp, t], eager)


def inference_batch1() -> float:
    """Eager no_grad TBNet over its compiled session, both at batch 1."""
    rng = np.random.default_rng(6001)
    model = TBNet(width=16, rng=rng)
    model.eval()
    images, context, _ = make_synthetic_batch(1, rng=rng)
    session = serve.compile_inference(model, (images, context))
    session.wait_compiled(120)  # time the compiled arm, not the compile thread
    same_bytes(session.run(images, context), model.infer(images, context), "session vs eager")

    def eager():
        with no_grad():
            return model(images, context)

    return best_ratio(eager, lambda: session.run(images, context), inner=2)


@contextlib.contextmanager
def serving_pair(seed: int, n: int, second):
    """A TBNet, ``n`` single-sample requests and two started servers: a
    thread ``Server`` and ``second(model, example, buckets, **SERVE)``.
    Both serve every request alone, with the same bytes, then one burst."""
    rng = np.random.default_rng(seed)
    model = TBNet(width=16, rng=rng)
    model.eval()
    images, context, _ = make_synthetic_batch(n, rng=rng)
    samples = [(images.data[i:i + 1], context.data[i:i + 1]) for i in range(n)]
    servers = [serve.Server(model, samples[0], SERVE_BUCKETS, **SERVE),
               second(model, samples[0], SERVE_BUCKETS, **SERVE)]
    try:
        for server in servers:
            server.start()
        alone = [np.concatenate([server.submit(*s).result() for s in samples])
                 for server in servers]
        same_bytes(*alone, f"{type(servers[1]).__name__} vs thread Server")
        for server in servers:
            burst_s(server, samples)
        yield servers, samples
    finally:
        for server in servers:
            server.stop()


def burst_s(server, samples) -> float:
    start = time.perf_counter()
    for future in [server.submit(*s) for s in samples]:
        future.result()
    return time.perf_counter() - start


def serving() -> float:
    """Thread Server burst time over ProcServer's, 32 requests, best round."""
    def proc(model, *args, **kwargs):
        return serve.ProcServer(model, *args, model_factory=model.spawn_factory(), **kwargs)

    with serving_pair(8300, 32, proc) as (servers, samples):
        rounds = [[burst_s(server, samples) for server in servers] for _ in range(ROUNDS)]
    thread_s, process_s = map(min, zip(*rounds))
    return thread_s / process_s


def obs_overhead():
    """A default Server's burst time over an uninstrumented one's, minus one:
    median of 12 rounds of 128 requests, best of two sessions of fresh servers.
    Beside it, each arm's process CPU per request over that session's bursts,
    so a reading above the bound says whether the instrumented path costs
    more CPU or the pair read noise."""
    def uninstrumented(*args, **kwargs):
        return serve.Server(*args, registry=NULL_REGISTRY, trace=False, **kwargs)

    def session():
        with serving_pair(8200, 128, uninstrumented) as (servers, samples):
            rounds, cpu_s = [], [0.0] * len(servers)
            for _ in range(12):
                row = []
                for i, server in enumerate(servers):
                    start = time.process_time()
                    row.append(burst_s(server, samples))
                    cpu_s[i] += time.process_time() - start
                rounds.append(row)
        ratio = statistics.median(on / off for on, off in rounds) - 1.0
        on_us, off_us = (c / (len(rounds) * len(samples)) * 1e6 for c in cpu_s)
        return ratio, f"cpu/request on {on_us:.1f} us, off {off_us:.1f} us"

    return min((session() for _ in range(2)), key=lambda reading: reading[0])


def main() -> int:
    cores = os.cpu_count() or 1
    serve_bound, serve_op = (1.0, ">=") if cores >= 4 else (0.0, ">")
    gates = [
        ("fusion relu(h*scale+shift)x4 (64,128) f32", fusion_chain, 1.0, ">="),
        ("fusion mean(sum(-(logp*t),-1)) (64,512) f32", fusion_reduce, 1.0, ">="),
        ("batch-1 inference eager/session", inference_batch1, 1.97, ">="),
        ("serving process/thread burst", serving, serve_bound, serve_op),
        ("observability overhead", obs_overhead, 0.06, "<"),
    ]
    failed = 0
    for name, measure, bound, op in gates:
        try:
            value = measure()
            value, detail = value if isinstance(value, tuple) else (value, "")
            ok = {">=": value >= bound, ">": value > bound, "<": value < bound}[op]
            reading = f"{value:.3f} (bound {op} {bound})" + (f"; {detail}" if detail else "")
        except ArmsDiffer as exc:
            ok, reading = False, f"{exc}; not timed"
        print(f"{'ok' if ok else 'FAIL':5s} {name}: {reading}")
        failed += not ok
    if cores < 4:
        print(f"serving gate >= 1.0 skipped: {cores} cores < 4; both arms served")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
