"""Batched ``no_grad`` serving over compiled trace replay.

The serving stack toward the production north star, bottom-up:

- :func:`compile_inference` captures one eval-mode forward trace of a model
  through the graph IR and returns an :class:`InferenceSession` that replays
  it over new batches with pre-allocated, reused buffers — no tape, no
  module dispatch, fused composite kernels;
- :mod:`repro.serve.stages` plans the work around a session's GEMMs into
  compiled C loop stages, compiled off the request path and adopted by the
  session's owner thread (:meth:`InferenceSession.wait_compiled`,
  :meth:`InferenceSession.explain`) — a session never waits for a compiler;
- :func:`serve_batches` chunks an arbitrarily long request stream through
  one fixed-batch session;
- :class:`SessionPool` compiles one session per bucket size and routes any
  sample count through a greedy bucket decomposition, retiring the eager
  odd-chunk fallback to a last resort;
- :class:`Server` is the dynamic-batching request-queue front end: clients
  submit arrays and get futures, batching loops on sharded worker threads
  coalesce requests, run them through per-worker pool replicas, and scatter
  result copies back, with queue/latency/throughput metrics on
  :meth:`Server.stats`;
- :mod:`repro.serve.resilience` makes the front end operable under failure:
  bounded queues with ``block``/``reject``/``shed_oldest`` backpressure,
  per-request deadlines (:class:`DeadlineExceeded`), transient-retry +
  bisection batch-failure isolation (:class:`RetryPolicy`), and worker
  supervision (watchdog respawn with backoff, :meth:`Server.health` /
  :meth:`Server.ready` probes);
- :mod:`repro.serve.faults` provides deterministic seeded chaos hooks
  (:class:`FaultInjector` / :func:`inject_faults`) — raise-on-nth-call,
  added latency, worker-kill, poisoned payloads — so every resilience
  behavior is testable under injected failure;
- :class:`ProcServer` (:mod:`repro.serve.procpool`) swaps the worker
  substrate for OS **processes** over :mod:`repro.serve.arena` shared
  memory: parameters published once into a versioned double-banked
  :class:`ParamArena` (zero-copy views in every worker,
  :meth:`ProcServer.publish_weights` hot-swaps them), requests/results
  through fixed-slot :class:`RequestRing` buffers (nothing pickled on the
  hot path), with the full resilience contract — kill → respawn,
  crash-loop retirement, stuck replacement, bounded segment-clean
  ``stop()`` — ported to real processes;
- :class:`AsyncServer` (:mod:`repro.serve.aio`) is the asyncio front
  door: ``await aserver.submit(x)`` bridges the future to the event loop
  so one process holds tens of thousands of in-flight requests;
- the front end emits through :mod:`repro.obs`: every server owns a metric
  registry (Prometheus exposition) and a per-request stage-span tracer,
  ``Server.serve_http()`` exposes ``/metrics`` / ``/health`` / ``/ready``
  / ``/traces.json``, and ``REPRO_PROFILE=1`` turns on the op-level
  profiler inside compiled replay.

See :mod:`repro.serve.session` for the execution model and guarantees
(bit-identical to the eager ``no_grad`` forward; dtype and shape are both
part of the compiled signature; train-mode traces are rejected; parameters
are bound by reference, batch-norm statistics are frozen at compile) and
:mod:`repro.serve.frontend` for the batching, sharding, and resilience
semantics.
"""

from repro.serve.aio import AsyncServer
from repro.serve.arena import ParamArena, RequestRing
from repro.serve.faults import FaultInjector, PoisonedRequest, inject_faults
from repro.serve.frontend import DEFAULT_BUCKETS, Server, SessionPool
from repro.serve.procpool import ProcServer
from repro.serve.resilience import (
    BACKPRESSURE_MODES,
    DeadlineExceeded,
    RetryPolicy,
    ServerOverloaded,
    SupervisionPolicy,
    TransientError,
    WorkerKill,
)
from repro.serve.session import InferenceSession, compile_inference, serve_batches

__all__ = [
    "AsyncServer",
    "BACKPRESSURE_MODES",
    "DEFAULT_BUCKETS",
    "DeadlineExceeded",
    "FaultInjector",
    "InferenceSession",
    "ParamArena",
    "PoisonedRequest",
    "ProcServer",
    "RequestRing",
    "RetryPolicy",
    "Server",
    "ServerOverloaded",
    "SessionPool",
    "SupervisionPolicy",
    "TransientError",
    "WorkerKill",
    "compile_inference",
    "inject_faults",
    "serve_batches",
]
