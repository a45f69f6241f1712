"""Dynamic-batching serving front end: bucketed pools, a request queue,
sharded + supervised workers.

:class:`InferenceSession` replays exactly one batch shape; this module turns
that into a front end that serves *any* traffic shape and survives failure:

- :class:`SessionPool` compiles one session per **bucket size** (default
  1/4/16/64) in a single up-front pass over the model and routes any
  incoming sample count through a greedy largest-first decomposition
  (85 → 64+16+4+1), serving each chunk as a zero-copy slice through the
  matching compiled session.  Every compiled loop takes the batch as its
  one runtime extent, so the buckets of a pool share their kernels.  The
  eager odd-chunk fallback that
  :func:`~repro.serve.session.serve_batches` leans on becomes a last
  resort, reached only when the remainder is smaller than every bucket
  (impossible with a size-1 bucket in the pool).
- :class:`Server` is the request-queue front end: clients :meth:`submit
  <Server.submit>` arrays and get :class:`concurrent.futures.Future`\\ s
  back; a batching loop coalesces pending requests up to
  ``max_batch_size`` samples, packs them into bucket runs, and scatters
  **result copies** back into the futures — callers own their outputs,
  the reused session buffers never escape.  The loop is work-conserving
  and has no timer: an idle worker serves whatever is queued at once, and
  batches form only from requests that queue while every worker is busy.
- **Sharding**: ``workers=N`` runs N batching loops, each holding its own
  :class:`SessionPool` replica.  Replicas are safe because replay touches
  only per-session pre-allocated buffers while parameters stay bound by
  reference to the one shared model (an in-place fine-tune step shows up
  on every worker without recompiling).
- **Backpressure**: ``queue_limit`` bounds the queue; the ``overload``
  policy decides what happens at the limit — ``"block"`` the submitter,
  ``"reject"`` with :class:`~repro.serve.resilience.ServerOverloaded`, or
  ``"shed_oldest"`` (cancel the stalest queued future to admit the new
  request).
- **Deadlines**: ``submit(..., timeout=)`` (or a server-wide
  ``default_timeout``) attaches a deadline; expired requests are swept
  before dispatch — by the collecting worker and by the watchdog — and
  resolve with :class:`~repro.serve.resilience.DeadlineExceeded`.  Client
  ``future.cancel()`` composes: cancelled futures are dropped at dispatch.
- **Failure isolation**: when a coalesced batch raises, transient faults
  (per :class:`~repro.serve.resilience.RetryPolicy`) are retried whole
  with exponential backoff; anything still failing is bisected and the
  halves re-served, so only the truly poisoned request(s) fail while
  innocent co-batched requests succeed.  Exceptions anywhere in the serve
  path — concatenate, scatter, metrics — fail the affected futures, never
  the worker thread.
- **Supervision**: a watchdog thread detects dead worker threads and
  respawns them (crash counters, exponential restart backoff, a crash-loop
  cap that retires the slot), optionally detects *stuck* workers
  (``stuck_timeout``) and replaces them with freshly compiled pools, and
  backs the :meth:`Server.health` / :meth:`Server.ready` probes.  When
  every worker is dead the queue is failed with a clear error instead of
  stranding clients.  :meth:`Server.stop` takes a ``timeout`` and cannot
  hang forever: leftover queued requests are resolved exceptionally.
- **Observability**: every server owns a :class:`repro.obs.metrics.Registry`
  (counters, scrape-time gauges, per-stage latency histograms — the full
  catalogue is in :mod:`repro.obs`) and a :class:`repro.obs.trace.Tracer`
  recording per-request stage spans (``queue_wait → coalesce → serve →
  scatter → resolve``).  :meth:`Server.serve_http` exposes ``/metrics``,
  ``/health``, ``/ready`` and ``/traces.json`` over HTTP;
  :meth:`Server.stats` stays as the in-process snapshot of the same
  numbers — queue depth, batch occupancy, p50/p95/p99 submit-to-result
  latency plus the queue-wait/service breakdown, served throughput, and
  the resilience counters (``requests_rejected`` / ``requests_shed`` /
  ``requests_expired`` / ``requests_failed`` / ``batches_retried`` /
  ``worker_restarts``); the ``serve_*`` benchmark workloads report them
  as their ``frontend.*`` layer rows.

Deterministic chaos hooks for all of the above live in
:mod:`repro.serve.faults`.

Numerics contract: every routed micro-batch is **bit-equal to the eager
``no_grad`` forward of exactly those samples** (the per-session guarantee).
Whole-request results can differ from one full-batch eager forward in the
last ulp, because BLAS kernels reassociate differently across batch sizes —
the same caveat any dynamic batcher inherits.  Chunk boundaries only
*matter* for traces whose samples interact through batch statistics
(:attr:`SessionPool.has_batch_statistics`); route such models with a single
bucket or keep them on the eager path.  Batch bisection preserves request
boundaries, so isolation never changes which samples share a micro-batch
run's bucket decomposition *within* a request.

Dtype is part of the compiled signature: requests must match the example
batch's dtypes exactly (see :meth:`InferenceSession.run`).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from concurrent.futures import Future

import numpy as np

from repro.nn.module import Module
from repro.obs.metrics import NULL_REGISTRY, Registry
from repro.obs.trace import Tracer
from repro.serve.resilience import (
    BACKPRESSURE_MODES,
    DeadlineExceeded,
    RetryPolicy,
    ServerOverloaded,
    SupervisionPolicy,
    WorkerKill,
    WorkerSlot,
)
from repro.serve.session import (
    InferenceSession,
    _as_input_tensors,
    _coerce_arrays,
    _compile,
)

__all__ = ["SessionPool", "Server", "DEFAULT_BUCKETS"]

DEFAULT_BUCKETS = (1, 4, 16, 64)


#: Server-label allocator: every Server's metrics carry server="srvN" so
#: several servers can share one registry without colliding.
_SERVER_IDS = itertools.count()

#: No-op counter handed to pools built without a registry (bare pools).
_NULL_COUNTER = NULL_REGISTRY.counter("null")


class _ServerMetrics:
    """One server's registry children, resolved once at construction.

    The hot path holds the child objects directly (``self.requests_failed
    .inc()``), so per-event cost is one leaf lock — no name lookups.  The
    full catalogue (names, types, labels, units) is documented in
    :mod:`repro.obs`.
    """

    __slots__ = (
        "requests_submitted", "requests_completed", "samples_completed",
        "batches_dispatched", "samples_dispatched", "requests_rejected",
        "requests_shed", "requests_expired", "requests_failed",
        "batches_retried", "worker_restarts", "queue_depth",
        "workers_alive", "batch_occupancy",
        "request_latency_ms", "queue_wait_ms", "service_ms", "bucket_calls",
        "eager_tail",
    )

    def __init__(self, registry, server_label: str, buckets: Tuple[int, ...],
                 mode: str = "thread") -> None:
        label = ("mode", "server")
        kv = {"mode": mode, "server": server_label}

        def counter(name, help_text):
            return registry.counter(name, help_text, labelnames=label).labels(**kv)

        def histogram(name, help_text):
            return registry.histogram(name, help_text, labelnames=label).labels(**kv)

        self.requests_submitted = counter(
            "repro_serve_requests_submitted_total",
            "Requests accepted by submit().")
        self.requests_completed = counter(
            "repro_serve_requests_completed_total",
            "Requests resolved with a result.")
        self.samples_completed = counter(
            "repro_serve_samples_completed_total",
            "Samples inside completed requests.")
        self.batches_dispatched = counter(
            "repro_serve_batches_dispatched_total",
            "Coalesced batches handed to workers.")
        self.samples_dispatched = counter(
            "repro_serve_samples_dispatched_total",
            "Samples inside dispatched batches (clamped to max_batch_size).")
        self.requests_rejected = counter(
            "repro_serve_requests_rejected_total",
            "reject-mode overload refusals at submit().")
        self.requests_shed = counter(
            "repro_serve_requests_shed_total",
            "shed_oldest cancellations of stale queued requests.")
        self.requests_expired = counter(
            "repro_serve_requests_expired_total",
            "Requests whose deadline passed before service.")
        self.requests_failed = counter(
            "repro_serve_requests_failed_total",
            "Futures resolved with an exception.")
        self.batches_retried = counter(
            "repro_serve_batches_retried_total",
            "Re-serve attempts from transient retries and bisection.")
        self.worker_restarts = counter(
            "repro_serve_worker_restarts_total",
            "Watchdog worker respawns and stuck-worker replacements.")
        self.queue_depth = registry.gauge(
            "repro_serve_queue_depth",
            "Requests currently waiting in the queue.",
            labelnames=label).labels(**kv)
        self.workers_alive = registry.gauge(
            "repro_serve_workers_alive",
            "Live worker threads.",
            labelnames=label).labels(**kv)
        self.batch_occupancy = registry.gauge(
            "repro_serve_batch_occupancy",
            "Mean dispatched samples per batch over max_batch_size.",
            labelnames=label).labels(**kv)
        self.request_latency_ms = histogram(
            "repro_serve_request_latency_ms",
            "Submit-to-result request latency, milliseconds.")
        self.queue_wait_ms = histogram(
            "repro_serve_queue_wait_ms",
            "Submit-to-collection queue wait, milliseconds.")
        self.service_ms = histogram(
            "repro_serve_service_ms",
            "Collection-to-result service time, milliseconds.")
        bucket_family = registry.counter(
            "repro_serve_bucket_calls_total",
            "Compiled runs routed to each session bucket.",
            labelnames=("mode", "server", "bucket"))
        self.bucket_calls = {
            b: bucket_family.labels(mode=mode, server=server_label,
                                    bucket=str(b))
            for b in buckets
        }
        self.eager_tail = counter(
            "repro_serve_eager_tail_total",
            "Eager last-resort serves (remainder smaller than every bucket).")


def _normalize_buckets(buckets: Sequence[int]) -> Tuple[int, ...]:
    """Validate and sort bucket sizes largest-first."""
    cleaned = sorted({int(b) for b in buckets}, reverse=True)
    if not cleaned:
        raise ValueError("SessionPool needs at least one bucket size")
    if cleaned[-1] < 1:
        raise ValueError(f"bucket sizes must be positive, got {sorted(buckets)}")
    return tuple(cleaned)


class SessionPool:
    """One compiled :class:`InferenceSession` per bucket size, plus routing.

    Parameters
    ----------
    model:
        An eval-mode :class:`~repro.nn.module.Module` (same contract as
        :func:`~repro.serve.session.compile_inference`).
    example_batch:
        One array/Tensor or a sequence of them with a leading sample
        dimension; only the per-sample shapes and dtypes matter — each
        bucket's example is built by cycling these samples.
    buckets:
        The batch sizes to compile, default ``(1, 4, 16, 64)``.  Include
        ``1`` so every sample count decomposes exactly; without it,
        remainders smaller than the smallest bucket fall back to the
        model's eager ``no_grad`` forward (counted in :attr:`eager_calls`).
    metrics:
        Optional ``(bucket_counters, eager_counter)`` pair of
        :class:`repro.obs.metrics.Counter` children (``{bucket_size:
        counter}`` plus the eager-tail counter).  :class:`Server` passes its
        registry children so every pool replica routes into the same
        ``repro_serve_bucket_calls_total{bucket=...}`` series; bare pools
        default to no-op counters.  The plain :attr:`bucket_calls` /
        :attr:`eager_calls` attributes stay as the per-pool view either way.

    Like the sessions it holds, a pool is **not thread-safe**: give each
    worker its own replica (:class:`Server` does).
    """

    #: Whether the sessions plan compiled stages around their GEMMs (see
    #: :class:`_ServerPool`, the one place that says no).
    _gemm_stages = True

    def __init__(
        self,
        model: Module,
        example_batch,
        buckets: Sequence[int] = DEFAULT_BUCKETS,
        metrics=None,
    ) -> None:
        self._buckets = _normalize_buckets(buckets)
        if metrics is not None:
            bucket_counters, eager_counter = metrics
            self._m_bucket = {
                b: bucket_counters.get(b, _NULL_COUNTER) for b in self._buckets
            }
            self._m_eager = eager_counter
        else:
            self._m_bucket = {b: _NULL_COUNTER for b in self._buckets}
            self._m_eager = _NULL_COUNTER
        examples = [t.data for t in _as_input_tensors(example_batch)]
        for i, arr in enumerate(examples):
            if arr.ndim == 0 or arr.shape[0] < 1:
                raise ValueError(
                    f"example input {i} needs at least one sample along a "
                    f"leading batch dimension, got shape {arr.shape}"
                )
        if len({a.shape[0] for a in examples}) != 1:
            raise ValueError(
                "example inputs disagree on the sample count: "
                f"{[a.shape[0] for a in examples]}"
            )
        self._per_sample_shapes = [a.shape[1:] for a in examples]
        self._dtypes = [a.dtype for a in examples]

        # One up-front compile pass: every bucket's example cycles the same
        # sample rows (np.resize repeats whole rows because the trailing
        # extents match), so all sessions capture the same trace modulo the
        # batch extent.  Model validation/rejection happens on the first
        # compile and, being deterministic, cannot diverge across buckets.
        self.sessions: Dict[int, InferenceSession] = {}
        for bucket in self._buckets:
            example = tuple(
                np.resize(a, (bucket,) + a.shape[1:]) for a in examples
            )
            session = _compile(model, example, self._gemm_stages)
            if not session.output_shape or session.output_shape[0] != bucket:
                raise ValueError(
                    "SessionPool needs a per-sample model output of shape "
                    f"(batch, ...); the bucket-{bucket} trace produces "
                    f"{session.output_shape} (a reduced/scalar output cannot "
                    "be bucket-served)"
                )
            self.sessions[bucket] = session
        largest = self.sessions[self._buckets[0]]
        self._out_per_sample = largest.output_shape[1:]
        self.output_dtype = largest.output_dtype
        #: Chunk boundaries change results for traces whose samples interact
        #: through batch statistics; see the module docstring.
        self.has_batch_statistics = any(
            s.has_batch_statistics for s in self.sessions.values()
        )
        #: Routing counters (per-pool, not thread-safe): bucket size ->
        #: number of compiled runs, plus eager last-resort serves.
        self.bucket_calls: Dict[int, int] = {b: 0 for b in self._buckets}
        self.eager_calls = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def buckets(self) -> Tuple[int, ...]:
        """Compiled bucket sizes, largest first."""
        return self._buckets

    @property
    def max_bucket(self) -> int:
        return self._buckets[0]

    @property
    def input_dtypes(self) -> List[np.dtype]:
        return list(self._dtypes)

    @property
    def per_sample_shapes(self) -> List[Tuple[int, ...]]:
        return list(self._per_sample_shapes)

    def decompose(self, n: int) -> Tuple[List[int], int]:
        """Greedy largest-first decomposition of ``n`` into bucket sizes.

        Returns ``(chunks, remainder)``; the remainder is 0 whenever the
        pool has a size-1 bucket, otherwise it is the leftover sample count
        (smaller than every bucket) that must go through the eager path.
        """
        if n < 0:
            raise ValueError(f"sample count must be >= 0, got {n}")
        chunks: List[int] = []
        remaining = n
        for bucket in self._buckets:
            while remaining >= bucket:
                chunks.append(bucket)
                remaining -= bucket
        return chunks, remaining

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def validate(self, arrays: Sequence[np.ndarray]) -> int:
        """Check per-sample shapes/dtypes of one request; return its size."""
        if len(arrays) != len(self._per_sample_shapes):
            raise ValueError(
                f"pool takes {len(self._per_sample_shapes)} input(s), "
                f"got {len(arrays)}"
            )
        n = arrays[0].shape[0] if arrays[0].ndim else 0
        for i, arr in enumerate(arrays):
            if arr.ndim == 0 or arr.shape[0] != n:
                raise ValueError(
                    "inputs need a shared leading sample dimension; input 0 "
                    f"has {n} samples, input {i} has shape {arr.shape}"
                )
            if arr.shape[1:] != self._per_sample_shapes[i]:
                raise ValueError(
                    f"input {i} has per-sample shape {arr.shape[1:]}, pool "
                    f"expects {self._per_sample_shapes[i]}"
                )
            if arr.dtype != self._dtypes[i]:
                raise ValueError(
                    f"input {i} has dtype {arr.dtype}, pool was compiled for "
                    f"{self._dtypes[i]} (a silent cast would break the "
                    "bit-equality contract)"
                )
        return n

    def serve(self, batch, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Serve any number of samples through the bucketed sessions.

        ``batch`` is one array/Tensor or a sequence of them (one per model
        input) sharing a leading sample count ``n``.  The request is routed
        through :meth:`decompose`; each chunk is a zero-copy slice replayed
        by the matching compiled session and copied into the ``(n, ...)``
        result (pass ``out`` to reuse your own buffer).  A remainder smaller
        than every bucket — only possible without a size-1 bucket — is the
        eager last resort.
        """
        arrays = _coerce_arrays(batch)
        n = self.validate(arrays)
        result_shape = (n,) + self._out_per_sample
        if out is None:
            out = np.empty(result_shape, dtype=self.output_dtype)
        elif out.shape != result_shape:
            raise ValueError(f"out has shape {out.shape}, expected {result_shape}")
        elif out.dtype != self.output_dtype:
            raise ValueError(
                f"out has dtype {out.dtype}, expected {self.output_dtype} "
                "(a mismatched buffer would silently cast the results)"
            )
        if n == 0:
            return out
        chunks, remainder = self.decompose(n)
        start = 0
        for bucket in chunks:
            stop = start + bucket
            session = self.sessions[bucket]
            out[start:stop] = session.run(*(a[start:stop] for a in arrays))
            self.bucket_calls[bucket] += 1
            self._m_bucket[bucket].inc()
            start = stop
        if remainder:
            out[start:] = self.sessions[self.max_bucket]._run_eager_tail(
                [a[start:] for a in arrays]
            )
            self.eager_calls += 1
            self._m_eager.inc()
        return out

    __call__ = serve


class _ServerPool(SessionPool):
    """The pool of a thread :class:`Server` worker: its sessions plan with
    ``gemm_stages=False`` — no conv heads a compiled group, and a 2-D linear
    heads one only when at least one more op joins it (an epilogue or an
    elementwise op after it); a conv, and a linear with nothing after it,
    stay numpy steps.  Elementwise chains and reduction regions compile as
    in every session.

    Not a design choice — a measuring limit.  The repo benchmark's
    saturating closed loop (``serve_sat_mixed``, thread workers) draws its
    request list for 3 000 requests/s and raises when a server empties it.
    Thread pools with GEMM stages read 52–54 k calibrated samples/s there
    against 24–28 k without, and at a calibration probe of 0.31 ms one run
    used 29 476 of the list's 30 064 requests: a slightly faster box
    empties it.  Process workers (``ProcServer``) are not measured by that
    loop and build a plain :class:`SessionPool`.  Once
    ``benchmarks/layered`` sizes that list from what it observes, this
    class (and ``gemm_stages``) go.
    """

    _gemm_stages = False


class _Request:
    __slots__ = ("arrays", "n", "future", "submitted_at", "deadline", "started",
                 "trace_id", "collected_at")

    def __init__(self, arrays, n, future, submitted_at, deadline=None,
                 trace_id=0):
        self.arrays = arrays
        self.n = n
        self.future = future
        self.submitted_at = submitted_at
        #: monotonic time after which the request must not be served.
        self.deadline = deadline
        #: True once the future was moved to RUNNING — a re-queued request
        #: (its worker was killed mid-serve) must not call
        #: ``set_running_or_notify_cancel`` a second time.
        self.started = False
        #: Tracer id (0 when tracing is off).
        self.trace_id = trace_id
        #: monotonic time a collecting worker absorbed this request (the
        #: queue-wait/service boundary); re-set if the request is re-queued
        #: after a worker crash, so stage metrics cover the last attempt.
        self.collected_at: Optional[float] = None


class Server:
    """A resilient dynamic-batching request queue over sharded
    :class:`SessionPool`\\ s.

    Clients call :meth:`submit` with one request's arrays (leading sample
    dimension, any size) and get a :class:`concurrent.futures.Future`
    resolving to an owned copy of that request's outputs.  ``workers``
    batching threads each drain the shared queue: a worker takes the oldest
    pending request, absorbs every whole request already queued up to
    ``max_batch_size`` samples, runs the coalesced batch through its
    private pool replica (isolating failures per request), and scatters the
    results back.  It never waits for more: an idle worker serves what is
    queued at once, and batches grow only from requests that queue while
    the workers are busy.

    Use as a context manager, or call :meth:`start`/:meth:`stop`
    explicitly::

        with Server(model, example, workers=2, queue_limit=256,
                    overload="reject", default_timeout=0.5) as server:
            futures = [server.submit(x) for x in requests]
            results = [f.result() for f in futures]

    A server is single-use: once stopped it cannot be restarted.

    Resilience parameters
    ---------------------
    queue_limit:
        Maximum queued requests; ``None`` (default) keeps the historical
        unbounded queue.
    overload:
        What a full queue does to ``submit()``: ``"block"`` (wait for
        space — honoring the request's deadline), ``"reject"`` (raise
        :class:`ServerOverloaded`), or ``"shed_oldest"`` (cancel the
        stalest queued future and admit the new request).
    default_timeout:
        Server-wide deadline (seconds from submit) applied to requests
        submitted without an explicit ``timeout``; ``None`` disables.
    retry:
        :class:`~repro.serve.resilience.RetryPolicy` for transient batch
        failures (default: 2 retries, 5 ms exponential backoff, capped).
    supervise:
        Run the watchdog thread (default).  Without it, worker crashes are
        still isolated per batch but dead threads stay dead.
    supervision:
        :class:`~repro.serve.resilience.SupervisionPolicy` tuning the
        watchdog (sweep interval, stuck timeout, restart backoff/cap).

    Observability parameters
    ------------------------
    registry:
        The :class:`repro.obs.metrics.Registry` this server's metrics live
        in.  ``None`` (default) creates a private registry per server —
        pass :func:`repro.obs.get_registry` to aggregate several servers
        onto one ``/metrics`` page (series are disambiguated by the
        ``server`` label), or :data:`repro.obs.NULL_REGISTRY` to make every
        metric write a no-op (``stats()`` counters then read 0; only the
        latency/stage percentiles, which come from internal windows, stay
        live).  The exported series are catalogued in :mod:`repro.obs`.
    trace:
        Record per-request stage spans (``queue_wait → coalesce → serve →
        scatter → resolve``) into a bounded ring (default on).  Export them
        with ``server.tracer.chrome_trace()`` or the ``/traces.json`` route
        of :meth:`serve_http`.
    trace_capacity:
        Span ring size (~5 spans per request).
    """

    #: Worker execution mode, stamped on every metric series as the
    #: ``mode`` label and reported by :meth:`stats`/:meth:`health`.
    #: :class:`~repro.serve.procpool.ProcServer` overrides it.
    mode = "thread"

    def __init__(
        self,
        model: Module,
        example_batch,
        buckets: Sequence[int] = DEFAULT_BUCKETS,
        *,
        workers: int = 1,
        max_batch_size: Optional[int] = None,
        latency_window: int = 4096,
        queue_limit: Optional[int] = None,
        overload: str = "block",
        default_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        supervise: bool = True,
        supervision: Optional[SupervisionPolicy] = None,
        registry: Optional[Registry] = None,
        trace: bool = True,
        trace_capacity: int = 4096,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if overload not in BACKPRESSURE_MODES:
            raise ValueError(
                f"overload must be one of {BACKPRESSURE_MODES}, got {overload!r}"
            )
        if default_timeout is not None and default_timeout <= 0:
            raise ValueError(
                f"default_timeout must be > 0, got {default_timeout}"
            )
        self._server_id = f"srv{next(_SERVER_IDS)}"
        self._registry = registry if registry is not None else Registry()
        self._tracer: Optional[Tracer] = Tracer(trace_capacity) if trace else None
        self._m = _ServerMetrics(
            self._registry, self._server_id, _normalize_buckets(buckets),
            self.mode,
        )
        pool_metrics = (self._m.bucket_calls, self._m.eager_tail)
        self._pool_factory = self._make_pool_factory(
            model, example_batch, buckets, pool_metrics
        )
        self._slots = [
            WorkerSlot(i, self._pool_factory()) for i in range(workers)
        ]
        self._all_pools: List[SessionPool] = [s.pool for s in self._slots]
        self._max_batch = (
            int(max_batch_size) if max_batch_size is not None
            else self._slots[0].pool.max_bucket
        )
        if self._max_batch < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self._queue_limit = queue_limit
        self._overload = overload
        self._default_timeout = default_timeout
        self._retry = retry if retry is not None else RetryPolicy()
        self._supervise = bool(supervise)
        self._supervision = (
            supervision if supervision is not None else SupervisionPolicy()
        )
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: deque = deque()
        self._watchdog: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._started = False
        self._stopping = False
        self._drained = False  # stop() finished failing the leftovers
        self._failed: Optional[str] = None  # terminal failure reason
        self._http = None  # ObsHTTPServer once serve_http() is called
        # Counters live in the registry (self._m children are the source of
        # truth; stats() is a snapshot view over them).  The percentile
        # windows stay internal deques: a histogram trades exactness for
        # bounded memory, while the recent-window percentiles stats()
        # promises need the raw samples.
        self._latencies: deque = deque(maxlen=latency_window)
        self._queue_waits: deque = deque(maxlen=latency_window)
        self._service_times: deque = deque(maxlen=latency_window)
        self._first_dispatch_at: Optional[float] = None
        self._last_completion_at: Optional[float] = None
        # Scrape-time gauges: evaluated by the registry at render, so queue
        # churn never writes a gauge.
        self._m.queue_depth.set_function(lambda: float(len(self._queue)))
        self._m.workers_alive.set_function(
            lambda: float(sum(1 for s in list(self._slots) if s.is_alive()))
        )
        self._m.batch_occupancy.set_function(self._occupancy)

    def _make_pool_factory(self, model, example_batch, buckets, pool_metrics):
        """Build the per-slot pool factory.  Subclasses substituting a
        different worker substrate (process-backed proxies) override this
        single seam; everything else — coalescing, retries, supervision,
        metrics — reuses whatever the factory returns, as long as it keeps
        the :class:`SessionPool` serving surface."""
        return lambda: _ServerPool(model, example_batch, buckets, metrics=pool_metrics)

    def _on_worker_kill(self, slot: WorkerSlot) -> None:
        """Hook invoked when a worker loop dies on :class:`WorkerKill`.

        Thread workers have nothing to clean up — the thread *is* the
        worker.  Process-backed servers override this to kill the slot's
        real OS process, so injected kills exercise the whole
        death-detection + respawn path, not just the thread half.
        """

    def _occupancy(self) -> float:
        dispatches = self._m.batches_dispatched.value
        if not dispatches:
            return 0.0
        return self._m.samples_dispatched.value / (dispatches * self._max_batch)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        """Configured worker count (live count is in :meth:`health`)."""
        return sum(1 for slot in self._slots if not slot.stuck)

    @property
    def max_batch_size(self) -> int:
        return self._max_batch

    @property
    def registry(self) -> Registry:
        """The metric registry this server's series live in (see
        :mod:`repro.obs` for the catalogue).  Call ``.render()`` for the
        Prometheus text exposition, or expose it via :meth:`serve_http`."""
        return self._registry

    @property
    def tracer(self) -> Optional[Tracer]:
        """The request-span ring (None when built with ``trace=False``).
        ``tracer.chrome_trace()`` exports Chrome trace-event JSON."""
        return self._tracer

    @property
    def pools(self) -> List[SessionPool]:
        """Every pool ever attached to a worker slot (fault-injection and
        stats surface; replacement pools of stuck workers are appended)."""
        with self._lock:
            return list(self._all_pools)

    def _spawn(self, slot: WorkerSlot) -> None:
        suffix = f"-r{slot.restarts}" if slot.restarts else ""
        slot.busy_since = None
        slot.thread = threading.Thread(
            target=self._worker,
            args=(slot,),
            name=f"repro-serve-worker-{slot.index}{suffix}",
            daemon=True,
        )
        slot.thread.start()

    def start(self) -> "Server":
        with self._lock:
            if self._stopping:
                raise RuntimeError("a stopped Server cannot be restarted")
            if self._started:
                return self
            self._started = True
        for slot in self._slots:
            self._spawn(slot)
        if self._supervise:
            self._watchdog = threading.Thread(
                target=self._watch, name="repro-serve-watchdog", daemon=True
            )
            self._watchdog.start()
        return self

    def serve_http(self, host: str = "127.0.0.1", port: int = 0):
        """Start the observability HTTP edge for this server (idempotent).

        Exposes ``/metrics`` (this server's registry), ``/health`` and
        ``/ready`` (the :meth:`health`/:meth:`ready` probes) and
        ``/traces.json`` (the span ring) on a daemon thread; returns the
        running :class:`repro.obs.http.ObsHTTPServer` (read the bound port
        from ``.port``, the base URL from ``.url``).  The edge is shut down
        by :meth:`stop`.
        """
        if self._http is None:
            from repro.obs.http import ObsHTTPServer

            self._http = ObsHTTPServer(
                registry=self._registry,
                tracer=self._tracer,
                health_fn=self.health,
                ready_fn=self.ready,
                host=host,
                port=port,
            ).start()
        return self._http

    def stop(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Stop the workers; never hangs past ``timeout``.

        With ``drain=True`` (default) already-submitted requests are served
        before the workers exit; with ``drain=False`` pending futures are
        cancelled (or failed, for a request re-queued after its worker
        died: its future is running).  Whatever is still queued when the
        workers are gone — because they all died, or because ``timeout``
        seconds passed — is resolved exceptionally with a clear error
        instead of stranding the clients, and blocked ``submit()`` callers
        are woken.
        """
        http, self._http = self._http, None
        if http is not None:
            http.stop()
        retried = []
        with self._cond:
            already = not self._started or self._stopping
            self._stopping = True
            if not already and not drain:
                while self._queue:
                    request = self._queue.popleft()
                    if not request.future.cancel() and request.started:
                        retried.append(request)
            self._cond.notify_all()
        # Re-queued after its worker was killed: the future is RUNNING, so
        # cancel() cannot take it; fail it instead.
        for request in retried:
            self._resolve_exceptionally(request, RuntimeError(
                "Server stopped without draining while this request awaited "
                "a retry after its worker died"))
        self._stop_event.set()
        if already:
            return
        if self._watchdog is not None:
            self._watchdog.join(timeout=max(1.0, self._supervision.watchdog_interval * 10))
        deadline = time.monotonic() + timeout if timeout is not None else None
        for slot in self._slots:
            thread = slot.thread
            if thread is None:
                continue
            if deadline is None:
                thread.join()
            else:
                thread.join(max(0.0, deadline - time.monotonic()))
        # Anything still queued has no worker left to serve it (all dead,
        # or stuck past the stop timeout): fail it loudly.
        with self._cond:
            leftovers = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        if leftovers:
            exc = RuntimeError(
                f"Server stopped with {len(leftovers)} unserved request(s): "
                "no live worker drained the queue (workers dead, or the "
                f"stop timeout of {timeout}s expired)"
            )
            for request in leftovers:
                self._resolve_exceptionally(request, exc)
        # From here on nobody drains the queue: a worker unwedging *after*
        # stop() (its process was just killed, say) must fail its requests
        # instead of re-queueing them into the void.
        with self._cond:
            self._drained = True

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # Probes
    # ------------------------------------------------------------------ #
    def ready(self) -> bool:
        """True when the server can accept and serve a request right now."""
        with self._lock:
            if not self._started or self._stopping or self._failed:
                return False
        return any(slot.is_alive() for slot in self._slots)

    def health(self) -> Dict[str, object]:
        """Liveness/supervision snapshot (cheap; safe to poll)."""
        alive = sum(1 for slot in self._slots if slot.is_alive())
        with self._lock:
            return {
                "ready": bool(
                    self._started and not self._stopping and not self._failed
                    and alive > 0
                ),
                "mode": self.mode,
                "started": self._started,
                "stopping": self._stopping,
                "failed": self._failed,
                "workers_configured": len(self._slots),
                "workers_alive": alive,
                "workers_stuck": sum(1 for s in self._slots if s.stuck),
                "workers_retired": sum(1 for s in self._slots if s.retired),
                "worker_crashes": sum(s.crashes for s in self._slots),
                "worker_restarts": int(self._m.worker_restarts.value),
                "queue_depth": len(self._queue),
            }

    # ------------------------------------------------------------------ #
    # Client surface
    # ------------------------------------------------------------------ #
    def submit(self, *batch, timeout: Optional[float] = None) -> Future:
        """Enqueue one request; returns a future of its ``(n, ...)`` outputs.

        Shapes and dtypes are validated here, synchronously, so malformed
        requests raise at the call site instead of poisoning a future.  The
        arrays are read at dispatch time — do not mutate them before the
        future resolves.  The resolved array is an owned copy.

        ``timeout`` (seconds, overriding the server ``default_timeout``)
        attaches a deadline: a request still queued when it expires resolves
        with :class:`DeadlineExceeded` instead of being served.  In
        ``block`` overload mode the deadline also bounds the wait for queue
        space (raising :class:`DeadlineExceeded` synchronously).
        """
        if timeout is None:
            timeout = self._default_timeout
        elif timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        pool = self._slots[0].pool
        arrays = _coerce_arrays(batch)
        n = pool.validate(arrays)
        future: Future = Future()
        if n == 0:
            future.set_result(
                np.empty((0,) + pool._out_per_sample, dtype=pool.output_dtype)
            )
            return future
        now = time.monotonic()
        deadline = now + timeout if timeout is not None else None
        trace_id = self._tracer.new_trace() if self._tracer is not None else 0
        request = _Request(arrays, n, future, now, deadline, trace_id=trace_id)
        with self._cond:
            self._check_accepting_locked()
            if self._queue_limit is not None:
                self._admit_locked(request, deadline)
            self._queue.append(request)
            self._cond.notify_all()
        self._m.requests_submitted.inc()
        return future

    def _check_accepting_locked(self) -> None:
        if self._failed:
            raise RuntimeError(f"Server failed: {self._failed}")
        if not self._started or self._stopping:
            raise RuntimeError(
                "Server is not running (start() it, or use it as a "
                "context manager)"
            )

    def _admit_locked(self, request: _Request, deadline: Optional[float]) -> None:
        """Enforce ``queue_limit`` per the overload policy (cond held)."""
        if self._overload == "reject":
            if len(self._queue) >= self._queue_limit:
                self._m.requests_rejected.inc()
                raise ServerOverloaded(
                    f"queue is full ({self._queue_limit} requests); "
                    "retry later or raise queue_limit"
                )
        elif self._overload == "shed_oldest":
            while len(self._queue) >= self._queue_limit:
                stale = self._queue.popleft()
                if stale.future.cancel():
                    self._m.requests_shed.inc()
                elif stale.started and not stale.future.done():
                    # Re-queued after its worker was killed: the future is
                    # RUNNING, so cancel() cannot take it; fail it instead.
                    stale.future.set_exception(ServerOverloaded(
                        "shed from a full queue "
                        f"(queue_limit={self._queue_limit}) while awaiting "
                        "a retry after its worker died"
                    ))
                    self._m.requests_shed.inc()
        else:  # block
            while len(self._queue) >= self._queue_limit:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._m.requests_expired.inc()
                        raise DeadlineExceeded(
                            "request timed out waiting for queue space "
                            f"(queue_limit={self._queue_limit})"
                        )
                    self._cond.wait(timeout=remaining)
                else:
                    self._cond.wait()
                self._check_accepting_locked()

    def __call__(self, *batch, timeout: Optional[float] = None) -> np.ndarray:
        """Blocking convenience: submit one request and wait for its result."""
        return self.submit(*batch, timeout=timeout).result()

    def stats(self) -> Dict[str, float]:
        """A snapshot of the serving metrics.

        Counters are read from the server's registry children — the exact
        series ``/metrics`` exports (catalogued in :mod:`repro.obs`) — so
        this stays a zero-dependency in-process view of the same numbers.
        All ``*_ms`` values are milliseconds; all percentile windows share
        ``latency_window`` recent samples.

        - ``queue_depth``: requests currently waiting;
        - ``batch_occupancy``: mean coalesced samples per dispatch divided
          by ``max_batch_size`` (1.0 = every dispatch full; an oversized
          single request counts as one full dispatch);
        - ``latency_ms_p50`` / ``latency_ms_p95`` / ``latency_ms_p99``:
          **submit-to-result** request latency percentiles over the recent
          window — the same quantity the
          ``repro_serve_request_latency_ms`` histogram observes;
        - ``queue_wait_ms_p50/p95/p99``: submit-to-collection wait (time a
          request sat queued before a worker absorbed it;
          ``repro_serve_queue_wait_ms``);
        - ``service_ms_p50/p95/p99``: collection-to-result time (coalesce +
          serve; ``repro_serve_service_ms``), so per request
          ``latency ≈ queue_wait + service``;
        - ``throughput_rps``: completed samples per second between the
          first dispatch and the latest completion;
        - resilience counters: ``requests_rejected`` (reject-mode refusals),
          ``requests_shed`` (shed_oldest cancellations), ``requests_expired``
          (deadline sweeps), ``requests_failed`` (futures resolved with the
          batch's exception), ``batches_retried`` (re-serve attempts from
          transient retries and bisection), ``worker_restarts``;
        - plus raw counters (requests/samples/batches), ``workers_alive``,
          and the pools' bucket routing counts.
        """
        m = self._m
        alive = sum(1 for slot in self._slots if slot.is_alive())
        with self._lock:
            latencies = np.asarray(self._latencies, dtype=np.float64)
            queue_waits = np.asarray(self._queue_waits, dtype=np.float64)
            service_times = np.asarray(self._service_times, dtype=np.float64)
            depth = len(self._queue)
            # Snapshot the pool list under the lock: _handle_stuck appends
            # replacement pools concurrently (also under this lock).
            pools = list(self._all_pools)
            elapsed = (
                self._last_completion_at - self._first_dispatch_at
                if self._first_dispatch_at is not None
                and self._last_completion_at is not None
                else 0.0
            )
        completed_samples = m.samples_completed.value
        throughput = completed_samples / elapsed if elapsed > 0 else 0.0
        snapshot = {
            "mode": self.mode,  # type: ignore[dict-item]
            "queue_depth": float(depth),
            "requests_submitted": m.requests_submitted.value,
            "requests_completed": m.requests_completed.value,
            "samples_completed": completed_samples,
            "batches_dispatched": m.batches_dispatched.value,
            "batch_occupancy": float(self._occupancy()),
            "throughput_rps": float(throughput),
            "requests_rejected": m.requests_rejected.value,
            "requests_shed": m.requests_shed.value,
            "requests_expired": m.requests_expired.value,
            "requests_failed": m.requests_failed.value,
            "batches_retried": m.batches_retried.value,
            "worker_restarts": m.worker_restarts.value,
            "workers_alive": float(alive),
        }
        for pct in (50, 95, 99):
            for key, window in (
                ("latency_ms", latencies),
                ("queue_wait_ms", queue_waits),
                ("service_ms", service_times),
            ):
                snapshot[f"{key}_p{pct}"] = (
                    float(np.percentile(window, pct) * 1e3)
                    if window.size
                    else 0.0
                )
        bucket_calls: Dict[int, int] = {}
        for pool in pools:
            for bucket, count in pool.bucket_calls.items():
                bucket_calls[bucket] = bucket_calls.get(bucket, 0) + count
        snapshot["bucket_calls"] = bucket_calls  # type: ignore[assignment]
        snapshot["eager_tail_serves"] = float(
            sum(pool.eager_calls for pool in pools)
        )
        return snapshot

    # ------------------------------------------------------------------ #
    # Batching loop
    # ------------------------------------------------------------------ #
    def _expire_locked(self, request: _Request, now: float) -> bool:
        """Resolve ``request`` with DeadlineExceeded if it expired (cond
        held); returns True when the request was consumed."""
        if request.deadline is None or now < request.deadline:
            return False
        self._m.requests_expired.inc()
        if self._tracer is not None and request.trace_id:
            self._tracer.record(
                request.trace_id, "expired", request.submitted_at, now,
                queued_s=round(now - request.submitted_at, 6),
            )
        if request.started or request.future.set_running_or_notify_cancel():
            if not request.future.done():
                request.future.set_exception(
                    DeadlineExceeded(
                        "request expired after "
                        f"{now - request.submitted_at:.3f}s in queue "
                        "(swept before dispatch)"
                    )
                )
        return True

    def _resolve_exceptionally(self, request: _Request, exc: BaseException) -> None:
        """Fail a request's future if it can still be failed."""
        if request.future.done():
            return
        if request.started or request.future.set_running_or_notify_cancel():
            if not request.future.done():
                request.future.set_exception(exc)

    def _collect(self, slot: WorkerSlot) -> Optional[List[_Request]]:
        """Take one coalesced batch off the queue (None = shut down).

        Blocks until a request arrives, then absorbs whole queued requests
        while the running total stays within ``max_batch_size``, and stops
        as soon as the queue is empty — it never waits for more.  Requests
        are never split: a request larger than ``max_batch_size`` is
        dispatched alone (the pool decomposes it internally).

        Expired requests are swept here (resolved with
        :class:`DeadlineExceeded`, never served) and every collected future
        is moved to RUNNING (``set_running_or_notify_cancel``): futures a
        client already cancelled are dropped, and a cancel arriving after
        collection becomes a no-op instead of an ``InvalidStateError`` when
        the worker scatters results.  The lock is held throughout, so one
        notify after the pops (or before sleeping on an emptied queue)
        wakes ``block``-mode submitters waiting for queue space.
        """
        requests: List[_Request] = []
        total = 0
        popped = False
        with self._cond:
            while total < self._max_batch:
                if not requests and slot.retired:
                    break
                if not self._queue:
                    if requests or self._stopping:
                        break  # never wait for more; or drained at stop
                    if popped:
                        self._cond.notify_all()
                        popped = False
                    self._cond.wait()
                    continue
                request = self._queue[0]
                now = time.monotonic()
                expired = self._expire_locked(request, now)
                if not expired and requests and (
                        total + request.n > self._max_batch):
                    break
                self._queue.popleft()
                popped = True
                if expired or not (
                        request.started
                        or request.future.set_running_or_notify_cancel()):
                    continue  # expired, or cancelled while queued: drop it
                request.started = True
                request.collected_at = now
                requests.append(request)
                total += request.n
            if popped:
                self._cond.notify_all()
            if not requests:
                return None
            if self._first_dispatch_at is None:
                self._first_dispatch_at = time.monotonic()
            return requests

    def _requeue(self, requests: List[_Request]) -> None:
        """Put a killed worker's unresolved requests back at the queue head.

        After :meth:`stop` has already failed the leftovers the queue is
        dead — re-queueing would strand the futures forever, so they are
        resolved exceptionally instead.
        """
        pending = [r for r in requests if not r.future.done()]
        if not pending:
            return
        with self._cond:
            drained = self._drained
            if not drained:
                self._queue.extendleft(reversed(pending))
                self._cond.notify_all()
        if drained:
            exc = RuntimeError(
                "worker died holding this request after the server stopped"
            )
            for request in pending:
                self._resolve_exceptionally(request, exc)

    def _worker(self, slot: WorkerSlot) -> None:
        while True:
            requests = self._collect(slot)
            if requests is None:
                return
            total = sum(r.n for r in requests)
            dispatched_at = time.monotonic()
            self._m.batches_dispatched.inc()
            # Clamped so occupancy stays a fraction <= 1.0: an oversized
            # single request (never split) counts as one full dispatch.
            self._m.samples_dispatched.inc(min(total, self._max_batch))
            # Stage boundary: submit -> collected is queue wait, collected ->
            # dispatch is coalescing.  A re-queued request (worker killed
            # mid-serve) is collected again, so these cover its last attempt.
            queue_waits = [r.collected_at - r.submitted_at for r in requests]
            spans = [] if self._tracer is not None else None
            coalesce_args = {"batch_requests": len(requests),
                             "batch_samples": total}
            for request in requests:
                if spans is not None and request.trace_id:
                    spans.append((request.trace_id, "queue_wait",
                                  request.submitted_at, request.collected_at,
                                  None))
                    spans.append((request.trace_id, "coalesce",
                                  request.collected_at, dispatched_at,
                                  coalesce_args))
            self._m.queue_wait_ms.observe_many([w * 1e3 for w in queue_waits])
            if spans:
                self._tracer.record_many(spans)
            with self._lock:
                self._queue_waits.extend(queue_waits)
            slot.busy_since = dispatched_at
            try:
                self._serve_group(slot.pool, requests, first=True)
            except WorkerKill:
                # Simulated hard crash: give the requests back to the queue
                # and die; the watchdog counts the crash and respawns this
                # slot after its restart backoff.  The hook lets process
                # servers take down the slot's real OS process first.
                self._on_worker_kill(slot)
                self._requeue(requests)
                return
            except Exception as exc:
                # Widened safety net (concatenate, scatter, metrics): fail
                # the affected futures, never the worker thread.
                failed = 0
                for request in requests:
                    if not request.future.done():
                        request.future.set_exception(exc)
                        failed += 1
                if failed:
                    self._m.requests_failed.inc(failed)
            finally:
                slot.busy_since = None
            if slot.retired:
                return

    def _serve_group(self, pool: SessionPool, requests: List[_Request],
                     *, first: bool) -> None:
        """Serve one group of requests with retry/backoff and bisection.

        Transient failures (per the retry policy) re-serve the whole group
        with exponential backoff; a group that still fails is split in two
        and each half re-served, recursing until single requests — so one
        poisoned request fails alone while its co-batched neighbours
        succeed.  Every future is resolved exactly once.
        """
        if len(requests) == 1:
            arrays = requests[0].arrays
        else:
            arrays = [
                np.concatenate([r.arrays[i] for r in requests])
                for i in range(len(requests[0].arrays))
            ]
        # Process-backed proxies accept a per-batch deadline hint so the
        # worker process can refuse work that already expired on the wire;
        # plain SessionPools don't have the method (getattr keeps the
        # thread-mode hot path untouched).  FaultInjector only shadows
        # ``.serve``, so the hint survives injection.
        set_hint = getattr(pool, "set_deadline_hint", None)
        if set_hint is not None:
            deadlines = [r.deadline for r in requests]
            # The *latest* deadline: the worker may refuse the batch only
            # when every co-batched request has expired.
            hint = (max(deadlines)
                    if deadlines and all(d is not None for d in deadlines)
                    else None)
        attempt = 0
        while True:
            if not (first and attempt == 0):
                self._m.batches_retried.inc()
            serve_start = time.monotonic()
            try:
                if set_hint is not None:
                    set_hint(hint)
                out = pool.serve(arrays)
                break
            except WorkerKill:
                raise
            except Exception as exc:
                self._record_serve_span(
                    requests, serve_start, time.monotonic(), attempt,
                    error=type(exc).__name__,
                )
                if self._retry.is_transient(exc) and attempt < self._retry.max_retries:
                    time.sleep(self._retry.delay(attempt))
                    attempt += 1
                    continue
                if len(requests) == 1:
                    request = requests[0]
                    if not request.future.done():
                        request.future.set_exception(exc)
                    self._m.requests_failed.inc()
                    return
                mid = len(requests) // 2
                self._serve_group(pool, requests[:mid], first=False)
                self._serve_group(pool, requests[mid:], first=False)
                return
        done_at = time.monotonic()
        self._record_serve_span(requests, serve_start, done_at, attempt)
        if len(requests) == 1:
            # `out` is a fresh per-call array no one else holds; hand it
            # over without the defensive copy.
            if not requests[0].future.done():
                requests[0].future.set_result(out)
        else:
            start = 0
            for request in requests:
                if not request.future.done():
                    request.future.set_result(
                        out[start : start + request.n].copy()
                    )
                start += request.n
        scatter_end = time.monotonic()
        self._m.requests_completed.inc(len(requests))
        self._m.samples_completed.inc(sum(r.n for r in requests))
        # done_at (serve finished) is the latency endpoint, matching the
        # historical stats() definition; the histogram observes the exact
        # same quantity so percentiles and /metrics agree on what
        # "latency" means (submit-to-result).
        latencies = [done_at - r.submitted_at for r in requests]
        services = [done_at - r.collected_at for r in requests]
        with self._lock:
            self._last_completion_at = done_at
            self._latencies.extend(latencies)
            self._service_times.extend(services)
        self._m.request_latency_ms.observe_many([v * 1e3 for v in latencies])
        self._m.service_ms.observe_many([v * 1e3 for v in services])
        if self._tracer is not None:
            resolve_end = time.monotonic()
            spans = []
            for request in requests:
                if not request.trace_id:
                    continue
                spans.append((request.trace_id, "scatter", done_at,
                              scatter_end, {"samples": request.n}))
                spans.append((request.trace_id, "resolve", scatter_end,
                              resolve_end, None))
            if spans:
                self._tracer.record_many(spans)

    def _record_serve_span(self, requests: List[_Request], start: float,
                           end: float, attempt: int,
                           error: Optional[str] = None) -> None:
        """One ``serve`` span per request per attempt, so retries and
        bisection halves show up as repeated serve stages on the trace."""
        if self._tracer is None:
            return
        args = {"attempt": attempt, "group_requests": len(requests)}
        if error is not None:
            args["error"] = error
        spans = [(request.trace_id, "serve", start, end, args)
                 for request in requests if request.trace_id]
        if spans:
            self._tracer.record_many(spans)

    # ------------------------------------------------------------------ #
    # Supervision
    # ------------------------------------------------------------------ #
    def _watch(self) -> None:
        """Watchdog loop: sweep deadlines, respawn dead workers, replace
        stuck ones, and fail the queue when nobody is left to serve it."""
        policy = self._supervision
        while not self._stop_event.wait(policy.watchdog_interval):
            with self._cond:
                if self._stopping:
                    return
                now = time.monotonic()
                if self._queue:
                    kept = deque(
                        r for r in self._queue if not self._expire_locked(r, now)
                    )
                    if len(kept) != len(self._queue):
                        self._queue = kept
                        self._cond.notify_all()
                slots = list(self._slots)
            for slot in slots:
                if slot.retired or slot.thread is None:
                    continue
                if not slot.thread.is_alive():
                    self._handle_dead(slot, now)
                elif (
                    policy.stuck_timeout is not None
                    and slot.busy_since is not None
                    and now - slot.busy_since > policy.stuck_timeout
                ):
                    self._handle_stuck(slot)
            self._sweep_extra(now)
            self._check_all_dead()

    def _sweep_extra(self, now: float) -> None:
        """Per-sweep watchdog extension point (no-op for thread workers).

        Process servers use it to notice worker processes that died while
        their parent-side thread sat idle (no traffic to surface the
        death) and respawn them with backoff.
        """

    def _handle_dead(self, slot: WorkerSlot, now: float) -> None:
        """Count a crash, schedule/execute the backed-off respawn."""
        if slot.respawn_at is None:
            slot.crashes += 1
            if slot.restarts >= self._supervision.max_restarts:
                slot.retired = True  # crash loop: give up on this slot
                return
            slot.respawn_at = now + self._supervision.restart_delay(slot.crashes)
        if now >= slot.respawn_at:
            slot.respawn_at = None
            slot.restarts += 1
            self._m.worker_restarts.inc()
            self._spawn(slot)

    def _handle_stuck(self, slot: WorkerSlot) -> None:
        """Abandon a stuck worker and spawn a replacement slot.

        The stuck thread cannot be killed; its slot is retired so it exits
        after the batch it is wedged on (if that ever finishes, the futures
        it holds still resolve — each future resolves exactly once).  The
        replacement gets a freshly compiled pool because the stuck thread
        still owns the old one's buffers.
        """
        slot.stuck = True
        slot.retired = True
        replacement = WorkerSlot(len(self._slots), self._pool_factory())
        # Publish the new slot/pool under the lock: stats() and the pools
        # property snapshot these lists concurrently, and a bare append
        # would race their iteration.
        with self._lock:
            self._slots.append(replacement)
            self._all_pools.append(replacement.pool)
        self._m.worker_restarts.inc()
        self._spawn(replacement)
        with self._cond:
            self._cond.notify_all()  # let the stuck thread see retirement

    def _check_all_dead(self) -> None:
        """With every slot retired, fail the queue loudly.

        Only retirement is final: a dead thread on an unretired slot —
        respawn pending, or a respawn that crashed again within this sweep
        — is counted and respawned (or retired) by the next sweep's
        :meth:`_handle_dead`.
        """
        if any(not slot.retired for slot in self._slots):
            return
        with self._cond:
            if self._stopping or self._failed:
                return
            self._failed = (
                "all workers are dead (crash-loop retirement); "
                "the server cannot serve"
            )
            leftovers = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        exc = RuntimeError(f"Server failed: {self._failed}")
        for request in leftovers:
            self._resolve_exceptionally(request, exc)
