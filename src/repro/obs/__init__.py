"""First-class observability: metrics, request tracing, op profiling, and
the Prometheus-style HTTP edge.

Four standalone pieces (each usable alone, none imports the rest of the
stack above :mod:`repro.backend`):

- :mod:`repro.obs.metrics` — thread-safe :class:`Counter` / :class:`Gauge`
  / :class:`Histogram` (log-spaced latency buckets, labeled series) in a
  :class:`Registry` with Prometheus text exposition;
- :mod:`repro.obs.trace` — per-request stage spans in a bounded ring
  (:class:`Tracer`), exportable as Chrome ``trace_event`` JSON for
  ``chrome://tracing``;
- :mod:`repro.obs.profile` — the op-level profiler (``REPRO_PROFILE=1`` or
  :func:`using_profiler`) hooked into compiled serving steps and the
  autograd backward loop; timing only, bit-identical results;
- :mod:`repro.obs.http` — :class:`ObsHTTPServer`, a stdlib HTTP thread
  serving ``/metrics``, ``/health``, ``/ready`` and ``/traces.json``.

The serving stack emits through this package: every
:class:`repro.serve.Server` owns a registry + tracer (see the metric
catalogue below), ``server.serve_http()`` exposes them, and
``Server.stats()`` remains the in-process compatibility snapshot of the
same series.

Metric catalogue (every series the serving stack exports)
---------------------------------------------------------
All serving metrics carry a ``server`` label (``srv0``, ``srv1``, ... in
creation order) so multiple servers can share one registry, and a ``mode``
label (``thread`` for :class:`~repro.serve.frontend.Server`, ``process``
for :class:`~repro.serve.procpool.ProcServer`) so the two worker
substrates stay distinguishable on shared dashboards.

Counters:

- ``repro_serve_requests_submitted_total`` — requests accepted by ``submit()``;
- ``repro_serve_requests_completed_total`` — requests resolved with a result;
- ``repro_serve_samples_completed_total`` — samples inside completed requests;
- ``repro_serve_batches_dispatched_total`` — coalesced batches handed to workers;
- ``repro_serve_samples_dispatched_total`` — samples inside dispatched batches
  (clamped per dispatch to ``max_batch_size``, the occupancy numerator);
- ``repro_serve_requests_rejected_total`` — ``reject``-mode overload refusals;
- ``repro_serve_requests_shed_total`` — ``shed_oldest`` cancellations;
- ``repro_serve_requests_expired_total`` — deadline sweeps (never served);
- ``repro_serve_requests_failed_total`` — futures resolved with an exception;
- ``repro_serve_batches_retried_total`` — re-serve attempts (transient
  retries and bisection halves);
- ``repro_serve_worker_restarts_total`` — watchdog respawns + stuck
  replacements;
- ``repro_serve_bucket_calls_total{bucket="N"}`` — compiled runs routed to
  each session bucket;
- ``repro_serve_eager_tail_total`` — eager last-resort serves (remainder
  smaller than every bucket);
- ``repro_serve_proc_respawns_total`` — worker *process* respawns after a
  crash or SIGKILL (process mode only; thread respawns stay under
  ``repro_serve_worker_restarts_total``);
- ``repro_serve_proc_pipe_fallback_total`` — oversized requests served over
  the pickled pipe cold path instead of the shared-memory ring.

Gauges (computed at scrape time):

- ``repro_serve_queue_depth`` — requests waiting in the queue;
- ``repro_serve_workers_alive`` — live worker threads;
- ``repro_serve_batch_occupancy`` — mean dispatched samples per batch over
  ``max_batch_size`` (1.0 = every dispatch full);
- ``repro_serve_arena_version`` — version of the live shared-memory
  parameter bank (process mode; bumps on ``publish_weights()``).

Histograms (milliseconds, buckets
:data:`~repro.obs.metrics.DEFAULT_LATENCY_BUCKETS_MS`):

- ``repro_serve_request_latency_ms`` — submit-to-result, the same quantity
  ``stats()['latency_ms_p*']`` reports percentiles of;
- ``repro_serve_queue_wait_ms`` — submit-to-collection (time spent queued);
- ``repro_serve_service_ms`` — collection-to-result (coalesce + serve +
  scatter), so ``latency ≈ queue_wait + service`` per request.

The kernel workspace (:mod:`repro.backend.workspace`) answers "did this step
allocate", per process, in the default registry (:func:`get_registry`), read
from its own integers at scrape time:

- ``repro_workspace_requests_total{result="hit"|"miss"|"small"}`` — buffers
  the kernels asked ``workspace.empty`` for, served by a retained block, a
  newly allocated one, or plain ``np.empty`` (under the size floor, or no
  usable reference counts); a steady-state step moves only ``hit`` and
  ``small``;
- ``repro_workspace_retained_bytes`` — bytes of blocks held, leased or idle;
- ``repro_workspace_leased_bytes_peak`` — most bytes leased at once (per
  thread, summed): the working set the retained bytes are there to cover.

Training registers one family there too, on its first step
(:meth:`repro.models.TBNet.train_step`):

- ``repro_train_steps_total{path="replay"|"eager", reason}`` — train steps
  by the path that ran them: a replay of the captured step (``reason=""``)
  or the taped step, with why (``signature``, ``module``, ``grad``,
  ``capture``, ``no_grad``, ``pending``, ``capturing``).
"""

from repro import _lazy
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    NullRegistry,
    Registry,
    get_registry,
)
from repro.obs.profile import (
    Profiler,
    active_profiler,
    disable_profiler,
    enable_profiler,
    using_profiler,
)
from repro.obs.trace import Span, Tracer

# ``ObsHTTPServer`` on first use: ``http.server`` (with ``email``, ``ssl``,
# ``socketserver``) is 7 MiB and 40 ms that a process which never opens the
# HTTP edge — every trainer, every worker — need not pay.
__getattr__, __dir__ = _lazy(__name__, {"ObsHTTPServer": "http"})


def _export_workspace() -> None:
    """Scrape-time views of the kernel workspace's counts (imported on the
    first scrape: this package stays importable without ``repro.backend``)."""
    registry = get_registry()

    def stat(key: str):
        def read() -> float:
            from repro.backend import workspace

            return workspace.stats()[key]

        return read

    requests = registry.counter(
        "repro_workspace_requests_total",
        "Kernel buffer requests by how they were served",
        labelnames=("result",),
    )
    for result in ("hit", "miss", "small"):
        requests.labels(result=result).set_function(stat(result))
    for key, text in (
        ("retained_bytes", "Bytes of blocks the workspace pools hold"),
        ("leased_bytes_peak", "Most workspace bytes leased at once (per thread, summed)"),
    ):
        registry.gauge("repro_workspace_" + key, text).set_function(stat(key))


_export_workspace()

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "NullRegistry",
    "ObsHTTPServer",
    "Profiler",
    "Registry",
    "Span",
    "Tracer",
    "active_profiler",
    "disable_profiler",
    "enable_profiler",
    "get_registry",
    "using_profiler",
]
