"""Resilience primitives for the serving front end.

The :class:`~repro.serve.frontend.Server` built in the dynamic-batching PR
was fast but brittle: an unbounded queue, no deadlines, batch-wide failure
blast radius, and worker threads that died silently.  This module holds the
policy objects and failure vocabulary the reworked server is built on:

- **Failure vocabulary** — :class:`ServerOverloaded` (load shed at
  ``submit()``), :class:`DeadlineExceeded` (request expired before service),
  :class:`TransientError` (the marker base class for fault types worth
  retrying), and :class:`WorkerKill` (a ``BaseException`` that simulates a
  hard worker crash; the worker loop deliberately does **not** absorb it, so
  fault injection can exercise the supervision path end to end).
- **Backpressure modes** — :data:`BACKPRESSURE_MODES`: ``"block"`` (the
  submitting thread waits for queue space), ``"reject"`` (raise
  :class:`ServerOverloaded` at the call site), ``"shed_oldest"`` (cancel the
  stalest queued future to admit the new one; staleness-biased shedding
  keeps latest-arrival latency bounded under sustained overload).
- :class:`RetryPolicy` — bounded retries with exponential backoff for
  transient fault classes, used by the batch-failure isolation path (retry
  the whole batch while the fault looks transient, then bisect so only the
  truly poisoned request fails).
- :class:`SupervisionPolicy` + :class:`WorkerSlot` — the watchdog's
  configuration and per-worker bookkeeping: crash counters, restart backoff
  with a cap, stuck detection, and permanent retirement after a crash loop.

Everything here is plain policy/state — the enforcement lives in
:mod:`repro.serve.frontend`; the deterministic chaos hooks that test it live
in :mod:`repro.serve.faults`.

Every enforcement path is observable: the server increments a registry
counter (see :mod:`repro.obs` for the full catalogue) each time one of
these policies fires —

- ``reject`` admission → ``repro_serve_requests_rejected_total``;
- ``shed_oldest`` cancellation → ``repro_serve_requests_shed_total``;
- deadline sweeps (queue-space timeout included) →
  ``repro_serve_requests_expired_total``;
- :class:`RetryPolicy` retries and bisection halves →
  ``repro_serve_batches_retried_total``;
- futures resolved with a batch's exception →
  ``repro_serve_requests_failed_total``;
- watchdog respawns and stuck-worker replacements →
  ``repro_serve_worker_restarts_total``.
"""

from __future__ import annotations

from typing import Optional, Tuple, Type

__all__ = [
    "BACKPRESSURE_MODES",
    "DeadlineExceeded",
    "RetryPolicy",
    "ServerOverloaded",
    "SupervisionPolicy",
    "TransientError",
    "WorkerKill",
    "WorkerSlot",
]

#: Admission-control modes for a bounded request queue (``queue_limit``).
BACKPRESSURE_MODES = ("block", "reject", "shed_oldest")


class ServerOverloaded(RuntimeError):
    """The bounded queue is full and the overload policy refused admission."""


class DeadlineExceeded(TimeoutError):
    """A request's deadline passed before it was served.

    Raised synchronously by a ``block``-mode ``submit()`` that timed out
    waiting for queue space, and set asynchronously on futures whose
    requests expired in the queue (expired requests are swept before
    dispatch, never served).
    """


class TransientError(RuntimeError):
    """Base class for faults worth retrying (the default transient class).

    The batch-failure isolation path retries a whole batch (with backoff)
    while the raised exception is an instance of a
    :attr:`RetryPolicy.transient` class; any other exception skips straight
    to bisection.  Subclass this for injected or infrastructure faults that
    a bounded retry can plausibly outwait.
    """


class WorkerKill(BaseException):
    """Simulated hard crash of a worker thread (fault injection).

    Deliberately a ``BaseException``: the worker loop's widened ``except
    Exception`` safety net must *not* absorb it, so raising it inside
    ``SessionPool.serve`` terminates the worker thread the way a real crash
    would — after re-queuing the requests it held — and exercises the
    watchdog's detect/respawn path.
    """


class RetryPolicy:
    """Bounded exponential-backoff retries for transient batch failures.

    Parameters
    ----------
    max_retries:
        Whole-batch retry attempts before giving up on the batch as-is and
        bisecting it (0 disables retries; bisection still isolates).
    backoff_base:
        Sleep before the first retry, in seconds; attempt ``k`` sleeps
        ``backoff_base * 2**k``.
    backoff_cap:
        Upper bound on any single backoff sleep.
    transient:
        Exception classes eligible for retry.  Anything else — shape
        errors, poisoned payloads — fails fast into bisection, because
        retrying a deterministic failure only burns latency.
    """

    __slots__ = ("max_retries", "backoff_base", "backoff_cap", "transient")

    def __init__(
        self,
        max_retries: int = 2,
        backoff_base: float = 0.005,
        backoff_cap: float = 0.25,
        transient: Tuple[Type[BaseException], ...] = (TransientError,),
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_base < 0 or backoff_cap < 0:
            raise ValueError(
                f"backoff must be >= 0, got base={backoff_base} cap={backoff_cap}"
            )
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.transient = tuple(transient)

    def is_transient(self, exc: BaseException) -> bool:
        return isinstance(exc, self.transient)

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), capped."""
        return min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))


class SupervisionPolicy:
    """Watchdog configuration for worker supervision.

    Parameters
    ----------
    watchdog_interval:
        Seconds between watchdog sweeps (crash detection latency).
    stuck_timeout:
        A worker continuously busy on one batch for longer than this is
        declared stuck: its slot is retired (the thread cannot be killed,
        but it is abandoned — if it ever finishes, its futures still
        resolve) and a replacement worker with a freshly compiled pool is
        spawned.  ``None`` disables stuck detection.
    max_restarts:
        Restarts per slot before it is retired for good (crash-loop cap).
    restart_backoff / restart_backoff_cap:
        Exponential respawn delay: crash ``k`` of a slot waits
        ``min(cap, backoff * 2**(k-1))`` before the replacement thread
        starts, so a deterministically crashing model cannot spin the
        supervisor hot.
    """

    __slots__ = (
        "watchdog_interval",
        "stuck_timeout",
        "max_restarts",
        "restart_backoff",
        "restart_backoff_cap",
    )

    def __init__(
        self,
        watchdog_interval: float = 0.02,
        stuck_timeout: Optional[float] = None,
        max_restarts: int = 8,
        restart_backoff: float = 0.01,
        restart_backoff_cap: float = 1.0,
    ) -> None:
        if watchdog_interval <= 0:
            raise ValueError(
                f"watchdog_interval must be > 0, got {watchdog_interval}"
            )
        if stuck_timeout is not None and stuck_timeout <= 0:
            raise ValueError(f"stuck_timeout must be > 0, got {stuck_timeout}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if restart_backoff < 0 or restart_backoff_cap < 0:
            raise ValueError(
                "restart backoff must be >= 0, got "
                f"base={restart_backoff} cap={restart_backoff_cap}"
            )
        self.watchdog_interval = float(watchdog_interval)
        self.stuck_timeout = None if stuck_timeout is None else float(stuck_timeout)
        self.max_restarts = int(max_restarts)
        self.restart_backoff = float(restart_backoff)
        self.restart_backoff_cap = float(restart_backoff_cap)

    def restart_delay(self, crashes: int) -> float:
        """Respawn backoff after a slot's ``crashes``-th crash (1-based)."""
        # Exponent clamped: a process that stays dead is counted every sweep,
        # and 2.0 ** 1024 raises OverflowError — on the watchdog thread.
        return min(
            self.restart_backoff_cap,
            self.restart_backoff * (2.0 ** min(max(0, crashes - 1), 64)),
        )


class WorkerSlot:
    """Supervision bookkeeping for one worker thread.

    A slot outlives the threads that serve it: when a thread dies the slot
    records the crash and (within the restart budget) hosts the respawned
    replacement.  A *retired* slot is permanently out of service — either
    its crash loop exhausted ``max_restarts`` or it was declared stuck and
    replaced by a brand-new slot.
    """

    __slots__ = (
        "index",
        "pool",
        "thread",
        "crashes",
        "restarts",
        "retired",
        "stuck",
        "busy_since",
        "respawn_at",
    )

    def __init__(self, index: int, pool) -> None:
        self.index = index
        self.pool = pool
        self.thread = None
        self.crashes = 0
        self.restarts = 0
        self.retired = False
        self.stuck = False
        #: monotonic timestamp when the current batch's service started;
        #: ``None`` while the worker is idle (stuck detection only applies
        #: to a worker that is actually serving).
        self.busy_since: Optional[float] = None
        #: pending respawn time (crash detected, backoff running).
        self.respawn_at: Optional[float] = None

    def is_alive(self) -> bool:
        return (
            not self.retired
            and self.thread is not None
            and self.thread.is_alive()
        )
