"""Process-sharded serving: multiprocessing workers over shared memory.

:class:`ProcServer` is the :class:`~repro.serve.frontend.Server` with its
worker substrate swapped out: each :class:`~repro.serve.resilience
.WorkerSlot` drives a **worker process** instead of compiling a local
:class:`~repro.serve.frontend.SessionPool`.  Everything above the slot —
request queue, coalescing, backpressure, deadlines, retry/bisection,
watchdog supervision, metrics, spans — is inherited unchanged; the slot's
pool is a :class:`_ProcWorkerProxy` that keeps the ``SessionPool`` serving
surface while shipping batches across process boundaries:

- **Parameters** live in one versioned double-banked
  :class:`~repro.serve.arena.ParamArena`; every worker maps them as
  zero-copy numpy views and rebinds at batch boundaries when
  :meth:`ProcServer.publish_weights` bumps the version (hot weight swap
  without restart or recompile — unless the published *buffers* changed,
  which forces a worker-side recompile because eval batch-norm statistics
  are folded into the compiled session).
- **Requests/results** move through per-worker
  :class:`~repro.serve.arena.RequestRing` slots; only ``(slot, n,
  deadline)`` control tuples cross the ``Pipe``, so no request array is
  pickled on the hot path.  Requests larger than the ring capacity take a
  pickled cold path (counted by
  ``repro_serve_proc_pipe_fallback_total``).
- **Determinism** propagates: the parent's codegen toggle and seeded
  global RNG state are applied inside every worker under both ``fork``
  and ``spawn`` start methods, so process-mode results are bit-identical
  to thread-mode.
- **Resilience** keeps the PR 6 contract: a worker process dying (crash
  *or* SIGKILL) surfaces as :class:`~repro.serve.resilience.WorkerKill`,
  re-queues the in-flight batch and respawns through the existing
  watchdog (crash counting, backoff, crash-loop retirement); injected
  kills from :mod:`repro.serve.faults` take the real OS process down;
  stuck workers are killed before replacement; :meth:`ProcServer.stop`
  is bounded and never leaks a ``/dev/shm`` segment.

Start-method caveats: ``fork`` (the Linux default) inherits the live
model and imports for free; ``spawn`` re-imports everything per worker
and needs a *picklable* model — pass ``model_factory`` (a zero-arg
callable rebuilding the architecture; the arena supplies the weights) or
rely on the model pickling cleanly.  Worker RNG state is captured once
at server construction; respawned workers restart from that snapshot.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
import time
import traceback
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing as mp
from multiprocessing.connection import wait as mp_wait

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.backend.registry import default_rng, get_rng_state, set_rng_state
from repro.codegen.jit import (
    abandon_compiles,
    codegen_enabled,
    codegen_stats,
    enable_codegen,
    ingest_worker_codegen_stats,
)
from repro.nn.module import Module
from repro.serve.arena import ParamArena, RequestRing
from repro.serve.frontend import (
    DEFAULT_BUCKETS,
    Server,
    SessionPool,
    _NULL_COUNTER,
    _normalize_buckets,
)
from repro.serve.resilience import DeadlineExceeded, WorkerKill, WorkerSlot
from repro.serve.session import _as_input_tensors, _coerce_arrays

__all__ = ["ProcServer"]

_START_METHODS = ("fork", "spawn", "forkserver")

#: Environment toggles mirrored into every worker process (spawn loses the
#: parent's interpreter state; fork keeps it, but the explicit programmatic
#: overrides below win either way).
_ENV_KEYS = ("REPRO_CODEGEN", "REPRO_KERNEL_CACHE")


# ---------------------------------------------------------------------- #
# Worker-process side
# ---------------------------------------------------------------------- #
class _ParamBinder:
    """Rebinds a worker's model tensors onto arena bank views.

    Parameters are swapped by assigning ``param.data`` — compiled sessions
    read parameter arrays through live attribute getters, so a rebind is
    picked up on the next replay without recompiling.  Buffers are swapped
    in the owning module's ``_buffers`` dict; eval batch-norm folds its
    buffers into compiled constants, so :meth:`refresh` reports when
    buffer *bytes* changed and the caller must recompile its pool.
    """

    def __init__(self, model: Module, arena: ParamArena,
                 buffer_keys: Sequence[str]) -> None:
        self._arena = arena
        self._buffer_keys = list(buffer_keys)
        self._params = dict(model.named_parameters())
        self._buffer_owners: Dict[str, Tuple[Module, str]] = {}
        for prefix, module in model.named_modules():
            for bname in module._buffers:
                full = f"{prefix}.{bname}" if prefix else bname
                self._buffer_owners[full] = (module, bname)
        self.version = 0
        self._bank: Optional[int] = None

    def adopt(self) -> None:
        version, bank = self._arena.read_header()
        views = self._arena.views(bank)
        for name, param in self._params.items():
            param.data = views[name]
        for name, (module, bname) in self._buffer_owners.items():
            # Straight into the dict: Module.__setattr__ would copy, and
            # the whole point is aliasing the shared pages.
            module._buffers[bname] = views[name]
        self.version, self._bank = version, bank

    def refresh(self) -> str:
        """Adopt any newer published bank.

        Returns ``"unchanged"``, ``"params"`` (rebound, compiled sessions
        stay valid) or ``"recompile"`` (buffer bytes changed — folded
        batch-norm constants are stale).
        """
        version, bank = self._arena.read_header()
        if version == self.version:
            return "unchanged"
        recompile = False
        if self._buffer_keys:
            if version - self.version == 1 and bank != self._bank:
                old = self._arena.views(self._bank)
                new = self._arena.views(bank)
                recompile = any(
                    old[k].tobytes() != new[k].tobytes()
                    for k in self._buffer_keys
                )
            else:
                # Missed publishes wrapped the banks; the old bytes are
                # gone, so assume the worst.
                recompile = True
        self.adopt()
        return "recompile" if recompile else "params"


def _build_worker_model(payload) -> Module:
    kind, value = payload
    if kind == "live":
        model = value
    elif kind == "factory":
        model = value()
    else:  # "pickle"
        model = pickle.loads(value)
    if not isinstance(model, Module):
        raise TypeError(f"worker model payload produced {type(model).__name__}")
    model.eval()
    return model


def _worker_main(spec: dict, conn) -> None:
    """Worker-process entry point."""
    try:
        _serve_worker(spec, conn)
    finally:
        # A fork-start worker leaves through os._exit, which runs no atexit:
        # a compile still in flight is stopped here, compiler and temp dir.
        abandon_compiles()


def _serve_worker(spec: dict, conn) -> None:
    """Apply environment, build the pool, serve ring slots until told to
    stop (or the pipe dies)."""
    try:
        for key, value in spec["env"].items():
            os.environ[key] = value
        enable_codegen(spec["codegen"])
        model = _build_worker_model(spec["model"])
        # After model construction: factory init draws must not perturb
        # the propagated stream.
        set_rng_state(spec["rng_state"])
        arena = ParamArena.attach(spec["arena"])
        ring = RequestRing.attach(spec["ring"])
        binder = _ParamBinder(model, arena, spec["buffer_keys"])
        binder.adopt()
        example = [np.array(a) for a in spec["example"]]

        def build_pool() -> SessionPool:
            return SessionPool(model, example, spec["buckets"])

        pool = build_pool()
        # The parent folds this process's codegen counters into its /metrics
        # (labeled mode="process" — a worker's disk hits are invisible to
        # the parent's in-process counters otherwise).  The handshake carries
        # what pool construction resolved at once (memo and disk hits);
        # kernels compiled off the request path land later, so every reply
        # is preceded by whatever the counters gained since.
        shipped = codegen_stats()
        conn.send(("ready", os.getpid(), binder.version,
                   pool.has_batch_statistics, shipped))
    except BaseException:
        try:
            conn.send(("fatal", traceback.format_exc()))
        except Exception:
            pass
        return

    def respond(*msg) -> None:
        nonlocal shipped
        stats = codegen_stats()
        if stats != shipped:
            conn.send(("codegen", {k: v - shipped[k] for k, v in stats.items()}))
            shipped = stats
        conn.send(msg)

    delay = float(spec.get("serve_delay") or 0.0)
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return  # parent went away
            tag = msg[0]
            if tag == "stop":
                return
            if tag == "probe":
                reply = {
                    "pid": os.getpid(),
                    "codegen": codegen_enabled(),
                    "env": {k: os.environ.get(k) for k in _ENV_KEYS},
                    "arena_version": binder.version,
                    "explain": {b: s.explain() for b, s in pool.sessions.items()},
                }
                if msg[1]:  # draw one value from the propagated RNG stream
                    reply["rng_draw"] = float(default_rng().standard_normal())
                conn.send(("probe_ok", reply))
                continue
            # ("serve", slot, n, remaining) | ("serve_obj", arrays, remaining)
            received_at = time.monotonic()
            remaining = msg[3] if tag == "serve" else msg[2]
            deadline = None if remaining is None else received_at + remaining
            try:
                if binder.refresh() == "recompile":
                    pool = build_pool()
                if delay:
                    time.sleep(delay)
                if deadline is not None and time.monotonic() > deadline:
                    conn.send(("expired", binder.version))
                    continue
                if tag == "serve":
                    _, slot, n, _ = msg
                    views = ring.input_views(slot, n)
                    pool.serve(views, out=ring.output_view(slot, n))
                    respond("ok", binder.version)
                else:
                    result = pool.serve(msg[1])
                    respond("ok_obj", result, binder.version)
            except BaseException as exc:
                try:
                    conn.send(("err", exc, binder.version))
                except Exception:
                    conn.send(("err",
                               RuntimeError(f"{type(exc).__name__}: {exc}"),
                               binder.version))
    finally:
        ring.close()
        arena.close()


# ---------------------------------------------------------------------- #
# Parent side
# ---------------------------------------------------------------------- #
class _ProcWorkerProxy:
    """Parent-side stand-in for a worker process's ``SessionPool``.

    Implements exactly the surface :class:`Server` uses — ``serve`` /
    ``validate`` / ``decompose`` / the shape-and-dtype metadata / the
    routing counters — so coalescing, retries, bisection, fault injection
    and stats all work unchanged.  ``serve`` copies the coalesced batch
    into a ring slot, sends a control tuple, and blocks until the worker
    replies or its process dies (which raises :class:`WorkerKill`, the
    same signal an injected thread kill uses, so the whole supervision
    path downstream is shared).
    """

    def __init__(self, server: "ProcServer", pool_metrics) -> None:
        self._server_ref = weakref.ref(server)
        self.index = next(server._proxy_ids)
        self._ctx = server._ctx
        self._spec = dict(server._base_spec)
        self._buckets = server._norm_buckets
        self._per_sample_shapes = [s for s, _ in server._input_specs]
        self._dtypes = [d for _, d in server._input_specs]
        self._out_per_sample, self.output_dtype = server._out_spec
        self.has_batch_statistics = server._has_batch_statistics
        bucket_counters, eager_counter = pool_metrics
        self._m_bucket = {
            b: bucket_counters.get(b, _NULL_COUNTER) for b in self._buckets
        }
        self._m_eager = eager_counter
        self.bucket_calls: Dict[int, int] = {b: 0 for b in self._buckets}
        self.eager_calls = 0
        #: Last arena version the worker reported back.
        self.arena_version: Optional[int] = None
        #: Process respawns for this proxy (crash recovery).
        self.restarts = 0
        #: Idle-crash backoff state for ProcServer._sweep_extra.
        self.proc_crashes = 0
        self.next_respawn_at: Optional[float] = None
        self._ring = RequestRing.create(
            server._input_specs, server._out_spec,
            capacity=server._ring_capacity, slots=server._ring_slots,
        )
        self._spec["ring"] = self._ring.spec()
        self._io_lock = threading.Lock()
        self._deadline_hint: Optional[float] = None
        self._next_slot = 0
        self._destroyed = False
        self._proc = None
        self._conn = None
        self._awaiting_ready = True
        #: The worker slot serving through this proxy (set by
        #: ``ProcServer._spawn``): its stuck clock restarts at the handshake.
        self.slot: Optional[WorkerSlot] = None
        self._start_process()

    # -------------------------- process lifecycle --------------------- #
    def _start_process(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        suffix = f"-r{self.restarts}" if self.restarts else ""
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._spec, child_conn),
            name=f"repro-serve-proc-{self.index}{suffix}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._proc, self._conn = proc, parent_conn
        self._awaiting_ready = True

    @property
    def pid(self) -> Optional[int]:
        proc = self._proc
        return proc.pid if proc is not None else None

    def process_alive(self) -> bool:
        proc = self._proc
        return proc is not None and proc.is_alive()

    def kill_process(self) -> None:
        """SIGKILL the worker process (fault injection / stuck handling)."""
        proc = self._proc
        if proc is not None and proc.is_alive():
            proc.kill()

    def respawn(self) -> None:
        """Replace a dead worker process (serialized with in-flight I/O)."""
        with self._io_lock:
            if self._destroyed:
                return
            self._close_conn()
            proc = self._proc
            if proc is not None:
                if proc.is_alive():
                    proc.kill()
                proc.join(timeout=5.0)
            self.restarts += 1
            server = self._server_ref()
            if server is not None:
                server._m_proc_respawns.inc()
            self._start_process()

    def ensure_process(self) -> None:
        """Respawn iff the process is dead (idempotent; used by _spawn)."""
        if not self.process_alive():
            self.respawn()

    def _close_conn(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the process and destroy the ring segment (idempotent)."""
        with self._io_lock:
            if self._destroyed:
                return
            self._destroyed = True
            proc, conn = self._proc, self._conn
            if conn is not None:
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            if proc is not None:
                proc.join(timeout=max(0.1, timeout))
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1.0)
            self._close_conn()
            self._ring.destroy()

    # --------------------------- pool surface ------------------------- #
    @property
    def buckets(self) -> Tuple[int, ...]:
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

    # validate/decompose mirror SessionPool exactly: routing must be
    # byte-for-byte the decision the worker's own pool will make.
    validate = SessionPool.validate
    decompose = SessionPool.decompose

    def set_deadline_hint(self, deadline: Optional[float]) -> None:
        """Latest deadline of the next batch (monotonic), from the server."""
        self._deadline_hint = deadline

    # ------------------------------ serving --------------------------- #
    def serve(self, batch, out: Optional[np.ndarray] = None) -> np.ndarray:
        arrays = _coerce_arrays(batch)
        n = self.validate(arrays)
        result_shape = (n,) + self._out_per_sample
        if out is None:
            out = np.empty(result_shape, dtype=self.output_dtype)
        elif out.shape != result_shape:
            raise ValueError(f"out has shape {out.shape}, expected {result_shape}")
        elif out.dtype != self.output_dtype:
            raise ValueError(
                f"out has dtype {out.dtype}, expected {self.output_dtype}"
            )
        if n == 0:
            return out
        hint, self._deadline_hint = self._deadline_hint, None
        remaining = None if hint is None else hint - time.monotonic()
        with self._io_lock:
            if self._destroyed:
                raise WorkerKill("worker was shut down")
            self._ensure_ready()
            if n <= self._ring.capacity:
                slot = self._next_slot
                self._next_slot = (slot + 1) % self._ring.slots
                for view, arr in zip(self._ring.input_views(slot, n), arrays):
                    view[...] = arr
                self._send(("serve", slot, n, remaining))
                reply = self._recv()
                self._handle_reply_errors(reply)
                out[...] = self._ring.output_view(slot, n)
            else:
                # Oversized request: the cold pickled path.
                server = self._server_ref()
                if server is not None:
                    server._m_pipe_fallback.inc()
                payload = [np.ascontiguousarray(a) for a in arrays]
                self._send(("serve_obj", payload, remaining))
                reply = self._recv()
                self._handle_reply_errors(reply)
                out[...] = reply[1]
        # Recompute the worker's routing decisions parent-side (decompose
        # is deterministic and shared), so bucket counters stay live
        # without extra IPC.
        chunks, remainder = self.decompose(n)
        for bucket in chunks:
            self.bucket_calls[bucket] += 1
            self._m_bucket[bucket].inc()
        if remainder:
            self.eager_calls += 1
            self._m_eager.inc()
        return out

    __call__ = serve

    def _handle_reply_errors(self, reply) -> None:
        tag = reply[0]
        self.arena_version = reply[-1] if isinstance(reply[-1], int) else self.arena_version
        if tag in ("ok", "ok_obj"):
            return
        if tag == "expired":
            raise DeadlineExceeded(
                "every request in the batch expired before the worker "
                "process picked it up"
            )
        if tag == "err":
            raise reply[1]
        raise RuntimeError(f"unexpected worker reply {tag!r}")

    def _ensure_ready(self) -> None:
        """Consume the ("ready", ...) handshake after (re)spawn."""
        if not self._awaiting_ready:
            return
        server = self._server_ref()
        timeout = server._spawn_timeout if server is not None else 120.0
        reply = self._recv(timeout=timeout)
        if reply[0] == "fatal":
            self.kill_process()
            raise RuntimeError(
                f"worker process failed to start:\n{reply[1]}"
            )
        if reply[0] != "ready":
            raise RuntimeError(f"unexpected startup reply {reply[0]!r}")
        _, pid, version, has_bs = reply[:4]
        self.arena_version = version
        self.has_batch_statistics = has_bs
        if len(reply) > 4 and reply[4]:
            # Worker compile/cache counters as its pool build left them;
            # fold into the parent's labeled mode="process" series.
            ingest_worker_codegen_stats(reply[4])
        slot = self.slot
        if slot is not None and slot.busy_since is not None:
            # The slot's stuck clock started when it took this batch, before
            # the start-up it just sat through; the exemption for start-up
            # ends on the next line.  Restart the clock first, or a watchdog
            # sweep landing before the worker's first reply sees a slot busy
            # for the whole handshake and kills a healthy worker.
            slot.busy_since = time.monotonic()
        self._awaiting_ready = False

    def probe(self, rng_draw: bool = False, timeout: float = 30.0) -> dict:
        """Ask the worker process to report its effective settings
        (codegen toggle, env, pid, each bucket session's ``explain()``
        rows; optionally one draw from its propagated RNG stream).
        Test/debug surface."""
        with self._io_lock:
            self._ensure_ready()
            self._send(("probe", bool(rng_draw)))
            reply = self._recv(timeout=timeout)
        if reply[0] != "probe_ok":
            raise RuntimeError(f"unexpected probe reply {reply[0]!r}")
        return reply[1]

    # ------------------------------- I/O ------------------------------ #
    def _send(self, msg) -> None:
        conn = self._conn
        if conn is None:
            raise WorkerKill("worker pipe is closed")
        try:
            conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerKill(f"worker pipe broke on send: {exc}") from None

    def _recv(self, timeout: Optional[float] = None):
        """Wait for one reply, or for the process to end: the wait wakes on
        the process sentinel too, so a dead process is noticed at once even
        when it never wrote EOF (SIGKILL mid-write, kernel OOM, ...)."""
        conn, proc = self._conn, self._proc
        if conn is None:
            raise WorkerKill("worker pipe is closed")
        waitables = [conn] if proc is None else [conn, proc.sentinel]
        deadline = time.monotonic() + timeout if timeout is not None else None
        while True:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                self.kill_process()
                raise WorkerKill(
                    f"worker process pid={self.pid} did not reply within "
                    f"{timeout}s; killed"
                )
            ready = mp_wait(waitables, remaining)
            try:
                if conn in ready:
                    msg = conn.recv()
                    if msg[0] != "codegen":
                        return msg
                    # Counters the worker gained since its last message
                    # (kernels compiled off the request path): fold, go on.
                    ingest_worker_codegen_stats(msg[1])
                    continue
            except (EOFError, OSError):
                raise WorkerKill(
                    f"worker process pid={self.pid} closed its pipe "
                    f"(exitcode={proc.exitcode if proc else None})"
                ) from None
            if proc is not None and not proc.is_alive():
                # Drain one last time: the reply may have landed between
                # the wait and the process's exit.
                try:
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):
                    pass
                raise WorkerKill(
                    f"worker process pid={self.pid} died "
                    f"(exitcode={proc.exitcode})"
                )


def _finalize_shared(arena: ParamArena, proxies: List[_ProcWorkerProxy]) -> None:
    """GC/exit safety net: never leak segments even without stop()."""
    for proxy in list(proxies):
        try:
            proxy.kill_process()
            proxy.shutdown(timeout=0.5)
        except Exception:
            pass
    try:
        arena.destroy()
    except Exception:
        pass


class ProcServer(Server):
    """A :class:`Server` whose workers are OS processes over shared memory.

    Parameters (beyond the inherited :class:`Server` ones)
    -----------------------------------------------------
    start_method:
        ``"fork"`` (Linux default; inherits the live model and imports) or
        ``"spawn"`` (fresh interpreter per worker; needs a picklable model
        or ``model_factory``).  Defaults to ``REPRO_PROC_START_METHOD`` or
        the platform default.
    model_factory:
        Zero-arg picklable callable rebuilding the model *architecture*
        in the worker (weights always come from the arena).  Required
        under ``spawn`` when the model itself does not pickle.
    ring_slots:
        In-flight batch slots per worker ring (default 2: one serving,
        one staging).
    ring_capacity:
        Samples per ring slot; defaults to ``max(max_batch_size,
        largest bucket)``.  Bigger requests take the pickled cold path.
    worker_latency:
        Artificial per-batch delay *inside* the worker process, seconds —
        the cross-process arm of :mod:`repro.serve.faults` (deterministic
        slow-worker injection; also how the tests hold a batch in flight
        to SIGKILL it mid-serve).
    spawn_timeout:
        Seconds to wait for a worker's ready handshake (spawn pays
        interpreter + compile startup) before declaring it dead.

    The parent holds the reference model: mutate its parameters and call
    :meth:`publish_weights` to hot-swap every worker at their next batch
    boundary.
    """

    mode = "process"

    def __init__(
        self,
        model: Module,
        example_batch,
        buckets: Sequence[int] = DEFAULT_BUCKETS,
        *,
        start_method: Optional[str] = None,
        model_factory=None,
        ring_slots: int = 2,
        ring_capacity: Optional[int] = None,
        worker_latency: float = 0.0,
        spawn_timeout: float = 120.0,
        max_batch_size: Optional[int] = None,
        **kwargs,
    ) -> None:
        method = (start_method
                  or os.environ.get("REPRO_PROC_START_METHOD")
                  or mp.get_start_method())
        if method not in _START_METHODS:
            raise ValueError(
                f"start_method must be one of {_START_METHODS}, got {method!r}"
            )
        training = [name or "<root>" for name, m in model.named_modules()
                    if m.training]
        if training:
            raise ValueError(
                f"ProcServer requires an eval-mode model, but {training[:5]} "
                "is in train mode; call model.eval() first"
            )
        if ring_slots < 1:
            raise ValueError(f"ring_slots must be >= 1, got {ring_slots}")
        self._ctx = mp.get_context(method)
        self._start_method = method
        self._norm_buckets = _normalize_buckets(buckets)
        examples = [t.data for t in _as_input_tensors(example_batch)]
        for i, arr in enumerate(examples):
            if arr.ndim == 0 or arr.shape[0] < 1:
                raise ValueError(
                    f"example input {i} needs a leading sample dimension, "
                    f"got shape {arr.shape}"
                )
        self._input_specs = [(a.shape[1:], a.dtype) for a in examples]
        self._out_spec = self._probe_output(model, examples)
        self._has_batch_statistics = False  # refined by the ready handshake
        default_capacity = max(self._norm_buckets[0],
                               int(max_batch_size or 0))
        self._ring_capacity = int(ring_capacity or default_capacity)
        if self._ring_capacity < 1:
            raise ValueError(
                f"ring_capacity must be >= 1, got {self._ring_capacity}"
            )
        self._ring_slots = int(ring_slots)
        self._spawn_timeout = float(spawn_timeout)
        state = model.state_dict()
        self._arena = ParamArena.create(state)
        self._model_ref = model
        self._proxy_ids = itertools.count()
        self._proxies: List[_ProcWorkerProxy] = []
        self._base_spec = {
            "env": {k: os.environ[k] for k in _ENV_KEYS if k in os.environ},
            "codegen": codegen_enabled(),
            "rng_state": get_rng_state(),
            "model": self._model_payload(model, model_factory, method),
            "example": [np.ascontiguousarray(a[:1]) for a in examples],
            "buckets": self._norm_buckets,
            "buffer_keys": sorted(name for name, _ in model.named_buffers()),
            "arena": self._arena.spec(),
            "serve_delay": float(worker_latency),
            # "ring" is stamped per proxy.
        }
        self._procs_torn_down = False
        super().__init__(model, example_batch, buckets,
                         max_batch_size=max_batch_size, **kwargs)
        self._finalizer = weakref.finalize(
            self, _finalize_shared, self._arena, self._proxies
        )
        label_kv = {"mode": self.mode, "server": self._server_id}
        self._m_pipe_fallback = self._registry.counter(
            "repro_serve_proc_pipe_fallback_total",
            "Oversized requests served over the pickled pipe cold path.",
            labelnames=("mode", "server")).labels(**label_kv)
        self._m_proc_respawns = self._registry.counter(
            "repro_serve_proc_respawns_total",
            "Worker process respawns after crash or SIGKILL.",
            labelnames=("mode", "server")).labels(**label_kv)
        self._registry.gauge(
            "repro_serve_arena_version",
            "Version of the live parameter arena bank.",
            labelnames=("mode", "server")).labels(**label_kv).set_function(
            lambda: float(self._arena.version))

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _probe_output(model: Module, examples: List[np.ndarray]):
        """One eager no-grad forward of a single sample, to learn the
        per-sample output shape/dtype without compiling parent-side."""
        inputs = [Tensor(np.ascontiguousarray(a[:1]), dtype=a.dtype)
                  for a in examples]
        with no_grad():
            out = model(*inputs)
        data = out.data
        if data.ndim == 0 or data.shape[0] != 1:
            raise ValueError(
                "ProcServer needs a per-sample model output of shape "
                f"(batch, ...); the probe forward produced {data.shape}"
            )
        return tuple(data.shape[1:]), data.dtype

    @staticmethod
    def _model_payload(model, model_factory, method):
        if model_factory is not None:
            try:
                pickle.dumps(model_factory)
            except Exception as exc:
                raise ValueError(
                    f"model_factory must be picklable for process workers "
                    f"({exc})"
                ) from exc
            return ("factory", model_factory)
        if method == "fork":
            return ("live", model)  # inherited through fork, never pickled
        try:
            return ("pickle", pickle.dumps(model))
        except Exception as exc:
            raise ValueError(
                f"start_method={method!r} needs a picklable model or an "
                f"explicit model_factory; pickling the model failed: {exc}"
            ) from exc

    def _make_pool_factory(self, model, example_batch, buckets, pool_metrics):
        def factory() -> _ProcWorkerProxy:
            proxy = _ProcWorkerProxy(self, pool_metrics)
            self._proxies.append(proxy)
            return proxy
        return factory

    # ------------------------------------------------------------------ #
    # Supervision hooks
    # ------------------------------------------------------------------ #
    def _spawn(self, slot: WorkerSlot) -> None:
        pool = slot.pool
        if isinstance(pool, _ProcWorkerProxy):
            pool.slot = slot
            pool.ensure_process()
        super()._spawn(slot)

    def _on_worker_kill(self, slot: WorkerSlot) -> None:
        pool = slot.pool
        if isinstance(pool, _ProcWorkerProxy):
            pool.kill_process()

    def _handle_stuck(self, slot: WorkerSlot) -> None:
        pool = slot.pool
        if isinstance(pool, _ProcWorkerProxy):
            if pool._awaiting_ready:
                # Not stuck — still starting up.  A slot's first serve
                # waits for the spawn handshake (interpreter import +
                # session compile under "spawn"), which is bounded by
                # spawn_timeout, not stuck_timeout; killing here would
                # shoot every replacement before it ever comes up.
                return
            # Kill the wedged process first: that un-sticks the parent
            # thread (its _recv raises WorkerKill) so the slot can
            # actually retire instead of holding its batch forever.
            pool.kill_process()
        super()._handle_stuck(slot)

    def _sweep_extra(self, now: float) -> None:
        """Notice worker processes that died with no traffic to surface it
        (the parent thread idles in _collect) and respawn with backoff."""
        with self._lock:
            slots = list(self._slots)
        for slot in slots:
            pool = slot.pool
            if (slot.retired or not isinstance(pool, _ProcWorkerProxy)
                    or slot.thread is None or not slot.thread.is_alive()
                    or pool.process_alive()):
                continue
            if pool.next_respawn_at is None:
                pool.proc_crashes += 1
                pool.next_respawn_at = now + self._supervision.restart_delay(
                    pool.proc_crashes
                )
            elif now >= pool.next_respawn_at:
                pool.next_respawn_at = None
                pool.respawn()

    # ------------------------------------------------------------------ #
    # Weights
    # ------------------------------------------------------------------ #
    def publish_weights(self, state: Optional[Dict[str, np.ndarray]] = None) -> int:
        """Publish new parameters to every worker (hot swap).

        ``state`` defaults to the parent model's current ``state_dict()``.
        Writes the inactive arena bank and flips it live; each worker
        rebinds at its next batch boundary (recompiling only if buffer
        bytes — folded batch-norm statistics — changed).  Returns the new
        arena version.
        """
        if state is None:
            state = self._model_ref.state_dict()
        return self._arena.publish(state)

    @property
    def arena_version(self) -> int:
        return self._arena.version

    @property
    def start_method(self) -> str:
        return self._start_method

    # ------------------------------------------------------------------ #
    # Lifecycle / introspection
    # ------------------------------------------------------------------ #
    def stop(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        super().stop(drain=drain, timeout=timeout)
        self._teardown_processes()

    def _teardown_processes(self) -> None:
        if self._procs_torn_down:
            return
        self._procs_torn_down = True
        # A worker thread that out-wedged the stop timeout still holds its
        # proxy's I/O lock mid-batch; kill that process so the thread's
        # recv raises WorkerKill (failing the batch — the queue is already
        # drained) instead of shutdown() blocking on the lock for as long
        # as the batch takes.
        for slot in self._slots:
            pool = slot.pool
            if (isinstance(pool, _ProcWorkerProxy) and slot.thread is not None
                    and slot.thread.is_alive()):
                pool.kill_process()
        for proxy in list(self._proxies):
            proxy.shutdown(timeout=2.0)
        self._finalizer()  # destroys the arena; idempotent

    def probe_workers(self, rng_draw: bool = False) -> List[dict]:
        """Settings snapshot from every live worker process (see
        :meth:`_ProcWorkerProxy.probe`); test/debug surface."""
        with self._lock:
            slots = list(self._slots)
        reports = []
        for slot in slots:
            pool = slot.pool
            if isinstance(pool, _ProcWorkerProxy) and not slot.retired \
                    and pool.process_alive():
                reports.append(pool.probe(rng_draw=rng_draw))
        return reports

    def stats(self) -> Dict[str, float]:
        snapshot = super().stats()
        with self._lock:
            slots = list(self._slots)
        workers = []
        for slot in slots:
            pool = slot.pool
            if not isinstance(pool, _ProcWorkerProxy):
                continue
            workers.append({
                "index": slot.index,
                "pid": pool.pid,
                "alive": pool.process_alive(),
                "process_restarts": pool.restarts,
                "arena_version": pool.arena_version,
                "retired": slot.retired,
            })
        snapshot["start_method"] = self._start_method  # type: ignore[assignment]
        snapshot["arena_version"] = float(self._arena.version)
        snapshot["pipe_fallbacks"] = self._m_pipe_fallback.value
        snapshot["process_restarts"] = self._m_proc_respawns.value
        snapshot["workers"] = workers  # type: ignore[assignment]
        return snapshot

    def health(self) -> Dict[str, object]:
        health = super().health()
        with self._lock:
            slots = list(self._slots)
        proxies = [(s, s.pool) for s in slots
                   if isinstance(s.pool, _ProcWorkerProxy)]
        health["start_method"] = self._start_method
        health["arena_version"] = self._arena.version
        health["worker_pids"] = [p.pid for _, p in proxies]
        health["processes_alive"] = sum(
            1 for s, p in proxies if not s.retired and p.process_alive()
        )
        health["process_restarts"] = sum(p.restarts for _, p in proxies)
        return health
