"""Compile stage plans to native code, with an on-disk kernel cache.

Pipeline: a ``("stages", ...)`` signature — a serving session's steps, a
train step's kernels, a fused region (:meth:`RegionIR.lower
<repro.codegen.region.RegionIR.lower>`) — → C source
(:mod:`repro.codegen.cstage`) → shared object compiled by the system C
compiler → one :mod:`ctypes` function per stage, called over a pointer
table (:class:`StageLibrary`).  Kernels are cached at three levels:

- **in process** by signature, so repeated flushes/compiles of the same
  region structure resolve to one loaded function;
- **on disk** under ``$REPRO_KERNEL_CACHE`` (default
  ``~/.cache/repro/kernels``), content-hashed over the C source *and* the
  compiler identity, so a cc upgrade or a renderer change can never serve a
  stale binary.  Entries are written atomically (temp file +
  ``os.replace``); concurrent *processes* compiling the same kernel
  additionally serialize on an advisory ``flock`` per entry so N workers
  produce one compile and N-1 disk hits — and when the lock itself is
  unavailable (no :mod:`fcntl`, NFS refusing locks) they fall back to the
  benign atomic-replace race rather than failing;
- a **corrupted entry** (truncated .so, missing symbol) is unlinked and
  recompiled instead of crashing.

:func:`compile_region` compiles one region synchronously; sessions and the
train step go through the part of this module that keeps the compiler
**off the caller's thread**: :func:`resolve` with
``wait=False`` answers from the memo or the disk at once and otherwise
queues the signature on one daemon compile thread (in-flight compiles
deduplicated in the memo) and hands back a :class:`Pending`.  Whatever was
queued while the thread was busy it builds at its next wake-up as one
translation unit in one compiler run, published under each entry's own
name; :func:`wait_for_compiles` waits for it to be idle.
A failure there is counted there, by reason.  A process
that leaves mid-compile takes its compiler with it — at exit and on a
worker's way out (:func:`abandon_compiles`); ``fork`` waits for the thread to hold no interpreter-wide lock
(:data:`_GATE`), and the child starts with no inherited compile in flight.

When codegen is disabled (``REPRO_CODEGEN=0``), no compiler is available,
or a compile fails, :func:`compile_region` falls back to the numpy
interpreter arm — bit-equal to the compiled arm by contract, so the
fallback is purely a performance event.  It is counted as one, labelled
with its reason (:func:`count_fallback`): the module
registers ``repro_codegen_*`` counters and a ``compile_ms`` histogram in
the process-default observability registry (:func:`repro.obs.get_registry`),
all off the kernel execution hot path.  The ``mode``-labelled
``repro_codegen_cache_{hit,miss}_total`` counters separate this process's
traffic (``mode="local"``) from worker-process compiles that
:func:`ingest_worker_codegen_stats` folds in (``mode="process"``).
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import hashlib
import os
import queue
import shutil
import subprocess
import tempfile
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from repro.codegen.cstage import kernel_name, render_stages

if TYPE_CHECKING:
    from repro.codegen.region import RegionIR

__all__ = [
    "codegen_enabled",
    "enable_codegen",
    "using_codegen",
    "have_compiler",
    "kernel_cache_dir",
    "compile_region",
    "clear_kernel_memo",
    "codegen_stats",
    "ingest_worker_codegen_stats",
    "abandon_compiles",
    "wait_for_compiles",
]

_FALSY = ("", "0", "off", "false", "no")

#: Programmatic override of the REPRO_CODEGEN environment toggle.
_OVERRIDE: Optional[bool] = None


def codegen_enabled() -> bool:
    """Whether :func:`compile_region` may emit native kernels.

    :func:`enable_codegen` / :func:`using_codegen` take precedence;
    otherwise ``REPRO_CODEGEN`` decides (**on** by default — codegen only
    runs where fusion already placed a region or a session planned a stage,
    and it degrades gracefully to the interpreter without a compiler).
    """
    if _OVERRIDE is not None:
        return _OVERRIDE
    return os.environ.get("REPRO_CODEGEN", "1").strip().lower() not in _FALSY


def enable_codegen(flag: Optional[bool]) -> None:
    """Force codegen on/off, or ``None`` for the environment default."""
    global _OVERRIDE
    _OVERRIDE = flag


@contextlib.contextmanager
def using_codegen(flag: bool):
    """Scoped :func:`enable_codegen`, restoring the previous override."""
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = bool(flag)
    try:
        yield
    finally:
        _OVERRIDE = previous


def kernel_cache_dir() -> Path:
    """The on-disk kernel cache directory (``REPRO_KERNEL_CACHE`` override)."""
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path(os.path.expanduser("~")) / ".cache" / "repro" / "kernels"


# --------------------------------------------------------------------------- #
# Compiler discovery
# --------------------------------------------------------------------------- #
_cc_cache: Optional[tuple] = None  # (path or None, version string)


def _compiler() -> tuple:
    global _cc_cache
    if _cc_cache is None:
        path = None
        for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
            if cand and shutil.which(cand):
                path = shutil.which(cand)
                break
        version = ""
        if path:
            try:
                proc = subprocess.run(
                    [path, "--version"], capture_output=True, text=True, timeout=10
                )
                version = proc.stdout.splitlines()[0] if proc.stdout else ""
            except (OSError, subprocess.SubprocessError):
                path = None
        _cc_cache = (path, version)
    return _cc_cache


def have_compiler() -> bool:
    """Whether a usable C compiler was found (``$CC``, cc, gcc, clang)."""
    return _compiler()[0] is not None


# --------------------------------------------------------------------------- #
# Observability
# --------------------------------------------------------------------------- #
_metrics_cache = None


def _metrics():
    """Codegen counters in the process-default registry (lazy, cached)."""
    global _metrics_cache
    if _metrics_cache is None:
        from repro.obs.metrics import get_registry

        registry = get_registry()
        _metrics_cache = {
            "compiled": registry.counter(
                "repro_codegen_kernels_compiled_total",
                "Compiler runs that built stage plans (one run builds every "
                "plan queued meanwhile)",
            ),
            "cache_hits": registry.counter(
                "repro_codegen_cache_hits_total",
                "Stage plans loaded from the on-disk cache",
            ),
            "fallback": registry.counter(
                "repro_codegen_fallback_total",
                "Regions and stage plans resolved to the numpy arm, "
                "by why no native kernel serves them",
                labelnames=("reason",),
            ),
            "compile_ms": registry.histogram(
                "repro_codegen_compile_ms",
                "Wall time of one compiler run (one or more stage plans)",
                buckets=(1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0),
            ),
            "cache_hit": registry.counter(
                "repro_codegen_cache_hit_total",
                "Kernel lookups resolved without compiling (memo or disk), "
                "by where the lookup ran",
                labelnames=("mode",),
            ),
            "cache_miss": registry.counter(
                "repro_codegen_cache_miss_total",
                "Kernel lookups that compiled from source, by where the "
                "compile ran",
                labelnames=("mode",),
            ),
        }
    return _metrics_cache


def codegen_stats() -> dict:
    """Plain-int snapshot of the codegen counters (tests, bench reports)."""
    with _LOCK:
        return dict(_STATS)


def ingest_worker_codegen_stats(stats: dict, mode: str = "process") -> None:
    """Fold a worker process's :func:`codegen_stats` snapshot into this
    process's ``mode``-labelled cache counters.

    ``ProcServer`` workers compile kernels in their own processes, invisible
    to the parent's ``/metrics`` edge; each worker reports what its pool
    build resolved at once in the ready handshake and, before a later
    reply, what its counters gained since (kernels compiled off the request
    path land after the handshake), so every report is a delta and they sum
    correctly across respawns.
    """
    hits = int(stats.get("disk_hits", 0)) + int(stats.get("memo_hits", 0))
    misses = int(stats.get("compiled", 0))
    metrics = _metrics()
    if hits:
        metrics["cache_hit"].labels(mode=mode).inc(hits)
    if misses:
        metrics["cache_miss"].labels(mode=mode).inc(misses)


_STATS = {"compiled": 0, "disk_hits": 0, "memo_hits": 0, "fallbacks": 0}

def count_fallback(reason: str) -> None:
    """Count one resolution that ended on the numpy arm, by ``reason`` (the
    label of ``repro_codegen_fallback_total``): ``disabled``,
    ``no_compiler``, ``compile_failed``, ``load_failed`` or ``unplannable``;
    from the train step's kernels (:mod:`repro.autograd.kernels`, once per
    signature) also ``dtype``, ``geometry``, ``layout`` and ``flags``; from
    a serving session also ``layout``, once per call whose input a compiled
    product cannot read as numpy would."""
    _metrics()["fallback"].labels(reason=reason).inc()
    with _LOCK:
        _STATS["fallbacks"] += 1


# --------------------------------------------------------------------------- #
# Kernel compilation + loading
# --------------------------------------------------------------------------- #
_LOCK = threading.Lock()
#: signature -> loaded ``(callable(s), keepalive)`` | fallback reason (str) |
#: :class:`Pending` (a compile in flight on the compile thread).
_MEMO: dict = {}
_MISSING = object()

#: -O3 for auto-vectorization of the elementwise loops (per-element op
#: sequences are independent, so vectorizing them is IEEE-exact); no
#: -ffast-math, and -ffp-contract=off because GCC otherwise contracts
#: a*b+c into FMA, which changes the last bits — the numpy arm never
#: fuses, so the C arm must not either.  -fno-math-errno lets ``sqrt``
#: compile to the (correctly rounded) vector instruction instead of a
#: scalar call kept for ``errno``; no result changes.  The flags
#: participate in the cache content hash: a flag change can never serve
#: a stale binary.
_CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno")

#: Longest one compiler run may take before it is killed (``compile_failed``).
_CC_TIMEOUT = 120.0


def clear_kernel_memo() -> None:
    """Drop the in-process kernel memo (tests re-exercise the disk cache).
    Compiles still in flight stay: their waiters need the entry."""
    with _LOCK:
        for signature in [s for s, v in _MEMO.items() if not isinstance(v, Pending)]:
            del _MEMO[signature]


#: What a :class:`StageLibrary` row holds once its array was let go: bound again at
#: the next call, whatever it is (``None`` included).
_GONE = object()
_addressof, _from_buffer = ctypes.addressof, ctypes.c_char.from_buffer


class StageLibrary:
    """The loaded stages of one stage plan (:mod:`repro.codegen.cstage`) and
    a pointer table to call them over: ``fns[k](rows, n)`` runs stage ``k``
    over the table ``rows``.  The table's one rebinding rule: a row is bound
    again only when its array is not the one bound last.  Arrays of
    ``keep_below`` bytes or more are let go once bound (bound again at
    every call: pooled workspace blocks, a big batch's inputs); smaller ones
    are held, so a caller that hands the same buffers to every call binds
    them once.  Besides arrays, a row may be bound to ``None`` (a null
    pointer: what a stage skips) or to an ``int`` address (a function of
    numpy's BLAS, :func:`blas_gemm`; an array the caller keeps alive).

    The library :func:`resolve` hands out is shared: :meth:`run` calls its
    stages over the calling thread's table, which holds nothing.  A caller
    that hands its stages the same buffers call after call — a replayed
    step's arm, a serving session — takes tables of its own
    (:meth:`table`) and calls through :meth:`call`; those are one caller's,
    not thread-safe."""

    __slots__ = ("fns", "rows", "held", "keep_below")

    def __init__(self, fns=(), size: int = 8, keep_below: int = 0) -> None:
        self.fns = fns
        self.rows = (ctypes.c_void_p * max(size, 1))()
        self.held = [None] * max(size, 1)  # a fresh table's rows are null
        self.keep_below = keep_below

    def table(self, size: int = 8, keep_below: int = 0) -> "StageLibrary":
        """These stages over a table of a caller's own."""
        return StageLibrary(self.fns, size, keep_below)

    def run(self, k: int, n: int, *arrays) -> bool:
        """Stage ``k`` over ``arrays`` bound to rows 0, 1, … of the calling
        thread's table (:meth:`call`)."""
        return _ROWS.table.call(self.fns[k], n, arrays)

    def call(self, fn, n: int, arrays, first: int = 0) -> bool:
        """Bind ``arrays`` to rows ``first``, ``first + 1``, … (the table
        grows to hold them), then run the stage ``fn(rows, n)`` — or, with
        ``fn`` ``None``, nothing.  ``False``, and nothing ran, unless every
        array is a non-empty, writable, C-contiguous array aligned to its
        item size.  The address comes through the buffer protocol: 0.3 us an
        operand where ``array.ctypes.data`` takes 1.3, and a train step
        binds a hundred of them."""
        held, rows = self.held, self.rows
        i = first
        try:
            for array in arrays:
                if held[i] is not array:
                    if array is None or array.__class__ is int:
                        rows[i] = held[i] = array
                    else:
                        address = _addressof(_from_buffer(array))
                        if address & (array.itemsize - 1):
                            held[i] = _GONE
                            return False
                        rows[i] = address
                        held[i] = array if array.nbytes < self.keep_below else _GONE
                i += 1
        except (TypeError, ValueError):  # read-only / strided or empty
            held[i] = _GONE
            return False
        except IndexError:  # more arrays than rows: grow, then bind again
            grown = (ctypes.c_void_p * (first + len(arrays)))()
            grown[:len(held)] = rows
            self.rows = grown
            held.extend([None] * (len(grown) - len(held)))
            return self.call(fn, n, arrays, first)
        if fn is not None:
            fn(rows, n)
        return True


class _Rows(threading.local):
    """One table per thread, holding nothing, for :meth:`StageLibrary.run`."""

    def __init__(self) -> None:
        self.table = StageLibrary()


_ROWS = _Rows()


def _load_stages(so_path: Path, name: str, signature: tuple):
    """One cache entry as ``(StageLibrary, keepalive)``: a :mod:`ctypes`
    function per stage of the plan.  Raises OSError/AttributeError on a
    corrupted entry.  Every argument is a table row, bound by the caller,
    so the call itself converts nothing; numpy has ctypes loaded already,
    so loading costs no import and no parser set-up."""
    lib = ctypes.CDLL(str(so_path))
    fns = []
    for k in range(len(signature[1])):
        fn = getattr(lib, f"{name}_{k}")
        fn.argtypes = [ctypes.c_void_p, ctypes.c_longlong]
        fn.restype = None
        fns.append(fn)
    return StageLibrary(fns), (lib,)


#: The CBLAS routines numpy's ``matmul`` calls (:func:`repro.codegen.cstage.matmul_call`),
#: by routine and dtype: numpy's bundled ILP64 OpenBLAS exports them under these names.
_BLAS_SYMBOLS = {
    ("gemm", "float32"): "scipy_cblas_sgemm64_", ("gemm", "float64"): "scipy_cblas_dgemm64_",
    ("gemv", "float32"): "scipy_cblas_sgemv64_", ("gemv", "float64"): "scipy_cblas_dgemv64_",
}
#: Addresses found, by dtype: the GEMMs', and the GEMVs'.
_GEMMS: dict = {}
_GEMVS: dict = {}


def blas_gemm(dtype: str, routine: str = "gemm") -> Optional[int]:
    """The address of the GEMM (``routine`` ``"gemv"``: the GEMV) numpy's
    ``matmul`` calls for the dtype named ``dtype``, or ``None`` where numpy's
    BLAS exports no such symbol.  Looked up once, on numpy's own extension
    module — ``dlsym`` searches the libraries it links, so this is the BLAS
    numpy loaded, and no stage library links one: a stage calls it through
    a table row holding this address (the ``gemm`` and ``gemv`` pieces of
    :mod:`repro.codegen.cstage`)."""
    found = _GEMMS if routine == "gemm" else _GEMVS
    address = found.get(dtype, _MISSING)
    if address is _MISSING:
        try:
            try:
                from numpy._core import _multiarray_umath as umath
            except ImportError:  # numpy < 2
                from numpy.core import _multiarray_umath as umath
            symbol = getattr(ctypes.CDLL(umath.__file__), _BLAS_SYMBOLS[routine, dtype])
            address = ctypes.cast(symbol, ctypes.c_void_p).value
        except (ImportError, OSError, AttributeError, KeyError):
            address = None
        found[dtype] = address
    return address


@contextlib.contextmanager
def _entry_lock(cache_dir: Path, stem: str):
    """Advisory per-entry lock for cross-process compile serialization.

    Lock-or-lose-gracefully: when :mod:`fcntl` is unavailable or the
    filesystem refuses the lock, yield without it — the atomic
    ``os.replace`` publish keeps the unlocked race benign (last writer
    wins with identical bytes), it just wastes a duplicate compile.
    The ``.lock`` file is left in place; unlinking it would race with a
    process that just opened it.
    """
    handle = None
    locked = False
    try:
        import fcntl

        handle = open(cache_dir / f"{stem}.lock", "a+b")
        with _fork_window():
            fcntl.flock(handle, fcntl.LOCK_EX)
        locked = True
    except (ImportError, OSError):
        pass
    try:
        yield locked
    finally:
        if handle is not None:
            if locked:
                with contextlib.suppress(OSError):
                    import fcntl

                    fcntl.flock(handle, fcntl.LOCK_UN)
            handle.close()


def _try_disk_hit(so_path: Path, name: str, signature: tuple) -> Optional[tuple]:
    """Load an existing cache entry; unlink (don't crash) on corruption."""
    if not so_path.exists():
        return None
    try:
        loaded = _load_stages(so_path, name, signature)
    except (OSError, AttributeError):
        # Corrupted entry (truncated write, bad disk, wrong arch):
        # drop it and let the caller recompile.
        with contextlib.suppress(OSError):
            so_path.unlink()
        return None
    _metrics()["cache_hits"].inc()
    _metrics()["cache_hit"].labels(mode="local").inc()
    with _LOCK:
        _STATS["disk_hits"] += 1
    return loaded


#: ``[Popen or None, temp dir]`` of every compile in flight (one, but for a
#: synchronous compile racing the compile thread), entered when the
#: directory is made — before there is a compiler.
_IN_FLIGHT: list = []
#: Held while a compiler is being started, so :func:`abandon_compiles`
#: never looks between the ``exec`` and the entry that records it.
_SPAWNING = threading.Lock()


def abandon_compiles() -> None:
    """Kill every compiler run in flight and remove its temp directory.

    Runs at interpreter exit; a process that leaves through ``os._exit``
    (every fork-start worker) calls it on its way out, so no ``cc`` outlives
    either and the cache keeps no litter.  A process that is *killed* runs
    neither.  Its compiler sits in its process group — whoever kills the
    group gets it, otherwise it ends with its own run — and the directory
    is what :func:`_sweep_abandoned` is for.

    (Having the kernel kill the compiler with its parent —
    ``PR_SET_PDEATHSIG`` from a ``preexec_fn`` — was tried and withdrawn:
    a ``preexec_fn`` turns ``Popen``'s ``vfork`` into a ``fork``, which runs
    OpenBLAS's at-fork handler on the compile thread; it stops the BLAS
    worker threads, and a GEMM in flight on another thread then waits for
    them for ever.)
    """
    with _SPAWNING:
        in_flight = list(_IN_FLIGHT)
    for proc, tmp_dir in in_flight:
        if proc is not None:
            with contextlib.suppress(OSError):
                proc.kill()
        shutil.rmtree(tmp_dir, ignore_errors=True)


atexit.register(abandon_compiles)


def _sweep_abandoned(cache_dir: Path) -> None:
    """Remove the temp directories of compiles whose process was killed.  No
    compile outlives ``_CC_TIMEOUT``, so a directory untouched for twice
    that long has no owner, in this process or another."""
    cutoff = time.time() - 2.0 * _CC_TIMEOUT
    for path in cache_dir.glob("tmp*"):
        with contextlib.suppress(OSError):
            if path.is_dir() and path.stat().st_mtime < cutoff:
                shutil.rmtree(path, ignore_errors=True)


def _run_compiler(command, entry: list) -> bool:
    """One compiler run to completion, entered in ``entry`` (of
    :data:`_IN_FLIGHT`) while it lasts; ``False`` on a non-zero exit, a
    timeout (the compiler is killed) or a compiler that cannot be started."""
    try:
        # stderr through a pipe: communicate() then sleeps on the pipe's EOF,
        # where wait(timeout) would poll (up to 50 ms late on a 30 ms compile).
        with _SPAWNING:
            proc = entry[0] = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
            )
    except OSError:
        return False
    try:
        with _fork_window():
            proc.communicate(timeout=_CC_TIMEOUT)
        return proc.returncode == 0
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return False
    finally:
        entry[0] = None


def _compile_to_cache(signatures, build: bool = True) -> list:
    """Load the cache entry of every signature, first compiling the absent
    ones — together, as one translation unit in one compiler run, published
    under each entry's own name.

    Returns, per signature, the loaded kernel or the reason (see
    :func:`count_fallback`) the native arm is unavailable.  With
    ``build=False`` only the disk is consulted: ``None`` where there is no
    loadable entry.  Caller holds no locks; the memo is updated by the caller.
    """
    cc, cc_version = _compiler()
    if cc is None:
        return ["no_compiler"] * len(signatures)
    cache_dir = kernel_cache_dir()
    entries = []  # (name, source, cache path without suffix)
    for signature in signatures:
        name, source = render_stages(signature)
        content = hashlib.sha256(
            (source + "\x00" + cc_version + "\x00" + " ".join(_CFLAGS)).encode()
        ).hexdigest()[:20]
        entries.append((name, source, cache_dir / f"{name}-{content}"))

    loaded: list = [None] * len(signatures)

    def hits(wanted) -> None:
        for i in wanted:
            name, _, stem = entries[i]
            loaded[i] = _try_disk_hit(stem.with_suffix(".so"), name, signatures[i])

    hits(range(len(signatures)))
    absent = [i for i, kernel in enumerate(loaded) if kernel is None]
    if not absent or not build:
        return loaded

    def failed(reason: str) -> list:
        return [reason if kernel is None else kernel for kernel in loaded]

    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
    except OSError:
        return failed("compile_failed")

    with _entry_lock(cache_dir, entries[absent[0]][2].name):
        # Double-check under the lock: the process that held it before us
        # may have just published these entries.
        hits(absent)
        absent = [i for i in absent if loaded[i] is None]
        if not absent:
            return loaded

        start = time.perf_counter()
        _sweep_abandoned(cache_dir)
        try:
            tmp_dir = tempfile.mkdtemp(dir=str(cache_dir))
        except OSError:
            return failed("compile_failed")
        entry = [None, tmp_dir]
        _IN_FLIGHT.append(entry)
        try:
            c_path = Path(tmp_dir) / "unit.c"
            tmp_so = Path(tmp_dir) / "unit.so"
            # Every kernel's symbols carry its signature's hash, so the
            # sources of several concatenate into one valid unit.
            c_path.write_text("\n".join(entries[i][1] for i in absent))
            if not _run_compiler([cc, *_CFLAGS, "-o", str(tmp_so), str(c_path)], entry):
                return failed("compile_failed")
            for i in absent:
                _, source, stem = entries[i]
                # Keep the source next to the binary for debuggability; both
                # are content-addressed, so concurrent racers write identical
                # bytes.  One binary serves every entry: a hard link each.
                with contextlib.suppress(OSError):
                    stem.with_suffix(".c").write_text(source)
                link = f"{tmp_so}.{i}"
                try:
                    os.link(tmp_so, link)
                except OSError:
                    shutil.copyfile(tmp_so, link)
                os.replace(link, str(stem.with_suffix(".so")))
        except OSError:
            return failed("compile_failed")
        finally:
            _IN_FLIGHT.remove(entry)
            shutil.rmtree(tmp_dir, ignore_errors=True)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    for i in absent:
        name, _, stem = entries[i]
        try:
            loaded[i] = _load_stages(stem.with_suffix(".so"), name, signatures[i])
        except (OSError, AttributeError):
            with contextlib.suppress(OSError):
                stem.with_suffix(".so").unlink()  # what the compiler left is no cache entry
            loaded[i] = "load_failed"
    if all(isinstance(loaded[i], str) for i in absent):
        return loaded
    _metrics()["compiled"].inc()
    _metrics()["compile_ms"].observe(elapsed_ms)
    _metrics()["cache_miss"].labels(mode="local").inc()
    with _LOCK:
        _STATS["compiled"] += 1
    return loaded


# --------------------------------------------------------------------------- #
# Compiling off the caller's thread
# --------------------------------------------------------------------------- #
class Pending:
    """A compile in flight on the compile thread.  Once ``event`` is set the
    memo holds the outcome: ask :func:`resolve` for the signature again."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


_QUEUE: "queue.SimpleQueue" = queue.SimpleQueue()
_THREAD: Optional[threading.Thread] = None

#: Held by the compile thread while it runs Python: imports, ``dlopen`` and
#: the metrics registry all take process-wide locks, and a ``fork`` that
#: lands while another thread holds one hands the child a lock nobody will
#: ever release (a forked ``ProcServer`` worker then hangs on it).  ``fork``
#: takes the gate first, so it waits for the thread to be idle or inside a
#: :func:`_fork_window`.
_GATE = threading.Lock()


@contextlib.contextmanager
def _fork_window():
    """Around the compile thread's long waits (the compiler, another
    process's entry lock), where it holds no interpreter-wide lock."""
    gated = threading.current_thread() is _THREAD
    if gated:
        _GATE.release()
    try:
        yield
    finally:
        if gated:
            _GATE.acquire()


def _compile_loop() -> None:
    """The compile thread, for the process's life.  Everything queued while
    it was busy is built at the next wake-up in one compiler run (a cold
    train step queues a dozen small plans)."""
    while True:
        batch = [_QUEUE.get()]
        with contextlib.suppress(queue.Empty):
            while True:
                batch.append(_QUEUE.get_nowait())
        signatures = [signature for signature, _ in batch]
        with _GATE:
            try:
                resolved = _compile_to_cache(signatures)
            except Exception:  # a renderer bug must not strand the waiters
                import logging

                logging.getLogger(__name__).exception("compiling %r failed", signatures[0][:2])
                resolved = ["compile_failed"] * len(batch)
            for (signature, pending), kernel in zip(batch, resolved):
                if isinstance(kernel, str):
                    # Nobody is waiting on this thread's result: count the
                    # failure here or it vanishes with the compile.
                    count_fallback(kernel)
                with _LOCK:
                    _MEMO[signature] = kernel
                pending.event.set()


def wait_for_compiles(timeout: Optional[float] = None) -> bool:
    """Wait until the compile thread has built everything queued so far —
    tests, CI gates and warm-up code that want the compiled arm before they
    measure.  ``False`` if ``timeout`` seconds did not suffice."""
    deadline = None if timeout is None else time.monotonic() + timeout
    with _LOCK:
        waiting = [value for value in _MEMO.values() if isinstance(value, Pending)]
    for pending in waiting:
        left = None if deadline is None else max(0.0, deadline - time.monotonic())
        if not pending.event.wait(left):
            return False
    return True


def _has_disk_candidate(signature) -> bool:
    """Whether the cache holds *an* entry of this signature's name — the
    only case in which rendering on the caller's thread (to learn the
    content hash) can save a compile."""
    try:
        return any(kernel_cache_dir().glob(kernel_name(signature) + "-*.so"))
    except OSError:
        return False


def resolve(signature, wait: bool = True) -> Union[tuple, str, Pending]:
    """The loaded kernel for ``signature`` or the reason there is none.

    ``wait=True`` compiles on the calling thread.  ``wait=False`` never
    runs the compiler on it: a memo or disk hit resolves at once, anything
    else is queued on the compile thread (deduplicated by signature) and a
    :class:`Pending` comes back.
    """
    global _THREAD
    with _LOCK:
        resolved = _MEMO.get(signature, _MISSING)
        if resolved is not _MISSING:
            _STATS["memo_hits"] += 1
    if isinstance(resolved, Pending):
        if not wait:
            return resolved
        resolved.event.wait()
        return resolve(signature, wait)
    if resolved is not _MISSING:
        if not isinstance(resolved, str):
            # Memoized fallbacks are not cache hits — nothing was served;
            # the caller re-counts them as fallbacks.
            _metrics()["cache_hit"].labels(mode="local").inc()
        return resolved
    if wait:
        resolved = _compile_to_cache([signature])[0]
    else:
        resolved = (
            _compile_to_cache([signature], False)[0] if _has_disk_candidate(signature) else None
        )
        if resolved is None:
            resolved = Pending()
    with _LOCK:
        # A racing thread may have resolved it first; keep the winner so
        # both closures share one loaded library.
        existing = _MEMO.setdefault(signature, resolved)
        if existing is resolved and isinstance(resolved, Pending):  # ours to compile
            _QUEUE.put((signature, resolved))
            if _THREAD is None or not _THREAD.is_alive():
                _THREAD = threading.Thread(
                    target=_compile_loop, name="repro-codegen-compile", daemon=True
                )
                _THREAD.start()
    if isinstance(existing, Pending) and not isinstance(resolved, Pending):
        return resolved  # ours is ready; the compile in flight lands later
    return existing


def _before_fork() -> None:
    if threading.current_thread() is not _THREAD:  # its own Popen is no fork of ours
        _GATE.acquire()


def _after_fork_in_parent() -> None:
    if threading.current_thread() is not _THREAD:
        _GATE.release()


def _after_fork_in_child() -> None:
    """A forked worker inherits neither the compile thread nor its ``cc``
    child, and the memo lock may have been held at the fork: start clean,
    and wake whoever waits on an inherited compile so they ask again."""
    global _LOCK, _GATE, _SPAWNING, _QUEUE, _THREAD
    _LOCK = threading.Lock()
    _GATE = threading.Lock()
    _SPAWNING = threading.Lock()
    _QUEUE = queue.SimpleQueue()
    _THREAD = None
    del _IN_FLIGHT[:]
    for key in _STATS:  # the parent's counts are not this process's
        _STATS[key] = 0
    for signature, value in list(_MEMO.items()):
        if isinstance(value, Pending):
            del _MEMO[signature]
            value.event = threading.Event()  # the inherited one's lock may be held
            value.event.set()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_before_fork,
        after_in_parent=_after_fork_in_parent,
        after_in_child=_after_fork_in_child,
    )


# --------------------------------------------------------------------------- #
# The public fusion point
# --------------------------------------------------------------------------- #
def _region_kernel(region: RegionIR, plan: tuple, lib: StageLibrary) -> Callable:
    """``kernel(arrays, out=None)`` over a region's loaded stage plan: the
    bound inputs, ``out`` and each buffer of the plan take a table row,
    then every stage runs.  A call whose arrays cannot be bound (read-only,
    empty, misaligned) is the interpreter's."""
    _, extents, work = plan
    bind, interpret, run = region.bind, region.interpret, lib.run
    out_shape, dtype = region.out_shape, region.out_dtype
    stages = tuple(enumerate(extents))
    ascontiguous, empty = np.ascontiguousarray, np.empty

    def kernel(arrays, out=None):
        if out is None:
            out = empty(out_shape, dtype)
        elif out.shape != out_shape or out.dtype != dtype:  # the stages write it blind
            raise ValueError(f"out must be {dtype} {out_shape}, got {out.dtype} {out.shape}")
        rows = [ascontiguous(a) for a in bind(arrays)]
        rows.append(out)
        rows.extend(empty(size, dtype) for size in work)
        for k, n in stages:
            if not run(k, n, *rows):
                return interpret(arrays, out=out)
        return out

    kernel.is_compiled = True
    return kernel


def compile_region(region: RegionIR) -> Callable:
    """Compile one region into ``kernel(arrays, out=None) -> ndarray``.

    The returned callable takes the region's input arrays and an optional
    pre-allocated ``out`` buffer.  It runs
    the region's stage plan (:meth:`RegionIR.lower`) natively when codegen
    is enabled and a compiler is available, and the numpy-interpreter arm
    otherwise — the two arms are bit-equal, so which one you got is
    observable only through ``kernel.is_compiled``, the codegen counters
    and :func:`codegen_stats`.  Only leading extents are runtime values:
    the same structure at another batch size is a memo hit.
    """
    reason = "disabled"
    if codegen_enabled():
        plan = region.lower()
        reason = "unplannable" if plan is None else resolve(plan[0])
        if not isinstance(reason, str):
            return _region_kernel(region, plan, reason[0])

    count_fallback(reason)
    interpret = region.interpret

    def kernel(arrays, out=None):
        return interpret(arrays, out=out)

    kernel.is_compiled = False
    kernel.reason = reason
    return kernel
