"""Op-level profiler: per-op time/call tables for compiled serving steps and
the autograd backward loop.

The engine's per-op costs — the graph-IR node overhead, whether a fusion
pattern actually pays, which compiled step dominates a served batch — are
invisible to end-to-end timing.  This module gives them a first-class
measurement hook with a strict contract: **profiling never changes
results** (the hooks only time existing calls, bit-for-bit identical
outputs) and costs nothing when off (one ``is None`` check per
``backward()`` / ``session.run()``, not per op).

Two ways to turn it on:

- ``REPRO_PROFILE=1`` in the environment installs a process-wide
  :class:`Profiler` at import and prints its table to stderr at interpreter
  exit — zero code changes to profile a script;
- :func:`using_profiler` scopes a profiler to a block::

      from repro.obs import profile
      with profile.using_profiler() as prof:
          session.run(images, context)
          loss.backward()
      print(prof.table())

Instrumented paths (each records ``<path>:<op>`` so the same op is
distinguishable per context):

- ``serve:<op>`` — every step replayed by
  :meth:`repro.serve.session.InferenceSession.run`: a numpy step, or a
  compiled group, ``serve:<op>+<op>…`` (one native call runs a run of
  groups and timestamps each in C, so each still has its row);
- ``backward:<op>`` — every backward thunk run by
  :meth:`repro.autograd.tensor.Tensor.backward`, and
  ``backward:<op>.<stage>[c]`` (``backward:conv2d.scatter[c]``) for each
  compiled kernel stage a thunk ran (:mod:`repro.autograd.kernels`): its
  time is taken off the thunk's own row, so the rows still sum to the step
  and say which arm ran.

Each instrumented pass (``serve``, ``backward``) and any block wrapped in
:meth:`Profiler.step` is also a *step* row carrying what no per-op timer
sees: the minor page faults and the system time the process spent inside it
(``resource.getrusage`` deltas, zeros without a ``resource`` module).  A step
that allocates its working set afresh shows thousands of faults; one served
by the kernel workspace (:mod:`repro.backend.workspace`) shows none.

The active profiler is process-global (like the codegen toggle): spans from
worker threads all land in one table, aggregation is lock-protected.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

__all__ = [
    "Profiler",
    "active_profiler",
    "disable_profiler",
    "enable_profiler",
    "using_profiler",
]


def _usage() -> Tuple[int, float]:
    """The process's minor faults and system seconds so far."""
    if resource is None:  # pragma: no cover
        return 0, 0.0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_minflt, usage.ru_stime


class Profiler:
    """Aggregates per-op call counts and total wall time (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # op -> [calls, total_seconds]
        self._records: Dict[str, List[float]] = {}
        # step -> [calls, total_seconds, minor_faults, system_seconds]
        self._steps: Dict[str, List[float]] = {}
        # Per thread: ``step``, the step it is inside, and ``inner``, the
        # seconds :meth:`record_inner` rows took since :meth:`take_inner`.
        self._local = threading.local()

    def record(self, op: str, seconds: float) -> None:
        """Add one timed call of ``op`` (called from the instrumented loops)."""
        with self._lock:
            entry = self._records.get(op)
            if entry is None:
                self._records[op] = [1, seconds]
            else:
                entry[0] += 1
                entry[1] += seconds

    def record_inner(self, op: str, seconds: float) -> None:
        """One timed call *inside* an op of the running step — a compiled
        kernel stage, ``conv2d.scatter[c]`` — as its own ``<step>:<op>`` row.
        The loop that times the op around it takes the seconds off that op's
        row (:meth:`take_inner`), so the rows still sum to the step.  Outside
        a step nothing is recorded (eager forward ops have no rows)."""
        local = self._local
        step = getattr(local, "step", None)
        if step is not None:
            local.inner += seconds
            self.record(f"{step}:{op}", seconds)

    def take_inner(self) -> float:
        """Seconds of :meth:`record_inner` rows on this thread since the last call."""
        seconds, self._local.inner = self._local.inner, 0.0
        return seconds

    @contextmanager
    def timed(self, op: str) -> Iterator[None]:
        """Context manager timing one block as one call of ``op``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(op, time.perf_counter() - start)

    @contextmanager
    def step(self, name: str) -> Iterator[None]:
        """Context manager recording one block as one step of ``name``: wall
        time plus the process's minor-fault and system-time deltas."""
        local = self._local
        outer, local.step, local.inner = getattr(local, "step", None), name, 0.0
        faults, system = _usage()
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            local.step = outer
            after = _usage()
            with self._lock:
                entry = self._steps.setdefault(name, [0, 0.0, 0, 0.0])
                for i, amount in enumerate((1, seconds, after[0] - faults, after[1] - system)):
                    entry[i] += amount

    def step_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-step summary: ``{step: {calls, mean_ms, minor_faults_per_call,
        system_ms_per_call}}`` (see :meth:`step`)."""
        with self._lock:
            snapshot = {name: tuple(entry) for name, entry in self._steps.items()}
        return {
            name: {
                "calls": float(calls),
                "mean_ms": seconds / calls * 1e3,
                "minor_faults_per_call": faults / calls,
                "system_ms_per_call": system / calls * 1e3,
            }
            for name, (calls, seconds, faults, system) in snapshot.items()
        }

    def reset(self) -> None:
        with self._lock:
            self._records.clear()
            self._steps.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-op summary: ``{op: {calls, total_ms, mean_us, share}}``.

        ``share`` is the op's fraction of the total recorded time (so a
        table sorted by it reads as a flame-graph summary).
        """
        with self._lock:
            snapshot = {op: (entry[0], entry[1]) for op, entry in self._records.items()}
        grand_total = sum(total for _, total in snapshot.values()) or 1.0
        return {
            op: {
                "calls": float(calls),
                "total_ms": total * 1e3,
                "mean_us": (total / calls) * 1e6 if calls else 0.0,
                "share": total / grand_total,
            }
            for op, (calls, total) in snapshot.items()
        }

    def table(self, sort_by: str = "total_ms", limit: Optional[int] = None) -> str:
        """A fixed-width per-op table, heaviest first, then one line per
        profiled step (:meth:`step_stats`).

        ``sort_by`` is any :meth:`stats` column (``total_ms`` default,
        ``calls``, ``mean_us``, ``share``); ``limit`` truncates the op rows.
        """
        stats = self.stats()
        if not stats:
            return "(no ops recorded)"
        if sort_by not in ("calls", "total_ms", "mean_us", "share"):
            raise ValueError(f"unknown sort column {sort_by!r}")
        rows: List[Tuple[str, Dict[str, float]]] = sorted(
            stats.items(), key=lambda item: item[1][sort_by], reverse=True
        )
        if limit is not None:
            rows = rows[:limit]
        width = max(len("op"), max(len(op) for op, _ in rows))
        lines = [
            f"{'op':<{width}}  {'calls':>8}  {'total_ms':>10}  {'mean_us':>10}  {'share':>6}",
            "-" * (width + 42),
        ]
        for op, row in rows:
            lines.append(
                f"{op:<{width}}  {int(row['calls']):>8}  {row['total_ms']:>10.3f}  "
                f"{row['mean_us']:>10.1f}  {row['share']:>5.1%}"
            )
        for name, row in sorted(self.step_stats().items()):
            lines.append(
                f"step {name}: {int(row['calls'])} calls, {row['mean_ms']:.3f} ms, "
                f"{row['minor_faults_per_call']:.1f} minor faults and "
                f"{row['system_ms_per_call']:.3f} ms system time per call"
            )
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# The process-global active profiler (None = profiling off, the hot default).
# --------------------------------------------------------------------------- #
_ACTIVE: Optional[Profiler] = None
_LOCK = threading.Lock()


def active_profiler() -> Optional[Profiler]:
    """The currently active :class:`Profiler`, or ``None`` when off.

    The instrumented loops call this once per ``run()``/``backward()`` and
    take the untimed fast path on ``None`` — keep it trivial.
    """
    return _ACTIVE


def enable_profiler(profiler: Optional[Profiler] = None) -> Profiler:
    """Install ``profiler`` (or a fresh one) as the process-wide profiler."""
    global _ACTIVE
    with _LOCK:
        _ACTIVE = profiler if profiler is not None else Profiler()
        return _ACTIVE


def disable_profiler() -> None:
    """Deactivate profiling (the instrumented loops revert to fast paths)."""
    global _ACTIVE
    with _LOCK:
        _ACTIVE = None


@contextmanager
def using_profiler(profiler: Optional[Profiler] = None) -> Iterator[Profiler]:
    """Scope a profiler to a block; restores the previous one on exit."""
    global _ACTIVE
    with _LOCK:
        previous = _ACTIVE
        prof = profiler if profiler is not None else Profiler()
        _ACTIVE = prof
    try:
        yield prof
    finally:
        with _LOCK:
            _ACTIVE = previous


def _env_enabled() -> bool:
    return os.environ.get("REPRO_PROFILE", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


if _env_enabled():  # pragma: no cover - exercised via subprocess in tests
    enable_profiler()

    def _report_at_exit() -> None:
        import sys

        prof = active_profiler()
        if prof is not None and len(prof):
            print("\n[REPRO_PROFILE] per-op profile:", file=sys.stderr)
            print(prof.table(), file=sys.stderr)

    import atexit

    atexit.register(_report_at_exit)
