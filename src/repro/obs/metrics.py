"""Metrics core: thread-safe Counter/Gauge/Histogram in a Registry with
Prometheus text exposition.

The serving stack (and anything else in the process) instruments itself by
creating metrics in a :class:`Registry` and bumping them on the hot path:

- :class:`Counter` — a monotonically increasing total (``inc()``);
- :class:`Gauge` — a point-in-time value (``set()`` / ``inc()`` / ``dec()``),
  or a *callback gauge* (``set_function``) whose value is computed at scrape
  time — the right shape for queue depths and liveness counts, which would
  otherwise need a write on every queue operation;
- :class:`Histogram` — fixed-bucket distribution (``observe()``), with
  log-spaced latency buckets by default (:data:`DEFAULT_LATENCY_BUCKETS_MS`,
  a 1-2-5 series from 0.1 ms to 10 s) plus the implicit ``+Inf`` bucket,
  running sum and count, and a bucket-interpolated :meth:`Histogram.quantile`
  estimate.

Metrics are **labeled**: ``registry.counter(name, help, labelnames=(...))``
returns a :class:`MetricFamily`; ``family.labels(k=v, ...)`` returns the
child for one label combination (created on first use, cached after — hold
the child and call ``inc()`` on it, the hot path is one lock + one float
add).  A family declared without label names returns its single child
directly, so the common unlabeled case reads ``registry.counter(...).inc()``.

:func:`Registry.render` produces the Prometheus text exposition format
(``# HELP`` / ``# TYPE`` headers, ``name{label="value"} value`` samples,
``_bucket``/``_sum``/``_count`` histogram series with cumulative ``le``
buckets), deterministically ordered so it can be golden-tested and served
from the ``/metrics`` HTTP route (:mod:`repro.obs.http`).

A process-wide default registry is available via :func:`get_registry`;
subsystems that want isolation (each :class:`repro.serve.Server` by default)
create their own.  :data:`NULL_REGISTRY` is a no-op implementation of the
same surface: every metric it hands out swallows writes and reads 0 —
pass it where instrumentation must cost nothing (overhead benchmarks).

Everything here is plain threading + floats: no numpy on the hot path, no
external dependencies.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "NULL_REGISTRY",
    "NullRegistry",
    "Registry",
    "get_registry",
]

#: Log-spaced (1-2-5 series) latency buckets in milliseconds, 0.1 ms – 10 s.
#: Shared by every latency histogram in the stack so dashboards line up.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
    100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_value(value: float) -> str:
    """Prometheus sample value: integral floats render without the ``.0``."""
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labelnames: Sequence[str], labelvalues: Sequence[str],
                   extra: Tuple[str, str] = ()) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    if extra:
        pairs.append(f'{extra[0]}="{_escape_label_value(extra[1])}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Value:
    """A float behind a lock — or, with :meth:`set_function`, a callback
    evaluated at scrape time: a queue depth, a live worker count, a total
    some subsystem already keeps in plain integers on its hot path."""

    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read ``fn()`` at scrape time instead of a stored value.  The
        callback must be cheap and thread-safe (and, for a counter,
        non-decreasing)."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        return float(fn())

    def _samples(self, name, labelnames, labelvalues):
        yield name, _render_labels(labelnames, labelvalues), self.value


class Counter(_Value):
    """A monotonically increasing total.  Thread-safe; negative increments
    raise (a counter that can go down is a :class:`Gauge`)."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount}) is negative")
        # Hot path: explicit acquire/release is measurably cheaper than the
        # `with` statement's context-manager machinery.
        lock = self._lock
        lock.acquire()
        try:
            self._value += amount
        finally:
            lock.release()


class Gauge(_Value):
    """A value that goes up and down — or, with :meth:`set_function`, a
    callback evaluated at scrape time (queue depth, live worker count)."""

    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount


class Histogram:
    """Fixed-bucket distribution with cumulative Prometheus exposition.

    ``observe(v)`` is one lock, one bisect and two float adds; bucket edges
    are fixed at construction (default :data:`DEFAULT_LATENCY_BUCKETS_MS`).
    The implicit ``+Inf`` bucket catches everything above the last edge.
    """

    __slots__ = ("_lock", "_uppers", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS) -> None:
        uppers = tuple(sorted(float(b) for b in buckets))
        if not uppers:
            raise ValueError("a histogram needs at least one bucket edge")
        if len(set(uppers)) != len(uppers):
            raise ValueError(f"duplicate bucket edges: {uppers}")
        self._lock = threading.Lock()
        self._uppers = uppers
        # One slot per finite edge plus the +Inf overflow slot.
        self._counts = [0] * (len(uppers) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self._uppers, value)
        lock = self._lock
        lock.acquire()
        try:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
        finally:
            lock.release()

    def observe_many(self, values) -> None:
        """Record a batch of observations under one lock acquisition.

        The serving front end uses this for the per-request latency fan-out
        of a coalesced batch, where per-value :meth:`observe` calls would
        pay the lock once per request on the hot path.  Singleton batches
        (a request served alone) delegate to :meth:`observe`, which is
        cheaper than the batch plumbing for one value.
        """
        if len(values) == 1:
            self.observe(values[0])
            return
        bisect_left = bisect.bisect_left
        uppers = self._uppers
        idxs = [bisect_left(uppers, v) for v in values]
        total = sum(values)
        lock = self._lock
        lock.acquire()
        try:
            counts = self._counts
            for idx in idxs:
                counts[idx] += 1
            self._sum += total
            self._count += len(idxs)
        finally:
            lock.release()

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def buckets(self) -> Dict[float, int]:
        """Cumulative counts keyed by upper edge (``inf`` for the overflow)."""
        with self._lock:
            counts = list(self._counts)
        out: Dict[float, int] = {}
        running = 0
        for upper, n in zip(self._uppers + (float("inf"),), counts):
            running += n
            out[upper] = running
        return out

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (``0 <= q <= 1``).

        Linear interpolation inside the bucket that crosses the target rank;
        observations in the ``+Inf`` bucket resolve to the last finite edge
        (the estimate saturates, it does not invent a tail).  Returns 0.0
        for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        target = q * total
        running = 0.0
        lower = 0.0
        for upper, n in zip(self._uppers, counts):
            if running + n >= target and n > 0:
                frac = (target - running) / n
                return lower + (upper - lower) * min(1.0, max(0.0, frac))
            running += n
            lower = upper
        return self._uppers[-1]

    def _samples(self, name, labelnames, labelvalues):
        with self._lock:
            counts = list(self._counts)
            total_sum, total_count = self._sum, self._count
        running = 0
        for upper, n in zip(self._uppers, counts):
            running += n
            labels = _render_labels(labelnames, labelvalues,
                                    extra=("le", _format_value(upper)))
            yield f"{name}_bucket", labels, running
        labels = _render_labels(labelnames, labelvalues, extra=("le", "+Inf"))
        yield f"{name}_bucket", labels, total_count
        yield f"{name}_sum", _render_labels(labelnames, labelvalues), total_sum
        yield f"{name}_count", _render_labels(labelnames, labelvalues), total_count


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All children of one metric name: the unit of registration/exposition.

    Created through :meth:`Registry.counter` / :meth:`Registry.gauge` /
    :meth:`Registry.histogram`, never directly.  :meth:`labels` returns the
    child for one combination of label values (cached); hold the child on
    hot paths — the lookup takes the family lock.
    """

    __slots__ = ("name", "help", "type", "labelnames", "_kwargs",
                 "_lock", "_children")

    def __init__(self, name: str, help_text: str, type_: str,
                 labelnames: Tuple[str, ...], **kwargs) -> None:
        self.name = name
        self.help = help_text
        self.type = type_
        self.labelnames = labelnames
        self._kwargs = kwargs
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **labelvalues) -> object:
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = _CHILD_TYPES[self.type](**self._kwargs)
                self._children[key] = child
        return child

    def collect(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Snapshot of ``(labelvalues, child)`` pairs, label-sorted."""
        with self._lock:
            return sorted(self._children.items())

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.type}",
        ]
        for labelvalues, child in self.collect():
            for sample_name, labels, value in child._samples(
                self.name, self.labelnames, labelvalues
            ):
                lines.append(f"{sample_name}{labels} {_format_value(value)}")
        return "\n".join(lines)


class Registry:
    """A namespace of metric families with text exposition.

    ``counter``/``gauge``/``histogram`` are **get-or-create**: asking twice
    for the same name returns the same family (so every worker replica and
    pool can register its series idempotently), while re-declaring a name
    with a different type or label set raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def _get_or_create(self, name: str, help_text: str, type_: str,
                       labelnames: Sequence[str], **kwargs):
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r} on {name}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, help_text, type_, labelnames, **kwargs)
                self._families[name] = family
            elif family.type != type_ or family.labelnames != labelnames:
                raise ValueError(
                    f"metric {name!r} already registered as {family.type} "
                    f"with labels {family.labelnames}; cannot re-register as "
                    f"{type_} with labels {labelnames}"
                )
        # The unlabeled common case skips the .labels() hop entirely.
        return family if labelnames else family.labels()

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()):
        """A :class:`Counter` (no labels) or its family (with labels)."""
        return self._get_or_create(name, help_text, "counter", labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()):
        """A :class:`Gauge` (no labels) or its family (with labels)."""
        return self._get_or_create(name, help_text, "gauge", labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS):
        """A :class:`Histogram` (no labels) or its family (with labels)."""
        return self._get_or_create(
            name, help_text, "histogram", labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name``, or ``None``."""
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        """Name-sorted snapshot of every registered family."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format.

        Families appear name-sorted, children label-sorted, so the output is
        deterministic for a given set of values (golden-testable) and every
        scrape is a consistent per-metric snapshot.
        """
        blocks = [family.render() for family in self.families()]
        return "\n".join(blocks) + ("\n" if blocks else "")


# --------------------------------------------------------------------------- #
# The null implementation: same surface, zero cost, reads 0.
# --------------------------------------------------------------------------- #
class _NullMetric:
    """Acts as counter, gauge, histogram, and family all at once: every
    write is a no-op, every read is 0, ``labels()`` returns itself."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None: pass
    def dec(self, amount: float = 1.0) -> None: pass
    def set(self, value: float) -> None: pass
    def set_function(self, fn) -> None: pass
    def observe(self, value: float) -> None: pass
    def observe_many(self, values) -> None: pass
    def labels(self, **labelvalues) -> "_NullMetric": return self
    def quantile(self, q: float) -> float: return 0.0
    def buckets(self) -> Dict[float, int]: return {}
    def collect(self): return []

    @property
    def value(self) -> float: return 0.0
    @property
    def count(self) -> int: return 0
    @property
    def sum(self) -> float: return 0.0


_NULL_METRIC = _NullMetric()


class NullRegistry:
    """A :class:`Registry` stand-in whose metrics cost nothing and read 0.

    Pass :data:`NULL_REGISTRY` where instrumentation must be off — e.g. the
    observability-overhead benchmark's uninstrumented arm — without forking
    any code path: the hot-path ``inc()``/``observe()`` calls still happen,
    they just hit empty methods.
    """

    def counter(self, name, help_text="", labelnames=()): return _NULL_METRIC
    def gauge(self, name, help_text="", labelnames=()): return _NULL_METRIC
    def histogram(self, name, help_text="", labelnames=(), buckets=()): return _NULL_METRIC
    def get(self, name): return None
    def families(self): return []
    def render(self) -> str: return ""


#: Shared no-op registry instance.
NULL_REGISTRY = NullRegistry()

#: The process-wide default registry.
_DEFAULT = Registry()


def get_registry() -> Registry:
    """The process-wide default :class:`Registry`.

    Subsystems that want isolated scrape output (each
    :class:`repro.serve.Server` by default) create their own ``Registry``
    instead; pass this one in to aggregate several servers into a single
    ``/metrics`` page.
    """
    return _DEFAULT
