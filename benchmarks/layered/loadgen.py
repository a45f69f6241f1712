"""Single-thread load generators and the slice reduction they share.

One thread generates all load.  Schedules and request sizes are drawn
beforehand from the seed; a request's latency goes into a pre-allocated
array from its done-callback and counts from the time the request was
*due*; no future is retained (sizing: retaining them pushed the
generator's lateness p99 from 1-4 ms to 50 ms at 500 rps).

Every timing is reduced the same way: the measured window is cut into
``SLICES`` equal consecutive slices, each slice gives a median, and the
reported value is the median of those, with their quartiles beside it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from functools import partial

import numpy as np

from benchmarks.layered.hygiene import CALIB_REF_MS, cpu_seconds

SLICES = 10
DIRECT_OPS_PER_S = 40_000  # most operations a direct closed loop records
_pc = time.perf_counter

#: Request sizes of the saturating closed loop (drawn uniformly).
MIXED_SIZES = (1, 1, 1, 1, 2, 2, 4, 4, 8, 16, 32)


def slices_for(seconds: float) -> int:
    """``SLICES``, or fewer when a (smoke) window is too short to fill them."""
    return max(2, min(SLICES, int(seconds / 0.1)))


def poisson_schedule(seed: int, rate: float, n: int) -> np.ndarray:
    """Due times (s from the window's start) of ``n`` Poisson arrivals."""
    rng = np.random.default_rng([seed, 0x5C4ED])
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def request_sizes(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0x512E5])
    return rng.choice(np.asarray(MIXED_SIZES), size=n)


class Window:
    """What one measured window recorded, before reduction."""

    def __init__(self, closed_loop: bool) -> None:
        self.closed_loop = closed_loop
        self.start = None        # per op: start (closed loop) or due time
        self.latency = None      # per op: seconds; nan = never completed
        self.samples = None      # per op: samples carried
        self.ok = None           # per op: completed without error
        self.mark_t: list = []   # SLICES + 1 slice boundaries
        self.mark_cpu: list = []
        self.calib_t = None
        self.calib_d = None
        self.extra: dict = {}

    def mark(self, now: float, pids=()) -> None:
        """A slice boundary: the time and the CPU spent so far."""
        self.mark_t.append(now)
        self.mark_cpu.append(cpu_seconds(pids))


def reduce_window(w: Window, slo_ms: float, timer_ms: float = 0.0) -> dict:
    """Slice medians -> the end-to-end readings, raw and at reference speed.

    ``cal`` readings scale each slice by ``CALIB_REF_MS`` over the slice's
    median probe, which takes the machine's state out of CPU-bound timings.
    ``timer_ms`` of every latency is a timer the machine's speed does not
    touch (the batcher's ``max_wait`` when each request opens its own batch
    window); only the rest of the latency is scaled.
    """
    start = np.asarray(w.start, dtype=np.float64)
    lat = np.asarray(w.latency, dtype=np.float64)
    samples = np.asarray(w.samples, dtype=np.float64)
    ok = np.asarray(w.ok, dtype=bool) & np.isfinite(lat)
    done = start + np.where(np.isfinite(lat), lat, np.inf)
    marks = np.asarray(w.mark_t, dtype=np.float64)
    cpu = np.asarray(w.mark_cpu, dtype=np.float64)
    calib_t = np.asarray(w.calib_t, dtype=np.float64)
    calib_d = np.asarray(w.calib_d, dtype=np.float64)
    within = ok & (lat * 1e3 <= slo_ms)

    def slice_rows(marks, cpu):
        by_start = np.searchsorted(marks, start, side="right") - 1
        by_done = np.searchsorted(marks, done, side="right") - 1
        by_calib = np.searchsorted(marks, calib_t, side="right") - 1
        rows = []
        for s in range(len(marks) - 1):
            in_slice = (by_start == s) & ok
            probes = calib_d[by_calib == s]
            if not in_slice.any() or not probes.size:
                continue
            probe_s = float(probes.sum())
            wall = marks[s + 1] - marks[s]
            # The probe runs on the generator thread: in a closed loop it
            # displaces operations, in an open loop it fills idle gaps.
            busy = wall - probe_s if w.closed_loop else wall
            finished = (by_done == s) & ok
            rows.append((
                float(np.median(lat[in_slice])) * 1e3,
                float(samples[finished].sum()) / busy,
                (cpu[s + 1] - cpu[s] - probe_s) / int(in_slice.sum()) * 1e3,
                CALIB_REF_MS / (float(np.median(probes)) * 1e3),
                float((in_slice & within).sum()) / int((by_start == s).sum()),
            ))
        return rows

    # A two-slice smoke window hit by one of the box's 250 ms freezes can
    # leave no slice with both an operation and a probe: take it whole.
    rows = slice_rows(marks, cpu) or slice_rows(marks[[0, -1]], cpu[[0, -1]])
    if not rows:
        raise RuntimeError("the window holds no completed operation or no probe")
    lat_ms, rate, cpu_ms, factor, in_slo = (
        np.asarray(col) for col in zip(*rows))
    attempted = int(start.size)

    def both(values, scale, fixed=0.0):
        return {"raw": _quart(values),
                "cal": _quart(fixed + (values - fixed) * scale)}

    return {
        "latency_ms_p50": both(lat_ms, factor, timer_ms),
        "samples_per_s": both(rate, 1.0 / factor),
        "cpu_ms_per_op": both(cpu_ms, factor),
        # Slice-median like the rest: the box freezes whole for ~250 ms in
        # about one window of five, which costs that slice 3 % of an open
        # loop's requests whatever the program does.
        "slo_ok_frac": float(np.median(in_slo)),
        "slo_ok_frac_pooled": float(within.sum()) / attempted,
        "calib_ms": _quart(CALIB_REF_MS / factor),
        "slices": len(rows),
        "attempted": attempted,
        "failed": attempted - int(ok.sum()),
    }


def _quart(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "n": int(len(values))}


def run_direct(op, check, seconds: float, calib, samples_per_op: int) -> Window:
    """Closed loop of direct calls: ``op(i)`` timed, ``check(i, out)`` not."""
    # Written once up front (np.zeros would map pages lazily), so the
    # harness's own memory is the same in every run and peak RSS does not
    # follow the number of operations.
    capacity = int(seconds * DIRECT_OPS_PER_S) + 64
    starts, durs = np.full(capacity, 0.0), np.full(capacity, 0.0)
    oks = np.full(capacity, False)
    slices = slices_for(seconds)
    length = seconds / slices
    i = 0
    now = _pc()
    w = Window(closed_loop=True)
    w.mark(now)
    next_mark = now + length
    while i < capacity:
        now = _pc()
        if now >= next_mark:
            w.mark(now)
            if len(w.mark_t) > slices:
                break
            next_mark += length
        if calib.due(now):
            calib.sample()
            continue
        a = _pc()
        out = op(i)
        b = _pc()
        starts[i] = a
        durs[i] = b - a
        oks[i] = check(i, out)
        i += 1
    else:
        raise RuntimeError(f"more than {capacity} operations in the window")
    w.start, w.latency, w.ok = starts[:i], durs[:i], oks[:i]
    w.samples = np.full(i, samples_per_op)
    _attach_calib(w, calib)
    return w


def _attach_calib(w: Window, calib) -> None:
    first = np.searchsorted(np.asarray(calib.times), w.mark_t[0])
    w.calib_t = np.asarray(calib.times[first:])
    w.calib_d = np.asarray(calib.durations[first:])


class ServerLoad:
    """Open- or closed-loop requests against a running server.

    ``requests[i]`` is the tuple of arrays of request ``i`` (views into the
    harness's sample pool, so building them costs the generator nothing);
    ``rows[i]`` is where its first result row goes in :attr:`out`.
    """

    def __init__(self, server, requests, rows, sizes, out_width: int,
                 calib, pids=(), trace: bool = False) -> None:
        self.server = server
        self.requests = requests
        self.sizes = np.asarray(sizes)
        self.rows = np.asarray(rows)
        n = len(requests)
        self.out = np.zeros((int(self.sizes.sum()), out_width), dtype=np.float32)
        self.done_at = np.full(n, np.nan)
        self.sent_at = np.full(n, np.nan)
        self.submit_end = np.full(n, np.nan) if trace else None
        self.errors = np.zeros(n, dtype=bool)
        self.calib = calib
        self.pids = tuple(pids)
        self._permits = None   # closed loop: a semaphore of free slots
        self._freed = deque()  # ... and when each slot came free

    def _done(self, i: int, future) -> None:
        now = _pc()
        if future.cancelled() or future.exception() is not None:
            self.errors[i] = True
        else:
            row = self.rows[i]
            self.out[row:row + self.sizes[i]] = future.result()
        self._finish(i, now)

    def _finish(self, i: int, now: float) -> None:
        self.done_at[i] = now
        if self._permits is not None:
            self._freed.append(now)
            self._permits.release()

    def _send(self, i: int) -> None:
        try:
            future = self.server.submit(*self.requests[i])
        except (RuntimeError, TimeoutError):  # refused: a failed request
            self.errors[i] = True
            self._finish(i, _pc())
            return
        if self.submit_end is not None:
            self.submit_end[i] = _pc()
        future.add_done_callback(partial(self._done, i))

    def open_loop(self, due: np.ndarray, seconds: float) -> Window:
        """Send request ``i`` at ``due[i]`` whatever the server is doing."""
        w = Window(closed_loop=False)
        calib = self.calib
        slices = slices_for(seconds)
        length = seconds / slices
        n = len(due)
        t0 = _pc() + 0.002
        targets = (t0 + due).tolist()
        w.mark(t0, self.pids)
        next_mark = t0 + length
        for i in range(n):
            target = targets[i]
            while True:
                now = _pc()
                if now >= next_mark and len(w.mark_t) <= slices:
                    w.mark(now, self.pids)
                    next_mark += length
                gap = target - now
                if gap <= 0:
                    break
                if gap > 0.0008 and calib.due(now):
                    calib.sample()
                elif gap > 0.00005:
                    time.sleep(gap)
            self.sent_at[i] = now
            self._send(i)
        while len(w.mark_t) <= slices:
            now = _pc()
            if now >= next_mark:
                w.mark(now, self.pids)
                next_mark += length
            elif calib.due(now):
                calib.sample()
            else:
                time.sleep(min(0.002, next_mark - now))
        last_sent = self.sent_at[n - 1]
        drained = self._wait_all(last_sent + 1.0)
        if not drained:
            self._wait_all(last_sent + 10.0)
        w.start = t0 + due
        w.latency = self.done_at - w.start
        w.samples = self.sizes
        w.ok = ~self.errors
        _attach_calib(w, calib)
        late = self.sent_at - w.start
        achieved = n / (np.nanmax(self.done_at) - w.start[0])
        offered = n / (due[-1] - due[0]) if n > 1 else achieved
        w.extra = {
            "late_ms_p99": float(np.percentile(late, 99) * 1e3),
            "offered_rps": float(offered),
            "achieved_rps": float(achieved),
            "overloaded": bool(achieved < 0.98 * offered or not drained),
        }
        return w

    def closed_loop(self, seconds: float, outstanding: int) -> Window:
        """Keep ``outstanding`` requests in flight for ``seconds``."""
        w = Window(closed_loop=True)
        calib = self.calib
        self._permits = threading.Semaphore(outstanding)
        slices = slices_for(seconds)
        length = seconds / slices
        n = len(self.requests)
        now = _pc()
        w.mark(now, self.pids)
        self._freed.extend([now] * outstanding)
        next_mark = now + length
        sent = 0
        late = []  # a slot came free -> the request that refills it was sent
        while sent < n:
            now = _pc()
            if now >= next_mark:
                w.mark(now, self.pids)
                if len(w.mark_t) > slices:
                    break
                next_mark += length
            if calib.due(now):
                calib.sample()
                continue
            if not self._permits.acquire(timeout=length):
                continue
            self.sent_at[sent] = _pc()
            late.append(self.sent_at[sent] - self._freed.popleft())
            self._send(sent)
            sent += 1
        if len(w.mark_t) <= slices:
            raise RuntimeError(
                f"request list ran out after {sent} requests; the server is "
                "faster than the generator was sized for")
        for _ in range(outstanding):  # drain what is still in flight
            self._permits.acquire(timeout=10.0)
        self._permits = None
        w.start = self.sent_at[:sent]
        w.latency = self.done_at[:sent] - w.start
        w.samples = self.sizes[:sent]
        w.ok = ~self.errors[:sent]
        _attach_calib(w, calib)
        w.extra = {"late_ms_p99": float(np.percentile(late, 99) * 1e3),
                   "sent": sent}
        return w

    def _wait_all(self, deadline: float) -> bool:
        while np.isnan(self.done_at).any():
            if _pc() >= deadline:
                return False
            time.sleep(0.005)
        return True
