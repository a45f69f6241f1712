"""The eight workloads: set-up, measured window, output check, tear-down.

Only the stable public surface of ``repro`` is imported, the default
configuration runs (no backend or fusion arm is named), and inputs come
from ``numpy.random.default_rng(seed)`` here; the program only ever sees
the arrays.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro import nn
from repro.autograd import Tensor, no_grad
from repro.models import TBNet, make_synthetic_batch
from repro.nn.optim import Adam
from repro.serve import compile_inference

from benchmarks.layered import loadgen
from benchmarks.layered.hygiene import shm_segments
from benchmarks.layered.spec import WORKLOADS

_pc = time.perf_counter
BUCKETS = (1, 4, 16, 64)


class Chain(nn.Module):
    """3x Linear(128,128)+relu, 3x relu(h*scale+shift), Linear(128,10).

    The elementwise tail is the shape region fusion extracts and codegen
    compiles; TBNet has none, so this is the only workload a region kernel
    serves.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__()
        self.body = nn.Sequential(*[
            layer for _ in range(3)
            for layer in (nn.Linear(128, 128, rng=rng), nn.ReLU())
        ])
        self.scale = nn.Parameter(rng.standard_normal(128).astype(np.float32))
        self.shift = nn.Parameter(rng.standard_normal(128).astype(np.float32))
        self.out = nn.Linear(128, 10, rng=rng)

    def forward(self, x) -> Tensor:
        h = self.body(x)
        for _ in range(3):
            h = (h * self.scale + self.shift).relu()
        return self.out(h)


class Workload:
    """Base: seeds, set-up clock, failure tally."""

    kind = ""

    def __init__(self, name: str, seed: int, calib) -> None:
        self.name = name
        self.spec = WORKLOADS[name]
        self.batch = self.spec.batch
        self.seed = seed
        self.calib = calib
        self.setup_s = 0.0
        #: Failed output checks beyond the per-operation ones of the window.
        self.check_failures: list = []
        self.recorder = None  # a SpanRecorder while the traced window runs

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def timed(self, fn, *args, **kwargs):
        """Run one program call on the set-up clock (harness work is off it)."""
        start = _pc()
        result = fn(*args, **kwargs)
        self.setup_s += _pc() - start
        return result

    def fail(self, what: str) -> None:
        self.check_failures.append(what)

    def pids(self) -> tuple:
        return ()

    def reduce(self, window: loadgen.Window) -> dict:
        return loadgen.reduce_window(window, self.spec.slo_ms, self.spec.timer_ms)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> loadgen.Window:
        raise NotImplementedError

    def verify(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class Train(Workload):
    """``TBNet(width=16)`` + ``Adam(1e-3)`` cycling 8 seeded batches."""

    kind = "train"

    def _build(self):
        return TBNet(width=16, rng=self.rng(1))

    def setup(self) -> None:
        data_rng = self.rng(2)
        self.batches = [make_synthetic_batch(self.batch, rng=data_rng)
                        for _ in range(8)]
        self.model = self.timed(self._build)
        self.optimizer = self.timed(Adam, self.model.parameters(), 1e-3)
        self.losses = [self.timed(self.model.train_step, self.optimizer,
                                  *self.batches[0])]
        if not math.isfinite(self.losses[0]):
            self.fail("first loss is not finite")

    def _step(self, _i: int) -> float:
        loss = self.model.train_step(
            self.optimizer, *self.batches[len(self.losses) % 8])
        self.losses.append(loss)
        return loss

    def _traced_step(self, _i: int) -> float:
        """``train_step`` spelled out, with a span around each part."""
        model, optimizer, rec = self.model, self.optimizer, self.recorder
        step = len(self.losses)
        batch = self.batches[step % 8]
        a = _pc()
        loss = model.loss(*batch)
        b = _pc()
        loss.backward()
        c = _pc()
        optimizer.step()
        d = _pc()
        optimizer.zero_grad()
        e = _pc()
        value = loss.item()
        f = _pc()
        parent = rec.add("train_step", a, f, step)
        rec.add("forward", a, b, step, parent)
        rec.add("backward", b, c, step, parent)
        rec.add("optim_step", c, d, step, parent)
        rec.add("zero_grad", d, e, step, parent)
        self.losses.append(value)
        return value

    def run(self, seconds: float) -> loadgen.Window:
        op = self._traced_step if self.recorder is not None else self._step
        return loadgen.run_direct(
            op, lambda _i, loss: math.isfinite(loss), seconds, self.calib,
            self.batch)

    def verify(self) -> dict:
        """First losses against the same steps in float64; loss must fall."""
        steps = min(20, len(self.losses))
        reference = self._float64_losses(steps)
        got = np.asarray(self.losses[:steps])
        rel = float(np.max(np.abs(got - reference) / np.abs(reference)))
        if not rel <= 1e-3:
            self.fail(f"float32 losses leave float64 by {rel:.2e} relative")
        notes = {"loss_vs_float64_rel": rel, "steps": len(self.losses),
                 "loss_first": self.losses[0], "loss_last": self.losses[-1]}
        if len(self.losses) >= 200:
            first = float(np.mean(self.losses[:8]))
            last = float(np.mean(self.losses[-8:]))
            if not last < 0.5 * first:
                self.fail(f"loss did not halve: {first:.3f} -> {last:.3f}")
        return notes

    def _float64_losses(self, steps: int) -> np.ndarray:
        model = self._build()
        for param in model.parameters():
            param.data = param.data.astype(np.float64)
        for module in model.modules():
            for name in ("running_mean", "running_var"):
                buffer = getattr(module, name, None)
                if isinstance(buffer, np.ndarray):
                    module.register_buffer(name, buffer.astype(np.float64))
        optimizer = Adam(model.parameters(), 1e-3)
        losses = []
        for step in range(steps):
            images, context, targets = self.batches[step % 8]
            losses.append(model.train_step(
                optimizer, Tensor(images.data.astype(np.float64)),
                Tensor(context.data.astype(np.float64)), targets))
        return np.asarray(losses)


class Infer(Workload):
    """Direct ``InferenceSession.run`` calls over 16 rotating inputs."""

    kind = "infer"

    def setup(self) -> None:
        rng = self.rng(1)
        if self.name == "infer_tbnet_b1":
            images, context, _ = make_synthetic_batch(16, rng=self.rng(2))
            self.inputs = [(images.data[i:i + 1], context.data[i:i + 1])
                           for i in range(16)]
            self.model = self.timed(TBNet, width=16, rng=rng)
            self.session = self.timed(self.model.compile_serving, 1)
        else:
            data = self.rng(2).standard_normal((16, 64, 128)).astype(np.float32)
            self.inputs = [(batch,) for batch in data]
            self.model = self.timed(Chain, rng)
            self.timed(self.model.eval)
            self.session = self.timed(
                compile_inference, self.model, self.inputs[0])
        first = self.timed(self.session.run, *self.inputs[0]).tobytes()
        # The independent reference: the eager no_grad forward, bit for bit.
        with no_grad():
            self.expected = [self.model(*map(Tensor, x)).data.tobytes()
                             for x in self.inputs]
        if first != self.expected[0]:
            self.fail("first session result differs from the eager forward")

    def run(self, seconds: float) -> loadgen.Window:
        run, inputs, expected = self.session.run, self.inputs, self.expected
        rec = self.recorder

        def op(i):
            return run(*inputs[i % 16])

        def traced_op(i):
            a = _pc()
            out = run(*inputs[i % 16])
            rec.add("session.run", a, _pc(), i)
            return out

        def check(i, out):
            return out.tobytes() == expected[i % 16]

        return loadgen.run_direct(op if rec is None else traced_op, check,
                                  seconds, self.calib, self.batch)


class Serve(Workload):
    """``TBNet.serve`` under an open-loop schedule or a saturating closed loop."""

    kind = "serve"
    POOL = 128
    OUTSTANDING = 32
    RATES = {"serve_thread_lo": 200.0, "serve_thread_hi": 1500.0,
             "serve_proc_hi": 1500.0}

    def setup(self) -> None:
        self.process = self.name == "serve_proc_hi"
        self.shm_before = shm_segments()
        images, context, _ = make_synthetic_batch(self.POOL, rng=self.rng(2))
        self.images, self.context = images.data, context.data
        self.model = self.timed(TBNet, width=16, rng=self.rng(1))
        options = dict(buckets=BUCKETS, workers=1)
        if self.process:
            options.update(workers_mode="process", start_method="fork")
        self.server = self.timed(self.model.serve, **options)
        first = self.timed(self._first_result)
        self.expected = np.zeros((self.POOL,) + first.shape[1:], np.float32)
        self.have_expected = np.zeros(self.POOL, dtype=bool)
        self.worker_pids = tuple(
            self.server.health().get("worker_pids", ())) if self.process else ()
        self.mismatched = 0
        self.bit_identical = 0
        self.checked = 0
        self.loads: list = []
        if not np.allclose(first, self._reference(0, 1), rtol=1e-4, atol=1e-5):
            self.fail("first served result differs from the eager forward")

    def _reference(self, lo: int, hi: int) -> np.ndarray:
        """The independent reference: the eager forward of each sample alone
        (computed the first time a request carrying the sample is checked)."""
        for i in np.flatnonzero(~self.have_expected[lo:hi]) + lo:
            self.expected[i] = self.model.infer(
                self.images[i:i + 1], self.context[i:i + 1])[0]
            self.have_expected[i] = True
        return self.expected[lo:hi]

    def _first_result(self) -> np.ndarray:
        """The first request, then one that decomposes into every bucket:
        a bucket's buffers are first touched when it first runs, and a run
        whose peak RSS depends on whether a rare full batch occurred would
        read one of two values."""
        first = self.server.submit(
            self.images[:1], self.context[:1]).result(timeout=120)
        n = sum(BUCKETS)
        self.server.submit(self.images[:n], self.context[:n]).result(timeout=120)
        return first

    def pids(self) -> tuple:
        return self.worker_pids

    def _requests(self, offsets, sizes):
        images, context = self.images, self.context
        return [(images[o:o + n], context[o:o + n])
                for o, n in zip(offsets.tolist(), sizes.tolist())]

    def run(self, seconds: float) -> loadgen.Window:
        closed = self.name == "serve_sat_mixed"
        # A fresh stream per window, so an untraced and a traced window of
        # one run do not replay the same arrivals.
        stream = self.seed * 16 + len(self.loads)
        if closed:
            sizes = loadgen.request_sizes(stream, int(seconds * 3000) + 64)
            offsets = np.cumsum(sizes) % (self.POOL - max(loadgen.MIXED_SIZES))
        else:
            rate = self.RATES[self.name]
            n = max(8, int(rate * seconds))
            sizes = np.ones(n, dtype=np.int64)
            offsets = np.arange(n) % self.POOL
            due = loadgen.poisson_schedule(stream, rate, n)
        rows = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        load = loadgen.ServerLoad(
            self.server, self._requests(offsets, sizes), rows, sizes,
            self.expected.shape[1], self.calib, self.worker_pids,
            trace=self.recorder is not None)
        if closed:
            window = load.closed_loop(seconds, self.OUTSTANDING)
        else:
            window = load.open_loop(due, seconds)
        self._check(load, window, offsets)
        self.loads.append(load)
        if self.recorder is not None:
            self._record_spans(load, window)
        return window

    def _check(self, load, window, offsets) -> None:
        """Every completed request against its samples' eager reference."""
        ok = np.asarray(window.ok) & np.isfinite(window.latency)
        for i in np.flatnonzero(ok):
            n, row, o = load.sizes[i], load.rows[i], offsets[i]
            got, want = load.out[row:row + n], self._reference(o, o + n)
            self.checked += 1
            if got.tobytes() == want.tobytes():
                self.bit_identical += 1
            elif not np.allclose(got, want, rtol=1e-4, atol=1e-5):
                self.mismatched += 1
                window.ok[i] = False

    def _record_spans(self, load, window) -> None:
        rec = self.recorder
        start = np.asarray(window.start)
        for i in range(len(start)):
            done = load.done_at[i]
            if not np.isfinite(done):
                continue
            parent = rec.add("request", start[i], done, i)
            rec.add("submit", load.sent_at[i], load.submit_end[i], i, parent)

    def verify(self) -> dict:
        return {"requests_checked": self.checked,
                "output_mismatches": self.mismatched,
                "bit_identical_frac":
                    self.bit_identical / self.checked if self.checked else 0.0}

    def close(self) -> None:
        self.server.stop()
        if self.process and shm_segments() != self.shm_before:
            self.fail("shared-memory segments leaked: "
                      f"{self.shm_before} before, {shm_segments()} after")


def make(name: str, seed: int, calib) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {list(WORKLOADS)}")
    kind = {"train": Train, "infer": Infer, "serve": Serve}[name.split("_")[0]]
    return kind(name, seed, calib)
