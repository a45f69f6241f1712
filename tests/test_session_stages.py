"""Compiled loop stages vs numpy steps vs eager forward, on generated stacks.

A seeded generator draws conv / eval-BN / relu / max-pool / linear / concat
stacks and inputs; every arm must agree with the eager ``no_grad`` forward
byte for byte (``tobytes()``), before, at and after the session adopts its
compiled stages.
"""

import time

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, functional as F, no_grad
from repro.codegen import codegen_enabled, codegen_stats, have_compiler, jit, using_codegen
from repro.nn.optim import SGD
from repro.serve import InferenceSession, compile_inference

needs_cc = pytest.mark.skipif(
    not (have_compiler() and codegen_enabled()),
    reason="no C compiler available, or codegen is off (REPRO_CODEGEN=0)",
)


# --------------------------------------------------------------------------- #
# The generator
# --------------------------------------------------------------------------- #
class Stack(nn.Module):
    """An image branch (conv blocks), an optional context branch (linears),
    a concat and a linear head, all drawn from ``rng``."""

    def __init__(self, rng, dtype, size=9, context=True):
        super().__init__()
        self.dtype = np.dtype(dtype)
        self.image_ops, self.context_ops = [], []
        self._count = 0
        channels, hw = int(rng.integers(1, 4)), size
        self.image_shape = (channels, hw, hw)
        for _ in range(int(rng.integers(1, 3))):
            out = int(rng.integers(1, 6))
            k = int(rng.integers(1, min(3, hw) + 1))
            stride, pad = int(rng.integers(1, 3)), int(rng.integers(0, 2))
            weight = self._param(rng.standard_normal((out, channels, k, k)) * 0.5)
            bias = self._param(rng.standard_normal(out)) if rng.random() < 0.7 else None
            self.image_ops.append(("conv", weight, bias, stride, pad))
            channels, hw = out, (hw + 2 * pad - k) // stride + 1
            if rng.random() < 0.7:
                self.image_ops.append(self._bn(rng, channels))
            if rng.random() < 0.6:
                self.image_ops.append(("relu",))
            if hw >= 2 and rng.random() < 0.7:
                k = int(rng.integers(2, min(3, hw) + 1))
                stride = int(rng.integers(1, k + 1))  # stride < k: windows overlap
                pad = int(rng.integers(0, k // 2 + 1))
                self.image_ops.append(("pool", k, stride, pad))
                hw = (hw + 2 * pad - k) // stride + 1
        width = channels * hw * hw
        self.context_dim = 0
        if context:
            self.context_dim, features = 5, 5
            for _ in range(int(rng.integers(1, 3))):
                out = int(rng.integers(1, 7))
                weight = self._param(rng.standard_normal((features, out)) * 0.5)
                bias = self._param(rng.standard_normal(out)) if rng.random() < 0.7 else None
                self.context_ops.append(("linear", weight, bias))
                features = out
                if rng.random() < 0.4:
                    self.context_ops.append(self._bn(rng, features))
                if rng.random() < 0.6:
                    self.context_ops.append(("relu",))
            width += features
        self.head = (self._param(rng.standard_normal((width, 4)) * 0.3),
                     self._param(rng.standard_normal(4)))

    def _param(self, values):
        self._count += 1
        param = nn.Parameter(Tensor(np.asarray(values, self.dtype), dtype=self.dtype))
        setattr(self, f"p{self._count}", param)
        return param

    def _bn(self, rng, channels):
        gamma = self._param(rng.standard_normal(channels)) if rng.random() < 0.7 else None
        beta = self._param(rng.standard_normal(channels)) if rng.random() < 0.7 else None
        mean = rng.standard_normal(channels).astype(self.dtype)
        var = (rng.random(channels) + 0.25).astype(self.dtype)
        return ("bn", gamma, beta, mean, var)

    @staticmethod
    def _apply(h, op):
        if op[0] == "conv":
            return F.conv2d(h, op[1], op[2], stride=op[3], padding=op[4])
        if op[0] == "linear":
            return F.linear(h, op[1], op[2])
        if op[0] == "bn":
            return F.batch_norm(h, op[1], op[2], op[3], op[4], training=False)
        if op[0] == "relu":
            return h.relu()
        return F.max_pool2d(h, op[1], op[2], op[3])

    def forward(self, images, context=None):
        h = images
        for op in self.image_ops:
            h = self._apply(h, op)
        h = h.reshape(h.shape[0], int(np.prod(h.shape[1:])))  # no -1: n may be 0
        if self.context_ops:
            c = context
            for op in self.context_ops:
                c = self._apply(c, op)
            h = Tensor.concatenate([h, c], axis=1)
        return F.linear(h, *self.head)

    def inputs(self, rng, n, special=False):
        shapes = [(n,) + self.image_shape] + ([(n, self.context_dim)] if self.context_ops else [])
        arrays = [rng.standard_normal(shape).astype(self.dtype) for shape in shapes]
        if special:
            tiny = np.finfo(self.dtype).tiny
            values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, tiny / 4, -tiny / 4],
                              self.dtype)
            for a in arrays:
                flat = a.reshape(-1)
                where = rng.random(flat.size) < 0.3
                flat[where] = rng.choice(values, size=int(where.sum()))
        return arrays


def _eager(model, arrays):
    with no_grad():
        return model(*(Tensor(a, dtype=a.dtype) for a in arrays)).data


def _arms(model, example):
    """The same trace compiled twice: numpy steps only, and compiled stages."""
    with using_codegen(False):
        plain = compile_inference(model, example)
    with using_codegen(True):
        staged = compile_inference(model, example)
    return plain, staged


# --------------------------------------------------------------------------- #
# Differential: compiled stages vs numpy steps vs eager forward
# --------------------------------------------------------------------------- #
@needs_cc
@pytest.mark.parametrize("seed", range(24))
def test_generated_stacks_agree_byte_for_byte(seed):
    rng = np.random.default_rng([seed, 0x57A6E])
    dtype = np.float32 if seed % 3 else np.float64
    model = Stack(rng, dtype, size=int(rng.integers(4, 11)), context=bool(seed % 4)).eval()
    n = (1, 3, 64, 1)[seed % 4]
    example = model.inputs(rng, n)
    plain, staged = _arms(model, example)
    assert staged.wait_compiled(120), staged.explain()
    rows = staged.explain()
    assert all(row["arm"] == "compiled" for row in rows
               if row["ops"][0] in ("conv2d", "linear", "region")), rows
    assert all(row["reason"] == "disabled" for row in plain.explain())
    for special in (False, True, True):
        arrays = model.inputs(rng, n, special)
        with np.errstate(all="ignore"):
            want = _eager(model, arrays).tobytes()
            assert plain.run(*arrays).tobytes() == want
            assert staged.run(*arrays).tobytes() == want


@needs_cc
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_empty_batch_runs_every_arm(dtype):
    rng = np.random.default_rng(77)
    model = Stack(rng, dtype, size=6).eval()
    arrays = model.inputs(rng, 0)
    want = _eager(model, arrays)
    plain, staged = _arms(model, arrays)
    assert staged.wait_compiled(120)
    assert plain.run(*arrays).shape == staged.run(*arrays).shape == want.shape == (0, 4)


@needs_cc
def test_non_contiguous_and_read_only_inputs():
    rng = np.random.default_rng(5)
    model = Stack(rng, np.float32, size=8).eval()
    example = model.inputs(rng, 3)
    plain, staged = _arms(model, example)
    assert staged.wait_compiled(120)
    big = [rng.standard_normal((6,) + a.shape[1:] + (2,)).astype(np.float32) for a in example]
    strided = [b[::2, ..., 0] for b in big]
    assert not strided[0].flags.c_contiguous
    frozen = [a.copy() for a in example]
    for a in frozen:
        a.setflags(write=False)
    unaligned = []
    for a in example:
        raw = np.empty(a.nbytes + 1, np.uint8)
        view = raw[1:].view(np.float32).reshape(a.shape)
        view[...] = a
        unaligned.append(view)
    assert not unaligned[0].flags.aligned
    for arrays in (strided, frozen, unaligned):
        want = _eager(model, [np.array(a) for a in arrays]).tobytes()
        assert plain.run(*arrays).tobytes() == want
        assert staged.run(*arrays).tobytes() == want


@needs_cc
def test_stream_straddling_adoption_is_identical(tmp_path, monkeypatch):
    # A cold cache: the session must start on numpy steps, serve while the
    # compile runs, and swap between two runs without a visible seam.
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    jit.clear_kernel_memo()
    rng = np.random.default_rng(11)
    model = Stack(rng, np.float32, size=8).eval()
    batches = [model.inputs(rng, 2, special=i % 2 == 1) for i in range(6)]
    with np.errstate(all="ignore"):
        want = [_eager(model, b).tobytes() for b in batches]
        before = codegen_stats()["compiled"]
        session = compile_inference(model, batches[0])
        assert {row["reason"] for row in session.explain()} == {"pending"}
        steps = session.num_steps
        got = [session.run(*b).tobytes() for b in batches[:3]]  # before (or at) the swap
        assert session.wait_compiled(120)
        assert session.num_steps < steps
        got += [session.run(*b).tobytes() for b in batches[3:]]
        got += [session.run(*b).tobytes() for b in batches[:3]]
    assert got == want + want[:3]
    assert codegen_stats()["compiled"] == before + 1
    assert all(row["arm"] == "compiled" for row in session.explain())
    jit.clear_kernel_memo()


@needs_cc
def test_rebound_parameters_are_seen_by_compiled_stages():
    rng = np.random.default_rng(21)
    model = Stack(rng, np.float32, size=8).eval()
    arrays = model.inputs(rng, 3)
    session = compile_inference(model, arrays)
    assert session.wait_compiled(120)
    first = session.run(*arrays).copy()

    # load_state_dict copies into the existing storage.
    state = {k: v + np.float32(0.125) for k, v in model.state_dict().items()}
    model.load_state_dict(state)
    assert session.run(*arrays).tobytes() == _eager(model, arrays).tobytes()
    assert not np.array_equal(first, session.run(*arrays))

    # An in-place optimizer step.
    model.train()
    loss = model(*(Tensor(a) for a in arrays)).sum()
    loss.backward()
    SGD(model.parameters(), lr=0.05).step()
    model.eval()
    assert session.run(*arrays).tobytes() == _eager(model, arrays).tobytes()

    # Rebinding ``.data`` to a new array (what a ProcServer worker does on
    # publish_weights) is followed by identity, without recompiling.
    for p in model.parameters():
        p.data = p.data * np.float32(0.5)
    assert session.run(*arrays).tobytes() == _eager(model, arrays).tobytes()
    assert all(row["arm"] == "compiled" for row in session.explain())


@needs_cc
def test_parameter_rebound_to_another_layout_goes_back_to_numpy_steps():
    rng = np.random.default_rng(22)
    model = Stack(rng, np.float32, size=8).eval()
    arrays = model.inputs(rng, 2)
    session = compile_inference(model, arrays)
    assert session.wait_compiled(120)
    bias = model.head[1]
    wide = np.zeros((4, 2), np.float32)
    wide[:, 0] = bias.data
    bias.data = wide[:, 0]  # same values, not contiguous
    before = codegen_stats()["fallbacks"]
    assert session.run(*arrays).tobytes() == _eager(model, arrays).tobytes()
    assert codegen_stats()["fallbacks"] == before + 1
    assert {row["arm"] for row in session.explain()} == {"numpy"}
    assert not session.wait_compiled()


def _process_lookups() -> float:
    """Kernel lookups worker processes have reported to this one."""
    from repro.obs.metrics import get_registry

    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in get_registry().render().splitlines()
        if line.startswith("repro_codegen_cache_") and 'mode="process"' in line
    )


class ScaleShift(nn.Module):
    """``relu(linear(x) * scale + shift)``: the planner makes the whole
    forward one group with a ``linear`` head — the kind of step a server's
    worker compiles (module-level: ``spawn`` workers unpickle it)."""

    def __init__(self, seed=3):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.lin = nn.Linear(6, 5, rng=rng)
        self.scale = nn.Parameter(Tensor(rng.standard_normal(5).astype(np.float32)))
        self.shift = nn.Parameter(Tensor(rng.standard_normal(5).astype(np.float32)))

    def forward(self, x):
        return (self.lin(x) * self.scale + self.shift).relu()


@needs_cc
def test_publish_weights_reaches_compiled_stages_in_worker_processes():
    from repro.serve import ProcServer, SupervisionPolicy

    model = ScaleShift().eval()
    x = np.random.default_rng(4).standard_normal((3, 6)).astype(np.float32)
    fast = SupervisionPolicy(watchdog_interval=0.01, restart_backoff=0.001,
                             restart_backoff_cap=0.01)
    lookups = _process_lookups()
    with ProcServer(model, x[:1], buckets=(1, 2), workers=1, supervision=fast,
                    model_factory=ScaleShift) as server:
        got = server.submit(x).result(timeout=120)
        assert np.allclose(got, _eager(model, [x]), rtol=1e-4, atol=1e-5)
        deadline = time.monotonic() + 120
        while _process_lookups() == lookups and time.monotonic() < deadline:
            # Until the worker reports a kernel: its stage is in.
            server.submit(x).result(timeout=120)
        assert _process_lookups() > lookups
        for p in model.parameters():
            p.data += np.float32(0.25)
        server.publish_weights()  # the worker rebinds every p.data to a new bank
        got = server.submit(x).result(timeout=120)
        chunks = [_eager(model, [x[i:j]]) for i, j in ((0, 2), (2, 3))]
        assert got.tobytes() == np.concatenate(chunks).tobytes()


@needs_cc
def test_param_hot_swap_reaches_conv_gemm_stages_in_worker_processes():
    # Process workers compile TBNet's conv / linear heads into stage groups;
    # a param-only publish rebinds them without a recompile.
    from repro.models import TBNet
    from repro.serve import ProcServer

    rng = np.random.default_rng(41)
    model = TBNet(width=4, image_size=8, context_dim=8, rng=rng).eval()
    images = rng.standard_normal((5, 3, 8, 8)).astype(np.float32)
    context = rng.standard_normal((5, 8)).astype(np.float32)
    one, four = (images[:1], context[:1]), (images[1:], context[1:])

    def served(server):
        return [server.submit(*r).result(timeout=120).tobytes() for r in (one, four)]

    def eager():
        return [_eager(model, list(r)).tobytes() for r in (one, four)]

    def pending(probe):
        return any(row["reason"] == "pending"
                   for rows in probe["explain"].values() for row in rows)

    with ProcServer(model, one, buckets=(1, 4), workers=1,
                    model_factory=model.spawn_factory()) as server:
        deadline = time.monotonic() + 120
        while True:  # until both buckets' sessions adopted their stages
            assert served(server) == eager()
            (probe,) = server.probe_workers()
            if not pending(probe) or time.monotonic() > deadline:
                break
        rows = [row for rows in probe["explain"].values() for row in rows]
        assert any("conv2d" in row["ops"] for row in rows), rows
        assert all(row["arm"] == "compiled" for row in rows
                   if "conv2d" in row["ops"] or "linear" in row["ops"]), rows
        for p in model.parameters():
            p.data *= np.float32(1.25)
        assert server.publish_weights() == 2
        assert served(server) == eager()
        (after,) = server.probe_workers()
    assert after["pid"] == probe["pid"] and after["arena_version"] == 2
    assert after["explain"] == probe["explain"]  # the same compiled groups


@needs_cc
def test_server_pools_compile_regions_only_user_pools_everything():
    # See frontend._ServerPool: the frozen benchmark cannot measure a server
    # whose GEMM steps are compiled, so a thread Server's own pools leave
    # them — but a linear an epilogue follows heads its group.
    from repro.models import TBNet
    from repro.serve import SessionPool

    model = TBNet(width=4, rng=np.random.default_rng(1))
    example = (np.zeros((1, 3, 16, 16), np.float32), np.zeros((1, 16), np.float32))
    pool = SessionPool(model.eval(), example, buckets=(1, 2))
    assert all(s.wait_compiled(120) and s.num_steps == 6 for s in pool.sessions.values())
    with model.serve(buckets=(1, 2), workers=1) as server:
        (served,) = server.pools
        for s in served.sessions.values():  # TBNet's three linear + relu groups, no more
            assert s.wait_compiled(120) and s.num_steps == 14
            assert all((row["arm"] == "compiled") == (row["ops"] == ["linear", "relu"])
                       for row in s.explain()), s.explain()
    chain = ScaleShift().eval()
    x = np.zeros((2, 6), np.float32)
    from repro.serve import Server

    with Server(chain, x[:1], buckets=(1, 2), workers=1) as server:
        (served,) = server.pools
        assert all(s.wait_compiled(120) for s in served.sessions.values())
        assert served.sessions[2].explain() == [
            {"step": 0, "ops": ["linear", "mul", "add", "relu"], "arm": "compiled",
             "reason": None}]


def test_wrong_shape_dtype_and_arity_are_still_rejected():
    rng = np.random.default_rng(31)
    model = Stack(rng, np.float32, size=6).eval()
    arrays = model.inputs(rng, 2)
    session = compile_inference(model, arrays)
    session.wait_compiled(120)
    with pytest.raises(ValueError, match=r"session takes 2 input\(s\), got 1"):
        session.run(arrays[0])
    with pytest.raises(ValueError, match="input 0 has shape"):
        session.run(arrays[0][:1], arrays[1])
    with pytest.raises(ValueError, match="input 1 has dtype float64"):
        session.run(arrays[0], arrays[1].astype(np.float64))
    assert session.run(*arrays).tobytes() == _eager(model, arrays).tobytes()


def test_nothing_plannable_starts_no_thread(monkeypatch):
    class Soft(nn.Module):
        def forward(self, x):
            return F.softmax(F.avg_pool2d(x, 2).reshape(x.shape[0], -1))

    started = []
    monkeypatch.setattr(jit, "resolve", lambda *a, **k: started.append(a))
    x = np.random.default_rng(1).standard_normal((2, 1, 4, 4)).astype(np.float32)
    session = compile_inference(Soft().eval(), x)
    assert isinstance(session, InferenceSession) and not started
    assert not session.wait_compiled()
    assert {row["reason"] for row in session.explain()} == {
        "unplannable" if codegen_enabled() else "disabled"}
    assert session.run(x).tobytes() == _eager(Soft(), [x]).tobytes()


# --------------------------------------------------------------------------- #
# Shapes of plans
# --------------------------------------------------------------------------- #
@needs_cc
def test_tbnet_replays_six_steps_and_one_kernel_serves_every_bucket(tmp_path, monkeypatch):
    from repro.models import TBNet, make_synthetic_batch

    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    jit.clear_kernel_memo()
    model = TBNet(width=8, rng=np.random.default_rng(1))
    before = codegen_stats()
    sessions = {n: model.compile_serving(n) for n in (1, 4, 16)}
    assert all(s.wait_compiled(120) for s in sessions.values())
    after = codegen_stats()
    assert after["compiled"] == before["compiled"] + 1  # one cc for three buckets
    assert len(list(tmp_path.glob("*.so"))) == 1
    assert [row["ops"] for row in sessions[1].explain()] == [
        ["linear", "relu"], ["linear", "relu"],
        ["conv2d", "batch_norm", "relu", "max_pool2d"],
        ["conv2d", "batch_norm", "relu", "max_pool2d", "reshape", "concat"],
        ["linear", "relu"], ["linear"],
    ]
    for n, session in sessions.items():
        images, context, _ = make_synthetic_batch(n, rng=np.random.default_rng(n))
        assert session.run(images, context).tobytes() == model.infer(images, context).tobytes()
    jit.clear_kernel_memo()


@needs_cc
def test_profiler_labels_name_the_ops_of_a_stage():
    from repro.models import TBNet, make_synthetic_batch
    from repro.obs.profile import using_profiler

    model = TBNet(width=4, rng=np.random.default_rng(1))
    session = model.compile_serving(2)
    assert session.wait_compiled(120)
    images, context, _ = make_synthetic_batch(2, rng=np.random.default_rng(2))
    with using_profiler() as profiler:
        session.run(images, context)
    assert "serve:conv2d+batch_norm+relu+max_pool2d" in profiler.stats()


@needs_cc
def test_elementwise_region_joins_the_stage_of_its_producer():
    class Tail(nn.Module):
        def __init__(self):
            super().__init__()
            rng = np.random.default_rng(3)
            self.lin = nn.Linear(6, 5, rng=rng)
            self.scale = nn.Parameter(Tensor(rng.standard_normal(5).astype(np.float32)))
            self.shift = nn.Parameter(Tensor(rng.standard_normal(5).astype(np.float32)))

        def forward(self, x):
            h = self.lin(x).relu()
            return (h * self.scale + self.shift).relu()

    model = Tail().eval()
    x = np.random.default_rng(4).standard_normal((3, 6)).astype(np.float32)
    session = compile_inference(model, x)
    assert session.wait_compiled(120)
    # The linear heads one group: both relus and the affine chain join it.
    assert [row["ops"] for row in session.explain()] == [["linear", "relu", "mul", "add", "relu"]]
    assert session.run(x).tobytes() == _eager(model, [x]).tobytes()


class Residual(nn.Module):
    """Two conv branches over one input meeting in ``relu(a + b * scale)``:
    the add joins one branch's group and reads the other's output."""

    def __init__(self, dtype=np.float32):
        super().__init__()
        rng = np.random.default_rng(8)
        self.a = nn.Conv2d(2, 3, 3, padding=1, rng=rng)
        self.b = nn.Conv2d(2, 3, 1, rng=rng)
        self.scale = nn.Parameter(Tensor(rng.standard_normal((3, 1, 1)).astype(dtype)))
        for p in self.parameters():
            p.data = p.data.astype(dtype)

    def forward(self, x):
        return (self.a(x) + self.b(x) * self.scale).relu()


@needs_cc
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_region_reading_another_stages_output_runs_after_it(dtype):
    model = Residual(dtype).eval()
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 2, 5, 5)).astype(dtype)
    session = compile_inference(model, x)
    assert session.wait_compiled(120)
    rows = session.explain()
    assert all(row["arm"] == "compiled" for row in rows), rows
    assert sorted(op for row in rows for op in row["ops"]) == [
        "add", "conv2d", "conv2d", "mul", "relu"]
    for _ in range(3):
        x = rng.standard_normal((3, 2, 5, 5)).astype(dtype)
        assert session.run(x).tobytes() == _eager(model, [x]).tobytes()


class PerBatchRows(nn.Module):
    """Full-rank activations whose leading extent is 1 next to an ``(n, d)``
    batch — a session input ``q`` and, by ``learned``, a ``linear`` over a
    learned ``(1, k)`` query (a GEMM head with one row) or a sum
    over the batch axis (a generic step's output).  Each broadcasts over the
    batch; none is the batch."""

    def __init__(self, dtype, learned):
        super().__init__()
        rng = np.random.default_rng(3)
        self.learned = learned
        self.query = nn.Parameter(Tensor(rng.standard_normal((1, 4)), dtype=dtype))
        self.proj = nn.Linear(4, 5, rng=rng)
        self.lin = nn.Linear(5, 5, rng=rng)
        for p in self.parameters():
            p.data = p.data.astype(dtype)

    def forward(self, x, q):
        if self.learned:
            row = self.proj(self.query)
        else:
            row = x.sum(axis=0, keepdims=True)
            x = self.lin(x)
        return ((x * q).relu() + row).relu()


@needs_cc
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("learned", [False, True])
@pytest.mark.parametrize("n", [1, 3, 64])
def test_activations_with_one_row_broadcast_over_the_batch(n, learned, dtype):
    model = PerBatchRows(dtype, learned).eval()
    rng = np.random.default_rng(n)
    example = [rng.standard_normal((n, 5)).astype(dtype),
               rng.standard_normal((1, 5)).astype(dtype)]
    plain, staged = _arms(model, example)
    assert staged.wait_compiled(120), staged.explain()
    assert staged.explain()[-1]["arm"] == "compiled"
    for _ in range(3):
        arrays = [rng.standard_normal(a.shape).astype(dtype) for a in example]
        want = _eager(model, arrays).tobytes()
        assert plain.run(*arrays).tobytes() == want
        assert staged.run(*arrays).tobytes() == want


@needs_cc
def test_reduction_tail_region_keeps_its_kernel_off_the_request_path(tmp_path, monkeypatch):
    class MeanTail(nn.Module):
        def __init__(self):
            super().__init__()
            self.proj = nn.Linear(8, 6, rng=np.random.default_rng(7))

        def forward(self, x):
            return (self.proj(x).relu() * 2.0 + 1.0).mean(axis=-1)

    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    jit.clear_kernel_memo()
    model = MeanTail().eval()
    x = np.random.default_rng(3).standard_normal((4, 8)).astype(np.float32)
    session = compile_inference(model, x)
    # The linear's group, then one region: the relu, the affine chain and the
    # mean tail.
    assert [row["reason"] for row in session.explain()] == ["pending"] * 2
    want = _eager(model, [x]).tobytes()
    assert session.run(x).tobytes() == want  # the interpreter arm meanwhile
    assert session.wait_compiled(120)
    assert [(row["ops"], row["arm"]) for row in session.explain()] == [
        (["linear"], "compiled"), (["region"], "compiled")]
    assert session.run(x).tobytes() == want
    jit.clear_kernel_memo()
