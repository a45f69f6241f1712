"""Serving tests: compiled replay fidelity, rejection rules, micro-batching."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, functional as F, no_grad
from repro.codegen import using_codegen
from repro.models import TBNet, make_synthetic_batch
from repro.nn.init import manual_seed
from repro.serve import InferenceSession, compile_inference, serve_batches

#: Historical case ids, kept so they stay stable: the ``backend`` values
#: are plain parametrize values, and every case runs the same numpy kernels.
BACKENDS = ("numpy", "fused")


def _mlp(rng):
    return nn.Sequential(
        nn.Linear(12, 16, rng=rng),
        nn.BatchNorm1d(16),
        nn.ReLU(),
        nn.Dropout(0.5, rng=rng),
        nn.Linear(16, 5, rng=rng),
    )


def _warm_stats(model, rng):
    """A couple of training steps so running statistics are non-trivial."""
    for _ in range(3):
        x = rng.standard_normal((32, 12)).astype(np.float32)
        model(x).sum().backward()
        model.zero_grad()


# --------------------------------------------------------------------------- #
# Replay fidelity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fuse", [True])  # sessions always fuse; the axis keeps the case ids
def test_session_is_bit_equal_to_eager_no_grad(backend, fuse):
    rng = np.random.default_rng(0)
    model = _mlp(rng)
    _warm_stats(model, rng)
    model.eval()
    example = rng.standard_normal((8, 12)).astype(np.float32)
    session = compile_inference(model, example)
    for _ in range(3):  # buffer reuse must not corrupt later calls
        batch = rng.standard_normal((8, 12)).astype(np.float32)
        with no_grad():
            expected = model(batch).data
        np.testing.assert_array_equal(session.run(batch), expected)


@pytest.mark.parametrize("batch", [1, 3, 16])
def test_tbnet_session_is_bit_equal_across_batch_sizes(batch):
    # Batch 1 is the shape that exposed a BLAS operand-layout mismatch in
    # the conv emitter (C-contiguous weight copy vs tensordot's F view).
    manual_seed(21)
    model = TBNet(width=8)
    session = model.compile_serving(batch_size=batch)
    images, context, _ = make_synthetic_batch(batch, rng=np.random.default_rng(batch))
    np.testing.assert_array_equal(
        session.run(images, context), model.infer(images, context)
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_tbnet_session_is_bit_equal_to_eager(backend):
    manual_seed(3)
    model = TBNet(width=8)
    opt = nn.optim.Adam(model.parameters(), lr=1e-3)
    images, context, targets = make_synthetic_batch(16, rng=np.random.default_rng(1))
    for _ in range(2):  # move running stats off their init values
        model.train_step(opt, images, context, targets)
    model.eval()
    session = compile_inference(model, (images, context))
    assert session.fused_counts == {}  # no reduction tail: no region
    if session._plan is not None:  # its linear + relu chains are the planner's
        assert [g.ops for g in session._plan.groups].count(["linear", "relu"]) == 3
    expected = model.infer(images, context)
    np.testing.assert_array_equal(session.run(images, context), expected)
    # Fresh inputs through the same reused buffers.
    images2, context2, _ = make_synthetic_batch(16, rng=np.random.default_rng(9))
    np.testing.assert_array_equal(
        session.run(images2, context2), model.infer(images2, context2)
    )


@pytest.mark.parametrize("backend", BACKENDS + ("lazy",))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bucket", [1, 4, 16, 64])
@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_window_steps_are_bit_equal_to_eager(stride, padding, bucket, dtype, backend):
    # Off TBNet's shapes: strided / unpadded convs, a padded overlapping
    # max-pool, and every input route of the window emitters — a raw session
    # input (first conv), a session-owned upstream buffer sliced directly
    # (second conv, last pool) and the padded private copy (first pool).
    rng = np.random.default_rng(17)
    model = nn.Sequential(
        nn.Conv2d(3, 4, 3, stride=stride, padding=padding, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(3, stride=2, padding=1),
        nn.Conv2d(4, 5, 2, bias=False, rng=rng),
        nn.MaxPool2d(2),
    )
    for param in model.parameters():
        param.data = param.data.astype(dtype)
    model.eval()
    session = compile_inference(model, np.zeros((bucket, 3, 12, 12), dtype))
    for _ in range(2):  # the cached slice views must survive buffer reuse
        batch = rng.standard_normal((bucket, 3, 12, 12)).astype(dtype)
        with no_grad():
            expected = np.asarray(model(Tensor(batch, dtype=dtype)).data)
        got = session.run(batch)
        assert got.dtype == expected.dtype == dtype
        assert got.tobytes() == expected.tobytes()


def test_window_steps_never_hold_the_callers_batch():
    # An unpadded conv slices the caller's batch in place: its views are
    # built per call and dropped with it, the example's included.
    import gc
    import weakref

    rng = np.random.default_rng(18)
    model = nn.Sequential(nn.Conv2d(3, 4, 3, rng=rng), nn.MaxPool2d(2)).eval()
    example = rng.standard_normal((2, 3, 10, 10)).astype(np.float32)
    batch = rng.standard_normal((2, 3, 10, 10)).astype(np.float32)
    with using_codegen(False):
        session = compile_inference(model, example)
    for x in (example, batch, example):
        with no_grad():
            assert session.run(x).tobytes() == model(x).data.tobytes()
    held = [weakref.ref(example), weakref.ref(batch)]
    del example, batch, x
    gc.collect()
    assert [ref() for ref in held] == [None, None]


class _ScaleShiftRelu(nn.Module):
    """An elementwise tail the session planner joins to its linear's group."""

    def __init__(self, rng):
        super().__init__()
        self.lin = nn.Linear(12, 8, rng=rng)
        self.scale = nn.Parameter(Tensor(np.full((8,), 1.5, np.float32)))
        self.shift = nn.Parameter(Tensor(np.full((8,), -0.25, np.float32)))

    def forward(self, x):
        h = self.lin(x)
        return (h * self.scale + self.shift).relu()


@pytest.mark.parametrize("backend", BACKENDS)
def test_session_emits_region_kernel_and_stays_bit_equal(backend):
    rng = np.random.default_rng(9)
    model = _ScaleShiftRelu(rng).eval()
    x = rng.standard_normal((8, 12)).astype(np.float32)
    session = compile_inference(model, x)
    assert session.fused_counts == {}
    assert session.op_counts == {"linear": 1, "mul": 1, "add": 1, "relu": 1}
    if session._plan is not None:
        assert [g.ops for g in session._plan.groups] == [["linear", "mul", "add", "relu"]]
    for _ in range(3):
        batch = rng.standard_normal((8, 12)).astype(np.float32)
        with no_grad():
            expected = model(batch).data
        np.testing.assert_array_equal(session.run(batch), expected)


def test_parameters_are_bound_by_reference():
    rng = np.random.default_rng(4)
    model = nn.Sequential(nn.Linear(6, 3, rng=rng))
    model.eval()
    x = rng.standard_normal((4, 6)).astype(np.float32)
    session = compile_inference(model, x)
    before = session.run(x).copy()
    model[0].weight.data += 1.0  # in-place fine-tune; no recompile
    after = session.run(x)
    with no_grad():
        np.testing.assert_array_equal(after, model(x).data)
    assert not np.array_equal(before, after)


def test_batch_norm_statistics_are_frozen_at_compile():
    # The trace snapshots eval batch-norm statistics; later in-place updates
    # of the module's running buffers (more fine-tuning) must not leak into
    # a compiled session — mean and inv_std must stay a consistent pair
    # until recompile.
    rng = np.random.default_rng(16)
    model = nn.Sequential(nn.Linear(4, 4, rng=rng), nn.BatchNorm1d(4))
    _warm = rng.standard_normal((16, 4)).astype(np.float32)
    model(_warm).sum().backward()
    model.zero_grad()
    model.eval()
    x = rng.standard_normal((8, 4)).astype(np.float32)
    session = compile_inference(model, x)
    frozen = session.run(x).copy()
    model[1].running_mean += 100.0  # in-place stat mutation after compile
    np.testing.assert_array_equal(session.run(x), frozen)
    # Recompiling picks the new statistics up.
    recompiled = compile_inference(model, x)
    with no_grad():
        np.testing.assert_array_equal(recompiled.run(x), model(x).data)


def test_region_sessions_compile_per_trace_shapes():
    # One structure compiled at several batch sizes: each session's region
    # carries its own trace's shapes (regression: a structure-keyed plan
    # once handed a second session the first trace's shapes, and every
    # run() raised a region input shape mismatch).
    class Scale(nn.Module):
        def __init__(self):
            super().__init__()
            self.w = Tensor(np.full((8,), 2.0, np.float32), requires_grad=True)

        def forward(self, x):
            return (x * self.w + x).relu()

    model = Scale()
    model.eval()

    def batch(n):
        return np.arange(n * 8, dtype=np.float32).reshape(n, 8) - 16.0

    sessions = [(n, compile_inference(model, batch(n))) for n in (8, 4, 1, 8)]
    for n, session in sessions:
        x = batch(n)
        expected = np.maximum(x * 2.0 + x, 0.0)
        assert session.run(x).tobytes() == expected.tobytes()


def test_output_buffer_is_reused_across_calls():
    rng = np.random.default_rng(5)
    model = nn.Sequential(nn.Linear(4, 2, rng=rng), nn.ReLU())
    model.eval()
    x = rng.standard_normal((3, 4)).astype(np.float32)
    session = compile_inference(model, x)
    first = session.run(x)
    second = session.run(rng.standard_normal((3, 4)).astype(np.float32))
    assert first is second  # same buffer: copy it to keep it


def test_compile_accepts_tensor_and_array_examples():
    rng = np.random.default_rng(6)
    model = nn.Sequential(nn.Linear(4, 2, rng=rng))
    model.eval()
    x = rng.standard_normal((2, 4)).astype(np.float32)
    np.testing.assert_array_equal(
        compile_inference(model, Tensor(x)).run(x),
        compile_inference(model, x).run(Tensor(x)),
    )


def test_tbnet_compile_serving_roundtrip():
    manual_seed(8)
    model = TBNet(width=8)
    session = model.compile_serving(batch_size=4)
    assert isinstance(session, InferenceSession)
    assert not model.training  # compile_serving switches to eval
    images, context, _ = make_synthetic_batch(4, rng=np.random.default_rng(2))
    np.testing.assert_array_equal(
        session.run(images, context), model.infer(images, context)
    )


# --------------------------------------------------------------------------- #
# Rejection rules
# --------------------------------------------------------------------------- #
def test_loss_session_binds_new_labels():
    # A compiled trace containing softmax_cross_entropy must score the
    # labels passed to run(), not the example batch's labels.
    class LossModel(nn.Module):
        def __init__(self, rng):
            super().__init__()
            self.linear = nn.Linear(6, 4, rng=rng)

        def forward(self, x, labels):
            return F.softmax_cross_entropy(self.linear(x), labels, reduction="none")

    rng = np.random.default_rng(15)
    model = LossModel(rng)
    model.eval()
    x = rng.standard_normal((5, 6)).astype(np.float32)
    labels = Tensor(np.zeros(5, dtype=np.int64), dtype=np.int64)
    session = compile_inference(model, (x, labels))

    new_labels = np.array([3, 1, 2, 0, 1], dtype=np.int64)
    got = session.run(x, new_labels)
    with no_grad():
        expected = model(x, Tensor(new_labels, dtype=np.int64)).data
    np.testing.assert_array_equal(got, expected)
    assert not np.array_equal(got, session.run(x, labels))  # labels matter


def test_train_mode_model_is_rejected():
    model = _mlp(np.random.default_rng(0))
    x = np.zeros((4, 12), dtype=np.float32)
    with pytest.raises(ValueError, match="eval mode"):
        compile_inference(model, x)
    model.eval()
    model[1].train()  # one stray submodule is enough
    with pytest.raises(ValueError, match="train mode"):
        compile_inference(model, x)


def test_train_mode_functional_nodes_are_rejected():
    class SneakyDropout(nn.Module):
        def forward(self, x):
            return F.dropout(x, p=0.5, training=True)  # ignores module mode

    model = SneakyDropout()
    model.eval()
    with pytest.raises(ValueError, match="dropout"):
        compile_inference(model, np.zeros((4, 3), dtype=np.float32))

    class SneakyBatchNorm(nn.Module):
        def forward(self, x):
            return F.batch_norm(x, training=True)

    model = SneakyBatchNorm()
    model.eval()
    with pytest.raises(ValueError, match="train-mode batch_norm"):
        compile_inference(model, np.zeros((4, 3), dtype=np.float32))


def test_shape_and_arity_mismatches_raise():
    rng = np.random.default_rng(7)
    model = nn.Sequential(nn.Linear(6, 2, rng=rng))
    model.eval()
    session = compile_inference(model, rng.standard_normal((8, 6)).astype(np.float32))
    with pytest.raises(ValueError, match="compiled for"):
        session.run(np.zeros((4, 6), dtype=np.float32))  # wrong batch
    with pytest.raises(ValueError, match="compiled for"):
        session.run(np.zeros((8, 5), dtype=np.float32))  # wrong features
    with pytest.raises(ValueError, match="input"):
        session.run()  # wrong arity


def test_non_module_model_is_rejected():
    with pytest.raises(TypeError, match="Module"):
        compile_inference(lambda x: x, np.zeros((1, 2), dtype=np.float32))


# --------------------------------------------------------------------------- #
# Micro-batching
# --------------------------------------------------------------------------- #
def test_serve_batches_chunks_and_pads():
    manual_seed(11)
    model = TBNet(width=8)
    model.eval()
    images, context, _ = make_synthetic_batch(8, rng=np.random.default_rng(3))
    session = compile_inference(model, (images, context))

    n = 21  # 2 full chunks of 8 + a partial chunk of 5
    big_i, big_c, _ = make_synthetic_batch(n, rng=np.random.default_rng(4))
    out = serve_batches(session, (big_i, big_c))
    assert out.shape == (n, model.num_classes)

    for start in (0, 8):
        chunk = session.run(
            big_i.data[start : start + 8], big_c.data[start : start + 8]
        )
        np.testing.assert_array_equal(out[start : start + 8], chunk)
    # The odd-sized tail is served by the eager forward of those 5 samples.
    np.testing.assert_array_equal(
        out[16:], model.infer(big_i.data[16:], big_c.data[16:])
    )


def test_serve_batches_partial_chunk_is_exact_for_cross_sample_traces():
    # Eval batch-norm *without* running statistics normalizes with the
    # micro-batch's own statistics: a zero-padded replay of the final
    # partial chunk would corrupt the real rows, so that chunk must run
    # through the model's eager forward instead.
    rng = np.random.default_rng(12)
    model = nn.Sequential(
        nn.Linear(4, 4, rng=rng), nn.BatchNorm1d(4, track_running_stats=False)
    )
    model.eval()
    example = rng.standard_normal((4, 4)).astype(np.float32)
    session = compile_inference(model, example)
    assert session.has_batch_statistics
    data = rng.standard_normal((6, 4)).astype(np.float32)
    out = serve_batches(session, data)
    np.testing.assert_array_equal(out[:4], session.run(data[:4]))
    with no_grad():
        tail = model(data[4:]).data  # stats over exactly the 2 real rows
    np.testing.assert_array_equal(out[4:], tail)


def test_serve_batches_eager_tail_rejects_retrained_models():
    rng = np.random.default_rng(14)
    model = nn.Sequential(nn.Linear(4, 2, rng=rng))
    model.eval()
    session = compile_inference(model, rng.standard_normal((4, 4)).astype(np.float32))
    model.train()  # user flipped the model back after compiling
    with pytest.raises(RuntimeError, match="train mode"):
        serve_batches(session, rng.standard_normal((5, 4)).astype(np.float32))
    # Whole chunks never touch the eager path and keep working.
    assert serve_batches(session, rng.standard_normal((4, 4)).astype(np.float32)).shape == (4, 2)


def test_serve_batches_refuses_reduced_outputs():
    class MeanHead(nn.Module):
        def forward(self, x):
            return Tensor._wrap(x).sum(axis=0)  # couples the whole batch

    model = MeanHead()
    model.eval()
    session = compile_inference(model, np.zeros((4, 3), dtype=np.float32))
    with pytest.raises(ValueError, match="per-sample"):
        serve_batches(session, np.zeros((8, 3), dtype=np.float32))


def test_serve_batches_validates_inputs():
    rng = np.random.default_rng(9)
    model = nn.Sequential(nn.Linear(4, 2, rng=rng))
    model.eval()
    session = compile_inference(model, rng.standard_normal((8, 4)).astype(np.float32))
    out = serve_batches(session, rng.standard_normal((3, 4)).astype(np.float32))
    assert out.shape == (3, 2)  # single partial chunk works
    assert serve_batches(session, np.zeros((0, 4), dtype=np.float32)).shape == (0, 2)
    with pytest.raises(ValueError, match="per-sample shape"):
        serve_batches(session, np.zeros((5, 3), dtype=np.float32))
    with pytest.raises(ValueError, match="out has shape"):
        serve_batches(
            session,
            np.zeros((5, 4), dtype=np.float32),
            out=np.zeros((4, 2), dtype=np.float32),
        )
    with pytest.raises(ValueError, match="out has dtype"):
        serve_batches(
            session,
            np.zeros((5, 4), dtype=np.float32),
            out=np.zeros((5, 2), dtype=np.int64),  # would silently truncate
        )


def test_detach_in_the_forward_is_replayed_not_frozen():
    # detach() stops gradients, not data flow: a captured trace records it
    # as an identity node, so serving recomputes the detached branch from
    # each new batch instead of freezing the example activations.
    class DetachMix(nn.Module):
        def __init__(self, rng):
            super().__init__()
            self.lin = nn.Linear(8, 3, rng=rng)

        def forward(self, x):
            h = self.lin(x)
            return h + h.detach()

    rng = np.random.default_rng(19)
    model = DetachMix(rng)
    model.eval()
    session = compile_inference(model, rng.standard_normal((3, 8)).astype(np.float32))
    new = rng.standard_normal((3, 8)).astype(np.float32)
    with no_grad():
        expected = model(new).data
    np.testing.assert_array_equal(session.run(new), expected)


def test_compile_rejects_rewrapped_activations():
    # Re-wrapping intermediate data in a fresh Tensor escapes the tape; the
    # compiler must refuse rather than silently freeze the example batch.
    class Rewrap(nn.Module):
        def __init__(self, rng):
            super().__init__()
            self.lin = nn.Linear(4, 4, rng=rng)

        def forward(self, x):
            h = self.lin(x)
            return Tensor._wrap(x) + Tensor(h.data)  # escapes the trace

    model = Rewrap(np.random.default_rng(20))
    model.eval()
    with pytest.raises(ValueError, match="aliasing a batch-dependent"):
        compile_inference(model, np.zeros((2, 4), dtype=np.float32))


def test_compile_rejects_rewrapped_inputs():
    class RewrapInput(nn.Module):
        def __init__(self, rng):
            super().__init__()
            self.lin = nn.Linear(4, 2, rng=rng)

        def forward(self, x):
            return self.lin(Tensor(x.data))  # freezes the example input

    model = RewrapInput(np.random.default_rng(21))
    model.eval()
    with pytest.raises(ValueError, match="batch-dependent"):
        compile_inference(model, np.zeros((2, 4), dtype=np.float32))


def test_compile_rejects_constant_labels():
    frozen = np.array([0, 1, 0], dtype=np.int64)

    class LossWithBakedLabels(nn.Module):
        def __init__(self, rng):
            super().__init__()
            self.lin = nn.Linear(4, 2, rng=rng)

        def forward(self, x):
            # Plain-array labels become a trace constant: every replay would
            # silently score these, so compile must refuse.
            return F.softmax_cross_entropy(self.lin(x), frozen, reduction="none")

    model = LossWithBakedLabels(np.random.default_rng(22))
    model.eval()
    with pytest.raises(ValueError, match="targets are a constant"):
        compile_inference(model, np.zeros((3, 4), dtype=np.float32))


def test_compile_rejects_array_indexed_gathers():
    # An ndarray getitem index is frozen into the trace, and whether it was
    # computed from the batch is undecidable (argsort results don't alias
    # their source) — compile refuses instead of silently replaying the
    # example batch's gather pattern.
    class SortByFirst(nn.Module):
        def forward(self, x):
            x = Tensor._wrap(x)
            return x[np.argsort(x.data[:, 0])]

    model = SortByFirst()
    model.eval()
    with pytest.raises(ValueError, match="ndarray index"):
        compile_inference(model, np.zeros((4, 3), dtype=np.float32))

    class StaticSlice(nn.Module):
        def forward(self, x):
            return Tensor._wrap(x)[:, 1:3]  # static slices stay compilable

    model = StaticSlice()
    model.eval()
    x = np.random.default_rng(23).standard_normal((4, 5)).astype(np.float32)
    np.testing.assert_array_equal(
        compile_inference(model, x).run(x), x[:, 1:3]
    )


def test_compile_rejects_ops_without_an_evaluator():
    from repro.autograd.tensor import Tensor as T

    class CustomOp(nn.Module):
        def forward(self, x):
            x = T._wrap(x)
            # A custom op recorded straight onto the tape with no op table
            # entry: compile must fail fast, not run() later.
            return T._make(
                x.data * 2.0, (x,), "my_custom_double", lambda out: (lambda: None)
            )

    model = CustomOp()
    model.eval()
    with pytest.raises(ValueError, match="my_custom_double"):
        compile_inference(model, np.zeros((2, 3), dtype=np.float32))


# --------------------------------------------------------------------------- #
# Dtype contract
# --------------------------------------------------------------------------- #
def test_run_rejects_dtype_mismatched_inputs():
    # A silent cast abandoned the pre-allocated buffers' bit-equality
    # contract; dtype is part of the compiled signature, like shape.
    rng = np.random.default_rng(24)
    model = nn.Sequential(nn.Linear(4, 2, rng=rng))
    model.eval()
    session = compile_inference(model, rng.standard_normal((4, 4)).astype(np.float32))
    with pytest.raises(ValueError, match="dtype"):
        session.run(rng.standard_normal((4, 4)))  # float64 into f32 session
    # The float64-compiled direction: a float32 batch must be rejected too.
    session64 = compile_inference(
        model, Tensor(rng.standard_normal((4, 4)), dtype=np.float64)
    )
    assert session64.input_dtypes == [np.dtype(np.float64)]
    with pytest.raises(ValueError, match="dtype"):
        session64.run(rng.standard_normal((4, 4)).astype(np.float32))
    out = session64.run(rng.standard_normal((4, 4)))
    assert out.dtype == np.float64


def test_serve_batches_rejects_dtype_mismatched_inputs():
    rng = np.random.default_rng(25)
    model = nn.Sequential(nn.Linear(4, 2, rng=rng))
    model.eval()
    session = compile_inference(model, rng.standard_normal((8, 4)).astype(np.float32))
    with pytest.raises(ValueError, match="dtype"):
        serve_batches(session, rng.standard_normal((5, 4)))  # f64 stream
    with pytest.raises(ValueError, match="dtype"):
        serve_batches(session, rng.standard_normal((8, 4)))  # full chunk too


def test_compile_preserves_ndarray_example_dtype():
    # A float64 ndarray example used to be folded to the Tensor float32
    # default, silently compiling a session of the wrong dtype.
    rng = np.random.default_rng(26)
    model = nn.Sequential(nn.Linear(4, 3, rng=rng))
    model.eval()
    example = rng.standard_normal((2, 4))  # float64 ndarray
    session = compile_inference(model, example)
    assert session.input_dtypes == [np.dtype(np.float64)]
    assert session.output_dtype == np.float64
    batch = rng.standard_normal((2, 4))
    with no_grad():
        expected = model(Tensor(batch, dtype=np.float64)).data
    np.testing.assert_array_equal(session.run(batch), expected)


def test_serve_batches_zero_sample_stream_is_pinned():
    # An empty stream yields an empty (0, ...) result of the output dtype
    # without touching the session or the eager path — pinned behavior,
    # not an accident of the chunk loop.
    rng = np.random.default_rng(27)
    model = nn.Sequential(nn.Linear(4, 2, rng=rng))
    model.eval()
    session = compile_inference(model, rng.standard_normal((8, 4)).astype(np.float32))
    model.train()  # would make any eager-tail touch raise
    out = serve_batches(session, np.zeros((0, 4), dtype=np.float32))
    assert out.shape == (0, 2)
    assert out.dtype == session.output_dtype
    model.eval()
