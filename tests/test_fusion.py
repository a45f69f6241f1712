"""Fusion-pass tests: pattern rewrites, bit-exactness, toggles, retain_graph."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, functional as F, fusion, ir
from repro.backend import use_backend
from repro.models import TBNet, make_synthetic_batch
from repro.nn.init import manual_seed

#: ``fused`` names a second NumpyBackend instance (the conftest ``backend``
#: fixture registers it for one test), kept so the case ids stay stable.
BACKENDS = ("numpy", "fused")


def _grads(params):
    return [None if p.grad is None else p.grad.copy() for p in params]


# --------------------------------------------------------------------------- #
# Pattern rewrites
# --------------------------------------------------------------------------- #
def test_linear_relu_fuses_into_one_node():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2)).astype(np.float32), requires_grad=True)
    out = F.linear(x, w).relu()
    stats = fusion.fuse(out)
    assert stats == {"linear_relu": 1}
    assert out._node.op == "linear_relu"
    assert out._node.inputs == (x, w)


def test_mul_add_relu_chain_becomes_one_region():
    # mul → add → relu: the whole elementwise chain collapses into one
    # region node (the old pass could only take the mul+add pair).
    x = Tensor([1.0, -2.0], requires_grad=True)
    s = Tensor([3.0, 4.0], requires_grad=True)
    t = Tensor([0.5, 0.5], requires_grad=True)
    out = (x * s + t).relu()
    stats = fusion.fuse(out)
    assert stats == {"region": 1}
    assert out._node.op == "region"
    assert out._node.attrs["size"] == 3
    assert [op for op, _ in out._node.attrs["region"].ops] == ["mul", "add", "relu"]
    assert out._node.inputs == (x, s, t)


def test_add_relu_fuses_into_a_region():
    a = Tensor([1.0, -2.0], requires_grad=True)
    b = Tensor([3.0, -4.0], requires_grad=True)
    out = (a + b).relu()
    assert fusion.fuse(out) == {"region": 1}
    assert out._node.op == "region"
    assert out._node.attrs["size"] == 2


def test_region_matches_either_addend_side():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    c = Tensor([5.0, 6.0], requires_grad=True)
    out = c + a * b  # the mul is the *right* operand of add
    assert fusion.fuse(out) == {"region": 1}
    out.backward(np.ones(2, dtype=np.float32))
    np.testing.assert_array_equal(a.grad, b.data)
    np.testing.assert_array_equal(c.grad, [1.0, 1.0])


def test_shared_intermediate_is_not_fused():
    # The linear output feeds both the relu and a second consumer: fusing
    # would change accumulation order (and lose the intermediate), so the
    # pass must leave the chain alone.
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2)).astype(np.float32), requires_grad=True)
    h = F.linear(x, w)
    out = h.relu().sum() + h.sum()
    assert fusion.fuse(out) == {}
    out.backward()
    assert x.grad is not None


def test_fused_away_intermediate_gets_no_transient_grad():
    x = Tensor([[1.0, -1.0]], requires_grad=True)
    w = Tensor(np.eye(2, dtype=np.float32), requires_grad=True)
    h = F.linear(x, w)
    out = h.relu().sum()
    fusion.fuse(out)
    out.backward()
    assert h.grad is None  # bypassed like a PyTorch non-leaf
    assert x.grad is not None and w.grad is not None


# --------------------------------------------------------------------------- #
# Bit-exactness against the unfused tape
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("pattern", ["linear_relu", "mul_add", "add_relu", "bn_relu_train", "bn_relu_eval"])
def test_fused_backward_is_bit_identical(backend, pattern):
    rng = np.random.default_rng(7)

    def build():
        x = Tensor(rng.standard_normal((6, 4)).astype(np.float32), requires_grad=True)
        if pattern == "linear_relu":
            w = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
            b = Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
            return [x, w, b], lambda p: F.linear(p[0], p[1], p[2]).relu().sum()
        if pattern == "mul_add":
            s = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
            t = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
            return [x, s, t], lambda p: (p[0] * p[1] + p[2]).sum()
        if pattern == "add_relu":
            b = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
            return [x, b], lambda p: (p[0] + p[1]).relu().sum()
        gamma = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
        beta = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
        if pattern == "bn_relu_train":
            return [x, gamma, beta], lambda p: F.batch_norm(
                p[0], p[1], p[2], training=True
            ).relu().sum()
        rm = np.zeros(4, dtype=np.float32)
        rv = np.ones(4, dtype=np.float32)
        return [x, gamma, beta], lambda p: F.batch_norm(
            p[0], p[1], p[2], running_mean=rm, running_var=rv, training=False
        ).relu().sum()

    with use_backend(backend):
        params, loss_fn = build()

        loss_fn(params).backward()
        reference = _grads(params)
        ref_loss = loss_fn(params).data  # identical forward value check

        for p in params:
            p.grad = None
        loss = loss_fn(params)
        stats = fusion.fuse(loss)
        assert sum(stats.values()) == 1, f"expected one fusion, got {stats}"
        np.testing.assert_array_equal(loss.data, ref_loss)
        loss.backward()
        for got, want in zip(_grads(params), reference):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_tbnet_fused_train_step_is_bit_identical(backend):
    """Full two-branch model: forward loss, every parameter gradient and the
    batch-norm running statistics are bit-equal with and without fusion."""
    with use_backend(backend):
        def run(fused: bool):
            manual_seed(123)  # identical init + dropout masks
            model = TBNet(width=8, dropout=0.25)
            images, context, targets = make_synthetic_batch(
                16, rng=np.random.default_rng(5)
            )
            with fusion.using_fusion(fused):
                loss = model.loss(images, context, targets)
                loss.backward()
            grads = {k: p.grad.copy() for k, p in model.named_parameters()}
            stats = {k: b.copy() for k, b in model.named_buffers()}
            return loss.data, grads, stats

        loss_a, grads_a, stats_a = run(False)
        loss_b, grads_b, stats_b = run(True)
        np.testing.assert_array_equal(loss_a, loss_b)
        assert grads_a.keys() == grads_b.keys()
        for key in grads_a:
            np.testing.assert_array_equal(grads_a[key], grads_b[key], err_msg=key)
        for key in stats_a:
            np.testing.assert_array_equal(stats_a[key], stats_b[key], err_msg=key)


# --------------------------------------------------------------------------- #
# retain_graph interaction
# --------------------------------------------------------------------------- #
def test_retain_graph_replays_the_fused_graph():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((5, 3)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2)).astype(np.float32), requires_grad=True)

    loss = F.linear(x, w).relu().sum()
    loss.backward(retain_graph=True)
    once = w.grad.copy()
    loss.backward(retain_graph=True)
    np.testing.assert_array_equal(w.grad, once * 2.0)  # leaves accumulate

    for t in (x, w):
        t.grad = None
    with fusion.using_fusion(True):
        loss2 = F.linear(x, w).relu().sum()
        loss2.backward(retain_graph=True)
        assert loss2._node.inputs[0]._node.op == "linear_relu"
        np.testing.assert_array_equal(w.grad, once)
        loss2.backward(retain_graph=True)  # cached topo over fused nodes
        np.testing.assert_array_equal(w.grad, once * 2.0)
        loss2.backward()  # final pass frees the fused graph
        np.testing.assert_array_equal(w.grad, once * 3.0)
        with pytest.raises(RuntimeError, match="already been freed"):
            loss2.backward()


def test_explicit_fuse_then_retained_double_backward_matches_unfused():
    a = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    b = Tensor([0.5, 0.5, 0.5], requires_grad=True)
    loss = (a * b + a).sum()
    fusion.fuse(loss)
    assert loss._node.op == "sum"
    loss.backward(retain_graph=True)
    first = a.grad.copy()
    loss.backward()
    np.testing.assert_array_equal(a.grad, first * 2.0)
    np.testing.assert_array_equal(first, b.data + 1.0)


# --------------------------------------------------------------------------- #
# Toggles
# --------------------------------------------------------------------------- #
def test_bypassed_producer_is_freed_with_its_fused_node():
    # The mul node is routed around by the fusion rewrite; freeing the fused
    # graph must free it too, so a later backward through the retained
    # intermediate raises instead of silently double-accumulating.
    with fusion.using_fusion(True):
        x = Tensor([2.0], requires_grad=True)
        y = Tensor([3.0], requires_grad=True)
        c = Tensor([1.0], requires_grad=True)
        inter = x * y
        loss = (inter + c).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, [3.0])
        with pytest.raises(RuntimeError, match="already been freed"):
            inter.backward(np.ones(1, dtype=np.float32))
        np.testing.assert_array_equal(x.grad, [3.0])  # untouched
        assert inter._node.inputs == () and inter._node.out is None


def test_fused_graph_is_collectable_without_gc():
    # The free pass must drop the bypassed producer's closures too, so the
    # whole fused graph is reclaimed by refcounting alone.
    import gc
    import weakref

    with fusion.using_fusion(True):
        x = Tensor([1.0], requires_grad=True)
        inter = x * 2.0
        loss = (inter + 1.0).sum()
        refs = [weakref.ref(inter), weakref.ref(loss)]
        loss.backward()
        gc.disable()
        try:
            del inter, loss
            assert all(r() is None for r in refs)
        finally:
            gc.enable()


def test_freed_graph_backward_still_raises_the_sentinel_under_fusion():
    # The pass must skip freed nodes (inputs/attrs are gone) so the second
    # backward reaches the freed-graph sentinel, not an IndexError.
    with fusion.using_fusion(True):
        x = Tensor([1.0, -2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        z = (x * y).relu()
        z.backward(np.ones(2, dtype=np.float32))
        with pytest.raises(RuntimeError, match="already been freed"):
            z.backward(np.ones(2, dtype=np.float32))

        a = Tensor([2.0], requires_grad=True)
        h = a * a
        l1 = h.sum()
        l2 = (h * 2.0).sum()
        l1.backward()  # frees h's node
        with pytest.raises(RuntimeError, match="already been freed"):
            l2.backward()  # walks through the freed shared node

        # A freed producer must not be picked up as a fusion candidate: the
        # linear node below is freed by z2's pass, and z1's relu would fuse
        # with it if the pass did not skip freed nodes.
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)).astype(np.float32), requires_grad=True)
        y = F.linear(x, w)
        z1 = y.relu().sum()
        z2 = (y * 2.0).sum()
        z2.backward()
        with pytest.raises(RuntimeError, match="already been freed"):
            z1.backward()


def _primitives_only_backend():
    """A third-party backend exposing the pre-IR ArrayBackend surface only
    (no linear_relu/bn_normalize_relu/relu_grad, no compile_region)."""
    from repro.backend.numpy_backend import NumpyBackend

    reference = NumpyBackend()

    class PrimitivesOnly:
        name = "primitives-only"

    for method in (
        "empty", "zeros", "add", "multiply", "divide", "negative", "power", "matmul",
        "exp", "log", "sqrt", "tanh", "sum", "mean", "var", "amax", "pad",
        "random_uniform", "standard_normal", "uniform", "relu", "sigmoid",
        "linear", "softmax",
        "softmax_grad", "log_softmax", "log_softmax_grad", "xent_grad",
        "bn_normalize", "bn_input_grad", "dropout_mask", "sgd_update",
        "adam_update",
    ):
        setattr(PrimitivesOnly, method, staticmethod(getattr(reference, method)))
    backend = PrimitivesOnly()
    assert not hasattr(backend, "linear_relu")
    return backend


def test_backends_without_composites_are_not_fused():
    # A backend implementing only the documented primitive surface must get
    # no fusion (instead of an AttributeError mid-backward or mid-replay).
    from repro.backend import set_backend

    rng = np.random.default_rng(17)
    previous = set_backend("numpy")
    try:
        set_backend(_primitives_only_backend())
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)).astype(np.float32), requires_grad=True)
        s = Tensor(rng.standard_normal(2).astype(np.float32), requires_grad=True)
        with fusion.using_fusion(True):
            out = F.linear(x, w).relu()
            loss = (out * s + 1.0).sum()
            assert fusion.fuse(loss) == {}  # every pattern declined
            loss.backward()
        assert all(t.grad is not None for t in (x, w, s))
    finally:
        set_backend(previous)


def test_serving_compiles_unfused_on_composite_less_backends():
    from repro.backend import set_backend
    from repro.serve import compile_inference

    rng = np.random.default_rng(18)
    model = nn.Sequential(nn.Linear(5, 4, rng=rng), nn.ReLU())
    model.eval()
    x = rng.standard_normal((3, 5)).astype(np.float32)
    previous = set_backend("numpy")
    try:
        set_backend(_primitives_only_backend())
        session = compile_inference(model, x)  # fuse=True, silently declined
        assert session.fused_counts == {}
        from repro.autograd import no_grad
        with no_grad():
            expected = model(x).data
        np.testing.assert_array_equal(session.run(x), expected)
    finally:
        set_backend(previous)


def test_repro_fusion_env_toggle(monkeypatch):
    monkeypatch.delenv("REPRO_FUSION", raising=False)
    fusion.enable_fusion(None)
    assert not fusion.fusion_enabled()
    for value in ("1", "on", "trace"):
        monkeypatch.setenv("REPRO_FUSION", value)
        assert fusion.fusion_enabled()
    for value in ("0", "off", "false", "no", ""):
        monkeypatch.setenv("REPRO_FUSION", value)
        assert not fusion.fusion_enabled()
    monkeypatch.setenv("REPRO_FUSION", "0")
    with fusion.using_fusion(True):
        assert fusion.fusion_enabled()  # override beats the environment
    assert not fusion.fusion_enabled()


def test_backward_runs_the_pass_only_when_enabled():
    x = Tensor([[1.0, -1.0]], requires_grad=True)
    w = Tensor(np.eye(2, dtype=np.float32), requires_grad=True)

    with fusion.using_fusion(False):
        out = F.linear(x, w).relu().sum()
        out.backward(retain_graph=True)
        assert out._node.inputs[0]._node.op == "relu"

    x.grad = None
    w.grad = None
    with fusion.using_fusion(True):
        out = F.linear(x, w).relu().sum()
        out.backward(retain_graph=True)
        assert out._node.inputs[0]._node.op == "linear_relu"


def test_fusion_applies_inside_nn_modules():
    manual_seed(0)
    model = nn.Sequential(nn.Linear(6, 4), nn.ReLU(), nn.Linear(4, 2), nn.ReLU())
    x = np.random.default_rng(2).standard_normal((3, 6)).astype(np.float32)
    with fusion.using_fusion(True):
        out = model(x)
        loss = out.sum()
        loss.backward()
    assert out._node.op == "linear_relu"
    assert all(p.grad is not None for p in model.parameters())


# --------------------------------------------------------------------------- #
# Structured capture regions: reduction tails
# --------------------------------------------------------------------------- #
def test_captured_reduction_tail_joins_the_region():
    rng = np.random.default_rng(19)
    a = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    b = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    from repro.autograd import no_grad

    with no_grad(), ir.capture():
        out = (a * b).sum(axis=-1)
    assert fusion.fuse(out) == {"region": 1}
    assert out._node.op == "region"
    region = out._node.attrs["region"]
    assert region.ops == (("mul", (0, 1)), ("sum", (2,), (1, False)))
    assert not region.is_elementwise


def test_captured_mean_tail_fuses_with_its_epilogue():
    # Tensor.mean lowers to sum + div-by-count: both join one region, the
    # division riding along as a post-reduce elementwise stage.
    rng = np.random.default_rng(20)
    a = Tensor(rng.standard_normal((3, 16)).astype(np.float32))
    b = Tensor(rng.standard_normal((3, 16)).astype(np.float32))
    from repro.autograd import no_grad

    with no_grad(), ir.capture():
        out = (a * b).relu().mean(axis=-1)
    assert fusion.fuse(out) == {"region": 1}
    ops = [op[0] for op in out._node.attrs["region"].ops]
    assert ops == ["mul", "relu", "sum", "div"]


def test_training_sum_is_not_absorbed_into_regions():
    # Training tapes keep their sum nodes: the region backward covers only
    # elementwise programs, and training nodes carry no axis metadata.
    rng = np.random.default_rng(21)
    a = Tensor(rng.standard_normal((4, 8)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 8)).astype(np.float32), requires_grad=True)
    out = (a * b).sum(axis=-1)
    fusion.fuse(out)
    assert out._node.op == "sum"


# --------------------------------------------------------------------------- #
# Multi-consumer regions: duplicated cheap producers
# --------------------------------------------------------------------------- #
def test_fanout_producer_is_duplicated_into_one_region():
    # p feeds two eligible elementwise consumers: instead of refusing the
    # whole chain, the pass recomputes p inside the region and routes its
    # gradient through the external accumulation path.
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    y = Tensor([0.5, 4.0, -1.5], requires_grad=True)
    p = x * y
    out = p.relu() + (-p)
    assert fusion.fuse(out) == {"region": 1}
    assert out._node.op == "region"
    # p's node survives (it owes its own VJP), unlike single-consumer
    # members which are bypassed and freed with the region.
    assert p._node.out is not None


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("codegen", [False, True])
def test_duplicated_producer_gradients_bit_identical(backend, codegen):
    from repro.codegen import using_codegen

    def run(fused: bool):
        rng = np.random.default_rng(23)
        with use_backend(backend):
            x = Tensor(
                rng.standard_normal((5, 7)).astype(np.float32), requires_grad=True
            )
            y = Tensor(
                rng.standard_normal((5, 7)).astype(np.float32), requires_grad=True
            )
            with fusion.using_fusion(fused), using_codegen(codegen):
                p = x * y
                loss = (p.relu() * x + (-p) * y).sum()
                loss.backward()
            return loss.data.copy(), x.grad.copy(), y.grad.copy()

    for want, got in zip(run(False), run(True)):
        np.testing.assert_array_equal(want, got)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_self_fanout_square_gradients_bit_identical(backend):
    # mul(p, p): both consumer edges are the same node — the duplication
    # bookkeeping must count it as one fan-out of two uses.
    def run(fused: bool):
        rng = np.random.default_rng(29)
        with use_backend(backend):
            x = Tensor(
                rng.standard_normal((6,)).astype(np.float32), requires_grad=True
            )
            y = Tensor(
                rng.standard_normal((6,)).astype(np.float32), requires_grad=True
            )
            with fusion.using_fusion(fused):
                p = x * y
                loss = ((p * p) + x).sum()
                loss.backward()
            return loss.data.copy(), x.grad.copy(), y.grad.copy()

    for want, got in zip(run(False), run(True)):
        np.testing.assert_array_equal(want, got)


def test_three_way_fanout_is_still_refused():
    # Three consumers would need a three-term gradient accumulation whose
    # grouping differs from eager; the pass must leave the graph alone.
    x = Tensor([1.0, -2.0], requires_grad=True)
    y = Tensor([3.0, 0.5], requires_grad=True)
    p = x * y
    out = p.relu() + (-p) + p * y
    stats = fusion.fuse(out)
    assert p._node.out is not None
    out.backward(np.ones(2, dtype=np.float32))
    # Reference grads from the eager formula.
    relu_mask = (p.data > 0).astype(np.float32)
    dp = relu_mask - 1.0 + y.data
    np.testing.assert_array_equal(x.grad, dp * y.data)


# --------------------------------------------------------------------------- #
# Serving sessions over structured regions
# --------------------------------------------------------------------------- #
class _MeanTailModel(nn.Module):
    """Linear+relu trunk with a fused mean-over-features head."""

    def __init__(self, rng):
        super().__init__()
        self.proj = nn.Linear(8, 6, rng=rng)

    def forward(self, x):
        h = self.proj(x).relu()
        return (h * 2.0 + 1.0).mean(axis=-1)


@pytest.mark.parametrize("codegen", [False, True])
def test_session_with_reduction_tail_matches_eager(codegen):
    from repro.autograd import no_grad
    from repro.codegen import using_codegen
    from repro.serve import compile_inference

    rng = np.random.default_rng(33)
    model = _MeanTailModel(np.random.default_rng(7))
    model.eval()
    x = rng.standard_normal((4, 8)).astype(np.float32)
    with no_grad():
        expected = model(x).data
    with fusion.using_fusion(True), using_codegen(codegen):
        session = compile_inference(model, x)
        assert session.fused_counts.get("region", 0) >= 1
        got = session.run(x)
    assert got.tobytes() == expected.tobytes()
    # Replay respecializes per bucket: a second batch reuses the session.
    x2 = rng.standard_normal((4, 8)).astype(np.float32)
    with no_grad():
        expected2 = model(x2).data
    assert session.run(x2).tobytes() == expected2.tobytes()
