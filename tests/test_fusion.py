"""Fusion-pass tests: regions over captured traces, and training graphs left
alone."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, functional as F, fusion, ir, no_grad
from repro.nn.init import manual_seed


def _replays(out):
    """The fused root node, re-run over its inputs, gives the eager bytes."""
    node = out._node
    xs = tuple(t.data for t in node.inputs)
    got = ir.OPS[node.op].forward(None, xs, node.attrs, None)[0]
    assert got.tobytes() == out.data.tobytes()


# --------------------------------------------------------------------------- #
# Regions
# --------------------------------------------------------------------------- #
def test_linear_relu_fuses_into_one_node():
    # A region with a linear head: the GEMM stays on the host, the relu
    # joins the region's loop.
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
    w = Tensor(rng.standard_normal((3, 2)).astype(np.float32))
    with no_grad(), ir.capture():
        out = F.linear(x, w).relu()
    stats = fusion.fuse(out)
    assert stats == {"region": 1}
    assert out._node.op == "region"
    assert out._node.inputs == (x, w)
    assert out._node.attrs["region"].ops == (("linear", (0, 1)), ("relu", (2,)))
    _replays(out)


def test_mul_add_relu_chain_becomes_one_region():
    # mul → add → relu: the whole elementwise chain collapses into one
    # region node.
    x = Tensor([1.0, -2.0])
    s = Tensor([3.0, 4.0])
    t = Tensor([0.5, 0.5])
    with no_grad(), ir.capture():
        out = (x * s + t).relu()
    stats = fusion.fuse(out)
    assert stats == {"region": 1}
    assert out._node.op == "region"
    assert out._node.attrs["size"] == 3
    assert [op for op, _ in out._node.attrs["region"].ops] == ["mul", "add", "relu"]
    assert out._node.inputs == (x, s, t)
    _replays(out)


def test_add_relu_fuses_into_a_region():
    a = Tensor([1.0, -2.0])
    b = Tensor([3.0, -4.0])
    with no_grad(), ir.capture():
        out = (a + b).relu()
    assert fusion.fuse(out) == {"region": 1}
    assert out._node.op == "region"
    assert out._node.attrs["size"] == 2


def test_region_matches_either_addend_side():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 4.0])
    c = Tensor([5.0, 6.0])
    with no_grad(), ir.capture():
        out = c + a * b  # the mul is the *right* operand of add
    assert fusion.fuse(out) == {"region": 1}
    # c takes slot 0 only after the mul's operands: slots go in member order.
    assert out._node.inputs == (a, b, c)
    assert out._node.attrs["region"].ops == (("mul", (0, 1)), ("add", (2, 3)))
    _replays(out)


def test_shared_intermediate_is_not_fused():
    # The linear output feeds both the relu and a second consumer: fusing
    # would lose the intermediate the other consumer reads, so the linear
    # stays a node of its own and feeds its consumers' region.
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
    w = Tensor(rng.standard_normal((3, 2)).astype(np.float32))
    with no_grad(), ir.capture():
        h = F.linear(x, w)
        out = h.relu().sum() + h.sum()
    assert fusion.fuse(out) == {"region": 1}
    assert h._node.op == "linear" and out._node.inputs == (h,)
    _replays(out)


def test_fusion_applies_inside_nn_modules():
    manual_seed(0)
    model = nn.Sequential(nn.Linear(6, 4), nn.ReLU(), nn.Linear(4, 2), nn.ReLU())
    model.eval()
    x = np.random.default_rng(2).standard_normal((3, 6)).astype(np.float32)
    with no_grad(), ir.capture():
        out = model(x)
    assert fusion.fuse(out) == {"region": 2}
    assert out._node.op == "region"
    assert out._node.inputs[0]._node.op == "region"


# --------------------------------------------------------------------------- #
# Training graphs: nodes with a backward thunk are never members
# --------------------------------------------------------------------------- #
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


@pytest.mark.parametrize("pattern", ["linear_relu", "region", "fanout", "bn_relu_train"])
def test_fuse_leaves_a_training_graph_untouched(pattern):
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((6, 4)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
    g = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
    params = [x, w, g, b]

    def loss_fn():
        if pattern == "linear_relu":
            return (F.linear(x, w, b).relu() * g).sum()
        if pattern == "region":
            return (((x * g + b).relu() * b) @ w).sum()
        if pattern == "fanout":
            p = x * g
            return ((p.relu() * x + (-p) * b) @ w).sum()
        return F.batch_norm(x, g, b, training=True).relu().sum() + w.sum()

    loss_fn().backward()
    want = [p.grad.tobytes() for p in params]
    for p in params:
        p.grad = None
    loss = loss_fn()
    ops = [node.op for node in ir.toposort(loss._node)]
    assert fusion.fuse(loss) == {}
    assert [node.op for node in ir.toposort(loss._node)] == ops
    loss.backward()
    assert [p.grad.tobytes() for p in params] == want


def test_training_sum_is_not_absorbed_into_regions():
    rng = np.random.default_rng(21)
    a = Tensor(rng.standard_normal((4, 8)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 8)).astype(np.float32), requires_grad=True)
    out = (a * b).sum(axis=-1)
    fusion.fuse(out)
    assert out._node.op == "sum"


# --------------------------------------------------------------------------- #
# Structured capture regions: reduction tails
# --------------------------------------------------------------------------- #
def test_captured_reduction_tail_joins_the_region():
    rng = np.random.default_rng(19)
    a = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    b = Tensor(rng.standard_normal((4, 8)).astype(np.float32))

    with no_grad(), ir.capture():
        out = (a * b).sum(axis=-1)
    assert fusion.fuse(out) == {"region": 1}
    assert out._node.op == "region"
    region = out._node.attrs["region"]
    assert region.ops == (("mul", (0, 1)), ("sum", (2,), (1, False)))
    assert not region.is_elementwise
    _replays(out)


def test_captured_mean_tail_fuses_with_its_epilogue():
    # Tensor.mean lowers to sum + div-by-count: both join one region, the
    # division riding along as a post-reduce elementwise stage.
    rng = np.random.default_rng(20)
    a = Tensor(rng.standard_normal((3, 16)).astype(np.float32))
    b = Tensor(rng.standard_normal((3, 16)).astype(np.float32))

    with no_grad(), ir.capture():
        out = (a * b).relu().mean(axis=-1)
    assert fusion.fuse(out) == {"region": 1}
    ops = [op[0] for op in out._node.attrs["region"].ops]
    assert ops == ["mul", "relu", "sum", "div"]
    _replays(out)


# --------------------------------------------------------------------------- #
# Multi-consumer regions: duplicated cheap producers
# --------------------------------------------------------------------------- #
def test_fanout_producer_is_duplicated_into_one_region():
    # p feeds two eligible elementwise consumers: instead of refusing the
    # whole chain, the pass recomputes p inside the region from its leaves.
    x = Tensor([1.0, -2.0, 3.0])
    y = Tensor([0.5, 4.0, -1.5])
    with no_grad(), ir.capture():
        p = x * y
        out = p.relu() + (-p)
    assert fusion.fuse(out) == {"region": 1}
    assert out._node.op == "region"
    assert out._node.inputs == (x, y)  # p is recomputed, not read
    assert [op for op, _ in out._node.attrs["region"].ops] == ["mul", "neg", "relu", "add"]
    _replays(out)


def test_three_way_fanout_is_still_refused():
    # A third consumer is refused: p stays a node of its own and feeds the
    # region its consumers form as an external input.
    x = Tensor([1.0, -2.0])
    y = Tensor([3.0, 0.5])
    with no_grad(), ir.capture():
        p = x * y
        out = p.relu() + (-p) + p * y
    assert fusion.fuse(out) == {"region": 1}
    assert p._node.op == "mul" and p in out._node.inputs
    _replays(out)


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
    from repro.codegen import using_codegen
    from repro.serve import compile_inference

    rng = np.random.default_rng(33)
    model = _MeanTailModel(np.random.default_rng(7))
    model.eval()
    x = rng.standard_normal((4, 8)).astype(np.float32)
    with no_grad():
        expected = model(x).data
    with using_codegen(codegen):
        session = compile_inference(model, x)
        assert session.fused_counts.get("region", 0) >= 1
        got = session.run(x)
    assert got.tobytes() == expected.tobytes()
    # A second batch of the same shape reuses the session.
    x2 = rng.standard_normal((4, 8)).astype(np.float32)
    with no_grad():
        expected2 = model(x2).data
    assert session.run(x2).tobytes() == expected2.tobytes()
