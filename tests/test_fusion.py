"""Fusion tests: elementwise chains as the session planner groups them,
reduction tails as the fusion pass makes them regions, and training graphs
left alone."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, functional as F, fusion, ir, no_grad
from repro.codegen import have_compiler, using_codegen
from repro.nn.init import manual_seed
from repro.serve import compile_inference


def _replays(out):
    """The fused root node, re-run over its inputs, gives the eager bytes."""
    node = out._node
    xs = tuple(t.data for t in node.inputs)
    got = ir.OPS[node.op].forward(None, xs, node.attrs, None)[0]
    assert got.tobytes() == out.data.tobytes()


class _Forward(nn.Module):
    def __init__(self, forward) -> None:
        super().__init__()
        self.fn = forward

    def forward(self, *xs):
        return self.fn(*xs)


def _planned(model, *arrays):
    """The ops of each group the planner makes of ``model``'s session over
    ``arrays`` — with a compiler, each one compiled ``explain()`` row once
    adopted — after checking the session's bytes against the eager
    forward."""
    model = model if isinstance(model, nn.Module) else _Forward(model).eval()
    with using_codegen(True):
        session = compile_inference(model, list(arrays))
        groups = [g.ops for g in session._plan.groups] if session._plan else []
        if have_compiler():
            assert session.wait_compiled(120), session.explain()
            compiled = [row["ops"] for row in session.explain() if row["arm"] == "compiled"]
            assert [ops for ops in compiled if ops != ["region"]] == groups, session.explain()
    with no_grad():
        want = model(*(Tensor(a, dtype=a.dtype) for a in arrays)).data
    assert session.run(*arrays).tobytes() == want.tobytes()
    return groups


# --------------------------------------------------------------------------- #
# Elementwise chains: the planner's groups
# --------------------------------------------------------------------------- #
def test_linear_relu_fuses_into_one_node():
    # The linear heads a group: the GEMM stays on the host, the bias add and
    # the relu are its map stage.  The fusion pass leaves the trace alone.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3)).astype(np.float32)
    w = Tensor(rng.standard_normal((3, 2)).astype(np.float32))
    with no_grad(), ir.capture():
        out = F.linear(Tensor(x), w).relu()
    assert fusion.fuse(out) == {} and out._node.op == "relu"
    assert _planned(lambda x: F.linear(x, w).relu(), x) == [["linear", "relu"]]


def test_mul_add_relu_chain_becomes_one_region():
    # mul → add → relu with no GEMM in front: the mul starts the group.
    x = np.array([[1.0, -2.0], [0.5, 3.0]], np.float32)
    s = Tensor([3.0, 4.0])
    t = Tensor([0.5, 0.5])
    assert _planned(lambda x: (x * s + t).relu(), x) == [["mul", "add", "relu"]]


def test_add_relu_fuses_into_a_region():
    a = np.array([[1.0, -2.0]], np.float32)
    b = Tensor([3.0, -4.0])
    assert _planned(lambda a: (a + b).relu(), a) == [["add", "relu"]]


def test_region_matches_either_addend_side():
    # The running value is the add's *right* operand, and the mul's.
    a = np.array([[1.0, 2.0], [-1.0, 0.25]], np.float32)
    b = Tensor([3.0, 4.0])
    c = Tensor([5.0, 6.0])
    assert _planned(lambda a: c + b * (a / b), a) == [["div", "mul", "add"]]


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
    assert fusion.fuse(out) == {}
    assert _planned(model, x) == [["linear", "relu"], ["linear", "relu"]]


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
# Multi-consumer values: never fused away
# --------------------------------------------------------------------------- #
def test_three_way_fanout_is_still_refused():
    # p feeds three consumers: it stays a numpy step of its own, and the
    # chains around it group without it.  The relu, an epilogue, cannot
    # start a group; the neg and the second mul can, and the adds join
    # whichever reaches them first.
    x = np.array([[1.0, -2.0]], np.float32)
    y = Tensor([3.0, 0.5])
    groups = _planned(lambda x: (lambda p: p.relu() + (-p) + p * y)(x * y), x)
    assert groups == [["neg", "add"], ["mul", "add"]]


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
