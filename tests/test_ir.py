"""Graph-IR tests: node records, capture, topological order, replay, the op
table."""

import ast
import inspect
import itertools
import tokenize
from pathlib import Path

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F, ir, no_grad


# --------------------------------------------------------------------------- #
# Node records
# --------------------------------------------------------------------------- #
def test_every_op_records_an_explicit_node():
    x = Tensor([[1.0, -2.0], [3.0, 4.0]], requires_grad=True)
    w = Tensor(np.eye(2, dtype=np.float32), requires_grad=True)
    out = F.linear(x, w).relu().sum()
    node = out._node
    assert node is not None
    assert node.op == "sum"
    # Structural attrs (axis/keepdims/shape/...) are recorded only under
    # capture — training backward closes over the values directly, so the
    # per-node dict would be dead weight on the hot path.
    assert node.attrs is None
    relu_node = node.inputs[0]._node
    assert relu_node.op == "relu"
    assert relu_node.attrs["mask"].dtype == bool
    linear_node = relu_node.inputs[0]._node
    assert linear_node.op == "linear"
    assert linear_node.inputs[0] is x and linear_node.inputs[1] is w
    assert callable(linear_node.backward)


def test_node_views_match_legacy_tape_attributes():
    # The node is the only record: the tape's old attribute names are gone.
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * 2.0
    assert y._node.op == "mul"
    assert len(y._node.inputs) == 2 and y._node.inputs[0] is x
    assert callable(y._node.backward)
    leaf = Tensor([1.0])
    assert leaf._node is None
    for name in ("_prev", "_backward", "_op"):
        assert not hasattr(y, name) and not hasattr(leaf, name)


def test_leaves_have_no_node():
    x = Tensor([1.0, 2.0], requires_grad=True)
    assert x._node is None


def test_freeing_drops_node_state():
    x = Tensor([2.0], requires_grad=True)
    y = (x * 3.0).sum()
    mid = y._node.inputs[0]
    y.backward()
    for node in (y._node, mid._node):
        assert node.inputs == ()
        assert node.attrs is None
        assert node.out is None
    with pytest.raises(RuntimeError, match="already been freed"):
        y._node.backward()


# --------------------------------------------------------------------------- #
# Capture
# --------------------------------------------------------------------------- #
def test_capture_records_creation_order_topologically():
    x = Tensor(np.random.default_rng(0).standard_normal((4, 3)).astype(np.float32))
    w = Tensor(np.random.default_rng(1).standard_normal((3, 2)).astype(np.float32))
    with no_grad(), ir.capture() as graph:
        out = F.linear(x, w).relu().sum()
    assert [n.op for n in graph.nodes] == ["linear", "relu", "sum"]
    # Creation order is a topological order: every node's tensor inputs are
    # either leaves or outputs of strictly earlier nodes.
    produced = set()
    for node in graph.nodes:
        for t in node.inputs:
            assert t._node is None or id(t._node) in produced
        produced.add(id(node))
    assert out._node is graph.nodes[-1]


def test_capture_under_no_grad_records_backwardless_nodes():
    x = Tensor([1.0, -1.0], requires_grad=True)
    with no_grad(), ir.capture() as graph:
        y = (x * 2.0).relu()
    assert len(graph) == 2
    assert all(n.backward is None for n in graph)
    assert not y.requires_grad
    with pytest.raises(RuntimeError):
        y.backward()


def test_capture_restores_previous_graph_on_exit():
    assert ir.current_capture() is None
    with ir.capture() as outer:
        with ir.capture() as inner:
            Tensor([1.0], requires_grad=True) * 2.0
        assert ir.current_capture() is outer
        assert len(inner) == 1 and len(outer) == 0
    assert ir.current_capture() is None


def test_no_capture_no_graph_growth():
    # Outside a capture the only record is the per-tensor node chain.
    x = Tensor([1.0], requires_grad=True)
    y = x * 2.0
    assert ir.current_capture() is None
    assert y._node.op == "mul"


# --------------------------------------------------------------------------- #
# Toposort invariants
# --------------------------------------------------------------------------- #
def _check_topo_invariants(topo, root_node):
    seen = set()
    for node in topo:
        for t in node.inputs:
            pn = t._node
            if pn is not None and pn.backward is not None:
                assert id(pn) in seen, f"{node.op} appeared before its producer {pn.op}"
        seen.add(id(node))
    assert topo[-1] is root_node  # post-order: the root comes last
    assert len(seen) == len(topo)  # no duplicates


def test_toposort_orders_producers_before_consumers():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((5, 4)).astype(np.float32), requires_grad=True)
    h = (x * 2.0 + 1.0).relu()
    shared = h.sum(axis=0)
    out = (shared * shared).sum() + h.mean()
    topo = ir.toposort(out._node)
    _check_topo_invariants(topo, out._node)


def test_toposort_diamond_visits_shared_node_once():
    a = Tensor([2.0], requires_grad=True)
    h = a * a
    out = (h * 2.0 + h * 3.0).sum()
    topo = ir.toposort(out._node)
    assert sum(1 for n in topo if n is h._node) == 1
    _check_topo_invariants(topo, out._node)


def test_toposort_backward_only_prunes_gradless_branches():
    x = Tensor([1.0, 2.0], requires_grad=True)
    const = Tensor([3.0, 4.0])  # no grad
    with no_grad():
        frozen = const * 2.0  # recorded nowhere: no capture, no grad
    out = (x * frozen).sum()
    topo = ir.toposort(out._node, backward_only=True)
    assert {n.op for n in topo} == {"mul", "sum"}


# --------------------------------------------------------------------------- #
# Forward replay
# --------------------------------------------------------------------------- #
def test_run_forward_replays_trace_bit_exactly():
    rng = np.random.default_rng(3)
    x_np = rng.standard_normal((6, 8)).astype(np.float32)
    w_np = rng.standard_normal((8, 5)).astype(np.float32)
    x, w = Tensor(x_np), Tensor(w_np)
    with no_grad(), ir.capture() as graph:
        out = F.softmax(F.linear(x, w).relu() * 2.0, axis=-1)

    # Replay the captured nodes over fresh arrays through the op table.
    new_x = rng.standard_normal((6, 8)).astype(np.float32)
    values = {id(x): new_x, id(w): w_np}
    for node in graph:
        arrays = tuple(
            values[id(t)] if id(t) in values else t.data for t in node.inputs
        )
        step = ir.OPS[node.op].bind(arrays, node.attrs or {}, node.out.data)
        values[id(node.out)] = step(*arrays)

    with no_grad():
        expected = F.softmax(F.linear(Tensor(new_x), w).relu() * 2.0, axis=-1)
    np.testing.assert_array_equal(values[id(out)], expected.data)


def test_cross_entropy_replay_binds_new_targets():
    # Targets are a data-dependent input of the node, not a frozen attr:
    # replaying over a new batch must score the new labels.
    rng = np.random.default_rng(8)
    logits = Tensor(rng.standard_normal((5, 4)).astype(np.float32))
    targets = np.array([0, 1, 2, 3, 0])
    with no_grad(), ir.capture() as graph:
        F.softmax_cross_entropy(logits, targets)
    (node,) = graph.nodes
    assert node.inputs[1].data.dtype == np.int64  # labels ride as an input
    new_logits = rng.standard_normal((5, 4)).astype(np.float32)
    new_targets = np.array([3, 2, 1, 0, 1])
    step = ir.OPS[node.op].bind((new_logits, new_targets), node.attrs, node.out.data)
    replayed = step(new_logits, new_targets)
    with no_grad():
        expected = F.softmax_cross_entropy(Tensor(new_logits), new_targets)
    np.testing.assert_array_equal(replayed, expected.data)
    # Replay keeps the eager kernel's label validation: no silent wrap-around.
    bad = np.array([0, 1, -1, 2, 0])
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        step(new_logits, bad)
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        step(new_logits, np.full(5, 9))


def test_run_forward_unknown_op_raises():
    with pytest.raises(KeyError, match="definitely_not_an_op"):
        ir.OPS["definitely_not_an_op"]


def test_train_mode_batch_norm_replay_is_refused():
    x = Tensor(np.random.default_rng(0).standard_normal((8, 3)).astype(np.float32))
    with ir.capture() as graph:
        F.batch_norm(x, training=True)
    (node,) = graph.nodes
    with pytest.raises(RuntimeError, match="train-mode batch_norm"):
        ir.OPS[node.op].bind((x.data,), node.attrs, node.out.data)


def test_a_capture_collects_only_its_own_threads_nodes():
    import threading

    started, done = threading.Event(), threading.Event()

    def elsewhere():
        started.wait(10)
        (Tensor(np.ones(3), requires_grad=True) * 2.0).sum()
        done.set()

    thread = threading.Thread(target=elsewhere)
    thread.start()
    with ir.capture() as graph:
        Tensor(np.ones(3), requires_grad=True) + 1.0
        started.set()
        assert done.wait(10)
    thread.join(10)
    assert not thread.is_alive()
    assert [node.op for node in graph.nodes] == ["add"]


# --------------------------------------------------------------------------- #
# The op table
# --------------------------------------------------------------------------- #
def _parametrizations(test):
    """Every keyword set the ``parametrize`` marks of ``test`` expand to."""
    axes = []
    for mark in getattr(test, "pytestmark", ()):
        if mark.name != "parametrize":
            continue
        names = mark.args[0]
        names = [n.strip() for n in names.split(",")] if isinstance(names, str) else list(names)
        rows = [getattr(row, "values", row) for row in mark.args[1]]
        axes.append([dict(zip(names, row if len(names) > 1 else (row,))) for row in rows])
    for combo in itertools.product(*axes):
        yield {k: v for params in combo for k, v in params.items()}


def test_every_table_op_has_a_gradient_check(monkeypatch):
    # Run every test of test_functional / test_tensor that calls
    # check_gradients, with a spy in its place that records which table ops
    # the checked function tapes (the tests themselves run the real checks).
    import test_functional
    import test_tensor
    from repro.autograd.grad_check import GradCheckResult
    from repro.codegen import using_codegen

    checked = set()

    def spy(fn, inputs, *args, **kwargs):
        with ir.capture() as graph:
            fn(*inputs)
        checked.update(node.op for node in graph.nodes)
        return GradCheckResult()

    for module in (test_functional, test_tensor):
        monkeypatch.setattr(module, "check_gradients", spy)
        monkeypatch.setattr(module, "RNG", np.random.default_rng(0))  # leave theirs as it was
        for name, test in vars(module).items():
            if not (name.startswith("test_") and "check_gradients" in inspect.getsource(test)):
                continue
            for params in _parametrizations(test):
                with using_codegen(False):  # a second sight would ask the compiler
                    try:
                        test(**params)
                    except AssertionError:
                        pass  # the stub result; the test itself checks the gradients
    # detach and region take no gradient: there is nothing to check.
    differentiable = {name for name, op in ir.OPS.items() if op.backward is not None}
    assert differentiable == set(ir.OPS) - {"detach", "region"}
    missing = sorted(differentiable - checked)
    assert not missing, f"table ops without a check_gradients case: {missing}"


def test_the_stage_planners_read_descriptions_not_op_names():
    # Which op becomes which stage is the op table's to say (``ir.Stage``):
    # the planners name no table op but in cstage's own vocabulary — the
    # region program's ops, its ``pos``, the stage kinds.
    import repro.autograd.fusion  # noqa: F401  (the region entry)
    from repro.codegen import REGION_OPS, REGION_STRUCTURED_OPS, cstage

    vocabulary = {*REGION_OPS, *REGION_STRUCTURED_OPS, "pos", *cstage._RENDER}
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    found = []
    for path in (src / "serve" / "stages.py", src / "autograd" / "kernels.py",
                 src / "autograd" / "replay.py", src / "autograd" / "ir.py"):
        with tokenize.open(path) as source:
            for token in tokenize.generate_tokens(source.readline):
                if token.type != tokenize.STRING:
                    continue
                if "f" in token.string[:token.string.index(token.string[-1])].lower():
                    continue  # an f-string's parts are not literals
                value = ast.literal_eval(token.string)
                if value in ir.OPS and value not in vocabulary:
                    found.append(f"{path.name}:{token.start[0]}: {value!r}")
    assert not found, "\n".join(found)
