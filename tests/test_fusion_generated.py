"""Generated traces: every planned session byte-equal to the eager forward.

A seeded generator builds eval-mode models whose forwards mix elementwise
chains (``add`` / ``mul`` / ``div`` / ``neg`` / ``relu``) over operands
broadcast against the activation, ``sum`` / ``mean`` tails over trailing
axes, ``nn.Linear`` heads with and without bias, and eval ``BatchNorm1d`` /
``BatchNorm2d``.  One shape per kind, drawn in float32 and float64 at batch 1
and above:

- ``chain``: every value has one consumer;
- ``fanout2``, ``fanout3``: a product of graph leaves feeds two or three
  chains (it stays a numpy step of its own; the chains group around it);
- ``reduce``: a chain with a trailing-axes tail (the fusion pass's region);
- ``linear``, ``batch_norm``: a chain after a GEMM head or an epilogue;
- ``linear_relu``, ``batch_norm1d_relu``, ``batch_norm2d_relu``: a relu
  straight after a linear (the linear heads a group) or an eval batch norm
  (a batch-norm step and the relu stay numpy: neither starts a group);
- ``operand_second``: the running value always the second operand
  (``scale * h``); ``scalar_operand``: every operand 0-d;
- ``relu_first``: a headless chain that starts at a relu (an epilogue:
  it stays a numpy step).

``compile_inference(...).run`` must give the bytes of the eager ``no_grad``
forward, with codegen off (numpy steps) and on (the compiled stages), on the
example batch and on a fresh one — and so must the session a thread
server's worker replays (``frontend._ServerPool``: no conv heads, a linear
only with an op after it).  With codegen on, the planner's groups are
checked against the planning rule and, given a compiler, against the
compiled ``explain()`` rows.
"""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, ir, no_grad
from repro.codegen import have_compiler, using_codegen
from repro.serve import compile_inference
from repro.serve.frontend import _ServerPool

SEED = 28
KINDS = ("chain", "fanout2", "fanout3", "reduce", "linear", "batch_norm",
         "linear_relu", "batch_norm1d_relu", "batch_norm2d_relu")
CASES = 4 * len(KINDS)
#: Drawn after the cases above, twice each (float32, float64).
EXTRA_KINDS = ("operand_second", "scalar_operand", "relu_first")


class _Generated(nn.Module):
    """A model whose forward is a generated list of steps."""

    def __init__(self, steps):
        super().__init__()
        self.steps = steps

    def forward(self, x):
        return self.steps(x)


class _Builder:
    """Draws operands and elementwise chains for one model."""

    def __init__(self, rng, dtype):
        self.rng, self.dtype = rng, dtype

    def array(self, shape, positive=False):
        value = self.rng.standard_normal(shape)
        if positive:  # a divisor: kept away from zero
            value = np.abs(value) + 0.5
        return value.astype(self.dtype)

    def operand(self, shape, positive=False, scalar=False):
        """A leaf broadcast against an activation of ``shape``: the full
        shape, its last axis alone or as a row, a column, or a scalar."""
        shapes = [shape, shape[-1:], (1,) * (len(shape) - 1) + shape[-1:],
                  shape[:-1] + (1,), ()]
        shape = () if scalar else shapes[self.rng.integers(len(shapes))]
        return Tensor(self.array(shape, positive), dtype=self.dtype)

    def chain(self, length, shape, ops=("add", "mul", "div", "neg", "relu"), left=None,
              scalar=False):
        """``length`` random elementwise ops over an activation of
        ``shape``, as a function of the activation (``left``: whether the
        operand comes first, else drawn; ``scalar``: 0-d operands)."""
        choices, ops = ops, []
        for _ in range(length):
            op = str(self.rng.choice(choices))
            c = self.operand(shape, positive=op == "div", scalar=scalar)
            ops.append((op, c, self.rng.random() < 0.5 if left is None else left))

        def apply(h):
            for op, c, left in ops:
                if op == "add":
                    h = c + h if left else h + c
                elif op == "mul":
                    h = c * h if left else h * c
                elif op == "div":
                    h = h / c
                elif op == "neg":
                    h = -h
                else:
                    h = h.relu()
            return h

        return apply

    def length(self, low=1, high=4):
        return int(self.rng.integers(low, high + 1))


def _to_dtype(module, dtype):
    for param in module.parameters():
        param.data = param.data.astype(dtype)
    for name in ("running_mean", "running_var"):
        buffer = getattr(module, name, None)
        if isinstance(buffer, np.ndarray):
            module.register_buffer(name, buffer.astype(dtype))


def _generate(kind, rng, dtype):
    """``(model, example input shape)`` for one case of ``kind``."""
    n = int(rng.choice([1, 3, 8]))
    d = int(rng.choice([5, 16]))
    b = _Builder(rng, dtype)
    model = _Generated(None)

    if kind in ("fanout2", "fanout3"):
        scale = b.operand((n, d))
        chains = [b.chain(b.length(), (n, d)) for _ in range(2 if kind == "fanout2" else 3)]

        def steps(x):
            p = x * scale  # a lone node over graph leaves
            out = chains[0](p)
            for chain in chains[1:]:
                out = out + chain(p)
            return out

        model.steps = steps
        return model, (n, d)

    if kind == "reduce":
        three = rng.random() < 0.5
        shape = (n, 3, d) if three else (n, d)
        head = b.chain(b.length(), shape)
        tail = str(rng.choice(["sum", "mean"]))
        axis = (1, 2) if three and rng.random() < 0.5 else -1
        keepdims = bool(rng.random() < 0.5)
        after = b.chain(b.length(0, 2), (n, 1)) if keepdims and not three else None

        def steps(x):
            h = head(x)
            h = h.sum(axis=axis, keepdims=keepdims) if tail == "sum" else h.mean(
                axis=axis, keepdims=keepdims)
            return after(h) if after is not None else h

        model.steps = steps
        return model, shape

    if kind in ("linear", "linear_relu"):
        e = int(rng.choice([4, 12]))
        model.proj = nn.Linear(d, e, bias=bool(rng.random() < 0.5), rng=rng)
        if model.proj.bias is not None:
            model.proj.bias.data = b.array((e,))
        before = b.chain(b.length(0, 2), (n, d))
        if kind == "linear":
            after = b.chain(b.length(), (n, e))
            model.steps = lambda x: after(model.proj(before(x)))
        else:
            after = b.chain(b.length(0, 2), (n, e))
            model.steps = lambda x: after(model.proj(before(x)).relu())
        _to_dtype(model.proj, dtype)
        return model, (n, d)

    if kind in ("batch_norm", "batch_norm1d_relu", "batch_norm2d_relu"):
        shape = (n, d) if kind != "batch_norm2d_relu" else (n, d, 3, 2)
        model.bn = nn.BatchNorm2d(d) if len(shape) == 4 else nn.BatchNorm1d(d)
        model.bn.weight.data = b.array((d,))
        model.bn.bias.data = b.array((d,))
        model.bn.register_buffer("running_mean", b.array((d,)))
        model.bn.register_buffer("running_var", b.array((d,), positive=True))
        if kind == "batch_norm":
            after = b.chain(b.length(), shape)
            model.steps = lambda x: after(model.bn(x))
        else:
            after = b.chain(b.length(0, 2), shape)
            model.steps = lambda x: after(model.bn(x).relu())
        _to_dtype(model.bn, dtype)
        return model, shape

    if kind == "operand_second":
        model.steps = b.chain(b.length(2, 4), (n, d), ("add", "mul"), left=True)
        return model, (n, d)

    if kind == "scalar_operand":
        model.steps = b.chain(b.length(2, 4), (n, d), ("add", "mul", "div"), scalar=True)
        return model, (n, d)

    if kind == "relu_first":
        after = b.chain(b.length(0, 3), (n, d))
        model.steps = lambda x: after(x.relu())
        return model, (n, d)

    chain = b.chain(b.length(2, 6), (n, d))
    model.steps = chain
    return model, (n, d)


def _cases():
    rng = np.random.default_rng(SEED)
    drawn = [(KINDS[i % len(KINDS)], (np.float32, np.float64)[(i // len(KINDS)) % 2])
             for i in range(CASES)]
    drawn += [(kind, dtype) for dtype in (np.float32, np.float64) for kind in EXTRA_KINDS]
    cases = []
    for kind, dtype in drawn:
        model, shape = _generate(kind, rng, dtype)
        model.eval()
        inputs = [rng.standard_normal(shape).astype(dtype) for _ in range(2)]
        cases.append((kind, model, inputs))
    return cases


def _eager(model, x):
    with no_grad():
        return model(Tensor(x, dtype=x.dtype)).data.tobytes()


def _server_session(model, x):
    """The session a server's worker replays over batches shaped like ``x``."""
    return _ServerPool(model, x, buckets=(len(x),)).sessions[len(x)]


def _groups(session, gemm):
    """The planner's groups of ``session`` as ``(member node indices, ops)``,
    checked against its rule: a group starts at a head or an elementwise
    op, and one with no GEMM it may run (``gemm``: a session's own; else a
    server worker's, whose conv never heads one) has two members or more;
    given a compiler, each is one compiled ``explain()`` row."""
    groups = [(g.members, g.ops) for g in session._plan.groups] if session._plan else []
    for members, ops in groups:
        part = ir.OPS[ops[0]].stage.part
        assert part in (ir.HEAD, ir.ELEMENTWISE), ops
        assert len(ops) > 1 or (gemm and part == ir.HEAD), ops
    if have_compiler():
        compiled = [row["ops"] for row in session.explain() if row["arm"] == "compiled"]
        assert [ops for ops in compiled if ops != ["region"]] == [ops for _, ops in groups]
    return groups


@pytest.mark.parametrize("codegen", [False, True])
def test_generated_traces_fuse_and_replay_the_eager_bytes(codegen):
    cases = _cases()
    with using_codegen(codegen):
        sessions = [compile_inference(model, inputs[0]) for _, model, inputs in cases]
        served = [_server_session(model, inputs[0]) for _, model, inputs in cases]
    regions = {kind: 0 for kind in KINDS + EXTRA_KINDS}
    for (kind, model, inputs), session, server in zip(cases, sessions, served):
        for arm in (session, server):
            if codegen:
                arm.wait_compiled(120)
            for x in inputs:
                assert arm.run(x).tobytes() == _eager(model, x), (kind, arm.op_counts)
        regions[kind] += session.fused_counts.get("region", 0)
        if not codegen:
            continue
        own, worker = _groups(session, True), _groups(server, False)
        if kind.startswith("linear"):  # the linear heads a group in both
            assert [ops[0] for _, ops in own].count("linear") == 1, own
            assert [ops[0] for _, ops in worker].count("linear") == 1, worker
        if kind == "linear_relu":
            assert any(ops[:2] == ["linear", "relu"] for _, ops in own + worker), own
        if kind in ("operand_second", "scalar_operand"):  # one group, every op
            assert [len(members) for members, _ in own] == [sum(session.op_counts.values())], own
        if kind.startswith("fanout") or kind == "relu_first":
            # the fan-out product, a leading relu: numpy steps (the first node)
            assert all(0 not in members for members, _ in own + worker), own
        if kind.startswith("batch_norm"):  # an epilogue with no head: numpy
            assert session.op_counts["batch_norm"] == 1, session.op_counts
            assert all("batch_norm" not in ops for _, ops in own + worker), own
    assert {kind for kind, count in regions.items() if count} == {"reduce"}, regions
