"""One compiled session per op: every op the tape records, compiled alone into
an eval model, replays the eager ``no_grad`` forward byte for byte — the same
shape, dtype and array type — on fresh inputs, with codegen on and off."""

import numpy as np
import pytest

import repro.autograd.fusion  # noqa: F401  (the region entry)
from repro import nn
from repro.autograd import Tensor, functional as F, ir, no_grad
from repro.codegen import using_codegen
from repro.serve import compile_inference

_RNG = np.random.default_rng(31)


def _const(*shape, low=None):
    data = (_RNG.uniform(low, 2.0, shape) if low is not None
            else _RNG.standard_normal(shape)).astype(np.float32)
    return Tensor(data)


_C6, _P6, _W65, _B5 = _const(6), _const(6, low=0.5), _const(6, 5), _const(5)
_W_CONV, _B_CONV = _const(4, 3, 3, 3), _const(4)
_GAMMA, _BETA, _MEAN, _VAR = _const(6), _const(6), _const(6).data, _const(6, low=0.5).data

#: Op name -> (forward over the session inputs, example input makers).
_ROW = lambda rng: rng.standard_normal((4, 6)).astype(np.float32)
_POS = lambda rng: rng.uniform(0.5, 2.0, (4, 6)).astype(np.float32)
_IMG = lambda rng: rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
_LABELS = lambda rng: rng.integers(0, 6, 4).astype(np.int64)
CASES = {
    "add": (lambda x: x + _C6, (_ROW,)),
    "neg": (lambda x: -x, (_ROW,)),
    "mul": (lambda x: x * _C6, (_ROW,)),
    "div": (lambda x: x / _P6, (_ROW,)),
    "pow": (lambda x: x ** 3.0, (_ROW,)),
    "matmul": (lambda x: x @ _W65, (_ROW,)),
    "abs": (lambda x: x.abs(), (_ROW,)),
    "exp": (lambda x: x.exp(), (_ROW,)),
    "log": (lambda x: x.log(), (_POS,)),
    "sqrt": (lambda x: x.sqrt(), (_POS,)),
    "relu": (lambda x: x.relu(), (_ROW,)),
    "sigmoid": (lambda x: x.sigmoid(), (_ROW,)),
    "tanh": (lambda x: x.tanh(), (_ROW,)),
    "sum": (lambda x: x.sum(), (_ROW,)),  # a full reduction: a 0-d array
    "max": (lambda x: x.max(), (_ROW,)),
    "reshape": (lambda x: x.reshape(6, 4), (_ROW,)),
    "transpose": (lambda x: x.transpose(), (_ROW,)),
    "getitem": (lambda x: x[:, 1:4], (_ROW,)),
    "concat": (lambda x: Tensor.concatenate([x, x], axis=1), (_ROW,)),
    "stack": (lambda x: Tensor.stack([x, x], axis=0), (_ROW,)),
    "pad2d": (lambda x: x.pad2d(1), (_IMG,)),
    "clone": (lambda x: x.clone(), (_ROW,)),
    "detach": (lambda x: x.detach(), (_ROW,)),
    "linear": (lambda x: F.linear(x, _W65, _B5), (_ROW,)),
    "conv2d": (lambda x: F.conv2d(x, _W_CONV, _B_CONV, padding=1), (_IMG,)),
    "max_pool2d": (lambda x: F.max_pool2d(x, 2), (_IMG,)),
    "avg_pool2d": (lambda x: F.avg_pool2d(x, 2), (_IMG,)),
    "batch_norm": (lambda x: F.batch_norm(x, _GAMMA, _BETA, _MEAN, _VAR, training=False),
                   (_ROW,)),
    "dropout": (lambda x: F.dropout(x, 0.5, training=True), (_ROW,)),
    "softmax": (lambda x: F.softmax(x, axis=-1), (_ROW,)),
    "log_softmax": (lambda x: F.log_softmax(x, axis=-1), (_ROW,)),
    "softmax_cross_entropy": (lambda x, t: F.softmax_cross_entropy(x, t), (_ROW, _LABELS)),
    "region": (lambda x: (x * _C6).sum(axis=-1), (_ROW,)),  # a reduction tail
}


class _OneOp(nn.Module):
    def __init__(self, forward) -> None:
        super().__init__()
        self.fn = forward

    def forward(self, *xs):
        return self.fn(*xs)


def _eager(model, arrays):
    with no_grad():
        return model(*(Tensor(a, dtype=a.dtype) for a in arrays)).data


@pytest.mark.parametrize("codegen", [True, False])
@pytest.mark.parametrize("op", sorted(CASES))
def test_one_op_session_matches_eager_no_grad(op, codegen):
    forward, makers = CASES[op]
    model = _OneOp(forward).eval()
    rng = np.random.default_rng(sorted(CASES).index(op))
    example = [make(rng) for make in makers]
    with using_codegen(codegen):
        if op == "dropout":  # recorded only in training: no session replays it
            with pytest.raises(ValueError, match="dropout"):
                compile_inference(model, example)
            return
        session = compile_inference(model, example)
        assert session.op_counts == {op: 1}, session.op_counts
        for _ in range(2):
            arrays = [make(rng) for make in makers]
            got, want = session.run(*arrays), _eager(model, arrays)
            assert type(got) is type(want) is np.ndarray
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_every_table_op_has_a_session_case():
    assert set(CASES) == set(ir.OPS)
