"""A reverse-mode autograd tensor backed by numpy.

The design follows the classic "define-by-run tape" approach: every operation
on :class:`Tensor` objects produces a new tensor whose
:class:`~repro.autograd.ir.GraphNode` records the op name, the parent tensors,
the saved arrays/attributes and a thunk computing the local vector-Jacobian
product.  Calling :meth:`Tensor.backward` performs a topological sort of the
recorded node graph and accumulates gradients into ``.grad`` of every tensor
that requires them.

The explicit node records (rather than bare closures) make the tape a real
IR: :mod:`repro.autograd.replay` captures a train step's tape and replays it,
:mod:`repro.autograd.fusion` rewrites chains of captured ``no_grad`` nodes,
and :mod:`repro.serve` replays captured traces over new inputs.  Every op
here — like the dense kernels of :mod:`repro.autograd.functional` — is an
entry of the op table (:class:`repro.autograd.ir.Op`): the method records its
call through the entry's forward and backward, a replayed train step runs the
same entry, and a serving session binds it.

Hot-path notes
--------------
Gradient accumulation is done **in place**: the first gradient that reaches a
tensor is copied exactly once (the "ownership copy"), and every later
contribution is ``+=``-ed into that owned buffer via ``np.add(..., out=...)``.
Backward functions that produce a fresh temporary hand it over through
:meth:`Tensor._accumulate_fresh`, which *donates* the buffer instead of copying
it, so the common single-consumer case allocates nothing extra at all.

``backward(retain_graph=False)`` (the default) frees the recorded graph as the
pass goes: each node's backward closure and parent links are dropped right
after its thunk has run, which breaks the reference cycles between tensors
and their closures and lets CPython reclaim the graph by refcounting instead
of waiting for the cycle collector — and returns every interior gradient and
saved array to the kernel workspace while the pass is still running.  Training
loops therefore neither leak the whole graph nor stall in periodic GC sweeps.
Pass ``retain_graph=True`` to keep the graph (and to reuse the cached
topological order on repeated ``backward()`` calls over the same graph).

Only the operations needed by the TBNet reproduction are implemented, but each
is implemented for arbitrary broadcastable shapes so the layer code in
:mod:`repro.nn` stays simple.  Dense spatial kernels (im2col convolution,
pooling, fused softmax cross-entropy) live in :mod:`repro.autograd.functional`.

Every op computes with numpy directly; its image-sized results come from the
kernel workspace (:mod:`repro.backend.workspace`).
"""

from __future__ import annotations

import contextlib
import numbers
import time
from functools import partial
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import default_rng, workspace
from repro.autograd import ir as _ir

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph recording (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _as_array(value: ArrayLike, dtype=np.float32) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def _capturing() -> bool:
    """Whether a :func:`repro.autograd.ir.capture` block is recording.

    A node keeps its attrs (reshape/transpose/sum/... parameters) only for
    a captured trace — a training backward reads the ones its thunk holds —
    so the graph of an ordinary training step stays as small as it was.
    """
    return _ir._CAPTURE.graph is not None


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``, undoing numpy broadcasting.

    Broadcasting may have added leading dimensions and/or stretched size-1
    dimensions; the adjoint of broadcasting is summation over those axes.  The
    no-op case (shapes already equal) returns ``grad`` itself without any
    work, so callers can cheaply detect whether a reduction happened by
    identity (``result is grad``).
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    # A full reduction yields a numpy scalar; grads must stay writable arrays.
    return np.asarray(grad).reshape(shape)


def _owned_copy(arr: np.ndarray) -> np.ndarray:
    """``arr.copy()`` (owned, C-contiguous, same dtype) in a buffer from
    ``workspace.empty`` — the one spelling of "make this view mine" in the
    kernels."""
    out = workspace.empty(arr.shape, arr.dtype)
    np.copyto(out, arr)
    return out


# ``np.multiply`` / ``np.matmul`` / ``np.maximum(x, 0.0)`` with the result in
# a buffer from ``workspace.empty``: the primitives every small op goes
# through, so each takes numpy's own result when it cannot reach the
# workspace's floor.  Asking first costs a small op about as much again
# (``train_b4`` ``latency_ms_p50`` +8 % in 10 of 12 pairs, a 64-wide MLP step
# +18 %); the image-sized kernels ask unconditionally.
def _ws_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.nbytes < workspace.FLOOR > b.nbytes:  # so is a * b, short of an outer product
        return np.multiply(a, b)
    shape = a.shape if a.shape == b.shape else np.broadcast(a, b).shape
    dtype = a.dtype if a.dtype == b.dtype else np.result_type(a, b)
    return np.multiply(a, b, out=workspace.empty(shape, dtype))


def _ws_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] * b.shape[1] * a.itemsize < workspace.FLOOR:
        return np.matmul(a, b)  # small, a vector to squeeze or a stack: numpy's own result
    dtype = a.dtype if a.dtype == b.dtype else np.result_type(a.dtype, b.dtype)
    return np.matmul(a, b, out=workspace.empty((a.shape[0], b.shape[1]), dtype))


def _ws_relu(x: np.ndarray) -> np.ndarray:
    if x.nbytes < workspace.FLOOR:
        return np.maximum(x, 0.0)
    dtype = x.dtype if x.dtype.kind == "f" else np.result_type(x, 0.0)
    return np.maximum(x, 0.0, out=workspace.empty(x.shape, dtype))


def _raise_freed_graph() -> None:
    """Backward sentinel installed on freed graph nodes."""
    raise RuntimeError(
        "trying to run backward through a graph that has already been freed; "
        "pass retain_graph=True to backward() if you need multiple passes"
    )


def _free_node(node) -> None:
    """Free one graph node: a raising sentinel replaces its thunk, and its
    inputs, saved attrs and output link go."""
    if node.backward is not None:
        node.backward = _raise_freed_graph
    node.inputs = ()
    node.attrs = None
    node.out = None


_profile_module = None


def _get_profile():
    """Lazy import of :mod:`repro.obs.profile` (keeps the autograd core free
    of an eager dependency on the observability package)."""
    global _profile_module
    if _profile_module is None:
        from repro.obs import profile

        _profile_module = profile
    return _profile_module


# --------------------------------------------------------------------------- #
# The tensor-level ops of the op table (repro.autograd.ir.Op): what the tape
# records, a replayed train step runs and a serving session binds
# --------------------------------------------------------------------------- #
def _accumulate_bcast(port, grad: np.ndarray, shape) -> None:
    """Accumulate a shared buffer into ``port`` after undoing the broadcast
    to ``shape``."""
    reduced = _unbroadcast(grad, shape)
    if reduced is grad:
        port._accumulate(grad)
    else:
        port._accumulate_fresh(reduced)


def _into(kernel):
    """The bind of an op whose step is ``kernel(*arrays, out=buffer)``, one
    buffer of the output's shape and dtype allocated at bind time."""

    def bind(xs, attrs, out):
        buf = np.empty(out.shape, out.dtype)
        step = partial(kernel, out=buf)
        step.out = buf
        return step

    return bind


def _elementwise(name: str) -> _ir.Stage:
    """The stage description of an elementwise op: itself, applied to its
    operands' :class:`~repro.autograd.ir.Program` srcs (the group's running
    value among them, or not)."""
    return _ir.Stage(_ir.ELEMENTWISE, lambda p, geometry, *srcs: p.apply(name, *srcs))


def _unary(name: str, fn, grad, bind=None, stage=_ir.Stage(None)) -> _ir.Op:
    """Enter the one-input op ``y = fn(x)`` whose input adjoint is the
    fresh ``grad(g, x, y)``."""

    def forward(arm, xs, attrs, ports):
        y = fn(xs[0])
        return y, (xs[0], y)

    def backward(arm, g, ports, ctx, attrs) -> None:
        if ports[0].requires_grad:
            ports[0]._accumulate_fresh(grad(g, *ctx))

    return _ir.define_op(name, forward, backward, bind, stage)


_NEG = _unary("neg", np.negative, lambda g, x, y: np.negative(g), _into(np.negative),
              _elementwise("neg"))
_ABS = _unary("abs", np.abs, lambda g, x, y: g * np.sign(x))
_EXP = _unary("exp", np.exp, lambda g, x, y: _ws_multiply(g, y))
_LOG = _unary("log", np.log, lambda g, x, y: np.divide(g, x))
_SQRT = _unary("sqrt", np.sqrt, lambda g, x, y: g * 0.5 / y)
_SIGMOID = _unary("sigmoid", lambda x: 1.0 / (1.0 + np.exp(-x)), lambda g, x, y: g * y * (1.0 - y))
_TANH = _unary("tanh", np.tanh, lambda g, x, y: g * (1.0 - y ** 2))


def _add(arm, xs, attrs, ports):
    return np.add(xs[0], xs[1]), (xs[0].shape, xs[1].shape)


def _add_backward(arm, g, ports, shapes, attrs) -> None:
    for port, shape in zip(ports, shapes):
        if port.requires_grad:
            _accumulate_bcast(port, g, shape)


def _mul(arm, xs, attrs, ports):
    return _ws_multiply(xs[0], xs[1]), xs


def _mul_backward(arm, g, ports, xs, attrs) -> None:
    a, b = xs
    if ports[0].requires_grad:
        ports[0]._accumulate_fresh(_unbroadcast(_ws_multiply(g, b), a.shape))
    if ports[1].requires_grad:
        ports[1]._accumulate_fresh(_unbroadcast(_ws_multiply(g, a), b.shape))


def _div(arm, xs, attrs, ports):
    return np.divide(xs[0], xs[1]), xs


def _div_backward(arm, g, ports, xs, attrs) -> None:
    a, b = xs
    if ports[0].requires_grad:
        ports[0]._accumulate_fresh(_unbroadcast(np.divide(g, b), a.shape))
    if ports[1].requires_grad:
        ports[1]._accumulate_fresh(_unbroadcast(
            np.divide(_ws_multiply(np.negative(g), a), np.power(b, 2.0)), b.shape))


def _pow(arm, xs, attrs, ports):
    return np.power(xs[0], attrs["exponent"]), xs[0]


def _pow_backward(arm, g, ports, x, attrs) -> None:
    if ports[0].requires_grad:
        exponent = attrs["exponent"]
        # x**(e-1) hits zeros (e.g. the x**0.5 gradient at 0) with a
        # divide-by-zero RuntimeWarning; the resulting inf matches torch,
        # the warning spam does not.
        with np.errstate(divide="ignore", invalid="ignore"):
            ports[0]._accumulate_fresh(g * exponent * np.power(x, exponent - 1))


def _matmul(arm, xs, attrs, ports):
    return _ws_matmul(xs[0], xs[1]), xs


def _matmul_backward(arm, g, ports, xs, attrs) -> None:
    a, b = xs
    # numpy matmul treats 1-D operands as a prepended row / appended column
    # that is squeezed from the result; mirror that promotion so the
    # adjoint GEMMs see 2-D operands.
    a2 = a.reshape(1, -1) if a.ndim == 1 else a
    b2 = b.reshape(-1, 1) if b.ndim == 1 else b
    if b.ndim == 1:  # append the column axis before the row axis
        g = np.expand_dims(g, -1)
    if a.ndim == 1:
        g = np.expand_dims(g, -2)
    if ports[0].requires_grad:
        ga = _ws_matmul(g, b2.swapaxes(-1, -2))
        if a.ndim == 1:
            ga = np.squeeze(ga, -2)
        ports[0]._accumulate_fresh(_unbroadcast(ga, a.shape))
    if ports[1].requires_grad:
        gb = _ws_matmul(a2.swapaxes(-1, -2), g)
        if b.ndim == 1:
            gb = np.squeeze(gb, -1)
        ports[1]._accumulate_fresh(_unbroadcast(gb, b.shape))


def _relu(arm, xs, attrs, ports):
    """``(relu(x), x > 0)``: one compiled pass, or numpy's two."""
    data = xs[0]
    result = arm and arm.forward(data)  # value and mask in one compiled pass
    if result is not None:
        return result
    mask = np.greater(data, 0, out=workspace.empty(data.shape, bool))
    return _ws_relu(data), mask


def _relu_backward(arm, g, ports, mask, attrs) -> None:
    if ports[0].requires_grad:
        grad = arm and arm.backward(g, mask)
        ports[0]._accumulate_fresh(_ws_multiply(g, mask) if grad is None else grad)


def _relu_program(p, geometry) -> None:
    p.apply("relu", p.value)


def _reduced(g, attrs, ndim: int):
    """``g`` with the axes a reduction over ``ndim`` axes dropped put back."""
    axis = attrs["axis"]
    if axis is not None and not attrs["keepdims"]:
        # One axis at a time: older numpy does not accept tuples in
        # np.expand_dims.
        for a in _normalize_axes(axis, ndim):
            g = np.expand_dims(g, axis=a)
    return g


def _sum(arm, xs, attrs, ports):
    return xs[0].sum(axis=attrs["axis"], keepdims=attrs["keepdims"]), xs[0].shape


def _sum_backward(arm, g, ports, shape, attrs) -> None:
    if ports[0].requires_grad:
        ports[0]._accumulate(np.broadcast_to(_reduced(g, attrs, len(shape)), shape))


def _max(arm, xs, attrs, ports):
    result = xs[0].max(axis=attrs["axis"], keepdims=attrs["keepdims"])
    return result, (xs[0], result)


def _max_backward(arm, g, ports, ctx, attrs) -> None:
    if not ports[0].requires_grad:
        return
    x, result = ctx
    mask = (x == _reduced(result, attrs, x.ndim)).astype(x.dtype)
    # Distribute gradient evenly across ties.
    axis = attrs["axis"]
    denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
    ports[0]._accumulate_fresh(_reduced(g, attrs, x.ndim) * mask / denom)


def _reduce_bind(reduce):
    """The bind of a reduction: ``reduce`` ``out=`` one buffer — a 0-d
    array for a full reduction, like the tape's output."""

    def bind(xs, attrs, out):
        buf = np.empty(out.shape, out.dtype)
        axis, keepdims = attrs["axis"], attrs["keepdims"]
        step = lambda x: reduce(x, axis=axis, keepdims=keepdims, out=buf)
        step.out = buf
        return step

    return bind


def _reshape(arm, xs, attrs, ports):
    return xs[0].reshape(attrs["shape"]), xs[0].shape


def _reshape_backward(arm, g, ports, shape, attrs) -> None:
    if ports[0].requires_grad:
        ports[0]._accumulate(g.reshape(shape))


def _transpose(arm, xs, attrs, ports):
    """The permuted view and its inverse permutation."""
    axes = attrs["axes"]
    # Normalize negatives before inverting: argsort of raw negative axes
    # produces the wrong inverse permutation.
    return xs[0].transpose(axes), tuple(np.argsort([a % xs[0].ndim for a in axes]))


def _transpose_backward(arm, g, ports, inverse, attrs) -> None:
    if ports[0].requires_grad:
        ports[0]._accumulate(g.transpose(inverse))


def _view_bind(view, key):
    """The bind of a view op: ``view(x, attrs[key])``, no buffer."""

    def bind(xs, attrs, out):
        arg = attrs[key]
        return lambda x: view(x, arg)

    return bind


def _getitem(arm, xs, attrs, ports):
    return xs[0][attrs["index"]], xs[0]


def _getitem_backward(arm, g, ports, x, attrs) -> None:
    if ports[0].requires_grad:
        grad = np.zeros(x.shape, dtype=x.dtype)
        np.add.at(grad, attrs["index"], g)
        ports[0]._accumulate_fresh(grad)


def _concat(arm, xs, attrs, ports):
    """The concatenation and, per input, the index of its block."""
    out = np.concatenate(xs, axis=attrs["axis"])
    axis, start, cuts = attrs["axis"] % out.ndim, 0, []
    for x in xs:
        stop = start + x.shape[axis]
        cuts.append((slice(None),) * axis + (slice(start, stop),))
        start = stop
    return out, cuts


def _concat_backward(arm, g, ports, cuts, attrs) -> None:
    for port, cut in zip(ports, cuts):
        if port.requires_grad:
            port._accumulate(g[cut])


def _concat_bind(xs, attrs, out):
    buf, axis = np.empty(out.shape, out.dtype), attrs["axis"]
    step = lambda *arrays: np.concatenate(arrays, axis=axis, out=buf)
    step.out = buf
    return step


def _stack(arm, xs, attrs, ports):
    return np.stack(xs, axis=attrs["axis"]), None


def _stack_backward(arm, g, ports, ctx, attrs) -> None:
    axis = attrs["axis"]
    for port, grad in zip(ports, np.split(g, len(ports), axis=axis)):
        if port.requires_grad:
            port._accumulate(np.squeeze(grad, axis=axis))


def _pad2d(arm, xs, attrs, ports):
    p = attrs["padding"]
    return np.pad(xs[0], ((0, 0), (0, 0), (p, p), (p, p)), mode="constant"), None


def _pad2d_backward(arm, g, ports, ctx, attrs) -> None:
    if ports[0].requires_grad:
        p = attrs["padding"]
        ports[0]._accumulate(g[:, :, p:-p, p:-p])


def _clone(arm, xs, attrs, ports):
    return xs[0].copy(), None


def _clone_backward(arm, g, ports, ctx, attrs) -> None:
    if ports[0].requires_grad:
        ports[0]._accumulate(g)


_ADD = _ir.define_op("add", _add, _add_backward, _into(np.add), _elementwise("add"))
_MUL = _ir.define_op("mul", _mul, _mul_backward, _into(np.multiply), _elementwise("mul"))
_DIV = _ir.define_op("div", _div, _div_backward, _into(np.divide), _elementwise("div"))
_POW = _ir.define_op("pow", _pow, _pow_backward)
_MATMUL = _ir.define_op("matmul", _matmul, _matmul_backward)
_RELU = _ir.define_op("relu", _relu, _relu_backward,
                      _into(lambda x, out: np.maximum(x, 0.0, out=out)),
                      _ir.Stage(_ir.EPILOGUE, _relu_program, lambda xs, attrs: (xs[0].size,)))
_SUM = _ir.define_op("sum", _sum, _sum_backward, bind=_reduce_bind(np.ndarray.sum))
_MAX = _ir.define_op("max", _max, _max_backward, bind=_reduce_bind(np.ndarray.max))
_RESHAPE = _ir.define_op("reshape", _reshape, _reshape_backward,
                         _view_bind(np.ndarray.reshape, "shape"), _ir.Stage(_ir.LAYOUT))
_TRANSPOSE = _ir.define_op("transpose", _transpose, _transpose_backward,
                           bind=_view_bind(np.ndarray.transpose, "axes"))
_GETITEM = _ir.define_op("getitem", _getitem, _getitem_backward)
_CONCAT = _ir.define_op("concat", _concat, _concat_backward, _concat_bind, _ir.Stage(_ir.SINK))
_STACK = _ir.define_op("stack", _stack, _stack_backward)
_PAD2D = _ir.define_op("pad2d", _pad2d, _pad2d_backward)
_CLONE = _ir.define_op("clone", _clone, _clone_backward)
# Identity on the data; the detachment (no backward) is a property of the
# node, not of the value.
_ir.define_op("detach", lambda arm, xs, attrs, ports: (xs[0], None))


def _apply(op: _ir.Op, parents: Tuple["Tensor", ...], attrs: Optional[dict] = None) -> "Tensor":
    """Run table op ``op`` over ``parents``' data and record the call; the
    node keeps ``attrs`` only inside a capture (the thunk has its own)."""
    out, ctx = op.forward(None, [p.data for p in parents], attrs, parents)
    return Tensor._make(out, parents, op.name, op.thunk(None, parents, ctx, attrs),
                        attrs=attrs if _capturing() else None)


def _taping(*parents) -> bool:
    """Whether an op over ``parents`` (``None`` entries skipped) gets a
    backward thunk — :meth:`Tensor._make`'s rule."""
    if _GRAD_ENABLED:
        for parent in parents:
            if parent is not None and parent.requires_grad:
                return True
    return False


def _unwrap_index(index):
    """Unwrap :class:`Tensor` indices (also inside tuples) to their arrays.

    Like PyTorch, ``x[idx]`` accepts an integer ``Tensor`` wherever it
    accepts an integer ndarray; numpy itself would reject the wrapper with a
    raw ``IndexError``.  The unwrapped form is what gets recorded in the
    node attrs and replayed by ``np.add.at`` in the gradient path.
    """
    if isinstance(index, Tensor):
        return index.data
    if isinstance(index, tuple):
        return tuple(
            item.data if isinstance(item, Tensor) else item for item in index
        )
    return index


def _normalize_axes(axis, ndim: int) -> Tuple[int, ...]:
    """Return ``axis`` as a tuple of non-negative ints sorted ascending."""
    if isinstance(axis, (tuple, list)):
        axes = tuple(axis)
    else:
        axes = (axis,)
    return tuple(sorted(a % ndim for a in axes))


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        The underlying values (converted to ``float32`` by default).
    requires_grad:
        If ``True`` the tensor accumulates gradients during
        :meth:`backward`.
    dtype:
        Override the storage dtype (e.g. ``np.float64`` for finite-difference
        gradient checking).  ``None`` keeps the ``float32`` default.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "_topo", "__weakref__")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype=None,
    ) -> None:
        self.data = _as_array(data, dtype=dtype or np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._node: Optional[_ir.GraphNode] = None
        self._topo: Optional[list] = None

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        data = self.numpy()
        if data.size != 1:
            raise ValueError(
                f"item() only works on tensors with exactly one element, "
                f"got shape {self.shape}"
            )
        return float(data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the *gradient* graph.

        No gradient ever flows through the result.  Inside an
        :func:`repro.autograd.ir.capture` block the detachment is still
        recorded as a backward-less identity node, so a captured trace knows
        the value is data-dependent — a serving replay recomputes it from
        the new inputs instead of freezing the trace-time activation.
        """
        out = Tensor(self.data, requires_grad=False, dtype=self.data.dtype)
        graph = _ir._CAPTURE.graph
        if graph is not None:
            node = _ir.GraphNode("detach", (self,), None, out)
            out._node = node
            graph.nodes.append(node)
        return out

    def clone(self) -> "Tensor":
        """Return a copy of this tensor that participates in the graph."""
        return _apply(_CLONE, (self,))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        op = self._node.op if self._node is not None else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, op={op!r})"

    def __len__(self) -> int:
        return self.data.shape[0]

    # ------------------------------------------------------------------ #
    # Graph helpers
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: Optional[np.ndarray]) -> None:
        """Accumulate a gradient buffer we do **not** own.

        The first contribution is copied once so ``self.grad`` is always an
        owned, writable buffer; later contributions are added in place.
        """
        if grad is None:
            return
        g = self.grad
        if g is None:
            dtype = self.data.dtype
            self.grad = (
                grad.astype(dtype) if grad.dtype != dtype else _owned_copy(grad)
            )
        else:
            np.add(g, grad, out=g)

    def _accumulate_fresh(self, grad: np.ndarray) -> None:
        """Accumulate a freshly allocated, writable gradient buffer.

        Ownership of ``grad`` is donated: when no gradient has been recorded
        yet the buffer is adopted as-is (no copy), otherwise it is added in
        place into the owned buffer.
        """
        g = self.grad
        if g is None:
            dtype = self.data.dtype
            self.grad = grad if grad.dtype == dtype else grad.astype(dtype)
        else:
            np.add(g, grad, out=g)

    @staticmethod
    def _wrap(other: ArrayLike) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        op: str,
        backward: Callable[["Tensor"], Callable[[], None]],
        attrs: Optional[dict] = None,
    ) -> "Tensor":
        """Record one operation as a :class:`~repro.autograd.ir.GraphNode`.

        A node is created when gradients are being tracked *or* an
        :func:`repro.autograd.ir.capture` block is active (so ``no_grad``
        serving traces still record the graph); the backward thunk is built
        only in the former case.  ``attrs`` carries the saved arrays and op
        parameters the fusion/replay passes need.
        """
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        graph = _ir._CAPTURE.graph
        out = Tensor(data, requires_grad=requires, dtype=data.dtype)
        if requires or graph is not None:
            node = _ir.GraphNode(op, parents, attrs, out)
            if requires:
                node.backward = backward(out)
            out._node = node
            if graph is not None:
                graph.nodes.append(node)
        return out

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        return _apply(_ADD, (self, self._wrap(other)))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _apply(_NEG, (self,))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._wrap(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return _apply(_MUL, (self, self._wrap(other)))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return _apply(_DIV, (self, self._wrap(other)))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other) / self

    def __pow__(self, exponent) -> "Tensor":
        # numpy scalars register with the numbers ABCs, so this covers
        # np.float32/np.float64/np.intXX as well as Python int/float.
        if not isinstance(exponent, numbers.Real):
            raise TypeError(
                "Tensor.__pow__ only supports real scalar exponents, got "
                f"{type(exponent).__name__}"
            )
        return _apply(_POW, (self,), {"exponent": float(exponent)})

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return _apply(_MATMUL, (self, self._wrap(other)))

    def abs(self) -> "Tensor":
        return _apply(_ABS, (self,))

    def exp(self) -> "Tensor":
        return _apply(_EXP, (self,))

    def log(self) -> "Tensor":
        return _apply(_LOG, (self,))

    def sqrt(self) -> "Tensor":
        return _apply(_SQRT, (self,))

    # ------------------------------------------------------------------ #
    # Non-linearities
    # ------------------------------------------------------------------ #
    def relu(self) -> "Tensor":
        # The mask is a gradient-only artifact: computing it in inference
        # would waste a full-size compare, so it exists only when a backward
        # will.
        if not (_GRAD_ENABLED and self.requires_grad):
            return self._make(_ws_relu(self.data), (self,), "relu", None)
        xs, parents = (self.data,), (self,)
        arm = _RELU.arm(xs, None)
        result, mask = _RELU.forward(arm, xs, None, parents)
        return self._make(result, parents, "relu", _RELU.thunk(arm, parents, mask, None),
                          attrs={"mask": mask})

    def sigmoid(self) -> "Tensor":
        return _apply(_SIGMOID, (self,))

    def tanh(self) -> "Tensor":
        return _apply(_TANH, (self,))

    # ------------------------------------------------------------------ #
    # Reductions and shape manipulation
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _apply(_SUM, (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = 1
            for a in _normalize_axes(axis, self.data.ndim):
                count *= self.shape[a]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        result = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return result

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _apply(_RESHAPE, (self,), {"shape": shape})

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        return _apply(_TRANSPOSE, (self,), {"axes": axes})

    def flatten(self, start_dim: int = 1) -> "Tensor":
        new_shape = self.shape[:start_dim] + (-1,)
        return self.reshape(new_shape)

    def __getitem__(self, index) -> "Tensor":
        return _apply(_GETITEM, (self,), {"index": _unwrap_index(index)})

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _apply(_MAX, (self,), {"axis": axis, "keepdims": keepdims})

    # ------------------------------------------------------------------ #
    # Combination helpers used by the two-branch model
    # ------------------------------------------------------------------ #
    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._wrap(t) for t in tensors]
        if not tensors:
            raise ValueError(
                "Tensor.concatenate() needs at least one tensor, got an empty sequence"
            )
        return _apply(_CONCAT, tuple(tensors), {"axis": axis})

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._wrap(t) for t in tensors]
        if not tensors:
            raise ValueError(
                "Tensor.stack() needs at least one tensor, got an empty sequence"
            )
        return _apply(_STACK, tuple(tensors), {"axis": axis})

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the two trailing spatial dimensions of an NCHW tensor."""
        if padding == 0:
            return self
        return _apply(_PAD2D, (self,), {"padding": padding})

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None, retain_graph: bool = False) -> None:
        """Back-propagate gradients from this tensor through the graph.

        The recorded node graph is topologically sorted by
        :func:`repro.autograd.ir.toposort` (leaves — nodes without a
        backward thunk — are pruned exactly as the historical tensor-level
        sort pruned them), and every node's thunk runs in reverse order.

        Parameters
        ----------
        grad:
            Seed gradient; defaults to ``1`` for scalar tensors.
        retain_graph:
            When ``False`` (the default) the recorded graph is freed **as
            the pass goes**: each node's backward closure, parent links,
            saved arrays and output link are dropped as soon as its thunk
            has run, so an interior gradient or a saved array lives only
            until its consumer is done with it, not until the end of the
            pass.  If a thunk raises, the nodes that already ran stay freed:
            a second ``backward()`` over that graph raises the freed-graph
            ``RuntimeError`` instead of accumulating twice.  Pass ``True``
            to keep the graph alive for another ``backward()`` call; the
            topologically sorted node list is cached on this tensor and
            reused by subsequent calls.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            seed = np.ones_like(self.data)
        else:
            arr = np.asarray(grad)
            if arr.dtype != self.data.dtype:
                arr = arr.astype(self.data.dtype)
            else:
                arr = arr.copy()  # ownership copy: .grad buffers are always writable
            seed = arr.reshape(self.data.shape)

        topo = self._topo
        if topo is None:
            topo = _ir.toposort(self._node) if self._node is not None else []

        # Interior-node grads are transient: clear them so a repeated pass
        # over a retained graph does not double-count (leaves, which are not
        # in the topo list, keep accumulating as expected).  Nodes freed by
        # another root's pass have dropped their output tensor; their
        # sentinel raises below.
        for node in topo:
            out = node.out
            if out is not None:
                out.grad = None
        self.grad = seed

        # Unless the graph is retained, each node is freed as soon as its
        # thunk has run: the closure goes (breaking the tensor<->closure
        # cycles) and a raising sentinel stays, so a later backward over
        # this graph fails loudly; the saved arrays and the output link go
        # with it, so peak memory is what is live *between* two thunks, not
        # the sum over the pass.  A leaf root never had a node and stays
        # repeatable.
        profiler = _get_profile().active_profiler()
        if profiler is None:
            for node in reversed(topo):
                backward_fn = node.backward
                if backward_fn is not None:
                    backward_fn()
                if not retain_graph:
                    _free_node(node)
        else:
            # Timing-only instrumentation: the same thunks run in the same
            # order and are freed at the same points, so gradients stay
            # bit-identical and peak memory unchanged with profiling on.
            perf = time.perf_counter
            with profiler.step("backward"):
                for node in reversed(topo):
                    backward_fn = node.backward
                    if backward_fn is not None:
                        start = perf()
                        backward_fn()
                        elapsed = perf() - start  # compiled stages have rows of their own
                        profiler.record("backward:" + node.op, elapsed - profiler.take_inner())
                    if not retain_graph:
                        _free_node(node)

        self._topo = topo if retain_graph else None

    # Convenience constructors -------------------------------------------------
    #
    # All constructors accept the shape either splatted (``Tensor.zeros(3, 4)``)
    # or as a single tuple (``Tensor.zeros((3, 4))``), default to float32
    # storage, and take ``requires_grad``/``dtype`` keywords.  The random
    # constructors are seeded through an **explicit**
    # :class:`numpy.random.Generator` (``rng=``) so model initialisation is
    # reproducible without touching numpy's global state; ``rng=None`` falls
    # back to the seeded global generator (:func:`repro.backend.default_rng`,
    # reset by ``repro.nn.init.manual_seed``), so one ``manual_seed`` call
    # makes every default draw in the stack deterministic.
    @staticmethod
    def _splat_shape(shape: Tuple) -> Tuple[int, ...]:
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            return tuple(int(s) for s in shape[0])
        return tuple(int(s) for s in shape)

    @staticmethod
    def zeros(*shape, dtype=None, requires_grad: bool = False) -> "Tensor":
        """All-zeros tensor; shape splatted or as one tuple."""
        data = np.zeros(Tensor._splat_shape(shape), dtype=dtype or np.float32)
        return Tensor(data, requires_grad=requires_grad, dtype=data.dtype)

    @staticmethod
    def ones(*shape, dtype=None, requires_grad: bool = False) -> "Tensor":
        """All-ones tensor; shape splatted or as one tuple."""
        data = np.ones(Tensor._splat_shape(shape), dtype=dtype or np.float32)
        return Tensor(data, requires_grad=requires_grad, dtype=data.dtype)

    @staticmethod
    def full(shape, fill_value: float, dtype=None, requires_grad: bool = False) -> "Tensor":
        """Constant tensor of ``shape`` (int or tuple) filled with ``fill_value``."""
        if isinstance(shape, numbers.Integral):
            shape = (int(shape),)
        data = np.full(tuple(shape), fill_value, dtype=dtype or np.float32)
        return Tensor(data, requires_grad=requires_grad, dtype=data.dtype)

    @staticmethod
    def randn(
        *shape,
        rng: Optional[np.random.Generator] = None,
        dtype=None,
        requires_grad: bool = False,
    ) -> "Tensor":
        """Standard-normal tensor drawn from ``rng`` (or the seeded global one)."""
        rng = rng if rng is not None else default_rng()
        data = rng.standard_normal(Tensor._splat_shape(shape))
        data = data.astype(dtype or np.float32)
        return Tensor(data, requires_grad=requires_grad, dtype=data.dtype)

    @staticmethod
    def uniform(
        *shape,
        low: float = 0.0,
        high: float = 1.0,
        rng: Optional[np.random.Generator] = None,
        dtype=None,
        requires_grad: bool = False,
    ) -> "Tensor":
        """Uniform ``[low, high)`` tensor drawn from ``rng`` (or the seeded global one)."""
        rng = rng if rng is not None else default_rng()
        data = rng.uniform(low, high, Tensor._splat_shape(shape))
        data = data.astype(dtype or np.float32)
        return Tensor(data, requires_grad=requires_grad, dtype=data.dtype)
