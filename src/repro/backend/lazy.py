"""LazyBackend: defer elementwise primitives into codegen regions.

The graph-IR fusion pass (:mod:`repro.autograd.fusion`) needs a recorded
tape to rewrite.  :class:`LazyBackend` delivers the same region fusion to
**eager** code without tracing: the elementwise primitives (``add`` /
``multiply`` / ``divide`` / ``negative`` / ``relu``) return a
:class:`LazyArray` — a node in a growing elementwise expression DAG —
instead of computing.  The chain keeps accumulating until something needs
concrete values, at which point the whole pending region is flushed through
:func:`repro.codegen.compile_region` as **one kernel** (compiled C when
available, the bit-equal numpy interpreter arm otherwise).

Forced points need no special-casing in the calling code:

- **matmul / conv / every other backend method** are inherited from
  :class:`~repro.backend.numpy_backend.NumpyBackend` unmodified; they run
  numpy functions or ndarray methods on their operands, and
  :class:`LazyArray` forces itself whenever numpy converts it
  (``__array__``) or an attribute/method is looked up on it.  ``sum`` and
  ``mean`` are the exception: when the reduced axes are a trailing
  contiguous run they *defer into the region* as reduction-tail nodes
  (the codegen reduce stages replay numpy's pairwise summation
  bit-for-bit), so a softmax-CE epilogue no longer forces the chain;
  other axis layouts force and run eagerly as before.
- **``.data`` reads** — indexing, ``float()``, comparisons, printing — all
  route through the same forcing protocol; :meth:`Tensor.numpy` swaps the
  concrete array back into the tensor.
- **``Tensor.backward``** pauses deferral for the whole thunk loop
  (:func:`set_deferral`), so gradient math runs exactly the eager op
  sequence and stays bit-identical to the numpy backend.

An op joins the pending region only when every operand is a same-dtype
float32/float64 ndarray (or lazy node); anything else — dtype promotion,
python scalars after numpy coerces oddly, object arrays — falls through to
the eager ufunc, so semantics never change, only batching.
"""

from __future__ import annotations

import contextlib
import threading
from typing import List, Optional, Tuple

import numpy as np

from repro.backend import workspace
from repro.backend.numpy_backend import NumpyBackend
from repro.codegen import RegionIR, RegionInput, compile_region

__all__ = [
    "LazyArray",
    "LazyBackend",
    "deferral_enabled",
    "pause_deferral",
    "set_deferral",
]

#: Per-thread deferral state (default: deferring).  Thread-local because
#: ``Tensor.backward`` pauses deferral with save/restore around its thunk
#: loop: two concurrent backward passes on a process-wide flag would
#: restore each other's value mid-run, re-enabling deferral inside a
#: backward and handing ``_accumulate_fresh`` a LazyArray as ``.grad``.
_DEFER = threading.local()

#: Cap on ops per flushed region (mirrors the fusion pass): bounds the
#: generated-C size; an over-long chain forces its deepest operand and
#: continues from the concrete intermediate.
_MAX_CHAIN = 32

_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)

#: Region op -> the eager primitive that computes it when not deferring.
_EAGER = {
    "add": NumpyBackend.add,
    "mul": NumpyBackend.multiply,
    "div": NumpyBackend.divide,
}


def deferral_enabled() -> bool:
    """Whether lazy primitives defer (vs. compute eagerly) on this thread."""
    return getattr(_DEFER, "flag", True)


def set_deferral(flag: bool) -> bool:
    """Set this thread's deferral flag; returns the previous value."""
    previous = getattr(_DEFER, "flag", True)
    _DEFER.flag = bool(flag)
    return previous


@contextlib.contextmanager
def pause_deferral():
    """Scoped ``set_deferral(False)`` — eager semantics inside the block."""
    previous = set_deferral(False)
    try:
        yield
    finally:
        set_deferral(previous)


class LazyArray:
    """One node of a pending elementwise region.

    Carries shape/dtype metadata (computed at creation, so shape queries
    never force) plus the op and source operands.  ``_value`` caches the
    concrete array after the first flush; the source links are dropped at
    that point so the expression DAG is reclaimed promptly.
    """

    _repro_lazy = True

    __slots__ = ("op", "srcs", "shape", "dtype", "nops", "meta", "_value")

    def __init__(
        self,
        op: str,
        srcs: tuple,
        shape: Tuple[int, ...],
        dtype,
        meta: Optional[tuple] = None,
    ) -> None:
        self.op = op
        self.srcs = srcs
        self.shape = tuple(shape)
        self.dtype = dtype
        self.meta = meta  # (k, keepdims) for deferred sum/mean, else None
        self.nops = 1 + sum(
            s.nops for s in srcs if isinstance(s, LazyArray) and s._value is None
        )
        self._value = None

    # ---- metadata (never forces) ------------------------------------- #
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of unsized object")
        return self.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "forced" if self._value is not None else f"pending:{self.nops} ops"
        return f"LazyArray(op={self.op!r}, shape={self.shape}, {state})"

    # ---- forcing protocol --------------------------------------------- #
    def _force(self) -> np.ndarray:
        value = self._value
        if value is None:
            value = _flush(self)
            self._value = value
            self.srcs = ()
        return value

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        value = self._force()
        if dtype is not None and value.dtype != np.dtype(dtype):
            return value.astype(dtype)
        if copy:
            return value.copy()
        return value

    def __getattr__(self, name):
        # Everything not defined here (.sum(), .reshape(), .astype(), ...)
        # delegates to the concrete array — each is a flush point.
        return getattr(self._force(), name)

    def __getitem__(self, index):
        return self._force()[index]

    def __float__(self) -> float:
        return float(self._force())

    def __int__(self) -> int:
        return int(self._force())

    def __bool__(self) -> bool:
        return bool(self._force())

    def __iter__(self):
        return iter(self._force())

    # ---- eager arithmetic/comparisons (flush points) ------------------ #
    # Direct numpy-style math on .data outside the backend is rare (masks,
    # user inspection); forcing keeps its semantics exactly eager.
    def __add__(self, other):
        return np.add(self._force(), _concrete(other))

    def __radd__(self, other):
        return np.add(_concrete(other), self._force())

    def __sub__(self, other):
        return np.subtract(self._force(), _concrete(other))

    def __rsub__(self, other):
        return np.subtract(_concrete(other), self._force())

    def __mul__(self, other):
        return np.multiply(self._force(), _concrete(other))

    def __rmul__(self, other):
        return np.multiply(_concrete(other), self._force())

    def __truediv__(self, other):
        return np.divide(self._force(), _concrete(other))

    def __rtruediv__(self, other):
        return np.divide(_concrete(other), self._force())

    def __neg__(self):
        return np.negative(self._force())

    def __pow__(self, other):
        return np.power(self._force(), _concrete(other))

    def __gt__(self, other):
        return self._force() > _concrete(other)

    def __ge__(self, other):
        return self._force() >= _concrete(other)

    def __lt__(self, other):
        return self._force() < _concrete(other)

    def __le__(self, other):
        return self._force() <= _concrete(other)

    def __eq__(self, other):
        return self._force() == _concrete(other)

    def __ne__(self, other):
        return self._force() != _concrete(other)

    __hash__ = None


def _concrete(value):
    """The concrete array behind ``value`` (identity for non-lazy)."""
    if isinstance(value, LazyArray):
        return value._force()
    return value


def _flush(root: LazyArray) -> np.ndarray:
    """Run the pending region below ``root`` as one kernel."""
    # Post-order over the unforced DAG: children before parents, shared
    # nodes once (regions are DAG-capable — an op may reference one slot
    # twice).
    order: List[LazyArray] = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for src in node.srcs:
            if isinstance(src, LazyArray) and src._value is None:
                stack.append((src, False))

    leaves: List[np.ndarray] = []
    leaf_slot = {}
    for node in order:
        for src in node.srcs:
            if isinstance(src, LazyArray) and src._value is None:
                continue
            arr = src._value if isinstance(src, LazyArray) else src
            if id(arr) not in leaf_slot:
                leaf_slot[id(arr)] = len(leaves)
                leaves.append(arr)

    n_ext = len(leaves)
    node_slot = {id(node): n_ext + j for j, node in enumerate(order)}
    ops = []
    for node in order:
        srcs = []
        for src in node.srcs:
            if isinstance(src, LazyArray) and src._value is None:
                srcs.append(node_slot[id(src)])
            else:
                arr = src._value if isinstance(src, LazyArray) else src
                srcs.append(leaf_slot[id(arr)])
        if node.meta is not None:
            ops.append((node.op, tuple(srcs), node.meta))
        else:
            ops.append((node.op, tuple(srcs)))

    region = RegionIR(
        [RegionInput(a.dtype, a.shape) for a in leaves],
        ops,
        root.shape,
        root.dtype,
    )
    return compile_region(region)(leaves, out=workspace.empty(root.shape, root.dtype))


def _operand(value) -> Optional[tuple]:
    """``(shape, dtype)`` if ``value`` may join a region, else ``None``."""
    if isinstance(value, LazyArray):
        return value.shape, value.dtype
    if isinstance(value, np.ndarray) and value.dtype in (_F32, _F64):
        return value.shape, value.dtype
    return None


class LazyBackend(NumpyBackend):
    """The numpy backend with elementwise primitives deferred into regions.

    Everything else — matmul, convolutions, reductions, softmax, batch
    norm, optimizer rules — is inherited and runs eagerly, forcing pending
    operands through the :class:`LazyArray` conversion protocol.  Results
    are bit-identical to ``NumpyBackend`` by the codegen contract.
    """

    name = "lazy"

    # ---- deferred elementwise primitives ------------------------------ #
    def _defer_binary(self, op: str, a, b):
        if deferral_enabled():
            ma, mb = _operand(a), _operand(b)
            if ma is not None and mb is not None and ma[1] == mb[1]:
                try:
                    shape = np.broadcast_shapes(ma[0], mb[0])
                except ValueError:
                    shape = None  # let the eager ufunc raise its own error
                if shape is not None:
                    a = _maybe_force_long_chain(a)
                    b = _maybe_force_long_chain(b)
                    return LazyArray(op, (a, b), shape, ma[1])
        return _EAGER[op](self, _concrete(a), _concrete(b))

    def add(self, a, b):
        return self._defer_binary("add", a, b)

    def multiply(self, a, b):
        return self._defer_binary("mul", a, b)

    def divide(self, a, b):
        return self._defer_binary("div", a, b)

    def negative(self, a):
        if deferral_enabled():
            ma = _operand(a)
            if ma is not None:
                a = _maybe_force_long_chain(a)
                return LazyArray("neg", (a,), ma[0], ma[1])
        return np.negative(_concrete(a))

    def relu(self, x):
        if deferral_enabled():
            mx = _operand(x)
            if mx is not None:
                x = _maybe_force_long_chain(x)
                return LazyArray("relu", (x,), mx[0], mx[1])
        return super().relu(_concrete(x))

    # ---- deferred reduction tails ------------------------------------- #
    # sum/mean defer when the reduced axes form a trailing contiguous run —
    # the only layout the codegen reduce stages render (numpy's pairwise
    # summation over the rows of a C-contiguous view, which the C arm
    # replays bit-for-bit).  Any other axis set forces the operand and runs
    # the eager ndarray method, exactly as before this layer existed.
    def _defer_reduce(self, op: str, x, axis, keepdims: bool):
        if deferral_enabled():
            mx = _operand(x)
            if mx is not None:
                shape, dtype = mx
                k = _trailing_axes(len(shape), axis)
                if k is not None:
                    x = _maybe_force_long_chain(x)
                    kept = shape[: len(shape) - k]
                    out_shape = kept + (1,) * k if keepdims else kept
                    return LazyArray(op, (x,), out_shape, dtype,
                                     meta=(k, bool(keepdims)))
        x = _concrete(x)
        fn = x.sum if op == "sum" else x.mean
        return fn(axis=axis, keepdims=keepdims)

    def sum(self, x, axis=None, keepdims: bool = False):
        return self._defer_reduce("sum", x, axis, keepdims)

    def mean(self, x, axis=None, keepdims: bool = False):
        return self._defer_reduce("mean", x, axis, keepdims)


def _trailing_axes(ndim: int, axis) -> Optional[int]:
    """``k`` when ``axis`` names exactly the last ``k`` of ``ndim`` axes.

    ``None`` means the reduction cannot join a region (non-trailing axes,
    zero-rank operand, or an out-of-range axis the eager method should
    report with its own error).
    """
    if ndim == 0:
        return None
    if axis is None:
        return ndim
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    norm = set()
    for a in axes:
        if not isinstance(a, int) or not -ndim <= a < ndim:
            return None
        norm.add(a + ndim if a < 0 else a)
    k = len(norm)
    if norm == set(range(ndim - k, ndim)):
        return k
    return None


def _maybe_force_long_chain(value):
    if isinstance(value, LazyArray) and value._value is None and value.nops >= _MAX_CHAIN:
        value._force()
    return value
