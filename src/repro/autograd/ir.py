"""Graph IR for the tape: explicit nodes instead of opaque closures.

Every operation recorded by :class:`~repro.autograd.tensor.Tensor` becomes a
:class:`GraphNode` — op name, input tensors, saved arrays/attributes and the
backward thunk — hung off the output tensor's ``_node`` attribute.  The
recorded graph is therefore *inspectable and
rewritable*: downstream passes can pattern-match chains of nodes
(:mod:`repro.autograd.fusion`), and a captured trace can be replayed over new
inputs (:mod:`repro.serve`), neither of which was possible when the tape was
a pile of bare closures.

Four pieces live here:

- **The node/graph types.** ``GraphNode`` is the per-operation record;
  ``Graph`` is an ordered list of nodes collected by :func:`capture` (the
  creation order of a define-by-run trace is already a topological order).
  Outside a capture, nodes are linked only through tensors — no global list
  grows during ordinary training.
- **Topological sorting.** :func:`toposort` walks a node's ancestry
  iteratively (post-order), either pruning backward-less parents exactly the
  way the old tensor-level sort pruned leaves (``backward_only=True``, the
  ``backward()`` path) or following every recorded parent
  (``backward_only=False``, the replay/fusion path).
- **The forward-eval registry.** Each op name maps to a function
  ``fn(backend, input_arrays, attrs) -> ndarray`` that recomputes the op's
  forward from its IR record.  The evaluators reproduce the exact expression
  the trace kernels ran, so a replayed trace is bit-identical to the eager
  computation.  Evaluators for the tensor-level ops are registered below;
  :mod:`repro.autograd.functional` and :mod:`repro.autograd.fusion` register
  their own next to the kernels they mirror.
- **The op table.** :data:`OPS` holds one :class:`Op` per op a replayed
  train step runs — its compiled-arm lookup, its forward and its backward
  over the forward's saved context — defined next to the kernels
  (:func:`define_op`).  The tape op records its call through the entry and
  :mod:`repro.autograd.replay` runs the same entry, so each such op is
  written once.

Lifetime: ``backward(retain_graph=False)`` *frees* the visited nodes — the
backward thunk is swapped for a raising sentinel and ``inputs`` / ``attrs`` /
``out`` are dropped — which breaks every tensor↔closure reference cycle so a
finished graph is reclaimed by refcounting alone, exactly as the closure tape
did.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.autograd.tensor import Tensor

__all__ = [
    "Fallback",
    "GraphNode",
    "Graph",
    "Op",
    "OPS",
    "define_op",
    "capture",
    "current_capture",
    "toposort",
    "op_counts",
    "register_forward",
    "has_forward",
    "run_forward",
    "evaluate_node",
    "run_steps",
    "explain_rows",
]


class Fallback(Exception):
    """A replayed route does not apply and the plain one runs instead;
    ``reason`` says why, in the words the counters and ``explain()`` use.

    A train-step replay raises it before touching any state for a tape it
    cannot replay (``module``: for as long as the model stays as it is;
    ``pending``: until the compile thread is done); a serving session's
    compiled step raises it when a by-reference tensor was rebound to an
    array its stages cannot read (``unplannable``: the session goes back to
    its numpy steps, which take whatever numpy takes)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class GraphNode:
    """One recorded operation: the IR record behind an output tensor.

    Attributes
    ----------
    op:
        Operation name (``"linear"``, ``"relu"``, ``"region"``, ...), the
        key into the forward-eval registry and the fusion pattern tables.
    inputs:
        The parent :class:`Tensor` objects, in the op's argument order.
    attrs:
        Saved non-tensor state: op parameters (axis, stride, padding, ...)
        and arrays the backward/replay needs (the relu mask, batch-norm
        ``xhat``/``inv_std``).  ``None`` when the op needs nothing.
    backward:
        The zero-argument backward thunk, ``None`` for nodes recorded
        without gradient tracking (e.g. a captured ``no_grad`` trace), or
        the raising freed-graph sentinel after the graph has been freed.
    out:
        The output tensor (cleared when the node is freed, so a freed graph
        is reclaimable by refcounting).
    """

    __slots__ = ("op", "inputs", "attrs", "backward", "out")

    def __init__(
        self,
        op: str,
        inputs: Tuple["Tensor", ...],
        attrs: Optional[dict],
        out: "Tensor",
        backward: Optional[Callable[[], None]] = None,
    ) -> None:
        self.op = op
        self.inputs = inputs
        self.attrs = attrs
        self.backward = backward
        self.out = out

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        shapes = ", ".join(str(t.shape) for t in self.inputs)
        return f"GraphNode(op={self.op!r}, inputs=({shapes}))"


class Graph:
    """An ordered trace of :class:`GraphNode` records.

    Nodes are appended in creation order by :func:`capture`; for a
    define-by-run trace that order is already topological (every node's
    inputs were produced by earlier nodes or are leaves).
    """

    __slots__ = ("nodes",)

    def __init__(self) -> None:
        self.nodes: List[GraphNode] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[GraphNode]:
        return iter(self.nodes)


class _Capturing(threading.local):
    """Per thread, the graph collecting nodes while a :func:`capture` block
    is active (``graph``; ``None`` almost always).  Read directly by
    ``Tensor._make`` on the hot path.  Per thread, so a capture on one thread
    (a train step, a session compile) never collects another's nodes."""

    graph: Optional[Graph] = None


_CAPTURE = _Capturing()


@contextlib.contextmanager
def capture(graph: Optional[Graph] = None) -> Iterator[Graph]:
    """Collect every node the calling thread records inside the block into a
    :class:`Graph`.

    Capture is independent of gradient mode: under ``no_grad()`` the recorded
    nodes simply carry no backward thunks, which is exactly what a serving
    trace wants.  Nested captures stack (the innermost graph collects).
    """
    g = graph if graph is not None else Graph()
    previous = _CAPTURE.graph
    _CAPTURE.graph = g
    try:
        yield g
    finally:
        _CAPTURE.graph = previous


def current_capture() -> Optional[Graph]:
    """The graph currently collecting the calling thread's nodes, or ``None``."""
    return _CAPTURE.graph


# --------------------------------------------------------------------------- #
# Topological sorting
# --------------------------------------------------------------------------- #
def toposort(root: GraphNode, backward_only: bool = True) -> List[GraphNode]:
    """Iterative post-order topological sort of ``root``'s ancestry.

    With ``backward_only=True`` (the ``backward()`` path) parents whose node
    carries no backward thunk are pruned, mirroring the historical
    tensor-level sort that skipped leaves: gradients reach them through their
    consumers' thunks, and freed-graph sentinels (which are not ``None``)
    still enter the list and fail loudly.  With ``backward_only=False`` every
    recorded parent is followed — the replay and fusion passes need the whole
    trace, including nodes recorded under ``no_grad``.
    """
    topo: List[GraphNode] = []
    visited: set = set()
    stack: List[Tuple[GraphNode, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.inputs:
            pn = parent._node
            if pn is None or id(pn) in visited:
                continue
            if backward_only and pn.backward is None:
                continue
            stack.append((pn, False))
    return topo


def op_counts(nodes: List[GraphNode]) -> Dict[str, int]:
    """Histogram of a node list's ops: ``{op: count}``.

    The shared trace-introspection helper behind
    ``InferenceSession.op_counts`` and profiler summaries.
    """
    counts: Dict[str, int] = {}
    for node in nodes:
        counts[node.op] = counts.get(node.op, 0) + 1
    return counts


# --------------------------------------------------------------------------- #
# Step lists: the replay core of a compiled serving session and of a
# replayed train step
# --------------------------------------------------------------------------- #
def run_steps(steps, values: list, profiler=None, names=()) -> None:
    """Run step closures in order over one list of value slots.

    With a profiler, step ``i`` is timed as one call of the row
    ``names[i]``, less the rows of compiled stages recorded inside it
    (:meth:`repro.obs.profile.Profiler.record_inner`); the caller opens the
    profiler step around the call.  The same closures run in the same order
    either way, so profiling changes no result.
    """
    if profiler is None:
        for step in steps:
            step(values)
        return
    perf = time.perf_counter
    for name, step in zip(names, steps):
        start = perf()
        step(values)
        profiler.record(name, perf() - start - profiler.take_inner())


def explain_rows(rows) -> List[Dict[str, object]]:
    """``explain()`` rows from ``(ops, arm, reason)`` triples: the trace ops
    a step covers, the arm that runs it and why it is not compiled."""
    return [
        {"step": i, "ops": list(ops), "arm": arm, "reason": reason}
        for i, (ops, arm, reason) in enumerate(rows)
    ]


# --------------------------------------------------------------------------- #
# The op table
# --------------------------------------------------------------------------- #
class Op:
    """One op, defined once — the shape of a tinygrad ``Function``: the
    tape op records its call through it and a replayed train step runs it.

    - ``forward(be, arm, xs, attrs, ports) -> (out, ctx)``: the output over
      the input arrays ``xs`` and the context its backward reads.  ``ports``
      are the inputs' gradient sinks, read here for ``requires_grad`` only.
    - ``backward(be, arm, g, ports, ctx, attrs)``: accumulates each input's
      adjoint of the incoming gradient ``g`` into its port
      (``_accumulate_fresh`` / ``_accumulate``, under ``Tensor``'s rules).
    - ``arm(xs, attrs, ask)``: the op's compiled arm
      (:func:`repro.autograd.kernels.arm`, same ``ask``), or ``None`` for
      an op without one.

    A port is the input ``Tensor`` on the tape and a slot or a gradient row
    in a replay; ``arm`` is what the lookup returned, ``None`` meaning the
    numpy bodies.
    """

    __slots__ = ("name", "forward", "backward", "arm")

    def __init__(self, name: str, forward: Callable, backward: Callable,
                 arm: Optional[Callable] = None) -> None:
        self.name = name
        self.forward = forward
        self.backward = backward
        self.arm = arm

    def thunk(self, be, arm, ports, ctx, attrs) -> Callable:
        """The ``make_backward`` of one recorded call (see
        ``Tensor._make``): the node's thunk runs :attr:`backward` over the
        call's ``ctx`` with the output's gradient."""
        backward = self.backward
        return lambda out: lambda: backward(be, arm, out.grad, ports, ctx, attrs)


#: Op name -> its :class:`Op`.
OPS: Dict[str, Op] = {}


def define_op(name: str, forward: Callable, backward: Callable,
              arm: Optional[Callable] = None) -> Op:
    """Enter op ``name`` into :data:`OPS` (see :class:`Op`); returns it."""
    op = OPS[name] = Op(name, forward, backward, arm)
    return op


# --------------------------------------------------------------------------- #
# Forward-eval registry
# --------------------------------------------------------------------------- #
_FORWARD: Dict[str, Callable] = {}


def register_forward(op: str):
    """Decorator registering ``fn(be, inputs, attrs) -> ndarray`` for ``op``."""

    def decorate(fn):
        _FORWARD[op] = fn
        return fn

    return decorate


def has_forward(op: str) -> bool:
    """Whether a forward evaluator is registered for ``op``."""
    return op in _FORWARD


def run_forward(be, op: str, inputs: Tuple[np.ndarray, ...], attrs: Optional[dict]) -> np.ndarray:
    """Recompute ``op``'s forward from raw input arrays and saved attrs."""
    try:
        fn = _FORWARD[op]
    except KeyError:
        raise KeyError(
            f"no forward evaluator registered for op {op!r}; "
            f"known ops: {sorted(_FORWARD)}"
        ) from None
    return fn(be, inputs, attrs or {})


def evaluate_node(node: GraphNode, be, inputs: Tuple[np.ndarray, ...]) -> np.ndarray:
    """Replay ``node``'s forward over new input arrays."""
    return run_forward(be, node.op, inputs, node.attrs)


# --------------------------------------------------------------------------- #
# Evaluators for the tensor-level ops (repro.autograd.tensor).
#
# Each mirrors the exact expression the trace op ran, so replay is
# bit-identical; structural ops stay plain numpy like the ops themselves.
# --------------------------------------------------------------------------- #
@register_forward("add")
def _eval_add(be, inputs, attrs):
    return be.add(inputs[0], inputs[1])


@register_forward("neg")
def _eval_neg(be, inputs, attrs):
    return be.negative(inputs[0])


@register_forward("mul")
def _eval_mul(be, inputs, attrs):
    return be.multiply(inputs[0], inputs[1])


@register_forward("div")
def _eval_div(be, inputs, attrs):
    return be.divide(inputs[0], inputs[1])


@register_forward("pow")
def _eval_pow(be, inputs, attrs):
    return be.power(inputs[0], attrs["exponent"])


@register_forward("matmul")
def _eval_matmul(be, inputs, attrs):
    return be.matmul(inputs[0], inputs[1])


@register_forward("abs")
def _eval_abs(be, inputs, attrs):
    return np.abs(inputs[0])


@register_forward("exp")
def _eval_exp(be, inputs, attrs):
    return be.exp(inputs[0])


@register_forward("log")
def _eval_log(be, inputs, attrs):
    return be.log(inputs[0])


@register_forward("sqrt")
def _eval_sqrt(be, inputs, attrs):
    return be.sqrt(inputs[0])


@register_forward("relu")
def _eval_relu(be, inputs, attrs):
    return be.relu(inputs[0])


@register_forward("sigmoid")
def _eval_sigmoid(be, inputs, attrs):
    return be.sigmoid(inputs[0])


@register_forward("tanh")
def _eval_tanh(be, inputs, attrs):
    return be.tanh(inputs[0])


@register_forward("sum")
def _eval_sum(be, inputs, attrs):
    return be.sum(inputs[0], axis=attrs["axis"], keepdims=attrs["keepdims"])


@register_forward("max")
def _eval_max(be, inputs, attrs):
    return be.amax(inputs[0], axis=attrs["axis"], keepdims=attrs["keepdims"])


@register_forward("reshape")
def _eval_reshape(be, inputs, attrs):
    return inputs[0].reshape(attrs["shape"])


@register_forward("transpose")
def _eval_transpose(be, inputs, attrs):
    return inputs[0].transpose(attrs["axes"])


@register_forward("getitem")
def _eval_getitem(be, inputs, attrs):
    return inputs[0][attrs["index"]]


@register_forward("concat")
def _eval_concat(be, inputs, attrs):
    return np.concatenate(list(inputs), axis=attrs["axis"])


@register_forward("stack")
def _eval_stack(be, inputs, attrs):
    return np.stack(list(inputs), axis=attrs["axis"])


@register_forward("pad2d")
def _eval_pad2d(be, inputs, attrs):
    p = attrs["padding"]
    return np.pad(inputs[0], ((0, 0), (0, 0), (p, p), (p, p)), mode="constant")


@register_forward("clone")
def _eval_clone(be, inputs, attrs):
    return inputs[0].copy()


@register_forward("detach")
def _eval_detach(be, inputs, attrs):
    # Identity on the data; the detachment (no backward thunk) is a
    # property of the node, not of the value.
    return inputs[0]
