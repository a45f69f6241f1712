"""Graph IR for the tape: explicit nodes instead of opaque closures.

Every operation recorded by :class:`~repro.autograd.tensor.Tensor` becomes a
:class:`GraphNode` — op name, input tensors, saved arrays/attributes and the
backward thunk — hung off the output tensor's ``_node`` attribute.  The
recorded graph is therefore *inspectable and
rewritable*: downstream passes can pattern-match chains of nodes
(:mod:`repro.autograd.fusion`), and a captured trace can be replayed over new
inputs (:mod:`repro.serve`), neither of which was possible when the tape was
a pile of bare closures.

Three pieces live here:

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
- **The op table.** :data:`OPS` holds one :class:`Op` per op the tape
  records — its forward, its backward over the forward's saved context, its
  compiled-arm lookup and its inference bind — defined next to the kernels
  (:func:`define_op`).  The tape op records its call through the entry,
  :mod:`repro.autograd.replay` runs the same entry and :mod:`repro.serve`
  binds it, so each op is written once for every executor.

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
from types import SimpleNamespace
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
        key into the op table :data:`OPS`.
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
#: The port of an input that takes no gradient: what an executor without a
#: tape hands :attr:`Op.forward`.
_CONSTANT = SimpleNamespace(requires_grad=False)


class Op:
    """One op, defined once — the shape of a tinygrad ``Function``: the
    tape op records its call through it, a replayed train step runs it and
    a serving session binds it.

    - ``forward(arm, xs, attrs, ports) -> (out, ctx)``: the output over
      the input arrays ``xs`` and the context its backward reads.  ``ports``
      are the inputs' gradient sinks, read here for ``requires_grad`` only.
    - ``backward(arm, g, ports, ctx, attrs)``: accumulates each input's
      adjoint of the incoming gradient ``g`` into its port
      (``_accumulate_fresh`` / ``_accumulate``, under ``Tensor``'s rules);
      ``None`` for an op no gradient flows through.
    - ``arm(xs, attrs, ask)``: the op's compiled arm
      (:func:`repro.autograd.kernels.arm`, same ``ask``), or ``None`` for
      an op without one.
    - ``bind(xs, attrs, out) -> step`` (see :meth:`bind`), or ``None``.

    A port is the input ``Tensor`` on the tape and a slot or a gradient row
    in a replay; ``arm`` is what the lookup returned, ``None`` meaning the
    numpy bodies.
    """

    __slots__ = ("name", "forward", "backward", "arm", "_bind")

    def __init__(self, name: str, forward: Callable, backward: Optional[Callable] = None,
                 arm: Optional[Callable] = None, bind: Optional[Callable] = None) -> None:
        self.name = name
        self.forward = forward
        self.backward = backward
        self.arm = arm
        self._bind = bind

    def thunk(self, arm, ports, ctx, attrs) -> Callable:
        """The backward factory of one recorded call (``Tensor._make``'s
        ``backward``): the node's thunk runs :attr:`backward` over the
        call's ``ctx`` with the output's gradient."""
        backward = self.backward
        return lambda out: lambda: backward(arm, out.grad, ports, ctx, attrs)

    def bind(self, xs, attrs: dict, out: np.ndarray) -> Callable:
        """The op's inference step, built once at compile time:
        ``step(*arrays) -> ndarray``, the forward of one node over new input
        arrays of the shapes and dtypes it was bound for.

        ``xs`` are the input arrays as far as the executor knows them: its
        own buffer where an input is one (the same array on every call),
        else an example; ``out`` is an example output.  The entry's bind
        runs the eager kernel's numpy calls ``out=`` into buffers it
        allocates here, and exposes them on the step — ``step.out``, the
        buffer every call returns, ``step.patches`` and ``step.region`` /
        ``step.over(kernel)`` for the stage planner.  Without one (or when it declines, returning
        ``None``) the step is the allocating :attr:`forward`, marked
        ``step.generic``."""
        step = self._bind(xs, attrs, out) if self._bind is not None else None
        if step is None:
            forward, ports = self.forward, (_CONSTANT,) * len(xs)

            def step(*arrays):
                return forward(None, arrays, attrs, ports)[0]

            step.generic = True
        return step


#: Op name -> its :class:`Op`.
OPS: Dict[str, Op] = {}


def define_op(name: str, forward: Callable, backward: Optional[Callable] = None,
              arm: Optional[Callable] = None, bind: Optional[Callable] = None) -> Op:
    """Enter op ``name`` into :data:`OPS` (see :class:`Op`); returns it."""
    op = OPS[name] = Op(name, forward, backward, arm, bind)
    return op
