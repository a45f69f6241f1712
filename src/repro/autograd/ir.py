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
  inference bind and its stage description (:class:`Stage`: its part in a
  compiled group, its epilogue as :class:`Program` pieces, its train arm's
  geometry) — defined next to the kernels (:func:`define_op`).  The tape op
  records its call through the entry, :mod:`repro.autograd.replay` runs the
  same entry, :mod:`repro.serve` binds it and both stage planners read its
  description, so each op is written once for every executor.

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
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.codegen.cstage import operand_strides

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.autograd.tensor import Tensor

__all__ = [
    "Fallback",
    "GraphNode",
    "Graph",
    "Op",
    "OPS",
    "Program",
    "Readers",
    "Stage",
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
    its numpy steps, which take whatever numpy takes) or when an input a
    compiled product reads is laid out otherwise (``layout``: that call
    runs the numpy steps)."""

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
    (:meth:`repro.obs.profile.Profiler.record_inner`) — or, named ``None``,
    records rows of its own (a serving session's driver, one per group it
    runs); the caller opens the profiler step around the call.  The same
    closures run in the same order either way, so profiling changes no
    result.
    """
    if profiler is None:
        for step in steps:
            step(values)
        return
    perf = time.perf_counter
    for name, step in zip(names, steps):
        if name is None:
            step(values)
            continue
        start = perf()
        step(values)
        profiler.record(name, perf() - start - profiler.take_inner())


class Readers:
    """Who reads each value of a node list in recording order: ``uses[id(t)]``,
    how many node inputs name tensor ``t``, and the last node reading it.
    :meth:`chain` is the single-consumer walk both stage planners group by —
    a serving session's gather → GEMM → epilogue groups
    (:class:`repro.serve.stages.SessionPlan`) and a replayed train step's
    conv blocks (:mod:`repro.autograd.replay`)."""

    def __init__(self, nodes) -> None:
        self.nodes = nodes
        self.uses: Dict[int, int] = {}
        self._reader: Dict[int, int] = {}
        for j, node in enumerate(nodes):
            for t in node.inputs:
                self.uses[id(t)] = self.uses.get(id(t), 0) + 1
                self._reader[id(t)] = j

    def chain(self, j: int, accept: Callable) -> Iterator[int]:
        """The indices of the nodes after ``nodes[j]`` along single-consumer
        edges — each the only reader of the output before it — for as long
        as ``accept(k, node, t)`` holds (``t``: the output ``node`` reads)."""
        t = self.nodes[j].out
        while self.uses.get(id(t)) == 1:
            k = self._reader[id(t)]
            if not accept(k, self.nodes[k], t):
                return
            yield k
            t = self.nodes[k].out


def explain_rows(rows) -> List[Dict[str, object]]:
    """``explain()`` rows from ``(ops, arm, reason)`` triples: the trace ops
    a step covers, the arm that runs it and why it is not compiled."""
    return [
        {"step": i, "ops": list(ops), "arm": arm, "reason": reason}
        for i, (ops, arm, reason) in enumerate(rows)
    ]


# --------------------------------------------------------------------------- #
# Stage descriptions: how an op becomes compiled C stages
# --------------------------------------------------------------------------- #
#: An op's part in a serving group (:class:`Stage`).
HEAD, EPILOGUE, ELEMENTWISE, LAYOUT, SINK = "head", "epilogue", "elementwise", "layout", "sink"


class Program:
    """A :mod:`repro.codegen.cstage` ``map`` program being written over the
    logical shape ``against`` (the batch first): its operands, ``(ref,
    strides)`` with ``ref`` what its writer binds (a table row, an array, a
    tensor), the ops over them, the running ``value`` and a max-pool window
    ``pool``.  A src is ``("in", k)`` or ``("op", i)``.  A ``literal``
    program (a train arm's) strides a channel vector even for one channel."""

    def __init__(self, against, literal: bool = False) -> None:
        self.against, self.literal = tuple(against), literal
        self.operands: list = []
        self.program: list = []
        self.value = self.pool = None

    def input(self, ref, strides):
        for k, (have, have_strides) in enumerate(self.operands):
            if have is ref and have_strides == strides:
                return ("in", k)
        self.operands.append((ref, strides))
        return ("in", len(self.operands) - 1)

    def operand(self, ref, shape, activation: bool = False):
        return self.input(ref, operand_strides(shape, self.against, activation))

    def channel(self, ref):
        """A per-channel vector (axis 1), broadcast over every other axis."""
        rest = len(self.against) - 2
        if self.literal:
            return self.input(ref, (0, 1) + (0,) * rest)
        return self.operand(ref, self.against[1:2] + (1,) * rest)

    def apply(self, op: str, *srcs):
        self.program.append((op, srcs))
        self.value = ("op", len(self.program) - 1)
        return self.value

    def number(self, src) -> int:
        return src[1] if src[0] == "in" else len(self.operands) + src[1]

    def stage(self, dtype: str, dst, size, offset: int = 0, inputs=None, sums=()) -> tuple:
        """The ``map`` stage of the program, its operands bound as ``inputs``
        (by default as they are: table rows), with per-channel ``sums``."""
        ops = tuple((op, tuple(map(self.number, srcs))) for op, srcs in self.program)
        inputs = tuple(self.operands) if inputs is None else inputs
        return ("map", dtype, self.against[1:], inputs, ops, self.pool, dst, size, offset) + (
            (sums,) if sums else ())


class Stage(NamedTuple):
    """An op's stage description: what the stage planners —
    :class:`repro.serve.stages.SessionPlan` and
    :func:`repro.autograd.kernels.arm` — read instead of the op's name.

    - ``part``: the op's part in a serving group, or ``None``.
      :data:`HEAD`, a GEMM that starts one (conv2d with its gather, a 2-D
      linear); :data:`EPILOGUE`, an op over the group's running value
      (relu, eval batch-norm, max-pool); :data:`ELEMENTWISE`, an op over
      operands of its own, any of which may be the running value, that may
      start a group too (add, mul, div, neg); :data:`LAYOUT`, a reshape
      closing it; :data:`SINK`, a concat whose axis-1 blocks the groups
      write.
    - ``program(p, geometry, *refs)``: the op's forward as :class:`Program`
      pieces on ``p``.  A head's and an epilogue's running value is the
      op's input (a head reads its GEMM's output, ``refs[0]``), the
      ``refs`` the operands after it, an epilogue's constants first; an
      elementwise op's ``refs`` are the srcs of all its operands.
    - ``geometry(xs, attrs) -> (n, *geometry)``: what the op's train arm is
      keyed by over the input arrays ``xs``, ``n`` its runtime extent;
      ``program`` reads the rest.  ``None``: the op has no train arm.  A
      replayed step's conv block is keyed by its members' geometries
      (batch-norm and max-pool run compiled only there).
    """

    part: Optional[str]
    program: Optional[Callable] = None
    geometry: Optional[Callable] = None


_kernels = None


def _train_kernels():
    """:mod:`repro.autograd.kernels`, imported by the first ask: a process
    that only serves never loads it."""
    global _kernels
    if _kernels is None:
        from repro.autograd import kernels

        _kernels = kernels
    return _kernels


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
    - ``bind(xs, attrs, out) -> step`` (see :meth:`bind`), or ``None``.
    - ``stage``: its :class:`Stage` description.

    A port is the input ``Tensor`` on the tape and a slot or a gradient row
    in a replay; ``arm`` is what :meth:`arm` returned, ``None`` meaning the
    numpy bodies.
    """

    __slots__ = ("name", "forward", "backward", "_bind", "stage")

    def __init__(self, name: str, forward: Callable, backward: Optional[Callable] = None,
                 bind: Optional[Callable] = None, stage: Stage = Stage(None)) -> None:
        self.name = name
        self.forward = forward
        self.backward = backward
        self._bind = bind
        self.stage = stage

    def arm(self, xs, attrs, ask=True):
        """The op's compiled arm over the input arrays ``xs``:
        :func:`repro.autograd.kernels.arm` at the geometry its description
        keys (same ``ask``), or ``None`` for an op without one of its own."""
        geometry = self.stage.geometry
        if geometry is None:
            return None
        return _train_kernels().arm(self, xs[0].dtype, *geometry(xs, attrs), ask=ask)

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
        buffer every call returns, ``step.patches``, ``step.consts`` and
        ``step.region`` / ``step.over(kernel)`` for the stage planner.
        Without one (or when it declines, returning ``None``) the step is the
        allocating :attr:`forward`, marked ``step.generic``."""
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
              bind: Optional[Callable] = None, stage: Stage = Stage(None)) -> Op:
    """Enter op ``name`` into :data:`OPS` (see :class:`Op`); returns it."""
    op = OPS[name] = Op(name, forward, backward, bind, stage)
    return op
