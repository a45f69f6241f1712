"""Compiled ``no_grad`` inference: capture a trace once, replay it forever.

:func:`compile_inference` runs one forward pass of an **eval-mode** model
over an example batch inside :func:`repro.autograd.ir.capture` +
``no_grad()``, runs the fusion pass over the captured trace, and compiles
the surviving nodes into a flat list of step closures.  The
returned :class:`InferenceSession` replays that list over new batches with:

- **no tape**: no ``Tensor`` wrapping, no node recording, no module
  dispatch — each step is one bound closure over ndarrays;
- **pre-allocated, reused buffers**: the hot ops (the affine maps,
  convolution and max-pooling, elementwise regions, eval batch-norm, relu,
  concat) write into buffers their binds allocate once at compile time via
  ``out=`` kernels; batch-norm's eval statistics are folded to constants;
- **shape checking**: every call validates the incoming arrays against the
  example batch (fixed shapes are what make buffer reuse safe) and rejects
  mismatches with a clear error.

Those steps are the *no-compiler arm*: the session also plans compiled
loop stages around its GEMMs (:mod:`repro.serve.stages`), has them compiled
off the calling thread — it **never waits for a compiler** — and its owner
thread swaps them in at the top of a later :meth:`InferenceSession.run`;
:meth:`InferenceSession.explain` says which arm runs each step and why.

Replay is **bit-identical** to the eager ``no_grad`` forward: every step is
its op's entry in the op table bound for the trace
(:meth:`repro.autograd.ir.Op.bind`) — the exact op sequence of the eager
kernel, in place where the buffer is owned — or, for an op without a bind,
the entry's forward itself.

Train-mode state is refused twice: models with any module still in training
mode are rejected up front, and traces containing train-mode nodes (a
dropout mask, a batch-norm that would re-update running statistics) are
rejected after capture — a serving session must be a pure function of its
inputs and the frozen parameters.

Parameters are bound **by reference**: each replay reads the current
``.data`` of the captured parameter tensors, so in-place updates (a
fine-tune step, ``load_state_dict``) show up without recompiling.  Running
statistics of batch-norm layers, by contrast, are folded to constants at
compile — recompile after changing them.

The session's output array is a reused buffer: copy it if you need it to
survive the next :meth:`InferenceSession.run` call.
:func:`serve_batches` does exactly that while chunking an arbitrarily long
request stream through the fixed-batch session; an odd-sized final chunk
runs through the model's eager ``no_grad`` forward (correct for any trace,
including ones whose samples interact through batch statistics).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd import ir
from repro.autograd.tensor import Tensor, no_grad
from repro.backend import workspace
from repro.codegen.jit import codegen_enabled, count_fallback
from repro.nn.module import Module
from repro.obs.profile import active_profiler

__all__ = ["InferenceSession", "compile_inference", "serve_batches"]

ArrayOrTensor = Union[np.ndarray, Tensor]


def _as_input_tensors(example_batch) -> Tuple[Tensor, ...]:
    """Normalize an example batch (array/Tensor or sequence of them)."""
    if isinstance(example_batch, (list, tuple)):
        items = example_batch
    else:
        items = (example_batch,)
    if not items:
        raise ValueError("compile_inference needs at least one example input")
    out = []
    for item in items:
        if isinstance(item, Tensor):
            out.append(Tensor(item.data, requires_grad=False, dtype=item.data.dtype))
        else:
            # Preserve the example's dtype: a float64 (or integer-label)
            # ndarray example must compile a session of that dtype, not be
            # silently folded to the Tensor float32 default.
            arr = np.asarray(item)
            out.append(Tensor(arr, dtype=arr.dtype))
    return tuple(out)


def _coerce_arrays(batch) -> List[np.ndarray]:
    """One request's inputs as plain arrays: ``Tensor`` → ``.data``, else
    ``np.asarray``.  The single coercion rule shared by every serving entry
    point (``serve_batches``, ``SessionPool.serve``, ``Server.submit``)."""
    items = batch if isinstance(batch, (list, tuple)) else (batch,)
    return [a.data if isinstance(a, Tensor) else np.asarray(a) for a in items]


def _reject_training_nodes(nodes: Sequence[ir.GraphNode]) -> None:
    for node in nodes:
        if node.op == "dropout":
            raise ValueError(
                "the captured trace contains a training-mode dropout node; "
                "inference traces must be captured in eval mode"
            )
        if node.op == "batch_norm" and node.attrs["training"]:
            raise ValueError(
                "the captured trace contains a train-mode batch_norm node "
                "(replay would re-update its running statistics); capture in "
                "eval mode"
            )


def _reject_rewrapped_activations(
    graph: ir.Graph, nodes: Sequence[ir.GraphNode], inputs: Tuple[Tensor, ...]
) -> None:
    """Refuse traces whose 'constants' alias traced activations.

    A constant (anything that is neither a session input nor a node output)
    whose storage overlaps any recorded activation means the forward
    re-wrapped intermediate data outside the tape (``Tensor(h.data)``): the
    replay would silently freeze the example batch's values in.  The check
    runs against the *full* capture, not just the output-reachable nodes —
    the escape typically dead-code-eliminates the producer it leaked from.
    """
    bound = {id(t) for t in inputs}
    bound.update(id(node.out) for node in nodes)
    # Everything batch-dependent: the session inputs themselves plus every
    # recorded activation (the full capture — the escape typically
    # dead-code-eliminates the producer it leaked from).  Aliasing is
    # detected by root allocation buffer: numpy views chain ``.base`` back
    # to the owning array, so comparing roots is a linear id-set lookup per
    # edge instead of a quadratic may_share_memory sweep.
    traced = [t.data for t in inputs]
    traced += [node.out.data for node in graph.nodes if node.out is not None]
    traced_roots = {id(_root_buffer(arr)) for arr in traced}
    for node in nodes:
        for t in node.inputs:
            if id(t) in bound:
                continue
            if id(_root_buffer(t.data)) in traced_roots:
                raise ValueError(
                    f"the captured trace feeds op {node.op!r} a constant "
                    "tensor aliasing a batch-dependent array (an input or a "
                    "traced activation) — the forward re-wrapped data "
                    "outside the tape, so a compiled replay would freeze "
                    "the example batch's values; keep intermediate results "
                    "as traced Tensors (detach() is fine: it records an "
                    "identity node)"
                )
        if node.op == "softmax_cross_entropy" and id(node.inputs[1]) not in bound:
            # Frozen labels are almost never what a serving session means:
            # every replay would score the trace-time targets.
            raise ValueError(
                "the captured softmax_cross_entropy node's targets are a "
                "constant of the trace (the forward received plain-array "
                "labels); pass the labels through the example batch as a "
                "Tensor input so each replay binds fresh targets"
            )
        if node.op == "getitem" and _has_array_index(node.attrs["index"]):
            # An ndarray index is frozen into the trace, and whether it was
            # computed from the batch (np.argsort(x.data[...]) and friends)
            # is undecidable here — such an index usually does not even
            # alias the data it came from.  Fail loudly instead of silently
            # replaying the example batch's gather pattern.
            raise ValueError(
                "the captured trace contains a getitem with an ndarray "
                "index, which is frozen at compile time; if it was computed "
                "from the batch the replay would silently reuse the example "
                "batch's indices — express the gather with static slices, "
                "or keep that model on the eager no_grad path"
            )


def _root_buffer(arr: np.ndarray):
    """The array owning ``arr``'s memory (follow the view ``.base`` chain)."""
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr


def _has_array_index(index) -> bool:
    items = index if isinstance(index, tuple) else (index,)
    return any(isinstance(item, (np.ndarray, list)) for item in items)


def compile_inference(model: Module, example_batch) -> "InferenceSession":
    """Capture one eval-mode ``no_grad`` trace of ``model`` and compile it.

    The session starts on numpy steps and plans *compiled loop stages*
    around its GEMMs (see :mod:`repro.serve.stages`); kernels already in the
    on-disk cache are adopted before this returns, anything else compiles
    off the calling thread and is adopted at the top of a later ``run``.

    Parameters
    ----------
    model:
        An eval-mode :class:`~repro.nn.module.Module`; any submodule still
        in training mode is rejected (call ``model.eval()`` first).
    example_batch:
        One input array/Tensor, or a sequence of them, defining the fixed
        shapes (including the batch dimension) the session serves.

    The :mod:`repro.autograd.fusion` pass always runs over the captured
    trace, so the executor dispatches codegen'd ``region`` kernels instead
    of separate elementwise nodes.
    """
    return _compile(model, example_batch, gemm_stages=True)


def _compile(model: Module, example_batch, gemm_stages: bool) -> "InferenceSession":
    """:func:`compile_inference`; ``gemm_stages=False`` plans compiled
    stages for ``region`` steps only (see ``frontend._ServerPool``)."""
    from repro.autograd import fusion  # deferred: a process that never compiles never pays
    if not isinstance(model, Module):
        raise TypeError(
            f"compile_inference expects a repro.nn Module, got {type(model).__name__}"
        )
    training = [name or "<root>" for name, m in model.named_modules() if m.training]
    if training:
        raise ValueError(
            f"compile_inference requires eval mode, but {training[:5]} "
            f"{'is' if len(training) == 1 else 'are'} in train mode; call "
            "model.eval() first"
        )
    inputs = _as_input_tensors(example_batch)
    with no_grad(), ir.capture() as graph:
        output = model(*inputs)
    if not isinstance(output, Tensor):
        raise TypeError(
            f"model forward must return a single Tensor, got {type(output).__name__}"
        )
    nodes = ir.toposort(output._node, backward_only=False) if output._node is not None else []
    _reject_training_nodes(nodes)
    _reject_rewrapped_activations(graph, nodes, inputs)
    missing = sorted({n.op for n in nodes if n.op not in ir.OPS})
    if missing:
        # Fail at compile, not at the first run()'s KeyError deep in a step.
        raise ValueError(
            f"the captured trace contains ops that are not in the op table: "
            f"{missing}; define them with repro.autograd.ir.define_op"
        )
    fused_counts = fusion.fuse(output)
    nodes = ir.toposort(output._node, backward_only=False) if output._node is not None else []
    session = InferenceSession(
        inputs, output, nodes, fused_counts, model=model, gemm_stages=gemm_stages
    )
    # The example trace's activations die here — those of dead (fused-away)
    # nodes too, whose node<->tensor cycle would otherwise wait for the
    # collector — and their blocks go back, so a server does not retain its
    # compile-time temporaries.
    for node in graph.nodes:
        node.out, node.inputs = None, ()
    node = graph = output = None  # the last names on the example trace
    workspace.trim()
    return session


class InferenceSession:
    """A compiled, fixed-shape, buffer-reusing replay of one captured trace.

    Not thread-safe (the steps share pre-allocated buffers); give each
    worker its own session.  Use :func:`compile_inference` to build one.
    """

    def __init__(
        self,
        inputs: Tuple[Tensor, ...],
        output: Tensor,
        nodes: List[ir.GraphNode],
        fused_counts: Optional[Dict[str, int]] = None,
        model: Optional[Module] = None,
        gemm_stages: bool = True,
    ) -> None:
        self._model = model
        self._input_meta = [(t.data.shape, t.data.dtype) for t in inputs]
        self.fused_counts = dict(fused_counts or {})
        self.op_counts: Dict[str, int] = ir.op_counts(nodes)
        self._node_ops = [node.op for node in nodes]
        #: Whether any node computes statistics *across* the batch (eval
        #: batch-norm without running statistics): sample outputs then depend
        #: on the other samples in their micro-batch, so chunk boundaries
        #: affect results for such traces.
        self.has_batch_statistics = any(
            node.op == "batch_norm" and node.attrs["use_batch_stats"] for node in nodes
        )

        # Slot assignment: inputs first, then one slot per node output.
        slot_of: Dict[int, int] = {}
        for i, t in enumerate(inputs):
            slot_of[id(t)] = i
        base = len(inputs)
        for j, node in enumerate(nodes):
            slot_of[id(node.out)] = base + j
        self._values: List[Optional[np.ndarray]] = [None] * (base + len(nodes))

        # A session input is a new array on every call: bind over a stand-in.
        held = {id(t): t.data.view() for t in inputs}
        #: Per node: its bound step, its inputs' readers and its output slot
        #: — what the stage planner reads the step's buffers from, and what a
        #: region's native kernel is bound over.
        self._bound = [self._emit(node, slot_of, held) for node in nodes]
        self._numpy_steps = self._steps = [_runner(*bound) for bound in self._bound]
        self._plan_stages(nodes, slot_of, gemm_stages)

        # For a degenerate trace (the model returned an input or a constant)
        # the getter falls through to the input slot / live tensor read.
        self._get_output = self._getter_for(output, slot_of)
        self.output_shape = output.data.shape
        self.output_dtype = output.data.dtype

        # Sever the example trace: the steps captured everything they need
        # (slots, shapes, pre-allocated buffers, live parameter tensors), so
        # the example activations — node outputs, input links, and the big
        # backward-only saved arrays (relu masks, batch-norm xhat) — would
        # otherwise stay pinned for the session's whole lifetime.
        # (No dropout carve-out needed: train-mode traces — the only ones
        # with dropout nodes — were rejected before construction.)
        for node in nodes:
            node.out = None
            node.inputs = ()
            if node.attrs:
                node.attrs.pop("xhat", None)
                node.attrs.pop("mask", None)

    # ------------------------------------------------------------------ #
    # Public surface
    # ------------------------------------------------------------------ #
    @property
    def batch_size(self) -> int:
        """Leading dimension of the first example input."""
        shape = self._input_meta[0][0]
        if not shape:
            raise ValueError("session inputs are scalars; there is no batch dimension")
        return shape[0]

    @property
    def input_shapes(self) -> List[Tuple[int, ...]]:
        return [shape for shape, _ in self._input_meta]

    @property
    def input_dtypes(self) -> List[np.dtype]:
        return [dtype for _, dtype in self._input_meta]

    @property
    def num_steps(self) -> int:
        """How many steps one :meth:`run` replays now (fewer once compiled
        stages have been adopted)."""
        return len(self._steps)

    def wait_compiled(self, timeout: Optional[float] = None) -> bool:
        """Wait for the compiles this session started and adopt them.

        Returns whether every plannable step now runs compiled.  Serving
        never needs this — :meth:`run` adopts by itself — it is for tests
        and warm-up code; call it from the thread that owns the session.
        """
        for pending in self._pending or ():
            if not pending.event.wait(timeout):
                return False
        if self._pending is not None:
            self._adopt()
            if self._pending is not None:  # re-queued (a forked worker): wait again
                return self.wait_compiled(timeout)
        return self._plan is not None and self._reason is None

    def explain(self) -> List[Dict[str, object]]:
        """One row per replayed step: the trace ``ops`` it covers, the
        ``arm`` that runs it (``compiled`` loop stages around a host GEMM,
        a bound ``numpy`` step, or the ``generic`` allocating forward) and,
        when it is not compiled, the ``reason`` — ``pending`` while the
        compile is in flight, else a ``repro_codegen_fallback_total``
        reason."""
        return ir.explain_rows(self._rows)

    def run(self, *batch: ArrayOrTensor) -> np.ndarray:
        """Replay the compiled trace over ``batch``; returns the logits array.

        The returned array is a buffer owned by the session and overwritten
        by the next call — copy it to keep it.
        """
        meta = self._input_meta
        if len(batch) != len(meta):
            raise ValueError(
                f"session takes {len(meta)} input(s), got {len(batch)}"
            )
        values = self._values
        for i, item in enumerate(batch):
            arr = item.data if isinstance(item, Tensor) else np.asarray(item)
            shape, dtype = meta[i]
            if arr.shape != shape:
                raise ValueError(
                    f"input {i} has shape {arr.shape}; this session was "
                    f"compiled for {shape} (micro-batch with serve_batches() "
                    "or recompile for the new shape)"
                )
            if arr.dtype != dtype:
                # A silent cast would abandon the pre-allocated buffers'
                # bit-equality contract (f64 in, f32 buffers drops precision;
                # f32 in, f64 buffers scores values the eager forward never
                # saw) — dtype is part of the compiled signature, like shape.
                raise ValueError(
                    f"input {i} has dtype {arr.dtype}; this session was "
                    f"compiled for {dtype} (cast the batch explicitly or "
                    "recompile with an example of the new dtype)"
                )
            values[i] = arr
        if self._pending is not None:
            self._adopt()
        try:
            self._replay(values)
        except ir.Fallback as fallback:
            # Every step rewrites its whole output, so the numpy steps
            # simply start over on the same inputs.
            self._serve_numpy(fallback.reason)
            count_fallback(fallback.reason)
            self._replay(values)
        result = self._get_output(values)
        # Drop the slot references (caller inputs, generic-step outputs) so
        # a long-lived session does not pin the last batch between calls;
        # the pre-allocated buffers live in the bound steps.
        for i in range(len(values)):
            values[i] = None
        return result

    __call__ = run

    def _replay(self, values) -> None:
        profiler = active_profiler()
        if profiler is None:
            ir.run_steps(self._steps, values)
        else:
            with profiler.step("serve"):
                names = ["serve:" + "+".join(ops) for ops, _, _ in self._rows]
                ir.run_steps(self._steps, values, profiler, names)

    # ------------------------------------------------------------------ #
    # Compiled stages: planned at construction, adopted when they exist
    # ------------------------------------------------------------------ #
    def _plan_stages(self, nodes, slot_of, gemm_stages: bool) -> None:
        """Plan the compiled arm and ask for its kernels — without ever
        waiting for a compiler: a session serves on its numpy steps until
        its owner thread finds the kernels ready at the top of a ``run``."""
        self._plan = None
        #: Compiles in flight (``None``: nothing to adopt — the one test
        #: ``run`` pays per call).
        self._pending: Optional[list] = None
        if not codegen_enabled():
            reason = "disabled"
            count_fallback(reason)
        else:
            from repro.serve.stages import SessionPlan  # deferred: only compiling sessions pay

            self._plan = SessionPlan(self, nodes, slot_of, gemm_stages) or None
            reason = "pending" if self._plan else "unplannable"
        self._serve_numpy(reason)
        if self._plan is not None:
            self._adopt()
            if self._pending is None and self._reason is not None:
                count_fallback(self._reason)  # a failure the memo remembered

    def _numpy_rows(self, reason: Optional[str]) -> list:
        """:meth:`explain` rows of the numpy steps; ``reason`` is why the
        steps the plan covers are not compiled."""
        covered = self._plan.covered if self._plan is not None else None
        return [
            ((op,), "generic" if getattr(step, "generic", False) else "numpy",
             reason if covered is None or j in covered else "unplannable")
            for j, (op, (step, _, _)) in enumerate(zip(self._node_ops, self._bound))
        ]

    def _serve_numpy(self, reason: Optional[str]) -> None:
        self._steps = self._numpy_steps
        #: Why the planned steps are not compiled (``None``: they are).
        self._reason = reason
        self._rows = self._numpy_rows(reason)

    def _adopt(self) -> None:
        """Swap in the steps of the kernels that have landed (owner thread
        only: the session is not thread-safe, so nothing else may touch
        ``_steps``)."""
        if not all(p.event.is_set() for p in self._pending or ()):
            return
        # Asking again finds the memo; a forked worker, whose inherited
        # compiles were dropped, queues its own.
        self._pending = self._plan.request() or None
        if self._pending is None:
            self._steps, self._rows, self._reason = self._plan.steps(self)

    def _run_eager_tail(self, arrays: List[np.ndarray]) -> np.ndarray:
        """Eager ``no_grad`` forward for an odd-sized chunk (serve_batches).

        The compiled replay is pinned to the session's fixed batch shape;
        partial chunks fall back to the captured model itself, which is
        correct for any batch size and any trace (including ones whose
        samples interact, where zero-padding would corrupt results).
        """
        model = self._model
        if model is None:
            raise ValueError(
                "this session was built without a model reference; serve a "
                f"multiple of batch_size={self.batch_size} samples"
            )
        training = [name or "<root>" for name, m in model.named_modules() if m.training]
        if training:
            raise RuntimeError(
                f"the compiled model was switched back to train mode "
                f"({training[:3]}); call model.eval() before serving"
            )
        with no_grad():
            out = model(
                *(
                    Tensor(a, dtype=meta[1])
                    for a, meta in zip(arrays, self._input_meta)
                )
            )
        return out.data

    # ------------------------------------------------------------------ #
    # Step compilation
    # ------------------------------------------------------------------ #
    def _getter_for(self, tensor: Tensor, slot_of: Dict[int, int]):
        """A ``values -> ndarray`` reader for one tensor.

        Computed tensors and session inputs read their slot; anything else
        (parameters, buffers, wrapped constants) is read through the live
        tensor so in-place parameter updates are picked up per call.
        """
        slot = slot_of.get(id(tensor))
        if slot is not None:
            return lambda values, _s=slot: values[_s]
        return lambda values, _t=tensor: _t.data

    def _emit(self, node: ir.GraphNode, slot_of: Dict[int, int], held: Dict[int, np.ndarray]):
        """Bind one node: ``(step, input readers, output slot)``.

        The step is the node's ``ir.OPS`` entry bound for this trace
        (:meth:`repro.autograd.ir.Op.bind`): the eager kernel's numpy calls
        ``out=`` into buffers allocated here, or the entry's allocating
        forward (the ``generic`` arm).  ``held`` maps a tensor to the array
        it will be on every call, as far as the session knows it.
        """
        step = ir.OPS[node.op].bind(
            [held.get(id(t), t.data) for t in node.inputs], node.attrs or {}, node.out.data
        )
        if hasattr(step, "out"):
            held[id(node.out)] = step.out
        return step, [self._getter_for(t, slot_of) for t in node.inputs], slot_of[id(node.out)]

    def _kernel_step(self, j: int, kernel):
        """Region node ``j``'s step over its native ``kernel``."""
        step, getters, out_slot = self._bound[j]
        return _runner(step.over(kernel), getters, out_slot)


def _runner(fn, getters, out_slot):
    """A step over the value slots: the bound step ``fn`` over the inputs
    the ``getters`` read, its result into ``out_slot``."""
    if len(getters) == 1:
        (g,) = getters

        def step(values):
            values[out_slot] = fn(g(values))

    elif len(getters) == 2:
        g, h = getters

        def step(values):
            values[out_slot] = fn(g(values), h(values))

    else:

        def step(values):
            values[out_slot] = fn(*[g(values) for g in getters])

    return step


def serve_batches(
    session: InferenceSession,
    batch,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Serve arbitrarily many samples through a fixed-batch session.

    ``batch`` is one array/Tensor or a sequence of them (one per session
    input), each with the same leading sample count ``n`` — any ``n``, not
    just the session's batch size.  Full micro-batches are served as
    zero-copy slices through the compiled replay; an odd-sized *final*
    chunk runs through the compiled model's eager ``no_grad`` forward
    instead (bit-correct for any trace, including ones whose samples
    interact through batch statistics — zero-padding would corrupt those),
    which requires the session to have been built by
    :func:`compile_inference` (it keeps the model reference) with the model
    still in eval mode.  Outputs are copied out of the session's reused
    buffer into one ``(n, ...)`` result array (pass ``out`` to reuse your
    own).

    For production request streams prefer
    :class:`repro.serve.SessionPool`, which decomposes any sample count
    into a set of bucketed compiled sessions (so odd sizes still replay
    compiled code) and demotes this eager fallback to a last resort.
    """
    arrays = _coerce_arrays(batch)
    if len(arrays) != len(session.input_shapes):
        raise ValueError(
            f"session takes {len(session.input_shapes)} input(s), got {len(arrays)}"
        )
    n = arrays[0].shape[0] if arrays[0].ndim else 0
    for i, a in enumerate(arrays):
        if a.ndim == 0 or a.shape[0] != n:
            raise ValueError(
                "serve_batches needs a shared leading sample dimension; "
                f"input 0 has {n} samples, input {i} has shape {a.shape}"
            )
        if a.shape[1:] != session.input_shapes[i][1:]:
            raise ValueError(
                f"input {i} has per-sample shape {a.shape[1:]}, session "
                f"expects {session.input_shapes[i][1:]}"
            )
        if a.dtype != session.input_dtypes[i]:
            raise ValueError(
                f"input {i} has dtype {a.dtype}, session was compiled for "
                f"{session.input_dtypes[i]} (a silent cast would break the "
                "bit-equality contract)"
            )
    size = session.batch_size
    if not session.output_shape or session.output_shape[0] != size:
        raise ValueError(
            "serve_batches needs a per-sample session output of shape "
            f"(batch, ...); this session produces {session.output_shape} for "
            f"batch size {size} (a reduced/scalar output cannot be chunked)"
        )
    result_shape = (n,) + session.output_shape[1:]
    if out is None:
        out = np.empty(result_shape, dtype=session.output_dtype)
    elif out.shape != result_shape:
        raise ValueError(f"out has shape {out.shape}, expected {result_shape}")
    elif out.dtype != session.output_dtype:
        raise ValueError(
            f"out has dtype {out.dtype}, expected {session.output_dtype} "
            "(a mismatched buffer would silently cast the results)"
        )
    if n == 0:
        # Pinned behavior, not an accident of the loop: an empty request
        # stream yields an empty (0, ...) result without touching the
        # session or the eager path.
        return out
    for start in range(0, n, size):
        stop = min(start + size, n)
        if stop - start == size:
            chunk = session.run(*(a[start:stop] for a in arrays))
        else:
            # The final partial micro-batch runs through the model's eager
            # no_grad forward instead of a zero-padded replay: padding would
            # silently corrupt any trace whose samples interact (eval
            # batch-norm on batch statistics, axis-0 reductions, ...), while
            # the eager forward of exactly these samples is correct for
            # every trace shape.
            chunk = session._run_eager_tail([a[start:stop] for a in arrays])
        out[start:stop] = chunk[: stop - start]
    return out
