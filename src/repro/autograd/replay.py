"""Replay a static train step: capture its tape once, then run it as steps.

At a small batch most of a train step is recording its tape — tensors, nodes,
closures, module calls, the sort and the freeing of the graph, one optimizer
update per parameter — and a fixed-shape step records the same tape every
time.  :class:`TrainReplay` is built from one captured tape and runs the step
again as flat lists of closures over one list of value slots, the core a
compiled serving session replays (:func:`repro.autograd.ir.run_steps`):
**forward**, every recorded node in recording order (train-mode batch-norm
updates its running statistics in place, dropout draws its mask from the same
generator in the same order — the global one resolved per step, so
``manual_seed`` takes effect); **backward**, in the reverse topological order
``backward()`` walks, each parameter gradient into its row of one flat array;
**one whole-model optimizer update** (:meth:`repro.nn.optim.Optimizer.flat_step`)
over arrays the parameters and moments became views of at capture — the
compiled ``update`` stage (:class:`repro.autograd.kernels.Update`) once it
is adopted: every capture attempt sights it as an eager step sights an op's
stages, and each replayed step looks again until it is there.

**Conv blocks.**  Each conv2d → train-mode batch_norm → relu → max_pool2d
chain — found from the ops' stage descriptions along the single-consumer
walk serving's groups take (:meth:`repro.autograd.ir.Readers.chain`) —
replays as one forward and one backward step: its members' steps until its
own stages (:class:`repro.autograd.kernels.Block`) are adopted — asked for
at the first capture attempt — then theirs: one native call each way, the
conv's GEMMs among them, where its members make some ten Python-level calls
each way around their GEMMs and batch-norm's and max-pool's numpy passes.

**The same kernels, so the same bytes.**  Every node runs its op's entry in
the op table (:data:`repro.autograd.ir.OPS`) — the forward and the backward
the eager op records its call through — with the compiled arm of
:mod:`repro.autograd.kernels` the capture found, per node a copy whose stage
tables keep what they bound (:meth:`~repro.autograd.kernels.Arm.pinned`).
One step builder serves every op; no arithmetic lives here, and gradients
accumulate under ``Tensor._accumulate_fresh`` / ``_accumulate``'s rules
(:class:`_Port`).  While the forward and backward steps run, requests under
the kernel workspace's floor get the array the first replayed step got at
that position (:class:`_Tape`, the thread's small-request hook of
:mod:`repro.backend.workspace`), so tables bind them once; larger ones go to
the workspace each step, and a liveness pass lets every slot go after its
last use, so a replay leases no more than the eager step's free-as-you-go
backward did.

:class:`TrainReplay` refuses, before touching any state, a tape it cannot
replay (:class:`repro.autograd.ir.Fallback`).  When to capture and when a
replay stops applying is :meth:`repro.models.TBNet.train_step`'s business.
Not thread-safe.
"""

from __future__ import annotations

import itertools
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.autograd import functional as F, ir, kernels
from repro.autograd.ir import Fallback
from repro.autograd.tensor import Tensor, _owned_copy
from repro.backend import workspace
from repro.obs import profile as _profile

__all__ = ["TrainReplay"]


class _Tape:
    """The replay's small-request hook (:func:`repro.backend.workspace.set_small`):
    :meth:`empty` hands every request under the workspace's floor the array
    the same request of the first replayed step got — fixed buffers, so
    pinned stage tables bind them once.  A request that differs from the
    recorded one (the sequence changed) gets a new array, and the sequence
    is recorded again from there."""

    def __init__(self) -> None:
        self.arrays: List[np.ndarray] = []
        self.i = 0

    def empty(self, shape, dtype: np.dtype) -> np.ndarray:
        i, arrays = self.i, self.arrays
        self.i = i + 1
        if i < len(arrays):
            array = arrays[i]
            if array.shape == shape and array.dtype == dtype:
                return array
            del arrays[i:]
        array = np.empty(shape, dtype)
        arrays.append(array)
        return array


class _Port:
    """Where a tensor's gradient goes (``requires_grad``: whether it takes
    one): a value slot (an activation), under ``Tensor._accumulate_fresh`` /
    ``_accumulate``'s rules, or a row of the flat gradient array (a
    parameter; ``first`` until the step's first contribution)."""

    __slots__ = ("requires_grad", "values", "slot", "dtype", "row", "first")

    def __init__(self, requires_grad: bool, dtype, values=None, slot=None, row=None) -> None:
        self.requires_grad = requires_grad
        self.dtype = dtype
        self.values, self.slot = values, slot
        self.row, self.first = row, True

    def _accumulate_fresh(self, grad: np.ndarray) -> None:
        row = self.row
        if row is not None:
            if self.first:
                np.copyto(row, grad)
                self.first = False
            else:
                np.add(row, grad, out=row)
            return
        values, slot = self.values, self.slot
        held = values[slot]
        if held is None:
            values[slot] = grad if grad.dtype == self.dtype else grad.astype(self.dtype)
        else:
            np.add(held, grad, out=held)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.row is None and self.values[self.slot] is None:
            self.values[self.slot] = (
                grad.astype(self.dtype) if grad.dtype != self.dtype else _owned_copy(grad)
            )
        else:
            self._accumulate_fresh(grad)


class TrainReplay:
    """One captured train step over ``nodes`` (recording order, the loss
    last), recorded over the ``(images, context)`` ``inputs``; ``params``
    are the model's, ``counters`` the ``(buffer, delta)`` module counters a
    step adds to (``num_batches_tracked``).  Built between the capture's
    forward and its backward: it flattens the updated parameters and their
    optimizer state (:meth:`repro.nn.optim.Optimizer.flatten`)."""

    def __init__(self, nodes, inputs, params, optimizer, counters=()) -> None:
        loss = nodes[-1].out if nodes else None
        if loss is None or ir.OPS.get(nodes[-1].op) is not F._SOFTMAX_CROSS_ENTROPY or loss.data.size != 1:
            raise Fallback("module")
        if any(t.requires_grad for t in inputs):
            raise Fallback("module")  # its gradient would be the caller's to keep
        order = ir.toposort(loss._node)  # what backward() walks, leaves pruned
        produced = {id(node.out) for node in nodes}
        param_ids = {id(p): p for p in params}
        trained = {}
        for node in nodes:
            if node.op not in ir.OPS:
                raise Fallback("module")
            for j, t in enumerate(node.inputs):
                if id(t) in param_ids:
                    if t.requires_grad:
                        trained[id(t)] = t
                elif id(t) not in produced and not any(t is i for i in inputs) and not (
                        node is nodes[-1] and j == 1):  # the loss's targets
                    raise Fallback("module")  # a constant the replay would freeze
        updated = [p for p in optimizer.params if id(p) in trained]
        if len(updated) != len(trained) or len({p.data.dtype for p in updated}) > 1:
            raise Fallback("module")
        # The optimizer's stage is asked for as the ops' are at their eager
        # steps — every attempt sights it — but a capture never waits for it.
        # What ``kernels.arm`` is asked: op, dtype, size, the rule's flags.
        size = sum(p.data.size for p in updated)
        update_args = (kernels.UPDATE, updated[0].data.dtype, size) + optimizer.flags() \
            if size else None
        update = kernels.arm(*update_args) if update_args else None
        # The conv blocks' stages are asked for at the first attempt, which
        # the step's third call makes (its ops asked at their second):
        # queued behind the ops', they are built in the same compiler run.
        blocks = [(chain, args, kernels.arm(*args) or kernels.arm(*args))
                  for chain, args in _blocks(nodes, order)]
        arms = {}
        for node in nodes:
            if node.out.requires_grad:
                arms[id(node)] = ir.OPS[node.op].arm([t.data for t in node.inputs], node.attrs, None)
        if kernels.PENDING in arms.values():
            raise Fallback("pending")

        # Nothing refused: from here on the capture changes state.
        self._tape = _Tape()
        self._optimizer = optimizer
        self._counters = tuple(counters)
        self._flat = optimizer.flatten(updated) if updated else None
        self._update_args = update_args
        self._update = self._pin(update)
        rows = dict(zip(map(id, updated), self._flat[3])) if updated else {}
        self._seed = np.ones_like(loss.data)  # backward()'s seed of a scalar loss

        self._values: list = []
        self._fixed = 0  # slots below this hold constants (parameters) for good
        self._slot: Dict[int, int] = {}
        self._ports: Dict[int, _Port] = {}
        for p in params:
            self._slot[id(p)] = self._new(p.data)
            self._ports[id(p)] = _Port(id(p) in rows, p.data.dtype, row=rows.get(id(p)))
        self._fixed = len(self._values)
        self._inputs = tuple(self._new() for _ in inputs)
        for t, slot in zip(inputs, self._inputs):
            self._slot[id(t)] = slot
        self._targets = self._slot[id(nodes[-1].inputs[1])] = self._new()
        for node in nodes:
            self._slot[id(node.out)] = self._new()

        forward, backward, self._rows = [], {}, []
        for node in nodes:
            op, arm = ir.OPS[node.op], arms.get(id(node))
            arm = arms[id(node)] = arm.pinned(workspace.FLOOR) if arm is not None else None
            ins = tuple(self._slot[id(t)] for t in node.inputs)
            out, ctx, g = self._slot[id(node.out)], self._new(), self._grad_slot(node)
            fwd, bwd = _op_steps(op, arm, _params(node), ins, out, ctx, self._ports_of(node), g)
            forward.append((fwd, ins + (out, ctx)))
            if node.backward is not None:
                backward[id(node)] = (bwd, (g, ctx))
            reason = None
            if arm is None and op in kernels._BODY:  # an op with compiled bodies of its own
                reason = "fallback" if kernels.jit.codegen_enabled() else "disabled"
            self._rows.append(((node.op,), "numpy" if arm is None else "compiled", reason))
        # Each conv block runs as one forward and one backward step, in
        # place of its members': its own stages once they are adopted.
        self._blocks = []
        for chain, args, arm in blocks:
            block = _Block(self, [nodes[i] for i in chain], args, arm, [forward[i] for i in chain],
                           [backward[id(nodes[i])] for i in reversed(chain)])
            for i in chain:
                backward[id(nodes[i])] = forward[i] = self._rows[i] = None
            backward[id(nodes[chain[-1]])] = block.backward
            forward[chain[-1]], self._rows[chain[0]] = block.forward, block
            self._blocks.append(block)
        forward = [step for step in forward if step is not None]
        self._rows = [row for row in self._rows if row is not None]
        self._loss = self._slot[id(loss)]
        self._seed_slot = self._grad_slot(nodes[-1])
        backward = [backward[id(node)] for node in reversed(order)
                    if backward.get(id(node)) is not None]
        self._param_ports = [self._ports[id(p)] for p in updated]
        self._lists = self._liveness(forward, backward)
        self._names = tuple([name] * len(steps) for name, steps in
                            zip(("replay:forward", "replay:backward"), self._lists))

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #
    def _new(self, value=None) -> int:
        self._values.append(value)
        return len(self._values) - 1

    def _port(self, t: Tensor) -> _Port:
        """The port of a tensor's gradient (its value slot's gradient slot)."""
        port = self._ports.get(id(t))
        if port is None:
            if t.requires_grad:
                port = _Port(True, t.data.dtype, self._values, self._new())
            else:
                port = _Port(False, t.data.dtype)
            self._ports[id(t)] = port
        return port

    def _grad_slot(self, node) -> Optional[int]:
        """The slot the consumers of ``node``'s output accumulate its gradient in."""
        return self._port(node.out).slot

    def _ports_of(self, node) -> list:
        return [self._port(t) for t in node.inputs]

    @staticmethod
    def _pin(update):
        """The update arm over tables of the replay's own, which keep its
        flat arrays bound for good (``None`` stays ``None``)."""
        return update.pinned(sys.maxsize) if update is not None else None

    def _liveness(self, forward, backward):
        """The forward and backward step lists, each step followed by letting
        go of the slots it used last (constants stay)."""
        steps = forward + [(None, (self._loss,))] + backward
        last = {}
        for i, (_, uses) in enumerate(steps):
            for slot in uses:
                if slot is not None:
                    last[slot] = i
        dead: Dict[int, list] = {}
        for slot, i in last.items():
            if slot >= self._fixed and slot != self._loss:
                dead.setdefault(i, []).append(slot)

        def released(fn, gone):
            if not gone:
                return fn

            def step(values):
                fn(values)
                for slot in gone:
                    values[slot] = None

            return step

        lists = [released(fn, tuple(dead.get(i, ()))) for i, (fn, _) in enumerate(steps)]
        return lists[:len(forward)], lists[len(forward) + 1:]

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def explain(self) -> List[Dict[str, object]]:
        """One row per captured node, a conv block's four ops sharing one:
        its ``ops``, the ``arm`` that runs it (``compiled`` stages or the
        ``numpy`` body) and, for an op with compiled bodies of its own that
        runs numpy, the ``reason`` (``disabled``, or ``fallback``: see
        ``repro_codegen_fallback_total``); then one for the optimizer's
        update (``sgd_update`` / ``adam_update``).  A block's or the
        update's reason may also be ``pending`` (its stages are being
        built), a block's ``geometry`` (overlapping or padded windows, one
        channel, planes past the stack's share) or ``blas`` (numpy's BLAS
        exports no GEMM for it to call) — its members' steps run, on their
        own arms — the update's ``flags`` (a flag it branches on changed
        since the capture)."""
        rows = [row.row() if isinstance(row, _Block) else row for row in self._rows]
        if self._update_args is not None:
            flags = self._optimizer.flags()
            arm, reason = "numpy", None
            if not kernels.jit.codegen_enabled():
                reason = "disabled"
            elif self._update is not None:
                arm, reason = ("compiled", None) if flags == self._update.key[2:] else (arm, "flags")
            else:
                # Asked as a capture asks: ``None`` is numpy for good.
                unsettled = kernels.arm(*self._update_args, ask=None) is not None
                reason = "pending" if unsettled else "fallback"
            rows.append(((f"{flags[0]}_update",), arm, reason))
        return ir.explain_rows(rows)

    def run(self, images: np.ndarray, context: np.ndarray, targets) -> float:
        """One train step over a batch of the captured shapes and dtypes;
        returns the loss before the update, as ``train_step`` does.  Under
        a profiler: one ``replay`` step with ``replay:forward`` /
        ``replay:backward`` / ``replay:optim`` rows beside the compiled
        stages' own (a block's
        ``replay:conv2d+batch_norm+relu+max_pool2d.forward[c]`` /
        ``backward[c]``, GEMMs included)."""
        values = self._values
        values[self._inputs[0]] = images
        values[self._inputs[1]] = context
        idx = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
        values[self._targets] = idx.astype(np.int64).reshape(-1)
        self._tape.i = 0
        for buffer, delta in self._counters:
            buffer += delta
        profiler = _profile._ACTIVE
        try:
            if profiler is None:
                return self._steps(values, None)
            with profiler.step("replay"):
                return self._steps(values, profiler)
        finally:
            for slot in range(self._fixed, len(values)):
                values[slot] = None

    def _steps(self, values, profiler) -> float:
        (forward, backward), (fnames, bnames) = self._lists, self._names
        for block in self._blocks:
            if block.arm is None:  # sightings, then adoption
                block.adopt(kernels.arm(*block.args))
        previous = workspace.set_small(self._tape.empty)
        try:
            ir.run_steps(forward, values, profiler, fnames)
            loss = float(values[self._loss])
            for port in self._param_ports:
                port.first = True
            values[self._seed_slot] = self._seed
            ir.run_steps(backward, values, profiler, bnames)
        finally:
            workspace.set_small(previous)
        if self._flat is not None:
            update = self._update
            if update is None and self._update_args is not None:  # sightings, then adoption
                update = self._update = self._pin(kernels.arm(*self._update_args))
            start = time.perf_counter()
            self._optimizer.flat_step(*self._flat[:3], update)
            if profiler is not None:
                profiler.record("replay:optim", time.perf_counter() - start - profiler.take_inner())
        return loss


def _params(node) -> dict:
    """A node's op parameters, not the capture's saved arrays."""
    return {k: v for k, v in (node.attrs or {}).items() if not isinstance(v, np.ndarray)}


def _blocks(nodes, order) -> list:
    """``(node indices, what kernels.arm is asked)`` of each conv block of a
    captured step (:class:`repro.autograd.kernels.Block`): a head and the
    epilogues after it along single-consumer edges (the walk serving's
    groups take), whose backward steps run back to back — so running them
    as one step moves no gradient accumulation past another's."""
    readers = ir.Readers(nodes)
    taped = (node for node in reversed(order) if node.backward is not None)
    place = {id(node): i for i, node in enumerate(taped)}
    size = len(kernels.Block.members)

    def epilogue(k, node, t):
        return ir.OPS[node.op].stage.part == ir.EPILOGUE and node.inputs[0] is t

    blocks = []
    for j, node in enumerate(nodes):
        if ir.OPS[node.op].stage.part != ir.HEAD:
            continue
        chain = [j, *itertools.islice(readers.chain(j, epilogue), size - 1)]
        args = kernels.Block.ask([nodes[i] for i in chain])
        if args is None:
            continue
        at = [place.get(id(nodes[i])) for i in reversed(chain)]
        if None not in at and at == list(range(at[0], at[0] + size)):
            blocks.append((chain, args))
    return blocks


class _Block:
    """One conv block of a replay over its ``members``' nodes: their
    ``forward`` / ``backward`` entries (``(step, slots used)``, in running
    order) until its stages are adopted (and for a step whose forward stage
    cannot bind), then :class:`repro.autograd.kernels.Block`'s, over the
    inputs no member produces and every member's ports and parameters."""

    def __init__(self, replay: TrainReplay, members, args, arm, forward, backward) -> None:
        self.ops = tuple(node.op for node in members)
        self.args, self.arm = args, None
        self.adopt(arm)
        inside = {id(node.out) for node in members}
        ins = tuple(replay._slot[id(t)] for node in members for t in node.inputs
                    if id(t) not in inside)
        ports = tuple(replay._ports_of(node) for node in members)
        attrs = tuple(_params(node) for node in members)
        out, ctx, g = replay._slot[id(members[-1].out)], replay._new(), replay._grad_slot(members[-1])

        def forward_step(v):
            arm = self.arm
            result = arm.forward([v[s] for s in ins], attrs, ports) if arm is not None else None
            if result is None:
                v[ctx] = None
                for step, _ in forward:
                    step(v)
            else:
                v[out], v[ctx] = result

        def backward_step(v):
            context = v[ctx]
            if context is None:
                for step, _ in backward:
                    step(v)
            else:
                self.arm.backward(v[g], ports, context, attrs)

        self.forward = (forward_step, sum((uses for _, uses in forward), (ctx,)))
        self.backward = (backward_step, sum((uses for _, uses in backward), (ctx, g)))

    def adopt(self, arm) -> None:
        if arm is not None:
            self.arm = arm.pinned(workspace.FLOOR)

    def row(self) -> tuple:
        """Its ``explain()`` row: ``compiled``, or why its stages do not run."""
        if self.arm is not None:
            return self.ops, "compiled", None
        if not kernels.jit.codegen_enabled():
            return self.ops, "numpy", "disabled"
        if kernels.arm(*self.args, ask=None) is not None:  # being built, or built
            return self.ops, "numpy", "pending"
        _, dtype, _, *geometry = self.args
        refused = kernels.Block.stages(dtype.name, *geometry)
        return self.ops, "numpy", refused if isinstance(refused, str) else "fallback"


def _op_steps(op: ir.Op, arm, attrs, ins, out, ctx, ports, g):
    """The forward and backward step of one node running table op ``op``
    over the slots ``ins``: the forward fills ``out`` and ``ctx`` (the saved
    context), the backward reads ``ctx`` and the gradient in ``g``."""
    forward, backward = op.forward, op.backward

    def forward_step(v):
        v[out], v[ctx] = forward(arm, [v[s] for s in ins], attrs, ports)

    def backward_step(v):
        backward(arm, v[g], ports, v[ctx], attrs)

    return forward_step, backward_step

