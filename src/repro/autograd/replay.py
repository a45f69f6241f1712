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
over arrays the parameters and moments became views of at capture.

**The same kernels, so the same bytes.**  Every step calls what the eager op
calls — :mod:`repro.autograd.functional`'s forward cores and backward bodies,
``Tensor.relu``'s, the backend's composites, and the compiled arms of
:mod:`repro.autograd.kernels`, per node a copy whose stage tables keep what
they bound (:meth:`~repro.autograd.kernels.Arm.pinned`).  No arithmetic lives
here; gradients accumulate under ``Tensor._accumulate_fresh`` /
``_accumulate``'s rules (:class:`_Port`).  Requests under the kernel
workspace's floor get the array the first replayed step got at that position
(:class:`_Tape`), so tables bind them once; larger ones go to the workspace
each step, and a liveness pass lets every slot go after its last use, so a
replay leases no more than the eager step's free-as-you-go backward did.

:class:`TrainReplay` refuses, before touching any state, a tape it cannot
replay (:class:`Refused`).  When to capture and when a replay stops applying
is :meth:`repro.models.TBNet.train_step`'s business.  Not thread-safe.
"""

from __future__ import annotations

import copy
import math
import time
from typing import Dict, List, Optional

import numpy as np

from repro.autograd import functional as F, ir, kernels
from repro.autograd.tensor import (
    Tensor, _owned_copy, _relu_arm, _relu_backward, _relu_forward)
from repro.backend import workspace
from repro.obs import profile as _profile

__all__ = ["Refused", "TrainReplay"]


class Refused(Exception):
    """The captured tape cannot be replayed; ``reason`` says why: ``module``
    (for as long as the model stays as it is) or ``pending`` (until the
    compile thread is done)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _Tape:
    """The replay's backend: a copy of the backend whose ``empty`` hands
    every request under the workspace's floor the array the same request of
    the first replayed step got — fixed buffers, so pinned stage tables bind
    them once.  Larger requests go to the workspace each time.  A request
    that differs from the recorded one (the sequence changed) gets a new
    array, and the sequence is recorded again from there."""

    def __init__(self, be) -> None:
        self.be = copy.copy(be)
        self.be.empty = self.empty
        self.arrays: List[np.ndarray] = []
        self.i = 0

    def empty(self, shape, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        if dtype.itemsize * math.prod(shape) >= workspace.FLOOR:
            return workspace.empty(shape, dtype)
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
    """What a backward body reads of a tensor (``data``, ``requires_grad``)
    and where its gradient goes: a value slot (an activation), under
    ``Tensor._accumulate_fresh`` / ``_accumulate``'s rules, or a row of the
    flat gradient array (a parameter; ``first`` until the step's first
    contribution)."""

    __slots__ = ("data", "requires_grad", "values", "slot", "dtype", "be", "row", "first")

    def __init__(self, requires_grad: bool, dtype, values=None, slot=None, be=None,
                 row=None, data=None) -> None:
        self.requires_grad = requires_grad
        self.dtype = dtype
        self.values, self.slot, self.be = values, slot, be
        self.row, self.first, self.data = row, True, data

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
                grad.astype(self.dtype) if grad.dtype != self.dtype else _owned_copy(self.be, grad)
            )
        else:
            self._accumulate_fresh(grad)


#: Ops whose eager kernel asks :mod:`repro.autograd.kernels` for a compiled
#: arm: the lookup (``ask=None``) over the node's input arrays and attrs.
_ARM_LOOKUPS = {
    "conv2d": lambda xs, attrs: F._conv2d_arm(
        xs[0], xs[1], len(xs) == 3, attrs["stride"], attrs["padding"], ask=None),
    "max_pool2d": lambda xs, attrs: F._max_pool2d_arm(
        xs[0], attrs["kernel_size"], attrs["stride"], attrs["padding"], ask=None),
    "batch_norm": lambda xs, attrs: F._batch_norm_arm(
        xs[0], attrs["has_weight"], attrs["has_bias"], ask=None),
    "relu": lambda xs, attrs: _relu_arm(xs[0], ask=None),
}


class TrainReplay:
    """One captured train step over ``nodes`` (recording order, the loss
    last), recorded over the ``(images, context)`` ``inputs``; ``params``
    are the model's, ``counters`` the ``(buffer, delta)`` module counters a
    step adds to (``num_batches_tracked``).  Built between the capture's
    forward and its backward: it flattens the updated parameters and their
    optimizer state (:meth:`repro.nn.optim.Optimizer.flatten`)."""

    def __init__(self, nodes, inputs, params, optimizer, be, counters=()) -> None:
        loss = nodes[-1].out if nodes else None
        if loss is None or nodes[-1].op != "softmax_cross_entropy" or loss.data.size != 1:
            raise Refused("module")
        if any(t.requires_grad for t in inputs):
            raise Refused("module")  # its gradient would be the caller's to keep
        order = ir.toposort(loss._node)  # what backward() walks, leaves pruned
        produced = {id(node.out) for node in nodes}
        param_ids = {id(p): p for p in params}
        trained = {}
        for node in nodes:
            if node.op not in _EMITTERS:
                raise Refused("module")
            for j, t in enumerate(node.inputs):
                if id(t) in param_ids:
                    if t.requires_grad:
                        trained[id(t)] = t
                elif id(t) not in produced and not any(t is i for i in inputs) and not (
                        node.op == "softmax_cross_entropy" and j == 1):
                    raise Refused("module")  # a constant the replay would freeze
        updated = [p for p in optimizer.params if id(p) in trained]
        if len(updated) != len(trained) or len({p.data.dtype for p in updated}) > 1:
            raise Refused("module")
        arms = {}
        for node in nodes:
            lookup = _ARM_LOOKUPS.get(node.op)
            if lookup is not None and node.out.requires_grad:
                arms[id(node)] = lookup([t.data for t in node.inputs], node.attrs)
        if kernels.PENDING in arms.values():
            raise Refused("pending")

        # Nothing refused: from here on the capture changes state.
        self._be = be
        self._tape = _Tape(be)
        self._optimizer = optimizer
        self._counters = tuple(counters)
        self._flat = optimizer.flatten(updated) if updated else None
        rows = dict(zip(map(id, updated), self._flat[3])) if updated else {}
        self._seed = np.ones_like(loss.data)  # backward()'s seed of a scalar loss

        self._values: list = []
        self._fixed = 0  # slots below this hold constants (parameters) for good
        self._slot: Dict[int, int] = {}
        self._ports: Dict[int, _Port] = {}
        for p in params:
            self._slot[id(p)] = self._new(p.data)
            self._ports[id(p)] = _Port(id(p) in rows, p.data.dtype, row=rows.get(id(p)), data=p.data)
        self._fixed = len(self._values)
        self._inputs = tuple(self._new() for _ in inputs)
        for t, slot in zip(inputs, self._inputs):
            self._slot[id(t)] = slot
        self._targets = self._new()
        for node in nodes:
            self._slot[id(node.out)] = self._new()

        forward, backward, self._rows = [], {}, []
        for node in nodes:
            arm = arms.get(id(node))
            arm = arm.pinned(workspace.FLOOR) if arm is not None else None
            ins = [self._slot.get(id(t)) for t in node.inputs]
            fwd, fuses, bwd, buses = _EMITTERS[node.op](
                self, node, arm, self._tape.be, ins, self._slot[id(node.out)], self._grad_slot(node))
            forward.append((fwd, fuses))
            if node.backward is not None:
                backward[id(node)] = (bwd, buses)
            self._rows.append(((node.op,), "numpy" if arm is None else "compiled",
                               _reason(node.op, arm)))
        self._loss = self._slot[id(loss)]
        backward = [backward[id(node)] for node in reversed(order) if id(node) in backward]
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
                port = _Port(True, t.data.dtype, self._values, self._new(), self._tape.be)
            else:
                port = _Port(False, t.data.dtype)
            self._ports[id(t)] = port
        return port

    def _grad_slot(self, node) -> Optional[int]:
        """The slot the consumers of ``node``'s output accumulate its gradient in."""
        return self._port(node.out).slot

    def _ports_of(self, node) -> list:
        return [self._port(t) for t in node.inputs]

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
        """One row per captured node: its ``ops``, the ``arm`` that runs it
        (``compiled`` stages or the ``numpy`` body) and, for an op with a
        compiled arm that runs numpy, the ``reason`` (``disabled``, or
        ``fallback``: see ``repro_codegen_fallback_total``)."""
        return ir.explain_rows(self._rows)

    def run(self, images: np.ndarray, context: np.ndarray, targets) -> float:
        """One train step over a batch of the captured shapes and dtypes;
        returns the loss before the update, as ``train_step`` does.  Under
        a profiler: one ``replay`` step with ``replay:forward`` /
        ``replay:backward`` / ``replay:optim`` rows beside the compiled
        stages' own."""
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
        ir.run_steps(forward, values, profiler, fnames)
        loss = float(values[self._loss])
        for port in self._param_ports:
            port.first = True
        ir.run_steps(backward, values, profiler, bnames)
        if self._flat is not None:
            start = time.perf_counter()
            self._optimizer.flat_step(self._be, *self._flat[:3])
            if profiler is not None:
                profiler.record("replay:optim", time.perf_counter() - start)
        return loss


def _reason(op: str, pinned) -> Optional[str]:
    if pinned is not None or op not in _ARM_LOOKUPS:
        return None
    return "fallback" if kernels.jit.codegen_enabled() else "disabled"


# --------------------------------------------------------------------------- #
# Emitters, one per op: given the node, its compiled arm (or ``None``), the
# replay's backend, the slots of its inputs, of its output and of its output's
# gradient, each appends the forward step and returns the backward step, both
# calling the eager op's own bodies, with the slots each uses.
# --------------------------------------------------------------------------- #
def _conv2d(r, node, arm, be, ins, out, g):
    xs, ws, bs = (ins + [None])[:3]
    stride, padding = node.attrs["stride"], node.attrs["padding"]
    oh, ow = node.out.data.shape[2:]
    cols = r._new() if node.inputs[1].requires_grad else None

    def forward(v):
        xd, wd, bd = v[xs], v[ws], None if bs is None else v[bs]
        result = arm and arm.forward(be, xd, wd, bd, oh, ow)
        v[out], c = result or F._conv2d_forward(be, xd, wd, bd, *stride, *padding)
        if cols is not None:
            v[cols] = c

    px, pw, pb = (r._ports_of(node) + [None])[:3]

    def backward(v):
        px.data = v[xs]
        F.conv2d_backward(be, arm, v[g], px, pw, pb, None if cols is None else v[cols],
                          stride, padding)
        px.data = None

    return forward, (xs, out, cols), backward, (xs, g, cols)


def _max_pool2d(r, node, arm, be, ins, out, g):
    (xs,), attrs = ins, node.attrs
    kernel, stride, padding = attrs["kernel_size"], attrs["stride"], attrs["padding"]
    oh, ow = node.out.data.shape[2:]
    windows = r._new()

    def forward(v):
        pooled = arm and arm.forward(be, v[xs], oh, ow)
        if pooled is None:
            v[out], v[windows] = F._max_pool2d_forward(be, v[xs], *kernel, *stride, *padding)
        else:
            v[out] = pooled

    (px,) = r._ports_of(node)

    def backward(v):
        F.max_pool2d_backward(be, arm, v[g], px, v[xs], v[out], v[windows], kernel, stride, padding)

    return forward, (xs, out, windows), backward, (xs, out, windows, g)


def _batch_norm(r, node, arm, be, ins, out, g):
    attrs, values = node.attrs, r._values
    xs = ins[0]
    gamma = values[ins[1]] if attrs["has_weight"] else None
    beta = values[ins[-1]] if attrs["has_bias"] else None
    running, training = attrs["running"], attrs["training"]
    momentum, eps = attrs["momentum"], attrs["eps"]
    xhat, inv_std = r._new(), r._new()

    def forward(v):
        v[out], v[xhat], _, v[inv_std], _ = F._batch_norm_forward(
            be, arm, v[xs], gamma, beta, *running, training, momentum, eps)

    ports = r._ports_of(node)
    px = ports[0]
    pw = ports[1] if attrs["has_weight"] else None
    pb = ports[-1] if attrs["has_bias"] else None
    axes, bshape, batch_stats = attrs["axes"], attrs["bshape"], attrs["use_batch_stats"]

    def backward(v):
        F.batch_norm_backward(be, v[g], px, pw, pb, v[xhat], v[inv_std], axes, bshape,
                              batch_stats, arm)

    return forward, (xs, out, xhat, inv_std), backward, (g, xhat, inv_std)


def _relu(r, node, arm, be, ins, out, g):
    (xs,), mask = ins, r._new()

    def forward(v):
        v[out], v[mask] = _relu_forward(be, arm, v[xs])

    (px,) = r._ports_of(node)

    def backward(v):
        if px.requires_grad:
            px._accumulate_fresh(_relu_backward(be, arm, v[g], v[mask]))

    return forward, (xs, out, mask), backward, (g, mask)


def _reshape(r, node, arm, be, ins, out, g):
    (xs,), shape, original = ins, node.attrs["shape"], node.inputs[0].data.shape

    def forward(v):
        v[out] = v[xs].reshape(shape)

    (px,) = r._ports_of(node)

    def backward(v):
        if px.requires_grad:
            px._accumulate(v[g].reshape(original))

    return forward, (xs, out), backward, (g,)


def _linear(r, node, arm, be, ins, out, g):
    xs, ws, bs = (ins + [None])[:3]

    def forward(v):
        v[out] = be.linear(v[xs], v[ws], None if bs is None else v[bs])

    px, pw, pb = (r._ports_of(node) + [None])[:3]

    def backward(v):
        px.data = v[xs]
        F.linear_backward(be, v[g], px, pw, pb)
        px.data = None

    return forward, (xs, out), backward, (xs, g)


def _dropout(r, node, arm, be, ins, out, g):
    (xs,), mask = ins, r._new()
    p, rng = node.attrs["p"], node.attrs["rng"]

    def forward(v):
        v[mask] = F._dropout_mask(be, v[xs], p, rng)
        v[out] = be.multiply(v[xs], v[mask])

    (px,) = r._ports_of(node)

    def backward(v):
        if px.requires_grad:
            px._accumulate_fresh(be.multiply(v[g], v[mask]))

    return forward, (xs, out, mask), backward, (g, mask)


def _concat(r, node, arm, be, ins, out, g):
    axis = node.attrs["axis"] % node.out.data.ndim
    bounds = np.cumsum([0] + [t.data.shape[axis] for t in node.inputs])
    cuts = [(slice(None),) * axis + (slice(a, b),) for a, b in zip(bounds[:-1], bounds[1:])]

    def forward(v):
        v[out] = np.concatenate([v[s] for s in ins], axis=axis)

    ports = r._ports_of(node)

    def backward(v):
        for port, cut in zip(ports, cuts):
            if port.requires_grad:
                port._accumulate(v[g][cut])

    return forward, tuple(ins) + (out,), backward, (g,)


def _softmax_cross_entropy(r, node, arm, be, ins, out, g):
    xs, idx, reduction = ins[0], r._targets, node.attrs["reduction"]
    logp, rows = r._new(), r._new()

    def forward(v):
        v[out], v[logp], v[rows] = F._softmax_cross_entropy_forward(be, v[xs], v[idx], reduction)

    px, seed = r._port(node.inputs[0]), r._seed

    def backward(v):
        if px.requires_grad:
            px._accumulate_fresh(F._xent_backward(be, seed, v[logp], v[rows], v[idx], reduction))

    return forward, (xs, idx, out, logp, rows), backward, (logp, rows, idx)


_EMITTERS = {
    "conv2d": _conv2d,
    "max_pool2d": _max_pool2d,
    "batch_norm": _batch_norm,
    "relu": _relu,
    "reshape": _reshape,
    "linear": _linear,
    "dropout": _dropout,
    "concat": _concat,
    "softmax_cross_entropy": _softmax_cross_entropy,
}
