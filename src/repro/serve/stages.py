"""Plan the work around a trace's GEMMs into compiled loop stages.

:class:`SessionPlan` groups maximal single-consumer runs of a session's
steps — by op sequence, never by model class — into *groups* that replay as
one step each:

- a **gather** stage for ``conv2d``'s padding + footprint copy into the
  patch matrix,
- the host-BLAS ``np.matmul(..., out=)`` exactly as the numpy steps
  issue it (same operand layouts → same BLAS call → same bits),
- a **GEMM epilogue** stage: the transpose + bias add, then any eval
  ``batch_norm``, ``relu``, elementwise ``region`` and ``max_pool2d`` that
  follow, written directly in the layout the next
  consumer reads — NCHW, the flattened row of an absorbed ``reshape``, or
  a column slice of an absorbed ``concat``'s buffer.

An elementwise ``region`` with no GEMM in front is an epilogue over its
own operands (a ``linear`` head inside a region is the GEMM).  Everything
else stays the numpy step it is — an elementwise region the stages cannot
express (non-float or mixed dtypes, a 0-d output) runs ``region.interpret``
— except a *structured* region (reduction tails), which runs its own
stage plan (:meth:`~repro.codegen.region.RegionIR.lower`) through
:func:`repro.codegen.compile_region`, queued on the same compile thread
and built in the same compiler run.

The plan is described to :mod:`repro.codegen.cstage` as one hashable
signature with the batch as a runtime argument, so every bucket of a pool,
every worker thread and every worker process share one compile.  Stages
are called through a pointer table: session-owned buffers are bound once,
by-reference parameters are re-bound when ``tensor.data`` changes identity
(``load_state_dict``, optimizer steps and ``publish_weights`` keep working
without recompiling) and raw inputs are bound per call.

The compiled arm reuses the numpy steps' own buffers (patch matrix, GEMM
output, step outputs), so adopting it allocates nothing but the table.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.autograd.ir import Fallback
from repro.codegen import jit
from repro.codegen.cstage import operand_strides

__all__ = ["SessionPlan"]

_FLOATS = ("float32", "float64")


class _Group:
    """One compiled step: optional gather, optional GEMM, one map stage."""

    def __init__(self, index: int, node) -> None:
        self.members = [index]
        self.ops = [node.op]
        self.tail = node          # last member: its output is the group's
        self.buffer_node = node   # last member owning a numpy-step buffer
        self.operands: list = []  # (ref, strides); ref: "gemm" | Tensor | ndarray
        self.program: list = []   # (op, srcs); srcs: ("in", k) | ("op", i)
        self.value = None         # the running value, as a src
        self.n = 0
        self.dims: tuple = ()     # logical extents behind the leading n
        self.out_dims: tuple = () # the same, after the pool
        self.dtype = ""
        self.pool = None          # (kh, kw, sh, sw, ph, pw)
        self.closed = False       # after a reshape only a concat may follow
        self.conv = None          # (x tensor, gather geometry, patch matrix)
        self.matmul = None        # (w getter, x getter, conv rows, GEMM output, patch matrix)
        self.redirect = None      # (concat node, element offset) when absorbed

    def operand(self, ref, shape, activation: bool = False):
        strides = operand_strides(shape, (self.n,) + self.dims, activation)
        for k, (have, have_strides) in enumerate(self.operands):
            if have is ref and have_strides == strides:
                return ("in", k)
        self.operands.append((ref, strides))
        return ("in", len(self.operands) - 1)

    def apply(self, op: str, *srcs):
        self.program.append((op, srcs))
        self.value = ("op", len(self.program) - 1)
        return self.value


class SessionPlan:
    """The compiled arm of one :class:`~repro.serve.InferenceSession`."""

    def __init__(self, session, nodes, slot_of, gemm: bool = True) -> None:
        self._session = session
        self._gemm = gemm  # False: only ``region`` steps start a group
        self._slot_of = slot_of
        self._nodes = nodes
        self._bound = [step for step, _, _ in session._bound]
        #: The buffer each numpy step fills, by value slot: the compiled
        #: stages fill the same ones.
        self._bufs = {slot: step.out for step, _, slot in session._bound if hasattr(step, "out")}
        uses: Dict[int, int] = {}
        self._consumer = {}
        for j, node in enumerate(nodes):
            for t in node.inputs:
                uses[id(t)] = uses.get(id(t), 0) + 1
                self._consumer[id(t)] = j
        self._uses = uses
        self.groups: List[_Group] = []
        #: Node indices of structured regions: they keep compile_region's kernels.
        self.jobs: List[int] = []
        self._absorbed = set()
        for j, node in enumerate(nodes):
            if j in self._absorbed:
                continue
            group = self._start(j, node)
            if group is None:
                if node.op == "region" and not self._bound[j].region.is_elementwise:
                    self.jobs.append(j)
                continue
            self._extend(group)
            self.groups.append(group)
        self._absorb_concats()
        self.groups.sort(key=lambda g: g.members[-1])
        self.covered = set(self.jobs).union(*(g.members for g in self.groups))
        self.signature = None
        if self.groups:
            self._bind()
        # Sever the example trace: the steps need the table rows, the
        # getters and the buffers, never the traced tensors (whose
        # activations would stay pinned for the session's lifetime).
        self._regions = [(j, self._bound[j].region) for j in self.jobs]
        self._session = self._nodes = self._consumer = self._slot_of = self._uses = None
        self._bound = self._bufs = None
        for g in self.groups:
            g.tail = g.buffer_node = g.conv = g.redirect = g.operands = None

    def __bool__(self) -> bool:
        return bool(self.groups or self.jobs)

    # ------------------------------------------------------------------ #
    # Grouping
    # ------------------------------------------------------------------ #
    def _is_activation(self, t) -> bool:
        return id(t) in self._slot_of

    def _start(self, j: int, node) -> Optional[_Group]:
        op = node.op
        out = node.out.data
        dtype = str(out.dtype)
        if dtype not in _FLOATS or out.ndim < 1 or not (self._gemm or op == "region"):
            return None
        if any(str(t.data.dtype) != dtype for t in node.inputs):
            return None
        group = _Group(j, node)
        group.dtype, group.n = dtype, out.shape[0]
        group.dims = group.out_dims = out.shape[1:]
        session = self._session
        getters = [session._getter_for(t, self._slot_of) for t in node.inputs]
        if op == "conv2d":
            x, w = node.inputs[0], node.inputs[1]
            if not self._is_activation(x):
                return None
            oc, _, kh, kw = w.data.shape
            (sh, sw), (ph, pw) = node.attrs["stride"], node.attrs["padding"]
            cols, gemm = self._bound[j].patches
            group.conv = (x, x.data.shape[1:] + (kh, kw, sh, sw, ph, pw), cols)
            group.matmul = (getters[1], None, oc, gemm, cols)
            size = out.shape[2] * out.shape[3]
            group.operands.append(("gemm", (size, ("n", size), out.shape[3], 1)))
            group.value = ("in", 0)
            bias = node.inputs[2] if len(node.inputs) == 3 else None
        elif op == "linear" and node.inputs[0].data.ndim == 2:
            group.matmul = (getters[1], getters[0], None, self._bound[j].out, None)
            group.operands.append(("gemm", (out.shape[1], 1)))
            group.value = ("in", 0)
            bias = node.inputs[2] if len(node.inputs) == 3 else None
        elif op == "region":
            return group if self._splice_region(group, j, node, None) else None
        else:
            return None
        if bias is not None:
            if bias.data.shape != (group.dims[0],):
                return None
            shape = (group.dims[0],) + (1,) * (len(group.dims) - 1)
            group.apply("add", group.value, group.operand(bias, shape))
        return group

    def _extend(self, group: _Group) -> None:
        nodes = self._nodes
        while True:
            t = group.tail.out
            if self._uses.get(id(t)) != 1:
                return
            k = self._consumer[id(t)]
            if k in self._absorbed or not self._absorb(group, k, nodes[k], t):
                return  # (a region joins the first of its producers only)
            self._absorbed.add(k)
            group.members.append(k)
            group.ops.append(nodes[k].op)
            group.tail = nodes[k]
            if self._slot_of[id(nodes[k].out)] in self._bufs:
                group.buffer_node = nodes[k]

    def _absorb(self, group: _Group, index: int, node, t) -> bool:
        op, attrs = node.op, node.attrs or {}
        out = node.out.data
        if group.closed or str(out.dtype) != group.dtype:
            return False
        if op == "reshape" and node.inputs[0] is t:
            if out.ndim < 1 or out.shape[0] != group.n:
                return False
            group.closed = True
            return True
        if group.pool is not None:
            return False  # nothing but a reshape (and a concat) reads a pooled value
        if op == "relu":
            group.apply("relu", group.value)
            return True
        if op == "batch_norm" and node.inputs[0] is t:
            if attrs["use_batch_stats"] or str(attrs["mean"].dtype) != group.dtype:
                return False
            if any(str(p.data.dtype) != group.dtype for p in node.inputs[1:]):
                return False
            bshape = tuple(attrs["bshape"])
            stats = [np.ascontiguousarray(attrs[key].reshape(bshape))
                     for key in ("mean", "inv_std")]
            group.apply("sub", group.value, group.operand(stats[0], bshape))
            group.apply("mul", group.value, group.operand(stats[1], bshape))
            affine = list(node.inputs[1:])
            if attrs["has_weight"]:
                group.apply("mul", group.value, group.operand(affine.pop(0), bshape))
            if attrs["has_bias"]:
                group.apply("add", group.value, group.operand(affine.pop(0), bshape))
            return True
        if op == "max_pool2d" and len(group.dims) == 3:
            group.pool = tuple(attrs["kernel_size"]) + tuple(attrs["stride"]) + tuple(attrs["padding"])
            group.out_dims = out.shape[1:]
            return True
        if op == "region":
            return self._splice_region(group, index, node, t)
        return False

    def _splice_region(self, group: _Group, index: int, node, t) -> bool:
        """Append an elementwise region's program (``t``: the running value
        among its inputs); a standalone region may lead with a ``linear``."""
        region = self._bound[index].region
        if region.out_shape != (group.n,) + group.dims:
            return False
        ops = region.ops
        head = t is None and ops[0][0] == "linear"
        if any(len(e) != 2 or e[0] == "linear" for e in ops[head:]):
            return False
        dynamic = iter(node.inputs)
        tensors = [None if inp.const is not None else next(dynamic) for inp in region.inputs]
        if any(x is not None and str(x.data.dtype) != group.dtype for x in tensors):
            return False
        if any(x is t and inp.shape != region.out_shape
               for x, inp in zip(tensors, region.inputs) if t is not None):
            return False  # the running value would be broadcast or reshaped
        n_in = len(region.inputs)
        if head:
            xs, ws = ops[0][1][0], ops[0][1][1]
            x, w = tensors[xs], tensors[ws]
            if (x is None or w is None or x.data.ndim != 2
                    or region.inputs[xs].reshape or region.inputs[ws].reshape):
                return False
            session = self._session
            gemm = np.empty((x.data.shape[0], w.data.shape[1]), group.dtype)
            group.matmul = (session._getter_for(w, self._slot_of),
                            session._getter_for(x, self._slot_of), None, gemm, None)
        running = group.value
        srcs: dict = {}

        def src(s):
            if s not in srcs:
                inp, x = region.inputs[s], tensors[s]
                if x is t and t is not None:
                    srcs[s] = running
                elif x is None:
                    const = np.ascontiguousarray(inp.const.reshape(inp.shape))
                    srcs[s] = group.operand(const, inp.shape)
                else:
                    srcs[s] = group.operand(x, inp.shape, self._is_activation(x))
            return srcs[s]

        for i, (op, operands) in enumerate(ops):
            if op == "linear":
                value = group.operand("gemm", gemm.shape, True)
                if len(operands) == 3:
                    value = group.apply("add", value, src(operands[2]))
                srcs[n_in + i] = value
            else:
                srcs[n_in + i] = group.apply(op, *(src(s) for s in operands))
        group.value = srcs[n_in + len(ops) - 1]
        return True

    def _absorb_concats(self) -> None:
        """A ``concat`` along axis 1 whose inputs are all group outputs with
        no other reader is not replayed: each producer writes its block of
        every sample's row."""
        by_tail = {id(g.tail.out): g for g in self.groups}
        for j, node in enumerate(self._nodes):
            if node.op != "concat" or node.out.data.ndim < 2:
                continue
            if node.attrs["axis"] % node.out.data.ndim != 1:
                continue
            producers = [by_tail.get(id(t)) for t in node.inputs]
            if any(g is None or g.redirect or self._uses[id(g.tail.out)] != 1
                   or g.dtype != str(node.out.data.dtype) for g in producers):
                continue
            offset = 0
            for g, t in zip(producers, node.inputs):
                g.redirect = (node, offset)
                offset += int(np.prod(t.data.shape[1:], dtype=np.int64))
            last = max(producers, key=lambda g: g.members[-1])
            last.members.append(j)
            last.ops.append("concat")
            self._absorbed.add(j)

    # ------------------------------------------------------------------ #
    # Binding: the pointer table and the stage signature
    # ------------------------------------------------------------------ #
    def _bind(self) -> None:
        bufs, slot_of = self._bufs, self._slot_of
        entries: list = []   # what each table row points at
        index: dict = {}
        fixed: Dict[int, np.ndarray] = {}  # value slot -> buffer a compiled step fills
        absorbed = self._absorbed.union(*(g.members for g in self.groups))
        producer = {slot_of[id(node.out)]: j for j, node in enumerate(self._nodes)}

        stages = []
        g = None

        def row(ref) -> int:
            """Table row of a buffer, a by-reference tensor or a value slot
            (an int: an array that may change from call to call)."""
            if not isinstance(ref, np.ndarray):
                slot = slot_of.get(id(ref))
                if slot in fixed:
                    ref = fixed[slot]
                elif slot in bufs and producer[slot] not in absorbed:
                    ref = bufs[slot]
                elif slot is not None:
                    ref = slot
            key = ("slot", ref) if isinstance(ref, int) else id(ref)
            if key not in index:
                index[key] = len(entries)
                entries.append(ref)
            g.rows.add(index[key])
            return index[key]

        for g in self.groups:
            g.rows = set()
            if g.conv is not None:
                x, geometry, cols = g.conv
                g.gather = len(stages)
                stages.append(("gather", g.dtype, row(x), row(cols)) + geometry)
            else:
                g.gather = None
            dims = g.dims
            if g.redirect is not None:
                concat, offset = g.redirect
                slot = slot_of[id(concat.out)]
                dst = bufs[slot]
                stride = int(np.prod(dst.shape[1:], dtype=np.int64))
                g.publish = (slot, dst)
            else:
                slot = slot_of[id(g.tail.out)]
                dst = bufs[slot_of[id(g.buffer_node.out)]]
                stride, offset = int(np.prod(g.out_dims, dtype=np.int64)), 0
                g.publish = (slot, dst.reshape(g.tail.out.data.shape))
            fixed[slot] = dst
            n_in = len(g.operands)
            number = lambda s: s[1] if s[0] == "in" else n_in + s[1]
            inputs = tuple(
                (row(g.matmul[3] if isinstance(ref, str) else ref), strides)
                for ref, strides in g.operands
            )
            ops = tuple((op, tuple(number(s) for s in srcs)) for op, srcs in g.program)
            g.map = len(stages)
            stages.append(("map", g.dtype, dims, inputs, ops, g.pool,
                           row(dst), stride, offset))
        self.signature = ("stages", tuple(stages))
        self._entries = entries
        #: The shape each by-reference tensor was rendered for, by table row.
        self._shapes = {k: ref.data.shape for k, ref in enumerate(entries)
                        if not isinstance(ref, (np.ndarray, int))}

    # ------------------------------------------------------------------ #
    # Compiling and adopting
    # ------------------------------------------------------------------ #
    def request(self) -> list:
        """Ask for every kernel of the plan without waiting for a compiler;
        returns the compiles still in flight."""
        pending = []
        if self.signature is not None:
            pending.append(jit.resolve(self.signature, wait=False))
        for _, region in self._regions:
            plan = region.lower()
            if plan is not None:
                pending.append(jit.resolve(plan[0], wait=False))
        return [p for p in pending if isinstance(p, jit.Pending)]

    def steps(self, session):
        """``(steps, explain rows, reason)`` with every resolved kernel in
        place; ``reason``: why planned steps stay numpy, if any do.  Call
        when :meth:`request` has nothing in flight."""
        lib = jit.resolve(self.signature, wait=False) if self.groups else None
        reason = lib if isinstance(lib, str) else None
        rows = session._numpy_rows(reason)
        steps = list(session._numpy_steps)
        for j, region in self._regions:
            kernel = jit.compile_region(region)  # memo hits only
            if kernel.is_compiled:
                steps[j], rows[j] = session._kernel_step(j, kernel), (rows[j][0], "compiled", None)
            else:
                reason = reason or kernel.reason
                rows[j] = (rows[j][0], "numpy", kernel.reason)
        if self.groups and not isinstance(lib, str):
            lib = lib[0]
            table = lib.table(len(self._entries))
            for k, ref in enumerate(self._entries):
                if isinstance(ref, np.ndarray):  # session-owned: bound once
                    table[k] = lib.address(ref)
            for g in self.groups:
                for j in g.members:
                    steps[j] = rows[j] = None
                tail = g.members[-1]
                steps[tail] = self._compiled_step(g, lib, table)
                rows[tail] = (tuple(g.ops), "compiled", None)
        return ([s for s in steps if s is not None],
                [r for r in rows if r is not None], reason)

    def _compiled_step(self, g: _Group, lib, table):
        """The replayed step of one group (see the module docstring)."""
        entries, fns, address = self._entries, lib.fns, lib.address
        dtype = np.dtype(g.dtype)
        tensors = [(k, entries[k]) for k in sorted(g.rows)
                   if not isinstance(entries[k], (np.ndarray, int))]
        slots = [(k, entries[k]) for k in sorted(g.rows) if isinstance(entries[k], int)]
        cached = [None] * len(tensors)
        shapes = [self._shapes[k] for k, _ in tensors]
        gather = partial(fns[g.gather], table, g.n) if g.gather is not None else None
        epilogue = partial(fns[g.map], table, g.n)
        out_slot, out = g.publish
        matmul = np.matmul
        gw = gx = rows = gemm = cols = None
        if g.matmul is not None:
            gw, gx, rows, gemm, cols = g.matmul

        def rebind(i: int, data) -> None:
            if (data.dtype != dtype or data.shape != shapes[i]
                    or not data.flags.c_contiguous or not data.flags.aligned):
                raise Fallback("unplannable")
            table[tensors[i][0]] = address(data)
            cached[i] = data

        def step(values):
            i = 0
            for _, tensor in tensors:
                data = tensor.data
                if data is not cached[i]:
                    rebind(i, data)
                i += 1
            copies = None  # keeps every copy alive until the stages ran
            for k, slot in slots:
                array = values[slot]
                flags = array.flags
                if not (flags.c_contiguous and flags.aligned):
                    array = np.require(array, requirements="CA")
                    copies = (copies, array)
                table[k] = address(array)
            if gather is not None:
                gather()
                matmul(gw(values).reshape(rows, -1), cols, out=gemm)
            elif gemm is not None:
                matmul(gx(values), gw(values), out=gemm)
            epilogue()
            values[out_slot] = out

        return step
