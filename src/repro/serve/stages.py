"""Plan the work around a trace's GEMMs into compiled loop stages.

:class:`SessionPlan` groups maximal single-consumer runs of a session's
steps into *groups* that replay as one step each, from the stage
description of each step's op (:class:`repro.autograd.ir.Stage`) — never
from an op's name, and never by model class:

- a **gather** stage for a head whose step gathers a patch matrix (a conv's
  padding + footprint copy),
- the host-BLAS ``np.matmul(..., out=)`` exactly as the numpy steps issue
  it (same operand layouts → same BLAS call → same bits),
- one **map** stage: the head's epilogue (the bias add), then the program
  pieces of every op that follows (eval batch-norm, relu, max-pool, the
  elementwise ``add`` / ``mul`` / ``div`` / ``neg``), written directly in
  the layout the next consumer reads — NCHW, the flattened row of a closing
  layout op (a reshape), or a column slice of an axis-1 sink's (a concat's)
  buffer.

This is the one place elementwise chains fuse.  An elementwise op joins a
group when its output has the group's shape and the running value is one
of its operands unbroadcast; its other operands, broadcast against the
output, are read as they are.  An elementwise op may also start a group
(all its operands read); a group with no GEMM is kept only with two
members or more, so a lone op stays the numpy step it is.  Everything else
stays a numpy step too — but a *reduction region* (the trailing-axes sum
tails :mod:`repro.autograd.fusion` extracts), which runs its own stage plan
(:meth:`~repro.codegen.region.RegionIR.lower`) through
:func:`repro.codegen.compile_region`, queued on the same compile thread and
built in the same compiler run.

The plan is described to :mod:`repro.codegen.cstage` as one hashable
signature with the batch as a runtime argument, so every bucket of a pool,
every worker thread and every worker process share one compile.  Stages
are called through a pointer table: session-owned buffers are bound once,
by-reference parameters are re-bound when ``tensor.data`` changes identity
(``load_state_dict``, optimizer steps and ``publish_weights`` keep working
without recompiling) and raw inputs are bound per call.  The compiled arm
reuses the numpy steps' own buffers (patch matrix, GEMM output, step
outputs), so adopting it allocates nothing but the table.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.autograd import ir
from repro.autograd.ir import Fallback
from repro.codegen import jit

__all__ = ["SessionPlan"]

_FLOATS = ("float32", "float64")


class _Group(ir.Program):
    """One compiled step: optional gather, optional GEMM, one map stage —
    the program over the head's output shape; an operand's ref is
    ``"gemm"``, a tensor or an array."""

    def __init__(self, index: int, node) -> None:
        out = node.out.data
        super().__init__(out.shape)
        self.members = [index]
        self.ops = [node.op]
        self.tail = node          # last member: its output is the group's
        self.buffer_node = node   # last member owning a numpy-step buffer
        self.n = out.shape[0]
        self.dtype = str(out.dtype)
        self.closed = False       # after a reshape only a concat may follow
        self.conv = None          # (x tensor, gather geometry, patch matrix)
        self.matmul = None        # (w getter, x getter, conv rows, GEMM output, patch matrix)
        self.redirect = None      # (concat node, element offset) when absorbed


class SessionPlan:
    """The compiled arm of one :class:`~repro.serve.InferenceSession`."""

    def __init__(self, session, nodes, slot_of, gemm: bool = True) -> None:
        self._session = session
        #: False: no conv heads a group, and a linear only with more members
        self._gemm = gemm
        self._slot_of = slot_of
        self._nodes = nodes
        self._bound = [step for step, _, _ in session._bound]
        #: The buffer each numpy step fills, by value slot: the compiled
        #: stages fill the same ones.
        self._bufs = {slot: step.out for step, _, slot in session._bound if hasattr(step, "out")}
        self._readers = ir.Readers(nodes)
        self.groups: List[_Group] = []
        #: Node indices of reduction regions: they keep compile_region's kernels.
        self.jobs: List[int] = []
        self._absorbed = set()
        for j, node in enumerate(nodes):
            if j in self._absorbed:
                continue
            group = self._start(j, node)
            if group is None:
                if hasattr(self._bound[j], "over"):  # runs over a region's own kernel
                    self.jobs.append(j)
                continue
            self._extend(group)
            if len(group.members) > 1 or (self._gemm and group.matmul is not None):
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
        self._session = self._nodes = self._readers = self._slot_of = None
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

    @staticmethod
    def _geometry(node, stage):
        """The geometry a node's op keys its train arm by, which its program
        reads (``None``: the op has no train arm)."""
        if stage.geometry is None:
            return None
        return stage.geometry([t.data for t in node.inputs], node.attrs)[1:]

    def _start(self, j: int, node) -> Optional[_Group]:
        stage = ir.OPS[node.op].stage
        part = stage.part
        if part not in (ir.HEAD, ir.ELEMENTWISE):
            return None
        out = node.out.data
        dtype = str(out.dtype)
        if dtype not in _FLOATS or out.ndim < 1:
            return None
        if any(str(t.data.dtype) != dtype for t in node.inputs):
            return None
        group = _Group(j, node)
        if part == ir.ELEMENTWISE:
            return group if self._elementwise(group, node, None) else None
        step = self._bound[j]
        if getattr(step, "generic", False):
            return None  # a batched linear
        getter = partial(self._session._getter_for, slot_of=self._slot_of)
        x, w = node.inputs[:2]
        geometry = self._geometry(node, stage)
        if hasattr(step, "patches"):  # a conv: its input gathered into a patch matrix
            if not (self._gemm and self._is_activation(x)):
                return None
            cols, gemm = step.patches
            group.conv = (x, geometry[:9], cols)
            group.matmul = (getter(w), None, len(w.data), gemm, cols)
        else:
            group.matmul = (getter(w), getter(x), None, step.out, None)
        stage.program(group, geometry, "gemm", *node.inputs[2:])
        return group

    def _extend(self, group: _Group) -> None:
        nodes = self._nodes
        # (An op reading two groups' values joins the first to reach it.)
        accept = lambda k, node, t: k not in self._absorbed and self._absorb(group, k, node, t)
        for k in self._readers.chain(group.members[0], accept):
            self._absorbed.add(k)
            group.members.append(k)
            group.ops.append(nodes[k].op)
            group.tail = nodes[k]
            if self._slot_of[id(nodes[k].out)] in self._bufs:
                group.buffer_node = nodes[k]

    def _absorb(self, group: _Group, index: int, node, t) -> bool:
        stage = ir.OPS[node.op].stage
        out = node.out.data
        if group.closed or str(out.dtype) != group.dtype:
            return False
        if stage.part == ir.LAYOUT and node.inputs[0] is t:
            if out.ndim < 1 or out.shape[0] != group.n:
                return False
            group.closed = True
            return True
        if group.pool is not None:
            return False  # nothing but a reshape (and a concat) reads a pooled value
        if stage.part == ir.ELEMENTWISE:
            return self._elementwise(group, node, t)
        step = self._bound[index]
        if stage.part != ir.EPILOGUE or node.inputs[0] is not t or getattr(step, "generic", False):
            return False  # (a batch-norm over its batch's statistics is generic)
        refs = getattr(step, "consts", ()) + node.inputs[1:]
        if any(str(ref.dtype if isinstance(ref, np.ndarray) else ref.data.dtype) != group.dtype
               for ref in refs):
            return False
        stage.program(group, self._geometry(node, stage), *refs)
        return True

    def _elementwise(self, group: _Group, node, t) -> bool:
        """Apply an elementwise op to its operands, ``t`` (the running value)
        among them unless it starts the group.  The running value has the
        group's shape, so an output of another shape — the running value
        broadcast — refuses the op."""
        if node.out.data.shape != group.against:
            return False
        if any(str(x.data.dtype) != group.dtype for x in node.inputs):
            return False
        srcs = [group.value if x is t else group.operand(x, x.data.shape, self._is_activation(x))
                for x in node.inputs]
        ir.OPS[node.op].stage.program(group, None, *srcs)
        return True

    def _absorb_concats(self) -> None:
        """A ``concat`` along axis 1 whose inputs are all group outputs with
        no other reader is not replayed: each producer writes its block of
        every sample's row."""
        by_tail = {id(g.tail.out): g for g in self.groups}
        for j, node in enumerate(self._nodes):
            if ir.OPS[node.op].stage.part != ir.SINK or node.out.data.ndim < 2:
                continue
            if node.attrs["axis"] % node.out.data.ndim != 1:
                continue
            producers = [by_tail.get(id(t)) for t in node.inputs]
            if any(g is None or g.redirect or self._readers.uses[id(g.tail.out)] != 1
                   or g.dtype != str(node.out.data.dtype) for g in producers):
                continue
            offset = 0
            for g, t in zip(producers, node.inputs):
                g.redirect = (node, offset)
                offset += int(np.prod(t.data.shape[1:], dtype=np.int64))
            last = max(producers, key=lambda g: g.members[-1])
            last.members.append(j)
            last.ops.append(node.op)
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
            if g.redirect is not None:
                concat, offset = g.redirect
                slot = slot_of[id(concat.out)]
                dst = bufs[slot]
                stride = int(np.prod(dst.shape[1:], dtype=np.int64))
                g.publish = (slot, dst)
            else:
                slot = slot_of[id(g.tail.out)]
                dst = bufs[slot_of[id(g.buffer_node.out)]]
                stride, offset = int(np.prod(g.tail.out.data.shape[1:], dtype=np.int64)), 0
                g.publish = (slot, dst.reshape(g.tail.out.data.shape))
            fixed[slot] = dst
            inputs = tuple(
                (row(g.matmul[3] if isinstance(ref, str) else ref), strides)
                for ref, strides in g.operands
            )
            g.map = len(stages)
            stages.append(g.stage(g.dtype, row(dst), stride, offset, inputs))
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
