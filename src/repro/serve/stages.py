"""Plan the work around a trace's GEMMs into compiled loop stages.

:class:`SessionPlan` groups maximal single-consumer runs of a session's
steps into *groups*, from the stage description of each step's op
(:class:`repro.autograd.ir.Stage`) — never from an op's name, and never by
model class.  A group is

- a **gather** for a head whose step gathers a patch matrix (a conv's
  padding + footprint copy),
- the head's **product**: the BLAS call numpy's ``matmul`` makes for the
  step's operands (:func:`repro.codegen.cstage.matmul_call` — a ``gemm``
  with its transposes, or a ``gemv``), made from C through numpy's own BLAS
  with the same arguments (same call → same bits),
- one **map**: the head's epilogue (the bias add), then the program pieces
  of every op that follows (eval batch-norm, relu, max-pool, the
  elementwise ``add`` / ``mul`` / ``div`` / ``neg``), written directly in
  the layout the next consumer reads — NCHW, the flattened row of a closing
  layout op (a reshape), or a column slice of an axis-1 sink's (a concat's)
  buffer.

Every maximal run of groups that no numpy step separates replays as **one
native call**, a *driver* (:class:`_Driver`): each group's gather, product
and map in turn, so Python only checks the run's input slots and its
by-reference tensors and makes the call.  A product's call may depend on
whether the batch is one sample (a linear's ``(1, d) @ (d, k)`` is a
``gemv``, its ``(n, d) @ (d, k)`` a ``gemm``): the driver renders both, each
behind the table row of its BLAS function, and a session binds the one of
its batch.  Where numpy would not hand a product to either (a column @ row,
a zero extent) the driver splits there, around a plain ``np.matmul``.
With a profiler active, the driver timestamps each group in C.

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
are called over a table of each driver's own
(:meth:`~repro.codegen.jit.StageLibrary.table`):
session-owned buffers are bound once, by-reference parameters are bound
again when ``tensor.data`` changes identity (``load_state_dict``,
optimizer steps and ``publish_weights`` keep working without recompiling)
and input slots whenever they hold another array.  The compiled arm
reuses the numpy steps' own buffers (patch matrix, GEMM output, step
outputs), so adopting it allocates nothing but the tables.

A thread server's worker pools plan without GEMM stages (``gemm=False``,
:class:`repro.serve.frontend._ServerPool`): their groups keep a Python step
each — gather, ``np.matmul``, map — over stages of their own.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.autograd import ir
from repro.autograd.ir import Fallback
from repro.backend import workspace
from repro.codegen import jit
from repro.codegen.cstage import blas_piece, matmul_call
from repro.obs import profile as _profile

__all__ = ["SessionPlan"]

_FLOATS = ("float32", "float64")
#: The table row of a driver's timestamps: null unless a profiler is active.
_CLOCK = ("clock",)


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
        #: (a, b, product, patch rows, pixels): ``a @ b`` into ``product`` —
        #: a conv's ``w.reshape(patch rows, -1) @ cols`` over ``pixels`` a
        #: sample, a linear's ``x @ w`` (rows and pixels ``None``)
        self.matmul = None
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
        self._drivers: Optional[List[_Driver]] = None
        if self.groups:
            self._publish()
            if gemm:
                self._bind_drivers()
            else:
                self._bind()
        # Sever the example trace: the steps need the table rows, the
        # getters and the buffers, never the traced tensors (whose
        # activations would stay pinned for the session's lifetime).
        self._regions = [(j, self._bound[j].region) for j in self.jobs]
        self._session = self._nodes = self._readers = self._slot_of = None
        self._bound = self._bufs = self._fixed = self._grouped = None
        for g in self.groups:
            g.tail = g.buffer_node = g.conv = g.redirect = g.operands = g.write = None
            if self._drivers is not None:
                g.matmul = None  # a linear's input tensor is an activation

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
        x, w = node.inputs[:2]
        geometry = self._geometry(node, stage)
        if hasattr(step, "patches"):  # a conv: its input gathered into a patch matrix
            if not (self._gemm and self._is_activation(x)):
                return None
            cols, gemm = step.patches
            group.conv = (x, geometry[:9], cols)
            group.matmul = (w, cols, gemm, len(w.data), out.shape[2] * out.shape[3])
        else:
            group.matmul = (x, w, step.out, None, None)
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
    # Binding: the pointer tables and the stage signature
    # ------------------------------------------------------------------ #
    def _publish(self) -> None:
        """Where each group writes (``g.write``: buffer, sample stride,
        offset) and what it publishes (``g.publish``: value slot, array)."""
        bufs, slot_of = self._bufs, self._slot_of
        #: Value slot -> the buffer a group fills.
        self._fixed: Dict[int, np.ndarray] = {}
        for g in self.groups:
            if g.redirect is not None:
                concat, offset = g.redirect
                slot = slot_of[id(concat.out)]
                dst = bufs[slot]
                g.write = (dst, int(np.prod(dst.shape[1:], dtype=np.int64)), offset)
                g.publish = (slot, dst)
            else:
                slot = slot_of[id(g.tail.out)]
                dst = bufs[slot_of[id(g.buffer_node.out)]]
                shape = g.tail.out.data.shape
                g.write = (dst, int(np.prod(shape[1:], dtype=np.int64)), 0)
                g.publish = (slot, dst.reshape(shape))
            self._fixed[slot] = dst
        absorbed = self._absorbed.union(*(g.members for g in self.groups))
        #: Value slots a group computes: no numpy step fills their buffers.
        self._grouped = {slot_of[id(self._nodes[j].out)] for j in absorbed}

    def _resolve(self, ref):
        """What a table row for ``ref`` holds: a buffer, a by-reference
        tensor or a value slot (an int: an array that may change from call
        to call)."""
        if isinstance(ref, (np.ndarray, tuple)):
            return ref
        slot = self._slot_of.get(id(ref))
        if slot in self._fixed:
            return self._fixed[slot]
        if slot in self._bufs and slot not in self._grouped:
            return self._bufs[slot]
        return ref if slot is None else slot

    def _bind_drivers(self) -> None:
        """Every maximal run of groups no numpy step separates (and of one
        batch extent) as one :class:`_Driver`, and the signature of their
        stages."""
        tails = {g.members[-1]: g for g in self.groups}
        members = set().union(*(g.members for g in self.groups))
        runs, run = [], []
        for j in range(len(self._nodes)):
            g = tails.get(j)
            if g is not None and run and run[-1].n != g.n:
                runs.append(run)
                run = []
            if g is not None:
                run.append(g)
            elif j not in members and run:
                runs.append(run)
                run = []
        if run:
            runs.append(run)
        stages: list = []
        self._drivers = []
        for groups in runs:
            driver = _Driver(groups, self._resolve)
            driver.stages = list(range(len(stages), len(stages) + len(driver.runs)))
            stages.extend(driver.runs)
            self._drivers.append(driver)
        self.signature = ("stages", tuple(stages))

    def _bind(self) -> None:
        """The thread-worker plan: one table for the session, a map stage
        per group (no conv heads one here) and a Python step per group."""
        entries: list = []   # what each table row points at
        index: dict = {}
        getter = partial(self._session._getter_for, slot_of=self._slot_of)
        stages = []
        g = None

        def row(ref) -> int:
            ref = self._resolve(ref)
            key = ("slot", ref) if isinstance(ref, int) else id(ref)
            if key not in index:
                index[key] = len(entries)
                entries.append(ref)
            g.rows.add(index[key])
            return index[key]

        for g in self.groups:
            g.rows = set()
            dst, stride, offset = g.write
            inputs = tuple(
                (row(g.matmul[2] if isinstance(ref, str) else ref), strides)
                for ref, strides in g.operands
            )
            g.map = len(stages)
            stages.append(g.stage(g.dtype, row(dst), stride, offset, inputs))
            if g.matmul is not None:  # a linear
                x, w, out = g.matmul[:3]
                g.matmul = (getter(w), getter(x), out)
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
        """``(steps, (names, profiled steps), explain rows, reason)`` with
        every resolved kernel in place — a driver records its groups' rows
        itself, so its profiled step has no name; ``reason``: why planned
        steps stay numpy, if any do.  Call when :meth:`request` has nothing
        in flight."""
        lib = jit.resolve(self.signature, wait=False) if self.groups else None
        reason = lib if isinstance(lib, str) else None
        rows = session._numpy_rows(reason)
        steps = list(session._numpy_steps)
        timed = [("serve:" + op, step) for op, step in zip(session._node_ops, steps)]
        for j, region in self._regions:
            kernel = jit.compile_region(region)  # memo hits only
            if kernel.is_compiled:
                steps[j], rows[j] = session._kernel_step(j, kernel), (rows[j][0], "compiled", None)
                timed[j] = (timed[j][0], steps[j])
            else:
                reason = reason or kernel.reason
                rows[j] = (rows[j][0], "numpy", kernel.reason)
        if self.groups and not isinstance(lib, str):
            lib = lib[0]
            for g in self.groups:
                for j in g.members:
                    steps[j] = rows[j] = timed[j] = None
                rows[g.members[-1]] = (tuple(g.ops), "compiled", None)
            if self._drivers is None:
                table = lib.table(len(self._entries)).rows
                for k, ref in enumerate(self._entries):
                    if isinstance(ref, np.ndarray):  # session-owned: bound once
                        table[k] = _address(ref)
                for g in self.groups:
                    tail = g.members[-1]
                    steps[tail] = self._compiled_step(g, lib.fns, table)
                    timed[tail] = ("serve:" + "+".join(g.ops), steps[tail])
            for driver in self._drivers or ():
                steps[driver.first], profiled = driver.steps(lib)
                timed[driver.first] = (None, profiled)
        timed = [t for t in timed if t is not None]
        return ([s for s in steps if s is not None], ([n for n, _ in timed], [s for _, s in timed]),
                [r for r in rows if r is not None], reason)

    def _compiled_step(self, g: _Group, fns, table):
        """The replayed step of one group of the thread-worker plan."""
        entries = self._entries
        dtype = np.dtype(g.dtype)
        tensors = [(k, entries[k]) for k in sorted(g.rows)
                   if not isinstance(entries[k], (np.ndarray, int))]
        slots = [(k, entries[k]) for k in sorted(g.rows) if isinstance(entries[k], int)]
        cached = [None] * len(tensors)
        shapes = [self._shapes[k] for k, _ in tensors]
        epilogue = partial(fns[g.map], table, g.n)
        out_slot, out = g.publish
        matmul = np.matmul
        gw = gx = gemm = None
        if g.matmul is not None:
            gw, gx, gemm = g.matmul

        def rebind(i: int, data) -> None:
            if (data.dtype != dtype or data.shape != shapes[i]
                    or not data.flags.c_contiguous or not data.flags.aligned):
                raise Fallback("unplannable")
            table[tensors[i][0]] = _address(data)
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
                table[k] = _address(array)
            if gemm is not None:
                matmul(gx(values), gw(values), out=gemm)
            epilogue()
            values[out_slot] = out

        return step


def _address(array) -> int:
    return array.ctypes.data


def _key(entry):
    """A table entry's identity: a value slot by number, a buffer or a
    tensor by object, a BLAS routine or the clock by what it is."""
    if isinstance(entry, int):
        return ("slot", entry)
    return entry if isinstance(entry, tuple) else id(entry)


def _kind(entry) -> int:
    """Where a driver's table puts an entry: the rows bound per call first
    (value slots), then the by-reference tensors, then the rest, bound once."""
    if isinstance(entry, int):
        return 0
    return 2 if isinstance(entry, (np.ndarray, tuple)) else 1


def _reader(entry):
    """``values -> array`` for a table entry, for numpy's own product."""
    if isinstance(entry, np.ndarray):
        return lambda values: entry
    if isinstance(entry, int):
        return lambda values: values[entry]
    return lambda values: entry.data


class _Driver:
    """One native call per run of groups — and one more after each product
    numpy runs itself (``splits``) — over a table of its own: the value
    slots the run reads first, then its by-reference tensors, then what is
    bound once (buffers, BLAS routines, the clock).  ``runs`` are its
    stages, ``owners[k]`` the group whose time ends at timestamp ``k``."""

    def __init__(self, groups: List[_Group], resolve) -> None:
        self.n = groups[0].n
        self.first = groups[0].members[-1]  # where its step replays
        self.names = ["serve:" + "+".join(g.ops) for g in groups]
        self.publish = [g.publish for g in groups]
        seen: dict = {}

        def register(ref) -> int:
            entry = resolve(ref)
            seen.setdefault(_key(entry), entry)
            return 0

        self._pieces(groups, resolve, register)
        self.entries = sorted(seen.values(), key=_kind)
        number = {_key(entry): k for k, entry in enumerate(self.entries)}
        self.clock = number[_CLOCK]
        self.runs, self.owners, self.products, self.splits = self._pieces(
            groups, resolve, lambda ref: number[_key(resolve(ref))])
        #: ``(row, tensor, dtype, shape)`` of each by-reference tensor, as rendered.
        self.tensors = [(k, entry, entry.data.dtype, entry.data.shape)
                        for k, entry in enumerate(self.entries) if _kind(entry) == 1]

    @staticmethod
    def _pieces(groups, resolve, row):
        """``(runs, owners, product rows, splits)``; ``row(ref)`` numbers
        what a piece reads."""
        runs, owners, products, splits = [], [], set(), []

        def tick(owner) -> None:  # a timestamp closing ``owner``'s interval
            runs[-1].append(("clock", groups[0].dtype, row(_CLOCK), len(owners)))
            owners.append(owner)

        runs.append([])
        tick(None)
        for i, g in enumerate(groups):
            if g.conv is not None:
                x, geometry, cols = g.conv
                runs[-1].append(("gather", g.dtype, row(x), row(cols)) + geometry)
            if g.matmul is not None:
                pieces = _product(g, resolve, row, products)
                if pieces is None:  # numpy's own call, between two runs
                    tick(i)
                    splits.append(_numpy_product(g, resolve))
                    runs.append([])
                    tick(i)
                else:
                    runs[-1].extend(pieces)
            dst, stride, offset = g.write
            inputs = tuple(
                (row(g.matmul[2] if isinstance(ref, str) else ref), strides)
                for ref, strides in g.operands
            )
            runs[-1].append(g.stage(g.dtype, row(dst), stride, offset, inputs))
            tick(i)
        runs = [("passes", groups[0].dtype, tuple(run)) for run in runs]
        return runs, owners, products, splits

    def _bound(self, entry):
        """What a row bound once holds: a buffer's address (an empty one's
        a null pointer: no loop reads it), the BLAS routine of this batch or
        none, and no clock."""
        if isinstance(entry, np.ndarray):
            return _address(entry) if entry.size else None
        if entry[0] == "blas":
            _, routine, dtype, batches = entry
            return jit.blas_gemm(dtype, routine) if min(self.n, 2) in batches else None
        return None

    def steps(self, lib):
        """``(step, profiled)``: the driver's replayed step over the loaded
        stages ``lib``, and the same step timing each group."""
        entries, n, publish, products = self.entries, self.n, self.publish, self.products
        table = lib.table(len(entries), workspace.FLOOR)
        call, rows = table.call, table.rows
        slots, tensors = [entry for entry in entries if _kind(entry) == 0], self.tensors
        once = len(slots) + len(tensors)
        call(None, 0, [self._bound(entry) for entry in entries[once:]], once)
        cached = [None] * len(tensors)
        arrays = [None] * len(slots)
        segments = [(lib.fns[k], product) for k, product in zip(self.stages, self.splits + [None])]

        def rebind(i: int, data) -> None:
            k, _, dtype, shape = tensors[i]
            flags = data.flags
            if data.dtype != dtype or data.shape != shape or not (
                    flags.c_contiguous and flags.aligned):
                raise Fallback("unplannable")
            call(None, 0, (_address(data) if data.size else None,), k)
            cached[i] = data

        def bind_slots(values) -> list:
            """Bind what :meth:`StageLibrary.call` does not take: an empty array as
            a null pointer, a read-only one by address, one of another
            layout as an aligned C-ordered copy — unless a product reads it,
            which numpy would stride as it is (``layout``: this call runs
            the numpy steps).  Returns the copies, to keep until the call."""
            copies = []
            for k, slot in enumerate(slots):
                array = values[slot]
                if call(None, 0, (array,), k):
                    continue
                flags = array.flags
                if array.size and not (flags.c_contiguous and flags.aligned):
                    if k in products and not flags.c_contiguous:
                        raise Fallback("layout")
                    array = np.require(array, requirements="CA")
                    copies.append(array)
                call(None, 0, (_address(array) if array.size else None,), k)
            return copies

        def step(values):
            i = 0
            for _, tensor, _, _ in tensors:
                data = tensor.data
                if data is not cached[i]:
                    rebind(i, data)
                i += 1
            i = 0
            for slot in slots:
                arrays[i] = values[slot]
                i += 1
            copies = call(None, 0, arrays) or bind_slots(values)  # noqa: F841 (kept alive)
            for run, product in segments:
                run(rows, n)
                if product is not None:
                    product(values)
            for slot, out in publish:
                values[slot] = out

        clocks = np.zeros(len(self.owners))
        owners, names, clock, perf = self.owners, self.names, self.clock, time.perf_counter

        def profiled(values):
            """:func:`step`, with each group's time recorded as its
            ``serve:<ops>`` row from the timestamps the run takes in C;
            what Python spends around them, recording included, goes to the
            first group's."""
            start = perf()
            call(None, 0, (clocks,), clock)
            try:
                step(values)
            finally:
                call(None, 0, (None,), clock)
            profiler = _profile.active_profiler()
            if profiler is None:
                return
            stamps = clocks.tolist()
            times = [0.0] * len(names)
            for k in range(1, len(owners)):
                times[owners[k]] += stamps[k] - stamps[k - 1]
            for name, seconds in zip(names[1:], times[1:]):
                profiler.record(name, seconds)
            profiler.record(names[0], times[0] - (stamps[-1] - stamps[0]) + perf() - start)

        return step, profiled


def _product(g: _Group, resolve, row, products: set) -> Optional[list]:
    """The pieces making group ``g``'s product as numpy's ``matmul`` does —
    one ``when`` per BLAS routine, the call of one sample's batch and of
    more (one when they agree), each behind the row of its routine — or
    ``None`` where numpy calls neither ``gemm`` nor ``gemv`` at some batch.
    Adds the rows of the value slots a product reads to ``products``."""
    a, b, c, patch_rows, pixels = g.matmul
    size = np.dtype(g.dtype).itemsize
    if patch_rows is None:  # a linear: x (n, d) @ w (d, k)
        d, k = b.data.shape
        specs = (((("n", 1), d), (d * size, size)), ((d, k), (k * size, size)),
                 ((("n", 1), k), (k * size, size)))
    else:  # a conv: w.reshape(O, f) @ cols (f, n * pixels)
        f, wide, stride = b.shape[0], ("n", pixels), ("n", pixels * size)
        specs = (((patch_rows, f), (f * size, size)), ((f, wide), (stride, size)),
                 ((patch_rows, wide), (stride, size)))
    calls = [matmul_call(*specs, size, n=batch) for batch in (1, 2)]
    if any(call[0] == "none" or jit.blas_gemm(g.dtype, call[0]) is None for call in calls):
        return None
    operands = [row(ref) for ref in (a, b, c)]
    products.update(k for ref, k in zip((a, b), operands) if isinstance(resolve(ref), int))
    classes = [(calls[0], (1, 2))] if calls[0] == calls[1] else [(calls[0], (1,)), (calls[1], (2,))]
    pieces = []
    for call, batches in classes:
        fn = row(("blas", call[0], g.dtype, batches))
        pieces.append(("when", g.dtype, fn, (blas_piece(call, g.dtype, fn, *operands),)))
    return pieces


def _numpy_product(g: _Group, resolve):
    """``values -> None``: group ``g``'s product as its numpy step makes it."""
    a, b, c, patch_rows, _ = g.matmul
    read_a, read_b, matmul = _reader(resolve(a)), _reader(resolve(b)), np.matmul
    if patch_rows is None:
        return lambda values: matmul(read_a(values), read_b(values), out=c)
    return lambda values: matmul(read_a(values).reshape(patch_rows, -1), read_b(values), out=c)
