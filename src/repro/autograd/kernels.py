"""The compiled arm of the tape's image-sized kernels.

A train step is mostly numpy passes over activations: strided footprint
loops with inner runs of 8-16 elements, batch-norm and relu chains that
stream every activation a dozen times.  An op whose stage description
(:class:`repro.autograd.ir.Stage`) keys a train geometry therefore asks
here through :meth:`repro.autograd.ir.Op.arm`, **only where a backward
thunk is being built or run**, for C loop stages of its shape: a
``("stages", ...)`` signature, rendered by :mod:`repro.codegen.cstage`,
built by :mod:`repro.codegen.jit`'s compile thread.  :func:`arm` never
waits for a compiler; until a library is adopted, when codegen is off, and
for whatever the stages do not cover, it returns ``None`` and the caller
runs its numpy body, which stays the reference.  A process that never
records a tape (serving, ``no_grad`` inference) never imports this module.

What is compiled is kept to what a replayed step (:mod:`repro.autograd.replay`)
runs: each conv2d → batch_norm → relu → max_pool2d chain as a
:class:`Block` of three stages built from the members' program pieces —
the ones eval serving plans from (:mod:`repro.serve.stages`), so nothing
here names an op — around its conv's :class:`Conv2d` gather and scatter;
each other relu (:class:`Relu`); and the optimizer's whole-model update
(:class:`Update`).  An eager step runs the conv gather and scatter and the
relu stages too; its batch-norm and max-pool run their numpy bodies.  Every
GEMM is the numpy call it was.  Each stage applies numpy's operations in
numpy's order to every element, and sums per channel in numpy's order —
every ``(sample, channel)`` block's pairwise sum added onto ``+0.0`` in
sample order (:mod:`repro.codegen.cstage`), which holds for more than one
channel: a one-channel block stays on its members (``geometry``).  So both
arms produce **the same bytes**, and a run may switch between them at any
step.

**The NaN rule.**  *Which* elements are NaN is identical on both arms; the
sign and payload of a NaN produced from two NaN operands is unspecified
(x86 keeps the first operand's and C may commute ``a + b``).

An operand the stages cannot take — wrong dtype, read-only, strided,
misaligned — sends that call to the numpy body; like every reason an op
geometry stays on numpy (``dtype``, ``geometry``, ``layout``, ``disabled``,
``flags`` for an optimizer whose flags changed since its stage was chosen,
or a failed build counted where it failed) it is counted once per signature
under ``repro_codegen_fallback_total{reason}``.
"""

from __future__ import annotations

import copy
import math
import time
from typing import Optional

import numpy as np

from repro.autograd import functional as F, ir, tensor
from repro.autograd.functional import _out_hw
from repro.autograd.tensor import _ws_matmul
from repro.backend import workspace
from repro.codegen import jit
from repro.codegen.cstage import _CTYPE
from repro.obs import profile as _profile

__all__ = ["BLOCK", "UPDATE", "arm"]

#: The most bytes one stage may keep on the C stack (a padded plane).
_STACK = 256 * 1024

#: ``(op name, dtype, *keyed geometry)`` -> :class:`Arm` | ``None`` (numpy, for good)
#: | ``(Pending, signature)``, the pending ``None`` between a geometry's first
#: sight and its second.
_ARMS: dict = {}
_ASK = object()
#: What :func:`arm` answers a capture (``ask=None``) while a geometry is unsettled.
PENDING = object()
_COUNTED: set = set()
_perf = time.perf_counter


def _numpy(key: tuple, reason: str) -> None:
    """The numpy body runs; ``reason`` is counted once per signature."""
    if (key, reason) not in _COUNTED:
        _COUNTED.add((key, reason))
        jit.count_fallback(reason)


class Arm:
    """The loaded stages of one op geometry (``key``: op, dtype, geometry).

    A subclass per op a step runs compiled (``op``, its entry: conv2d's
    gather and scatter, relu, a conv :class:`Block`, the optimizer's
    :class:`Update`): ``stages`` describes them to ``cstage`` (every extent
    but the batch a literal; a ``str`` instead names why numpy keeps this
    geometry) and the methods are the compiled bodies.  Each mirrors a numpy
    body of ``autograd.functional`` / ``autograd.tensor`` buffer for buffer
    — results come from ``workspace.empty`` — and returns ``None`` when that
    body has to run instead.
    """

    __slots__ = ("key", "library")
    rows: tuple = ()  # the stages' profiler rows
    #: How many leading geometry items ``stages`` reads, and so the arm's key
    #: (``None``: all of them).
    keyed: Optional[int] = None

    def __init__(self, key: tuple, library) -> None:
        self.key = key
        self.library = library

    def run(self, k: int, n: int, *arrays) -> bool:
        """Stage ``k`` over ``arrays`` (the first one of the arm's dtype);
        ``False``, counted as ``layout``, if one cannot be bound."""
        profiler = _profile._ACTIVE
        if profiler is None:
            ran = self.library.run(k, n, *arrays)
        else:
            start = _perf()
            ran = self.library.run(k, n, *arrays)
            profiler.record_inner(self.rows[k], _perf() - start)
        if not ran:
            _numpy(self.key, "layout")
        return ran

    def pinned(self, keep_below: int) -> "Arm":
        """This arm over stage tables of one caller's own, which keep what
        they bound (:class:`repro.codegen.jit.PinnedStages`): for a replay
        that hands every call the same buffers."""
        arm = copy.copy(self)
        arm.library = jit.PinnedStages(self.library.fns, keep_below)
        return arm

    def takes(self, *arrays) -> bool:
        """Whether every array has the arm's dtype (else ``dtype`` is counted)."""
        dtype = self.key[1]
        for array in arrays:
            if array.dtype != dtype:
                _numpy(self.key, "dtype")
                return False
        return True


def arm(op: ir.Op, dtype, n: int, *geometry, ask: Optional[bool] = True) -> Optional[Arm]:
    """The compiled arm of table op ``op`` (:meth:`repro.autograd.ir.Op.arm`
    asks with its description's geometry) at this dtype and geometry over
    ``n`` leading items, or ``None``: run the numpy body.  Never waits.

    A geometry's first sight adopts what the kernel cache already holds and
    builds nothing; the compile thread is asked at the second — a shape that
    is recorded once (a gradient check, a test) costs no compiler run, and a
    training run's first step only looks.  ``ask=None`` (a replay being
    captured) neither counts as a sight nor asks, and answers
    :data:`PENDING` instead of ``None`` while the answer may still change.
    An op without compiled bodies of its own (batch-norm and max-pool run
    compiled only inside a :class:`Block`) gets ``None``, counted nowhere."""
    body = _BODY.get(op)
    if not n or body is None:
        return None
    geometry = geometry[:body.keyed]
    key = (op.name, dtype) + geometry
    # What an adopted arm costs per call is the budget of a small batch: the
    # scoped override is one attribute read, ``REPRO_CODEGEN`` (a microsecond
    # of ``os.environ``) is read while asking — as sessions and region
    # kernels read it when they compile, not when they run.
    if jit._OVERRIDE is False:
        return _numpy(key, "disabled")
    found = _ARMS.get(key, _ASK)
    if found is not _ASK and found.__class__ is not tuple:
        return found  # adopted, or numpy for good
    if ask is None:
        return PENDING if jit.codegen_enabled() else _numpy(key, "disabled")
    if not jit.codegen_enabled():
        return _numpy(key, "disabled")
    if found is _ASK:
        native = dtype.name in _CTYPE and dtype.isnative  # what ``cstage`` renders
        stages = body.stages(dtype.name, *geometry) if native else "dtype"
        if isinstance(stages, str):
            _ARMS[key] = None
            return _numpy(key, stages)
        signature = ("stages", stages)
        if not jit._has_disk_candidate(signature):
            _ARMS[key] = (None, signature)
            return None
    else:
        pending, signature = found
        if pending is not None and not pending.event.is_set():
            return None
    resolved = jit.resolve(signature, wait=False)
    if isinstance(resolved, jit.Pending):
        _ARMS[key] = (resolved, signature)
        return None
    if isinstance(resolved, str):  # counted by the compile thread
        _ARMS[key] = None
        return None
    found = _ARMS[key] = body(key, resolved[0])
    return found


class Conv2d(Arm):
    """A conv geometry's gather (the patch matrix its forward GEMM reads) and
    scatter (the input gradient from the backward's ``dcols``) — on an
    eager step around numpy's GEMMs, bias add and bias gradient, in a
    replayed one as a :class:`Block`'s head.  Both read the input window
    alone, so convs that differ only in width or bias share one arm."""

    __slots__ = ()
    op = F._CONV2D
    rows = ("conv2d.gather[c]", "conv2d.scatter[c]")
    keyed = 9  # (c, h, w, kh, kw, sh, sw, ph, pw)

    @staticmethod
    def stages(dtype, *window):
        _, h, w, _, _, _, _, ph, pw = window
        if (ph or pw) and (h + 2 * ph) * (w + 2 * pw) * 8 > _STACK:
            return "geometry"
        return ("gather", dtype, 0, 1) + window, ("scatter", dtype, 0, 1) + window

    def gather(self, xd, shape: tuple):
        """``functional._patch_matrix`` of the padded input: the ``shape``
        ``(C*kh*kw, N*OH*OW)`` patch matrix."""
        cols = workspace.empty(shape, xd.dtype)
        return cols if self.run(0, len(xd), xd, cols) else None

    def scatter(self, dcols, shape: tuple):
        """``_patch_matrix_adjoint`` + ``_unpad_hw``: the input gradient."""
        if not self.takes(dcols):
            return None
        dx = workspace.empty(shape, dcols.dtype)
        return dx if self.run(1, shape[0], dcols, dx) else None


def _channels(dtype, c: int, size: int):
    """``stage(inputs, ops, dst, sums=(), stride=c * size)``: a ``map``
    stage over ``(n, c, size)`` — a batch-norm's channels."""

    def stage(inputs, ops, dst, sums=(), stride=c * size):
        return ("map", dtype, (c, size), inputs, ops, None, dst, stride, 0) + (
            (sums,) if sums else ())

    return stage


def _variance(stage, strides, x: int, mean: int, var: int) -> tuple:
    """``functional._var``'s second sum: the mean of ``(x - mean)^2`` per
    channel, from table rows ``x`` (of these ``strides``) and ``mean`` into
    ``var``."""
    inputs = ((x, strides), (mean, (0, 1, 0)))
    return stage(inputs, (("sub", (0, 1)), ("mul", (2, 2))), (), ((var, 3, True),))


#: Batch-norm's three-term adjoint over ``dxhat``, ``xhat``, ``mean(dxhat)``,
#: ``mean(dxhat * xhat)``, ``inv_std``:
#: ``((dxhat - mean(dxhat)) - xhat * mean(dxhat * xhat)) * inv_std`` (value 8).
_COMBINE = (("mul", (1, 3)), ("sub", (0, 2)), ("sub", (6, 5)), ("mul", (7, 4)))


class Relu(Arm):
    """Flat: one library per dtype, ``n`` the element count."""

    __slots__ = ()
    op = tensor._RELU
    rows = ("relu.forward[c]", "relu.backward[c]")

    @staticmethod
    def stages(dtype):
        flat, mask = (1,), "unsigned char"  # numpy's bool
        forward = ir.Program((1,), literal=True)
        x = forward.value = forward.input(0, flat)
        tensor._relu_program(forward, ())
        forward.apply("pos", x)  # and the mask
        return (
            forward.stage(dtype, ((1, 1, None), (2, 2, mask)), 1),
            ("map", dtype, (), ((0, flat), (1, flat, mask)), (("mul", (0, 1)),), None, 2, 1, 0),
        )

    def forward(self, data):
        """``(np.maximum(data, 0), data > 0)`` in one pass."""
        out, mask = workspace.empty(data.shape, data.dtype), workspace.empty(data.shape, bool)
        return (out, mask) if self.run(0, data.size, data, out, mask) else None

    def backward(self, g, mask):
        if g.shape != mask.shape or not self.takes(g):
            return None
        dx = workspace.empty(g.shape, g.dtype)
        return dx if self.run(1, g.size, g, mask, dx) else None


#: A conv block of a replayed step (:class:`Block`): not a table op, asked
#: for like one.
BLOCK = ir.Op("block", None)


class Block(Arm):
    """One conv block of a replayed train step: a conv2d, the train-mode
    batch_norm reading its output, the relu reading that and the max_pool2d
    reading that (``members``' ops; each the only reader of the one before:
    :meth:`repro.autograd.ir.Readers.chain`), as three stages of its own —
    the members' pieces, arranged so an activation is streamed as few times
    as the sums allow — around the conv's ``gather`` and ``scatter``, which
    its adopted :class:`Conv2d` arm runs (``head``, set by the replay):

    0. after the gather and the GEMM, the conv epilogue writing the conv's
       output with batch-norm's mean summed from it, then the variance pass;
    1. after batch-norm's per-channel tail (``inv_std``; the running
       statistics move once this stage ran), one ``map`` pass writing
       ``xhat`` and the relu's output, and pooling each plane it wrote —
       batch-norm's own output is never written;
    2. backward: the max-pool's route into a stack plane, the relu's mask
       (its output ``> 0``), batch-norm's four sums and ``dxhat``, then its
       three-term adjoint written straight into the ``(O, N*OH*OW)`` layout
       of the conv's GEMM with the conv bias's gradient; the two GEMMs and
       the scatter follow.

    Every element sees the members' operations in their numpy order, so the
    block's bytes are those of the members' steps.  A geometry whose windows
    overlap or pad, a one-channel batch-norm and planes past the stack's
    share stay on the members' steps (``geometry``)."""

    __slots__ = ("head",)
    op = BLOCK
    members = (F._CONV2D, F._BATCH_NORM, tensor._RELU, F._MAX_POOL2D)

    @classmethod
    def ask(cls, nodes) -> Optional[tuple]:
        """What :func:`arm` is asked for the block over the recorded chain
        ``nodes`` — ``(BLOCK, dtype, n, *geometry)`` — or ``None`` when the
        chain is not one."""
        if tuple(ir.OPS[node.op] for node in nodes) != cls.members:
            return None
        conv, norm, _, pool = nodes
        dtype = conv.out.data.dtype
        if not (norm.attrs["training"] and dtype.name in _CTYPE and dtype.isnative):
            return None
        if any(node.backward is None or any(t.data.dtype != dtype for t in node.inputs)
               for node in nodes):
            return None
        (n, *head), (_, _, _, *affine), (_, _, _, _, *window) = (
            ir.OPS[node.op].stage.geometry([t.data for t in node.inputs], node.attrs)
            for node in (conv, norm, pool))
        return (BLOCK, dtype, n, *head, *affine, *window)

    @staticmethod
    def stages(dtype, *geometry):
        c, h, w, kh, kw, sh, sw, ph, pw, o, bias, gamma, beta = geometry[:13]
        window = geometry[13:]
        conv = Conv2d.stages(dtype, *geometry[:Conv2d.keyed])  # what the head refuses, the block does
        if isinstance(conv, str):
            return conv
        oh, ow = _out_hw(h, w, kh, kw, sh, sw, ph, pw)
        size = oh * ow
        pkh, pkw, psh, psw, pph, ppw = window
        # The route's windows neither overlap nor pad; the backward keeps a
        # plane and three rows of it on the C stack.
        if o == 1 or pkh > psh or pkw > psw or pph or ppw or 4 * size * 8 > _STACK:
            return "geometry"
        stage = _channels(dtype, o, size)
        x, channel = (o * size, size, 1), (0, 1, 0)
        # 0: rows gemm, [bias,] the conv's output, mean, var.
        epilogue = ir.Program((1, o, oh, ow), literal=True)
        F._conv2d_program(epilogue, geometry, *range(1 + bias))
        k, value = 1 + bias, epilogue.number(epilogue.value)
        stats = ("passes", dtype, (
            epilogue.stage(dtype, ((k, value, None),), o * size, sums=((k + 1, value, True),)),
            _variance(stage, x, k, k + 1, k + 2),
        ))
        # 1: rows the conv's output, mean, inv_std, [gamma,] [beta,] xhat,
        # the relu's output, the pooled output.
        program = ir.Program((1, o, oh, ow), literal=True)
        program.value = program.input(0, (o * size, size, ow, 1))
        xhat = F._batch_norm_program(program, (o, size, gamma, beta), *range(1, 3 + gamma + beta))
        tensor._relu_program(program, ())
        F._max_pool2d_program(program, (o, oh, ow) + window)
        k, relu = len(program.operands), program.number(program.value)
        dst = ((k, program.number(xhat), None), (k + 1, relu, None), (k + 2, None, None))
        normalize = program.stage(dtype, dst, o * math.prod(_out_hw(oh, ow, *window)))
        # 2: rows g, the pooled output, the relu's output, xhat, inv_std,
        # [gamma,] dxhat, sum(d), sum(d * xhat), mean(dxhat),
        # mean(dxhat * xhat), the GEMM-layout gradient[, the bias gradient];
        # d is the relu's input gradient, dxhat d * gamma or d itself.
        route = ("route", 2, 1, 0, oh, ow, pkh, pkw, psh, psw)
        inputs = ((route, (0, 0, 1)), (2, x), (3, x)) + ((5, channel),) * gamma
        n_in, k = len(inputs), 5 + gamma
        d = dxhat = n_in + 1
        ops = [("pos", (1,)), ("mul", (0, n_in))]
        if gamma:
            ops.append(("mul", (d, 3)))
            dxhat += 1
        ops.append(("mul", (d, 2)))
        ops += [("mul", (dxhat, 2))] * gamma
        dgamma, dxx = n_in + len(ops) - 1 - gamma, n_in + len(ops) - 1
        sums = ((k + 1, d, False), (k + 2, dgamma, False), (k + 3, dxhat, True), (k + 4, dxx, True))
        adjoint = ((k, x), (3, x), (k + 3, channel), (k + 4, channel), (4, channel))
        backward = ("passes", dtype, (
            stage(inputs, tuple(ops), ((k, dxhat, None),), sums),
            stage(adjoint, _COMBINE, ((k + 5, 8, None),), ((k + 6, 8, False),) * bias,
                  (size, ("n", size))),
        ))
        return stats, normalize, backward

    def forward(self, xs, attrs, ports):
        """The pooled output and the context :meth:`backward` reads, with
        the running statistics moved, over the inputs no member produces
        (the conv's, then batch-norm's affine terms) and the members' own
        parameters and ports; ``None`` — nothing has changed — when the
        members' steps have to run instead."""
        _, dtype, c, h, w, kh, kw, sh, sw, ph, pw, o, bias, gamma, beta = self.key[:15]
        window = self.key[15:]
        norm = attrs[1]
        x, wd = xs[:2]
        if not self.takes(x):
            return None
        flags = x.flags
        if not (flags.c_contiguous and flags.aligned and flags.writeable):
            x = np.require(x, requirements="CAW")  # a copy: the gather reads the same values
        n = len(x)
        oh, ow = _out_hw(h, w, kh, kw, sh, sw, ph, pw)
        cols = self.head.gather(x, (c * kh * kw, n * oh * ow))
        if cols is None:
            return None
        gemm = _ws_matmul(wd.reshape(o, -1), cols)
        out = workspace.empty((n, o, oh, ow), dtype)
        mean, var = workspace.empty((o,), dtype), workspace.empty((o,), dtype)
        if not self.run(0, n, gemm, *xs[2:2 + bias], out, mean, var):
            return None
        inv_std = F._bn_inv_std(var, norm["eps"])
        affine = xs[2 + bias:]
        xhat, relu = workspace.empty(out.shape, dtype), workspace.empty(out.shape, dtype)
        pooled = workspace.empty((n, o) + _out_hw(oh, ow, *window), dtype)
        if not self.run(1, n, out, mean, inv_std, *affine, xhat, relu, pooled):
            return None
        F._bn_running(*norm["running"], mean, var, n * oh * ow, norm["momentum"])
        cols = cols if ports[0][1].requires_grad else None  # only the weight gradient reads it
        return pooled, (x, wd, cols, xhat, relu, pooled, inv_std, affine[:gamma])

    def backward(self, g, ports, ctx, attrs) -> None:
        """Accumulate the block's adjoints of the pooled output's gradient
        ``g`` into the conv's and batch-norm's ports, in the members' order."""
        x, wd, cols, xhat, relu, pooled, inv_std, gamma = ctx
        o, bias = self.key[11], self.key[12]
        if g.shape != pooled.shape or not self.takes(g):
            raise RuntimeError("a block's output gradient is not of its output's shape and dtype")
        flags = g.flags
        if not (flags.c_contiguous and flags.aligned and flags.writeable):
            g = np.require(g, requirements="CAW")
        n, shape, dtype = len(xhat), xhat.shape, xhat.dtype
        dxhat = workspace.empty(shape, dtype)
        sums = [workspace.empty((o,), dtype) for _ in range(4)]
        g_t = workspace.empty((o, xhat.size // o), dtype)
        db = workspace.empty((o,), dtype) if bias else None
        if not self.run(2, n, g, pooled, relu, xhat, inv_std, *gamma, dxhat, *sums, g_t,
                        *(db,) * bias):
            # Every operand but g was bound by the forward's stages.
            raise RuntimeError("a block's backward stage could not bind its operands")
        F._bn_affine_grads(ports[1], attrs[1], sums[0], sums[1])
        F._conv2d_adjoints(self.head, g_t, db, ports[0], (x, wd, cols), attrs[0])


Block.rows = tuple(f"{'+'.join(op.name for op in Block.members)}.{stage}[c]"
                   for stage in ("stats", "normalize", "backward"))


#: The optimizer's update: not a table op (:meth:`repro.nn.optim.Optimizer.flat_step`
#: runs it), asked for like one.
UPDATE = ir.Op("update", None)


class Update(Arm):
    """The optimizer's update over :meth:`repro.nn.optim.Optimizer.flatten`'s
    arrays: one library per rule, dtype and the flags a numpy rule branches
    on (``weight_decay``, ``momentum`` nonzero, ``nesterov``); ``n`` the
    element count."""

    __slots__ = ()
    op = UPDATE
    rows = ("optim.update[c]",)

    @staticmethod
    def stages(dtype, rule, decay, momentum, nesterov):
        return (("update", dtype, rule, decay, momentum, nesterov),)

    def update(self, flags: tuple, values: tuple, *arrays) -> bool:
        """``sgd_update`` / ``adam_update`` over ``arrays`` (parameters,
        gradients, state), the rule's scalars ``values`` rounded to the dtype
        as numpy rounds a Python float operand.  ``False``, counted once as
        ``flags``, when the optimizer's ``flags`` are no longer the stage's."""
        if flags != self.key[2:]:
            _numpy(self.key, "flags")
            return False
        rule, _, momentum, _ = flags
        n = arrays[0].size
        if len(arrays) != (4 if rule == "adam" else 2 + momentum) or any(a.size != n for a in arrays):
            return False  # not what the stage reads: the numpy rule decides
        if not self.takes(*arrays):
            return False
        return self.run(0, n, *arrays, np.array(values, self.key[1]))


#: Each op's compiled bodies.
_BODY = {body.op: body for body in Arm.__subclasses__()}
