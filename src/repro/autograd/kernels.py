"""The compiled arm of the tape's image-sized kernels.

A train step is mostly numpy passes over activations: strided footprint
loops with inner runs of 8-16 elements, batch-norm and relu chains that
stream every activation a dozen times.  An op whose stage description
(:class:`repro.autograd.ir.Stage`) keys a train geometry — ``conv2d`` /
``max_pool2d`` / ``batch_norm`` / ``relu`` — therefore asks here through
:meth:`repro.autograd.ir.Op.arm`, **only where a backward thunk is being
built or run**, for C loop stages of its shape: a ``("stages", ...)``
signature, rendered by :mod:`repro.codegen.cstage`, built by
:mod:`repro.codegen.jit`'s compile thread.  The forward stages are the
description's program pieces — the ones eval serving plans from
(:mod:`repro.serve.stages`) — and nothing here names an op.  :func:`arm`
never waits for a compiler; until a library is adopted, when codegen is
off, and for whatever the stages do not cover, it returns ``None`` and the
caller runs its numpy body, which stays the reference.  A process that
never records a tape (serving, ``no_grad`` inference) never imports this
module.

What is compiled, per op, is in its :class:`Arm`'s ``stages`` — and, for a
replayed step (:mod:`repro.autograd.replay`), each conv block's three
stages from the same pieces (:class:`Block`) and the optimizer's whole-model update
(:class:`Update`).  Every GEMM is the numpy call it was.  Each stage
applies numpy's operations in numpy's order to every element, and sums per
channel in numpy's order — every ``(sample, channel)`` block's pairwise sum
added onto ``+0.0`` in sample order (:mod:`repro.codegen.cstage`), which
holds for more than one channel: a one-channel batch-norm stays numpy
(``geometry``).  So both arms produce **the same bytes**, and a run may
switch between them at any step.

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
from typing import Optional, Tuple

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

#: ``(op name, dtype, *geometry)`` -> :class:`Arm` | ``None`` (numpy, for good)
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

    A subclass per op (``op``, its entry): ``stages`` describes them to
    ``cstage`` (every extent but the batch a literal; a ``str`` instead names
    why numpy keeps this geometry) and the methods are the compiled bodies.
    Each mirrors a numpy body of ``autograd.functional`` /
    ``autograd.tensor`` buffer for buffer — results come from
    ``workspace.empty`` — and returns ``None`` when that body has to run
    instead.
    """

    __slots__ = ("key", "library")
    rows: tuple = ()  # the stages' profiler rows

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


def arm(op: ir.Op, dtype, n: int, *geometry, ask: bool = True) -> Optional[Arm]:
    """The compiled arm of table op ``op`` (:meth:`repro.autograd.ir.Op.arm`
    asks with its description's geometry) at this dtype and geometry over
    ``n`` leading items, or ``None``: run the numpy body.  Never waits.

    A geometry's first sight adopts what the kernel cache already holds and
    builds nothing; the compile thread is asked at the second — a shape that
    is recorded once (a gradient check, a test) costs no compiler run, and a
    training run's first step only looks.  ``ask=False`` (a backward whose
    forward did the asking) neither counts as a sight nor asks; ``ask=None``
    (a replay being captured) does neither either and answers
    :data:`PENDING` instead of ``None`` while the answer may still change."""
    if not n:
        return None
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
    if not ask:
        return None
    if not jit.codegen_enabled():
        return _numpy(key, "disabled")
    if found is _ASK:
        native = dtype.name in _CTYPE and dtype.isnative  # what ``cstage`` renders
        stages = _BODY[op].stages(dtype.name, *geometry) if native else "dtype"
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
    found = _ARMS[key] = _BODY[op](key, resolved[0])
    return found


class Conv2d(Arm):
    __slots__ = ()
    op = F._CONV2D
    rows = ("conv2d.gather[c]", "conv2d.epilogue[c]", "conv2d.transpose[c]", "conv2d.scatter[c]")

    @staticmethod
    def stages(dtype, *geometry):
        c, h, w, kh, kw, sh, sw, ph, pw, out_c, bias = geometry
        if (ph or pw) and (h + 2 * ph) * (w + 2 * pw) * 8 > _STACK:
            return "geometry"
        oh, ow = _out_hw(h, w, kh, kw, sh, sw, ph, pw)
        epilogue = ir.Program((1, out_c, oh, ow), literal=True)
        F._conv2d_program(epilogue, geometry, *range(1 + bias))  # the GEMM's row 0, the bias 1
        return (
            ("gather", dtype, 0, 1) + geometry[:9],
            epilogue.stage(dtype, 1 + bias, out_c * oh * ow),
            ("transpose", dtype, 0, 1, out_c, oh * ow) + ((2,) if bias else ()),
            ("scatter", dtype, 0, 1) + geometry[:9],
        )

    def forward(self, xd, wd, bd, oh: int, ow: int):
        """``functional._conv2d_forward``: ``(out, patch matrix)``."""
        if not (self.takes(wd) if bd is None else self.takes(wd, bd)):
            return None
        n, out_c = len(xd), len(wd)
        cols = workspace.empty((wd.size // out_c, n * oh * ow), xd.dtype)
        if not self.run(0, n, xd, cols):
            return None
        gemm = _ws_matmul(wd.reshape(out_c, -1), cols)
        out = workspace.empty((n, out_c, oh, ow), xd.dtype)
        ran = self.run(1, n, gemm, out) if bd is None else self.run(1, n, gemm, bd, out)
        return (out, cols) if ran else None

    def transpose(self, g, shape: tuple):
        """``(g_t, db)``: the ``(N, O, OH, OW)`` gradient of an output of
        ``shape`` as the ``(O, N*OH*OW)`` matrix the forward GEMM produced
        and, for a conv with a bias, ``g.sum(axis=(0, 2, 3))`` (else ``None``)."""
        if g.shape != shape or not self.takes(g):
            return None
        g_t = workspace.empty((shape[1], g.size // shape[1]), g.dtype)
        if not self.key[-1]:
            return (g_t, None) if self.run(2, shape[0], g, g_t) else None
        db = workspace.empty(shape[1:2], g.dtype)
        return (g_t, db) if self.run(2, shape[0], g, g_t, db) else None

    def scatter(self, dcols, shape: tuple):
        """``_patch_matrix_adjoint`` + ``_unpad_hw``: the input gradient."""
        if not self.takes(dcols):
            return None
        dx = workspace.empty(shape, dcols.dtype)
        return dx if self.run(3, shape[0], dcols, dx) else None


class MaxPool2d(Arm):
    __slots__ = ()
    op = F._MAX_POOL2D
    rows = ("max_pool2d.max[c]", "max_pool2d.route[c]")

    @staticmethod
    def stages(dtype, *geometry):
        c, h, w, kh, kw, sh, sw, ph, pw = geometry
        oh, ow = _out_hw(h, w, kh, kw, sh, sw, ph, pw)
        if oh * ow + bool(ph or pw) * (h + 2 * ph) * (w + 2 * pw) * 8 > _STACK:
            return "geometry"
        window = ir.Program((1, c, h, w), literal=True)
        window.value = window.input(0, (c * h * w, h * w, w, 1))
        F._max_pool2d_program(window, geometry)
        return (
            window.stage(dtype, 1, c * oh * ow),
            ("route", dtype, 0, 1, 2, 3) + geometry,
        )

    def forward(self, xd, oh: int, ow: int):
        out = workspace.empty(xd.shape[:2] + (oh, ow), xd.dtype)
        return out if self.run(0, len(xd), xd, out) else None

    def backward(self, xd, out, g):
        if g.shape != out.shape or not self.takes(xd, g):
            return None
        dx = workspace.empty(xd.shape, xd.dtype)
        return dx if self.run(1, len(xd), xd, out, g, dx) else None


class BatchNorm(Arm):
    __slots__ = ()
    op = F._BATCH_NORM
    rows = ("batch_norm.var[c]", "batch_norm.normalize[c]", "batch_norm.bwd1[c]", "batch_norm.bwd2[c]")

    @staticmethod
    def stages(dtype, c, size, gamma, beta):
        # numpy sums a single channel's N*H*W as one run, and a stage keeps
        # two rows of a plane on the C stack.
        if c == 1 or 2 * size * 8 > _STACK:
            return "geometry"
        x, channel = (c * size, size, 1), (0, 1, 0)
        stage = _channels(dtype, c, size)
        # mean, then the mean of (x - mean)^2: functional._var's two sums.
        var = ("passes", dtype, (stage(((0, x),), (), (), ((1, 0, True),)), _variance(stage, x, 0, 1, 2)))
        # xhat and the output in one pass: eval serving's program over x.
        program = ir.Program((1, c, size), literal=True)
        program.value = program.input(0, x)
        xhat = F._batch_norm_program(program, (c, size, gamma, beta), *range(1, 3 + gamma + beta))
        k, out = len(program.operands), program.value
        normalize = program.stage(dtype, (
            (k, program.number(xhat), None), (k + 1, program.number(out), None)), c * size)
        # sum(g), sum(g * xhat), mean(dxhat), mean(dxhat * xhat); dxhat is
        # g * gamma, written out, or g itself.
        if gamma:
            products = (("mul", (0, 1)), ("mul", (0, 2)), ("mul", (4, 1)))
            sums = ((4, 0, False), (5, 3, False), (6, 4, True), (7, 5, True))
            bwd1 = stage(((0, x), (1, x), (2, channel)), products, ((3, 4, None),), sums)
        else:
            sums = ((2, 0, False), (3, 2, False), (4, 0, True), (5, 2, True))
            bwd1 = stage(((0, x), (1, x)), (("mul", (0, 1)),), (), sums)
        bwd2 = stage(((0, x), (1, x), (2, channel), (3, channel), (4, channel)), _COMBINE, 5)
        return var, normalize, bwd1, bwd2

    def stats(self, xd):
        """``(xd.mean(axis=axes), functional._var(xd, axis=axes))``: numpy's
        per-channel sums, in its order, in one call."""
        mean, var = (workspace.empty(xd.shape[1:2], xd.dtype) for _ in range(2))
        return (mean, var) if self.run(0, len(xd), xd, mean, var) else None

    def normalize(self, xd, mean, inv_std, gamma, beta):
        """``functional._bn_normalize``: ``(xhat, out)``."""
        operands = [xd, mean, inv_std] + [p for p in (gamma, beta) if p is not None]
        if mean.shape != inv_std.shape or mean.shape != (xd.shape[1],):
            return None
        if not self.takes(*operands):
            return None
        xhat, out = workspace.empty(xd.shape, xd.dtype), workspace.empty(xd.shape, xd.dtype)
        return (xhat, out) if self.run(1, len(xd), *operands, xhat, out) else None

    def backward(self, g, xhat, inv_std, gamma) -> Optional[Tuple]:
        """``(dbeta, dgamma, dx)`` of a batch-statistics node:
        ``functional.batch_norm_backward``'s sums, products and three-term
        adjoint in two calls."""
        affine = () if gamma is None else (gamma,)
        if g.shape != xhat.shape or any(p.shape != xhat.shape[1:2] for p in (inv_std, *affine)):
            return None
        if not self.takes(g, xhat, inv_std, *affine):
            return None
        n, shape, dtype = len(g), g.shape, g.dtype
        sums = [workspace.empty(shape[1:2], dtype) for _ in range(4)]
        if gamma is None:
            dxhat = g
            ran = self.run(2, n, g, xhat, *sums)
        else:
            dxhat = workspace.empty(shape, dtype)
            ran = self.run(2, n, g, xhat, gamma, dxhat, *sums)
        if not ran:
            return None
        dx = workspace.empty(shape, dtype)
        ran = self.run(3, n, dxhat, xhat, sums[2], sums[3], inv_std, dx)
        return (sums[0], sums[1], dx) if ran else None


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
    members = (Conv2d, BatchNorm, Relu, MaxPool2d)

    @classmethod
    def ask(cls, nodes) -> Optional[tuple]:
        """What :func:`arm` is asked for the block over the recorded chain
        ``nodes`` — ``(BLOCK, dtype, n, *geometry)`` — or ``None`` when the
        chain is not one."""
        if tuple(ir.OPS[node.op] for node in nodes) != tuple(body.op for body in cls.members):
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
        conv = Conv2d.stages(dtype, *geometry[:11])  # what the head refuses, the block does
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
        cols = workspace.empty((c * kh * kw, n * oh * ow), dtype)
        if not self.head.run(0, n, x, cols):
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


Block.rows = tuple(f"{'+'.join(body.op.name for body in Block.members)}.{stage}[c]"
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
