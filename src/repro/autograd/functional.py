"""Vectorized dense kernels for the autograd engine.

Every kernel here is a single-pass computation: there are **no Python loops
over batch or channel dimensions**.  Convolution and pooling share one
recipe, a loop over the kernel footprint (``kh × kw``, a handful of
iterations) whose every step touches one strided ``(N, C, OH, OW)`` slice of
the padded image — whole output rows at a time.  Convolution copies the
slices into a channel-major patch matrix ``(C·kh·kw, N·OH·OW)`` and
contracts it with ``weight.reshape(O, -1)`` in one GEMM; max- and
average-pooling reduce across the slices directly, never materializing
windows.  :func:`im2col` / :func:`col2im` expose the lowering and its adjoint
in the ``(N, OH, OW, C·kh·kw)`` layout.

Every kernel is plain numpy.  Its image-sized results — the patch matrix,
the GEMM outputs, padded copies, batch-norm's ``xhat`` and output, gradient
buffers — come from the kernel workspace (``workspace.empty``, see
:mod:`repro.backend.workspace`) and are written with ``out=``, in the order
of the arithmetic, so where a buffer comes from changes no byte.

All public ops accept :class:`~repro.autograd.tensor.Tensor` (or anything
coercible to one), record themselves on the tape and return a ``Tensor``.
Each is an entry of the op table (:class:`repro.autograd.ir.Op`): the
forward, the backward over the forward's saved context, the serving bind
and the stage description — the op's part in a compiled group, its
epilogue as program pieces, its train arm's geometry — are written once
here, and the public function validates its arguments and records its call
through the entry.

What a window node retains for backward: ``conv2d`` keeps its patch matrix
(``kh·kw`` times the input, until backward runs; the padded copy is dropped)
and reuses it for the weight gradient, so the input is lowered once per
step; ``max_pool2d`` keeps its output and the slice views of its (padded)
input and routes each window's gradient to the **first** maximal element in
row-major window order (``+0.0`` and ``-0.0`` tie) — a window holding a NaN
outputs NaN and routes to its first NaN.

Under a tape, ``conv2d``'s patch matrix and input-gradient scatter (and
``Tensor.relu``) run compiled loop stages around the same GEMMs once
:mod:`repro.autograd.kernels` has adopted them for their geometry: the same
bytes, so the bodies here stay the reference and what runs until then.  A
replayed train step runs each conv → batch-norm → relu → max-pool chain as
one compiled block (:class:`repro.autograd.kernels.Block`), from the program
pieces and geometries defined here.

Layouts follow the PyTorch convention: images are NCHW, convolution weights
are ``(out_channels, in_channels, kh, kw)``, classification logits are
``(batch, classes)``.
"""

from __future__ import annotations

import math
import weakref
from typing import Optional, Tuple, Union

import numpy as np

from repro.backend import default_rng, workspace
from repro.autograd import ir
from repro.autograd.tensor import (
    Tensor, _apply, _owned_copy, _taping, _ws_matmul, _ws_multiply)

__all__ = [
    "im2col",
    "col2im",
    "linear",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "softmax",
    "log_softmax",
    "softmax_cross_entropy",
    "batch_norm",
    "dropout",
]

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected an int or a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _pad_hw(x: np.ndarray, ph: int, pw: int, value: float = 0.0) -> np.ndarray:
    if ph == 0 and pw == 0:
        return x
    # Fill + one interior copy: np.pad's generic per-axis machinery costs
    # more than the copy itself at the kernels' image sizes.
    n, c, h, w = x.shape
    xp = workspace.empty((n, c, h + 2 * ph, w + 2 * pw), x.dtype)
    xp.fill(value)
    xp[:, :, ph : ph + h, pw : pw + w] = x
    return xp


def _unpad_hw(xp: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """The owned, contiguous interior of a padded gradient buffer."""
    if ph == 0 and pw == 0:
        return xp
    return _owned_copy(xp[:, :, ph : xp.shape[2] - ph, pw : xp.shape[3] - pw])


def _zeros(shape, dtype) -> np.ndarray:
    """``np.zeros(shape, dtype)`` in a buffer from ``workspace.empty``."""
    out = workspace.empty(shape, dtype)
    out.fill(0)
    return out


def _check_pool(op: str, xd, kh: int, kw: int, ph: int, pw: int) -> None:
    if xd.ndim != 4:
        raise ValueError(f"{op} expects NCHW input, got shape {tuple(xd.shape)}")
    # Padding wider than half the kernel creates windows lying entirely in
    # padding (-inf outputs for max, diluted zeros for avg).
    if 2 * ph > kh or 2 * pw > kw:
        raise ValueError(
            f"pool padding ({ph},{pw}) should be at most half the kernel size ({kh},{kw})"
        )


def _out_hw(h: int, w: int, kh: int, kw: int, sh: int, sw: int, ph: int, pw: int) -> Tuple[int, int]:
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}) with stride ({sh},{sw}) and padding ({ph},{pw}) "
            f"does not fit input of spatial size ({h},{w})"
        )
    return oh, ow


# --------------------------------------------------------------------------- #
# The kernel-footprint loop (ndarray-level building blocks)
#
# Every window kernel walks the ``kh * kw`` kernel offsets and, per offset,
# touches one strided ``(N, C, OH, OW)`` slice of the (padded) image: the
# element each window sees at that offset.  The slices' inner runs are whole
# output rows, so each pass is a row-wise copy / ufunc over the image rather
# than a gather of ``kw``-element window rows.  Convolution copies the slices
# into a patch matrix and runs one GEMM; col2im adds them back; pooling
# reduces across them.  The conv / pool binds build the same views once at
# compile time over their preallocated buffers.
# --------------------------------------------------------------------------- #
def _window_slices(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int):
    """The ``kh * kw`` strided ``(N, C, OH, OW)`` views of a padded image,
    one per kernel offset in row-major footprint order."""
    oh, ow = _out_hw(xp.shape[2], xp.shape[3], kh, kw, sh, sw, 0, 0)
    return [
        xp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]
        for i in range(kh)
        for j in range(kw)
    ]


def _patch_slots(cols: np.ndarray, n: int, c: int, oh: int, ow: int):
    """The channel-major patch matrix ``(C*kh*kw, N*OH*OW)`` (row order of
    ``weight.reshape(O, -1)``) regrouped per kernel offset: slot ``k`` is the
    ``(N, C, OH, OW)`` view that the ``k``-th window slice fills."""
    planes = cols.reshape(c, len(cols) // c, n, oh, ow)  # no -1: n may be 0
    return [planes[:, k].transpose(1, 0, 2, 3) for k in range(planes.shape[1])]


def _window_source(x0: np.ndarray, footprint, ph: int, pw: int, fill: float):
    """``x -> footprint slices`` of a bound conv/pool step's (padded) input,
    bound for ``x0`` (see :meth:`repro.autograd.ir.Op.bind`).

    The slices are views, so a shape-stable step builds them once.  Padded:
    the input is copied into a buffer of the step's whose ``fill`` border is
    written once; the views over it are constants.  Unpadded: the views slice
    the input directly, built once for the executor's own buffer ``x0`` (the
    same array on every call) and per call for anything else — a caller's
    batch, which holding on to would pin it between calls (``fixed`` is a
    weak reference, so an example ``x0`` dies with its trace).
    """
    n, c, h, w = x0.shape
    if ph or pw:
        xp = np.full((n, c, h + 2 * ph, w + 2 * pw), fill, x0.dtype)
        interior = xp[:, :, ph : ph + h, pw : pw + w]
        windows = _window_slices(xp, *footprint)

        def source(x):
            np.copyto(interior, x)
            return windows

        return source
    fixed, cache = weakref.ref(x0), [None, None]

    def source(x):
        if x is cache[0]:
            return cache[1]
        windows = _window_slices(x, *footprint)
        if x is fixed():
            cache[0], cache[1] = x, windows
        return windows

    return source


def _patch_matrix(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """Lower a padded NCHW image to the ``(C*kh*kw, N*OH*OW)`` patch matrix."""
    windows = _window_slices(xp, kh, kw, sh, sw)
    n, c, oh, ow = windows[0].shape
    cols = workspace.empty((c * kh * kw, n * oh * ow), xp.dtype)
    for slot, window in zip(_patch_slots(cols, n, c, oh, ow), windows):
        np.copyto(slot, window)
    return cols


def _patch_matrix_adjoint(cols: np.ndarray, xp_shape, kh, kw, sh, sw) -> np.ndarray:
    """Scatter-add a ``(C*kh*kw, N*OH*OW)`` matrix back onto the padded image
    (the exact adjoint of :func:`_patch_matrix`: overlapping patches sum)."""
    dxp = _zeros(xp_shape, cols.dtype)
    dwindows = _window_slices(dxp, kh, kw, sh, sw)
    n, c, oh, ow = dwindows[0].shape
    for slot, dwindow in zip(_patch_slots(cols, n, c, oh, ow), dwindows):
        dwindow += slot
    return dxp


def im2col(
    x: np.ndarray, kernel_size: IntPair, stride: IntPair = 1, padding: IntPair = 0
) -> np.ndarray:
    """Lower NCHW images to a patch matrix of shape ``(N, OH, OW, C*kh*kw)``.

    The resulting matrix turns convolution into a single GEMM against the
    flattened filter bank.  (The kernels themselves keep the transposed,
    channel-major layout of :func:`_patch_matrix`; this is its documented
    public view.)
    """
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    xp = _pad_hw(x, ph, pw)
    oh, ow = _out_hw(xp.shape[2], xp.shape[3], kh, kw, sh, sw, 0, 0)
    cols = _patch_matrix(xp, kh, kw, sh, sw)
    return _owned_copy(cols.reshape(-1, len(xp), oh, ow).transpose(1, 2, 3, 0))


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel_size: IntPair,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> np.ndarray:
    """Scatter-add a ``(N, OH, OW, C*kh*kw)`` patch matrix back to NCHW.

    This is the exact adjoint of :func:`im2col`: overlapping patches sum.
    """
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c, h, w = x_shape
    oh, ow = _out_hw(h, w, kh, kw, sh, sw, ph, pw)
    dxp = _patch_matrix_adjoint(
        cols.reshape(n * oh * ow, c * kh * kw).T, (n, c, h + 2 * ph, w + 2 * pw), kh, kw, sh, sw
    )
    return _unpad_hw(dxp, ph, pw)


# --------------------------------------------------------------------------- #
# Forward cores
# --------------------------------------------------------------------------- #
def _conv2d_forward(
    arm, xd: np.ndarray, wd: np.ndarray, bd: Optional[np.ndarray],
    sh: int, sw: int, ph: int, pw: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """NCHW cross-correlation core; returns ``(out, patch_matrix)``.  The
    patch matrix is the compiled ``arm``'s gather where one binds, else
    numpy's footprint loop."""
    out_c, in_c, kh, kw = wd.shape
    n, _, h, w = xd.shape
    oh, ow = _out_hw(h, w, kh, kw, sh, sw, ph, pw)
    cols = arm and arm.gather(xd, (in_c * kh * kw, n * oh * ow))
    if cols is None:
        cols = _patch_matrix(_pad_hw(xd, ph, pw), kh, kw, sh, sw)
    # One GEMM over channels and kernel footprint: -> (O, N*OH*OW).
    out_t = _ws_matmul(wd.reshape(out_c, -1), cols).reshape(out_c, n, oh, ow)
    out = workspace.empty((n, out_c, oh, ow), out_t.dtype)
    if bd is None:
        np.copyto(out, out_t.transpose(1, 0, 2, 3))
    else:
        np.add(out_t.transpose(1, 0, 2, 3), bd.reshape(1, -1, 1, 1), out=out)
    return out, cols


def _max_over(windows, out: np.ndarray) -> np.ndarray:
    """Running ``np.maximum`` over footprint slices into ``out``: NaN
    propagates, and the running value is the *second* operand so an equal
    later element leaves it untouched."""
    np.copyto(out, windows[0])
    for window in windows[1:]:
        np.maximum(window, out, out=out)
    return out


def _max_pool2d_forward(
    xd: np.ndarray, kh: int, kw: int, sh: int, sw: int, ph: int, pw: int
) -> Tuple[np.ndarray, list]:
    """Max-pool core; returns ``(out, window_slices)``."""
    # Pad with -inf so padded positions never win the max.
    windows = _window_slices(_pad_hw(xd, ph, pw, value=-np.inf), kh, kw, sh, sw)
    return _max_over(windows, workspace.empty(windows[0].shape, windows[0].dtype)), windows


def _avg_pool2d_forward(
    xd: np.ndarray, kh: int, kw: int, sh: int, sw: int, ph: int, pw: int
) -> np.ndarray:
    """Average-pool core: footprint-order running sum over the window area."""
    windows = _window_slices(_pad_hw(xd, ph, pw), kh, kw, sh, sw)
    out = _owned_copy(windows[0])
    for window in windows[1:]:
        out += window
    out /= kh * kw
    return out


# --------------------------------------------------------------------------- #
# Dense layers
# --------------------------------------------------------------------------- #
def linear(x, weight, bias=None) -> Tensor:
    """Fused affine map ``x @ weight + bias`` as a single tape node.

    Weight is ``(in_features, out_features)``.  Compared to composing ``@``
    and ``+`` this records one node instead of two and its backward is three
    dense kernels (two GEMMs and a column sum) with no broadcasting
    bookkeeping.
    """
    x_t = Tensor._wrap(x)
    w_t = Tensor._wrap(weight)
    b_t = Tensor._wrap(bias) if bias is not None else None
    if x_t.data.ndim < 2:
        raise ValueError(
            "linear expects input of shape (..., in_features); got 1-D input "
            "(reshape to (1, in_features) for a single sample)"
        )
    if b_t is not None and b_t.data.shape != (w_t.data.shape[-1],):
        raise ValueError(
            f"linear bias must have shape ({w_t.data.shape[-1]},), got {b_t.data.shape}"
        )

    parents = (x_t, w_t) if b_t is None else (x_t, w_t, b_t)
    out, ctx = _LINEAR.forward(None, [t.data for t in parents], None, parents)
    return Tensor._make(out, parents, "linear", _LINEAR.thunk(None, parents, ctx, None))


def _linear(arm, xs, attrs, ports):
    out = _ws_matmul(xs[0], xs[1])
    if len(xs) == 3:
        out += xs[2]  # the GEMM's output is a fresh buffer of ours
    return out, (xs[0], xs[1])


def _linear_bind(xs, attrs, out):
    """The GEMM ``out=`` the step's buffer, then the bias added in place
    (``_linear``'s ops); a batched input takes the generic step."""
    if xs[0].ndim != 2:
        return None
    buf = np.empty(out.shape, out.dtype)

    def step(x, w, b=None):
        np.matmul(x, w, out=buf)
        return buf if b is None else np.add(buf, b, out=buf)

    step.out = buf
    return step


def _linear_program(p, geometry, gemm, bias=None) -> None:
    """A 2-D linear's epilogue: its GEMM's ``(n, out)`` output plus the bias."""
    p.value = p.input(gemm, (p.against[1], 1))
    if bias is not None:
        p.apply("add", p.value, p.channel(bias))


def linear_backward(arm, g, ports, ctx, attrs) -> None:
    """Accumulate the affine map's three adjoints for incoming grad ``g``."""
    (xd, wd), x_t, w_t = ctx, ports[0], ports[1]
    if x_t.requires_grad:
        x_t._accumulate_fresh(_ws_matmul(g, wd.swapaxes(-1, -2)))
    if w_t.requires_grad:
        dw = _ws_matmul(xd.swapaxes(-1, -2), g)
        if dw.ndim > wd.ndim:  # batched input: sum leading dims
            dw = dw.sum(axis=tuple(range(dw.ndim - wd.ndim)))
        w_t._accumulate_fresh(dw)
    if len(ports) == 3 and ports[2].requires_grad:
        ports[2]._accumulate_fresh(g.sum(axis=tuple(range(g.ndim - 1))))


# --------------------------------------------------------------------------- #
# Convolution
# --------------------------------------------------------------------------- #
def conv2d(
    x,
    weight,
    bias=None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D cross-correlation of an NCHW batch with an OIHW filter bank.

    Forward is one footprint-loop lowering plus one GEMM.  The node retains
    the patch matrix (not the padded input) for backward, which reuses it
    for the weight gradient and runs the same footprint loop as col2im for
    the input gradient — the input is never lowered twice.
    """
    x_t = Tensor._wrap(x)
    w_t = Tensor._wrap(weight)
    b_t = Tensor._wrap(bias) if bias is not None else None

    xd, wd = x_t.data, w_t.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ValueError("conv2d expects NCHW input and OIHW weight")
    out_c, in_c, kh, kw = wd.shape
    if xd.shape[1] != in_c:
        raise ValueError(f"input has {xd.shape[1]} channels, weight expects {in_c}")
    if b_t is not None and b_t.data.shape != (out_c,):
        raise ValueError(f"conv2d bias must have shape ({out_c},), got {b_t.data.shape}")
    attrs = {"stride": _pair(stride), "padding": _pair(padding)}
    # The kernel must fit the padded input.
    _out_hw(xd.shape[2], xd.shape[3], kh, kw, *attrs["stride"], *attrs["padding"])

    parents = (x_t, w_t) if b_t is None else (x_t, w_t, b_t)
    xs = [t.data for t in parents]
    # The compiled arm (repro.autograd.kernels) exists only under a tape.
    arm = None
    if _taping(*parents):
        xs[0] = np.asarray(xd)
        arm = _CONV2D.arm(xs, attrs)
    out, ctx = _CONV2D.forward(arm, xs, attrs, parents)
    return Tensor._make(out, parents, "conv2d", _CONV2D.thunk(arm, parents, ctx, attrs),
                        attrs=attrs)


def _conv2d_geometry(xs, attrs):
    """``(n, c, h, w, kh, kw, sh, sw, ph, pw, out_c, bias)``: the gather
    stage's geometry, then the filter bank's."""
    out_c, _, kh, kw = xs[1].shape
    return (*xs[0].shape, kh, kw, *attrs["stride"], *attrs["padding"], out_c, len(xs) == 3)


def _conv2d_program(p, geometry, gemm, bias=None) -> None:
    """A conv's epilogue: its GEMM's ``(O, n*OH*OW)`` output read in NCHW
    order, plus the bias."""
    oh, ow = _out_hw(*geometry[1:9])
    p.value = p.input(gemm, (oh * ow, ("n", oh * ow), ow, 1))
    if bias is not None:
        p.apply("add", p.value, p.channel(bias))


def _conv2d(arm, xs, attrs, ports):
    """``(out, (x, weight, patch matrix))``; the patch matrix only for a
    filter that takes a gradient (only the weight gradient reads it)."""
    xd, wd = xs[0], xs[1]
    bd = xs[2] if len(xs) == 3 else None
    out, cols = _conv2d_forward(arm, xd, wd, bd, *attrs["stride"], *attrs["padding"])
    return out, (xd, wd, cols if ports[1].requires_grad else None)


def _conv2d_bind(xs, attrs, out):
    """``_conv2d_forward``'s arithmetic with every workspace allocated once:
    the footprint slices copied into the channel-major patch matrix, one GEMM
    against ``weight.reshape(O, -1)`` (same operand layouts, same BLAS call,
    same bits), then the bias add into the NCHW output.  ``step.patches`` is
    ``(patch matrix, GEMM output)``."""
    (sh, sw), (ph, pw) = attrs["stride"], attrs["padding"]
    n, c = xs[0].shape[:2]
    oc, _, kh, kw = xs[1].shape
    oh, ow = out.shape[2:]
    source = _window_source(xs[0], (kh, kw, sh, sw), ph, pw, 0.0)
    cols = np.empty((c * kh * kw, n * oh * ow), xs[0].dtype)
    slots = _patch_slots(cols, n, c, oh, ow)
    gemm = np.empty((oc, n * oh * ow), out.dtype)
    gemm_nchw = gemm.reshape(oc, n, oh, ow).transpose(1, 0, 2, 3)
    buf = np.empty(out.shape, out.dtype)

    def step(x, w, b=None):
        for slot, window in zip(slots, source(x)):
            np.copyto(slot, window)
        np.matmul(w.reshape(oc, -1), cols, out=gemm)
        if b is None:
            np.copyto(buf, gemm_nchw)
            return buf
        return np.add(gemm_nchw, b.reshape(1, -1, 1, 1), out=buf)

    step.out, step.patches = buf, (cols, gemm)
    return step


def conv2d_backward(arm, g, ports, ctx, attrs) -> None:
    """Accumulate conv2d's adjoints for incoming grad ``g`` (``N, O, OH, OW``)
    against the forward's patch matrix."""
    # (O, N*OH*OW): the layout the forward GEMM produced.
    g_t = _owned_copy(g.transpose(1, 0, 2, 3)).reshape(g.shape[1], -1)
    db = g.sum(axis=(0, 2, 3)) if len(ports) == 3 and ports[2].requires_grad else None
    _conv2d_adjoints(arm, g_t, db, ports, ctx, attrs)


def _conv2d_adjoints(arm, g_t, db, ports, ctx, attrs) -> None:
    """conv2d's adjoints from its output's gradient ``g_t`` in the ``(O,
    N*OH*OW)`` layout of the forward GEMM and, for a bias taking one, the
    bias gradient ``db``: the weight's and the input's GEMMs, then the
    input's scatter (``arm.scatter``, or numpy's)."""
    (xd, wd, cols), x_t, w_t = ctx, ports[0], ports[1]
    out_c, _, kh, kw = wd.shape
    n, in_c, h, w = xd.shape
    (sh, sw), (ph, pw) = attrs["stride"], attrs["padding"]
    if len(ports) == 3 and ports[2].requires_grad:
        ports[2]._accumulate_fresh(db)
    if w_t.requires_grad:
        # Contract over N*OH*OW against the forward's patch matrix.
        dw = _ws_matmul(cols, g_t.T)  # (C*kh*kw, O)
        w_t._accumulate_fresh(_owned_copy(dw.T).reshape(wd.shape))
    if x_t.requires_grad:
        dcols = _ws_matmul(wd.reshape(out_c, -1).T, g_t)
        dx = arm and arm.scatter(dcols, (n, in_c, h, w))
        if dx is None:
            dxp = _patch_matrix_adjoint(dcols, (n, in_c, h + 2 * ph, w + 2 * pw), kh, kw, sh, sw)
            dx = _unpad_hw(dxp, ph, pw)
        x_t._accumulate_fresh(dx)


# --------------------------------------------------------------------------- #
# Pooling
# --------------------------------------------------------------------------- #
def max_pool2d(
    x, kernel_size: IntPair, stride: Optional[IntPair] = None, padding: IntPair = 0
) -> Tensor:
    """Max pooling over NCHW windows.

    The gradient of each window goes to its first maximal element in
    row-major window order (``-0.0`` and ``+0.0`` tie); a window holding a
    NaN outputs NaN and routes its gradient to the first NaN.
    """
    x_t = Tensor._wrap(x)
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(kernel_size if stride is None else stride)
    ph, pw = _pair(padding)
    xd = x_t.data
    _check_pool("max_pool2d", xd, kh, kw, ph, pw)
    _out_hw(*xd.shape[2:], kh, kw, sh, sw, ph, pw)  # the kernel must fit the padded input

    attrs = {"kernel_size": (kh, kw), "stride": (sh, sw), "padding": (ph, pw)}
    out, ctx = _MAX_POOL2D.forward(None, (xd,), attrs, (x_t,))
    return Tensor._make(out, (x_t,), "max_pool2d", _MAX_POOL2D.thunk(None, (x_t,), ctx, attrs),
                        attrs=attrs)


def _max_pool2d_geometry(xs, attrs):
    """``(n, c, h, w, kh, kw, sh, sw, ph, pw)``."""
    return (*xs[0].shape, *attrs["kernel_size"], *attrs["stride"], *attrs["padding"])


def _max_pool2d_program(p, geometry) -> None:
    """Max-pooling is the window over the program's last two dims."""
    p.pool = geometry[3:]


def _max_pool2d(arm, xs, attrs, ports):
    """``(out, (x, out, footprint slices))``."""
    out, windows = _max_pool2d_forward(
        xs[0], *attrs["kernel_size"], *attrs["stride"], *attrs["padding"])
    return out, (xs[0], out, windows)


def _max_pool2d_bind(xs, attrs, out):
    """The eager kernel's ``_max_over`` (NaN propagates, ties keep the
    earlier element) into the step's buffer."""
    footprint, (ph, pw) = attrs["kernel_size"] + attrs["stride"], attrs["padding"]
    source = _window_source(xs[0], footprint, ph, pw, -np.inf)
    buf = np.empty(out.shape, out.dtype)
    step = lambda x: _max_over(source(x), buf)
    step.out = buf
    return step


def max_pool2d_backward(arm, g, ports, ctx, attrs) -> None:
    """Accumulate max-pooling's adjoint for incoming grad ``g``: each
    window's gradient to its first winner."""
    x_t = ports[0]
    if not x_t.requires_grad:
        return
    xd, out, windows = ctx
    (kh, kw), (sh, sw), (ph, pw) = attrs["kernel_size"], attrs["stride"], attrs["padding"]
    n, c, h, w = xd.shape
    dxp = _zeros((n, c, h + 2 * ph, w + 2 * pw), xd.dtype)
    dwindows = _window_slices(dxp, kh, kw, sh, sw)
    # First-winner masks: a window is ``pending`` until one of its
    # elements has claimed the gradient.  After the equality round
    # only windows holding a NaN are unclaimed (nothing compares
    # equal to their NaN output): a second round hands those to
    # their first NaN.
    pending = workspace.empty(out.shape, bool)
    pending.fill(True)
    hit = workspace.empty(out.shape, bool)
    routed = workspace.empty(out.shape, g.dtype)
    claim_rounds = (
        lambda window: np.equal(window, out, out=hit),
        lambda window: np.isnan(window, out=hit),
    )
    for claims in claim_rounds:
        for window, dwindow in zip(windows, dwindows):
            claims(window)
            hit &= pending
            np.logical_xor(pending, hit, out=pending)
            dwindow += np.multiply(g, hit, out=routed)
        if not pending.any():
            break
    x_t._accumulate_fresh(_unpad_hw(dxp, ph, pw))


def avg_pool2d(
    x, kernel_size: IntPair, stride: Optional[IntPair] = None, padding: IntPair = 0
) -> Tensor:
    """Average pooling over NCHW windows (padded zeros count toward the mean)."""
    x_t = Tensor._wrap(x)
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(kernel_size if stride is None else stride)
    ph, pw = _pair(padding)
    xd = x_t.data
    _check_pool("avg_pool2d", xd, kh, kw, ph, pw)
    _out_hw(*xd.shape[2:], kh, kw, sh, sw, ph, pw)  # the kernel must fit the padded input

    return _apply(_AVG_POOL2D, (x_t,),
                  {"kernel_size": (kh, kw), "stride": (sh, sw), "padding": (ph, pw)})


def _avg_pool2d(arm, xs, attrs, ports):
    (kh, kw), (sh, sw), (ph, pw) = attrs["kernel_size"], attrs["stride"], attrs["padding"]
    return _avg_pool2d_forward(xs[0], kh, kw, sh, sw, ph, pw), xs[0]


def _avg_pool2d_backward(arm, g, ports, xd, attrs) -> None:
    if not ports[0].requires_grad:
        return
    (kh, kw), (sh, sw), (ph, pw) = attrs["kernel_size"], attrs["stride"], attrs["padding"]
    n, c, h, w = xd.shape
    g = _ws_multiply(g, np.asarray(1.0 / (kh * kw), dtype=xd.dtype))
    # Every patch entry is the same g value: add it per footprint slice
    # instead of materializing a patch matrix for col2im.
    dxp = _zeros((n, c, h + 2 * ph, w + 2 * pw), xd.dtype)
    for dwindow in _window_slices(dxp, kh, kw, sh, sw):
        dwindow += g
    ports[0]._accumulate_fresh(_unpad_hw(dxp, ph, pw))


# --------------------------------------------------------------------------- #
# Normalization and regularization
# --------------------------------------------------------------------------- #
def batch_norm(
    x,
    weight=None,
    bias=None,
    running_mean: Optional[np.ndarray] = None,
    running_var: Optional[np.ndarray] = None,
    training: bool = True,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over the channel axis (axis 1) as one tape node.

    Works for any ``(N, C, ...)`` layout: statistics are reduced over every
    axis except the channel axis, so the same kernel serves ``BatchNorm1d``
    (``(N, C)``) and ``BatchNorm2d`` (``(N, C, H, W)``).

    In training mode the batch statistics normalize the input and, when
    ``running_mean`` / ``running_var`` arrays are supplied, they are updated
    **in place** with an exponential moving average (``momentum`` weighting
    the new observation; the variance update uses the unbiased estimator,
    matching PyTorch).  Training mode requires more than one value per
    channel — with a single value the batch variance is degenerate and the
    unbiased correction ``n / (n - 1)`` is undefined, so a ``ValueError`` is
    raised (as PyTorch does) instead of silently poisoning the running
    statistics.  In eval mode the running statistics normalize the input and
    are never touched; if none were supplied the batch statistics are used
    as a fallback.

    ``weight`` (gamma) and ``bias`` (beta) are optional ``(C,)`` tensors for
    the affine transform; either may be ``None``.
    """
    x_t = Tensor._wrap(x)
    w_t = Tensor._wrap(weight) if weight is not None else None
    b_t = Tensor._wrap(bias) if bias is not None else None

    xd = x_t.data
    if xd.ndim < 2:
        raise ValueError("batch_norm expects input of shape (N, C, ...)")
    c = xd.shape[1]
    for name, t in (("weight", w_t), ("bias", b_t)):
        if t is not None and t.data.shape != (c,):
            raise ValueError(f"batch_norm {name} must have shape ({c},), got {t.data.shape}")
    m = xd.size // c  # elements per channel
    if training and m <= 1:
        raise ValueError(
            "batch_norm: expected more than 1 value per channel in training "
            f"mode, got input of shape {tuple(xd.shape)} ({m} per channel); "
            "use eval mode or a larger batch"
        )

    parents = tuple(t for t in (x_t, w_t, b_t) if t is not None)
    xs = [t.data for t in parents]
    attrs = {
        "training": training,
        "momentum": momentum,
        "running": (running_mean, running_var),
        "axes": (0,) + tuple(range(2, xd.ndim)),
        "bshape": (1, c) + (1,) * (xd.ndim - 2),
        "eps": eps,
        "has_weight": w_t is not None,
        "has_bias": b_t is not None,
    }
    out, ctx = _BATCH_NORM.forward(None, xs, attrs, parents)
    xhat, mean, inv_std, use_batch_stats, _ = ctx
    # What a captured trace replays: in eval mode ``mean`` can be the
    # module's live running_mean buffer (np.asarray is a no-copy
    # passthrough), so it is snapshot — later in-place stat updates cannot
    # leak into a saved trace whose inv_std is already frozen.
    attrs.update(use_batch_stats=use_batch_stats, inv_std=inv_std, xhat=xhat,
                 mean=mean if use_batch_stats else mean.copy())
    return Tensor._make(out, parents, "batch_norm", _BATCH_NORM.thunk(None, parents, ctx, attrs),
                        attrs=attrs)


def _batch_norm_geometry(xs, attrs):
    """``(n, c, elements per sample and channel, gamma, beta)``."""
    n, c = xs[0].shape[:2]
    return n, c, xs[0].size // max(n * c, 1), attrs["has_weight"], attrs["has_bias"]


def _batch_norm_program(p, geometry, mean, inv_std, *affine):
    """``(x - mean) * inv_std [* gamma] [+ beta]`` over the running value,
    which the output becomes; returns ``xhat``'s src."""
    mean, inv_std, *affine = (p.channel(ref) for ref in (mean, inv_std, *affine))
    xhat = p.apply("mul", p.apply("sub", p.value, mean), inv_std)
    if geometry[2]:
        p.apply("mul", p.value, affine[0])
    if geometry[3]:
        p.apply("add", p.value, affine[-1])
    return xhat


def _batch_norm(arm, xs, attrs, ports):
    """``(out, (xhat, mean, inv_std, use_batch_stats, gamma))``, updating
    the running statistics in place in training."""
    xd, (running_mean, running_var) = xs[0], attrs["running"]
    axes = (0,) + tuple(range(2, xd.ndim))
    gamma, beta = _bn_affine_inputs(xs, attrs)
    use_batch_stats = attrs["training"] or running_mean is None or running_var is None
    if use_batch_stats:
        mean, var = xd.mean(axis=axes), _var(xd, axis=axes)
    else:
        mean = np.asarray(running_mean, dtype=xd.dtype)
        var = np.asarray(running_var, dtype=xd.dtype)
    if attrs["training"]:
        m = xd.size // xd.shape[1]  # elements per channel
        _bn_running(running_mean, running_var, mean, var, m, attrs["momentum"])
    inv_std = _bn_inv_std(var, attrs["eps"])
    bshape = (1, xd.shape[1]) + (1,) * (xd.ndim - 2)
    xhat, out = _bn_normalize(xd, mean, inv_std, gamma, beta, bshape)
    return out, (xhat, mean, inv_std, use_batch_stats, gamma)


def _bn_running(running_mean, running_var, mean, var, m: int, momentum: float) -> None:
    """A training step's update of the running statistics, when there are
    any, from the batch's ``mean`` and biased ``var`` over ``m`` elements a
    channel: the unbiased variance for the running estimate; ``m > 1`` is
    guaranteed by batch_norm's check."""
    if running_mean is None or running_var is None:
        return
    unbiased = var * (m / (m - 1))
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean.astype(running_mean.dtype)
    running_var *= 1.0 - momentum
    running_var += momentum * unbiased.astype(running_var.dtype)


def _bn_inv_std(var, eps: float) -> np.ndarray:
    return 1.0 / np.sqrt(var + eps)


def _var(x, axis=None) -> np.ndarray:
    """``x.var(axis=axis)``, byte for byte: numpy's ``_var`` call for call,
    with its one array-sized temporary from ``workspace.empty``."""
    x = np.asarray(x)
    if x.dtype.kind != "f" or x.dtype.itemsize < 4 or not x.flags.c_contiguous:
        # numpy widens these itself / lays its temporary out like x, which
        # decides the order the second sum adds in.
        return x.var(axis=axis)
    axes = range(x.ndim) if axis is None else axis if isinstance(axis, tuple) else (axis,)
    count = np.intp(math.prod(x.shape[a] for a in axes))
    mean = np.add.reduce(x, axis=axis, keepdims=True)
    np.true_divide(mean, count, out=mean, casting="unsafe")
    dev = np.subtract(x, mean, out=workspace.empty(x.shape, x.dtype))
    np.square(dev, out=dev)
    var = np.add.reduce(dev, axis=axis)
    if isinstance(var, np.ndarray):
        return np.true_divide(var, count, out=var, casting="unsafe")
    return var.dtype.type(var / count)  # a full reduction is a scalar


def _bn_normalize(x, mean, inv_std, gamma, beta, bshape: Tuple[int, ...]):
    """``(xhat, out)``: ``xhat = (x - mean) * inv_std`` and ``out = xhat *
    gamma + beta`` (either affine term may be ``None``).  ``out`` never
    aliases ``xhat``: the caller saves ``xhat`` for the backward pass and
    hands ``out`` to downstream ops."""
    x, mean = np.asarray(x), mean.reshape(bshape)
    xhat = np.subtract(x, mean, out=workspace.empty(x.shape, np.result_type(x.dtype, mean.dtype)))
    np.multiply(xhat, inv_std.reshape(bshape), out=xhat)
    # out's dtype is what the affine terms promote to.
    affine = [p.dtype for p in (gamma, beta) if p is not None]
    out = workspace.empty(xhat.shape, np.result_type(xhat.dtype, *affine))
    if gamma is not None:
        np.multiply(xhat, gamma.reshape(bshape), out=out)
    else:
        np.copyto(out, xhat)
    if beta is not None:
        np.add(out, beta.reshape(bshape), out=out)
    return xhat, out


def _bn_affine_inputs(inputs, attrs) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Extract ``(gamma, beta)`` from a batch-norm node's input arrays."""
    gamma = inputs[1] if attrs["has_weight"] else None
    if attrs["has_bias"]:
        beta = inputs[2] if attrs["has_weight"] else inputs[1]
    else:
        beta = None
    return gamma, beta


def _batch_norm_bind(xs, attrs, out):
    """Eval statistics are constants of the trace: their reshapes are folded
    once, gamma / beta stay late-bound reads.  Without running statistics
    the generic step recomputes the batch's, as the eager kernel does."""
    if attrs["training"]:
        raise RuntimeError(
            "cannot replay a train-mode batch_norm node: replaying would "
            "re-update the running statistics; capture the trace in eval mode"
        )
    if attrs["use_batch_stats"]:
        return None
    bshape, has_weight, has_bias = attrs["bshape"], attrs["has_weight"], attrs["has_bias"]
    mean = np.ascontiguousarray(attrs["mean"].reshape(bshape))
    inv_std = np.ascontiguousarray(attrs["inv_std"].reshape(bshape))
    buf = np.empty(out.shape, out.dtype)

    def step(x, *affine):
        np.subtract(x, mean, out=buf)
        np.multiply(buf, inv_std, out=buf)
        if has_weight:
            np.multiply(buf, affine[0].reshape(bshape), out=buf)
        if has_bias:
            np.add(buf, affine[-1].reshape(bshape), out=buf)
        return buf

    step.out, step.consts = buf, (mean, inv_std)
    return step


def batch_norm_backward(arm, g, ports, ctx, attrs) -> None:
    """Accumulate batch-norm's adjoints for incoming grad ``g``."""
    xhat, _, inv_std, use_batch_stats, gamma = ctx
    axes, bshape = attrs["axes"], attrs["bshape"]
    x_t = ports[0]
    w_t = ports[1] if attrs["has_weight"] else None
    b_t = ports[-1] if attrs["has_bias"] else None
    if b_t is not None and b_t.requires_grad:
        b_t._accumulate_fresh(g.sum(axis=axes))
    if w_t is not None and w_t.requires_grad:
        w_t._accumulate_fresh(_ws_multiply(g, xhat).sum(axis=axes))
    if not x_t.requires_grad:
        return
    dxhat = _ws_multiply(g, gamma.reshape(bshape)) if w_t is not None else g
    if not use_batch_stats:
        # Running statistics are constants: pure elementwise scaling.
        x_t._accumulate_fresh(_ws_multiply(dxhat, inv_std.reshape(bshape)))
        return
    # Batch statistics depend on x: the full three-term adjoint,
    # ((dxhat - mean(dxhat)) - xhat * mean(dxhat * xhat)) * inv_std.
    mean_dxhat = dxhat.mean(axis=axes).reshape(bshape)
    t = _ws_multiply(dxhat, xhat)
    mean_dxhat_xhat = t.mean(axis=axes).reshape(bshape)
    np.multiply(xhat, mean_dxhat_xhat, out=t)
    dx = np.subtract(dxhat, mean_dxhat, out=workspace.empty(t.shape, t.dtype))
    dx -= t
    dx *= inv_std.reshape(bshape)
    x_t._accumulate_fresh(dx)


def _bn_affine_grads(ports, attrs, dbeta, dgamma) -> None:
    """Accumulate the gradients of a batch-norm node's affine terms (its
    ``ports`` after the input's), those that take one."""
    w_t = ports[1] if attrs["has_weight"] else None
    b_t = ports[-1] if attrs["has_bias"] else None
    if b_t is not None and b_t.requires_grad:
        b_t._accumulate_fresh(dbeta)
    if w_t is not None and w_t.requires_grad:
        w_t._accumulate_fresh(dgamma)


def dropout(
    x,
    p: float = 0.5,
    training: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout: zero each element with probability ``p`` in training.

    Kept elements are scaled by ``1 / (1 - p)`` so activations keep their
    expected magnitude and eval needs no rescaling.  In eval mode (or with
    ``p == 0``) the input tensor is returned unchanged — no mask, no tape
    node.  The mask is drawn from the explicit ``rng`` generator when given;
    without one it falls back to the **seeded global generator**
    (:func:`repro.backend.default_rng`, reset by
    ``repro.nn.init.manual_seed``) so training runs are reproducible without
    threading a generator through every call.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"dropout probability must be in [0, 1], got {p}")
    x_t = Tensor._wrap(x)
    if not training or p == 0.0:
        return x_t

    attrs = {"p": p, "rng": rng}
    out, mask = _DROPOUT.forward(None, (x_t.data,), attrs, (x_t,))
    attrs["mask"] = mask
    return Tensor._make(out, (x_t,), "dropout", _DROPOUT.thunk(None, (x_t,), mask, attrs),
                        attrs=attrs)


def _dropout(arm, xs, attrs, ports):
    """``(x * mask, mask)``: the scaled keep-mask drawn from ``attrs["rng"]``
    or, for ``None``, from the seeded global generator as it is now."""
    xd, p, rng = xs[0], attrs["p"], attrs["rng"]
    if p == 1.0:
        mask = _zeros(xd.shape, xd.dtype)
    else:
        keep = (rng if rng is not None else default_rng()).random(xd.shape) >= p
        mask = keep.astype(xd.dtype) / np.asarray(1.0 - p, dtype=xd.dtype)
    return _ws_multiply(xd, mask), mask


def _dropout_backward(arm, g, ports, mask, attrs) -> None:
    if ports[0].requires_grad:
        ports[0]._accumulate_fresh(_ws_multiply(g, mask))


# --------------------------------------------------------------------------- #
# Softmax family
# --------------------------------------------------------------------------- #
def softmax(x, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return _apply(_SOFTMAX, (Tensor._wrap(x),), {"axis": axis})


def log_softmax(x, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    return _apply(_LOG_SOFTMAX, (Tensor._wrap(x),), {"axis": axis})


def _softmax_op(name: str, fn, grad) -> ir.Op:
    """Enter a softmax-family op: ``y = fn(x, axis)``, input adjoint
    ``grad(g, y, axis)``."""

    def forward(arm, xs, attrs, ports):
        y = fn(xs[0], attrs["axis"])
        return y, y

    def backward(arm, g, ports, y, attrs) -> None:
        if ports[0].requires_grad:
            ports[0]._accumulate_fresh(grad(g, y, attrs["axis"]))

    return ir.define_op(name, forward, backward)


def _softmax(z, axis: int) -> np.ndarray:
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_grad(g, probs, axis: int) -> np.ndarray:
    gp = g * probs
    return gp - probs * gp.sum(axis=axis, keepdims=True)


def _log_softmax(z, axis: int) -> np.ndarray:
    shifted = z - z.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted - lse


def softmax_cross_entropy(logits, targets, reduction: str = "mean") -> Tensor:
    """Fused softmax + negative-log-likelihood over ``(batch, classes)`` logits.

    ``targets`` are integer class indices of shape ``(batch,)`` (ndarray or
    Tensor; never differentiated) and must lie in ``[0, classes)`` — negative
    or too-large labels raise instead of silently wrapping around.  Fusing
    the two steps keeps the backward pass a single ``probs - onehot`` kernel
    with no intermediate graph nodes.
    """
    if reduction not in ("mean", "sum", "none"):
        raise ValueError(f"unknown reduction {reduction!r}")
    x_t = Tensor._wrap(logits)
    idx = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    idx = idx.astype(np.int64).reshape(-1)
    # Targets are a data-dependent *input* of the node (unlike structural
    # attrs): replaying the trace over a new batch must bind new labels, so
    # they ride along as a non-differentiable integer parent tensor.  When
    # the caller handed us a Tensor, that very object is the parent — a
    # captured trace then maps it to a replay input slot instead of
    # freezing the trace-time labels in.
    if isinstance(targets, Tensor) and not targets.requires_grad:
        t_t = targets
    else:
        t_t = Tensor(idx, dtype=np.int64)

    attrs, parents = {"reduction": reduction}, (x_t, t_t)
    out, ctx = _SOFTMAX_CROSS_ENTROPY.forward(None, (x_t.data, idx), attrs, parents)
    return Tensor._make(out, parents, "softmax_cross_entropy",
                        _SOFTMAX_CROSS_ENTROPY.thunk(None, parents, ctx, attrs), attrs=attrs)


def _softmax_cross_entropy(arm, xs, attrs, ports):
    """The loss over logits ``xs[0]`` and integer class indices ``xs[1]``."""
    idx = xs[1].astype(np.int64, copy=False).reshape(-1)
    out, logp, rows = _softmax_cross_entropy_forward(xs[0], idx, attrs["reduction"])
    return out, (logp, rows, idx)


def _softmax_cross_entropy_backward(arm, g, ports, ctx, attrs) -> None:
    if not ports[0].requires_grad:
        return
    (logp, rows, idx), reduction = ctx, attrs["reduction"]
    if reduction == "none":
        scale = g.reshape(-1, 1)
        if scale.dtype != logp.dtype:
            scale = scale.astype(logp.dtype)
    else:
        s = float(g) / idx.shape[0] if reduction == "mean" else float(g)
        scale = np.asarray(s, dtype=logp.dtype)
    d = np.exp(logp)
    d[rows, idx] -= 1.0
    ports[0]._accumulate_fresh(d * scale)


def _softmax_cross_entropy_forward(logits: np.ndarray, idx: np.ndarray, reduction: str):
    """Shared validation + loss core; returns ``(out, logp, rows)``.

    Every executor runs it through the op table entry, so a fix to the loss
    math or its guards reaches all of them.
    """
    if logits.ndim != 2 or idx.shape[0] != logits.shape[0]:
        raise ValueError("softmax_cross_entropy expects (N, C) logits and (N,) targets")
    if idx.shape[0] == 0 and reduction == "mean":
        # The mean of an empty batch is 0/0 (nan forward, zero division in
        # the backward scale); sum/none stay well-defined on N=0.
        raise ValueError(
            "softmax_cross_entropy got an empty batch (N=0); the mean loss "
            "is undefined — use reduction='sum' or 'none' for empty shards"
        )
    n_classes = logits.shape[1]
    if idx.size and (idx.min() < 0 or idx.max() >= n_classes):
        raise ValueError(
            f"softmax_cross_entropy targets must be class indices in "
            f"[0, {n_classes}), got values in [{idx.min()}, {idx.max()}]"
        )
    rows = np.arange(idx.shape[0])
    logp = _log_softmax(logits, -1)
    losses = -logp[rows, idx]
    if reduction == "mean":
        out = losses.mean(dtype=losses.dtype)
    elif reduction == "sum":
        out = losses.sum(dtype=losses.dtype)
    else:
        out = losses
    return np.asarray(out), logp, rows


# --------------------------------------------------------------------------- #
# The op table (repro.autograd.ir.Op): the tape ops above record their calls
# through these entries, a replayed train step runs them and a serving
# session binds them.
# --------------------------------------------------------------------------- #
_LINEAR = ir.define_op("linear", _linear, linear_backward, _linear_bind,
                       ir.Stage(ir.HEAD, _linear_program))
_CONV2D = ir.define_op("conv2d", _conv2d, conv2d_backward, _conv2d_bind,
                       ir.Stage(ir.HEAD, _conv2d_program, _conv2d_geometry))
_MAX_POOL2D = ir.define_op("max_pool2d", _max_pool2d, max_pool2d_backward, _max_pool2d_bind,
                           ir.Stage(ir.EPILOGUE, _max_pool2d_program, _max_pool2d_geometry))
_AVG_POOL2D = ir.define_op("avg_pool2d", _avg_pool2d, _avg_pool2d_backward)
_BATCH_NORM = ir.define_op("batch_norm", _batch_norm, batch_norm_backward, _batch_norm_bind,
                           ir.Stage(ir.EPILOGUE, _batch_norm_program, _batch_norm_geometry))
_DROPOUT = ir.define_op("dropout", _dropout, _dropout_backward)
_SOFTMAX = _softmax_op("softmax", _softmax, _softmax_grad)
_LOG_SOFTMAX = _softmax_op("log_softmax", _log_softmax,
                           lambda g, logp, axis: g - np.exp(logp) * g.sum(axis=axis, keepdims=True))
_SOFTMAX_CROSS_ENTROPY = ir.define_op(
    "softmax_cross_entropy", _softmax_cross_entropy, _softmax_cross_entropy_backward)
