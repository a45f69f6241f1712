"""The numpy array backend: the one implementation every kernel calls.

Every method is the plainest correct numpy expression of the operation, and
its results define the semantics of the stack.  Operation *order* matches the
historical inline kernels, so results are bit-identical to them.

The methods a training step calls on image-sized operands take their result
buffer from :meth:`NumpyBackend.empty` (:mod:`repro.backend.workspace`) and
write into it with ``out=``: the same ufuncs in the same order, so not a byte
changes.  A buffer that carries a whole chain is created in the dtype the
chain ends in, so its in-place steps stay exact under mixed precision too.
Whether a request is pooled is ``empty``'s business, with one measured
exception: ``multiply``, ``matmul`` and ``relu`` — the primitives every small
op goes through — take numpy's own result when it cannot reach the
workspace's floor.  Asking first costs a small op about as much again
(``train_b4`` ``latency_ms_p50`` +8 % in 10 of 12 pairs, a 64-wide MLP step
+18 %); the image-sized kernels ask unconditionally.

Methods never mutate the arrays they are handed, except the parameters and
optimizer state the update rules own.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.backend import workspace

__all__ = ["NumpyBackend"]


class NumpyBackend:
    """The ndarray operations the kernels are built from (see the module
    docstring)."""

    # ------------------------------------------------------------------ #
    # Primitives
    # ------------------------------------------------------------------ #
    def empty(self, shape, dtype) -> np.ndarray:
        """An uninitialised C-contiguous array of ``shape`` (a tuple), the
        caller's like any other; large requests come from the workspace."""
        return workspace.empty(shape, dtype)

    def zeros(self, shape, dtype) -> np.ndarray:
        out = self.empty(shape, dtype)
        out.fill(0)
        return out

    def add(self, a, b) -> np.ndarray:
        return np.add(a, b)

    def multiply(self, a, b) -> np.ndarray:
        if a.nbytes < workspace.FLOOR > b.nbytes:  # so is a * b, short of an outer product
            return np.multiply(a, b)
        shape = a.shape if a.shape == b.shape else np.broadcast(a, b).shape
        dtype = a.dtype if a.dtype == b.dtype else np.result_type(a, b)
        return np.multiply(a, b, out=self.empty(shape, dtype))

    def divide(self, a, b) -> np.ndarray:
        return np.divide(a, b)

    def negative(self, a) -> np.ndarray:
        return np.negative(a)

    def power(self, a, exponent: float) -> np.ndarray:
        return np.power(a, exponent)

    def matmul(self, a, b) -> np.ndarray:
        if a.ndim != 2 or b.ndim != 2 or a.shape[0] * b.shape[1] * a.itemsize < workspace.FLOOR:
            return np.matmul(a, b)  # small, a vector to squeeze or a stack: numpy's own result
        dtype = a.dtype if a.dtype == b.dtype else np.result_type(a.dtype, b.dtype)
        return np.matmul(a, b, out=self.empty((a.shape[0], b.shape[1]), dtype))

    def exp(self, x) -> np.ndarray:
        return np.exp(x)

    def log(self, x) -> np.ndarray:
        return np.log(x)

    def sqrt(self, x) -> np.ndarray:
        return np.sqrt(x)

    def tanh(self, x) -> np.ndarray:
        return np.tanh(x)

    # Reductions call the ndarray bound methods, not the np.* module
    # functions: the fromnumeric wrappers add a measurable per-call cost on
    # the tape hot path (~10% of a small MLP step), and the kernels only
    # ever hand over ndarrays.
    def sum(self, x, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.sum(axis=axis, keepdims=keepdims)

    def mean(self, x, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.mean(axis=axis, keepdims=keepdims)

    def var(self, x, axis=None) -> np.ndarray:
        x = np.asarray(x)
        if x.dtype.kind != "f" or x.dtype.itemsize < 4 or not x.flags.c_contiguous:
            # numpy widens these itself / lays its temporary out like x, which
            # decides the order the second sum adds in.
            return x.var(axis=axis)
        # ``x.var(axis=axis)`` call for call (numpy's ``_var``), with its one
        # array-sized temporary taken from the workspace.
        axes = range(x.ndim) if axis is None else axis if isinstance(axis, tuple) else (axis,)
        count = np.intp(math.prod(x.shape[a] for a in axes))
        mean = np.add.reduce(x, axis=axis, keepdims=True)
        np.true_divide(mean, count, out=mean, casting="unsafe")
        dev = np.subtract(x, mean, out=self.empty(x.shape, x.dtype))
        np.square(dev, out=dev)
        var = np.add.reduce(dev, axis=axis)
        if isinstance(var, np.ndarray):
            return np.true_divide(var, count, out=var, casting="unsafe")
        return var.dtype.type(var / count)  # a full reduction is a scalar

    def amax(self, x, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.max(axis=axis, keepdims=keepdims)

    def pad(self, x, pad_width, value: float = 0.0) -> np.ndarray:
        # Fill + one interior copy: np.pad's generic per-axis machinery
        # costs more than the copy itself at the kernels' image sizes.
        out = self.empty(
            tuple(lo + size + hi for size, (lo, hi) in zip(x.shape, pad_width)), x.dtype
        )
        out.fill(value)
        out[tuple(slice(lo, lo + size) for size, (lo, _) in zip(x.shape, pad_width))] = x
        return out

    def random_uniform(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.random(shape)

    def standard_normal(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.standard_normal(shape)

    def uniform(self, rng: np.random.Generator, low, high, shape) -> np.ndarray:
        return rng.uniform(low, high, shape)

    # ------------------------------------------------------------------ #
    # Composites (plain reference expressions)
    # ------------------------------------------------------------------ #
    def relu(self, x) -> np.ndarray:
        if x.nbytes < workspace.FLOOR:
            return np.maximum(x, 0.0)
        dtype = x.dtype if x.dtype.kind == "f" else np.result_type(x, 0.0)
        return np.maximum(x, 0.0, out=self.empty(x.shape, dtype))

    def sigmoid(self, x) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-x))

    def linear(self, x, w, b: Optional[np.ndarray]) -> np.ndarray:
        # The matmul output is a fresh buffer we own, so folding the bias in
        # place is safe even for the reference (and matches the historical
        # inline kernel bit-for-bit).
        out = self.matmul(x, w)
        if b is not None:
            out += b
        return out

    def softmax(self, z, axis: int) -> np.ndarray:
        shifted = z - z.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=axis, keepdims=True)

    def softmax_grad(self, g, probs, axis: int) -> np.ndarray:
        gp = g * probs
        return gp - probs * gp.sum(axis=axis, keepdims=True)

    def log_softmax(self, z, axis: int) -> np.ndarray:
        shifted = z - z.max(axis=axis, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        return shifted - lse

    def log_softmax_grad(self, g, logp, axis: int) -> np.ndarray:
        return g - np.exp(logp) * g.sum(axis=axis, keepdims=True)

    def xent_grad(self, logp, rows, idx, scale) -> np.ndarray:
        d = np.exp(logp)
        d[rows, idx] -= 1.0
        return d * scale

    def bn_normalize(
        self, x, mean, inv_std, gamma, beta, bshape: Tuple[int, ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(xhat, out)``: ``xhat = (x - mean) * inv_std`` and ``out = xhat *
        gamma + beta`` (either affine term may be ``None``).  ``out`` never
        aliases ``xhat``: the caller saves ``xhat`` for the backward pass and
        hands ``out`` to downstream ops."""
        x, mean = np.asarray(x), mean.reshape(bshape)
        xhat = np.subtract(x, mean, out=self.empty(x.shape, np.result_type(x.dtype, mean.dtype)))
        np.multiply(xhat, inv_std.reshape(bshape), out=xhat)
        # out's dtype is what the affine terms promote to.
        affine = [p.dtype for p in (gamma, beta) if p is not None]
        out = self.empty(xhat.shape, np.result_type(xhat.dtype, *affine))
        if gamma is not None:
            np.multiply(xhat, gamma.reshape(bshape), out=out)
        else:
            np.copyto(out, xhat)
        if beta is not None:
            np.add(out, beta.reshape(bshape), out=out)
        return xhat, out

    def bn_input_grad(self, dxhat, xhat, inv_std, axes, bshape) -> np.ndarray:
        # ((dxhat - mean(dxhat)) - xhat * mean(dxhat * xhat)) * inv_std
        mean_dxhat = dxhat.mean(axis=axes).reshape(bshape)
        t = self.multiply(dxhat, xhat)
        mean_dxhat_xhat = t.mean(axis=axes).reshape(bshape)
        np.multiply(xhat, mean_dxhat_xhat, out=t)
        dx = np.subtract(dxhat, mean_dxhat, out=self.empty(t.shape, t.dtype))
        dx -= t
        dx *= inv_std.reshape(bshape)
        return dx

    def dropout_mask(self, rng: np.random.Generator, shape, p: float, dtype) -> np.ndarray:
        keep = self.random_uniform(rng, shape) >= p
        return keep.astype(dtype) / np.asarray(1.0 - p, dtype=dtype)

    # ------------------------------------------------------------------ #
    # Optimizer update rules
    # ------------------------------------------------------------------ #
    # Each rule mutates ``p`` and its state (``v``; ``m`` and ``v``) in
    # place, never ``g``.  It runs the reference expressions' operations in
    # their order (IEEE products and sums commute: ``(1 - beta1) * g`` is
    # ``g * (1 - beta1)``), with the temporaries in one or two scratch
    # buffers from ``empty``: a whole-model update (``Optimizer.flat_step``)
    # would otherwise map and fault in fresh pages for each of them, every
    # step.
    def sgd_update(self, p, g, v, lr, momentum, weight_decay, nesterov) -> None:
        scratch = self.empty(p.shape, p.dtype)
        if weight_decay:
            g = np.add(g, np.multiply(p, weight_decay, out=scratch), out=scratch)
        if momentum:
            v *= momentum
            v += g
            if nesterov:
                g = np.add(g, np.multiply(v, momentum, out=self.empty(p.shape, p.dtype)))
            else:
                g = v
        p -= np.multiply(g, np.asarray(lr, dtype=p.dtype), out=scratch)

    def adam_update(
        self, p, g, m, v, lr, beta1, beta2, eps, bc1, bc2, weight_decay
    ) -> None:
        scratch = self.empty(p.shape, p.dtype)
        if weight_decay:
            g = np.add(g, np.multiply(p, weight_decay, out=scratch))
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=scratch)
        v *= beta2
        np.square(g, out=scratch)
        scratch *= 1.0 - beta2
        v += scratch
        denom = np.divide(v, bc2, out=scratch)
        np.sqrt(denom, out=denom)
        denom += eps
        step = np.multiply(m, np.asarray(lr / bc1, dtype=p.dtype), out=self.empty(p.shape, p.dtype))
        step /= denom
        p -= step
