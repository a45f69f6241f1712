"""The reference numpy backend.

Every method is the plainest correct numpy expression of the operation, with
no in-place tricks: this backend defines the semantics that alternate
backends (including :class:`~repro.backend.fused.FusedNumpyBackend`) are
validated against in the cross-backend equivalence suite.  Operation *order*
matches the historical inline kernels, so results are bit-identical to the
pre-registry engine.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["NumpyBackend"]


class NumpyBackend:
    """Plain-numpy reference implementation of the ``ArrayBackend`` protocol."""

    name = "numpy"

    # ------------------------------------------------------------------ #
    # Primitives
    # ------------------------------------------------------------------ #
    def zeros(self, shape, dtype) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def add(self, a, b) -> np.ndarray:
        return np.add(a, b)

    def multiply(self, a, b) -> np.ndarray:
        return np.multiply(a, b)

    def divide(self, a, b) -> np.ndarray:
        return np.divide(a, b)

    def negative(self, a) -> np.ndarray:
        return np.negative(a)

    def power(self, a, exponent: float) -> np.ndarray:
        return np.power(a, exponent)

    def matmul(self, a, b) -> np.ndarray:
        return np.matmul(a, b)

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
    # the tape hot path (~10% of a small MLP step), and the protocol already
    # guarantees ndarray (or duck-array) inputs.
    def sum(self, x, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.sum(axis=axis, keepdims=keepdims)

    def mean(self, x, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.mean(axis=axis, keepdims=keepdims)

    def var(self, x, axis=None) -> np.ndarray:
        return x.var(axis=axis)

    def amax(self, x, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.max(axis=axis, keepdims=keepdims)

    def pad(self, x, pad_width, value: float = 0.0) -> np.ndarray:
        # Fill + one interior copy: np.pad's generic per-axis machinery
        # costs more than the copy itself at the kernels' image sizes.
        out = np.full(
            [lo + size + hi for size, (lo, hi) in zip(x.shape, pad_width)], value, dtype=x.dtype
        )
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
        return np.maximum(x, 0.0)

    def sigmoid(self, x) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-x))

    def linear(self, x, w, b: Optional[np.ndarray]) -> np.ndarray:
        # The matmul output is a fresh buffer we own, so folding the bias in
        # place is safe even for the reference (and matches the historical
        # inline kernel bit-for-bit).
        out = np.matmul(x, w)
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
        xhat = (x - mean.reshape(bshape)) * inv_std.reshape(bshape)
        out = xhat
        if gamma is not None:
            out = out * gamma.reshape(bshape)
        if beta is not None:
            out = out + beta.reshape(bshape)
        if out is xhat:
            out = xhat.copy()  # never hand the saved xhat buffer downstream
        return xhat, out

    def bn_input_grad(self, dxhat, xhat, inv_std, axes, bshape) -> np.ndarray:
        mean_dxhat = dxhat.mean(axis=axes).reshape(bshape)
        mean_dxhat_xhat = (dxhat * xhat).mean(axis=axes).reshape(bshape)
        return (dxhat - mean_dxhat - xhat * mean_dxhat_xhat) * inv_std.reshape(bshape)

    # ------------------------------------------------------------------ #
    # Fused tape chains (reference: the exact op sequence of the separate
    # kernels, so fused and unfused traces are bit-identical)
    # ------------------------------------------------------------------ #
    def relu_grad(self, g, mask) -> np.ndarray:
        # Exactly the multiply the standalone relu backward performs.
        return self.multiply(g, mask)

    def linear_relu(self, x, w, b: Optional[np.ndarray]) -> np.ndarray:
        return np.maximum(self.linear(x, w, b), 0.0)

    def mul_add(self, a, b, c) -> np.ndarray:
        return np.add(np.multiply(a, b), c)

    def add_relu(self, a, b) -> np.ndarray:
        return np.maximum(np.add(a, b), 0.0)

    def bn_normalize_relu(
        self, x, mean, inv_std, gamma, beta, bshape: Tuple[int, ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        xhat, out = self.bn_normalize(x, mean, inv_std, gamma, beta, bshape)
        return xhat, np.maximum(out, 0.0)

    # ------------------------------------------------------------------ #
    # Region codegen fusion point
    # ------------------------------------------------------------------ #

    #: Region node kinds this backend's ``compile_region`` accepts — the
    #: capability hook the fusion pass and LazyBackend consult before
    #: absorbing a node into a region.  ``"elementwise"`` covers the plain
    #: REGION_OPS; ``"reduce"`` adds trailing-axes sum/mean tails;
    #: ``"linear"`` adds the host-GEMM head with fused epilogue.  A backend
    #: without this attribute is treated as elementwise-only.
    region_features = frozenset({"elementwise", "reduce", "linear"})

    def compile_region(self, region, specialize: bool = False):
        # One compiled C loop per region (bit-equal to the ufunc sequence
        # by the codegen contract); the numpy-interpreter arm — which *is*
        # this backend's op sequence — when codegen is off or no compiler
        # exists.  FusedNumpyBackend inherits this: its elementwise
        # primitives are the same ufuncs.  ``specialize=True`` renders the
        # kernels with the region's concrete shapes as literal loop bounds
        # (serving sessions opt in per bucket).
        from repro.codegen import compile_region as _compile_region

        return _compile_region(region, specialize=specialize)

    def dropout_mask(self, rng: np.random.Generator, shape, p: float, dtype) -> np.ndarray:
        # Drawn through the random_uniform primitive so a backend that
        # overrides only the RNG (a device generator) inherits a consistent
        # mask for free.
        keep = self.random_uniform(rng, shape) >= p
        return keep.astype(dtype) / np.asarray(1.0 - p, dtype=dtype)

    # ------------------------------------------------------------------ #
    # Optimizer update rules
    # ------------------------------------------------------------------ #
    def sgd_update(self, p, g, v, lr, momentum, weight_decay, nesterov) -> None:
        if weight_decay:
            g = g + weight_decay * p  # fresh buffer; caller's grad untouched
        if momentum:
            v *= momentum
            v += g
            g = g + momentum * v if nesterov else v
        p -= np.asarray(lr, dtype=p.dtype) * g

    def adam_update(
        self, p, g, m, v, lr, beta1, beta2, eps, bc1, bc2, weight_decay
    ) -> None:
        if weight_decay:
            g = g + weight_decay * p
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        denom = np.sqrt(v / bc2)
        denom += eps
        p -= np.asarray(lr / bc1, dtype=p.dtype) * m / denom
