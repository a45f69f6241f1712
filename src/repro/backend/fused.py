"""Fused numpy backend: the reference kernels with temporaries collapsed.

Inherits every primitive from :class:`~repro.backend.numpy_backend.NumpyBackend`
and overrides composite fusion points with in-place elementwise chains: each
chain allocates one buffer where the reference expression allocates two to
five, and every later step reuses it via ``out=``.  Operation order is kept
identical to the reference (the cross-backend equivalence suite is the judge).

What is left here is what still differs from the reference.  The affine and
batch-norm composites (``linear``, ``linear_relu``, ``add_relu``,
``bn_normalize``, ``bn_normalize_relu``, ``bn_input_grad``) are gone: since
the reference writes them through ``out=`` into workspace buffers
(:mod:`repro.backend.workspace`) the overrides were the same lines with a
different spelling.
"""

from __future__ import annotations

import numpy as np

from repro.backend.numpy_backend import NumpyBackend

__all__ = ["FusedNumpyBackend"]


class FusedNumpyBackend(NumpyBackend):
    """In-place fused variant of the reference backend."""

    name = "fused"

    # ------------------------------------------------------------------ #
    # Elementwise chains (one buffer; the reference expression takes four)
    # ------------------------------------------------------------------ #
    def sigmoid(self, x) -> np.ndarray:
        out = np.negative(x)
        np.exp(out, out=out)
        out += 1.0
        np.divide(1.0, out, out=out)
        return out

    # ------------------------------------------------------------------ #
    # Softmax family (each chain in place on its first temporary)
    # ------------------------------------------------------------------ #
    def softmax(self, z, axis: int) -> np.ndarray:
        out = z - z.max(axis=axis, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=axis, keepdims=True)
        return out

    def softmax_grad(self, g, probs, axis: int) -> np.ndarray:
        gp = g * probs
        gp -= probs * gp.sum(axis=axis, keepdims=True)
        return gp

    def log_softmax(self, z, axis: int) -> np.ndarray:
        shifted = z - z.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        shifted -= np.log(e.sum(axis=axis, keepdims=True))
        return shifted

    def log_softmax_grad(self, g, logp, axis: int) -> np.ndarray:
        gx = np.exp(logp)
        gx *= g.sum(axis=axis, keepdims=True)
        np.subtract(g, gx, out=gx)
        return gx

    def xent_grad(self, logp, rows, idx, scale) -> np.ndarray:
        d = np.exp(logp)
        d[rows, idx] -= 1.0
        d *= scale
        return d

    # ------------------------------------------------------------------ #
    # Fused tape chains
    # ------------------------------------------------------------------ #
    def mul_add(self, a, b, c) -> np.ndarray:
        # In place on the product unless ``c`` broadens the result.
        out = np.multiply(a, b)
        if out.shape == np.broadcast_shapes(out.shape, np.shape(c)):
            out += c
            return out
        return np.add(out, c)

    # ------------------------------------------------------------------ #
    # Optimizer update rules (one scratch buffer per parameter)
    # ------------------------------------------------------------------ #
    def sgd_update(self, p, g, v, lr, momentum, weight_decay, nesterov) -> None:
        if weight_decay:
            eff = np.multiply(p, weight_decay)  # the single owned scratch
            eff += g
            owned = True
        else:
            eff, owned = g, False
        if momentum:
            v *= momentum
            v += eff
            if nesterov:
                nv = np.multiply(v, momentum)
                nv += eff
                eff, owned = nv, True
            else:
                eff, owned = v, False
        lr_t = np.asarray(lr, dtype=p.dtype)
        if owned:
            eff *= lr_t
            p -= eff
        else:
            p -= lr_t * eff  # grad / velocity are not ours to scale in place

    def adam_update(
        self, p, g, m, v, lr, beta1, beta2, eps, bc1, bc2, weight_decay
    ) -> None:
        if weight_decay:
            gw = np.multiply(p, weight_decay)
            gw += g
        else:
            gw = g
        m *= beta1
        scratch = np.multiply(gw, 1.0 - beta1)
        m += scratch
        v *= beta2
        np.multiply(gw, gw, out=scratch)
        scratch *= 1.0 - beta2
        v += scratch
        denom = np.divide(v, bc2, out=scratch)
        np.sqrt(denom, out=denom)
        denom += eps
        # (lr/bc1 * m) / denom in the reference's association (bit-identical),
        # with the product landing in a fresh buffer and the divide in place.
        step = np.asarray(lr / bc1, dtype=p.dtype) * m
        step /= denom
        p -= step
