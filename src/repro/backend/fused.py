"""Fused numpy backend: the reference kernels with temporaries collapsed.

Inherits every primitive from :class:`~repro.backend.numpy_backend.NumpyBackend`
and overrides composite fusion points with in-place elementwise chains: each
chain allocates one buffer where the reference expression allocates two to
five, and every later step reuses it via ``out=``.  Operation order is kept
identical to the reference (the cross-backend equivalence suite is the judge).

What is left here is what still differs from the reference.  The affine and
batch-norm composites (``linear``, ``linear_relu``, ``add_relu``,
``bn_normalize``, ``bn_normalize_relu``, ``bn_input_grad``) and the
optimizer rules are gone: since the reference writes them through ``out=``
into workspace buffers (:mod:`repro.backend.workspace`) the overrides were
the same lines with a different spelling.
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
