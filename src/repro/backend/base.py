"""The ``ArrayBackend`` protocol: the ndarray surface the kernels sit on.

Every numerical operation performed by the autograd kernels
(:mod:`repro.autograd.functional`), the tensor elementwise ops
(:mod:`repro.autograd.tensor`) and the optimizer update rules
(:mod:`repro.nn.optim`) dispatches through the *active backend* — an object
implementing this protocol, resolved via :func:`repro.backend.get_backend`.

The surface has two tiers:

**Primitives** are the ~15 ndarray operations the kernels are actually built
from: the GEMM-shaped contraction (``matmul``), padding, reductions,
transcendentals and the RNG draws.  A new backend (an accelerator, a JIT
such as numexpr, a remote device) must provide all of them.

**Composites** are fusion points: whole elementwise chains (the affine map of
``linear``, the softmax family, batch-norm normalization and its input
adjoint, the dropout mask, the SGD/Adam update rules) exposed as single
methods so a backend may collapse them into fewer temporaries or a single
fused kernel.  :class:`~repro.backend.numpy_backend.NumpyBackend` implements
each composite as the plain, readable numpy expression — that is the
reference semantics alternate backends are validated against.

Structural operations with no numerical content — ``reshape``, ``transpose``,
basic indexing — are *not* part of the surface: they follow numpy semantics
on every backend and stay as plain ndarray calls in the kernels.  Backends
therefore consume and produce numpy ndarrays (or ndarray-compatible duck
arrays): the kernels apply ordinary ndarray glue (broadcast adds, index
gathers) between composite calls, so a device backend must hand back arrays
that ndarray arithmetic accepts.

Backends must be stateless with respect to the arrays they are handed: a
method may mutate only buffers documented as owned by the callee (optimizer
state and parameters in ``sgd_update`` / ``adam_update``); gradients and
activations passed in are read-only.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

__all__ = ["ArrayBackend"]


@runtime_checkable
class ArrayBackend(Protocol):
    """Protocol for swappable ndarray backends (see module docstring)."""

    #: Registry name; also shown in benchmark records.
    name: str

    # ------------------------------------------------------------------ #
    # Primitives: allocation, arithmetic, contractions
    # ------------------------------------------------------------------ #
    def empty(self, shape, dtype) -> np.ndarray:
        """An uninitialised C-contiguous array of ``shape`` (a tuple), the
        caller's like any other.  Every array a kernel creates comes from
        here and is written with ``out=`` (the numpy backends serve large
        requests from :mod:`repro.backend.workspace`)."""
        ...

    def zeros(self, shape, dtype) -> np.ndarray: ...

    def add(self, a, b) -> np.ndarray: ...

    def multiply(self, a, b) -> np.ndarray: ...

    def divide(self, a, b) -> np.ndarray: ...

    def negative(self, a) -> np.ndarray: ...

    def power(self, a, exponent: float) -> np.ndarray: ...

    def matmul(self, a, b) -> np.ndarray: ...

    # ------------------------------------------------------------------ #
    # Primitives: transcendentals
    # ------------------------------------------------------------------ #
    def exp(self, x) -> np.ndarray: ...

    def log(self, x) -> np.ndarray: ...

    def sqrt(self, x) -> np.ndarray: ...

    def tanh(self, x) -> np.ndarray: ...

    # ------------------------------------------------------------------ #
    # Primitives: reductions and structure
    # ------------------------------------------------------------------ #
    def sum(self, x, axis=None, keepdims: bool = False) -> np.ndarray: ...

    def mean(self, x, axis=None, keepdims: bool = False) -> np.ndarray: ...

    def var(self, x, axis=None) -> np.ndarray: ...

    def amax(self, x, axis=None, keepdims: bool = False) -> np.ndarray: ...

    def pad(self, x, pad_width, value: float = 0.0) -> np.ndarray: ...

    # ------------------------------------------------------------------ #
    # Primitives: random draws (always from an explicit Generator)
    # ------------------------------------------------------------------ #
    def random_uniform(self, rng: np.random.Generator, shape) -> np.ndarray: ...

    def standard_normal(self, rng: np.random.Generator, shape) -> np.ndarray: ...

    def uniform(
        self, rng: np.random.Generator, low: float, high: float, shape
    ) -> np.ndarray: ...

    # ------------------------------------------------------------------ #
    # Composites: elementwise chains a backend may fuse
    # ------------------------------------------------------------------ #
    def relu(self, x) -> np.ndarray: ...

    def sigmoid(self, x) -> np.ndarray: ...

    def linear(self, x, w, b: Optional[np.ndarray]) -> np.ndarray:
        """Affine map ``x @ w + b`` (``b`` may be ``None``)."""
        ...

    def softmax(self, z, axis: int) -> np.ndarray: ...

    def softmax_grad(self, g, probs, axis: int) -> np.ndarray:
        """VJP of softmax: ``probs * (g - sum(g * probs))`` as a fresh buffer."""
        ...

    def log_softmax(self, z, axis: int) -> np.ndarray: ...

    def log_softmax_grad(self, g, logp, axis: int) -> np.ndarray: ...

    def xent_grad(self, logp, rows, idx, scale) -> np.ndarray:
        """Cross-entropy logits gradient ``(softmax(logp) - onehot) * scale``.

        ``scale`` is an ndarray already cast to ``logp.dtype`` (a scalar array
        for mean/sum reductions, an ``(N, 1)`` column for ``reduction='none'``).
        """
        ...

    def bn_normalize(
        self, x, mean, inv_std, gamma, beta, bshape: Tuple[int, ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(xhat, out)`` where ``xhat = (x - mean) * inv_std`` and
        ``out = xhat * gamma + beta`` (either affine term may be ``None``).
        ``out`` must never alias ``xhat``: the caller saves ``xhat`` for the
        backward pass and hands ``out`` to downstream ops.
        """
        ...

    def bn_input_grad(self, dxhat, xhat, inv_std, axes, bshape) -> np.ndarray:
        """The three-term batch-norm input adjoint (batch-statistics mode)."""
        ...

    def dropout_mask(
        self, rng: np.random.Generator, shape, p: float, dtype
    ) -> np.ndarray:
        """Inverted-dropout mask: ``(uniform >= p) / (1 - p)`` in ``dtype``."""
        ...

    # ------------------------------------------------------------------ #
    # Composites: fused trace chains (repro.autograd.fusion)
    #
    # Each collapses a matched chain of captured nodes into one call.  The
    # reference implementations run the exact op sequence of the separate
    # kernels, so fused and unfused traces are bit-identical; a backend may
    # collapse the chain into fewer buffers (or one device kernel) as long
    # as it keeps that operation order.
    # ------------------------------------------------------------------ #
    def linear_relu(self, x, w, b: Optional[np.ndarray]) -> np.ndarray:
        """Fused ``relu(x @ w + b)`` (``b`` may be ``None``)."""
        ...

    def bn_normalize_relu(
        self, x, mean, inv_std, gamma, beta, bshape: Tuple[int, ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused batch-norm normalization + relu: ``bn_normalize`` whose
        ``out`` is rectified in addition.  Returns ``(xhat, out)`` with the
        same aliasing contract as :meth:`bn_normalize` (``out`` must never
        alias the saved ``xhat``).
        """
        ...

    # ------------------------------------------------------------------ #
    # Region codegen fusion point
    # ------------------------------------------------------------------ #
    #: Which region node kinds :meth:`compile_region` accepts, as a set of
    #: feature strings: ``"elementwise"`` (the plain REGION_OPS — implied by
    #: having the method at all), ``"reduce"`` (trailing-axes ``sum``/
    #: ``mean`` tails), ``"linear"`` (the GEMM head with fused epilogue).
    #: The fusion pass consults this *before* absorbing a structured node
    #: into a region; a backend that omits the attribute is treated as
    #: elementwise-only, so adding node kinds upstream can never hand an
    #: older backend a program it does not understand.
    region_features: frozenset

    def compile_region(self, region) -> "Callable":
        """Compile one :class:`repro.codegen.region.RegionIR` into a
        ``kernel(arrays, out=None) -> ndarray`` callable.

        This is the fusion pipeline's execution hook: the region pass
        (:mod:`repro.autograd.fusion`) and the serving compiler hand
        extracted regions to the active backend through it.  The returned
        kernel must be **bit-identical** to running the region's op
        sequence through this backend's own primitives — that equality is
        what lets fusion stay on by default.  Backends that cannot honor
        it simply omit the method and their nodes are never region-fused.
        """
        ...

    # ------------------------------------------------------------------ #
    # Composites: optimizer update rules (mutate p and state in place)
    # ------------------------------------------------------------------ #
    def sgd_update(
        self,
        p: np.ndarray,
        g: np.ndarray,
        v: Optional[np.ndarray],
        lr: float,
        momentum: float,
        weight_decay: float,
        nesterov: bool,
    ) -> None:
        """One SGD step.  Mutates ``p`` (and ``v`` when momentum is active,
        initialized to zeros by the caller) in place; must not mutate ``g``.
        """
        ...

    def adam_update(
        self,
        p: np.ndarray,
        g: np.ndarray,
        m: np.ndarray,
        v: np.ndarray,
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
        bc1: float,
        bc2: float,
        weight_decay: float,
    ) -> None:
        """One Adam step with precomputed bias corrections ``bc1``/``bc2``.
        Mutates ``p``, ``m`` and ``v`` in place; must not mutate ``g``.
        """
        ...
