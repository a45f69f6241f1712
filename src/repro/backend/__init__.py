"""Swappable ndarray backends under the autograd kernel surface.

Every numerical operation in the stack — the dense kernels in
:mod:`repro.autograd.functional`, the elementwise ops on
:class:`~repro.autograd.tensor.Tensor`, the optimizer update rules in
:mod:`repro.nn.optim` — dispatches through the *active backend*, an object
implementing the :class:`~repro.backend.base.ArrayBackend` protocol.  Three
backends are built in:

- ``numpy`` — :class:`~repro.backend.numpy_backend.NumpyBackend`, the plain
  readable reference.  Its results define the semantics of the stack and are
  bit-identical to the historical inline kernels; alternate backends are
  validated against it.
- ``fused`` — :class:`~repro.backend.fused.FusedNumpyBackend`, the same
  operations with elementwise chains collapsed into in-place updates on one
  or two buffers (the ROADMAP's op-fusion direction, delivered below the
  tape so the autograd graph is unchanged).
- ``lazy`` — :class:`~repro.backend.lazy.LazyBackend`, which defers the
  elementwise primitives into pending expression DAGs and flushes each one
  as a single codegen region kernel at forced points (contractions,
  reductions, ``.data`` reads).

Select a backend process-wide with :func:`set_backend`, temporarily with the
:func:`use_backend` context manager, or at startup with the
``REPRO_BACKEND`` environment variable.  Register new backends (an
accelerator, a JIT) with :func:`register_backend`.

The module also hosts the seeded global generator behind
``repro.nn.init.manual_seed`` (see :func:`manual_seed` / :func:`default_rng`)
and the kernel workspace behind ``ArrayBackend.empty``
(:mod:`repro.backend.workspace`).
"""

from repro.backend.base import ArrayBackend
from repro.backend.fused import FusedNumpyBackend
from repro.backend.lazy import LazyArray, LazyBackend, pause_deferral, set_deferral
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.registry import (
    available_backends,
    default_rng,
    get_backend,
    manual_seed,
    register_backend,
    set_backend,
    use_backend,
)

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "FusedNumpyBackend",
    "LazyArray",
    "LazyBackend",
    "available_backends",
    "default_rng",
    "get_backend",
    "manual_seed",
    "pause_deferral",
    "register_backend",
    "set_backend",
    "set_deferral",
    "use_backend",
]
