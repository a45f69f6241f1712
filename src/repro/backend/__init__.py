"""Swappable ndarray backends under the autograd kernel surface.

Every numerical operation in the stack — the dense kernels in
:mod:`repro.autograd.functional`, the elementwise ops on
:class:`~repro.autograd.tensor.Tensor`, the optimizer update rules in
:mod:`repro.nn.optim` — dispatches through the *active backend*, an object
implementing the :class:`~repro.backend.base.ArrayBackend` protocol.  One
backend is built in: ``numpy`` —
:class:`~repro.backend.numpy_backend.NumpyBackend`, the plain readable
reference.  Its results define the semantics of the stack and are
bit-identical to the historical inline kernels; any other backend is
validated against it.

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
    "available_backends",
    "default_rng",
    "get_backend",
    "manual_seed",
    "register_backend",
    "set_backend",
    "use_backend",
]
