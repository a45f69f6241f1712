"""The ndarray backend under the autograd kernel surface.

Every numerical operation in the stack — the dense kernels in
:mod:`repro.autograd.functional`, the elementwise ops on
:class:`~repro.autograd.tensor.Tensor`, the optimizer update rules in
:mod:`repro.nn.optim` — dispatches through one
:class:`~repro.backend.numpy_backend.NumpyBackend`, returned by
:func:`get_backend`.  Its methods define the semantics of the stack; every
other arm (replayed steps, compiled stages, serving sessions) matches them
byte for byte.

The module also hosts the seeded global generator behind
``repro.nn.init.manual_seed`` (see :func:`manual_seed` / :func:`default_rng`)
and the kernel workspace behind ``NumpyBackend.empty``
(:mod:`repro.backend.workspace`).
"""

from repro.backend.numpy_backend import NumpyBackend
from repro.backend.registry import default_rng, get_backend, manual_seed

__all__ = ["NumpyBackend", "default_rng", "get_backend", "manual_seed"]
