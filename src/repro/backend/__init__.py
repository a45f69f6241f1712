"""What the autograd kernels stand on, below :mod:`repro.autograd`.

The kernels in :mod:`repro.autograd.functional`, the elementwise ops on
:class:`~repro.autograd.tensor.Tensor` and the optimizer update rules in
:mod:`repro.nn.optim` call numpy directly.  This package holds the two things
they share: the kernel workspace their large results come from
(:mod:`repro.backend.workspace`) and the seeded global generator behind
``repro.nn.init.manual_seed`` (see :func:`manual_seed` / :func:`default_rng`).
:func:`get_backend` returns the ``numpy`` module.
"""

from repro.backend.registry import default_rng, get_backend, manual_seed

__all__ = ["default_rng", "get_backend", "manual_seed"]
