"""Reverse-mode automatic differentiation over numpy arrays.

This subpackage is the lowest layer of the reproduction: a small but complete
autograd engine that the neural-network layers in :mod:`repro.nn` are built on.
It provides a :class:`~repro.autograd.tensor.Tensor` type that records the
operations applied to it and can back-propagate gradients through the recorded
graph, plus the dense numerical kernels (im2col convolution, pooling, softmax
cross-entropy) in :mod:`repro.autograd.functional`.

The public surface is intentionally close to a small subset of PyTorch so that
the TBNet algorithms read like the paper's pseudo-code.

Importing the package loads the tape (:mod:`~repro.autograd.tensor`,
:mod:`~repro.autograd.ir`) and the kernels (:mod:`~repro.autograd.functional`)
only: what every process runs.  :mod:`repro.autograd.fusion` (with the region
IR under it) loads with the first compiled serving session, and
:func:`numerical_gradient` / :func:`check_gradients` on first access — a
training process pays for neither.
"""

from repro import _lazy
from repro.autograd.tensor import Tensor, no_grad, is_grad_enabled
from repro.autograd import functional
from repro.autograd import ir

__getattr__, __dir__ = _lazy(__name__, {
    "fusion": "fusion",
    "numerical_gradient": "grad_check",
    "check_gradients": "grad_check",
})

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "ir",
    "fusion",
    "numerical_gradient",
    "check_gradients",
]
