"""The seeded global random generator, and :func:`get_backend`.

The **seeded global generator** is the stream that
``repro.nn.init.manual_seed`` resets and that every default random draw in
the stack (layer init, ``Tensor.randn``/``uniform``, the dropout mask) falls
back to when no explicit ``rng`` is passed.  It lives here, below
``repro.autograd``, so the kernels can reach it without a layering inversion.

The kernels call numpy directly; :func:`get_backend` returns the ``numpy``
module for callers outside the package that still ask for it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "default_rng",
    "get_backend",
    "get_rng_state",
    "manual_seed",
    "set_rng_state",
]


def get_backend():
    """The ``numpy`` module: what the kernels compute with."""
    return np


# --------------------------------------------------------------------------- #
# Seeded global generator
# --------------------------------------------------------------------------- #
_global_rng = np.random.default_rng()


def manual_seed(seed: int) -> np.random.Generator:
    """Reset the global generator used by every default random draw."""
    global _global_rng
    _global_rng = np.random.default_rng(int(seed))
    return _global_rng


def default_rng() -> np.random.Generator:
    """The current global generator (see :func:`manual_seed`)."""
    return _global_rng


def get_rng_state() -> dict:
    """A picklable snapshot of the global generator's state.

    :class:`~repro.serve.procpool.ProcServer` ships this to worker
    processes so seeded randomness carries across ``fork`` *and* ``spawn``
    start methods; :func:`set_rng_state` applies it on the other side.
    """
    return _global_rng.bit_generator.state


def set_rng_state(state: dict) -> np.random.Generator:
    """Install a state captured by :func:`get_rng_state` into a fresh
    global generator (the bit-generator class comes from the snapshot)."""
    global _global_rng
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    _global_rng = np.random.Generator(bit_generator)
    return _global_rng
