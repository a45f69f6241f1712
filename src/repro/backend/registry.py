"""Process-wide backend registry and the seeded global random generator.

The active backend is a single process-wide slot (like torch's default
device): :func:`set_backend` swaps it, :func:`use_backend` swaps it for the
duration of a ``with`` block and restores the previous backend even when the
block raises, and :func:`get_backend` is the cheap accessor every kernel
calls on its hot path.

Backends are registered by name; ``numpy`` (the plain reference) is the one
built in and the default, overridable with the ``REPRO_BACKEND``
environment variable once a program has registered another.

This module also owns the **seeded global generator**: the stream that
``repro.nn.init.manual_seed`` resets and that every default random draw in
the stack (layer init, ``Tensor.randn``/``uniform``, the dropout mask) falls
back to when no explicit ``rng`` is passed.  It lives here, below
``repro.autograd``, so the kernels can reach it without a layering inversion.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from repro.backend.base import ArrayBackend
from repro.backend.numpy_backend import NumpyBackend

__all__ = [
    "available_backends",
    "default_rng",
    "get_backend",
    "get_rng_state",
    "manual_seed",
    "register_backend",
    "set_backend",
    "set_rng_state",
    "use_backend",
]

_REGISTRY: Dict[str, ArrayBackend] = {}
_registry_lock = threading.Lock()


def register_backend(backend: ArrayBackend, name: str = None, overwrite: bool = False) -> ArrayBackend:
    """Register ``backend`` under ``name`` (defaults to ``backend.name``).

    Re-registering an existing name raises unless ``overwrite=True``, so a
    typo cannot silently shadow the reference backend.
    """
    name = name if name is not None else backend.name
    with _registry_lock:
        if name in _REGISTRY and not overwrite:
            raise ValueError(
                f"backend {name!r} is already registered; pass overwrite=True to replace it"
            )
        _REGISTRY[name] = backend
    return backend


def available_backends() -> List[str]:
    """Names of all registered backends, sorted."""
    return sorted(_REGISTRY)


def get_backend() -> ArrayBackend:
    """The active backend every kernel dispatches through.

    The first call resolves the ``REPRO_BACKEND`` environment choice
    **lazily**, so a program may ``register_backend()`` a third-party backend
    after import and still select it via the environment variable; an unknown
    name raises only once something actually asks for a backend.
    """
    global _active
    if _active is None:
        choice = os.environ.get("REPRO_BACKEND", "").strip() or "numpy"
        try:
            _active = _REGISTRY[choice]
        except KeyError:
            raise RuntimeError(
                f"REPRO_BACKEND={choice!r} does not name a registered backend; "
                f"available: {available_backends()}"
            ) from None
    return _active


def set_backend(backend: Union[str, ArrayBackend]) -> ArrayBackend:
    """Make ``backend`` (a registered name or an instance) the active one."""
    global _active
    if isinstance(backend, str):
        try:
            backend = _REGISTRY[backend]
        except KeyError:
            raise KeyError(
                f"unknown backend {backend!r}; available: {available_backends()}"
            ) from None
    _active = backend
    return backend


@contextlib.contextmanager
def use_backend(backend: Union[str, ArrayBackend]) -> Iterator[ArrayBackend]:
    """Context manager: activate ``backend``, restoring the previous active
    backend on exit — including when the body raises."""
    previous = get_backend()
    active = set_backend(backend)
    try:
        yield active
    finally:
        set_backend(previous)


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


# --------------------------------------------------------------------------- #
# The built-in backend; the default (numpy, or $REPRO_BACKEND) is resolved
# lazily by the first get_backend() call — see its docstring.
# --------------------------------------------------------------------------- #
register_backend(NumpyBackend())

_active: Optional[ArrayBackend] = None
