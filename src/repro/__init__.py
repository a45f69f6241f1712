"""Reproduction package for conf_dac_Liu0L024.

Layers:

- :mod:`repro.backend` — the kernel workspace and the process-wide seeded
  generator.
- :mod:`repro.autograd` — the define-by-run tape engine (reified as a graph
  IR of explicit nodes), the dense kernels, and the compile-time fusion
  pass over captured traces (:mod:`repro.autograd.fusion`), computing with
  numpy directly.
- :mod:`repro.nn` — Module/Parameter containers, layers, init schemes and
  optimizers over the fused kernels.
- :mod:`repro.models` — reference models; :class:`~repro.models.tbnet.TBNet`
  is the paper's two-branch network.
- :mod:`repro.serve` — the serving stack: compiled ``no_grad`` trace
  replay (:class:`~repro.serve.InferenceSession`), bucketed session pools
  for dynamic batch shapes, and the request-queue front end with sharded
  workers (:class:`~repro.serve.Server`).
"""

import importlib
import sys

__version__ = "0.6.0"


def _lazy(package: str, defined_in: dict):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of ``package``, which
    import each name of ``defined_in`` (name -> defining submodule; a name
    equal to its submodule is the submodule itself) on first access and
    bind it in the package."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name not in defined_in:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{defined_in[name]}")
        value = namespace[name] = module if name == defined_in[name] else getattr(module, name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(defined_in))

    return __getattr__, __dir__
