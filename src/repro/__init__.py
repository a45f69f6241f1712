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

__version__ = "0.6.0"
