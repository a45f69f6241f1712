"""Codegen: region IR and stage plans → compiled C loops.

See :mod:`repro.codegen.region` for the IR and its stage plan,
:mod:`repro.codegen.cstage` for the C renderer, and
:mod:`repro.codegen.jit` for compilation, the on-disk kernel cache, and
the numpy-interpreter fallback arm.

The region IR (:mod:`repro.codegen.region`: ``RegionIR``, ``RegionInput``,
``REGION_OPS``, ``REGION_STRUCTURED_OPS``) loads on first access (PEP 562),
with the fusion pass that builds regions: a train step's stages are
``cstage`` plans of their own, so a training process never loads it.
"""

from repro import _lazy
from repro.codegen.jit import (
    clear_kernel_memo,
    codegen_enabled,
    codegen_stats,
    compile_region,
    enable_codegen,
    have_compiler,
    ingest_worker_codegen_stats,
    kernel_cache_dir,
    using_codegen,
    wait_for_compiles,
)

__getattr__, __dir__ = _lazy(__name__, dict.fromkeys(
    ("REGION_OPS", "REGION_STRUCTURED_OPS", "RegionInput", "RegionIR"), "region"))

__all__ = [
    "REGION_OPS",
    "REGION_STRUCTURED_OPS",
    "RegionInput",
    "RegionIR",
    "clear_kernel_memo",
    "codegen_enabled",
    "codegen_stats",
    "compile_region",
    "enable_codegen",
    "have_compiler",
    "ingest_worker_codegen_stats",
    "kernel_cache_dir",
    "using_codegen",
    "wait_for_compiles",
]
