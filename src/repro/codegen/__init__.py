"""Codegen: region IR and stage plans → compiled C loops.

See :mod:`repro.codegen.region` for the IR and its stage plan,
:mod:`repro.codegen.cstage` for the C renderer, and
:mod:`repro.codegen.jit` for compilation, the on-disk kernel cache, and
the numpy-interpreter fallback arm.
"""

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
from repro.codegen.region import (
    REGION_OPS,
    REGION_STRUCTURED_OPS,
    RegionInput,
    RegionIR,
)

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
