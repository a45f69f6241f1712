"""What a process loads: each entry point imports only the layers it runs.

``repro.serve``, ``repro.autograd``, ``repro.codegen`` and ``repro.obs``
resolve some of their names on first access (PEP 562), so a trainer or a
bare inference session never compiles the serving front end, the fusion
pass or the gradient checker.  The import sets are checked in fresh
interpreters that write no bytecode, as the benchmark's children run; the
package surfaces in this one.
"""

import importlib
import os
import subprocess
import sys
import textwrap

import pytest

#: The serving front end and what it pulls in.
FRONT_END = ["repro.serve.frontend", "repro.serve.procpool", "repro.serve.arena",
             "repro.serve.aio", "repro.serve.faults", "repro.serve.resilience",
             "multiprocessing", "concurrent.futures"]
#: The process front end alone.
PROCESS = ["repro.serve.procpool", "repro.serve.arena", "multiprocessing"]

_MODEL = """
    import sys
    import numpy as np
    from repro.models import TBNet, make_synthetic_batch

    model = TBNet(width=16, rng=np.random.default_rng(1))
    images, context, labels = make_synthetic_batch(4, rng=np.random.default_rng(2))
"""

ENTRY_POINTS = {
    # The benchmark's train cells: the workloads' imports, five steps (the
    # third captures, the rest replay).
    "train_step": ("""
        from repro import nn
        from repro.autograd import Tensor, no_grad
        from repro.nn.optim import Adam
        from repro.serve import compile_inference

        optimizer = Adam(model.parameters(), 1e-3)
        for _ in range(5):
            model.train_step(optimizer, images, context, labels)
    """, FRONT_END + ["repro.autograd.fusion", "repro.autograd.grad_check",
                      "repro.codegen.region"]),
    "compile_serving": ("""
        session = model.compile_serving(1)
        session.run(images.data[:1], context.data[:1])
    """, FRONT_END),
    "serve": ("""
        with model.serve() as server:
            for i in range(4):
                server(images.data[i:i + 1], context.data[i:i + 1])
    """, PROCESS),
}


def _run(tmp_path, *pieces: str) -> str:
    """The script of ``pieces`` in a fresh interpreter under the default
    configuration, with no bytecode written; its stdout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1",
               REPRO_KERNEL_CACHE=str(tmp_path / "kernels"))
    script = "".join(textwrap.dedent(piece) for piece in pieces)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_an_entry_point_loads_only_the_layers_it_runs(entry, tmp_path):
    body, never = ENTRY_POINTS[entry]
    check = f"print(sorted(m for m in {never!r} if m in sys.modules))\n"
    assert _run(tmp_path, _MODEL, body, check).split() == ["[]"]


def test_no_worker_thread_imports(tmp_path):
    # Everything a server needs is imported on the calling thread by the
    # entry point: a fork while a worker, watchdog or compile thread held
    # the import lock would hand the child a lock nobody releases.
    script = """
    images, context, _ = make_synthetic_batch(100, rng=np.random.default_rng(3))
    for mode, options in (("thread", {}), ("process", {"start_method": "fork"})):
        server = model.serve(workers_mode=mode, start=False, **options)
        loaded = {m for m in sys.modules if m.startswith("repro")}
        with server:
            for i in range(100):
                server(images.data[i:i + 1], context.data[i:i + 1])
        print(mode, sorted({m for m in sys.modules if m.startswith("repro")} - loaded))
    """
    assert _run(tmp_path, _MODEL, script).splitlines() == ["thread []", "process []"]


#: Package -> defining module -> the public names it defines.  A name bound
#: to a module (``repro.autograd.fusion``) is listed under itself.
SURFACES = {
    "repro.serve": {
        "aio": ["AsyncServer"],
        "arena": ["ParamArena", "RequestRing"],
        "faults": ["FaultInjector", "PoisonedRequest", "inject_faults"],
        "frontend": ["DEFAULT_BUCKETS", "Server", "SessionPool"],
        "procpool": ["ProcServer"],
        "resilience": ["BACKPRESSURE_MODES", "DeadlineExceeded", "RetryPolicy",
                       "ServerOverloaded", "SupervisionPolicy", "TransientError",
                       "WorkerKill"],
        "session": ["InferenceSession", "compile_inference", "serve_batches"],
    },
    "repro.autograd": {
        "tensor": ["Tensor", "no_grad", "is_grad_enabled"],
        "functional": ["functional"],
        "ir": ["ir"],
        "fusion": ["fusion"],
        "grad_check": ["numerical_gradient", "check_gradients"],
    },
    "repro.obs": {
        "http": ["ObsHTTPServer"],
        "metrics": ["DEFAULT_LATENCY_BUCKETS_MS", "NULL_REGISTRY", "Counter", "Gauge",
                    "Histogram", "NullRegistry", "Registry", "get_registry"],
        "profile": ["Profiler", "active_profiler", "disable_profiler", "enable_profiler",
                    "using_profiler"],
        "trace": ["Span", "Tracer"],
    },
    "repro.codegen": {
        "jit": ["clear_kernel_memo", "codegen_enabled", "codegen_stats", "compile_region",
                "enable_codegen", "have_compiler", "ingest_worker_codegen_stats",
                "kernel_cache_dir", "using_codegen", "wait_for_compiles"],
        "region": ["REGION_OPS", "REGION_STRUCTURED_OPS", "RegionInput", "RegionIR"],
    },
}


@pytest.mark.parametrize("package", sorted(SURFACES))
def test_a_lazy_surface_binds_the_defining_modules_objects(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    defined = SURFACES[package]
    assert sorted(module.__all__) == sorted(name for names in defined.values() for name in names)
    assert set(namespace) - {"__builtins__"} == set(module.__all__)
    for source, names in defined.items():
        owner = importlib.import_module(f"{package}.{source}")
        for name in names:
            want = owner if name == source else getattr(owner, name)
            assert namespace[name] is want and getattr(module, name) is want, name
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'nope'"):
        module.nope
