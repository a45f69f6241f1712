"""Benchmarks for the repro engine; two entry points.

``benchmarks/layered/run.py`` is the repository benchmark (declared in
``BENCHMARK.json``): eight end-to-end workloads, each in a fresh process,
with per-layer readings and a ``--compare`` of two result sets::

    python3 benchmarks/layered/run.py --smoke

``benchmarks/gates.py`` is CI's performance gate: fusion, batch-1
inference, process-vs-thread serving and observability overhead ratios,
each printed beside its bound, exit status 1 on a miss::

    PYTHONPATH=src python benchmarks/gates.py
"""
