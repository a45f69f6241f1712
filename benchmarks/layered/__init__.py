"""The repository's layered benchmark: eight workloads, end-to-end metrics,
per-module layer metrics and a traced run.  See README.md beside this file.
"""
