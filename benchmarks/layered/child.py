"""The measuring subprocess: one workload, one fresh interpreter.

Started by :mod:`benchmarks.layered.__main__` with the environment of
:func:`benchmarks.layered.hygiene.child_env` already in place, so BLAS is
pinned before numpy is imported.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

_pc = time.perf_counter


def measure(name: str, seed: int, seconds: float, mode: str, scratch: Path) -> dict:
    """``mode``: ``run`` (untraced window), ``setup`` (set-up only) or
    ``trace`` (short untraced and traced windows, then the layer drives)."""
    from benchmarks.layered.hygiene import (
        CALIB_REF_MS, Calibrator, machine_record, peak_rss_mb)

    calib = Calibrator()
    calib.burst(20)  # warm the probe's own caches
    probe_before = calib.burst(9)
    import_start = _pc()
    from benchmarks.layered import workloads
    import_s = _pc() - import_start

    workload = workloads.make(name, seed, calib)
    try:
        workload.setup()
        probe = (probe_before + calib.burst(9)) / 2.0
        setup_raw = import_s + workload.setup_s
        result = {
            "workload": name, "seed": seed, "seconds": seconds, "mode": mode,
            "setup_s": {"raw": setup_raw, "cal": setup_raw * CALIB_REF_MS / probe,
                        "import_s": import_s, "calib_ms": probe},
        }
        if mode == "setup":
            return result
        result["machine"] = machine_record()
        gc.collect()
        gc.freeze()
        if mode == "run":
            window = workload.run(seconds)
            result["e2e"] = workload.reduce(window)
            result["extra"] = window.extra
        else:
            result.update(_traced(workload, seconds, scratch))
        result["checks"] = workload.verify()
        result["peak_rss_mb"] = peak_rss_mb(workload.pids())
    finally:
        workload.close()
    result["check_failures"] = workload.check_failures
    return result


def _traced(workload, seconds: float, scratch: Path) -> dict:
    from benchmarks.layered import layers
    from benchmarks.layered.spans import SpanRecorder

    # Untraced and traced windows alternate, an eighth of the run each, so
    # both see the same machine states: their ratio is the cost of looking.
    recorder = SpanRecorder()
    plain, with_spans = [], []
    for _ in range(2):
        plain.append(workload.reduce(workload.run(seconds / 8.0)))
        workload.recorder = recorder
        window = workload.run(seconds / 8.0)
        workload.recorder = None
        with_spans.append(workload.reduce(window))
    traced = with_spans[-1]
    overhead = (sum(r["latency_ms_p50"]["cal"]["median"] for r in with_spans)
                / sum(r["latency_ms_p50"]["cal"]["median"] for r in plain) - 1.0)
    metrics = {"obs.trace_overhead_frac": overhead}
    metrics.update(layers.workload_codegen_counts())
    drive = layers.Drive(workload.calib, scale=seconds / 10.0)
    if workload.kind == "train":
        factor = (traced["latency_ms_p50"]["cal"]["median"]
                  / traced["latency_ms_p50"]["raw"]["median"])
        parts, step = layers.train_parts(recorder, factor)
    else:
        parts, step = layers.drive_train_parts(
            drive, workload.batch, workload.seed)
    if workload.kind == "serve":
        latency = traced["latency_ms_p50"]["raw"]["median"]
        front = layers.frontend_metrics(workload, window, latency)
    else:
        front, latency = layers.drive_frontend(drive, workload.seed)
    attribution = {
        "train_step": dict(step, at_batch=workload.batch,
                           from_workload=workload.kind == "train"),
        "served_request": {
            "latency_ms_p50": latency,
            "queue_wait_ms_p50": front["frontend.queue_wait_ms_p50"],
            "service_ms_p50": front["frontend.service_ms_p50"],
            "unattributed_ms": front["frontend.unattributed_ms"],
            "from_workload": workload.kind == "serve"},
    }
    metrics.update(parts)
    drives = layers.all_drives(drive, workload, scratch)
    for key in ("procpool.pipe_fallbacks", "procpool.respawns"):
        front[key] = front.get(key, 0) + drives.pop(key)  # both servers' counts
    metrics.update(drives)
    metrics.update(front)
    trace_path = (Path(__file__).resolve().parent / "out"
                  / f"trace-{workload.name}-{workload.seed}.json")
    recorder.write(trace_path)
    return {"e2e": traced, "e2e_untraced": plain[-1], "extra": window.extra,
            "layer": metrics, "attribution": attribution,
            "trace_file": str(trace_path), "spans": len(recorder)}


def smoke(seed: int, seconds: float, scratch: Path) -> dict:
    """Every workload's untraced window for a fraction of a second in this
    one interpreter, then one traced run (all per-layer metrics)."""
    from benchmarks.layered.contract import contract_line, skip_reason
    from benchmarks.layered.spec import WORKLOADS

    lines, skipped = {}, {}
    for name in WORKLOADS:
        if skip_reason(name):
            skipped[name] = skip_reason(name)
            continue
        record = measure(name, seed, seconds, "run", scratch)
        record["setups"] = [record["setup_s"]]
        lines[name] = contract_line(record, trace=False)
    record = measure("train_b4", seed, 4 * seconds, "trace", scratch)
    record["setups"] = [record["setup_s"]]
    traced = contract_line(record, trace=True)
    return {"correct": traced["correct"] and all(
                line["correct"] for line in lines.values()),
            "workloads": lines, "skipped": skipped, "traced": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.layered.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "setup", "trace", "smoke"), required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.mode == "smoke":
        result = smoke(args.seed, args.seconds, args.scratch)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.mode,
                         args.scratch)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
