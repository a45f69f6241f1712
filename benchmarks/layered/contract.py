"""From a child's record to the one JSON line the driver reads (stdlib only)."""

from __future__ import annotations

import os
import statistics

from benchmarks.layered import spec

#: Open-loop workloads complete what the schedule offers, so their rate is
#: reported as measured.  Every other sliced reading is CPU-bound and is
#: reported at the calibration probe's reference speed (see hygiene.py).
OPEN_LOOP = ("serve_thread_lo", "serve_thread_hi", "serve_proc_hi")



def skip_reason(workload: str):
    """Why this machine cannot run ``workload`` honestly, or ``None``.

    A worker process needs a core of its own beside the front end's; on
    fewer the process-against-thread difference says nothing, so no number
    is published.
    """
    cores = os.cpu_count() or 1
    if workload == "serve_proc_hi" and cores < 2:
        return ("serve_proc_hi needs a core per worker process plus one for "
                f"the front end; this machine has {cores}")
    return None


_SLICED = ("latency_ms_p50", "samples_per_s", "cpu_ms_per_op")


def _arm(workload: str, metric: str) -> str:
    return "raw" if metric == "samples_per_s" and workload in OPEN_LOOP else "cal"


def end_to_end_values(record: dict) -> dict:
    """The reported value of every end-to-end metric of one run."""
    e2e = record["e2e"]
    name = record["workload"]
    values = {metric: e2e[metric][_arm(name, metric)]["median"]
              for metric in _SLICED}
    values["slo_ok_frac"] = e2e["slo_ok_frac"]
    values["peak_rss_mb"] = record["peak_rss_mb"]
    values["setup_s"] = statistics.median(s["cal"] for s in record["setups"])
    return values


def slice_quartiles(record: dict) -> dict:
    """Quartiles over the run's slices, for the metrics that have slices."""
    name = record["workload"]
    return {metric: record["e2e"][metric][_arm(name, metric)]
            for metric in _SLICED}


def contract_line(record: dict, trace: bool) -> dict:
    e2e = record["e2e"]
    failures = len(record["check_failures"])
    if trace:
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
        values = record["layer"]
    else:
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
        values = end_to_end_values(record)
    return {
        "correct": failures == 0 and e2e["failed"] == 0,
        "attempted": e2e["attempted"],
        "failed": e2e["failed"] + failures,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
