"""Self-test of the layered benchmark (collected by the tier-1 command).

Checks structure, never speed: the smoke run emits every workload and
metric ``BENCHMARK.json`` names, the span recorder's self-time arithmetic is
right on a hand-built tree, and schedules are a pure function of the seed.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from benchmarks.layered import loadgen, spec, stats
from benchmarks.layered.spans import SpanRecorder

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_harness_tables():
    contract = _contract()
    assert contract == spec.benchmark_json()
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in contract["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])


def test_smoke_run_emits_every_named_workload_and_metric():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "layered" / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    contract = _contract()
    assert result["correct"]
    named = {w["name"] for w in contract["workloads"]}
    assert named == set(result["workloads"]) | set(result["skipped"])
    assert set(result["skipped"]) <= {"serve_proc_hi"}
    e2e_units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    for name, line in result["workloads"].items():
        assert line["attempted"] >= 1 and line["failed"] == 0, name
        emitted = {k: v["unit"] for k, v in line["metrics"].items()}
        assert emitted == e2e_units, name
        assert all(v["value"] > 0 for v in line["metrics"].values()), name
    layer_units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    traced = result["traced"]["metrics"]
    assert {k: v["unit"] for k, v in traced.items()} == layer_units
    assert all(isinstance(v["value"], (int, float)) for v in traced.values())


def test_span_self_time_is_duration_minus_union_of_children():
    rec = SpanRecorder()
    root = rec.add("step", 0.0, 10.0, trace=1)
    a = rec.add("forward", 1.0, 4.0, trace=1, parent=root)
    rec.add("backward", 3.0, 6.0, trace=1, parent=root)   # overlaps forward
    rec.add("late", 9.0, 12.0, trace=1, parent=root)      # sticks out
    rec.add("kernel", 2.0, 3.0, trace=1, parent=a)        # grandchild
    selves = dict(zip(rec.names, rec.self_times()))
    assert selves["step"] == 10.0 - (5.0 + 1.0)   # [1,6] and [9,10]
    assert selves["forward"] == 3.0 - 1.0
    assert selves["backward"] == 3.0 and selves["kernel"] == 1.0
    assert rec.by_name(rec.durations())["late"] == [3.0]
    events = rec.chrome_trace()["traceEvents"]
    assert len(events) == 5 and events[1]["args"] == {"trace_id": 1, "parent": root}


def test_span_recorder_drops_beyond_its_limit():
    rec = SpanRecorder(limit=2)
    assert [rec.add("s", 0.0, 1.0, i) for i in range(3)] == [0, 1, -1]
    assert len(rec) == 2 and rec.dropped == 1


def test_schedule_and_sizes_are_a_pure_function_of_the_seed():
    a = loadgen.poisson_schedule(7, 200.0, 500)
    assert np.array_equal(a, loadgen.poisson_schedule(7, 200.0, 500))
    assert not np.array_equal(a, loadgen.poisson_schedule(8, 200.0, 500))
    assert np.all(np.diff(a) > 0) and abs(a[-1] - 2.5) < 0.5
    sizes = loadgen.request_sizes(7, 500)
    assert np.array_equal(sizes, loadgen.request_sizes(7, 500))
    assert not np.array_equal(sizes, loadgen.request_sizes(8, 500))
    assert set(sizes.tolist()) <= set(loadgen.MIXED_SIZES)


def test_verdict_same_worse_unresolved():
    base = [10.0, 10.1, 9.9, 10.0, 10.2]
    assert stats.verdict(base, [10.3, 10.2, 10.4, 10.3, 10.1], "lower", 0.1) == "same"
    assert stats.verdict(base, [12.0, 12.1, 11.9, 12.0, 12.2], "lower", 0.1) == "worse"
    assert stats.verdict(base, [8.0, 12.5, 10.0, 14.0, 9.0], "lower", 0.1) == "unresolved"
    # Every new reading better than every base reading resolves a wide spread.
    assert stats.verdict([10.0, 14.0, 12.0, 16.0], [5.0, 9.0, 6.0, 8.0], "lower", 0.1) == "same"
    assert stats.verdict(base, [8.0, 8.1, 7.9, 8.0, 8.2], "higher", 0.1) == "worse"
