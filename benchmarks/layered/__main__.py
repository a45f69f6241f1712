"""The layered benchmark's command line (the parent process; stdlib only).

    python3 benchmarks/layered/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/layered/run.py --seed N [--runs R] [--trace 1] --out SET.json
    python3 benchmarks/layered/run.py --compare A.json B.json
    python3 benchmarks/layered/run.py --smoke

Each workload runs in a fresh subprocess (:mod:`benchmarks.layered.child`)
under the environment of :func:`benchmarks.layered.hygiene.child_env`.
The last line printed for ``--workload`` is the one JSON object the driver
reads: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.layered import hygiene, spec, stats
from benchmarks.layered.contract import (
    contract_line, end_to_end_values, skip_reason, slice_quartiles)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170.0

#: Cold set-ups per run beside the measuring child's own; the median of all
#: of them is reported.
EXTRA_SETUPS = 4


class Skipped(Exception):
    """The workload cannot run honestly on this machine: no number."""


def _child(workload: str, seed: int, seconds: float, mode: str,
           scratch: Path) -> dict:
    """Run one measuring subprocess to its end and parse its last line."""
    scratch.mkdir(parents=True, exist_ok=True)
    env, scrubbed = hygiene.child_env(ROOT, scratch)
    command = [sys.executable, "-m", "benchmarks.layered.child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--mode", mode,
               "--scratch", str(scratch)]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise RuntimeError(f"{workload} ({mode}) exceeded {CHILD_TIMEOUT_S:.0f} s")
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} ({mode}) exited with {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["repro_env_scrubbed"] = scrubbed
    return result


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _group_alive(pgid: int) -> bool:
    """Whether any process of the group is still running.  A zombie has
    ended (multiprocessing never waits for its resource tracker, so init
    reaps it a moment later) and does not count."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _reap_group(pgid: int, patience_s: float = 5.0) -> None:
    """Wait until nothing the child started (workers, resource tracker) is
    left running in its process group; kill what outlives ``patience_s``."""
    deadline = time.monotonic() + patience_s
    while _group_alive(pgid):
        if time.monotonic() >= deadline:
            _kill_group(pgid)
            deadline = time.monotonic() + patience_s
        time.sleep(0.01)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: the child's record plus the contract line."""
    if name not in spec.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; known: {list(spec.WORKLOADS)}")
    reason = skip_reason(name)
    if reason:
        raise Skipped(reason)
    scratch = OUT / f"tmp-{os.getpid()}-{name}"
    try:
        record = _child(name, seed, seconds, "trace" if trace else "run",
                        scratch / "main")
        setups = [record["setup_s"]]
        if not trace:
            for i in range(EXTRA_SETUPS):
                setups.append(_child(name, seed, seconds, "setup",
                                     scratch / f"setup{i}")["setup_s"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["setups"] = setups
    record["line"] = contract_line(record, trace)
    return record


# --------------------------------------------------------------------- #
# Human-readable report
# --------------------------------------------------------------------- #
def report(record: dict, trace: bool) -> None:
    name = record["workload"]
    e2e = record["e2e"]
    print(f"== {name}  seed={record['seed']}  seconds={record['seconds']}  "
          f"{'traced' if trace else 'untraced'}")
    print(f"   attempted={e2e['attempted']} succeeded="
          f"{e2e['attempted'] - e2e['failed']} failed={e2e['failed']} "
          f"check_failures={record['check_failures']}")
    calib = e2e["calib_ms"]
    print(f"   calib_ms median={calib['median']:.4f} q1={calib['q1']:.4f} "
          f"q3={calib['q3']:.4f} (reference {hygiene.CALIB_REF_MS}) "
          f"slices={e2e['slices']}")
    for metric in ("latency_ms_p50", "samples_per_s", "cpu_ms_per_op"):
        for arm in ("cal", "raw"):
            q = e2e[metric][arm]
            print(f"   {metric:<16} {arm}  median={q['median']:.5g} "
                  f"q1={q['q1']:.5g} q3={q['q3']:.5g} n={q['n']}")
    print(f"   slo_ok_frac      {e2e['slo_ok_frac']:.5f} slice median, "
          f"{e2e['slo_ok_frac_pooled']:.5f} of all sent "
          f"(limit {spec.WORKLOADS[name].slo_ms} ms)")
    for key, value in sorted(record.get("extra", {}).items()):
        print(f"   {key} = {value}")
    for key, value in sorted(record.get("checks", {}).items()):
        print(f"   check {key} = {value}")
    for setup in record["setups"]:
        print(f"   setup_s cal={setup['cal']:.4f} raw={setup['raw']:.4f} "
              f"(import {setup['import_s']:.4f}, calib_ms {setup['calib_ms']:.4f})")
    if trace:
        for what, parts in record["attribution"].items():
            print(f"   attribution {what}: {json.dumps(parts)}")
        step = record["attribution"]["train_step"]
        gap = abs(step["parts_ms"] - step["step_ms"]) / step["step_ms"]
        print(f"   train step parts sum to {step['parts_ms']:.4f} ms of "
              f"{step['step_ms']:.4f} ms: off by {gap:.2%} "
              f"({'within' if gap <= 0.05 else 'OUTSIDE'} 5%)")
        print(f"   trace: {record['spans']} spans -> {record['trace_file']}")
    line = record["line"]
    for metric, entry in line["metrics"].items():
        print(f"   {metric} = {entry['value']:.6g} {entry['unit']}")


# --------------------------------------------------------------------- #
# Sets and their comparison
# --------------------------------------------------------------------- #
def run_set(seed: int, seconds: float, runs: int, trace: bool) -> dict:
    """``runs`` untraced runs of every workload (and one traced, when asked)."""
    result = {"seed": seed, "seconds": seconds, "workloads": {}, "skipped": {}}
    for name in spec.WORKLOADS:
        entry = {"runs": [], "slices": [], "lines": [], "checks": []}
        try:
            for _ in range(runs):
                record = run_workload(name, seed, seconds, trace=False)
                report(record, trace=False)
                entry["runs"].append(end_to_end_values(record))
                entry["slices"].append(slice_quartiles(record))
                entry["lines"].append(_counts(record["line"]))
                entry["checks"].append(record["checks"])
                result["machine"] = record["machine"]
            if trace:
                traced = run_workload(name, seed, seconds, trace=True)
                report(traced, trace=True)
                entry["per_layer"] = traced["layer"]
                entry["attribution"] = traced["attribution"]
                entry["lines"].append(_counts(traced["line"]))
            result["workloads"][name] = entry
        except Skipped as skipped:
            print(f"== {name}: skipped: {skipped}")
            result["skipped"][name] = str(skipped)
    return result


def _counts(line: dict) -> dict:
    """A result line without its metrics (a set stores those once)."""
    return {key: line[key] for key in ("correct", "attempted", "failed")}


def compare(path_a: Path, path_b: Path) -> int:
    """One row per (workload, end-to-end metric); non-zero on ``worse``."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    worse = 0
    print(f"{'workload':<16} {'metric':<15} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'B/A':>7}  verdict")
    for name in spec.WORKLOADS:
        if name not in a["workloads"] or name not in b["workloads"]:
            print(f"{name:<16} skipped in {'A' if name not in a['workloads'] else 'B'}")
            continue
        for metric, _unit, better, bound in spec.END_TO_END:
            va, vb = (_readings(s["workloads"][name], metric) for s in (a, b))
            qa, qb = stats.quartiles(va), stats.quartiles(vb)
            outcome = stats.verdict(va, vb, better, bound)
            worse += outcome == "worse"
            cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (qa, qb)]
            print(f"{name:<16} {metric:<15} {cells[0]:<34} {cells[1]:<34} "
                  f"{qb[1] / qa[1]:>7.3f}  {outcome} (bound {bound}, "
                  f"base A={qa[1]:.5g})")
    return 1 if worse else 0


def _readings(entry: dict, metric: str) -> list:
    """What a verdict rests on: one reading per run, or, for a set of one
    run, that run's quartiles over its slices (its own spread)."""
    if len(entry["runs"]) > 1 or metric not in entry["slices"][0]:
        return [run[metric] for run in entry["runs"]]
    quart = entry["slices"][0][metric]
    return [quart["q1"], quart["median"], quart["q3"]]


# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.layered")
    parser.add_argument("--workload", help="run one workload (driver contract)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload in a set")
    parser.add_argument("--out", type=Path, help="where a set (no --workload) is written")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload for a fraction of a second")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.smoke:
        scratch = OUT / f"tmp-{os.getpid()}-smoke"
        try:
            record = _child("all", args.seed, 0.25, "smoke", scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        print(json.dumps(record))
        return 0 if record["correct"] else 1
    if args.workload:
        try:
            record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
        except Skipped as skipped:
            print(f"{args.workload}: skipped: {skipped}", file=sys.stderr)
            return 3
        report(record, bool(args.trace))
        sys.stdout.flush()
        print(json.dumps(record["line"]))
        return 0
    result = run_set(args.seed, args.seconds, args.runs, bool(args.trace))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    failed = [name for name, entry in result["workloads"].items()
              if not all(line["correct"] for line in entry["lines"])]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
