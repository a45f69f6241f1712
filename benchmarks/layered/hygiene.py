"""Measurement hygiene: the child environment, the machine record, and the
calibration probe that tells two machine states apart.

Sizing runs on the 2-core reference box showed the box itself switching,
every 0.05-10 s, between a quiet state and one ~1.4x slower (a busy
neighbour; steal time reads 0).  Eight-second medians of the same train
step spread 13-20 % between back-to-back runs, while the same medians
divided by the probe below, sampled between operations of the same slice,
spread 3-5 %.  CPU-bound timings are therefore reported at the probe's
reference speed (:data:`CALIB_REF_MS`); the raw wall-clock readings are
printed beside them.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: One probe on the reference box in its quiet state.  A constant, so the
#: scaled timings of two commits measured on one machine stay comparable;
#: on another machine it only fixes the unit.
CALIB_REF_MS = 0.120

#: Minimum wall time between two probes taken by a load generator.
CALIB_PERIOD_S = 0.012


def child_env(root: Path, scratch: Path) -> tuple:
    """Environment for a measuring subprocess and the ``REPRO_*`` it lost.

    BLAS is pinned to one thread before numpy is imported (OpenBLAS takes
    2 threads on the reference box by default, doubling CPU time on GEMM),
    every ``REPRO_*`` toggle is removed so the default configuration runs,
    and the kernel cache and temporary files go to a fresh directory inside
    the checkout, so every start is cold and ``~/.cache`` is never touched.
    """
    env = dict(os.environ)
    scrubbed = {k: env.pop(k) for k in sorted(env) if k.startswith("REPRO_")}
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["REPRO_KERNEL_CACHE"] = str(scratch / "kernels")
    env["TMPDIR"] = str(scratch)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    env["PYTHONHASHSEED"] = "0"
    return env, scrubbed


def machine_record() -> dict:
    """What two sets of numbers must share to be comparable."""
    import multiprocessing

    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    compiler = ""
    try:
        proc = subprocess.run(["cc", "--version"], capture_output=True,
                              text=True, timeout=10)
        compiler = proc.stdout.splitlines()[0] if proc.stdout else ""
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "compiler": compiler,
        "default_start_method": multiprocessing.get_start_method(),
        "calib_ref_ms": CALIB_REF_MS,
    }


class Calibrator:
    """A fixed unit of pure-Python and GEMM work, timed.

    A 1 MiB streaming sum was tried as a third part and dropped: across
    slices it followed the workloads' own timings worst (correlation
    0.36-0.77, against 0.71-0.98 for the GEMM part), and with it in the
    probe the scaled readings spread up to twice as wide.

    Load generators call :meth:`sample` between operations, at most every
    :data:`CALIB_PERIOD_S`; a slice's timings are later divided by the
    slice's median probe.  The probe's own wall time is known, so it is
    taken out of throughput and CPU figures.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((128, 128)).astype(np.float32)
        self._b = np.empty_like(self._a)
        self._c = np.empty_like(self._a)
        self._matmul = np.matmul
        self.times: list = []
        self.durations: list = []
        self._next = 0.0

    def sample(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(1500):
            acc += i * i
        self._matmul(self._a, self._a, out=self._b)
        self._matmul(self._b, self._a, out=self._c)
        end = time.perf_counter()
        self.times.append(start)
        self.durations.append(end - start)
        self._next = end + CALIB_PERIOD_S
        return end

    def due(self, now: float) -> bool:
        return now >= self._next

    def burst(self, n: int) -> float:
        """Median of ``n`` back-to-back probes, in ms (around a set-up)."""
        first = len(self.durations)
        for _ in range(n):
            self.sample()
        taken = sorted(self.durations[first:])
        return taken[len(taken) // 2] * 1e3


def cpu_seconds(pids=()) -> float:
    """User+system CPU of this process plus the given live children.

    ``RUSAGE_CHILDREN`` only counts children already waited for, so live
    worker processes are read from ``/proc``.
    """
    total = time.process_time()
    tick = os.sysconf("SC_CLK_TCK")
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / tick
        except (OSError, IndexError, ValueError):
            pass
    return total


def peak_rss_mb(pids=()) -> float:
    """``ru_maxrss`` of this process plus the high-water mark of children."""
    import resource

    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
                        break
        except (OSError, ValueError):
            pass
    return total


def shm_segments() -> int:
    """How many POSIX shared-memory segments exist (leak check)."""
    try:
        return len(os.listdir("/dev/shm"))
    except OSError:
        return 0
