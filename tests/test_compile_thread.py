"""Faults on the compile thread: every one ends on numpy steps, bit-equal to
the eager forward, with its reason counted — a session never waits for the
compiler and never learns of its failures the hard way.
"""

import os
import stat
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.codegen import codegen_enabled, codegen_stats, have_compiler, jit
from repro.models import TBNet, make_synthetic_batch
from repro.obs.metrics import get_registry

needs_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler available")
needs_codegen = pytest.mark.skipif(
    not codegen_enabled(), reason="codegen is off in this environment (REPRO_CODEGEN=0)"
)

#: Fake compilers: answer ``--version`` like a compiler, then misbehave.
#: ``$out`` is the path that follows ``-o``.
_PRELUDE = """#!/bin/sh
if [ "$1" = "--version" ]; then echo "fake-cc 1.0"; exit 0; fi
while [ $# -gt 0 ]; do if [ "$1" = "-o" ]; then out="$2"; fi; shift; done
"""
FAKE_CC = {
    "exits_nonzero": _PRELUDE + "exit 1\n",
    "never_returns": _PRELUDE + "exec sleep 600\n",
    "logs_its_pid_and_never_returns": _PRELUDE + 'echo $$ >> "$CC_PIDS"\nexec sleep 600\n',
    "emits_garbage": _PRELUDE + 'echo "not a shared object" > "$out"\n',
    "removes_the_cache": _PRELUDE + 'rm -rf "$(dirname "$(dirname "$out")")"\n',
}


@pytest.fixture
def cold(tmp_path, monkeypatch):
    """A cold cache directory, an empty memo, no remembered compiler."""
    cache = tmp_path / "kernels"
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(cache))
    monkeypatch.setattr(jit, "_cc_cache", None)
    jit.clear_kernel_memo()
    yield cache
    jit.clear_kernel_memo()


def _fake_cc(tmp_path, monkeypatch, kind):
    script = tmp_path / f"cc-{kind}"
    script.write_text(FAKE_CC[kind])
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    monkeypatch.setenv("CC", str(script))


def _session_and_check():
    model = TBNet(width=4, rng=np.random.default_rng(1))
    session = model.compile_serving(2)
    images, context, _ = make_synthetic_batch(2, rng=np.random.default_rng(2))

    def check():
        assert session.run(images, context).tobytes() == model.infer(images, context).tobytes()

    return session, check


def _fallbacks(reason):
    for line in get_registry().render().splitlines():
        if line.startswith(f'repro_codegen_fallback_total{{reason="{reason}"}}'):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def _ends_on_numpy_steps(reason, timeout=60):
    counted, total = _fallbacks(reason), codegen_stats()["fallbacks"]
    session, check = _session_and_check()
    assert {row["reason"] for row in session.explain()} == {"pending"}
    check()  # served while the compile is in flight
    assert not session.wait_compiled(timeout)
    assert {(row["arm"], row["reason"]) for row in session.explain()} == {("numpy", reason)}
    assert session.num_steps == 17
    check()
    assert _fallbacks(reason) == counted + 1
    assert codegen_stats()["fallbacks"] == total + 1
    # The next session of the same structure finds the failure in the memo:
    # no second compile, counted again, numpy steps from the start.
    again, check_again = _session_and_check()
    assert {row["reason"] for row in again.explain()} == {reason}
    check_again()
    assert _fallbacks(reason) == counted + 2


@needs_codegen
@pytest.mark.parametrize("kind", ["exits_nonzero", "removes_the_cache"])
def test_failing_compiler_is_counted_as_compile_failed(cold, tmp_path, monkeypatch, kind):
    _fake_cc(tmp_path, monkeypatch, kind)
    _ends_on_numpy_steps("compile_failed")
    assert not (cold.exists() and list(cold.glob("*.so")))


@needs_codegen
def test_compiler_past_its_timeout_is_killed(cold, tmp_path, monkeypatch):
    _fake_cc(tmp_path, monkeypatch, "never_returns")
    monkeypatch.setattr(jit, "_CC_TIMEOUT", 0.2)
    _ends_on_numpy_steps("compile_failed")
    assert not jit._IN_FLIGHT  # the child was killed and waited for
    assert not [p for p in cold.iterdir() if p.is_dir()]  # and its temp dir removed


@needs_codegen
def test_unloadable_output_is_counted_as_load_failed(cold, tmp_path, monkeypatch):
    _fake_cc(tmp_path, monkeypatch, "emits_garbage")
    _ends_on_numpy_steps("load_failed")
    assert not list(cold.glob("*.so"))  # what the compiler left is no cache entry


@needs_codegen
def test_unwritable_cache_is_counted_as_compile_failed(cold, tmp_path, monkeypatch):
    # A cache path that cannot be created (its parent is a regular file):
    # what a read-only location looks like even to root.
    _fake_cc(tmp_path, monkeypatch, "exits_nonzero")  # found, never reached
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(blocker / "kernels"))
    _ends_on_numpy_steps("compile_failed")


@needs_codegen
def test_no_compiler_is_counted(cold, monkeypatch):
    monkeypatch.setattr(jit, "_cc_cache", (None, ""))
    _ends_on_numpy_steps("no_compiler")


def test_disabled_codegen_spawns_neither_thread_nor_compiler(cold, monkeypatch):
    from repro.codegen import using_codegen

    # Every thread and every compiler run starts in resolve().
    monkeypatch.setattr(jit, "resolve", lambda *a, **k: pytest.fail("a kernel was requested"))
    counted = _fallbacks("disabled")
    with using_codegen(False):
        session, check = _session_and_check()
        assert {row["reason"] for row in session.explain()} == {"disabled"}
        assert not session.wait_compiled()
        check()
    assert _fallbacks("disabled") == counted + 1


@needs_cc
@needs_codegen
def test_concurrent_sessions_share_one_compile(cold):
    before = codegen_stats()["compiled"]
    model = TBNet(width=4, rng=np.random.default_rng(1))
    sessions = [model.compile_serving(n) for n in (1, 2, 4, 2)]
    assert all(s.wait_compiled(120) for s in sessions)
    assert codegen_stats()["compiled"] == before + 1
    assert len(list(cold.glob("*.so"))) == 1


@needs_cc
@needs_codegen
def test_warm_cache_starts_compiled_without_a_thread(cold, monkeypatch):
    session, check = _session_and_check()
    assert session.wait_compiled(120)
    jit.clear_kernel_memo()  # what a second interpreter on this cache sees
    monkeypatch.setattr(jit, "_QUEUE", None)  # queueing anything would raise
    before = codegen_stats()
    again, check_again = _session_and_check()
    assert {row["arm"] for row in again.explain()} == {"compiled"}
    after = codegen_stats()
    assert after["compiled"] == before["compiled"]
    assert after["disk_hits"] == before["disk_hits"] + 1
    check_again()


@needs_cc
@needs_codegen
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_fork_while_a_compile_is_in_flight(cold):
    # The child inherits a session whose compile runs on a thread it does
    # not have, and a memo entry nobody will complete: it must queue its
    # own, come up and serve.
    session, check = _session_and_check()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            check()
            other, check_other = _session_and_check()
            if session.wait_compiled(120) and other.wait_compiled(120):
                check()
                check_other()
                code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 150
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung")
    assert status == 0
    assert session.wait_compiled(120)
    check()


@needs_codegen
def test_interpreter_exit_mid_compile_leaves_no_compiler_and_no_entry(cold, tmp_path):
    cc = tmp_path / "cc-slow"
    cc.write_text(FAKE_CC["never_returns"])
    cc.chmod(cc.stat().st_mode | stat.S_IXUSR)
    script = textwrap.dedent("""
        import time
        import numpy as np
        from repro.codegen import jit
        from repro.models import TBNet
        session = TBNet(width=4, rng=np.random.default_rng(1)).compile_serving(1)
        deadline = time.monotonic() + 30
        while not (jit._IN_FLIGHT and jit._IN_FLIGHT[0][0]) and time.monotonic() < deadline:
            time.sleep(0.005)
        assert jit._IN_FLIGHT, "the compiler never started"
        print(jit._IN_FLIGHT[0][0].pid, flush=True)
    """)
    env = dict(os.environ, CC=str(cc), REPRO_KERNEL_CACHE=str(cold), REPRO_CODEGEN="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, start_new_session=True)
    assert proc.returncode == 0, proc.stderr
    cc_pid = int(proc.stdout.split()[-1])
    deadline = time.monotonic() + 10
    while _running(cc_pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _running(cc_pid)  # no cc outlives the interpreter
    left = sorted(p.name for p in cold.iterdir())
    assert all(name.endswith(".lock") for name in left), left  # no entry, no litter


class _RegionModel(nn.Module):
    """``relu(linear(x) * scale)``: one group, linear-headed, the kind a
    server's worker compiles (module-level: ``spawn`` workers unpickle the
    factory)."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(3)
        self.lin = nn.Linear(6, 5, rng=rng)
        self.scale = nn.Parameter(Tensor(rng.standard_normal(5).astype(np.float32)))

    def forward(self, x):
        return (self.lin(x) * self.scale).relu()


@needs_codegen
@pytest.mark.parametrize("how", ["stopped", "killed"])
def test_worker_process_leaving_mid_compile(cold, tmp_path, monkeypatch, how):
    # A worker process leaves through os._exit (fork start) or is SIGKILLed
    # by its supervisor: neither runs atexit.  A stopped worker takes its
    # compiler and the temp directory along; a killed one leaves its
    # compiler in its process group, where a group kill finds it (a real
    # compiler ends by itself), and the directory to the sweep (below).
    from repro.serve import ProcServer, SupervisionPolicy

    _fake_cc(tmp_path, monkeypatch, "logs_its_pid_and_never_returns")
    pids = tmp_path / "cc-pids"
    monkeypatch.setenv("CC_PIDS", str(pids))
    slow = SupervisionPolicy(restart_backoff=30.0, restart_backoff_cap=30.0)  # no respawn in here
    x = np.random.default_rng(4).standard_normal((1, 6)).astype(np.float32)
    with ProcServer(_RegionModel().eval(), x, buckets=(1,), workers=1, supervision=slow,
                    model_factory=_RegionModel) as server:
        server.submit(x).result(timeout=120)  # served by the interpreter arm
        deadline = time.monotonic() + 30
        while not (pids.exists() and pids.read_text().strip()) and time.monotonic() < deadline:
            time.sleep(0.01)
        cc_pid = int(pids.read_text().split()[0])
        assert _running(cc_pid)
        if how == "killed":
            (worker,) = server.health()["worker_pids"]
            assert os.getpgid(cc_pid) == os.getpgid(worker)
            os.kill(worker, 9)
    if how == "killed":
        os.kill(cc_pid, 9)  # the fake compiler would sleep on
        return
    deadline = time.monotonic() + 10
    while _running(cc_pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _running(cc_pid)
    assert not [p for p in cold.iterdir() if p.is_dir()], pids.read_text()


@needs_cc
@needs_codegen
def test_abandoned_temp_directories_are_swept_by_the_next_compile(cold):
    cold.mkdir(parents=True)
    dead, live = cold / "tmpdead", cold / "tmplive"
    for path in (dead, live):
        path.mkdir()
        (path / "kernel.c").write_text("")
    long_ago = time.time() - 3 * jit._CC_TIMEOUT
    os.utime(dead, (long_ago, long_ago))
    session, check = _session_and_check()
    assert session.wait_compiled(120)
    check()
    assert not dead.exists()  # no compile lasts that long: nobody owns it
    assert live.exists()      # could be another process's compile in flight


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False
