"""Counted budgets: what one steady step costs, in calls, as tier-1 ceilings.

Wall time on a small shared box cannot resolve a few per cent; the work a
step does can be counted exactly.  Each count here is taken in a fresh
interpreter and asserted against a ceiling at its value when the ceiling
was last moved.  A change that lowers a count lowers its ceiling with it;
one that raises a ceiling says so and why.

- **Adopted replayed TBNet train step** (the layered benchmark's
  ``train_b4``: width 16, ``Adam(1e-3)``, batch 4, eight batches in turn),
  once every stage it asks for is adopted: Python calls and C calls
  (``sys.setprofile``'s ``call`` / ``c_call`` events: numpy's ufuncs are
  neither) and native stage calls, per step over a window of 128 steps —
  two of the optimizer's 64-step sweeps, so every window holds the same
  work.
- **Warm compiled serving runs**: ``session.run`` of TBNet (width 16) at
  batch 1 and of the layered benchmark's linear + elementwise chain at
  batch 64, once every planned kernel is adopted — Python and C calls over
  64 runs of the same inputs (an input bound last time is not bound again).
- **Serial requests through a default thread** ``Server`` (TBNet width 16,
  one worker, buckets 1 / 4 / 8, no supervisor), once its worker sessions
  are compiled: Python and C calls per request, on every thread, over 256
  requests.  Its worker sessions plan without GEMM stages (each group a
  Python step): this is the thread-worker path's count.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.codegen import codegen_enabled, have_compiler

#: Over 128 steps: Python calls, C calls, native stage calls — 320.02,
#: 264.51 and 11 a step (407.02, 369.51 and 16 before each conv block ran as
#: one native call each way; 289.51 C calls before one table type bound
#: every stage call, without ``len`` or ``list.append`` calls of its own).
TRAIN_B4 = {"python": 40_963, "c": 33_857, "stages": 1_408}

_TRAIN_B4 = textwrap.dedent("""
    import json, sys
    import numpy as np
    from repro.codegen import jit, wait_for_compiles
    from repro.models import TBNet, make_synthetic_batch
    from repro.models.tbnet import train_replay
    from repro.nn.optim import Adam

    model = TBNet(width=16, rng=np.random.default_rng(1))
    opt = Adam(model.parameters(), 1e-3)
    rng = np.random.default_rng(2)
    batches = [make_synthetic_batch(4, rng=rng) for _ in range(8)]
    done = 0

    def steps(k):
        global done
        for _ in range(k):
            model.train_step(opt, *batches[done % 8])
            done += 1

    for _ in range(2):  # the ops' and the update's stages, then the blocks'
        steps(3)
        assert wait_for_compiles(300)
    steps(58)
    blocks = [row["arm"] for row in train_replay(model).explain() if len(row["ops"]) == 4]
    calls = {"python": 0, "c": 0}

    def count(frame, event, arg):
        if event == "call":
            calls["python"] += 1
        elif event == "c_call":
            calls["c"] += 1

    sys.setprofile(count)
    steps(128)
    sys.setprofile(None)
    stages = []
    call = jit.StageLibrary.call

    def counting(self, fn, n, arrays, first=0):
        if fn is not None:
            stages.append(fn)
        return call(self, fn, n, arrays, first)

    jit.StageLibrary.call = counting
    steps(128)
    print(json.dumps({"blocks": blocks, "stages": len(stages), **calls}))
""")


#: Over 64 warm runs: Python calls and C calls of ``session.run`` — 7 and 1
#: a run for TBNet at batch 1 and for the chain at batch 64 (and the one
#: ``sys.setprofile`` that ends the count): each session is one native call
#: (24 and 7, 17 and 5 while each group was a Python step).
SERVE = {"tbnet_b1": {"python": 448, "c": 65}, "chain_b64": {"python": 448, "c": 65}}

_SERVE = textwrap.dedent("""
    import json, sys
    import numpy as np
    from repro import nn
    from repro.models import TBNet, make_synthetic_batch
    from repro.serve import compile_inference

    class Chain(nn.Module):  # the layered benchmark's infer_chain_b64 model
        def __init__(self, rng):
            super().__init__()
            self.body = nn.Sequential(*[layer for _ in range(3)
                                        for layer in (nn.Linear(128, 128, rng=rng), nn.ReLU())])
            self.scale = nn.Parameter(rng.standard_normal(128).astype(np.float32))
            self.shift = nn.Parameter(rng.standard_normal(128).astype(np.float32))
            self.out = nn.Linear(128, 10, rng=rng)

        def forward(self, x):
            h = self.body(x)
            for _ in range(3):
                h = (h * self.scale + self.shift).relu()
            return self.out(h)

    def count(session, arrays):
        assert session.wait_compiled(120), session.explain()
        for _ in range(8):
            session.run(*arrays)
        calls = {"python": 0, "c": 0}

        def counting(frame, event, arg):
            if event == "call":
                calls["python"] += 1
            elif event == "c_call":
                calls["c"] += 1

        sys.setprofile(counting)
        for _ in range(64):
            session.run(*arrays)
        sys.setprofile(None)
        return calls

    tbnet = TBNet(width=16, rng=np.random.default_rng(1))
    images, context, _ = make_synthetic_batch(1, rng=np.random.default_rng(2))
    chain = Chain(np.random.default_rng(1)).eval()
    x = np.random.default_rng(2).standard_normal((64, 128)).astype(np.float32)
    print(json.dumps({"tbnet_b1": count(tbnet.compile_serving(1), (images, context)),
                      "chain_b64": count(compile_inference(chain, x), (x,))}))
""")


#: Per serial request through a default thread ``Server``: Python and C calls.
SERVER = {"python": 180.0, "c": 128.0}

_SERVER = textwrap.dedent("""
    import json, sys, threading
    import numpy as np
    from repro.models import TBNet, make_synthetic_batch
    from repro.serve import Server

    model = TBNet(width=16, rng=np.random.default_rng(1)).eval()
    images, context, _ = make_synthetic_batch(64, rng=np.random.default_rng(2))
    requests = [(images.data[i:i + 1], context.data[i:i + 1]) for i in range(64)]
    calls, counting = {"python": 0, "c": 0}, [False]

    def count(frame, event, arg):
        if counting[0]:
            if event == "call":
                calls["python"] += 1
            elif event == "c_call":
                calls["c"] += 1

    threading.setprofile(count)  # the worker's thread too
    with Server(model, requests[0], buckets=(1, 4, 8), workers=1, supervise=False) as server:
        for pool in server.pools:
            assert all(s.wait_compiled(120) for s in pool.sessions.values())
        for request in requests:
            server.submit(*request).result()
        sys.setprofile(count)
        counting[0] = True
        for i in range(256):
            server.submit(*requests[i % 64]).result()
        counting[0] = False
        sys.setprofile(None)
    print(json.dumps({key: value / 256 for key, value in calls.items()}))
""")


def _counts(script: str, cache) -> dict:
    env = dict(os.environ, PYTHONPATH="src", REPRO_KERNEL_CACHE=str(cache))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(not (have_compiler() and codegen_enabled()),
                    reason="no C compiler available, or codegen is off (REPRO_CODEGEN=0)")
def test_an_adopted_train_b4_step_stays_within_its_call_budget(tmp_path):
    # A warm kernel cache for both counted runs: on a cold one the compile
    # thread's timing decides which early steps run eager, and with them
    # which block sizes the workspace pool has seen (its scans count).
    _counts(_TRAIN_B4, tmp_path)
    first, second = _counts(_TRAIN_B4, tmp_path), _counts(_TRAIN_B4, tmp_path)
    assert first == second  # a count, not a timing: the same in every interpreter
    assert first.pop("blocks") == ["compiled"] * 2, "the conv blocks' stages were never adopted"
    over = {key: value for key, value in first.items() if value > TRAIN_B4[key]}
    assert not over, f"over budget: {over} (ceilings {TRAIN_B4})"


@pytest.mark.skipif(not (have_compiler() and codegen_enabled()),
                    reason="no C compiler available, or codegen is off (REPRO_CODEGEN=0)")
def test_a_warm_compiled_session_run_stays_within_its_call_budget(tmp_path):
    cold, warm = _counts(_SERVE, tmp_path), _counts(_SERVE, tmp_path)
    assert cold == warm  # a count, not a timing: the same in every interpreter
    over = {(model, key): value for model, counts in cold.items()
            for key, value in counts.items() if value > SERVE[model][key]}
    assert not over, f"over budget: {over} (ceilings {SERVE})"


@pytest.mark.skipif(not (have_compiler() and codegen_enabled()),
                    reason="no C compiler available, or codegen is off (REPRO_CODEGEN=0)")
def test_a_serial_request_through_a_thread_server_stays_within_its_call_budget(tmp_path):
    counts = _counts(_SERVER, tmp_path)
    over = {key: value for key, value in counts.items() if value > SERVER[key]}
    assert not over, f"over budget: {over} (ceilings {SERVER})"
