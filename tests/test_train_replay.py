"""The replayed train step against the taped one, byte for byte.

``TBNet.train_step`` captures its tape once the signature of the step holds
and replays it from then on (:mod:`repro.autograd.replay`).  The contract is
the taped step's bytes: every loss, parameter, batch-norm statistic,
optimizer moment and step count, and the dropout generator's state.  The
reference is the same run driven through explicit ``loss()`` /
``backward()`` / ``step()`` / ``zero_grad()`` calls, which never replay.
The harness's own traps are here too: a float64 reference model trained in
the same process, replayed windows interleaved with explicit parts, and
every change that has to take the step off its replay and back.
"""

import gc
import hashlib
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, functional as F, ir, no_grad
from repro.backend import default_rng, manual_seed, workspace
from repro.codegen import codegen_enabled, have_compiler, using_codegen, wait_for_compiles
from repro.models import TBNet, make_synthetic_batch, tbnet
from repro.nn import optim
from repro.nn.optim import SGD, Adam
from repro.obs.profile import using_profiler

from test_train_kernels import cold, stage_calls  # noqa: F401  (fixtures)

compiling = pytest.mark.skipif(
    not (have_compiler() and codegen_enabled()),
    reason="no C compiler available, or codegen is off (REPRO_CODEGEN=0)",
)


def count(path, reason=None):
    """Steps counted under ``repro_train_steps_total`` so far."""
    return sum(counter.value for (p, r), counter in tbnet._COUNTS.items()
               if p == path and reason in (None, r))


def build(batch=4, dtype=np.float32, optimizer=Adam, dropout_rng=True):
    """A seeded TBNet, its optimizer and four batches, the float64 variant
    built as ``workloads.Train._float64_losses`` builds it."""
    model = TBNet(width=16, rng=np.random.default_rng(1))
    if not dropout_rng:
        for module in model.modules():
            if isinstance(module, nn.Dropout):
                module.rng = None
    if dtype != np.float32:
        for param in model.parameters():
            param.data = param.data.astype(dtype)
        for module in model.modules():
            for name in ("running_mean", "running_var"):
                buffer = getattr(module, name, None)
                if isinstance(buffer, np.ndarray):
                    module.register_buffer(name, buffer.astype(dtype))
    opt = Adam(model.parameters(), 1e-3) if optimizer is Adam else SGD(
        model.parameters(), 1e-2, momentum=0.9)
    rng = np.random.default_rng(2)
    batches = []
    for _ in range(4):
        images, context, targets = make_synthetic_batch(batch, rng=rng)
        batches.append((Tensor(images.data.astype(dtype), dtype=dtype),
                        Tensor(context.data.astype(dtype), dtype=dtype), targets))
    return model, opt, batches


def explicit(model, opt, images, context, targets):
    loss = model.loss(images, context, targets)
    loss.backward()
    opt.step()
    opt.zero_grad()
    return loss.item()


def digest(losses, model, opt):
    """SHA-256 over the losses, the state dict, the optimizer's moments and
    step count, and the dropout generators' states."""
    h = hashlib.sha256(np.asarray(losses, np.float64).tobytes())
    for array in model.state_dict().values():
        h.update(np.ascontiguousarray(array).tobytes())
    for name in opt._state_lists:
        for array in getattr(opt, name):
            h.update(b"-" if array is None else np.ascontiguousarray(array).tobytes())
    h.update(str(opt._step_count).encode())
    for module in model.modules():
        if isinstance(module, nn.Dropout):
            generator = module.rng if module.rng is not None else default_rng()
            h.update(repr(generator.bit_generator.state).encode())
    return h.hexdigest()


def run(steps, parts, perturb=None, at=None, **kwargs):
    """``steps`` steps through ``train_step`` (or explicit parts); at step
    ``at``, ``perturb(model, opt, batches)`` may change anything and return
    new batches."""
    model, opt, batches = build(**kwargs)
    losses = []
    for i in range(steps):
        if i == at:
            batches = perturb(model, opt, batches) or batches
        batch = batches[i % 4]
        losses.append(explicit(model, opt, *batch) if parts else model.train_step(opt, *batch))
    return digest(losses, model, opt)


# --------------------------------------------------------------------------- #
# (a) Replay equals the explicit parts
# --------------------------------------------------------------------------- #
def _adopt(*_):
    assert wait_for_compiles(300)


@compiling
@pytest.mark.parametrize("batch, dtype, optimizer", [(4, np.float32, Adam), (3, np.float64, SGD)])
def test_replay_straddling_capture_and_adoption_equals_the_explicit_parts(
        cold, batch, dtype, optimizer):
    kwargs = dict(batch=batch, dtype=dtype, optimizer=optimizer)
    replayed, pending = count("replay"), count("eager", "pending")
    # A cold cache: eager steps while the kernels compile, the capture after.
    got = run(40, False, _adopt, 20, **kwargs)
    assert count("eager", "pending") > pending and count("replay") - replayed >= 15
    assert got == run(40, True, **kwargs)


@pytest.mark.parametrize("backend, codegen, batch", [
    ("numpy", True, 4), ("fused", True, 4), ("lazy", True, 4),
    ("numpy", False, 4), ("numpy", True, 64)])
def test_replay_equals_the_explicit_parts_on_every_arm(backend, codegen, batch):
    with using_codegen(codegen):
        want = run(40, True, batch=batch)
        wait_for_compiles(300)
        replayed = count("replay")
        assert run(40, False, batch=batch) == want
        assert count("replay") - replayed >= 30


def test_a_steady_replayed_step_allocates_nothing():
    model, opt, batches = build()
    for i in range(6):
        model.train_step(opt, *batches[i % 4])
    wait_for_compiles(300)
    for i in range(3):
        model.train_step(opt, *batches[i % 4])
    replayed = count("replay")
    tracemalloc.start()
    try:
        model.train_step(opt, *batches[0])
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        model.train_step(opt, *batches[1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count("replay") - replayed == 2
    assert peak - start < 128 * 1024  # the step's short-lived small arrays


@compiling
def test_an_adopted_step_makes_eleven_stage_calls(stage_calls):
    # 30 on the ops' own stages: each conv block is two calls, one each way,
    # each other relu two, the update one.
    model, opt, batches = build()
    for i in range(6):
        model.train_step(opt, *batches[i % 4])
    assert wait_for_compiles(300)
    model.train_step(opt, *batches[0])  # adopts the conv blocks' stages
    del stage_calls[:]
    model.train_step(opt, *batches[1])
    assert stage_calls == [True] * 11
    rows = tbnet.train_replay(model).explain()
    assert [row["arm"] for row in rows if len(row["ops"]) == 4] == ["compiled"] * 2


def test_a_replay_serves_only_its_own_threads_small_requests(monkeypatch):
    # The replay's tape is the replaying thread's small-request hook: while
    # thread A sits between its replayed forward and backward, thread B's
    # sub-floor requests are plain arrays, never ones from A's tape.
    model, opt, batches = build()
    others, paused = [], threading.Event()
    other = threading.Thread(target=lambda: paused.wait(60) and others.extend(
        workspace.empty((16,), np.float32) for _ in range(64)))
    run_steps = ir.run_steps

    def pausing(steps, values, *args):
        run_steps(steps, values, *args)
        if not paused.is_set():  # after the forward: the hook is set
            paused.set()
            other.join(60)

    with using_codegen(False):
        for i in range(3):
            model.train_step(opt, *batches[i % 4])
        tape = tbnet.train_replay(model)._tape
        other.start()
        monkeypatch.setattr(ir, "run_steps", pausing)
        replayed = count("replay")
        model.train_step(opt, *batches[3])
    other.join(60)
    assert count("replay") - replayed == 1 and paused.is_set()
    assert tape.arrays and len(others) == 64
    assert not any(array is taped for array in others for taped in tape.arrays)


def test_a_replay_that_raises_leaves_no_hook_behind(monkeypatch):
    model, opt, batches = build()
    failing, relu = [], ir.OPS["relu"]
    backward = relu.backward

    def flaky(*args):
        if failing:
            raise RuntimeError("injected")
        backward(*args)

    monkeypatch.setattr(relu, "backward", flaky)
    with using_codegen(False):
        for i in range(3):
            model.train_step(opt, *batches[i % 4])
        tape = tbnet.train_replay(model)._tape
        failing.append(True)
        replayed = count("replay")
        with pytest.raises(RuntimeError, match="injected"):
            model.train_step(opt, *batches[3])
    assert count("replay") - replayed == 1 and tape.arrays
    tape.i = 0  # a hook left behind would hand out the tape's first array again
    first = tape.arrays[0]
    fresh = workspace.empty(first.shape, first.dtype)
    assert not any(fresh is taped for taped in tape.arrays)
    assert workspace.set_small(None) is None


def test_explain_names_each_captured_op_and_its_arm():
    model, opt, batches = build()
    with using_codegen(False):
        for i in range(3):
            model.train_step(opt, *batches[i % 4])
        rows = tbnet.train_replay(model).explain()
    ops = [row["ops"][0] for row in rows]
    # 20 ops and the optimizer's row, each conv block's four ops one row.
    assert ops.count("conv2d") == 2 and ops[-2] == "softmax_cross_entropy" and len(ops) == 15
    assert ops[-1] == "adam_update"  # the optimizer's row
    assert [row["ops"] for row in rows[:2]] == [["conv2d", "batch_norm", "relu", "max_pool2d"]] * 2
    for row in rows:
        assert row["arm"] == "numpy"
        assert row["reason"] == ("disabled" if row["ops"][0] in (
            "conv2d", "batch_norm", "relu", "max_pool2d", "adam_update") else None)


@compiling
@pytest.mark.parametrize("cc, arm, reason", [
    (None, "compiled", None), ("exits_nonzero", "numpy", "fallback")])
def test_the_update_row_reads_pending_until_its_stage_is_built_or_has_failed(
        tmp_path, monkeypatch, cc, arm, reason):
    # The capture sights the optimizer's stage and the replay's first step
    # asks for it: pending while the compile thread builds it, then compiled
    # — or numpy for good, ``fallback``, when the compiler fails.
    from repro.autograd import kernels
    from repro.codegen import jit

    from test_compile_thread import _fake_cc

    if cc is not None:
        _fake_cc(tmp_path, monkeypatch, cc)
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernels"))
    monkeypatch.setattr(jit, "_cc_cache", None)
    monkeypatch.setattr(kernels, "_ARMS", {})
    monkeypatch.setattr(kernels, "_COUNTED", set())
    jit.clear_kernel_memo()
    try:
        model, opt, batches = build()
        for i in range(4):
            if i == 3:
                assert wait_for_compiles(300)  # the ops' stages: the capture waits for them
            model.train_step(opt, *batches[i % 4])
        rows = [tbnet.train_replay(model).explain()]
        assert wait_for_compiles(300)
        model.train_step(opt, *batches[0])
        rows.append(tbnet.train_replay(model).explain())
        assert [explained[-1] for explained in rows] == [
            {"step": 14, "ops": ["adam_update"], "arm": "numpy", "reason": "pending"},
            {"step": 14, "ops": ["adam_update"], "arm": arm, "reason": reason}]
        # The conv blocks' stages, asked for at the first capture attempt,
        # are built with the ops' the capture waits for.
        assert [[(r["arm"], r["reason"]) for r in explained if len(r["ops"]) == 4]
                for explained in rows] == [[(arm, reason)] * 2] * 2
    finally:
        wait_for_compiles(120)
        jit.clear_kernel_memo()


def test_a_collected_model_frees_its_replay():
    model, opt, batches = build()
    for i in range(4):
        model.train_step(opt, *batches[i % 4])
    replay = weakref.ref(tbnet.train_replay(model))
    assert replay() is not None
    del model, opt
    gc.collect()
    assert replay() is None


# --------------------------------------------------------------------------- #
# (b) The harness's traps
# --------------------------------------------------------------------------- #
def test_float64_reference_in_the_same_process_equals_a_fresh_eager_run(tmp_path):
    model, opt, batches = build()
    for i in range(6):
        model.train_step(opt, *batches[i % 4])  # the float32 model replays
    reference, ref_opt, ref_batches = build(dtype=np.float64)
    losses = []
    for i in range(20):
        if i == 8:
            wait_for_compiles(300)  # the float64 kernels: its replay starts half way
        losses.append(reference.train_step(ref_opt, *ref_batches[i % 4]))
    assert tbnet.train_replay(model) is not None
    script = textwrap.dedent("""
        import sys
        import numpy as np
        sys.path.insert(0, "tests")
        from test_train_replay import build, explicit
        model, opt, batches = build(dtype=np.float64)
        sys.stdout.write(np.asarray([explicit(model, opt, *batches[i % 4])
                                     for i in range(20)]).tobytes().hex())
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert np.asarray(losses).tobytes().hex() == proc.stdout


def test_replayed_windows_interleaved_with_explicit_parts_equal_an_eager_run():
    def interleaved(model, opt, batches, i):
        if (i // 5) % 2:  # the --trace 1 run: traced windows call the parts
            return explicit(model, opt, *batches[i % 4])
        return model.train_step(opt, *batches[i % 4])

    model, opt, batches = build()
    losses = [interleaved(model, opt, batches, i) for i in range(40)]
    assert digest(losses, model, opt) == run(40, True)


def test_training_while_a_profiler_is_on_replays_with_rows_of_its_own():
    model, opt, batches = build()
    for i in range(4):
        model.train_step(opt, *batches[i % 4])
    wait_for_compiles(300)
    for i in range(2):
        model.train_step(opt, *batches[i % 4])
    replayed = count("replay")
    with using_profiler() as prof:
        model.train_step(opt, *batches[0])
    assert count("replay") == replayed + 1
    rows = prof.stats()
    for row in ("replay:forward", "replay:backward", "replay:optim"):
        assert row in rows, row
    assert all(op.startswith("replay:") for op in rows)
    step = prof.step_stats()["replay"]
    total = sum(row["total_ms"] for row in rows.values())
    assert 0.5 * step["mean_ms"] < total <= step["mean_ms"]


# --------------------------------------------------------------------------- #
# (c) What takes the step off its replay, and back
# --------------------------------------------------------------------------- #
def _batch_size(model, opt, batches):
    return build(batch=6)[2]


def _serve_then_train(model, opt, batches):
    model.compile_serving(1).run(*(b.data[:1] for b in batches[0][:2]))
    model.train()


def _lr(model, opt, batches):
    opt.lr = 3e-4


def _freeze(model, opt, batches):
    model.head.layers[-1].bias.requires_grad = False


def _grad_left_over(model, opt, batches):
    model.loss(*batches[1]).backward()


def _reseed(model, opt, batches):
    manual_seed(11)


def _load_state(model, opt, batches):
    model.load_state_dict(build()[0].state_dict())


PERTURBATIONS = {
    # name: (perturbation, the eager reason it counts, or None: replay throughout)
    "batch_size": (_batch_size, "signature"),
    "serve_then_train": (_serve_then_train, "signature"),
    "lr": (_lr, None),
    "freeze": (_freeze, "signature"),
    "grad_left_over": (_grad_left_over, "grad"),
    "manual_seed": (_reseed, None),
    "load_state_dict": (_load_state, None),
}


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_what_changes_falls_back_counts_its_reason_and_recaptures(name):
    perturb, reason = PERTURBATIONS[name]
    manual_seed(5)
    want = run(24, True, perturb, 12, dropout_rng=False)
    manual_seed(5)
    eager, replayed = count("eager", reason), count("replay")
    model, opt, batches = build(dropout_rng=False)
    losses = []
    for i in range(24):
        if i == 12:
            batches = perturb(model, opt, batches) or batches
            before = count("replay")
        losses.append(model.train_step(opt, *batches[i % 4]))
    assert digest(losses, model, opt) == want
    if reason is not None:
        assert count("eager", reason) > eager
    assert count("replay") - before >= 6  # back on a replay (recaptured if it had to)
    assert count("replay") - replayed >= 14


class _HalvingPool(nn.Module):
    """A layer whose forward the capture cannot see (not a built-in one)."""

    def forward(self, x):
        return F.avg_pool2d(x, 2)


def test_a_built_in_layer_of_any_table_op_replays():
    # Every op the tape records is an op table entry, average pooling too:
    # a TBNet built from built-in layers replays, with the eager bytes.
    def pool(model, opt, batches):
        model.spatial.layers[3] = nn.AvgPool2d(2)

    with using_codegen(False):  # no compile to wait for: replays from the third step
        want = run(8, True, pool, 0)
        replayed = count("replay")
        assert run(8, False, pool, 0) == want
    assert count("replay") - replayed >= 5


def test_what_the_capture_cannot_see_stays_on_the_tape():
    class Custom(TBNet):
        def forward(self, images, context):
            return super().forward(images, context)

    model = Custom(width=16, rng=np.random.default_rng(1))
    pooled = TBNet(width=16, rng=np.random.default_rng(1))
    pooled.spatial.layers[3] = _HalvingPool()
    batch = make_synthetic_batch(4, rng=np.random.default_rng(2))
    for net in (model, pooled):
        opt = Adam(net.parameters(), 1e-3)
        modules = count("eager", "module")
        for _ in range(5):
            net.train_step(opt, *batch)
        assert tbnet.train_replay(net) is None and count("eager", "module") - modules >= 3
    opt = Adam(pooled.parameters(), 1e-3)
    with no_grad(), pytest.raises(RuntimeError):
        pooled.train_step(opt, *batch)
    with ir.capture():
        captured = count("eager", "capture")
        pooled.train_step(opt, *batch)
        assert count("eager", "capture") == captured + 1


# --------------------------------------------------------------------------- #
# Adam's subnormal sweep
# --------------------------------------------------------------------------- #
def test_the_sweep_zeroes_a_dead_units_second_moment_and_changes_no_parameter(monkeypatch):
    def dead_unit(sweep_every):
        monkeypatch.setattr(optim, "_FLUSH_EVERY", sweep_every)
        p = nn.Parameter(np.linspace(-1, 1, 8).astype(np.float32))
        opt = Adam([p], 1e-3)
        rng = np.random.default_rng(0)
        tiny = np.finfo(np.float32).tiny
        for step in range(128):
            p.grad = rng.standard_normal(8).astype(np.float32)
            if step:
                p.grad[:3] = 0.0  # three units die; their first moments decay ...
            opt.step()
            if not step:  # ... and their second moments sit deep in the subnormals
                opt._v[0][:3] = tiny * np.float32(0.5 ** np.arange(1, 4))
        assert np.all(opt._m[0][:3] != 0.0)
        return p.data.tobytes(), opt._v[0][:3].copy()

    swept, v = dead_unit(64)
    kept, v_kept = dead_unit(10 ** 9)
    assert swept == kept  # sqrt(subnormal / bc2) is below half an ulp of eps
    assert np.all(v == 0.0) and np.all(v_kept > 0.0)
