"""The kernel workspace is safe by construction, not by review.

``repro.backend.workspace`` hands large buffers out of a per-thread pool and
takes them back when nothing references them any more.  These tests pin the
properties that make that safe — a block is never handed out while anything
derived from it is alive — and the ones that make it worth having: a
steady-state training step allocates nothing, a phase change replaces the
pool instead of growing it, and without usable reference counts the module
is plain ``np.empty``.
"""

import importlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from repro.autograd import Tensor, no_grad
from repro.backend import workspace
from repro.codegen import wait_for_compiles
from repro.models import TBNet, make_synthetic_batch
from repro.nn.optim import Adam
from repro.obs import get_registry
from repro.obs.profile import using_profiler

resource = pytest.importorskip("resource")  # POSIX: getrusage reads the faults

pooled = pytest.mark.skipif(
    workspace._IDLE is None, reason="this interpreter has no usable reference counts"
)

MIB = 1 << 20


def _root(arr):
    """The object owning ``arr``'s memory (end of the ``.base`` chain)."""
    while getattr(arr, "base", None) is not None:
        arr = arr.base
    return arr


def _in_thread(fn, *args):
    """Run ``fn`` on a fresh thread — a fresh, empty pool — and return its result."""
    box = {}

    def run():
        try:
            box["value"] = fn(*args)
        except BaseException as exc:  # re-raised on the calling thread
            box["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    if "error" in box:
        raise box["error"]
    return box["value"]


def _trainer(batch=64, dtype=np.float32, seed=1):
    model = TBNet(width=16, rng=np.random.default_rng(seed))
    images, context, targets = make_synthetic_batch(batch, rng=np.random.default_rng(seed + 1))
    if dtype != np.float32:
        for param in model.parameters():
            param.data = param.data.astype(dtype)
        for module in model.modules():
            for name in ("running_mean", "running_var"):
                buffer = getattr(module, name, None)
                if isinstance(buffer, np.ndarray):
                    module.register_buffer(name, buffer.astype(dtype))
        images, context = Tensor(images.data.astype(dtype)), Tensor(context.data.astype(dtype))
    optimizer = Adam(model.parameters(), 1e-3)
    return model, lambda: model.train_step(optimizer, images, context, targets)


def _settled_trainer():
    """A trainer past its warm-up *and* past the switch of arms: a cold
    kernel cache adopts compiled kernels a second into the run
    (:mod:`repro.autograd.kernels`), and a count of one step's allocations or
    faults must measure one arm, not the compile thread at work."""
    model, step = _trainer()
    for _ in range(3):
        step()
    assert wait_for_compiles(300)
    for _ in range(2):
        step()  # the first step on the compiled arm settles its own blocks
    return model, step


def _losses(steps, **kwargs):
    _, step = _trainer(**kwargs)
    return np.array([step() for _ in range(steps)]).tobytes()


# --------------------------------------------------------------------------- #
# (a) No block is handed out while anything references it
# --------------------------------------------------------------------------- #
VIEW_KINDS = {
    "slice": lambda a: a[3:-5:2],
    "transpose": lambda a: a.reshape(-1, 64).T,
    "reshape": lambda a: a.reshape(4, -1),
    "as_strided": lambda a: as_strided(a, (a.size // 4, 2), (a.itemsize * 4, a.itemsize)),
    "memoryview": memoryview,
}


@pooled
@pytest.mark.parametrize("kind", sorted(VIEW_KINDS))
def test_each_view_kind_pins_its_block(kind):
    arr = workspace.empty((48 * 1024,), np.float32)
    block = arr.base
    assert block.dtype == np.uint8 and block.base is None and block.flags.owndata
    view = VIEW_KINDS[kind](arr)
    if kind == "memoryview":
        assert view.obj is arr
    elif kind == "as_strided":
        assert view.base is not block and _root(view) is block  # pinned through a chain
    else:
        assert view.base is block  # numpy collapsed the chain onto the owner
    which = id(block)  # the pool keeps the block alive, so its id stays its own
    del arr, block
    other = workspace.empty((48 * 1024,), np.float32)
    assert id(other.base) != which  # the view alone keeps the block out of circulation
    del view
    assert id(workspace.empty((48 * 1024,), np.float32).base) == which


@pooled
def test_random_lease_sequence_never_recycles_a_live_block():
    rng = np.random.default_rng(20240901)
    shapes = [((32768,), np.float32), ((256, 128), np.float32), ((24576,), np.float64),
              ((160 * 1024,), np.uint8), ((8, 16, 16, 16), np.float32), ((49152,), np.float32)]
    kinds = sorted(VIEW_KINDS)
    live = []  # (holder, stamp): holder is an array, a derived view or a memoryview
    before = workspace.stats()

    def intact(holder, stamp):
        return bool(np.all(np.asarray(holder) == stamp))

    for op in range(2000):
        choice = rng.integers(4)
        if choice <= 1 or not live:
            shape, dtype = shapes[rng.integers(len(shapes))]
            arr = workspace.empty(shape, dtype)
            assert arr.shape == shape and arr.dtype == dtype and arr.flags.c_contiguous
            stamp = op % 251
            arr.fill(stamp)
            live.append((arr, stamp))
        elif choice == 2:  # keep only something derived from a live array
            i = rng.integers(len(live))
            holder, stamp = live[i]
            if isinstance(holder, np.ndarray) and holder.flags.c_contiguous:
                flat = holder.reshape(-1)
                live[i] = (VIEW_KINDS[kinds[rng.integers(len(kinds))]](flat), stamp)
                del flat
            del holder
        else:
            del live[rng.integers(len(live))]
        if len(live) > 24:
            del live[rng.integers(len(live))]
        if op % 8 == 0:
            assert all(intact(holder, stamp) for holder, stamp in live), op
    assert all(intact(holder, stamp) for holder, stamp in live)
    # The sequence recycled: far fewer blocks were ever allocated than leased.
    after = workspace.stats()
    assert after["hit"] - before["hit"] > after["miss"] - before["miss"]


# --------------------------------------------------------------------------- #
# (b) Steady state allocates nothing
# --------------------------------------------------------------------------- #
@pooled
def test_steady_state_train_step_allocates_nothing():
    _, step = _settled_trainer()
    before = workspace.stats()
    tracemalloc.start()
    try:
        step()  # tracemalloc's own first-use bookkeeping
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # How far the traced heap (every domain, numpy's data domain included)
    # rose above where the step began: 23 MiB before the workspace.  What
    # remains is under the workspace's 128 KiB floor or named — the 136 KiB
    # concatenate and Adam's three 136 KiB temporaries on the head weight —
    # and malloc serves it from its heap without going to the kernel.
    assert peak - start < 512 * 1024
    after = workspace.stats()
    assert after["miss"] == before["miss"] and after["hit"] > before["hit"]
    assert after["retained_bytes"] == before["retained_bytes"]


@pooled
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt semantics")
def test_steady_state_train_steps_take_no_page_faults():
    _, step = _settled_trainer()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        step()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 50  # 2 942 a step before


# --------------------------------------------------------------------------- #
# (c) What the user keeps survives
# --------------------------------------------------------------------------- #
def test_user_held_activation_and_grad_survive_further_steps():
    model, step = _trainer()
    images, context, targets = make_synthetic_batch(64, rng=np.random.default_rng(5))
    step()
    embedding = model.spatial(images).data  # a 128 KiB workspace buffer
    loss = model.loss(images, context, targets)
    loss.backward()
    weight = model.head.layers[0].weight
    grad = weight.grad  # 136 KiB, donated by the GEMM that produced it
    if workspace._IDLE is not None:
        assert _root(embedding).dtype == np.uint8 and _root(grad).dtype == np.uint8
    kept = embedding.tobytes(), grad.tobytes()
    model.zero_grad()
    for _ in range(10):
        step()
    assert (embedding.tobytes(), grad.tobytes()) == kept


# --------------------------------------------------------------------------- #
# (d) A phase change replaces the pool; compiling leaves nothing behind
# --------------------------------------------------------------------------- #
def _retained_after(*phases):
    for dtype in phases:
        _, step = _trainer(dtype=dtype)
        for _ in range(20):
            step()
        del step
    return workspace._pool().retained()


@pooled
def test_phase_change_replaces_blocks_instead_of_stacking():
    float64_alone = _in_thread(_retained_after, np.float64)
    float32_alone = _in_thread(_retained_after, np.float32)
    both = _in_thread(_retained_after, np.float32, np.float64)
    assert float64_alone > 1.5 * float32_alone  # the phases really differ
    assert both <= 1.1 * float64_alone


@pooled
def test_alternating_phases_settle_on_the_union_of_their_working_sets():
    # The limit of retention by replacement, pinned so it stays a decision:
    # only a size the pool never held evicts, so two loops taking turns (full
    # and partial batches, train and eval) end up holding both working sets.
    # They do stop there — the third and fourth rounds allocate nothing.
    def alternate(*batches):
        steps = [_trainer(batch=batch)[1] for batch in batches]
        retained, misses = [], []
        for _ in range(4):
            for step in steps:
                for _ in range(3):
                    step()
            retained.append(workspace._pool().retained())
            misses.append(workspace.stats()["miss"])
        return retained, misses

    (full, *_), _ = _in_thread(alternate, 64)
    (partial, *_), _ = _in_thread(alternate, 24)
    retained, misses = _in_thread(alternate, 64, 24)
    assert retained[1] == retained[2] == retained[3] and misses[1] == misses[3]
    assert max(full, partial) < retained[-1] <= full + partial


@pooled
def test_compile_serving_leaves_no_idle_block():
    def compile_and_measure():
        model = TBNet(width=16, rng=np.random.default_rng(3))
        misses = workspace.stats()["miss"]
        session = model.compile_serving(64)
        assert workspace.stats()["miss"] > misses  # the example trace did go through the pool
        return session, workspace._pool().retained()

    _, retained = _in_thread(compile_and_measure)
    assert retained == 0  # nothing idle, and nothing of the example trace left pinned


# --------------------------------------------------------------------------- #
# (e) Threads and processes
# --------------------------------------------------------------------------- #
def test_two_threads_train_on_disjoint_blocks_with_serial_losses():
    serial = [_losses(6, seed=seed) for seed in (1, 2)]
    barrier = threading.Barrier(2, timeout=60)

    def train(seed):
        model, step = _trainer(seed=seed)
        barrier.wait()
        losses = np.array([step() for _ in range(6)]).tobytes()
        loss = model.loss(*make_synthetic_batch(64, rng=np.random.default_rng(9)))
        loss.backward()
        mine = {id(b) for blocks in workspace._pool().blocks.values() for b in blocks}
        grads = {id(_root(p.grad)) for p in model.parameters() if p.grad.nbytes >= workspace.FLOOR}
        barrier.wait()  # both pools alive while ids are taken: ids are comparable
        return losses, mine, grads

    results = [None, None]

    def run(i, seed):
        results[i] = train(seed)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i, seed)) for i, seed in enumerate((1, 2))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert [r[0] for r in results] == serial
    if workspace._IDLE is not None:
        (_, blocks_a, grads_a), (_, blocks_b, grads_b) = results
        assert blocks_a and blocks_b and not blocks_a & blocks_b
        assert grads_a <= blocks_a and grads_b <= blocks_b


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_process_workers_serve_bit_identically_after_the_parent_trained(start_method):
    model, step = _trainer()
    for _ in range(2):
        step()  # the parent's pool is warm when the worker is forked / spawned
    images, context, _ = make_synthetic_batch(64, rng=np.random.default_rng(6))
    with model.serve(buckets=(64,), workers=1, workers_mode="process",
                     start_method=start_method) as server:
        served = server.submit(images.data, context.data).result(timeout=120)
    with no_grad():
        assert served.tobytes() == model(images, context).data.tobytes()


# --------------------------------------------------------------------------- #
# (f) Without reference counts the module is np.empty
# --------------------------------------------------------------------------- #
def test_without_getrefcount_the_workspace_degrades_to_np_empty(monkeypatch):
    reference = _losses(4)
    try:
        monkeypatch.delattr(sys, "getrefcount")
        importlib.reload(workspace)
        assert workspace._IDLE is None
        before = workspace.stats()
        big = workspace.empty((1024, 1024), np.float32)
        assert big.base is None and big.flags.owndata  # plain np.empty
        assert _losses(4) == reference
        after = workspace.stats()
        assert (after["hit"], after["miss"]) == (before["hit"], before["miss"])
        assert after["small"] > before["small"] and after["retained_bytes"] == 0
    finally:
        monkeypatch.undo()
        importlib.reload(workspace)
    assert (workspace._IDLE is None) == (not hasattr(sys, "getrefcount"))
    assert _losses(4) == reference


# --------------------------------------------------------------------------- #
# Free-as-you-go backward keeps the working set small; the counters say so
# --------------------------------------------------------------------------- #
def _peak_leased_over_one_step(profiled=False):
    _, step = _trainer()
    for _ in range(3):
        step()
    pool = workspace._pool()
    pool.peak = 0  # the next lease recounts
    if profiled:
        with using_profiler():
            step()
    else:
        step()
    return pool.peak


@pooled
def test_peak_leased_bytes_of_a_batch64_step():
    peak = _in_thread(_peak_leased_over_one_step)
    # 18.0 MiB when backward() freed the graph only after the whole pass.
    assert 8 * MIB < peak <= 14 * MIB
    # Profiling frees at the same points.
    assert _in_thread(_peak_leased_over_one_step, True) == peak


@pooled
def test_workspace_metrics_are_exported():
    _, step = _trainer()
    step()
    stats = workspace.stats()
    text = get_registry().render()
    for result in ("hit", "miss", "small"):
        line = f'repro_workspace_requests_total{{result="{result}"}} '
        assert line in text
        assert float(text.split(line)[1].split()[0]) >= stats[result] > 0
    assert stats["leased_bytes_peak"] <= stats["retained_bytes"]
    assert "repro_workspace_retained_bytes " in text
    assert "repro_workspace_leased_bytes_peak " in text


def test_profiler_steps_carry_faults_and_system_time():
    _, step = _trainer(batch=8)
    with using_profiler() as prof:
        with prof.step("train_step"):
            step()
    rows = prof.step_stats()
    assert rows["train_step"]["calls"] == 1 and rows["backward"]["calls"] == 1
    for row in rows.values():
        assert row["mean_ms"] > 0
        assert row["minor_faults_per_call"] >= 0 and row["system_ms_per_call"] >= 0
    assert "step train_step: 1 calls" in prof.table()
