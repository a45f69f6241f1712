"""Codegen tests: region IR, the kernel cache, and the two-arm bit contract."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, functional as F, no_grad
from repro.codegen import (
    RegionIR,
    RegionInput,
    clear_kernel_memo,
    codegen_stats,
    compile_region,
    have_compiler,
    kernel_cache_dir,
    using_codegen,
)
from repro.codegen import jit
from repro.serve import compile_inference

needs_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler available")


def _chain_region(shape=(4, 8), dtype=np.float32):
    """relu((a * b) + c) over ``shape`` arrays."""
    inputs = [RegionInput(dtype, shape) for _ in range(3)]
    ops = [("mul", (0, 1)), ("add", (3, 2)), ("relu", (4,))]
    return RegionIR(inputs, ops, shape, dtype)


def _arrays(region, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(inp.shape).astype(inp.dtype) for inp in region.inputs]


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Point the on-disk kernel cache at a fresh directory; clear the memo."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    clear_kernel_memo()
    yield tmp_path
    clear_kernel_memo()


# --------------------------------------------------------------------------- #
# Region IR structure
# --------------------------------------------------------------------------- #
def test_region_validates_program():
    with pytest.raises(ValueError, match="at least one op"):
        RegionIR([RegionInput(np.float32, (2,))], [], (2,), np.float32)
    with pytest.raises(ValueError, match="undefined slot"):
        RegionIR(
            [RegionInput(np.float32, (2,))], [("neg", (5,))], (2,), np.float32
        )
    with pytest.raises(ValueError, match="float32/float64 only"):
        RegionIR(
            [RegionInput(np.int32, (2,))], [("neg", (0,))], (2,), np.int32
        )
    with pytest.raises(ValueError, match="share the output dtype"):
        RegionIR(
            [RegionInput(np.float64, (2,))], [("neg", (0,))], (2,), np.float32
        )


@needs_cc
def test_signature_abstracts_concrete_sizes(cache_dir):
    # Only the leading extent is a runtime value: one structure at batch 8
    # and at batch 64 is one cache entry.
    with using_codegen(True):
        for shape in ((8, 16), (64, 16)):
            assert compile_region(_chain_region(shape=shape)).is_compiled
        assert len(list(cache_dir.glob("*.so"))) == 1
        # A dtype, a rank (same element count) and a broadcast change: one
        # more entry each.
        compile_region(_chain_region(shape=(8, 16), dtype=np.float64))
        compile_region(_chain_region(shape=(8, 4, 4)))
        inputs = [
            RegionInput(np.float32, (8, 16)),
            RegionInput(np.float32, (16,)),  # row-broadcast operand
            RegionInput(np.float32, (8, 16)),
        ]
        compile_region(RegionIR(
            inputs, [("mul", (0, 1)), ("add", (3, 2)), ("relu", (4,))], (8, 16), np.float32
        ))
    assert len(list(cache_dir.glob("*.so"))) == 4


def test_interpret_matches_eager_ufunc_sequence():
    region = _chain_region()
    a, b, c = _arrays(region)
    expect = np.maximum(np.add(np.multiply(a, b), c), 0.0)
    got = region.interpret([a, b, c])
    assert got.tobytes() == expect.tobytes()
    # out= writes into the caller's buffer with identical values.
    buf = np.empty(region.out_shape, region.out_dtype)
    got2 = region.interpret([a, b, c], out=buf)
    assert got2 is buf
    assert buf.tobytes() == expect.tobytes()


def test_bind_rejects_shape_and_dtype_mismatch():
    region = _chain_region()
    a, b, c = _arrays(region)
    with pytest.raises(ValueError, match="has shape"):
        region.bind([a[:2], b, c])
    with pytest.raises(ValueError, match="has dtype"):
        region.bind([a.astype(np.float64), b, c])
    with pytest.raises(ValueError, match="takes 3 arrays"):
        region.bind([a, b])


# --------------------------------------------------------------------------- #
# The two execution arms
# --------------------------------------------------------------------------- #
def test_disabled_codegen_forces_interpreter_arm(cache_dir):
    region = _chain_region()
    arrays = _arrays(region)
    with using_codegen(False):
        kern = compile_region(region)
    assert kern.is_compiled is False
    expect = np.maximum(arrays[0] * arrays[1] + arrays[2], 0.0)
    assert kern(arrays).tobytes() == expect.tobytes()
    assert not list(cache_dir.glob("*.so"))  # nothing compiled


@needs_cc
def test_compiled_arm_bit_equal_to_interpreter(cache_dir):
    region = _chain_region(shape=(16, 32))
    rng = np.random.default_rng(7)
    arrays = [rng.standard_normal((16, 32)).astype(np.float32) for _ in range(3)]
    # Exercise the special values the relu rule must preserve.
    arrays[0][0, :4] = [np.nan, np.inf, -np.inf, -0.0]
    with using_codegen(True):
        compiled = compile_region(region)
    assert compiled.is_compiled is True
    with using_codegen(False):
        interp = compile_region(region)
    assert compiled(arrays).tobytes() == interp(arrays).tobytes()
    # out= path too.
    buf = np.empty(region.out_shape, region.out_dtype)
    got = compiled(arrays, out=buf)
    assert got is buf and buf.tobytes() == interp(arrays).tobytes()
    # The stages write out blind: a buffer of another shape is refused.
    with pytest.raises(ValueError, match="out must be"):
        compiled(arrays, out=np.empty((16, 16), np.float32))


@needs_cc
def test_float64_region_compiles_and_matches(cache_dir):
    region = _chain_region(shape=(5, 7), dtype=np.float64)
    arrays = _arrays(region, seed=11)
    with using_codegen(True):
        kern = compile_region(region)
    assert kern.is_compiled
    expect = region.interpret(arrays)
    assert kern(arrays).tobytes() == expect.tobytes()


# --------------------------------------------------------------------------- #
# Kernel cache behavior
# --------------------------------------------------------------------------- #
@needs_cc
def test_identical_region_hits_cache(cache_dir):
    region = _chain_region()
    before = codegen_stats()
    with using_codegen(True):
        k1 = compile_region(region)
        # Same structure, different batch size: same signature -> memo hit.
        k2 = compile_region(_chain_region(shape=(64, 8)))
    after = codegen_stats()
    assert k1.is_compiled and k2.is_compiled
    assert after["compiled"] == before["compiled"] + 1
    assert after["memo_hits"] == before["memo_hits"] + 1
    assert len(list(cache_dir.glob("*.so"))) == 1

    # Fresh process simulated by clearing the memo: the .so is reloaded
    # from disk, not recompiled.
    clear_kernel_memo()
    with using_codegen(True):
        k3 = compile_region(region)
    final = codegen_stats()
    assert k3.is_compiled
    assert final["compiled"] == after["compiled"]
    assert final["disk_hits"] == after["disk_hits"] + 1


@needs_cc
def test_dtype_and_rank_changes_miss_cache(cache_dir):
    before = codegen_stats()
    with using_codegen(True):
        compile_region(_chain_region(shape=(4, 8), dtype=np.float32))
        compile_region(_chain_region(shape=(4, 8), dtype=np.float64))
        compile_region(_chain_region(shape=(2, 2, 8), dtype=np.float32))
    after = codegen_stats()
    assert after["compiled"] == before["compiled"] + 3
    assert len(list(cache_dir.glob("*.so"))) == 3


@needs_cc
def test_a_compiler_of_another_version_builds_its_own_entry(cache_dir, monkeypatch):
    # The entry's content hash covers the compiler's version line: what an
    # old compiler built is never loaded for a new one.
    region = _chain_region()
    arrays = _arrays(region)
    with using_codegen(True):
        assert compile_region(region).is_compiled
    (old,) = cache_dir.glob("*.so")
    path, version = jit._compiler()
    monkeypatch.setattr(jit, "_compiler", lambda: (path, version + " (another release)"))
    loaded, load = [], jit._load_stages
    monkeypatch.setattr(jit, "_load_stages", lambda so, *rest: loaded.append(so) or load(so, *rest))
    clear_kernel_memo()
    before = codegen_stats()
    with using_codegen(True):
        kern = compile_region(region)
    assert kern.is_compiled
    assert codegen_stats()["compiled"] == before["compiled"] + 1
    assert sorted(cache_dir.glob("*.so")) == sorted({old} | set(loaded)) and len(loaded) == 1
    assert old not in loaded
    expect = np.maximum(arrays[0] * arrays[1] + arrays[2], 0.0)
    assert kern(arrays).tobytes() == expect.tobytes()


def test_the_compile_flags_keep_ieee_arithmetic():
    # Bit-identity with numpy rests on these: no a*b+c contracted into an
    # FMA, and none of the flags that let the compiler reassociate, drop
    # signed zeros or assume no NaN / inf.
    assert "-ffp-contract=off" in jit._CFLAGS
    unsafe = {"-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-ffinite-math-only"}
    assert not unsafe & set(jit._CFLAGS)


@needs_cc
def test_other_compile_flags_build_their_own_entry(cache_dir, monkeypatch):
    # The flags are part of the entry's content hash: what other flags
    # built is never loaded.
    region = _chain_region()
    arrays = _arrays(region)
    with using_codegen(True):
        assert compile_region(region).is_compiled
    (old,) = cache_dir.glob("*.so")
    monkeypatch.setattr(jit, "_CFLAGS", jit._CFLAGS + ("-g0",))
    loaded, load = [], jit._load_stages
    monkeypatch.setattr(jit, "_load_stages", lambda so, *rest: loaded.append(so) or load(so, *rest))
    clear_kernel_memo()
    before = codegen_stats()
    with using_codegen(True):
        kern = compile_region(region)
    assert kern.is_compiled
    assert codegen_stats()["compiled"] == before["compiled"] + 1
    assert sorted(cache_dir.glob("*.so")) == sorted({old} | set(loaded)) and len(loaded) == 1
    assert old not in loaded
    expect = np.maximum(arrays[0] * arrays[1] + arrays[2], 0.0)
    assert kern(arrays).tobytes() == expect.tobytes()


@needs_cc
def test_corrupted_cache_entry_recompiles(cache_dir, tmp_path_factory, monkeypatch):
    # Compile in a scratch cache only to learn the entry's content-addressed
    # filename, then plant a garbage .so under that name in a *fresh* cache
    # dir.  (Corrupting the scratch copy in place would be unsound: it is
    # still mmapped by this process, and overwriting a mapped .so faults.)
    region = _chain_region()
    arrays = _arrays(region)
    scratch = tmp_path_factory.mktemp("kernels-scratch")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(scratch))
    with using_codegen(True):
        assert compile_region(region).is_compiled
    (so_path,) = scratch.glob("*.so")

    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(cache_dir))
    (cache_dir / so_path.name).write_bytes(b"not a shared object")
    clear_kernel_memo()
    before = codegen_stats()
    with using_codegen(True):
        kern = compile_region(region)
    after = codegen_stats()
    assert kern.is_compiled
    assert after["compiled"] == before["compiled"] + 1  # recompiled, no crash
    expect = np.maximum(arrays[0] * arrays[1] + arrays[2], 0.0)
    assert kern(arrays).tobytes() == expect.tobytes()


def test_codegen_counters_exported_to_registry(cache_dir):
    from repro.obs.metrics import get_registry

    region = _chain_region()
    with using_codegen(False):
        compile_region(region)
    text = get_registry().render()
    assert "repro_codegen_fallback_total" in text


# --------------------------------------------------------------------------- #
# Structured regions: reduction tails
# --------------------------------------------------------------------------- #
def _reduce_region(op="sum", shape=(6, 10), k=1, keepdims=False, dtype=np.float32):
    """``op((a * b), over the last k axes)`` — map stage + reduce tail."""
    inputs = [RegionInput(dtype, shape) for _ in range(2)]
    kept = shape[: len(shape) - k]
    out_shape = kept + (1,) * k if keepdims else kept
    ops = [("mul", (0, 1)), (op, (2,), (k, keepdims))]
    return RegionIR(inputs, ops, out_shape, dtype)


def _compiled(region, reload: bool):
    """``compile_region(region)``; with ``reload``, the kernel a fresh memo
    loads from the disk cache after the first compile."""
    with using_codegen(True):
        kern = compile_region(region)
        if reload:
            clear_kernel_memo()
            kern = compile_region(region)
    return kern


def test_reduction_meta_is_part_of_the_program():
    with pytest.raises(ValueError, match="meta"):
        RegionIR(
            [RegionInput(np.float32, (4, 8))], [("sum", (0,))], (4,), np.float32
        )
    r1 = _reduce_region(k=1)
    r2 = _reduce_region(shape=(6, 10, 3), k=2)
    assert r1.lower()[0] != r2.lower()[0]


def test_reduction_interpret_matches_eager_and_pins_dtype():
    # The interpreter arm must accumulate in the *region* dtype: a float32
    # region sums in float32 (numpy's own default for float32 inputs), so
    # cancellation behaves exactly like the eager backend — not like a
    # higher-precision accumulator.  [1e8, 1, -1e8, 1] loses one of the 1s
    # in float32; a float64 accumulator would keep both.
    vals = np.array([[1e8, 1.0, -1e8, 1.0]], np.float32)
    ones = np.ones_like(vals)
    region = _reduce_region(shape=(1, 4), k=1)
    got = region.interpret([vals, ones])
    assert got.dtype == np.float32
    expect = vals.sum(axis=-1)
    assert got.tobytes() == expect.tobytes()
    assert got[0] != np.float32(vals.astype(np.float64).sum())
    # mean divides the same accumulator.
    mregion = _reduce_region(op="mean", shape=(1, 4), k=1)
    assert mregion.interpret([vals, ones]).tobytes() == vals.mean(axis=-1).tobytes()


@needs_cc
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", ["sum", "mean"])
@pytest.mark.parametrize("reload", [False, True])
def test_reduction_tail_kernel_bit_equal_to_interpreter(cache_dir, dtype, op, reload):
    # Cover all three pairwise-summation regimes of the C arm: sequential
    # (R < 8), the 8-lane block (8 <= R <= 128), and recursive halving
    # (R > 128) — plus a multi-axis tail and keepdims.
    cases = [
        ((3, 5), 1, False),
        ((4, 64), 1, False),
        ((2, 1000), 1, True),
        ((3, 4, 6), 2, False),
    ]
    for shape, k, keepdims in cases:
        region = _reduce_region(op=op, shape=shape, k=k, keepdims=keepdims, dtype=dtype)
        arrays = _arrays(region, seed=hash((shape, k)) % 1000)
        kern = _compiled(region, reload)
        assert kern.is_compiled, (shape, k)
        expect = region.interpret(arrays)
        got = kern(arrays)
        assert got.shape == expect.shape
        assert got.tobytes() == expect.tobytes(), (shape, k, keepdims)
        # out= lands the same bytes in the caller's buffer.
        buf = np.empty(region.out_shape, region.out_dtype)
        assert kern(arrays, out=buf) is buf
        assert buf.tobytes() == expect.tobytes()


# --------------------------------------------------------------------------- #
# Linear heads: the session planner's compiled groups
# --------------------------------------------------------------------------- #
class _Forward(nn.Module):
    def __init__(self, forward) -> None:
        super().__init__()
        self.fn = forward

    def forward(self, *xs):
        return self.fn(*xs)


def _session(model, x, codegen=True):
    """``compile_inference(model, [x])`` with every planned kernel adopted."""
    with using_codegen(codegen):
        session = compile_inference(model, [x])
        if codegen:
            assert session.wait_compiled(120), session.explain()
    return session


@needs_cc
@pytest.mark.parametrize("reload", [False, True])
@pytest.mark.parametrize("bias", [True, False])
def test_linear_epilogue_kernel_matches_interpreter(cache_dir, reload, bias):
    # A linear heads a group whose map stage is its bias add and the relu;
    # the numpy steps are the interpreter.  With ``reload`` a fresh memo
    # loads the group's kernel from the disk cache.
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 6)).astype(np.float32)
    w = Tensor(rng.standard_normal((6, 8)).astype(np.float32))
    b = Tensor(rng.standard_normal(8).astype(np.float32)) if bias else None
    model = _Forward(lambda x: F.linear(x, w, b).relu()).eval()
    session = _session(model, x)
    if reload:
        hits = codegen_stats()["disk_hits"]
        clear_kernel_memo()
        session = _session(model, x)
        assert codegen_stats()["disk_hits"] > hits
    assert session.explain() == [
        {"step": 0, "ops": ["linear", "relu"], "arm": "compiled", "reason": None}
    ]
    expect = _session(model, x, codegen=False).run(x).copy()
    eager = np.matmul(x, w.data)
    if bias:
        eager = np.add(eager, b.data)
    eager = np.maximum(eager, 0.0)
    assert expect.tobytes() == eager.tobytes()
    assert session.run(x).tobytes() == expect.tobytes()


@needs_cc
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_reduction_pipeline_kernel(cache_dir, dtype):
    # GEMM head -> relu -> sum tail: the planner's linear group, then the
    # fusion pass's reduction region, both compiled, bit-equal to the numpy
    # steps and to eager numpy.
    rng = np.random.default_rng(21)
    x = rng.standard_normal((4, 6)).astype(dtype)
    w = Tensor(rng.standard_normal((6, 8)).astype(dtype), dtype=dtype)
    b = Tensor(rng.standard_normal(8).astype(dtype), dtype=dtype)
    model = _Forward(lambda x: F.linear(x, w, b).relu().sum(axis=-1)).eval()
    session = _session(model, x)
    assert [(row["ops"], row["arm"]) for row in session.explain()] == [
        (["linear"], "compiled"), (["region"], "compiled")
    ]
    expect = _session(model, x, codegen=False).run(x).copy()
    eager = np.maximum(np.add(np.matmul(x, w.data), b.data), 0.0)
    eager = eager.sum(axis=-1, dtype=dtype)
    assert expect.tobytes() == eager.tobytes()
    assert session.run(x).tobytes() == expect.tobytes()


@needs_cc
def test_const_inputs_are_bound_not_passed(cache_dir):
    # An eval batch-norm's frozen statistics are constants of its step: the
    # planner binds them into the group's pointer table once, at adoption;
    # the one row bound per call is the input the GEMM reads.
    rng = np.random.default_rng(5)
    model = nn.Sequential(nn.Linear(6, 8, rng=rng), nn.BatchNorm1d(8), nn.ReLU())
    model[1].running_mean[:] = rng.standard_normal(8)
    model[1].running_var[:] = rng.uniform(0.5, 2.0, 8)
    model.eval()
    x = rng.standard_normal((4, 6)).astype(np.float32)
    session = _session(model, x)
    assert [row["ops"] for row in session.explain()] == [["linear", "batch_norm", "relu"]]
    (step,) = [step for step, _, _ in session._bound if hasattr(step, "consts")]
    (driver,) = session._plan._drivers
    entries = driver.entries
    assert all(any(ref is const for ref in entries) for const in step.consts)
    assert [ref for ref in entries if isinstance(ref, int)] == [0]  # the input's value slot
    for seed in (6, 7):
        x = np.random.default_rng(seed).standard_normal((4, 6)).astype(np.float32)
        with no_grad():
            want = model(Tensor(x)).data
        assert session.run(x).tobytes() == want.tobytes()


def test_scalar_full_reduction_compiles_or_interprets(cache_dir):
    # Reduce over *every* axis: 0-d output exercises the (0,) dims path.
    region = _reduce_region(shape=(5, 7), k=2)
    arrays = _arrays(region, seed=2)
    expect = np.multiply(*arrays).sum(dtype=np.float32)
    with using_codegen(True):
        kern = compile_region(region)
    got = kern(arrays)
    assert got.shape == ()
    assert got.tobytes() == expect.tobytes()
    with using_codegen(False):
        interp = compile_region(region)
    assert interp(arrays).tobytes() == expect.tobytes()


def test_unplannable_structured_region_falls_back_whole(cache_dir):
    # A post-reduce op that re-reads a pre-reduce interior cannot be staged;
    # the whole region must resolve to the interpreter arm (still correct),
    # never a half-compiled pipeline.
    inputs = [RegionInput(np.float32, (4, 8))]
    ops = [("relu", (0,)), ("sum", (1,), (1, True)), ("mul", (1, 2))]
    region = RegionIR(inputs, ops, (4, 8), np.float32)
    (x,) = _arrays(region, seed=13)
    relu = np.maximum(x, 0.0)
    expect = relu * relu.sum(axis=-1, keepdims=True, dtype=np.float32)
    with using_codegen(True):
        kern = compile_region(region)
    assert kern.is_compiled is False
    assert kern([x]).tobytes() == expect.tobytes()


@needs_cc
def test_stage_tables_grow_past_eight_rows(cache_dir, monkeypatch):
    # Eleven inputs and the output: a twelve-row pointer table.
    inputs = [RegionInput(np.float32, (3, 5)) for _ in range(11)]
    ops = [("add", (0, 1))] + [(("mul", "add")[i % 2], (11 + i, i + 2)) for i in range(9)]
    region = RegionIR(inputs, ops, (3, 5), np.float32)
    arrays = _arrays(region, seed=4)
    expect = region.interpret(arrays).tobytes()

    def no_fallback(self, arrays, out=None):
        raise AssertionError("the kernel fell back to the interpreter")

    monkeypatch.setattr(RegionIR, "interpret", no_fallback)
    with using_codegen(True):
        kern = compile_region(region)
    assert kern.is_compiled
    assert kern(arrays).tobytes() == expect
    # The same stage through a pinned table.
    signature, extents, _ = region.lower()
    lib, _ = jit.resolve(signature)
    out = np.empty((3, 5), np.float32)
    assert lib.table(keep_below=1 << 20).call(lib.fns[0], extents[0], [*arrays, out])
    assert out.tobytes() == expect


# --------------------------------------------------------------------------- #
# Cross-process cache concurrency + the mode-labelled counters
# --------------------------------------------------------------------------- #
def _concurrent_compile_worker(barrier, queue):
    # Runs in a forked child: compile the same reduction region as every
    # sibling, all released through one barrier to maximize lock contention.
    import numpy as _np

    from repro.codegen import clear_kernel_memo as _clear
    from repro.codegen import compile_region as _cr, codegen_stats as _stats
    from repro.codegen import RegionIR as _R, RegionInput as _RI
    from repro.codegen.jit import using_codegen as _using

    shape = (3, 37)
    region = _R(
        [_RI(_np.float32, shape), _RI(_np.float32, shape)],
        [("mul", (0, 1)), ("sum", (2,), (1, False))],
        (3,),
        _np.float32,
    )
    rng = _np.random.default_rng(0)
    arrays = [rng.standard_normal(shape).astype(_np.float32) for _ in range(2)]
    # Forked children inherit the parent's kernel memo; drop it so each
    # child resolves against the shared *disk* cache like a fresh worker.
    _clear()
    before = _stats()["compiled"]
    barrier.wait(timeout=60)
    with _using(True):
        kern = _cr(region)
    queue.put(
        (
            bool(kern.is_compiled),
            kern(arrays).tobytes(),
            region.interpret(arrays).tobytes(),
            _stats()["compiled"] - before,
        )
    )


@needs_cc
def test_concurrent_processes_share_one_compile(cache_dir):
    # N processes race to compile one kernel into a shared cache: the
    # per-entry flock serializes them into one compile + N-1 disk hits,
    # one .so on disk, and identical bytes everywhere.
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    n = 4
    barrier = ctx.Barrier(n)
    queue = ctx.Queue()
    procs = [
        ctx.Process(target=_concurrent_compile_worker, args=(barrier, queue))
        for _ in range(n)
    ]
    for p in procs:
        p.start()
    results = [queue.get(timeout=120) for _ in range(n)]
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    assert all(compiled for compiled, _, _, _ in results)
    reference = results[0][2]
    for _, got, interp, _ in results:
        assert got == reference and interp == reference
    # Exactly one child actually invoked the compiler...
    assert sum(compiled_count for _, _, _, compiled_count in results) == 1
    # ...and exactly one entry landed on disk.
    assert len(list(cache_dir.glob("*.so"))) == 1
    assert list(cache_dir.glob("*.lock"))  # the advisory lock was taken


@needs_cc
def test_cache_counters_are_mode_labelled(cache_dir):
    from repro.obs.metrics import get_registry

    from repro.codegen import ingest_worker_codegen_stats

    region = _chain_region(shape=(9, 13))
    before = codegen_stats()
    with using_codegen(True):
        compile_region(region)  # compile: one mode="local" miss
    clear_kernel_memo()
    with using_codegen(True):
        compile_region(region)  # disk reload: one mode="local" hit
    after = codegen_stats()
    assert after["compiled"] == before["compiled"] + 1
    assert after["disk_hits"] == before["disk_hits"] + 1
    text = get_registry().render()
    assert 'repro_codegen_cache_miss_total{mode="local"}' in text
    assert 'repro_codegen_cache_hit_total{mode="local"}' in text

    # A worker snapshot folds in under mode="process": ProcServer sends
    # codegen_stats() with its ready handshake and the parent ingests it.
    ingest_worker_codegen_stats({"compiled": 2, "disk_hits": 3, "memo_hits": 1})
    text = get_registry().render()
    assert 'repro_codegen_cache_miss_total{mode="process"}' in text
    assert 'repro_codegen_cache_hit_total{mode="process"}' in text
