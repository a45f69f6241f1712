"""The compiled arm of the train step's kernels against the numpy bodies.

``conv2d``'s gather and scatter and ``relu`` run C loop stages under a tape
(:mod:`repro.autograd.kernels`) once the compile thread has built them, and
their numpy bodies before that, with codegen off, and for any operand the
stages cannot take; a replayed step's conv blocks run stages of their own
(``test_train_blocks``), and the tests here that need one (the channel
sums, one channel, the max-pool route) drive them.  The contract is **the
same bytes**: every forward output, every array saved for backward and
every gradient, on generated geometries, f32 and f64, N in {0, 1, 3, 64},
with inputs *and incoming gradients* carrying NaN / +-inf / +-0.0 /
subnormals / exact ties.

**The NaN rule** (:func:`same`): *which* elements are NaN is identical on
both arms; the sign and payload of a NaN produced from two NaN operands is
unspecified (x86 keeps the first operand's, and C lets the compiler commute
``a + b``), so NaNs compare equal to NaNs and every other element by its bits.
"""

import hashlib
import os
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F, kernels
from repro.backend import workspace
from repro.codegen import (
    codegen_enabled, codegen_stats, have_compiler, jit, using_codegen, wait_for_compiles)
from repro.codegen.cstage import render_stages
from repro.models import TBNet, make_synthetic_batch
from repro.models.tbnet import train_replay
from repro.nn.optim import SGD, Adam
from repro.obs.profile import using_profiler

from test_compile_thread import _fake_cc, _fallbacks

pytestmark = pytest.mark.skipif(
    not (have_compiler() and codegen_enabled()),
    reason="no C compiler available, or codegen is off (REPRO_CODEGEN=0)",
)

BATCHES = (0, 1, 3, 64)
F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def same(got, want, what=""):
    """Byte for byte, under the NaN rule of the module docstring."""
    assert (got is None) == (want is None), what
    if want is None:
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    if want.dtype.kind != "f":
        assert got.tobytes() == want.tobytes(), what
        return
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), f"{what}: NaNs in other places"
    assert got[~nan].tobytes() == want[~nan].tobytes(), what


def draw(rng, shape, dtype, poison, zero=False):
    """Small integers (so maxima tie and sums are exact) plus noise on half
    the elements; ``poison`` is the share replaced by special values.  With
    ``zero`` channel 0 is all ``-0.0`` — its sum is ``+0.0`` only in numpy's
    order, which adds every block onto ``+0.0``."""
    a = rng.integers(-3, 4, size=shape).astype(dtype)
    a += (rng.random(shape) < 0.5) * rng.standard_normal(shape).astype(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, tiny, -tiny * 3], dtype)
    hit = rng.random(shape) < poison
    a[hit] = rng.choice(specials, size=int(hit.sum()))
    if zero:
        a[:, :1] = -0.0
    return a


# --------------------------------------------------------------------------- #
# Generated cases
# --------------------------------------------------------------------------- #
def _conv_cases():
    rng = np.random.default_rng(22)
    cases = [  # every flag at least once, then random ones
        dict(c=3, h=8, w=8, o=4, k=(3, 3), s=(1, 1), p=(1, 1), bias=True, frozen=False, xgrad=True),
        dict(c=2, h=7, w=5, o=3, k=(2, 3), s=(2, 1), p=(0, 1), bias=False, frozen=False, xgrad=True),
        dict(c=1, h=6, w=9, o=2, k=(1, 1), s=(1, 2), p=(0, 0), bias=True, frozen=True, xgrad=True),
        dict(c=2, h=5, w=5, o=2, k=(3, 2), s=(2, 2), p=(1, 0), bias=True, frozen=False, xgrad=False),
    ]
    for _ in range(2):
        k = tuple(int(v) for v in rng.integers(1, 4, 2))
        cases.append(dict(
            c=int(rng.integers(1, 4)), h=int(rng.integers(4, 10)), w=int(rng.integers(4, 10)),
            o=int(rng.integers(1, 5)), k=k, s=tuple(int(v) for v in rng.integers(1, 3, 2)),
            p=tuple(int(v) for v in rng.integers(0, 2, 2)), bias=bool(rng.integers(2)),
            frozen=False, xgrad=True))
    return cases


#: Footprints a conv's gather and scatter walk, ``(c, h, w, kernel, stride,
#: padding)``: windows that overlap, pad or leave gaps.  Those from
#: FIRST_GAPS on (neither overlapping nor padded) come last in RUNS.
WINDOWS = [
    (2, 8, 8, (2, 2), (2, 2), (0, 0)),    # stride = kernel
    (2, 7, 9, (2, 2), (2, 2), (0, 0)),    # extents not divisible by the kernel
    (1, 7, 7, (3, 3), (2, 2), (0, 0)),    # overlapping
    (2, 6, 5, (3, 2), (1, 1), (1, 1)),    # overlapping and padded
    (1, 8, 6, (2, 3), (2, 3), (1, 1)),    # padded
    (1, 9, 9, (2, 2), (3, 3), (0, 0)),    # gaps between windows
    (3, 16, 16, (2, 2), (2, 2), (0, 0)),  # TBNet's pools, as a footprint
    (2, 9, 7, (2, 2), (2, 2), (0, 0)),    # odd: the last row and column in no window
    (2, 9, 11, (3, 3), (3, 3), (0, 0)),
    (2, 7, 6, (1, 1), (2, 2), (0, 0)),    # every other row and column in no window
    (1, 8, 10, (2, 3), (2, 3), (0, 0)),
]
FIRST_GAPS = 6
WINDOW_CONVS = [dict(c=c, h=h, w=w, o=1 + i % 3, k=k, s=s, p=p, bias=i % 2 == 0, frozen=False,
                     xgrad=True) for i, (c, h, w, k, s, p) in enumerate(WINDOWS)]
#: Relu shapes behind N: one library per dtype, flat over the elements, so
#: what varies is the vector loop's tail.
SHAPES = [(5,), (3,), (2,), (3, 4, 5), (2, 3, 3), (4, 2, 2)]
CONVS = _conv_cases()
# Element counts and planes that straddle the 8- and 128-element steps of a
# vector loop and of numpy's pairwise sum: relus with channel 0 all -0.0, and
# biased 1x1 convs of 1, 2 and 16 output channels over long rows.
PLANES = ((1, 1), (1, 7), (2, 4), (3, 3), (8, 8), (1, 127), (8, 16), (3, 43), (16, 16), (1, 257))
SUM_RELUS = [(2 + 14 * (i % 2),) + hw for i, hw in enumerate(PLANES)]
SUM_CONVS = [dict(c=2, h=h, w=w, o=(1, 2, 16)[i % 3], k=(1, 1), s=(1, 1), p=(0, 0), bias=True,
                  frozen=False, xgrad=True, zero=True)
             for i, (h, w) in enumerate(((1, 1), (1, 7), (3, 3), (1, 127), (3, 43), (1, 257)))]


def conv_run(case, n, dtype, poison, seed=0):
    rng = np.random.default_rng([seed, n])
    zero = case.get("zero", False)
    x = Tensor(draw(rng, (n, case["c"], case["h"], case["w"]), dtype, poison, zero),
               requires_grad=case["xgrad"], dtype=dtype)
    w = Tensor(draw(rng, (case["o"], case["c"]) + case["k"], dtype, poison / 2),
               requires_grad=not case["frozen"], dtype=dtype)
    b = Tensor(draw(rng, (case["o"],), dtype, poison / 2), requires_grad=True,
               dtype=dtype) if case["bias"] else None
    out = F.conv2d(x, w, b, stride=case["s"], padding=case["p"])
    if not out.requires_grad:
        return {"out": out.data}
    out.backward(draw(rng, out.shape, dtype, poison, zero))
    return {"out": out.data, "dx": x.grad, "dw": w.grad, "db": b.grad if b is not None else None}


def relu_run(shape, n, dtype, poison, seed=0, zero=False):
    rng = np.random.default_rng([seed, n])
    x = Tensor(draw(rng, (n,) + shape, dtype, poison, zero), requires_grad=True, dtype=dtype)
    out = x.relu()
    mask = out._node.attrs["mask"]
    out.backward(draw(rng, out.shape, dtype, poison, zero))
    return {"out": out.data, "mask": mask, "dx": x.grad}


def zero_relu_run(shape, n, dtype, poison, seed=0):
    """:func:`relu_run` with channel 0 all ``-0.0``."""
    return relu_run(shape, n, dtype, poison, seed, zero=True)


RUNS = (
    [(conv_run, case) for case in CONVS]
    + [(conv_run, case) for case in WINDOW_CONVS[:FIRST_GAPS]]
    + [(relu_run, shape) for shape in SHAPES]
    + [(relu_run, (3, 5)), (relu_run, ())]
)
FIRST_SUMS = len(RUNS)
RUNS += [(zero_relu_run, shape) for shape in SUM_RELUS] + [(conv_run, case) for case in SUM_CONVS]
GAPS = len(RUNS)
RUNS += [(conv_run, case) for case in WINDOW_CONVS[FIRST_GAPS:]]


def _dtypes(index):
    # f64 on every third case and every other sum case: the compiler's time is the suite's
    if index >= GAPS:
        return F32, F64
    return (F32, F64) if index % (3 if index < FIRST_SUMS else 2) == 0 else (F32,)


@pytest.fixture(scope="module")
def adopted():
    """Every generated geometry built and adopted: each is recorded twice
    (the second sight asks), then one wait for the compile thread."""
    with np.errstate(all="ignore"):
        for index, (run, case) in enumerate(RUNS):
            for dtype in _dtypes(index):
                for _ in range(2):
                    run(case, 2, dtype, 0.0)
    assert wait_for_compiles(300)


@pytest.fixture
def stage_calls(monkeypatch):
    """How many compiled stages ran (table calls that bound, on a thread's
    shared table or on a replay's pinned ones)."""
    calls = []
    call = jit.StageLibrary.call

    def counting(self, fn, n, arrays, first=0):
        ran = call(self, fn, n, arrays, first)
        if fn is not None:
            calls.append(ran)
        return ran

    monkeypatch.setattr(jit.StageLibrary, "call", counting)
    return calls


# --------------------------------------------------------------------------- #
# (a) Both arms, byte for byte
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("index", range(len(RUNS)))
def test_compiled_arm_equals_numpy_arm_byte_for_byte(adopted, stage_calls, index):
    run, case = RUNS[index]
    with np.errstate(all="ignore"):
        for dtype in _dtypes(index):
            for n in BATCHES:
                for poison in (0.0, 0.3):
                    with using_codegen(False):
                        want = run(case, n, dtype, poison)
                    assert not stage_calls
                    got = run(case, n, dtype, poison)
                    assert (bool(stage_calls) and all(stage_calls)) == (n > 0), (case, n)
                    del stage_calls[:]
                    assert got.keys() == want.keys()
                    for key in want:
                        same(got[key], want[key], f"{run.__name__} {case} n={n} {dtype} {key}")


def test_saved_patch_matrix_and_frozen_filter(adopted, stage_calls):
    # The gather writes the patch matrix numpy's footprint loop writes, and
    # the forward's GEMM and bias add over it are numpy's on either arm; a
    # node whose filter takes no gradient keeps no patch matrix.
    case = CONVS[0]
    rng = np.random.default_rng(3)
    xd = draw(rng, (3, case["c"], case["h"], case["w"]), F32, 0.3)
    wd = draw(rng, (case["o"], case["c"]) + case["k"], F32, 0.0)
    bd = draw(rng, (case["o"],), F32, 0.0)
    arm = kernels.arm(F._CONV2D, F32, 3, case["c"], case["h"], case["w"], *case["k"],
                      *case["s"], *case["p"], case["o"], True)
    assert isinstance(arm, kernels.Conv2d)
    with np.errstate(all="ignore"):
        out, cols = F._conv2d_forward(arm, xd, wd, bd, *case["s"], *case["p"])
        assert stage_calls == [True]
        want_out, want_cols = F._conv2d_forward(None, xd, wd, bd, *case["s"], *case["p"])
        ports = [SimpleNamespace(requires_grad=r) for r in (True, False, True)]
        attrs = {"stride": case["s"], "padding": case["p"]}
        assert F._CONV2D.forward(arm, [xd, wd, bd], attrs, ports)[1][2] is None
    assert cols.tobytes() == want_cols.tobytes()  # a copy: no NaN rule needed
    same(out, want_out)


def test_stages_leave_no_channel_sum_to_numpy():
    # A replayed step's conv blocks sum batch-norm's statistics, its
    # backward's four sums and the conv bias gradient in the stages that
    # stream those arrays anyway: no member's numpy body sums.
    members = {"_batch_norm", "_var", "batch_norm_backward", "conv2d_backward"}

    def summed(model, opt, batch):
        callers = set()

        def spy(frame, event, arg):
            if event == "call":
                name, caller = frame.f_code.co_name, frame.f_back.f_code.co_name
            elif event == "c_call":
                name, caller = getattr(arg, "__name__", ""), frame.f_code.co_name
            else:
                return
            if name in ("sum", "mean", "reduce", "_sum", "_mean", "_var"):
                callers.add(caller)

        sys.setprofile(spy)
        try:
            model.train_step(opt, *batch)
        finally:
            sys.setprofile(None)
        return callers & members

    batch = make_synthetic_batch(8, rng=np.random.default_rng(2))
    runs = []
    for enabled in (False, True):
        with using_codegen(enabled):
            model = TBNet(width=16, rng=np.random.default_rng(1))
            opt = Adam(model.parameters(), 1e-3)
            for step in range(9):
                if step % 3 == 2:
                    assert wait_for_compiles(300)  # the ops' stages, then the blocks'
                model.train_step(opt, *batch)
            blocks = [r["arm"] for r in train_replay(model).explain() if len(r["ops"]) == 4]
            assert blocks == ["compiled" if enabled else "numpy"] * 2
            runs.append(summed(model, opt, batch))
    assert runs[0] == members and not runs[1]


def test_one_channel_batch_norm_takes_the_numpy_body(stage_calls):
    # numpy sums a single channel's N*H*W as one pairwise run, not sample by
    # sample: a conv block over one channel refuses the geometry (counted
    # once) and replays its members' steps, batch-norm's numpy body among
    # them; a bias gradient stays numpy's too.
    from test_train_blocks import STEPS, block_rows, check, trained

    case = dict(c=2, size=8, seed=1, dtype=np.float32, batch=4, specials=(), flat=16, blocks=[
        dict(o=1, k=3, s=1, p=1, pool=(2, 2, 0), bias=True, affine=True)])
    for key in [key for key in kernels._ARMS if key[0] == "block" and key[11] == 1]:
        del kernels._ARMS[key]
    kernels._COUNTED.difference_update(
        [entry for entry in kernels._COUNTED if entry[0][0] == "block" and entry[0][11] == 1])
    rows, before = [], _fallbacks("geometry")
    hooks = {1: lambda model: wait_for_compiles(300),  # the capture finds its ops' stages
             STEPS - 1: lambda model: rows.extend(block_rows(model))}
    got = trained(case, False, hooks)
    assert _fallbacks("geometry") - before == 1
    assert rows == [("numpy", "geometry")] and stage_calls and all(stage_calls)
    check(got, trained(case, True), case)


def test_disjoint_windows_are_routed_per_window_and_overlapping_ones_accumulate():
    # A conv block routes its pool's gradient per window and writes each
    # element once, with no zeroed plane: TBNet's 2x2/s2 and other windows
    # that neither overlap nor pad.  Overlapping or padded windows stay on
    # the members' steps, whose numpy backward accumulates across windows.
    def block(c, h, w, k, s, p):  # behind a 1x1 conv of two channels
        return kernels.Block.stages("float32", c, h, w, 1, 1, 1, 1, 0, 0, 2, True, True, True,
                                    *k, *s, *p)

    tbnet = [(c, h, h, (2, 2), (2, 2), (0, 0)) for c, h in ((3, 16), (16, 8))]
    for case in tbnet + [WINDOWS[0], WINDOWS[1], WINDOWS[5]] + WINDOWS[FIRST_GAPS:]:
        backward = render_stages(("stages", block(*case)[2:3]))[1]
        assert "plane[at] = (float)0 + gi * (float)h1" in backward, case
        assert "tile[" not in backward, case
    for case in WINDOWS[2:5]:
        assert block(*case) == "geometry", case


def test_route_runs_numpys_nan_round_over_every_window_or_none():
    # One NaN anywhere makes numpy add ``g * 0`` to every window a second
    # time: an infinite gradient then reads NaN even at its winner.  A conv
    # block routes its pool's gradient in its backward stage, NaN round too.
    # One-element windows, so nothing but round two adds ``inf * 0``.
    from test_train_blocks import PLANES, block_stages, built_blocks

    plane = PLANES[2]
    assert plane[2][:2] == (1, 1)
    arms = built_blocks([(plane, np.float32)])
    for nan_somewhere in (False, True):
        got, want = block_stages(arms, plane, 2, np.float32, 0.0, nan_round=nan_somewhere)
        for key in want:
            same(got[key], want[key], key)
        # Channel 0's gradient sum: inf from the inf window's winner, or NaN
        # after round two.
        assert np.isnan(want["dbeta"][0]) == nan_somewhere


# --------------------------------------------------------------------------- #
# (b) Operands the stages cannot take: the numpy body, a counted reason
# --------------------------------------------------------------------------- #
def _counted(reason, fn):
    """``fn()`` twice; how often ``reason`` was counted (once per signature)."""
    before = _fallbacks(reason)
    results = [fn(), fn()]
    return _fallbacks(reason) - before, results


@pytest.mark.parametrize("layout", ["strided", "fortran", "read_only"])
def test_layouts_the_stages_cannot_bind_take_the_numpy_body(adopted, stage_calls, layout):
    # A conv input the gather cannot bind: numpy's patch matrix.
    case = WINDOW_CONVS[0]
    c, h, w, k, s, p, o = (case[key] for key in ("c", "h", "w", "k", "s", "p", "o"))
    rng = np.random.default_rng(4)
    base = draw(rng, (3, c, h, 2 * w), F32, 0.0)
    weight, bias = draw(rng, (o, c) + k, F32, 0.0), draw(rng, (o,), F32, 0.0)
    x = {"strided": base[..., ::2], "fortran": np.asfortranarray(base[..., :w]),
         "read_only": base[..., :w].copy()}[layout]
    if layout == "read_only":
        x.setflags(write=False)

    def run(data=x):
        t = Tensor(data, requires_grad=True)
        assert t.data is data
        out = F.conv2d(t, Tensor(weight, requires_grad=True), Tensor(bias, requires_grad=True),
                       stride=s, padding=p)
        out.backward(np.ones(out.shape, np.float32))
        return out.data, t.grad

    kernels._COUNTED.discard((("conv2d", F32, c, h, w) + k + s + p, "layout"))
    counted, (first, second) = _counted("layout", run)
    assert counted == 1  # per signature, not per call
    assert stage_calls == [False, True] * 2  # the gather refuses, the scatter binds
    want = run(np.ascontiguousarray(x))
    for got in (first, second):
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def test_convs_of_one_input_window_share_one_arm(adopted):
    # The gather and scatter read the input window alone: convs that differ
    # in width or bias resolve one signature, and an operand the stages
    # cannot bind is counted once for all of them.
    case = WINDOW_CONVS[0]
    c, h, w, k, s, p = (case[key] for key in ("c", "h", "w", "k", "s", "p"))
    window = (c, h, w) + k + s + p
    arms = {kernels.arm(F._CONV2D, F32, 3, *window, o, bias)
            for o, bias in ((1, True), (4, True), (7, False))}
    assert len(arms) == 1 and isinstance(arms.pop(), kernels.Conv2d)
    assert ("conv2d", F32) + window in kernels._ARMS
    assert all(len(key) == 2 + len(window) for key in kernels._ARMS if key[0] == "conv2d")

    rng = np.random.default_rng(7)
    x = draw(rng, (3, c, h, 2 * w), F32, 0.0)[..., ::2]  # the gather cannot bind it

    def run(o):
        weight = Tensor(draw(rng, (o, c) + k, F32, 0.0), requires_grad=True)
        out = F.conv2d(Tensor(x, requires_grad=True), weight, stride=s, padding=p)
        out.backward(np.ones(out.shape, np.float32))

    kernels._COUNTED.discard((("conv2d", F32) + window, "layout"))
    before = _fallbacks("layout")
    run(1)
    run(5)
    assert _fallbacks("layout") - before == 1


def test_a_float64_gradient_into_a_float32_op_takes_the_numpy_body(adopted):
    x = draw(np.random.default_rng(5), (2, 3, 4, 4), F32, 0.0)
    g = draw(np.random.default_rng(6), (2, 3, 4, 4), F64, 0.0)

    def run(enabled=True):
        with using_codegen(enabled):
            t = Tensor(x, requires_grad=True)
            out = t.relu()
            out.grad = g  # what no ``backward(grad)`` hands a thunk: it casts first
            out._node.backward()
            return t.grad

    kernels._COUNTED.discard((("relu", F32), "dtype"))
    counted, (first, _) = _counted("dtype", run)
    assert counted == 1
    assert first.dtype == F32 and first.tobytes() == run(False).tobytes()


def test_other_backends_dtypes_and_oversized_planes_stay_numpy(adopted, stage_calls):
    x16 = np.ones((2, 3), np.float16)
    big = np.ones((1, 1, 200, 200), np.float32)  # a padded plane past the C stack's share
    weight = np.ones((1, 1, 3, 3), np.float32)

    def half():
        return Tensor(x16, requires_grad=True, dtype=np.float16).relu().data

    def oversized():
        return F.conv2d(Tensor(big), Tensor(weight, requires_grad=True), padding=1).data

    for reason, fn in (("dtype", half), ("geometry", oversized)):
        kernels._COUNTED.clear()
        counted, _ = _counted(reason, fn)
        assert counted == 1, reason
    assert not stage_calls


def test_without_a_tape_nothing_is_asked(adopted, stage_calls):
    from repro.autograd import no_grad

    x = Tensor(np.ones((2, 2, 8, 8), np.float32), requires_grad=True)
    arms = dict(kernels._ARMS)
    with no_grad():
        F.max_pool2d(F.batch_norm(x.relu(), training=False), 2)
    F.max_pool2d(Tensor(x.data).relu(), 2)  # grad enabled, nothing requires it
    assert not stage_calls and kernels._ARMS == arms


# --------------------------------------------------------------------------- #
# (c) A training run across the switch
# --------------------------------------------------------------------------- #
def train_hash(batch, steps, optimizer=Adam, pause=None):
    """SHA-256 over the losses, final parameters and batch-norm statistics of
    a seeded TBNet run (the procedure PR 18 used by hand); ``pause()`` runs
    half way."""
    model = TBNet(width=16, rng=np.random.default_rng(1))
    opt = optimizer(model.parameters(), 1e-3) if optimizer is Adam else optimizer(
        model.parameters(), 1e-2, momentum=0.9)
    rng = np.random.default_rng(2)
    batches = [make_synthetic_batch(batch, rng=rng) for _ in range(4)]
    digest = hashlib.sha256()
    for step in range(steps):
        if pause is not None and step == steps // 2:
            pause()
        digest.update(np.float64(model.train_step(opt, *batches[step % 4])).tobytes())
    for array in list(model.state_dict().values()):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.fixture
def cold(tmp_path, monkeypatch):
    """A cold kernel cache and nothing adopted, asked for or remembered.
    What the test adopts stays adopted: the next one need not build it again."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernels"))
    monkeypatch.setattr(jit, "_cc_cache", None)
    arms, counted = dict(kernels._ARMS), set(kernels._COUNTED)
    kernels._ARMS.clear()
    jit.clear_kernel_memo()
    yield tmp_path / "kernels"
    wait_for_compiles(120)
    for key, value in arms.items():
        if not isinstance(kernels._ARMS.get(key), kernels.Arm):
            kernels._ARMS[key] = value
    kernels._COUNTED.update(counted)
    jit.clear_kernel_memo()


def test_a_run_that_adopts_half_way_equals_the_numpy_run(cold, stage_calls):
    with using_codegen(False):
        want = train_hash(4, 40)
    held = []

    def adopt():  # a cold cache: numpy bodies so far, but for what a first small unit brought
        held.append(len(stage_calls))
        assert wait_for_compiles(300)

    compiled = codegen_stats()["compiled"]
    assert train_hash(4, 40, pause=adopt) == want
    # The capture's eager step runs the ops' 13 stages (each conv's gather,
    # the scatter of the one whose input takes a gradient, each relu's two),
    # every replayed step after it 11: each conv block's two, each other
    # relu's two and the optimizer's update.
    assert all(stage_calls) and held[0] < 13 + 19 * 11 <= len(stage_calls) - held[0]
    assert 1 <= codegen_stats()["compiled"] - compiled <= 3  # queued signatures share a unit


def test_batch_64_hash_and_what_the_workspace_holds_across_the_switch(adopted):
    with using_codegen(False):
        want = train_hash(64, 40)
        held = workspace.stats()["retained_bytes"]
    assert train_hash(64, 40, pause=lambda: wait_for_compiles(300)) == want
    # Blocks only the numpy bodies ask for (padded images, the router's
    # masks) stay pooled after the switch; the compiled arm adds next to none.
    assert workspace.stats()["retained_bytes"] - held <= 4 * 2**20


@pytest.mark.parametrize("backend", ["numpy", "fused", "lazy"])
def test_training_hash_is_the_same_on_every_arm(adopted, backend):
    for optimizer in (Adam, SGD) if backend == "numpy" else (Adam,):
        with using_codegen(False):
            want = train_hash(4, 40, optimizer)
        assert train_hash(4, 40, optimizer, pause=lambda: wait_for_compiles(300)) == want


def test_threads_training_at_once_bind_their_own_tables(adopted):
    # Stage calls release the GIL; a pointer table shared between threads
    # would hand one thread's kernels the other's operands.
    import threading

    want = train_hash(4, 12)
    got, interval = [], sys.getswitchinterval()
    threads = [threading.Thread(target=lambda: got.append(train_hash(4, 12))) for _ in range(4)]
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [want] * 4


@pytest.mark.parametrize("kind, reason", [
    ("exits_nonzero", "compile_failed"), ("never_returns", "compile_failed"),
    ("emits_garbage", "load_failed")])
def test_a_failing_compiler_leaves_training_on_the_numpy_bodies(
        cold, tmp_path, monkeypatch, stage_calls, kind, reason):
    _fake_cc(tmp_path, monkeypatch, kind)
    monkeypatch.setattr(jit, "_CC_TIMEOUT", 0.2)
    with using_codegen(False):
        want = train_hash(4, 12)
    counted = _fallbacks(reason)
    assert train_hash(4, 12, pause=lambda: wait_for_compiles(60)) == want
    assert not stage_calls
    # Once per signature, on the compile thread: the two convs' and the
    # relus', the update's and the two conv blocks'.
    assert _fallbacks(reason) - counted == 6
    assert not list(cold.glob("*.so"))


# --------------------------------------------------------------------------- #
# (d) Observability
# --------------------------------------------------------------------------- #
def test_profile_rows_name_the_compiled_stages_and_still_sum_to_the_step(adopted):
    model = TBNet(width=16, rng=np.random.default_rng(1))
    opt = Adam(model.parameters(), 1e-3)
    batch = make_synthetic_batch(8, rng=np.random.default_rng(2))
    for _ in range(3):
        model.train_step(opt, *batch)
    assert wait_for_compiles(300)
    model.train_step(opt, *batch)
    with using_profiler() as prof:
        model.loss(*batch).backward()  # the taped step: a replayed one has rows of its own
        opt.zero_grad()
    rows = prof.stats()
    assert all(op.startswith("backward:") for op in rows)
    for op in ("conv2d", "conv2d.scatter[c]", "batch_norm", "max_pool2d", "relu.backward[c]"):
        assert "backward:" + op in rows, op
    step = prof.step_stats()["backward"]
    total = sum(row["total_ms"] for row in rows.values())
    assert 0.5 * step["mean_ms"] < total <= step["mean_ms"]  # stage rows are not counted twice
    model.train_step(opt, *batch)
    assert wait_for_compiles(300)  # the conv blocks' stages, asked for by that replayed step
    model.train_step(opt, *batch)
    with using_profiler() as prof:
        model.train_step(opt, *batch)  # replayed: the optimizer's update is a stage too
    rows = prof.stats()
    block = "replay:conv2d+batch_norm+relu+max_pool2d"
    for op in ("replay:optim", "replay:optim.update[c]", block + ".forward[c]",
               block + ".backward[c]"):
        assert op in rows, op
    step = prof.step_stats()["replay"]
    total = sum(row["total_ms"] for row in rows.values())
    assert 0.5 * step["mean_ms"] < total <= step["mean_ms"]


# --------------------------------------------------------------------------- #
# (e) A process that never records a tape
# --------------------------------------------------------------------------- #
def test_serving_and_inference_never_load_the_train_kernels(tmp_path):
    script = textwrap.dedent("""
        import sys, threading
        import numpy as np
        from repro.codegen import codegen_stats, jit
        from repro.models import TBNet, make_synthetic_batch

        model = TBNet(width=16, rng=np.random.default_rng(1))
        images, context, _ = make_synthetic_batch(100, rng=np.random.default_rng(2))
        with model.serve() as server:
            for i in range(100):
                server(images.data[i:i + 1], context.data[i:i + 1])
            model.infer(images.data, context.data)  # the harness's eager reference
        session = model.compile_serving(1)
        session.wait_compiled(120)
        for i in range(100):
            session.run(images.data[i:i + 1], context.data[i:i + 1])
        assert "repro.autograd.kernels" not in sys.modules
        assert "repro.autograd.replay" not in sys.modules
        def pieces(stage):  # a stage and what it runs, through passes and when
            inner = stage[-1] if stage[0] in ("passes", "when") else ()
            return [stage] + [piece for sub in inner for piece in pieces(sub)]

        found = [piece for signature in jit._MEMO if signature[0] == "stages"
                 for stage in signature[1] for piece in pieces(stage)]
        kinds = {piece[0] for piece in found}
        several = [piece for piece in found if piece[0] == "map" and isinstance(piece[6], tuple)]
        serving = {"passes", "clock", "gather", "when", "gemm", "gemv", "map"}
        assert kinds <= serving and not several, kinds
        print(codegen_stats()["compiled"], sum(len(s[1]) for s in jit._MEMO if s[0] == "stages"))
    """)
    # The default configuration, as the benchmark's workloads run it.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH="src", REPRO_KERNEL_CACHE=str(tmp_path / "kernels"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # Two compiler runs: the server's pools plan TBNet's three linear + relu
    # groups as three stages, the session its six groups as one driver.
    assert proc.stdout.split() == ["2", "4"]
