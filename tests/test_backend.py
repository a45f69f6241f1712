"""The numpy kernels' numerical contracts, equivalence of the compiled arms
with the numpy bodies, and bugfix regressions.

The equivalence tests run every kernel (forward *and* backward), every
optimizer update and a small training run twice: with whatever compiled arms
the process has adopted (``numpy``), and with codegen off (``SECOND``), so
that every kernel takes its numpy body.  Tolerances are tight enough that the
only admissible differences are last-ulp reassociation effects.
"""

import contextlib
import os
import subprocess
import sys
import tokenize
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, functional as F
from repro.codegen import codegen_enabled, have_compiler, jit, using_codegen, wait_for_compiles

RTOL, ATOL = 1e-5, 1e-6
SECOND = "second"
SRC = Path(__file__).resolve().parent.parent / "src"


@contextlib.contextmanager
def use(name):
    """Run the block as the process runs (``numpy``) or with codegen off
    (``SECOND``)."""
    if name == "numpy":
        yield
        return
    with using_codegen(False):
        yield


def test_repro_backend_env_var_selects_default():
    # REPRO_BACKEND is ignored: whatever it names — the built-in backend, a
    # name once registered only by tests, a name no backend ever had — the
    # process computes with numpy from the first use on.
    code = (
        "import numpy as np\n"
        "from repro.autograd import Tensor, functional as F\n"
        "out = F.linear(Tensor(np.ones((2, 3), np.float32)), Tensor(np.ones((3, 4), np.float32)))\n"
        "print(float(out.data.sum()))\n"
    )
    for value in ("numpy", "lazy", "nope"):
        env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_BACKEND=value)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["24.0"], value


def test_no_backend_object_is_threaded_through_the_kernels():
    # The kernels call numpy and ``workspace.empty`` directly.  Tokens, not
    # a grep: the English word "be" in a docstring is not an identifier.
    backend = SRC / "repro" / "backend"
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        with tokenize.open(path) as source:
            for token in tokenize.generate_tokens(source.readline):
                if token.type == tokenize.NAME and token.string in ("be", "_be") or (
                        "get_backend" in token.string and backend not in path.parents):
                    found.append(f"{path.relative_to(SRC)}:{token.start[0]}: {token.string}")
    assert not found, "\n".join(found)


# --------------------------------------------------------------------------- #
# Compiled arms against the numpy bodies: kernels
# --------------------------------------------------------------------------- #
def run_on_backends(build, n_inputs, shapes, seed=0):
    """Run ``build(*tensors) -> Tensor`` on each arm; return results.

    Inputs are identical float32 arrays; backward is seeded with ones.
    Returns ``{arm_name: (out_data, [input_grads])}``.
    """
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s).astype(np.float32) for s in shapes[:n_inputs]]
    results = {}
    for name in ("numpy", SECOND):
        with use(name):
            tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = build(*tensors)
            seed_grad = None if out.data.size == 1 else np.ones_like(out.data)
            out.backward(seed_grad)
            results[name] = (out.data.copy(), [t.grad.copy() for t in tensors])
    return results


def assert_equivalent(results):
    ref_out, ref_grads = results["numpy"]
    out, grads = results[SECOND]
    np.testing.assert_allclose(out, ref_out, rtol=RTOL, atol=ATOL)
    assert len(ref_grads) == len(grads)
    for rg, g in zip(ref_grads, grads):
        np.testing.assert_allclose(g, rg, rtol=RTOL, atol=ATOL)


KERNEL_CASES = {
    "linear": (lambda x, w, b: F.linear(x, w, b), 3, [(8, 5), (5, 7), (7,)]),
    "linear_no_bias": (lambda x, w: F.linear(x, w), 2, [(8, 5), (5, 7)]),
    "conv2d": (
        lambda x, w, b: F.conv2d(x, w, b, stride=2, padding=1),
        3,
        [(2, 3, 9, 9), (4, 3, 3, 3), (4,)],
    ),
    "max_pool2d": (lambda x: F.max_pool2d(x, 2), 1, [(2, 3, 8, 8)]),
    "avg_pool2d": (lambda x: F.avg_pool2d(x, 3, stride=2, padding=1), 1, [(2, 3, 9, 9)]),
    "softmax": (lambda x: F.softmax(x), 1, [(6, 10)]),
    "log_softmax": (lambda x: F.log_softmax(x), 1, [(6, 10)]),
    "xent_mean": (
        lambda x: F.softmax_cross_entropy(x, np.arange(6) % 4),
        1,
        [(6, 4)],
    ),
    "xent_sum": (
        lambda x: F.softmax_cross_entropy(x, np.arange(6) % 4, reduction="sum"),
        1,
        [(6, 4)],
    ),
    "xent_none": (
        lambda x: F.softmax_cross_entropy(x, np.arange(6) % 4, reduction="none"),
        1,
        [(6, 4)],
    ),
    "batch_norm_train": (
        lambda x, w, b: F.batch_norm(x, w, b, training=True),
        3,
        [(6, 4), (4,), (4,)],
    ),
    "batch_norm_train_2d": (
        lambda x: F.batch_norm(x, training=True),
        1,
        [(3, 4, 5, 5)],
    ),
    "sigmoid": (lambda x: x.sigmoid(), 1, [(7, 9)]),
    "tanh": (lambda x: x.tanh(), 1, [(7, 9)]),
    "exp_log_chain": (lambda x: ((x * x + 1.0).log().exp()).sum(), 1, [(5, 6)]),
    "matmul": (lambda a, b: (a @ b).sum(), 2, [(6, 4), (4, 3)]),
    "div_pow": (lambda a, b: (a / (b * b + 1.0) + a ** 3.0).sum(), 2, [(5, 5), (5, 5)]),
    "reductions": (lambda x: (x.max(axis=1) + x.mean(axis=0) + x.sum(axis=(0, 1))), 1, [(6, 6)]),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES), ids=sorted(KERNEL_CASES))
def test_kernel_equivalence_across_backends(case):
    build, n_inputs, shapes = KERNEL_CASES[case]
    assert_equivalent(run_on_backends(build, n_inputs, shapes))


@pytest.mark.parametrize("backend", ["numpy", "fused", "lazy"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.float16, np.int32])
@pytest.mark.parametrize(
    "shape, axis",
    [
        ((6, 5, 4, 3), None),  # a full reduction: a scalar
        ((6, 5, 4, 3), 1),
        ((6, 5, 4, 3), -1),
        ((6, 5, 4, 3), (0, 2, 3)),  # batch norm's axes
        ((64, 16, 16, 16), (0, 2, 3)),  # 1 MiB in float32: a pooled temporary
        ((7,), 0),
        ((0, 3), 0),  # nothing to average: numpy's nan, and its warnings
    ],
)
def test_var_replays_numpy_var_byte_for_byte(backend, dtype, shape, axis):
    # ``functional._var`` spells out numpy's private ``_var`` to route its
    # temporary through ``workspace.empty``; a numpy release that changes
    # ``_var`` must fail here, not in a tolerance somewhere downstream.
    rng = np.random.default_rng(11)
    x = (rng.standard_normal(shape) * 3 + 40).astype(dtype)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for source in (x, x[::-1], np.asfortranarray(x)):  # views and orders too
            got = F._var(source, axis=axis)
            reference = source.var(axis=axis)
            assert type(got) is type(reference)
            assert got.dtype == reference.dtype and np.shape(got) == np.shape(reference)
            assert np.asarray(got).tobytes() == np.asarray(reference).tobytes()


def test_batch_norm_eval_equivalence_and_running_stats():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 5)).astype(np.float32)
    results = {}
    for name in ("numpy", SECOND):
        rm = np.zeros(5, dtype=np.float32)
        rv = np.ones(5, dtype=np.float32)
        with use(name):
            t = Tensor(x.copy(), requires_grad=True)
            # Training pass updates the running stats in place ...
            F.batch_norm(t, running_mean=rm, running_var=rv, training=True)
            # ... eval pass consumes them.
            out = F.batch_norm(t, running_mean=rm, running_var=rv, training=False)
            out.backward(np.ones_like(out.data))
            results[name] = (out.data.copy(), rm.copy(), rv.copy(), t.grad.copy())
    for ref, got in zip(results["numpy"], results[SECOND]):
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)


def test_dropout_equivalence_with_shared_seed():
    x = np.random.default_rng(4).standard_normal((16, 16)).astype(np.float32)
    results = {}
    for name in ("numpy", SECOND):
        with use(name):
            t = Tensor(x.copy(), requires_grad=True)
            out = F.dropout(t, p=0.4, training=True, rng=np.random.default_rng(99))
            out.backward(np.ones_like(out.data))
            results[name] = (out.data.copy(), t.grad.copy())
    np.testing.assert_array_equal(results[SECOND][0], results["numpy"][0])
    np.testing.assert_array_equal(results[SECOND][1], results["numpy"][1])


# --------------------------------------------------------------------------- #
# Compiled arms against the numpy bodies: optimizers and a training run
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "make_opt",
    [
        lambda ps: nn.optim.SGD(ps, lr=0.05),
        lambda ps: nn.optim.SGD(ps, lr=0.05, momentum=0.9, weight_decay=0.01),
        lambda ps: nn.optim.SGD(ps, lr=0.05, momentum=0.9, nesterov=True),
        lambda ps: nn.optim.SGD(ps, lr=0.05, momentum=0.9, weight_decay=0.01, nesterov=True),
        lambda ps: nn.optim.Adam(ps, lr=0.01),
        lambda ps: nn.optim.Adam(ps, lr=0.01, weight_decay=0.01),
    ],
    ids=["sgd", "sgd_mom_wd", "sgd_nesterov", "sgd_nesterov_wd", "adam", "adam_wd"],
)
def test_optimizer_equivalence_across_backends(make_opt):
    rng = np.random.default_rng(7)
    init = rng.standard_normal((4, 3)).astype(np.float32)
    grads = [rng.standard_normal((4, 3)).astype(np.float32) for _ in range(5)]
    finals = {}
    for name in ("numpy", SECOND):
        with use(name):
            p = nn.Parameter(init.copy())
            opt = make_opt([p])
            for g in grads:
                p.grad = g.copy()
                opt.step()
            finals[name] = p.data.copy()
    np.testing.assert_allclose(finals[SECOND], finals["numpy"], rtol=RTOL, atol=ATOL)


def test_optimizer_step_never_mutates_grad_on_either_backend():
    for name in ("numpy", SECOND):
        with use(name):
            p = nn.Parameter(np.ones(3, dtype=np.float32))
            g = np.full(3, 0.5, dtype=np.float32)
            p.grad = g
            nn.optim.SGD([p], lr=0.1, momentum=0.9, weight_decay=0.1, nesterov=True).step()
            np.testing.assert_array_equal(g, np.full(3, 0.5, dtype=np.float32))
            p2 = nn.Parameter(np.ones(3, dtype=np.float32))
            p2.grad = g
            nn.optim.Adam([p2], lr=0.1, weight_decay=0.1).step()
            np.testing.assert_array_equal(g, np.full(3, 0.5, dtype=np.float32))


def test_full_training_run_equivalence():
    """A small MLP trained for several steps lands on the same weights."""
    x = np.random.default_rng(11).standard_normal((32, 12)).astype(np.float32)
    y = np.random.default_rng(12).integers(0, 5, 32)
    finals, losses = {}, {}
    for name in ("numpy", SECOND):
        with use(name):
            rng = np.random.default_rng(123)
            model = nn.Sequential(
                nn.Linear(12, 16, rng=rng), nn.BatchNorm1d(16), nn.ReLU(),
                nn.Linear(16, 5, rng=rng),
            )
            opt = nn.optim.Adam(model.parameters(), lr=1e-2)
            trace = []
            for _ in range(10):
                loss = F.softmax_cross_entropy(model(Tensor(x)), y)
                loss.backward()
                opt.step()
                opt.zero_grad()
                trace.append(loss.item())
            finals[name] = {k: v.copy() for k, v in model.state_dict().items()}
            losses[name] = trace
    np.testing.assert_allclose(losses[SECOND], losses["numpy"], rtol=1e-4)
    for key in finals["numpy"]:
        np.testing.assert_allclose(
            finals[SECOND][key], finals["numpy"][key], rtol=1e-4, atol=1e-5,
            err_msg=f"state_dict entry {key} diverged across backends",
        )


# --------------------------------------------------------------------------- #
# Bugfix regressions
# --------------------------------------------------------------------------- #
def test_dropout_default_rng_is_seeded_by_manual_seed():
    x = Tensor(np.ones((64, 64), dtype=np.float32))
    nn.init.manual_seed(2024)
    a = F.dropout(x, p=0.5, training=True)
    nn.init.manual_seed(2024)
    b = F.dropout(x, p=0.5, training=True)
    np.testing.assert_array_equal(a.data, b.data)
    assert (a.data == 0).any() and (a.data != 0).any()  # a real mask was drawn


def test_dropout_layer_default_rng_is_seeded_by_manual_seed():
    x = np.ones((64, 64), dtype=np.float32)
    layer = nn.Dropout(0.5)
    nn.init.manual_seed(7)
    a = layer(x)
    nn.init.manual_seed(7)
    b = layer(x)
    np.testing.assert_array_equal(a.data, b.data)


def test_dropout_draws_advance_the_global_stream():
    # Two draws without reseeding must differ: the fix must not freeze the mask.
    nn.init.manual_seed(5)
    x = Tensor(np.ones((64, 64), dtype=np.float32))
    a = F.dropout(x, p=0.5, training=True)
    b = F.dropout(x, p=0.5, training=True)
    assert not np.array_equal(a.data, b.data)


def test_synthetic_batch_is_deterministic_under_manual_seed():
    from repro.models import make_synthetic_batch

    nn.init.manual_seed(0)
    a = make_synthetic_batch(4)
    nn.init.manual_seed(0)
    b = make_synthetic_batch(4)
    np.testing.assert_array_equal(a[0].data, b[0].data)
    np.testing.assert_array_equal(a[1].data, b[1].data)
    np.testing.assert_array_equal(a[2], b[2])


def test_batch_norm_single_value_per_channel_raises_in_training():
    x = Tensor(np.random.default_rng(0).standard_normal((1, 4)).astype(np.float32))
    rm, rv = np.zeros(4, dtype=np.float32), np.ones(4, dtype=np.float32)
    with pytest.raises(ValueError, match="more than 1 value per channel"):
        F.batch_norm(x, running_mean=rm, running_var=rv, training=True)
    # The running statistics must be untouched (the old code silently folded
    # the degenerate zero batch variance into running_var, dragging it
    # toward 0 and corrupting later eval passes).
    np.testing.assert_array_equal(rm, np.zeros(4))
    np.testing.assert_array_equal(rv, np.ones(4))
    # Even without running stats the degenerate batch is rejected ...
    with pytest.raises(ValueError, match="more than 1 value per channel"):
        F.batch_norm(x, training=True)
    # ... but eval mode with batch 1 is fine.
    out = F.batch_norm(x, running_mean=rm, running_var=rv, training=False)
    assert np.isfinite(out.data).all()


def test_batch_norm_layer_single_sample_raises_in_train_but_not_eval():
    layer = nn.BatchNorm1d(3)
    x = np.ones((1, 3), dtype=np.float32)
    with pytest.raises(ValueError, match="more than 1 value per channel"):
        layer(x)
    layer.eval()
    out = layer(x)
    assert np.isfinite(out.data).all()
    # A single image still trains fine in 2d when H*W > 1.
    layer2 = nn.BatchNorm2d(3)
    assert np.isfinite(layer2(np.ones((1, 3, 4, 4), dtype=np.float32)).data).all()


def test_fully_frozen_optimizer_warns_and_noops():
    model = nn.Linear(4, 2)
    for p in model.parameters():
        p.requires_grad = False
    before = {k: v.copy() for k, v in model.state_dict().items()}
    with pytest.warns(UserWarning, match="no trainable"):
        opt = nn.optim.Adam(model.parameters(), lr=0.1)
    opt.step()
    opt.zero_grad()
    for key, value in model.state_dict().items():
        np.testing.assert_array_equal(value, before[key])


def test_softmax_cross_entropy_rejects_out_of_range_labels():
    logits = Tensor(np.zeros((3, 4), dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        F.softmax_cross_entropy(logits, np.array([0, -1, 2]))
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        F.softmax_cross_entropy(logits, np.array([0, 4, 2]))
    # Boundary labels stay valid.
    loss = F.softmax_cross_entropy(logits, np.array([0, 3, 2]))
    assert np.isfinite(float(loss.data))
    # An empty batch is rejected for the (undefined) mean reduction instead
    # of producing nan / 0-division, but stays valid for sum/none shards.
    empty = Tensor(np.zeros((0, 4), dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError, match="empty batch"):
        F.softmax_cross_entropy(empty, np.zeros((0,), dtype=np.int64))
    loss = F.softmax_cross_entropy(empty, np.zeros((0,), dtype=np.int64), reduction="sum")
    assert float(loss.data) == 0.0
    loss.backward()
    assert empty.grad.shape == (0, 4)


@pytest.mark.skipif(
    not (have_compiler() and codegen_enabled()),
    reason="no C compiler available, or codegen is off (REPRO_CODEGEN=0)",
)
def test_backward_uses_the_backend_captured_at_trace_time(monkeypatch):
    # A node's backward runs the arm its forward captured: forward on the
    # adopted compiled stages, backward with codegen switched off — still
    # those stages, and the gradients are the all-numpy run's bytes.
    rng = np.random.default_rng(1)
    arrays = [rng.standard_normal(shape).astype(np.float32)
              for shape in ((2, 3, 8, 8), (4, 3, 3, 3), (4,))]

    def forward():
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        return tensors, F.max_pool2d(F.conv2d(*tensors, padding=1).relu(), 2)

    def grads(tensors, out):
        out.backward(np.ones_like(out.data))
        return [t.grad.tobytes() for t in tensors]

    with using_codegen(False):
        want = grads(*forward())
    with using_codegen(True):
        for _ in range(2):  # the first sight looks in the cache, the second asks
            forward()
        assert wait_for_compiles(300)
        calls = []
        run = jit.StageLibrary.run
        monkeypatch.setattr(jit.StageLibrary, "run",
                            lambda self, *args: calls.append(run(self, *args)) or calls[-1])
        tensors, out = forward()
    assert len(calls) == 2 and all(calls)  # gather, relu
    with using_codegen(False):
        got = grads(tensors, out)
    assert len(calls) == 4 and all(calls)  # relu, scatter
    assert got == want
