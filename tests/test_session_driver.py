"""The boundaries of a compiled session's driver.

A compiled session replays each run of its groups as one native call
(:mod:`repro.serve.stages`), the GEMMs made from C with numpy's arguments.
Each case here returns the eager ``no_grad`` forward's bytes, and where it
cannot run compiled the fallback is counted once, under its reason: an
input laid out as no product reads it (``layout``: that call alone runs the
numpy steps); a by-reference tensor swapped to another dtype or shape
(``unplannable``: for good).  NaN and inf inputs, ``load_state_dict``
between runs and a ``Linear(1, k)`` at batch > 1 — whose product numpy runs
in a loop of its own, so the driver splits around it — stay compiled.  And
with a profiler active, the groups' rows, timed in C, sum to the step.
"""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, no_grad
from repro.codegen import codegen_enabled, codegen_stats, have_compiler
from repro.serve import compile_inference

from test_compile_thread import _fallbacks

pytestmark = pytest.mark.skipif(
    not (have_compiler() and codegen_enabled()),
    reason="no C compiler available, or codegen is off (REPRO_CODEGEN=0)",
)


def _eager(model, arrays):
    with no_grad():
        return model(*(Tensor(a, dtype=a.dtype) for a in arrays)).data


def _same(got, want) -> None:
    """Byte for byte, but for the sign and payload of a NaN (the NaN rule
    of :mod:`repro.autograd.kernels`)."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.where(nan, 0, got).tobytes() == np.where(nan, 0, want).tobytes()


def _compiled(model, example):
    session = compile_inference(model.eval(), example)
    assert session.wait_compiled(120), session.explain()
    return session


def _mlp(rng, d=12, k=16, dtype=np.float32):
    model = nn.Sequential(nn.Linear(d, k, rng=rng), nn.ReLU(), nn.Linear(k, 5, rng=rng))
    for p in model.parameters():
        p.data = p.data.astype(dtype)
    return model


@pytest.mark.parametrize("layout", ["fortran", "sliced"])
def test_an_input_a_product_cannot_read_runs_numpy_once_and_counts_once(layout):
    rng = np.random.default_rng(1)
    model = _mlp(rng)
    x = rng.standard_normal((6, 12)).astype(np.float32)
    session = _compiled(model, x)
    odd = np.asfortranarray(x) if layout == "fortran" else np.repeat(x, 2, axis=1)[:, ::2]
    assert not odd.flags.c_contiguous
    counted, total = _fallbacks("layout"), codegen_stats()["fallbacks"]
    assert session.run(odd).tobytes() == _eager(model, [odd]).tobytes()
    assert (_fallbacks("layout") - counted, codegen_stats()["fallbacks"] - total) == (1, 1)
    # The next call is compiled again: nothing else is counted.
    assert session.run(x).tobytes() == _eager(model, [x]).tobytes()
    assert codegen_stats()["fallbacks"] - total == 1
    assert {row["arm"] for row in session.explain()} == {"compiled"}


def test_an_image_no_product_reads_is_copied_not_counted():
    from repro.models import TBNet, make_synthetic_batch

    model = TBNet(width=4, rng=np.random.default_rng(1))
    session = model.compile_serving(2)
    assert session.wait_compiled(120)
    images, context, _ = make_synthetic_batch(2, rng=np.random.default_rng(2))
    fortran = np.asfortranarray(images.data)
    total = codegen_stats()["fallbacks"]
    assert session.run(fortran, context.data).tobytes() == model.infer(images, context).tobytes()
    assert codegen_stats()["fallbacks"] == total


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_nan_and_inf_inputs_return_the_eager_bytes(dtype):
    rng = np.random.default_rng(2)
    model = _mlp(rng, dtype=dtype)
    x = rng.standard_normal((4, 12)).astype(dtype)
    session = _compiled(model, x)
    x[0, :3] = np.nan
    x[1, 3] = np.inf
    x[2, 4] = -np.inf
    x[3, 5] = -np.nan
    total = codegen_stats()["fallbacks"]
    with np.errstate(all="ignore"):
        _same(session.run(x), _eager(model, [x]))
    assert codegen_stats()["fallbacks"] == total


def test_load_state_dict_between_runs_is_seen():
    rng = np.random.default_rng(3)
    model = _mlp(rng)
    x = rng.standard_normal((1, 12)).astype(np.float32)
    session = _compiled(model, x)
    first = session.run(x).copy()
    total = codegen_stats()["fallbacks"]
    model.load_state_dict({k: v * np.float32(0.5) for k, v in model.state_dict().items()})
    got = session.run(x)
    assert got.tobytes() == _eager(model, [x]).tobytes() and not np.array_equal(got, first)
    assert codegen_stats()["fallbacks"] == total


class _Scaled(nn.Module):
    """``relu(linear(x) * scale)``: one group, a by-reference ``scale``."""

    def __init__(self, rng) -> None:
        super().__init__()
        self.lin = nn.Linear(12, 5, rng=rng)
        self.scale = nn.Parameter(Tensor(rng.standard_normal(5).astype(np.float32)))

    def forward(self, x):
        return (self.lin(x) * self.scale).relu()


@pytest.mark.parametrize("swap", ["dtype", "shape"])
def test_a_tensor_swapped_to_another_dtype_or_shape_falls_back_as_unplannable(swap):
    # A float64 bias still adds into the float32 output; a (1, 5) scale
    # still broadcasts: numpy takes both, the rendered stages neither.
    rng = np.random.default_rng(4)
    model = _Scaled(rng)
    x = rng.standard_normal((3, 12)).astype(np.float32)
    session = _compiled(model, x)
    if swap == "dtype":
        model.lin.bias.data = model.lin.bias.data.astype(np.float64)
    else:
        model.scale.data = model.scale.data.reshape(1, 5)
    counted, total = _fallbacks("unplannable"), codegen_stats()["fallbacks"]
    assert session.run(x).tobytes() == _eager(model, [x]).tobytes()
    assert (_fallbacks("unplannable") - counted, codegen_stats()["fallbacks"] - total) == (1, 1)
    assert session.run(x).tobytes() == _eager(model, [x]).tobytes()
    assert codegen_stats()["fallbacks"] - total == 1  # for good: counted once
    assert {row["arm"] for row in session.explain()} == {"numpy"}


@pytest.mark.parametrize("n", [1, 5])
def test_a_column_times_a_row_splits_the_driver_around_numpys_own_loop(n):
    rng = np.random.default_rng(5)
    model = nn.Sequential(nn.Linear(1, 7, rng=rng), nn.ReLU(), nn.Linear(7, 3, rng=rng))
    x = rng.standard_normal((n, 1)).astype(np.float32)
    session = _compiled(model, x)
    (driver,) = session._plan._drivers
    assert len(driver.splits) == 1 and len(driver.runs) == 2
    total = codegen_stats()["fallbacks"]
    for _ in range(2):
        x = rng.standard_normal((n, 1)).astype(np.float32)
        assert session.run(x).tobytes() == _eager(model, [x]).tobytes()
    assert codegen_stats()["fallbacks"] == total
    assert [row["arm"] for row in session.explain()] == ["compiled", "compiled"]


def test_profiled_groups_sum_to_the_step():
    from repro.models import TBNet, make_synthetic_batch
    from repro.obs.profile import using_profiler

    model = TBNet(width=8, rng=np.random.default_rng(1))
    session = model.compile_serving(1)
    assert session.wait_compiled(120)
    images, context, _ = make_synthetic_batch(1, rng=np.random.default_rng(2))
    want = session.run(images, context).tobytes()
    with using_profiler() as profiler:
        for _ in range(200):
            assert session.run(images, context).tobytes() == want
    rows = {op: row for op, row in profiler.stats().items() if op.startswith("serve:")}
    assert "serve:conv2d+batch_norm+relu+max_pool2d" in rows
    assert sum(row["calls"] for row in rows.values()) == 200 * session.num_steps == 1200
    step = profiler.step_stats()["serve"]
    groups = sum(row["total_ms"] for row in rows.values())
    assert abs(groups - step["mean_ms"] * step["calls"]) <= 0.1 * step["mean_ms"] * step["calls"]
