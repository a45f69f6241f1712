"""The optimizer's compiled update stage against its numpy rules.

A replayed train step runs ``SGD`` / ``Adam`` over the flat arrays
:meth:`~repro.nn.optim.Optimizer.flatten` made, as one C stage
(:class:`repro.autograd.kernels.Update`) once it is built.  The contract is
the numpy rule's bytes: parameters and every state array equal across the
compiled stage, numpy ``flat_step`` and the eager ``step()`` over the views,
for every flag the rules branch on, f32 and f64, gradients carrying NaN,
+-inf, +-0.0 and subnormals, across the step where the moments are swept for
subnormals.  NaNs compare under the NaN rule of ``test_train_kernels``.
"""

import itertools

import numpy as np
import pytest

from repro.autograd import kernels
from repro.backend import workspace
from repro.codegen import codegen_enabled, have_compiler, using_codegen, wait_for_compiles
from repro.models import tbnet
from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam

from test_compile_thread import _fallbacks
from test_train_kernels import F32, F64, same, stage_calls  # noqa: F401  (fixture)
from test_train_replay import build, explicit

pytestmark = pytest.mark.skipif(
    not (have_compiler() and codegen_enabled()),
    reason="no C compiler available, or codegen is off (REPRO_CODEGEN=0)",
)

SIZES = (1, 7, 8, 9, 33, 42_314)
RULES = [  # (optimizer, keyword arguments)
    (SGD, dict(momentum=momentum, nesterov=nesterov, weight_decay=decay))
    for momentum, nesterov, decay in itertools.product((0.0, 0.9), (False, True), (0.0, 1e-2))
    if momentum or not nesterov
] + [(Adam, dict(weight_decay=decay)) for decay in (0.0, 1e-2)]
CASES = [(rule, dtype) for rule in RULES for dtype in (F32, F64)]
#: The run starts here and crosses the sweep at step 64 (``optim._FLUSH_EVERY``).
FIRST = 60
STEPS = 8


def make(rule, params):
    cls, kwargs = rule
    return cls(params, 0.05 if cls is SGD else 1e-3, **kwargs)


def gradients(dtype, size, steps, seed=0):
    """Noise, with every fifth element drawn from the special values: the
    rest stay finite, so a NaN does not swallow the comparison."""
    rng = np.random.default_rng([seed, size])
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, tiny, -tiny * 3], dtype)
    out = []
    for _ in range(steps):
        g = rng.standard_normal(size).astype(dtype)
        g[::5] = rng.choice(specials, size=len(g[::5]))
        out.append(g)
    return out


def update_arm(rule, dtype, size=1):
    return kernels.arm(kernels.UPDATE, dtype, size, *make(rule, [Parameter(np.ones(1), dtype)]).flags())


@pytest.fixture(scope="module")
def adopted():
    for rule, dtype in CASES:
        update_arm(rule, dtype)  # the first sight looks at the cache ...
        update_arm(rule, dtype)  # ... the second asks the compile thread
    assert wait_for_compiles(300)


def trained(rule, dtype, size, arm_kind, lr_at=None):
    """Parameters and state after ``STEPS`` steps from step ``FIRST``, on
    ``compiled`` / ``numpy`` ``flat_step`` or the ``eager`` ``step()``."""
    rng = np.random.default_rng(size)
    start = rng.standard_normal(size).astype(dtype)
    start[1::7] = np.finfo(dtype).smallest_subnormal
    cuts = sorted({0, size // 3, size // 2, size})
    params = [Parameter(start[a:b].copy(), dtype) for a, b in zip(cuts, cuts[1:])]
    opt = make(rule, params)
    flat, grads, states, _ = opt.flatten(params)
    for state in states:  # moments carried in, subnormal ones among them
        state[:] = np.abs(rng.standard_normal(size)).astype(dtype) * 0.1
        state[2::7] = np.finfo(dtype).smallest_subnormal
    opt._step_count = FIRST
    arm = None
    if arm_kind == "compiled":
        arm = update_arm(rule, dtype, size)
        assert isinstance(arm, kernels.Update)
        arm = arm.pinned(workspace.FLOOR)  # as a replay holds it
    with np.errstate(all="ignore"):
        for step, g in enumerate(gradients(dtype, size, STEPS)):
            if step == lr_at:
                opt.lr *= 0.5
            if arm_kind == "eager":
                for p, a, b in zip(params, cuts, cuts[1:]):
                    p.grad = g[a:b].copy()
                opt.step()
            else:
                np.copyto(grads, g)
                opt.flat_step(flat, grads, states, arm)
    return [flat.copy()] + [state.copy() for state in states]


@pytest.mark.parametrize("index", range(len(CASES)))
def test_compiled_update_equals_numpy_flat_step_and_eager_step(adopted, stage_calls, index):
    rule, dtype = CASES[index]
    for size in SIZES:
        want = trained(rule, dtype, size, "numpy")
        eager = trained(rule, dtype, size, "eager")
        assert not stage_calls
        got = trained(rule, dtype, size, "compiled")
        assert len(stage_calls) == STEPS and all(stage_calls), (rule, size)
        del stage_calls[:]
        for name, a, b, c in zip(("params", "state 0", "state 1"), got, want, eager):
            same(a, b, f"{rule} {dtype} {size} {name} compiled")
            same(c, b, f"{rule} {dtype} {size} {name} eager")


def test_an_lr_changed_between_steps_takes_effect(adopted, stage_calls):
    for rule, dtype in (CASES[0], CASES[-1]):
        want = trained(rule, dtype, 33, "numpy", lr_at=3)
        got = trained(rule, dtype, 33, "compiled", lr_at=3)
        assert stage_calls and all(stage_calls)
        for a, b in zip(got, want):
            same(a, b)
        assert got[0].tobytes() != trained(rule, dtype, 33, "compiled")[0].tobytes()


def test_a_flag_turned_on_after_capture_runs_the_numpy_rule_counted_once(adopted):
    # A replayed SGD step whose weight decay is switched on half way: from
    # then on the numpy rule runs, with the eager step's bytes.
    def run(replayed):
        model, opt, batches = build(optimizer=SGD)
        out = []
        for i in range(16):
            if replayed and i == 4:
                assert wait_for_compiles(300)
            if i == 10:
                if replayed:
                    row = tbnet.train_replay(model).explain()[-1]
                    assert row["ops"] == ["sgd_update"] and row["arm"] == "compiled", row
                    counted.append(_fallbacks("flags"))
                opt.weight_decay = 1e-2
            batch = batches[i % 4]
            out.append(model.train_step(opt, *batch) if replayed else explicit(model, opt, *batch))
        return out + [a.tobytes() for a in model.state_dict().values()], model

    counted = []
    with using_codegen(False):
        want, _ = run(False)
    got, model = run(True)
    assert got == want
    assert _fallbacks("flags") - counted[0] == 1
    row = tbnet.train_replay(model).explain()[-1]
    assert (row["arm"], row["reason"]) == ("numpy", "flags")


def test_arrays_the_stage_cannot_read_whole_take_the_numpy_rule(adopted, stage_calls):
    # The stage reads n elements of every operand: a state array of another
    # size goes to the numpy rule, which refuses it, instead of past its end.
    rule, dtype = CASES[-2]
    p = Parameter(np.ones(8), dtype)
    opt = make(rule, [p])
    flat, grads, states, _ = opt.flatten([p])
    with pytest.raises(ValueError):
        opt.flat_step(flat, grads, [states[0], states[1][:4]], update_arm(rule, dtype))
    assert not stage_calls
