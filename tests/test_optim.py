"""Optimizer tests: update math against hand-computed references, convergence."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor


def param(values):
    return nn.Parameter(np.asarray(values, dtype=np.float32))


def with_grad(p, grad):
    p.grad = np.asarray(grad, dtype=np.float32)
    return p


# --------------------------------------------------------------------------- #
# SGD
# --------------------------------------------------------------------------- #
def test_sgd_vanilla_update():
    p = with_grad(param([1.0, 2.0]), [0.5, -1.0])
    nn.optim.SGD([p], lr=0.1).step()
    np.testing.assert_allclose(p.data, [0.95, 2.1], rtol=1e-6)


def test_sgd_momentum_matches_reference():
    p = param([0.0])
    opt = nn.optim.SGD([p], lr=0.1, momentum=0.9)
    v, x = 0.0, 0.0
    for g in [1.0, 1.0, -0.5]:
        with_grad(p, [g])
        opt.step()
        v = 0.9 * v + g
        x -= 0.1 * v
        np.testing.assert_allclose(p.data, [x], rtol=1e-6)


def test_sgd_nesterov_matches_reference():
    p = param([0.0])
    opt = nn.optim.SGD([p], lr=0.1, momentum=0.9, nesterov=True)
    v, x = 0.0, 0.0
    for g in [1.0, -2.0]:
        with_grad(p, [g])
        opt.step()
        v = 0.9 * v + g
        x -= 0.1 * (g + 0.9 * v)
        np.testing.assert_allclose(p.data, [x], rtol=1e-6)


def test_sgd_weight_decay_is_l2():
    p = with_grad(param([2.0]), [0.0])
    nn.optim.SGD([p], lr=0.1, weight_decay=0.5).step()
    np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0], rtol=1e-6)


def test_sgd_step_does_not_mutate_grad():
    p = with_grad(param([1.0]), [1.0])
    opt = nn.optim.SGD([p], lr=0.1, momentum=0.9, weight_decay=0.1)
    opt.step()
    np.testing.assert_allclose(p.grad, [1.0])


# --------------------------------------------------------------------------- #
# Adam
# --------------------------------------------------------------------------- #
def test_adam_first_step_is_lr_sized():
    # With bias correction the first step is ~lr * sign(g) regardless of g scale.
    for g in (1e-3, 1.0, 1e3):
        p = with_grad(param([0.0]), [g])
        nn.optim.Adam([p], lr=0.01).step()
        np.testing.assert_allclose(p.data, [-0.01], rtol=1e-4)


def test_adam_matches_reference_formulas():
    beta1, beta2, lr, eps = 0.9, 0.999, 0.05, 1e-8
    p = param([1.0, -2.0])
    opt = nn.optim.Adam([p], lr=lr, betas=(beta1, beta2), eps=eps)
    m = np.zeros(2)
    v = np.zeros(2)
    x = np.array([1.0, -2.0])
    rng = np.random.default_rng(0)
    for t in range(1, 6):
        g = rng.standard_normal(2)
        with_grad(p, g)
        opt.step()
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g**2
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        x = x - lr * mhat / (np.sqrt(vhat) + eps)
        np.testing.assert_allclose(p.data, x, rtol=1e-5)


def test_adam_weight_decay():
    p = with_grad(param([2.0]), [0.0])
    nn.optim.Adam([p], lr=0.01, weight_decay=0.5).step()
    assert p.data[0] < 2.0  # decay alone produces a step toward zero


# --------------------------------------------------------------------------- #
# Shared optimizer behavior
# --------------------------------------------------------------------------- #
def test_optimizers_skip_parameters_without_grad():
    p1 = with_grad(param([1.0]), [1.0])
    p2 = param([5.0])  # never received a gradient
    for opt in (nn.optim.SGD([p1, p2], lr=0.1), nn.optim.Adam([p1, p2], lr=0.1)):
        opt.step()
        np.testing.assert_allclose(p2.data, [5.0])


def test_optimizer_zero_grad():
    p = with_grad(param([1.0]), [1.0])
    opt = nn.optim.SGD([p], lr=0.1)
    opt.zero_grad()
    assert p.grad is None


def test_optimizer_deduplicates_shared_parameters():
    p = with_grad(param([0.0]), [1.0])
    opt = nn.optim.SGD([p, p], lr=0.1)
    assert len(opt.params) == 1
    opt.step()
    np.testing.assert_allclose(p.data, [-0.1], rtol=1e-6)


def test_optimizer_skips_frozen_parameters():
    trainable = with_grad(param([1.0]), [1.0])
    frozen = Tensor(np.ones(2))  # requires_grad=False: frozen for fine-tuning
    opt = nn.optim.SGD([trainable, frozen], lr=0.1)
    assert opt.params == [trainable]
    opt.step()
    np.testing.assert_allclose(frozen.data, np.ones(2))


def test_optimizer_with_no_trainable_params_warns_and_noops():
    # Fully-frozen fine-tuning/eval pipelines must not crash: the optimizer
    # degrades to a warned no-op (see also the regression tests in
    # tests/test_backend.py).
    frozen = Tensor(np.ones(2))
    with pytest.warns(UserWarning, match="no trainable"):
        opt = nn.optim.SGD([frozen], lr=0.1)
    opt.step()
    opt.zero_grad()
    np.testing.assert_allclose(frozen.data, np.ones(2))
    with pytest.warns(UserWarning, match="no trainable"):
        nn.optim.Adam([], lr=0.1).step()


def test_optimizer_validates_inputs():
    with pytest.raises(TypeError, match="non-Tensor"):
        nn.optim.SGD([np.ones(2)], lr=0.1)
    with pytest.raises(ValueError, match="nesterov"):
        nn.optim.SGD([param([1.0])], lr=0.1, nesterov=True)
    with pytest.raises(ValueError, match="betas"):
        nn.optim.Adam([param([1.0])], lr=0.1, betas=(1.0, 0.999))


# --------------------------------------------------------------------------- #
# Convergence: both optimizers minimise a quadratic through the tape
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "make_opt",
    [
        lambda ps: nn.optim.SGD(ps, lr=0.1, momentum=0.9),
        lambda ps: nn.optim.Adam(ps, lr=0.2),
    ],
    ids=["sgd", "adam"],
)
def test_optimizer_minimizes_quadratic(make_opt):
    target = np.array([3.0, -1.0, 0.5], dtype=np.float32)
    p = param([0.0, 0.0, 0.0])
    opt = make_opt([p])
    for _ in range(200):
        loss = ((p - Tensor(target)) ** 2.0).sum()
        loss.backward()
        opt.step()
        opt.zero_grad()
    np.testing.assert_allclose(p.data, target, atol=0.05)


# --------------------------------------------------------------------------- #
# Moments of a zero-gradient parameter flush to zero instead of sticking in
# the subnormals (where 0.9 * m rounds back onto m and every ufunc over the
# entry runs microcoded)
# --------------------------------------------------------------------------- #
@pytest.fixture
def unflushed(monkeypatch):
    """Switch the sweep off inside a ``with`` block: the optimizers as they
    were, the reference the swept ones must match wherever a parameter can
    tell."""
    import contextlib

    @contextlib.contextmanager
    def off():
        with monkeypatch.context() as patch:
            patch.setattr(nn.optim, "_flush_subnormals", lambda states: None)
            yield

    return off


def _decayed_state(dtype, make_opt, steps=1200):
    """Entry 0 sees one tiny gradient and then exact zeros; entry 1 a live one."""
    small = 1e-30 if dtype == np.float32 else 1e-300
    p = Tensor(np.ones(2), requires_grad=True, dtype=dtype)
    opt = make_opt([p])
    for step in range(steps):
        p.grad = np.array([small if step == 0 else 0.0, 0.5], dtype=dtype)
        opt.step()
    return p.data, (opt._m if isinstance(opt, nn.optim.Adam) else opt._velocity)[0]


@pytest.mark.parametrize("backend", ["numpy", "fused"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "make_opt",
    [lambda ps: nn.optim.Adam(ps, lr=1e-3), lambda ps: nn.optim.SGD(ps, lr=1e-3, momentum=0.9)],
    ids=["adam", "sgd-momentum"],
)
def test_zero_gradient_moment_flushes_to_zero_not_to_a_subnormal(
    backend, dtype, make_opt, unflushed
):
    tiny = np.finfo(dtype).tiny
    with unflushed():
        p_ref, stuck = _decayed_state(dtype, make_opt)
    assert 0 < abs(stuck[0]) < tiny  # unswept, the entry sticks in the subnormals for good
    p, state = _decayed_state(dtype, make_opt)
    assert state[0] == 0.0
    assert np.abs(state[state != 0]).min() >= tiny
    assert state[1] == stuck[1]  # a live entry is not touched
    assert p.tobytes() == p_ref.tobytes()  # and no parameter can tell


def test_swept_adam_trains_tbnet_byte_for_byte_like_the_unswept_one(unflushed):
    from repro.models import TBNet, make_synthetic_batch

    def run():
        model = TBNet(width=16, rng=np.random.default_rng(1))
        opt = nn.optim.Adam(model.parameters(), 1e-3)
        rng = np.random.default_rng(2)
        batches = [make_synthetic_batch(4, rng=rng) for _ in range(8)]
        losses = [model.train_step(opt, *batches[i % 8]) for i in range(300)]
        return np.array(losses).tobytes(), [p.data.tobytes() for p in model.parameters()]

    swept = run()
    with unflushed():
        assert run() == swept
