"""Kernel tests: forward references against naive loops, gradient checks."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.autograd import Tensor, check_gradients
from repro.autograd import functional as F

RNG = np.random.default_rng(7)


def t64(shape, requires_grad=True, scale=1.0):
    return Tensor(RNG.standard_normal(shape) * scale, requires_grad=requires_grad, dtype=np.float64)


# --------------------------------------------------------------------------- #
# Naive references (loops are fine here: tests only)
# --------------------------------------------------------------------------- #
def conv2d_ref(x, w, b, stride, padding):
    sh, sw = (stride, stride) if isinstance(stride, int) else stride
    ph, pw = (padding, padding) if isinstance(padding, int) else padding
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, o, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for oi in range(o):
            for yi in range(oh):
                for xi in range(ow):
                    patch = xp[ni, :, yi * sh : yi * sh + kh, xi * sw : xi * sw + kw]
                    out[ni, oi, yi, xi] = (patch * w[oi]).sum()
            if b is not None:
                out[ni, oi] += b[oi]
    return out


def pool_ref(x, k, stride, padding, mode):
    kh, kw = (k, k) if isinstance(k, int) else k
    sh, sw = (kh, kw) if stride is None else ((stride, stride) if isinstance(stride, int) else stride)
    ph, pw = (padding, padding) if isinstance(padding, int) else padding
    fill = -np.inf if mode == "max" else 0.0
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=fill)
    n, c, h, w = x.shape
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for yi in range(oh):
                for xi in range(ow):
                    window = xp[ni, ci, yi * sh : yi * sh + kh, xi * sw : xi * sw + kw]
                    out[ni, ci, yi, xi] = window.max() if mode == "max" else window.mean()
    return out


# --------------------------------------------------------------------------- #
# im2col / col2im
# --------------------------------------------------------------------------- #
def test_im2col_col2im_are_adjoint():
    """<im2col(x), C> == <x, col2im(C)> for random C (the defining property)."""
    x = RNG.standard_normal((2, 3, 7, 6))
    for kernel, stride, padding in [((3, 3), 1, 0), ((2, 3), (2, 1), (1, 0)), (2, 2, 1)]:
        cols = F.im2col(x, kernel, stride, padding)
        c = RNG.standard_normal(cols.shape)
        lhs = float((cols * c).sum())
        rhs = float((x * F.col2im(c, x.shape, kernel, stride, padding)).sum())
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def test_im2col_shape():
    x = RNG.standard_normal((2, 3, 8, 8))
    cols = F.im2col(x, 3, stride=2, padding=1)
    assert cols.shape == (2, 4, 4, 3 * 3 * 3)


# --------------------------------------------------------------------------- #
# conv2d
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), ((2, 1), (1, 2)), (3, 2)]
)
def test_conv2d_forward_matches_reference(stride, padding):
    x = RNG.standard_normal((2, 3, 8, 9))
    w = RNG.standard_normal((4, 3, 3, 3)) * 0.2
    b = RNG.standard_normal(4) * 0.1
    out = F.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                   Tensor(b, dtype=np.float64), stride=stride, padding=padding)
    np.testing.assert_allclose(out.data, conv2d_ref(x, w, b, stride, padding), rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize(
    "stride,padding,bias", [(1, 0, True), (2, 1, True), (1, 1, False), (2, 0, True)]
)
def test_conv2d_gradients(stride, padding, bias):
    x = t64((2, 3, 6, 6))
    w = t64((4, 3, 3, 3), scale=0.2)
    inputs = [x, w] + ([t64((4,), scale=0.1)] if bias else [])

    def fn(*args):
        return (F.conv2d(*args, stride=stride, padding=padding) ** 2.0).sum()

    result = check_gradients(fn, inputs)
    assert result.ok, result


def test_conv2d_rejects_bad_shapes():
    with pytest.raises(ValueError):
        F.conv2d(Tensor(np.zeros((2, 3, 8, 8))), Tensor(np.zeros((4, 5, 3, 3))))
    with pytest.raises(ValueError):
        F.conv2d(Tensor(np.zeros((2, 3, 8))), Tensor(np.zeros((4, 3, 3, 3))))
    with pytest.raises(ValueError):
        F.conv2d(Tensor(np.zeros((2, 3, 2, 2))), Tensor(np.zeros((4, 3, 3, 3))))


# --------------------------------------------------------------------------- #
# Pooling
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", ["max", "avg"])
@pytest.mark.parametrize("kernel,stride,padding", [(2, None, 0), (3, 2, 0), (2, 1, 0), (3, 2, 1)])
def test_pool_forward_matches_reference(mode, kernel, stride, padding):
    x = RNG.standard_normal((2, 3, 7, 8))
    op = F.max_pool2d if mode == "max" else F.avg_pool2d
    out = op(Tensor(x, dtype=np.float64), kernel, stride=stride, padding=padding)
    np.testing.assert_allclose(out.data, pool_ref(x, kernel, stride, padding, mode), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("mode", ["max", "avg"])
@pytest.mark.parametrize("kernel,stride", [(2, None), (3, 2), (2, 1)])
def test_pool_gradients(mode, kernel, stride):
    op = F.max_pool2d if mode == "max" else F.avg_pool2d
    x = t64((2, 2, 6, 6))
    result = check_gradients(lambda t: (op(t, kernel, stride=stride) ** 2.0).sum(), [x])
    assert result.ok, result


def test_pool_rejects_padding_over_half_kernel():
    x = Tensor(np.ones((1, 1, 4, 4)))
    for op in (F.max_pool2d, F.avg_pool2d):
        with pytest.raises(ValueError, match="half the kernel"):
            op(x, 1, padding=1)
        with pytest.raises(ValueError, match="half the kernel"):
            op(x, 2, stride=1, padding=2)


def test_max_pool_overlapping_routes_to_argmax():
    x = np.zeros((1, 1, 3, 3), dtype=np.float32)
    x[0, 0, 1, 1] = 5.0  # the centre wins every overlapping 2x2 window
    t = Tensor(x, requires_grad=True)
    out = F.max_pool2d(t, 2, stride=1)
    out.sum().backward()
    assert t.grad[0, 0, 1, 1] == 4.0  # centre is argmax of all four windows
    assert t.grad.sum() == 4.0


@pytest.mark.parametrize("op", [F.max_pool2d, F.avg_pool2d])
@pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4), (1, 1, 2, 4, 4)])
def test_pool_rejects_non_nchw_input(op, shape):
    # Used to die unpacking ``n, c, h, w`` ("not enough values to unpack").
    with pytest.raises(ValueError, match=rf"{op.__name__} expects NCHW input, got shape"):
        op(Tensor(np.ones(shape)), 2)


# --------------------------------------------------------------------------- #
# Max-pool boundaries, differential against the previous recipe
# --------------------------------------------------------------------------- #
def max_pool_argmax_ref(x, k, stride, padding, g):
    """The recipe ``F.max_pool2d`` used before the footprint loop, kept as the
    reference: materialized windows, ``argmax`` (first maximum wins; a NaN
    counts as the maximum), gradient scattered with ``np.add.at``.
    Returns ``(out, dx)``."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2), constant_values=-np.inf)
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    oh, ow = win.shape[2:4]
    flat = win.reshape(n, c, oh, ow, k * k)
    arg = flat.argmax(axis=-1)
    out = np.ascontiguousarray(np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0])
    dxp = np.zeros(xp.shape, dtype=x.dtype)
    n_i, c_i, oh_i, ow_i = np.ogrid[0:n, 0:c, 0:oh, 0:ow]
    np.add.at(dxp, (n_i, c_i, oh_i * stride + arg // k, ow_i * stride + arg % k), g)
    return out, np.ascontiguousarray(dxp[:, :, padding : padding + h, padding : padding + w])


def _max_pool_case(name, dtype):
    """``(x, kernel, stride, padding)`` for one named boundary."""
    rng = np.random.default_rng(12)
    if name == "all_equal":
        return np.full((2, 3, 6, 6), 1.5, dtype), 2, 2, 0
    if name == "nan":
        x = rng.standard_normal((2, 3, 6, 6)).astype(dtype)
        x[rng.random(x.shape) < 0.2] = np.nan  # many windows hold several NaNs
        return x, 2, 2, 0
    if name == "signed_zero":
        return rng.choice(np.array([-0.0, 0.0, -1.0], dtype), size=(2, 3, 6, 6)), 2, 2, 0
    if name == "neg_inf_at_padding":
        x = rng.standard_normal((2, 3, 6, 6)).astype(dtype)
        x[:, :, :2, :] = -np.inf  # border windows are -inf data plus -inf padding
        x[:, :, :, -2:] = -np.inf
        return x, 3, 2, 1
    if name == "overlapping":
        return rng.standard_normal((2, 3, 7, 8)).astype(dtype), 3, 2, 1
    if name == "overlapping_ties":
        return rng.integers(0, 2, size=(2, 3, 7, 8)).astype(dtype), 3, 2, 1
    if name == "non_contiguous":
        base = rng.standard_normal((2, 8, 6, 3)).astype(dtype)
        return base.transpose(0, 3, 2, 1)[:, :, :, ::-1], 2, 2, 0
    if name == "n0":
        return np.zeros((0, 3, 6, 6), dtype), 2, 2, 0
    if name == "n1":
        return rng.standard_normal((1, 1, 4, 4)).astype(dtype), 2, 2, 0
    raise AssertionError(name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "case",
    ["all_equal", "nan", "signed_zero", "neg_inf_at_padding", "overlapping",
     "overlapping_ties", "non_contiguous", "n0", "n1"],
)
def test_max_pool_matches_argmax_recipe_bitwise(case, dtype):
    x, k, stride, padding = _max_pool_case(case, dtype)
    t = Tensor(x, requires_grad=True, dtype=dtype)
    out = F.max_pool2d(t, k, stride=stride, padding=padding)
    # Integer-valued upstream gradients: a cell that wins several overlapping
    # windows sums its contributions in footprint order here and in window
    # order in the reference; small integers make both sums exact.
    g = np.random.default_rng(5).integers(-4, 5, size=out.shape).astype(dtype)
    out.backward(g)
    ref_out, ref_dx = max_pool_argmax_ref(x, k, stride, padding, g)
    assert out.data.dtype == dtype and t.grad.dtype == dtype
    assert out.data.tobytes() == ref_out.tobytes()
    assert t.grad.tobytes() == ref_dx.tobytes()


def test_max_pool_tie_and_nan_routing_is_pinned():
    # Ties: the first maximal element in row-major window order takes the
    # whole gradient (+0.0 and -0.0 tie).  NaN: the output is NaN and the
    # first NaN takes the gradient, even behind a larger-looking element.
    x = np.array(
        [[[[2.0, 2.0, -0.0, 0.0],
           [2.0, 2.0, -3.0, -1.0],
           [9.0, np.nan, np.inf, 1.0],
           [np.nan, 0.0, 1.0, np.inf]]]]
    )
    t = Tensor(x, requires_grad=True, dtype=np.float64)
    out = F.max_pool2d(t, 2)
    out.backward(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    assert out.data[0, 0, 0, 0] == 2.0 and np.isnan(out.data[0, 0, 1, 0])
    assert out.data[0, 0, 0, 1] == 0.0 and np.signbit(out.data[0, 0, 0, 1])
    assert out.data[0, 0, 1, 1] == np.inf
    expected = np.zeros((4, 4))
    expected[0, 0], expected[0, 2], expected[2, 1], expected[2, 2] = 1.0, 2.0, 3.0, 4.0
    np.testing.assert_array_equal(t.grad[0, 0], expected)


# --------------------------------------------------------------------------- #
# Softmax family
# --------------------------------------------------------------------------- #
def test_softmax_matches_reference_and_is_stable():
    x = RNG.standard_normal((4, 6)) * 3
    s = F.softmax(Tensor(x, dtype=np.float64)).data
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    np.testing.assert_allclose(s, e / e.sum(axis=-1, keepdims=True), rtol=1e-12)
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, rtol=1e-12)
    huge = F.softmax(Tensor(np.array([[1e4, 1e4 + 1.0]]), dtype=np.float64)).data
    assert np.isfinite(huge).all()
    big_neg = F.log_softmax(Tensor(np.array([[-1e4, 0.0]]), dtype=np.float64)).data
    assert np.isfinite(big_neg).all()


def test_log_softmax_is_log_of_softmax():
    x = Tensor(RNG.standard_normal((5, 7)), dtype=np.float64)
    np.testing.assert_allclose(F.log_softmax(x).data, np.log(F.softmax(x).data), rtol=1e-10)


@pytest.mark.parametrize("axis", [-1, 0, 1])
def test_softmax_gradients(axis):
    x = t64((4, 5))
    m = Tensor(RNG.standard_normal((4, 5)), dtype=np.float64)
    assert check_gradients(lambda t: (F.softmax(t, axis=axis) * m).sum(), [x]).ok
    assert check_gradients(lambda t: (F.log_softmax(t, axis=axis) * m).sum(), [x]).ok


# --------------------------------------------------------------------------- #
# Cross-entropy
# --------------------------------------------------------------------------- #
def test_cross_entropy_matches_composed_ops():
    logits = RNG.standard_normal((6, 9))
    targets = RNG.integers(0, 9, 6)
    fused = F.softmax_cross_entropy(Tensor(logits, dtype=np.float64), targets)
    logp = F.log_softmax(Tensor(logits, dtype=np.float64)).data
    expected = -logp[np.arange(6), targets].mean()
    np.testing.assert_allclose(float(fused.data), expected, rtol=1e-12)
    total = F.softmax_cross_entropy(Tensor(logits, dtype=np.float64), targets, reduction="sum")
    np.testing.assert_allclose(float(total.data), expected * 6, rtol=1e-12)
    none = F.softmax_cross_entropy(Tensor(logits, dtype=np.float64), targets, reduction="none")
    np.testing.assert_allclose(none.data, -logp[np.arange(6), targets], rtol=1e-12)


@pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
def test_cross_entropy_gradients(reduction):
    logits = t64((5, 8))
    targets = RNG.integers(0, 8, 5)

    def fn(t):
        out = F.softmax_cross_entropy(t, targets, reduction=reduction)
        return out if reduction != "none" else (out * out).sum()

    result = check_gradients(fn, [logits])
    assert result.ok, result


def test_cross_entropy_validates_inputs():
    with pytest.raises(ValueError):
        F.softmax_cross_entropy(Tensor(np.zeros((4, 3))), np.zeros(5, dtype=np.int64))
    with pytest.raises(ValueError):
        F.softmax_cross_entropy(Tensor(np.zeros((4, 3))), np.zeros(4), reduction="bogus")


def test_cross_entropy_accepts_tensor_targets():
    logits = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
    targets = Tensor(np.array([0, 1, 2, 1]))
    loss = F.softmax_cross_entropy(logits, targets)
    loss.backward()
    assert logits.grad.shape == (4, 3)
    np.testing.assert_allclose(logits.grad.sum(axis=1), 0.0, atol=1e-6)


# --------------------------------------------------------------------------- #
# Fused linear
# --------------------------------------------------------------------------- #
def test_linear_matches_matmul_add():
    x, w, b = t64((6, 5)), t64((5, 4)), t64((4,))
    np.testing.assert_allclose(F.linear(x, w, b).data, x.data @ w.data + b.data, rtol=1e-12)
    assert check_gradients(lambda x, w, b: (F.linear(x, w, b) ** 2.0).sum(), [x, w, b]).ok
    assert check_gradients(lambda x, w: (F.linear(x, w) ** 2.0).sum(), [x, w]).ok


def test_linear_batched_input():
    x, w, b = t64((2, 6, 5)), t64((5, 4)), t64((4,))
    assert check_gradients(lambda x, w, b: (F.linear(x, w, b) ** 2.0).sum(), [x, w, b]).ok


def test_linear_rejects_1d_input():
    with pytest.raises(ValueError, match="1-D input"):
        F.linear(Tensor(np.ones(5)), Tensor(np.ones((5, 4))))


def test_bias_shape_is_validated():
    # Broadcastable-but-wrong bias shapes would otherwise get grads whose
    # shape mismatches their data.
    with pytest.raises(ValueError, match="bias"):
        F.linear(Tensor(np.ones((2, 5))), Tensor(np.ones((5, 4))), Tensor(np.ones((1, 4))))
    with pytest.raises(ValueError, match="bias"):
        F.conv2d(Tensor(np.ones((1, 2, 5, 5))), Tensor(np.ones((3, 2, 3, 3))), Tensor(np.ones((1, 3))))


# --------------------------------------------------------------------------- #
# bias=None end-to-end (regression: no-bias path must build a 2-parent node)
# --------------------------------------------------------------------------- #
def test_linear_no_bias_gradients():
    x, w = t64((6, 5)), t64((5, 4))
    out = F.linear(x, w, None)
    np.testing.assert_allclose(out.data, x.data @ w.data, rtol=1e-12)
    assert len(out._node.inputs) == 2
    assert check_gradients(lambda x, w: F.linear(x, w, None), [x, w]).ok


def test_conv2d_no_bias_gradients():
    x, w = t64((2, 3, 5, 5)), t64((4, 3, 3, 3), scale=0.5)
    assert check_gradients(lambda x, w: F.conv2d(x, w, None, padding=1), [x, w]).ok


# --------------------------------------------------------------------------- #
# batch_norm
# --------------------------------------------------------------------------- #
def batch_norm_ref(x, w, b, mean, var, eps):
    bshape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    out = (x - mean.reshape(bshape)) / np.sqrt(var.reshape(bshape) + eps)
    if w is not None:
        out = out * w.reshape(bshape)
    if b is not None:
        out = out + b.reshape(bshape)
    return out


def test_batch_norm_train_forward_matches_reference():
    x = t64((4, 3, 5, 5))
    w, b = t64((3,)), t64((3,))
    axes = (0, 2, 3)
    expected = batch_norm_ref(
        x.data, w.data, b.data, x.data.mean(axis=axes), x.data.var(axis=axes), 1e-5
    )
    np.testing.assert_allclose(F.batch_norm(x, w, b, training=True).data, expected, rtol=1e-10)


def test_batch_norm_eval_uses_running_stats():
    x = t64((4, 3, 5, 5))
    rm = RNG.standard_normal(3)
    rv = RNG.random(3) + 0.5
    out = F.batch_norm(x, None, None, rm, rv, training=False)
    np.testing.assert_allclose(out.data, batch_norm_ref(x.data, None, None, rm, rv, 1e-5), rtol=1e-10)


@pytest.mark.parametrize("shape", [(4, 3, 5, 5), (8, 6)])
@pytest.mark.parametrize("affine", [True, False])
def test_batch_norm_train_gradients(shape, affine):
    x = t64(shape)
    if affine:
        w, b = t64((shape[1],)), t64((shape[1],))
        assert check_gradients(lambda x, w, b: F.batch_norm(x, w, b, training=True), [x, w, b]).ok
    else:
        assert check_gradients(lambda x: F.batch_norm(x, training=True), [x]).ok


def test_batch_norm_eval_gradients():
    x, w, b = t64((4, 3, 4, 4)), t64((3,)), t64((3,))
    rm = RNG.standard_normal(3)
    rv = RNG.random(3) + 0.5
    assert check_gradients(
        lambda x, w, b: F.batch_norm(x, w, b, rm, rv, training=False), [x, w, b]
    ).ok


def test_batch_norm_running_stats_ema():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((16, 3, 4, 4))
    rm, rv = np.zeros(3), np.ones(3)
    F.batch_norm(Tensor(x, dtype=np.float64), running_mean=rm, running_var=rv, training=True, momentum=0.1)
    m = x.size // 3
    np.testing.assert_allclose(rm, 0.1 * x.mean(axis=(0, 2, 3)), rtol=1e-6)
    np.testing.assert_allclose(rv, 0.9 + 0.1 * x.var(axis=(0, 2, 3)) * m / (m - 1), rtol=1e-6)


def test_batch_norm_eval_never_touches_running_stats():
    x = t64((4, 3, 4, 4))
    rm, rv = np.zeros(3), np.ones(3)
    F.batch_norm(x, running_mean=rm, running_var=rv, training=False)
    assert np.array_equal(rm, np.zeros(3)) and np.array_equal(rv, np.ones(3))


def test_batch_norm_validates_shapes():
    with pytest.raises(ValueError, match="weight"):
        F.batch_norm(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))
    with pytest.raises(ValueError, match=r"\(N, C"):
        F.batch_norm(Tensor(np.ones(5)))


# --------------------------------------------------------------------------- #
# dropout
# --------------------------------------------------------------------------- #
def test_dropout_train_gradients():
    x = t64((6, 7))
    # Recreate the generator inside fn so every evaluation sees the same mask.
    assert check_gradients(
        lambda x: F.dropout(x, p=0.4, training=True, rng=np.random.default_rng(42)), [x]
    ).ok


def test_dropout_inverted_scaling():
    x = Tensor(np.ones((1000, 10)))
    out = F.dropout(x, p=0.3, training=True, rng=np.random.default_rng(0))
    kept = out.data != 0
    np.testing.assert_allclose(out.data[kept], 1.0 / 0.7, rtol=1e-6)
    assert abs(kept.mean() - 0.7) < 0.03  # keep rate ~ 1-p


def test_dropout_eval_and_p0_are_identity():
    x = t64((4, 5))
    assert F.dropout(x, p=0.5, training=False) is x
    assert F.dropout(x, p=0.0, training=True) is x


def test_dropout_p1_zeroes_everything():
    x = t64((4, 5))
    out = F.dropout(x, p=1.0, training=True)
    assert np.array_equal(out.data, np.zeros_like(x.data))
    out.sum().backward()
    assert np.array_equal(x.grad, np.zeros_like(x.data))


def test_dropout_validates_p():
    with pytest.raises(ValueError, match="probability"):
        F.dropout(Tensor(np.ones(3)), p=1.5)


# --------------------------------------------------------------------------- #
# Training-loop smoke: kernels + engine converge together
# --------------------------------------------------------------------------- #
def test_small_convnet_training_step_reduces_loss():
    rng = np.random.default_rng(0)
    x_np = rng.standard_normal((8, 1, 8, 8)).astype(np.float32)
    y_np = rng.integers(0, 3, 8)
    w1 = Tensor(rng.standard_normal((4, 1, 3, 3)).astype(np.float32) * 0.3, requires_grad=True)
    b1 = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    w2 = Tensor(rng.standard_normal((4 * 4 * 4, 3)).astype(np.float32) * 0.1, requires_grad=True)
    params = [w1, b1, w2]

    def loss_value():
        h = F.conv2d(Tensor(x_np), w1, b1, padding=1).relu()
        h = F.max_pool2d(h, 2)
        return F.softmax_cross_entropy(F.linear(h.flatten(), w2), y_np)

    first = None
    for _ in range(30):
        loss = loss_value()
        loss.backward()
        if first is None:
            first = float(loss.data)
        for p in params:
            p.data -= 0.1 * p.grad
            p.zero_grad()
    assert float(loss.data) < first * 0.7
