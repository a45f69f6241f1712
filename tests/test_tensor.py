"""Engine tests: per-op gradient checks, broadcasting, graph lifecycle."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, no_grad, is_grad_enabled

RNG = np.random.default_rng(42)


def t64(shape, requires_grad=True, low=None):
    data = RNG.standard_normal(shape)
    if low is not None:
        data = np.abs(data) + low  # keep away from non-differentiable points
    return Tensor(data, requires_grad=requires_grad, dtype=np.float64)


# --------------------------------------------------------------------------- #
# Per-op gradient checks (finite differences, float64)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "name,fn,shapes,low",
    [
        ("add", lambda a, b: (a + b).sum(), [(3, 4), (3, 4)], None),
        ("sub", lambda a, b: (a - b).sum(), [(3, 4), (3, 4)], None),
        ("mul", lambda a, b: (a * b).sum(), [(3, 4), (3, 4)], None),
        ("div", lambda a, b: (a / b).sum(), [(3, 4), (3, 4)], 0.5),
        ("neg", lambda a: (-a).sum(), [(3, 4)], None),
        ("pow", lambda a: (a ** 3.0).sum(), [(3, 4)], 0.3),
        ("matmul", lambda a, b: (a @ b).sum(), [(3, 4), (4, 5)], None),
        ("matmul_vec_mat", lambda a, b: (a @ b).sum(), [(4,), (4, 5)], None),
        ("matmul_mat_vec", lambda a, b: (a @ b).sum(), [(3, 4), (4,)], None),
        ("matmul_vec_vec", lambda a, b: a @ b, [(4,), (4,)], None),
        ("matmul_batched_vec", lambda a, b: (a @ b).sum(), [(2, 3, 4), (4,)], None),
        ("abs", lambda a: a.abs().sum(), [(3, 4)], 0.3),
        ("exp", lambda a: a.exp().sum(), [(3, 4)], None),
        ("log", lambda a: a.log().sum(), [(3, 4)], 0.5),
        ("sqrt", lambda a: a.sqrt().sum(), [(3, 4)], 0.5),
        ("relu", lambda a: a.relu().sum(), [(3, 4)], 0.3),
        ("sigmoid", lambda a: a.sigmoid().sum(), [(3, 4)], None),
        ("tanh", lambda a: a.tanh().sum(), [(3, 4)], None),
        ("sum_all", lambda a: a.sum(), [(3, 4)], None),
        ("sum_axis", lambda a: a.sum(axis=1).sum(), [(3, 4)], None),
        ("sum_keepdims", lambda a: a.sum(axis=0, keepdims=True).sum(), [(3, 4)], None),
        ("mean", lambda a: a.mean(), [(3, 4)], None),
        ("mean_axis", lambda a: a.mean(axis=1).sum(), [(3, 4)], None),
        ("var", lambda a: a.var(axis=1).sum(), [(3, 4)], None),
        ("reshape", lambda a: a.reshape(4, 3).sum(axis=0).sum(), [(3, 4)], None),
        ("transpose", lambda a: a.transpose().sum(axis=1).sum(), [(3, 4)], None),
        ("transpose_neg", lambda a: (a.transpose(0, -1, -2) ** 2.0).sum(), [(2, 3, 4)], None),
        ("transpose_neg_eq", lambda a: (a.transpose(0, -1, -2) * 2.0).max(axis=0).sum(), [(2, 3, 3)], None),
        ("flatten", lambda a: (a.flatten() ** 2.0).sum(), [(3, 4, 2)], None),
        ("getitem", lambda a: (a[1:, ::2] ** 2.0).sum(), [(3, 4)], None),
        ("max_axis", lambda a: a.max(axis=1).sum(), [(3, 4)], None),
        ("max_tuple_axis", lambda a: a.max(axis=(0, 2)).sum(), [(2, 3, 4)], None),
        ("max_neg_axis", lambda a: a.max(axis=-1).sum(), [(3, 4)], None),
        ("clone", lambda a: (a.clone() * a).sum(), [(3, 4)], None),
        ("pad2d", lambda a: (a.pad2d(1) ** 2.0).sum(), [(2, 2, 3, 3)], None),
        ("chain", lambda a, b: ((a @ b).relu().sigmoid() * 3.0).mean(), [(3, 4), (4, 5)], None),
        ("max_all", lambda a: a.max(), [(3, 4)], None),
    ],
)
def test_op_gradients(name, fn, shapes, low):
    inputs = [t64(s, low=low) for s in shapes]
    result = check_gradients(fn, inputs)
    assert result.ok, f"{name}: {result}"


@pytest.mark.parametrize(
    "shape_a,shape_b",
    [((4, 5), (5,)), ((4, 1), (1, 5)), ((2, 3, 4), (4,)), ((4, 5), ()), ((1, 5), (4, 1))],
)
def test_broadcast_gradients(shape_a, shape_b):
    a, b = t64(shape_a), t64(shape_b)
    for fn in (
        lambda a, b: (a + b).sum(),
        lambda a, b: (a * b).sum(),
        lambda a, b: ((a + b) * (a * b)).sum(),
    ):
        result = check_gradients(fn, [a, b])
        assert result.ok, f"broadcast {shape_a} vs {shape_b}: {result}"


def test_concatenate_and_stack_gradients():
    a, b = t64((2, 3)), t64((2, 3))
    assert check_gradients(lambda a, b: (Tensor.concatenate([a, b], axis=1) ** 2.0).sum(), [a, b]).ok
    assert check_gradients(lambda a, b: (Tensor.stack([a, b], axis=0) ** 2.0).sum(), [a, b]).ok


# --------------------------------------------------------------------------- #
# Satellite fixes
# --------------------------------------------------------------------------- #
def test_pow_accepts_numpy_scalars():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True, dtype=np.float64)
    for exponent in (np.float32(2.0), np.float64(2.0), np.int32(2), np.int64(2), 2, 2.0):
        y = (x ** exponent).sum()
        np.testing.assert_allclose(y.data, 13.0, rtol=1e-6)
    with pytest.raises(TypeError):
        x ** "2"


def test_pow_numpy_scalar_gradient():
    x = t64((3, 4), low=0.3)
    assert check_gradients(lambda a: (a ** np.float32(2.0)).sum(), [x]).ok


@pytest.mark.parametrize("axis", [(0, 1), (0, 2), (1, 2), (0, -1), (-2, -1)])
@pytest.mark.parametrize("keepdims", [False, True])
def test_sum_tuple_axes(axis, keepdims):
    x = t64((2, 3, 4))
    out = x.sum(axis=axis, keepdims=keepdims)
    np.testing.assert_allclose(out.data, x.data.sum(axis=axis, keepdims=keepdims))
    assert check_gradients(lambda a: (a.sum(axis=axis, keepdims=keepdims) ** 2.0).sum(), [x]).ok


@pytest.mark.parametrize("axis", [-1, -2, (0, -1)])
def test_mean_negative_axes(axis):
    x = t64((2, 3, 4))
    out = x.mean(axis=axis)
    np.testing.assert_allclose(out.data, x.data.mean(axis=axis), rtol=1e-12)
    assert check_gradients(lambda a: (a.mean(axis=axis) ** 2.0).sum(), [x]).ok


# --------------------------------------------------------------------------- #
# no_grad behaviour
# --------------------------------------------------------------------------- #
def test_no_grad_records_nothing():
    x = Tensor([1.0, 2.0], requires_grad=True)
    assert is_grad_enabled()
    with no_grad():
        assert not is_grad_enabled()
        y = (x * 2.0 + 1.0).sum()
    assert is_grad_enabled()
    assert not y.requires_grad
    assert y._node is None
    with pytest.raises(RuntimeError):
        y.backward()


def test_no_grad_nests():
    with no_grad():
        with no_grad():
            pass
        assert not is_grad_enabled()
    assert is_grad_enabled()


# --------------------------------------------------------------------------- #
# Accumulation semantics
# --------------------------------------------------------------------------- #
def test_repeated_use_accumulates():
    x = Tensor([3.0], requires_grad=True)
    y = (x + x + x).sum()
    y.backward()
    np.testing.assert_allclose(x.grad, [3.0])


def test_grad_buffer_is_owned_and_writable():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = (x * 1.0).sum()
    y.backward()
    assert x.grad.flags.writeable
    x.grad += 1.0  # in-place update must not touch any other tensor's grad


def test_backward_seed_grad_is_copied():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    seed = np.ones(3, dtype=np.float32)
    y = x * 2.0
    y.backward(seed)
    x.grad[:] = 0.0
    np.testing.assert_allclose(seed, 1.0)  # caller's array untouched


def test_backward_requires_grad_and_scalar():
    x = Tensor([1.0, 2.0])
    with pytest.raises(RuntimeError):
        x.backward()
    y = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(RuntimeError):
        (y * 2.0).backward()  # non-scalar without explicit seed


# --------------------------------------------------------------------------- #
# Graph freeing / retain_graph
# --------------------------------------------------------------------------- #
def test_backward_frees_graph_by_default():
    x = Tensor([2.0], requires_grad=True)
    y = x * 3.0
    z = (y * y).sum()
    z.backward()
    np.testing.assert_allclose(x.grad, [36.0])
    # Interior nodes dropped their parent links (closures replaced by sentinel).
    assert z._node.inputs == () and y._node.inputs == ()
    # A second backward over the freed graph must fail loudly, not silently
    # produce missing gradients.
    with pytest.raises(RuntimeError, match="already been freed"):
        z.backward()


def test_backward_over_partially_freed_shared_subgraph_raises():
    """Freeing one consumer's graph must not let another silently mis-grad."""
    a = Tensor([2.0], requires_grad=True)
    h = a * a
    z1 = (h * 2.0).sum()
    z2 = (h * 5.0).sum()
    z1.backward(retain_graph=True)
    np.testing.assert_allclose(a.grad, [8.0])
    z2.backward()  # frees h, which z1's cached topo still references
    a.zero_grad()
    with pytest.raises(RuntimeError, match="already been freed"):
        z1.backward(retain_graph=True)


def test_fresh_graph_through_freed_shared_node_raises():
    """A second loss whose toposort reaches a freed node must fail loudly,
    not treat it as a leaf and silently drop upstream gradients."""
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * 2.0
    l1 = y.sum()
    l2 = (y * y).sum()
    l1.backward()  # frees y's closure
    with pytest.raises(RuntimeError, match="already been freed"):
        l2.backward()


def test_leaf_backward_is_repeatable():
    x = Tensor([1.0], requires_grad=True)
    x.backward(np.array([2.0], dtype=np.float32))
    x.backward(np.array([3.0], dtype=np.float32))  # leaves never freeze
    np.testing.assert_allclose(x.grad, [3.0])


def test_retain_graph_allows_second_backward():
    x = Tensor([2.0], requires_grad=True)
    z = (x * x).sum()
    z.backward(retain_graph=True)
    np.testing.assert_allclose(x.grad, [4.0])
    z.backward(retain_graph=True)  # reuses the cached topo order
    np.testing.assert_allclose(x.grad, [8.0])
    z.backward()  # final pass frees the graph
    np.testing.assert_allclose(x.grad, [12.0])
    with pytest.raises(RuntimeError, match="already been freed"):
        z.backward()


def _spliced(parent, thunk):
    """An identity op over ``parent`` whose backward runs ``thunk(out)``."""
    return Tensor._make(
        np.array(parent.data), (parent,), "spliced", lambda out: lambda: thunk(out)
    )


def test_backward_frees_each_node_as_soon_as_its_thunk_has_run():
    seen = []
    x = Tensor([2.0], requires_grad=True)
    y = x * 3.0

    def thunk(out):
        # Downstream thunks have run, upstream ones have not.
        seen.append((w._node.inputs != (), z._node.inputs != (), y._node.inputs != ()))
        y._accumulate(out.grad)

    mid = _spliced(y, thunk)
    w = mid * mid
    z = w.sum()
    z.backward(retain_graph=True)  # a retained graph stays whole throughout
    z.backward()  # by now w and z are already freed when mid's thunk runs
    assert seen == [(True, True, True), (False, False, True)]
    np.testing.assert_allclose(x.grad, [72.0])
    assert y._node.inputs == () and mid._node.inputs == ()


def test_a_raising_thunk_leaves_the_nodes_that_already_ran_freed():
    x = Tensor([2.0], requires_grad=True)
    y = x * 3.0

    def thunk(out):
        raise ValueError("boom")

    bad = _spliced(y, thunk)
    z = (bad * 2.0).sum()
    with pytest.raises(ValueError, match="boom"):
        z.backward()
    assert z._node.inputs == ()  # ran, freed
    assert bad._node.inputs == (y,) and y._node.inputs != ()  # never finished: untouched
    assert x.grad is None
    # No second pass accumulates on top of the first: the graph is spent.
    with pytest.raises(RuntimeError, match="already been freed"):
        z.backward()


def test_freed_graph_is_collectable_without_gc():
    """Freeing must break tensor<->closure reference cycles (regression)."""
    import gc
    import weakref

    x = Tensor([1.0], requires_grad=True)
    y = (x * 2.0 + 1.0).sum()
    ref = weakref.ref(y)
    y.backward()
    gc.disable()
    try:
        del y
        assert ref() is None  # refcounting alone reclaimed the graph
    finally:
        gc.enable()


def test_detach_breaks_graph():
    x = Tensor([1.0, 2.0], requires_grad=True)
    d = x.detach()
    assert not d.requires_grad
    assert check_gradients(lambda a: (a * a.detach()).sum(), [t64((3,))]).ok is False


# --------------------------------------------------------------------------- #
# Edge-case hardening
# --------------------------------------------------------------------------- #
def test_concatenate_empty_sequence_raises_clearly():
    with pytest.raises(ValueError, match="at least one tensor"):
        Tensor.concatenate([])
    with pytest.raises(ValueError, match="at least one tensor"):
        Tensor.concatenate((), axis=1)


def test_stack_empty_sequence_raises_clearly():
    with pytest.raises(ValueError, match="at least one tensor"):
        Tensor.stack([])


def test_item_on_non_scalar_reports_the_shape():
    with pytest.raises(ValueError, match=r"\(2, 3\)"):
        Tensor(np.zeros((2, 3))).item()
    with pytest.raises(ValueError, match=r"\(0,\)"):
        Tensor(np.zeros((0,))).item()
    # Single-element tensors of any rank stay valid, like numpy's .item().
    assert Tensor(np.float32(7.0)).item() == 7.0
    assert Tensor([[5.0]]).item() == 5.0


def test_getitem_accepts_tensor_indices():
    # Like torch, x[idx] unwraps an integer Tensor index to its array
    # instead of surfacing numpy's raw IndexError about the wrapper type.
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True, dtype=np.float64)
    idx = Tensor(np.array([2, 0]), dtype=np.int64)
    out = x[idx]
    np.testing.assert_array_equal(out.data, x.data[[2, 0]])
    out.sum().backward()
    expected = np.zeros((3, 4))
    expected[[2, 0]] = 1.0
    np.testing.assert_array_equal(x.grad, expected)


def test_getitem_unwraps_tensor_inside_tuple_index():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True, dtype=np.float64)
    rows = Tensor(np.array([0, 2]), dtype=np.int64)
    out = x[rows, 1]
    np.testing.assert_array_equal(out.data, x.data[[0, 2], 1])
    out.sum().backward()
    expected = np.zeros((3, 4))
    expected[[0, 2], 1] = 1.0
    np.testing.assert_array_equal(x.grad, expected)


def test_getitem_tensor_index_duplicates_accumulate():
    # The np.add.at scatter path must keep summing duplicate indices after
    # the unwrap, exactly as it does for a plain integer array index.
    x = Tensor(np.arange(4.0), requires_grad=True, dtype=np.float64)
    idx = Tensor(np.array([1, 1, 3]), dtype=np.int64)
    (x[idx] * Tensor(np.array([1.0, 2.0, 5.0]), dtype=np.float64)).sum().backward()
    np.testing.assert_array_equal(x.grad, [0.0, 3.0, 0.0, 5.0])


def test_pow_gradient_at_zero_is_silent_and_matches_torch():
    import warnings

    x = Tensor(np.array([0.0, 4.0, 9.0]), requires_grad=True, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any RuntimeWarning fails the test
        (x ** 0.5).sum().backward()
    # d/dx sqrt(x) at 0 is +inf, matching torch; the old path also produced
    # inf but spewed a divide-by-zero RuntimeWarning while doing so.
    assert np.isinf(x.grad[0])
    np.testing.assert_allclose(x.grad[1:], [0.25, 1.0 / 6.0])
