"""Module/Parameter container and layer tests for :mod:`repro.nn`."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, no_grad
from repro.autograd import functional as F


def make_mlp(rng=None):
    rng = rng if rng is not None else np.random.default_rng(0)
    return nn.Sequential(
        nn.Linear(8, 16, rng=rng),
        nn.BatchNorm1d(16),
        nn.ReLU(),
        nn.Dropout(0.5, rng=rng),
        nn.Linear(16, 4, rng=rng),
    )


# --------------------------------------------------------------------------- #
# Parameter / Module discovery
# --------------------------------------------------------------------------- #
def test_parameter_always_requires_grad():
    p = nn.Parameter(np.ones((2, 3)))
    assert p.requires_grad and p.shape == (2, 3)
    # Adopting a Tensor (e.g. an init scheme's output) shares its storage.
    t = Tensor.randn(4, 4, rng=np.random.default_rng(0))
    assert nn.Parameter(t).data is t.data


def test_parameter_adopts_tensor_dtype():
    # float64 init output must stay float64 (finite-difference checks rely on it).
    t = nn.init.kaiming_uniform((3, 3), fan_in=3, rng=np.random.default_rng(0), dtype=np.float64)
    p = nn.Parameter(t)
    assert p.dtype == np.float64 and p.data is t.data


def test_buffer_assignment_preserves_registered_dtype():
    bn = nn.BatchNorm1d(3)
    bn.running_mean = [0, 0, 0]  # plain-int reset must not flip to int64
    assert bn.running_mean.dtype == np.float32
    bn.train()
    bn(Tensor(np.random.default_rng(0).standard_normal((8, 3)).astype(np.float32)))
    assert not np.array_equal(bn.running_mean, np.zeros(3))  # EMA still works


def test_named_parameters_cover_nested_modules_and_lists():
    model = make_mlp()
    names = [n for n, _ in model.named_parameters()]
    assert names == [
        "layers.0.weight",
        "layers.0.bias",
        "layers.1.weight",
        "layers.1.bias",
        "layers.4.weight",
        "layers.4.bias",
    ]
    assert len(model.parameters()) == 6


def test_parameters_deduplicate_shared_weights():
    class Tied(nn.Module):
        def __init__(self):
            super().__init__()
            self.embed = nn.Linear(4, 8)
            self.head = nn.Linear(4, 8)
            self.head.weight = self.embed.weight  # weight tying

    tied = Tied()
    assert len(list(tied.named_parameters())) == 4
    assert len(tied.parameters()) == 3  # the shared weight appears once


def test_named_modules_walks_the_tree():
    model = make_mlp()
    kinds = [type(m).__name__ for _, m in model.named_modules()]
    assert kinds == ["Sequential", "Linear", "BatchNorm1d", "ReLU", "Dropout", "Linear"]


def test_zero_grad_clears_all_parameters():
    model = make_mlp()
    x = Tensor(np.random.default_rng(0).standard_normal((4, 8)).astype(np.float32))
    model(x).sum().backward()
    assert any(p.grad is not None for p in model.parameters())
    model.zero_grad()
    assert all(p.grad is None for p in model.parameters())


def test_forward_not_implemented():
    with pytest.raises(NotImplementedError):
        nn.Module()(1)


# --------------------------------------------------------------------------- #
# train / eval mode semantics
# --------------------------------------------------------------------------- #
def test_train_eval_recurse():
    model = make_mlp()
    assert all(m.training for m in model.modules())
    model.eval()
    assert all(not m.training for m in model.modules())
    model.train()
    assert all(m.training for m in model.modules())


def test_batchnorm_updates_running_stats_only_in_train_mode():
    bn = nn.BatchNorm1d(6)
    x = Tensor(np.random.default_rng(1).standard_normal((32, 6)).astype(np.float32) * 2 + 1)

    bn.eval()
    bn(x)
    assert np.array_equal(bn.running_mean, np.zeros(6))
    assert np.array_equal(bn.running_var, np.ones(6))
    assert int(bn.num_batches_tracked) == 0

    bn.train()
    bn(x)
    assert not np.array_equal(bn.running_mean, np.zeros(6))
    assert not np.array_equal(bn.running_var, np.ones(6))
    assert int(bn.num_batches_tracked) == 1


def test_batchnorm_eval_normalizes_with_running_stats():
    bn = nn.BatchNorm1d(3)
    bn.running_mean = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    bn.running_var = np.array([4.0, 4.0, 4.0], dtype=np.float32)
    bn.eval()
    out = bn(Tensor(np.array([[1.0, 2.0, 3.0]], dtype=np.float32)))
    np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-6)


def test_dropout_is_identity_in_eval_mode():
    drop = nn.Dropout(0.9)
    x = Tensor(np.ones((8, 8)))
    drop.eval()
    out = drop(x)
    assert out is x  # not even a tape node
    drop.train()
    assert not np.array_equal(drop(x).data, x.data)


def test_no_grad_inference_through_sequential_records_no_graph():
    model = make_mlp().eval()
    x = Tensor(np.random.default_rng(2).standard_normal((4, 8)).astype(np.float32))
    with no_grad():
        out = model(x)
    assert not out.requires_grad
    assert out._node is None


# --------------------------------------------------------------------------- #
# state_dict / load_state_dict
# --------------------------------------------------------------------------- #
def test_state_dict_round_trip_is_bit_exact():
    rng = np.random.default_rng(3)
    model = make_mlp(rng)
    x = Tensor(rng.standard_normal((16, 8)).astype(np.float32))
    model(x)  # populate running stats
    state = model.state_dict()
    assert "layers.1.running_mean" in state and "layers.0.weight" in state

    other = make_mlp(np.random.default_rng(999))
    other.load_state_dict(state)
    for key, value in other.state_dict().items():
        assert np.array_equal(value, state[key]), key


def test_state_dict_returns_copies():
    model = make_mlp()
    state = model.state_dict()
    state["layers.0.weight"][:] = 0.0
    assert not np.array_equal(model.layers[0].weight.data, state["layers.0.weight"])


def test_load_state_dict_is_in_place():
    model = make_mlp()
    weight_storage = model.layers[0].weight.data
    model.load_state_dict(make_mlp(np.random.default_rng(4)).state_dict())
    assert model.layers[0].weight.data is weight_storage


def test_load_state_dict_strict_validates_keys():
    model = make_mlp()
    state = model.state_dict()
    state["bogus"] = np.zeros(1)
    with pytest.raises(KeyError, match="bogus"):
        model.load_state_dict(state)
    del state["bogus"]
    del state["layers.0.weight"]
    with pytest.raises(KeyError, match="layers.0.weight"):
        model.load_state_dict(state)
    model.load_state_dict(state, strict=False)  # tolerated when not strict


def test_load_state_dict_validates_shapes():
    model = make_mlp()
    state = model.state_dict()
    state["layers.0.weight"] = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(ValueError, match="shape"):
        model.load_state_dict(state)


# --------------------------------------------------------------------------- #
# Layers forward against their functional kernels
# --------------------------------------------------------------------------- #
def test_linear_layer_matches_functional():
    rng = np.random.default_rng(5)
    layer = nn.Linear(5, 3, rng=rng)
    x = Tensor(rng.standard_normal((4, 5)).astype(np.float32))
    np.testing.assert_array_equal(
        layer(x).data, F.linear(x, layer.weight, layer.bias).data
    )


def test_linear_layer_without_bias_routes_none_end_to_end():
    rng = np.random.default_rng(6)
    layer = nn.Linear(5, 3, bias=False, rng=rng)
    assert layer.bias is None
    assert len(layer.parameters()) == 1
    x = Tensor(rng.standard_normal((4, 5)).astype(np.float32))
    loss = (layer(x) ** 2.0).sum()
    loss.backward()
    assert layer.weight.grad is not None and layer.weight.grad.shape == (5, 3)
    assert "bias" not in layer.state_dict()


def test_conv2d_layer_matches_functional_and_supports_no_bias():
    rng = np.random.default_rng(7)
    layer = nn.Conv2d(3, 8, 3, stride=1, padding=1, rng=rng)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
    np.testing.assert_array_equal(
        layer(x).data,
        F.conv2d(x, layer.weight, layer.bias, stride=(1, 1), padding=(1, 1)).data,
    )
    no_bias = nn.Conv2d(3, 8, 3, bias=False, rng=rng)
    assert no_bias.bias is None
    no_bias(x).sum().backward()
    assert no_bias.weight.grad is not None


def test_pool_and_flatten_layers():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
    assert nn.MaxPool2d(2)(x).shape == (2, 3, 4, 4)
    assert nn.AvgPool2d(2)(x).shape == (2, 3, 4, 4)
    assert nn.Flatten()(x).shape == (2, 3 * 8 * 8)
    assert nn.Flatten(start_dim=2)(x).shape == (2, 3, 64)


def test_batchnorm_validates_rank_and_channels():
    with pytest.raises(ValueError, match="4-D"):
        nn.BatchNorm2d(3)(Tensor(np.ones((2, 3))))
    with pytest.raises(ValueError, match="channels"):
        nn.BatchNorm1d(3)(Tensor(np.ones((2, 5))))


def test_sequential_container_api():
    model = make_mlp()
    assert len(model) == 5
    assert isinstance(model[0], nn.Linear)
    assert isinstance(model[1:3], nn.Sequential) and len(model[1:3]) == 2
    model.append(nn.ReLU())
    assert len(model) == 6
    assert len([m for m in model]) == 6


def test_sequential_slices_share_module_identity():
    model = make_mlp()
    head = model[:2]
    assert head[0] is model[0] and head[1] is model[1]  # shared, not copied
    assert head[0].weight is model[0].weight
    # Training the slice trains the original (same parameter storage).
    tail = model[-1:]
    assert tail[0] is model[4]
    assert model[::2][1] is model[2]  # stepped slices too


def test_sequential_mutators_feed_parameter_discovery():
    rng = np.random.default_rng(0)
    model = nn.Sequential(nn.Linear(8, 8, rng=rng))
    assert model.append(nn.ReLU()) is model
    assert model.insert(0, nn.Linear(8, 8, rng=rng)) is model  # at the front
    assert model.extend([nn.Linear(8, 4, rng=rng), nn.ReLU()]) is model
    assert [type(m).__name__ for m in model] == [
        "Linear", "Linear", "ReLU", "Linear", "ReLU",
    ]
    # Every layer added through every mutator is discovered: 3 Linears with
    # weight+bias each.
    assert len(model.parameters()) == 6
    names = dict(model.named_parameters())
    assert "layers.0.weight" in names and "layers.3.weight" in names
    # extend() accepts another Sequential and shares its modules.
    other = nn.Sequential(nn.Linear(4, 2, rng=rng))
    model.extend(other)
    assert model[-1] is other[0]
    assert len(model.parameters()) == 8
    out = model(np.zeros((2, 8), dtype=np.float32))
    assert out.shape == (2, 2)


def test_sequential_rejects_non_modules():
    model = nn.Sequential()
    with pytest.raises(TypeError, match="Module"):
        model.append(lambda x: x)
    with pytest.raises(TypeError, match="Module"):
        model.insert(0, np.zeros(3))
    with pytest.raises(TypeError, match="Module"):
        model.extend([nn.ReLU(), "not a module"])
    assert len(model) == 0  # extend validates up front, never half-applies
    with pytest.raises(TypeError, match="Module"):
        nn.Sequential(nn.ReLU(), 42)


def test_module_repr_nests():
    text = repr(make_mlp())
    assert "Sequential" in text and "Linear(8, 16" in text and "Dropout(p=0.5)" in text


# --------------------------------------------------------------------------- #
# init schemes
# --------------------------------------------------------------------------- #
def test_init_schemes_are_seedable_and_scaled():
    rng1, rng2 = np.random.default_rng(11), np.random.default_rng(11)
    a = nn.init.kaiming_uniform((50, 50), fan_in=50, rng=rng1)
    b = nn.init.kaiming_uniform((50, 50), fan_in=50, rng=rng2)
    assert np.array_equal(a.data, b.data)
    assert np.abs(a.data).max() <= np.sqrt(6.0 / 50) + 1e-6

    n = nn.init.kaiming_normal((400, 100), fan_in=100, rng=rng1)
    assert abs(n.data.std() - np.sqrt(2.0 / 100)) < 0.01

    xu = nn.init.xavier_uniform((100, 100), fan_in=100, fan_out=100, rng=rng1)
    assert np.abs(xu.data.max()) <= np.sqrt(6.0 / 200) + 1e-6
    xn = nn.init.xavier_normal((400, 100), fan_in=100, fan_out=100, rng=rng1)
    assert abs(xn.data.std() - np.sqrt(2.0 / 200)) < 0.01


def test_manual_seed_makes_default_init_deterministic():
    nn.init.manual_seed(123)
    w1 = nn.Linear(6, 6).weight.data.copy()
    nn.init.manual_seed(123)
    w2 = nn.Linear(6, 6).weight.data.copy()
    assert np.array_equal(w1, w2)


# --------------------------------------------------------------------------- #
# Tensor constructors backing the init layer
# --------------------------------------------------------------------------- #
def test_tensor_constructors_shapes_and_values():
    assert Tensor.zeros(2, 3).shape == (2, 3)
    assert Tensor.zeros((2, 3)).shape == (2, 3)
    assert np.array_equal(Tensor.ones(4).data, np.ones(4, dtype=np.float32))
    full = Tensor.full((2, 2), 7.5)
    assert np.array_equal(full.data, np.full((2, 2), 7.5, dtype=np.float32))
    assert Tensor.full(3, 1.0).shape == (3,)
    assert Tensor.zeros(2, 2, dtype=np.float64).dtype == np.float64
    assert Tensor.ones(2, requires_grad=True).requires_grad


def test_tensor_random_constructors_are_generator_seeded():
    a = Tensor.randn(3, 4, rng=np.random.default_rng(5))
    b = Tensor.randn((3, 4), rng=np.random.default_rng(5))
    assert a.shape == (3, 4) and np.array_equal(a.data, b.data)
    u = Tensor.uniform(100, low=-2.0, high=3.0, rng=np.random.default_rng(5))
    assert u.data.min() >= -2.0 and u.data.max() < 3.0
