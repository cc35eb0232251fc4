"""Tests for the module system and core layers."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import (
    Activation,
    Dropout,
    LayerNorm,
    Linear,
    MLP,
    Module,
    Parameter,
    Sequential,
)
from repro.nn.tensor import Tensor
from tests.helpers import parameter_gradient_check

RNG = np.random.default_rng(11)


class TestModule:
    def test_parameter_discovery_is_recursive(self):
        model = Sequential(Linear(4, 8), Activation("relu"), Linear(8, 2))
        names = [name for name, _ in model.named_parameters()]
        assert "layer0.weight" in names and "layer2.bias" in names
        assert len(model.parameters()) == 4

    def test_num_parameters(self):
        layer = Linear(3, 5)
        assert layer.num_parameters() == 3 * 5 + 5

    def test_train_eval_propagates(self):
        model = Sequential(Linear(2, 2), Dropout(0.5))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        layer = Linear(3, 3)
        out = layer(Tensor(RNG.normal(size=(2, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self):
        a = Linear(4, 4, rng=np.random.default_rng(1))
        b = Linear(4, 4, rng=np.random.default_rng(2))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_load_state_dict_strict_errors(self):
        layer = Linear(2, 2)
        with pytest.raises(KeyError):
            layer.load_state_dict({"weight": np.zeros((2, 2))})  # missing bias
        with pytest.raises(ValueError):
            layer.load_state_dict(
                {"weight": np.zeros((3, 3)), "bias": np.zeros(2)}
            )

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestLinear:
    def test_shapes(self):
        layer = Linear(6, 3)
        assert layer(Tensor(RNG.normal(size=(5, 6)))).shape == (5, 3)
        assert layer(Tensor(RNG.normal(size=(2, 7, 6)))).shape == (2, 7, 3)
        assert layer(Tensor(RNG.normal(size=(6,)))).shape == (3,)

    def test_no_bias(self):
        layer = Linear(4, 2, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_parameter_gradients(self):
        layer = Linear(3, 2, rng=RNG)
        x = Tensor(RNG.normal(size=(4, 3)))
        parameter_gradient_check(
            layer,
            lambda: (layer(x) ** 2).sum(),
            [layer.weight, layer.bias],
        )


class TestSequential:
    def test_applies_in_order(self):
        model = Sequential(Linear(2, 2), Activation("relu"))
        x = Tensor(np.array([[-10.0, -10.0]]))
        out = model(x)
        assert (out.data >= 0).all()

    def test_append_and_len(self):
        model = Sequential(Linear(2, 2))
        model.append(Linear(2, 3))
        assert len(model) == 2
        assert model(Tensor(np.ones((1, 2)))).shape == (1, 3)

    def test_iteration(self):
        layers = [Linear(2, 2), Activation("gelu")]
        model = Sequential(*layers)
        assert [type(m) for m in model] == [Linear, Activation]


class TestActivation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Activation("swishish")

    @pytest.mark.parametrize("kind", ["relu", "gelu", "tanh", "sigmoid", "identity"])
    def test_known_kinds(self, kind):
        act = Activation(kind)
        out = act(Tensor(np.array([0.5, -0.5])))
        assert out.shape == (2,)


class TestMLP:
    def test_forward_shape(self):
        mlp = MLP(8, 16, 4, rng=RNG)
        assert mlp(Tensor(RNG.normal(size=(3, 8)))).shape == (3, 4)

    def test_neuron_mask_zeroes_hidden_units(self):
        mlp = MLP(4, 6, 4, rng=RNG)
        x = Tensor(RNG.normal(size=(2, 4)))
        full = mlp(x).data.copy()
        mask = np.zeros(6, dtype=bool)
        mlp.set_neuron_mask(mask)
        masked = mlp(x).data
        # With every hidden neuron masked, output reduces to fc2's bias.
        np.testing.assert_allclose(masked, np.broadcast_to(mlp.fc2.bias.data, masked.shape))
        assert not np.allclose(full, masked)

    def test_mask_validation(self):
        mlp = MLP(4, 6, 4)
        with pytest.raises(ValueError):
            mlp.set_neuron_mask(np.ones(5, dtype=bool))

    def test_active_neurons(self):
        mlp = MLP(4, 6, 4)
        assert mlp.neuron_mask.sum() == 6
        mask = np.array([True, False, True, False, True, False])
        mlp.set_neuron_mask(mask)
        assert mlp.neuron_mask.sum() == 3

    def test_masked_neurons_receive_no_gradient(self):
        mlp = MLP(3, 4, 2, rng=RNG)
        mask = np.array([True, True, False, False])
        mlp.set_neuron_mask(mask)
        out = mlp(Tensor(RNG.normal(size=(5, 3))))
        out.sum().backward()
        # fc2 weight rows for masked neurons get zero gradient.
        np.testing.assert_allclose(mlp.fc2.weight.grad[2:], 0.0)
        assert np.abs(mlp.fc2.weight.grad[:2]).sum() > 0


class TestDropoutLayer:
    @pytest.mark.parametrize("p", [2.0, 1.0, -0.1])
    def test_probability_is_checked_at_construction(self, p):
        with pytest.raises(ValueError, match="dropout probability"):
            Dropout(p)

    def test_respects_training_flag(self):
        drop = Dropout(0.9, seed=0)
        x = Tensor(np.ones((50, 50)))
        drop.eval()
        np.testing.assert_allclose(drop(x).data, x.data)
        drop.train()
        assert (drop(x).data == 0).any()
