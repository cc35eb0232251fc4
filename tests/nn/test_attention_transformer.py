"""Tests for multi-head self-attention and Transformer encoder blocks."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.tensor import Tensor, using_dtype
from repro.nn.transformer import TransformerEncoder, TransformerEncoderLayer
from tests.helpers import check_gradient

RNG = np.random.default_rng(13)


class TestMHSA:
    def test_output_shape(self):
        attn = MultiHeadSelfAttention(16, 4, rng=RNG)
        out = attn(Tensor(RNG.normal(size=(2, 7, 16))))
        assert out.shape == (2, 7, 16)

    def test_embed_dim_divisibility(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3)

    def test_input_gradient(self):
        attn = MultiHeadSelfAttention(8, 2, rng=RNG)
        x = RNG.normal(size=(1, 3, 8))
        check_gradient(lambda t: (attn(t) ** 2).sum(), x, atol=1e-4)

    def test_fewer_heads_change_output(self):
        attn = MultiHeadSelfAttention(8, 4, rng=RNG)
        x = RNG.normal(size=(1, 4, 8))
        full = attn.attend(x, taped=False)[0]
        assert not np.allclose(full, attn.attend(x, taped=False, heads=2)[0])

    def test_kept_heads_read_only_their_rows_and_columns(self):
        """At two heads of four, nothing of heads 2 and 3 is read."""
        attn = MultiHeadSelfAttention(8, 4, rng=RNG)
        x = RNG.normal(size=(2, 3, 8))
        kept = attn.attend(x, taped=False, heads=2)[0]
        attn.qkv.weight.data.reshape(8, 3, 8)[..., 4:] = np.nan
        attn.qkv.bias.data.reshape(3, 8)[:, 4:] = np.nan
        attn.proj.weight.data[4:] = np.nan
        assert np.array_equal(attn.attend(x, taped=False, heads=2)[0], kept)

    def test_reorder_keeps_the_function(self):
        with using_dtype("float64"):
            attn = MultiHeadSelfAttention(8, 4, rng=RNG)
            x = RNG.normal(size=(2, 3, 8))
            before = attn.attend(x, taped=False)[0]
            attn.reorder(np.array([2, 0, 3, 1]))
            np.testing.assert_allclose(attn.attend(x, taped=False)[0], before, atol=1e-12)

    def test_narrow_is_the_kept_prefix(self):
        attn = MultiHeadSelfAttention(8, 4, rng=RNG)
        x = RNG.normal(size=(2, 3, 8))
        kept = attn.attend(x, taped=False, heads=3)[0]
        attn.narrow(3)
        assert attn.qkv.weight.shape == (8, 18) and attn.proj.weight.shape == (6, 8)
        assert np.array_equal(attn.attend(x, taped=False)[0], kept)

    def test_last_head_output_recorded(self):
        attn = MultiHeadSelfAttention(8, 2, rng=RNG)
        x = Tensor(RNG.normal(size=(2, 3, 8)))
        attn(x)
        assert attn.last_head_output is not None
        assert attn.last_head_output.shape == (2, 2, 3, 4)

    def test_head_output_gradients_observable(self):
        """Eq. (8) needs ∂F/∂O_h on the recorded per-head output."""
        attn = MultiHeadSelfAttention(8, 2, rng=RNG)
        x = Tensor(RNG.normal(size=(1, 3, 8)), requires_grad=True)
        out = attn(x)
        (out**2).sum().backward()
        assert attn.last_head_output.grad is not None
        assert attn.last_head_output.grad.shape == (1, 2, 3, 4)

    def test_attention_is_permutation_sensitive(self):
        # Without positional information self-attention output per token is
        # permutation-equivariant; check the machinery reflects input order.
        # The 1e-8 equivariance tolerance (reductions reorder under the
        # permutation) is a float64 statement.
        with using_dtype("float64"):
            attn = MultiHeadSelfAttention(8, 2, rng=RNG)
            x = RNG.normal(size=(1, 4, 8))
            out1 = attn(Tensor(x)).data
            out2 = attn(Tensor(x[:, ::-1])).data
        np.testing.assert_allclose(out1, out2[:, ::-1], atol=1e-8)


class TestEncoderLayer:
    def test_residual_path(self):
        layer = TransformerEncoderLayer(8, 2, rng=RNG)
        x = Tensor(RNG.normal(size=(1, 3, 8)))
        out = layer(x)
        assert out.shape == x.shape

    def test_inactive_layer_is_identity(self):
        layer = TransformerEncoderLayer(8, 2, rng=RNG)
        layer.active = False
        x = Tensor(RNG.normal(size=(2, 3, 8)))
        assert layer(x) is x

    def test_gradient_flows(self):
        layer = TransformerEncoderLayer(8, 2, rng=RNG)
        x = RNG.normal(size=(1, 2, 8))
        check_gradient(lambda t: (layer(t) ** 2).sum(), x, atol=1e-4, rtol=1e-3)

    def test_sliced_gradient_is_zero_outside_the_prefix(self):
        layer = TransformerEncoderLayer(8, 2, rng=RNG)
        layer.set_width(1, 5)
        (layer(Tensor(RNG.normal(size=(2, 3, 8)))) ** 2).sum().backward()
        qkv, proj = layer.attn.qkv, layer.attn.proj
        fc1, fc2 = layer.mlp.fc1, layer.mlp.fc2
        for grad in (qkv.weight.grad.reshape(8, 3, 8)[..., 4:], qkv.bias.grad.reshape(3, 8)[:, 4:],
                     proj.weight.grad[4:], fc1.weight.grad[:, 5:], fc1.bias.grad[5:],
                     fc2.weight.grad[5:]):
            assert not grad.any()
        assert fc2.weight.grad[:5].any() and proj.bias.grad.any()

    @pytest.mark.parametrize("heads, neurons", [(0, 4), (3, 4), (1, 33), (1.0, 4), (1, True)])
    def test_width_out_of_range_is_refused(self, heads, neurons):
        layer = TransformerEncoderLayer(8, 2, rng=RNG)
        with pytest.raises(ValueError, match="heads|neurons"):
            layer.set_width(heads, neurons)
        assert (layer.heads, layer.neurons) == (2, 32)


class TestEncoder:
    def test_depth_control(self):
        enc = TransformerEncoder(4, 8, 2, rng=RNG)
        assert enc.active_depth() == 4
        enc.set_active_depth(2)
        assert enc.active_depth() == 2
        assert enc.layers[0].active and enc.layers[1].active
        assert not enc.layers[2].active

    def test_depth_bounds(self):
        enc = TransformerEncoder(3, 8, 2)
        with pytest.raises(ValueError):
            enc.set_active_depth(0)
        with pytest.raises(ValueError):
            enc.set_active_depth(4)

    @pytest.mark.parametrize("depth", [2.7, 2.0, True])
    def test_depth_must_be_an_int(self, depth):
        """``2.7`` used to activate 3 layers silently."""
        enc = TransformerEncoder(3, 8, 2, rng=RNG)
        enc.set_active_depth(1)
        with pytest.raises(ValueError, match="depth must be an int"):
            enc.set_active_depth(depth)
        assert enc.active_depth() == 1

    def test_wire_decoded_depth_is_accepted(self):
        enc = TransformerEncoder(3, 8, 2, rng=RNG)
        enc.set_active_depth(np.int64(2))
        assert enc.active_depth() == 2

    def test_reduced_depth_changes_output(self):
        enc = TransformerEncoder(3, 8, 2, rng=RNG)
        x = Tensor(RNG.normal(size=(1, 4, 8)))
        full = enc(x).data.copy()
        enc.set_active_depth(1)
        shallow = enc(x).data
        assert not np.allclose(full, shallow)

    def test_collect_hidden_counts_active_layers(self):
        enc = TransformerEncoder(4, 8, 2, rng=RNG)
        enc.set_active_depth(3)
        x = Tensor(RNG.normal(size=(1, 2, 8)))
        out, hidden = enc(x, collect_hidden=True)
        assert len(hidden) == 3
        np.testing.assert_allclose(hidden[-1].data, out.data)

    def test_penultimate_and_final(self):
        enc = TransformerEncoder(3, 8, 2, rng=RNG)
        x = Tensor(RNG.normal(size=(1, 2, 8)))
        penult, final = enc.penultimate_and_final(x)
        out, hidden = enc(x, collect_hidden=True)
        np.testing.assert_allclose(final.data, out.data)
        np.testing.assert_allclose(penult.data, hidden[-2].data)

    def test_penultimate_single_layer(self):
        enc = TransformerEncoder(2, 8, 2, rng=RNG)
        enc.set_active_depth(1)
        x = Tensor(RNG.normal(size=(1, 2, 8)))
        penult, final = enc.penultimate_and_final(x)
        np.testing.assert_allclose(penult.data, final.data)

    def test_training_reduces_loss(self):
        """An encoder + linear head can fit a small random problem."""
        from repro.nn.layers import Linear
        from repro.nn.optim import Adam

        rng = np.random.default_rng(0)
        enc = TransformerEncoder(2, 8, 2, rng=rng)
        head = Linear(8, 3, rng=rng)
        x = Tensor(rng.normal(size=(12, 4, 8)))
        y = rng.integers(0, 3, size=12)
        params = enc.parameters() + head.parameters()
        opt = Adam(params, lr=1e-2)

        def loss_value():
            logits = head(enc(x).mean(axis=1))
            return F.cross_entropy(logits, y)

        first = float(loss_value().data)
        for _ in range(30):
            opt.zero_grad()
            loss = loss_value()
            loss.backward()
            opt.step()
        final = float(loss_value().data)
        assert final < first * 0.5
