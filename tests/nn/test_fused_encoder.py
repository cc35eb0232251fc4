"""The fused encoder block equals the chained one bit for bit.

``TransformerEncoderLayer.forward`` and ``MultiHeadSelfAttention.forward``
are each one tape node with a hand-written backward; the oracle is the
chain of single-op nodes they replaced (``tests/reference/encoder.py``).
Every comparison is exact: ``np.array_equal``, equal dtypes and equal
bytes (so a signed zero counts), over
both engine dtypes and full and sliced width.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.tensor import Tensor, no_grad, using_dtype
from repro.nn.transformer import TransformerEncoder, TransformerEncoderLayer
from tests.reference.encoder import (
    chained_attention_forward,
    chained_layer_forward,
)

EMBED, HEADS, TOKENS, BATCH = 8, 4, 5, 3


def _same(a, b) -> bool:
    """Equal dtype, shape and bits (``-0.0`` is not ``+0.0`` here)."""
    if a is None or b is None:  # e.g. the grads of a switched-off layer
        return a is b
    return a.dtype == b.dtype and np.array_equal(a, b) and a.tobytes() == b.tobytes()


def _sliced(layer: TransformerEncoderLayer) -> None:
    layer.set_width(2, layer.mlp.hidden_features * 2 // 3)


def _probe(x_data, upstream, forward, extra=None):
    """Forward, a weighted-sum loss (+ ``extra(x)``), backward.

    ``x`` is a non-leaf tensor (the block input inside a model is the
    output of earlier nodes), so its grad is a sum of contributions.
    """
    leaf = Tensor(x_data, requires_grad=True)
    x = leaf * 1.0
    out = forward(x)
    loss = (out * Tensor(upstream)).sum()
    if extra is not None:
        loss = loss + extra(x)
    loss.backward()
    return out, x


def _run(layer, forward, x_data, upstream, extra=None):
    layer.zero_grad()
    out, x = _probe(x_data, upstream, lambda t: forward(layer, t), extra)
    grads = {name: p.grad for name, p in layer.named_parameters()}
    return {
        "out": out.data,
        "x.grad": x.grad,
        "last_head_output": layer.attn.last_head_output.data,
        "last_head_output.grad": layer.attn.last_head_output.grad,
        "last_hidden": layer.mlp.last_hidden.data,
        "last_hidden.grad": layer.mlp.last_hidden.grad,
        **{f"{name}.grad": g for name, g in grads.items()},
    }


def _compare(chained, fused):
    assert chained.keys() == fused.keys()
    for key in chained:
        assert _same(chained[key], fused[key]), key


def _hidden_loss(target):
    """Eq. 9's hidden-state term: a third consumer of the block input."""
    return lambda x: F.mse_loss(x, Tensor(target))


class TestFusedBlockEqualsChain:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("sliced", [False, True])
    @pytest.mark.parametrize("hidden_loss", [False, True])
    def test_forward_and_every_gradient(self, dtype, sliced, hidden_loss):
        rng = np.random.default_rng(7)
        with using_dtype(dtype):
            layer = TransformerEncoderLayer(EMBED, HEADS, rng=np.random.default_rng(3))
            if sliced:
                _sliced(layer)
            x = rng.normal(size=(BATCH, TOKENS, EMBED))
            upstream = rng.normal(size=(BATCH, TOKENS, EMBED))
            extra = _hidden_loss(rng.normal(size=x.shape)) if hidden_loss else None
            chained = _run(layer, chained_layer_forward, x, upstream, extra)
            fused = _run(layer, TransformerEncoderLayer.forward, x, upstream, extra)
        _compare(chained, fused)

    def test_float32_gradients_stay_float32(self):
        """GELU's constant is float32 under the float32 engine, so
        nothing below it promotes to float64."""
        rng = np.random.default_rng(1)
        layer = TransformerEncoderLayer(EMBED, HEADS, rng=np.random.default_rng(2))
        x = rng.normal(size=(BATCH, TOKENS, EMBED))
        fused = _run(layer, TransformerEncoderLayer.forward, x, np.ones_like(x))
        for key, value in fused.items():
            assert value.dtype == np.float32, key

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_encoder_with_hidden_state_losses(self, dtype):
        """Distillation's shape: a 3-layer stack whose every hidden state
        also feeds an MSE term, and one layer switched off."""
        rng = np.random.default_rng(5)
        with using_dtype(dtype):
            encoder = TransformerEncoder(3, EMBED, HEADS, rng=np.random.default_rng(9))
            encoder.layers[1].active = False
            encoder.layers[2].set_width(1, 5)
            x = rng.normal(size=(BATCH, TOKENS, EMBED))
            targets = [rng.normal(size=x.shape) for _ in range(2)]
            upstream = rng.normal(size=x.shape)

            def run(layer_forward):
                encoder.zero_grad()
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(TransformerEncoderLayer, "forward", layer_forward)
                    leaf = Tensor(x, requires_grad=True)
                    out, hidden = encoder(leaf * 1.0, collect_hidden=True)
                    loss = (out * Tensor(upstream)).sum()
                    for h, target in zip(hidden, targets):
                        loss = loss + F.mse_loss(h, Tensor(target))
                    loss.backward()
                return [out.data, leaf.grad] + [p.grad for p in encoder.parameters()]

            chained = run(chained_layer_forward)
            fused = run(TransformerEncoderLayer.forward)
        assert all(_same(a, b) for a, b in zip(chained, fused))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("sliced", [False, True])
    def test_tape_free_path_equals_the_chain(self, dtype, sliced):
        rng = np.random.default_rng(11)
        with using_dtype(dtype):
            layer = TransformerEncoderLayer(EMBED, HEADS, rng=np.random.default_rng(4))
            if sliced:
                _sliced(layer)
            x = Tensor(rng.normal(size=(BATCH, TOKENS, EMBED)))
            with no_grad():
                chained = chained_layer_forward(layer, x)
                layer.attn.last_head_output = layer.mlp.last_hidden = None
                fused = layer(x)
        assert _same(chained.data, fused.data)
        assert fused._backward is None and fused._parents == ()
        # Only a taped forward records Eq. 8's tensors.
        assert layer.attn.last_head_output is None and layer.mlp.last_hidden is None

    def test_no_parent_requiring_grad_takes_the_tape_free_path(self):
        layer = TransformerEncoderLayer(EMBED, HEADS, rng=np.random.default_rng(4))
        for p in layer.parameters():
            p.requires_grad = False
        out = layer(Tensor(np.ones((1, TOKENS, EMBED))))
        assert not out.requires_grad and out._backward is None
        assert layer.attn.last_head_output is None

    def test_inactive_layer_returns_its_input_object(self):
        layer = TransformerEncoderLayer(EMBED, HEADS, rng=np.random.default_rng(4))
        layer.active = False
        x = Tensor(np.ones((1, TOKENS, EMBED)), requires_grad=True)
        assert layer(x) is x

    def test_one_tape_node_per_block(self):
        """The block's tape parents are its input, then exactly
        ``parameters()`` in order, also after ``narrow``."""
        layer = TransformerEncoderLayer(EMBED, HEADS, rng=np.random.default_rng(4))
        x = Tensor(np.ones((1, TOKENS, EMBED)), requires_grad=True)

        def parents_are_input_then_parameters() -> bool:
            parents = layer(x)._parents
            return [id(p) for p in parents] == [id(p) for p in (x, *layer.parameters())]

        assert parents_are_input_then_parameters()
        _sliced(layer)
        layer.attn.narrow(layer.heads)
        layer.mlp.narrow(layer.neurons)
        assert parents_are_input_then_parameters()


class TestFusedAttentionEqualsChain:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("narrowed", [False, True])
    def test_forward_and_every_gradient(self, dtype, narrowed):
        rng = np.random.default_rng(21)
        with using_dtype(dtype):
            attn = MultiHeadSelfAttention(EMBED, HEADS, rng=np.random.default_rng(6))
            if narrowed:
                attn.narrow(3)
            x = rng.normal(size=(BATCH, TOKENS, EMBED))
            upstream = rng.normal(size=x.shape)
            runs = []
            for forward in (chained_attention_forward, MultiHeadSelfAttention.forward):
                attn.zero_grad()
                out, x_t = _probe(x, upstream, lambda t: forward(attn, t))
                runs.append(
                    [out.data, x_t.grad, attn.last_head_output.grad]
                    + [p.grad for p in attn.parameters()]
                )
        assert all(_same(a, b) for a, b in zip(*runs))
