"""The chained encoder block: one tape node per op.

The Transformer block as ``src/`` ran it before the block became one
fused node (:mod:`repro.nn.transformer`): about 24 single-op nodes per
layer — layer norm, matmul + add per linear, reshape / transpose / index
views, ``q @ kᵀ``, a scalar multiply, softmax, ``attn @ v``, the mask
multiplies, GELU, dropout and two residual adds — each keeping its
output and its closure, each backward taking a private copy of its
gradient.  The formulas are frozen here (not imported from
``repro.nn.functional``), so the fused block's forward, every gradient,
the dtypes and the dropout RNG draws have an independent right-hand
side to equal bit for bit.

Install it with ``monkeypatch.setattr(TransformerEncoderLayer, "forward",
chained_layer_forward)`` (and likewise ``chained_attention_forward`` /
``chained_linear_forward`` for :class:`MultiHeadSelfAttention` /
:class:`Linear`) to run a whole system on the chain.
"""

import numpy as np

from repro.nn.tensor import Tensor, _pow


def _layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mu) * inv_std
    out_data = x_hat * gamma.data + beta.data

    def backward(grad):
        if gamma.requires_grad:
            axes = tuple(range(grad.ndim - 1))
            gamma._accumulate((grad * x_hat).sum(axis=axes))
        if beta.requires_grad:
            axes = tuple(range(grad.ndim - 1))
            beta._accumulate(grad.sum(axis=axes))
        if x.requires_grad:
            g = grad * gamma.data
            gx = (
                g - g.mean(axis=-1, keepdims=True)
                - x_hat * (g * x_hat).mean(axis=-1, keepdims=True)
            ) * inv_std
            x._accumulate(gx)

    return Tensor._make(out_data, (x, gamma, beta), backward)


def _softmax(x, axis=-1):
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad):
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward)


def _gelu(x):
    data = x.data
    c = data.dtype.type(np.sqrt(2.0 / np.pi))
    inner = c * (data + 0.044715 * _pow(data, 3))
    t = np.tanh(inner)
    out_data = 0.5 * data * (1.0 + t)

    def backward(grad):
        dinner = c * (1.0 + 3 * 0.044715 * _pow(data, 2))
        local = 0.5 * (1.0 + t) + 0.5 * data * (1.0 - t * t) * dinner
        x._accumulate(grad * local)

    return Tensor._make(out_data, (x,), backward)


def _dropout(drop, x):
    if not drop.training or drop.p <= 0.0:
        return x
    mask = (drop._rng.random(x.shape) >= drop.p).astype(x.dtype)
    mask *= 1.0 / (1.0 - drop.p)
    out_data = x.data * mask

    def backward(grad):
        x._accumulate(grad * mask)

    return Tensor._make(out_data, (x,), backward)


def chained_linear_forward(linear, x):
    """``Linear.forward`` as a matmul node and an add node."""
    flat = x.ndim == 1
    if flat:
        x = x.reshape(1, -1)
    out = x @ linear.weight
    if linear.bias is not None:
        out = out + linear.bias
    return out.reshape(-1) if flat else out


def chained_attention_forward(attn, x):
    """``MultiHeadSelfAttention.forward`` as a dozen tape nodes."""
    n, t, d = x.shape
    h, hd = attn.num_heads, attn.head_dim

    qkv = chained_linear_forward(attn.qkv, x)
    qkv = qkv.reshape(n, t, 3, h, hd)
    qkv = qkv.transpose((2, 0, 3, 1, 4))
    q, k, v = qkv[0], qkv[1], qkv[2]

    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(hd))
    heads = _softmax(scores, axis=-1) @ v

    attn.last_head_output = heads
    if not attn.head_mask.all():
        mask = Tensor(attn.head_mask.astype(float).reshape(1, h, 1, 1))
        heads = heads * mask

    merged = heads.transpose((0, 2, 1, 3)).reshape(n, t, d)
    return chained_linear_forward(attn.proj, merged)


def chained_mlp_forward(mlp, x):
    hidden = _gelu(chained_linear_forward(mlp.fc1, x))
    mlp.last_hidden = hidden
    if not mlp.neuron_mask.all():
        hidden = hidden * Tensor(mlp.neuron_mask.astype(float))
    return chained_linear_forward(mlp.fc2, hidden)


def chained_layer_forward(layer, x):
    """``TransformerEncoderLayer.forward`` as the chain of single-op nodes."""
    if not layer.active:
        return x
    x = x + _dropout(layer.drop, chained_attention_forward(layer.attn, _layer_norm(
        x, layer.norm1.gamma, layer.norm1.beta, layer.norm1.eps)))
    x = x + _dropout(layer.drop, chained_mlp_forward(layer.mlp, _layer_norm(
        x, layer.norm2.gamma, layer.norm2.beta, layer.norm2.eps)))
    return x
