"""The chained encoder block: one tape node per op.

The Transformer block as ``src/`` ran it before the block became one
fused node (:mod:`repro.nn.transformer`): about 24 single-op nodes per
layer — layer norm, matmul + add per linear, reshape / transpose / index
views (the kept heads' and neurons' slices of the weights among them),
``q @ kᵀ``, a scalar multiply, softmax, ``attn @ v``, GELU and two
residual adds — each keeping its
output and its closure, each backward taking a private copy of its
gradient.  The formulas are frozen here (not imported from
``repro.nn.functional``), so the fused block's forward, every gradient
and the dtypes have an independent right-hand side to equal bit for
bit.

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


def chained_linear_forward(linear, x):
    """``Linear.forward`` as a matmul node and an add node."""
    flat = x.ndim == 1
    if flat:
        x = x.reshape(1, -1)
    out = x @ linear.weight
    if linear.bias is not None:
        out = out + linear.bias
    return out.reshape(-1) if flat else out


def chained_attention_forward(attn, x, heads=None):
    """``MultiHeadSelfAttention.forward`` as a dozen tape nodes, through
    the first ``heads`` heads (default: all)."""
    n, t, d = x.shape
    h = attn.num_heads if heads is None else heads
    hd = attn.head_dim
    qkv_w, qkv_b, proj_w = attn.qkv.weight, attn.qkv.bias, attn.proj.weight
    if h != attn.num_heads:
        kd = h * hd
        qkv_w = qkv_w.reshape(d, 3, -1)[:, :, :kd].reshape(d, 3 * kd)
        qkv_b = qkv_b.reshape(3, -1)[:, :kd].reshape(3 * kd)
        proj_w = proj_w[:kd]

    qkv = x @ qkv_w + qkv_b
    qkv = qkv.reshape(n, t, 3, h, hd)
    qkv = qkv.transpose((2, 0, 3, 1, 4))
    q, k, v = qkv[0], qkv[1], qkv[2]

    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(hd))
    out_heads = _softmax(scores, axis=-1) @ v
    attn.last_head_output = out_heads

    merged = out_heads.transpose((0, 2, 1, 3)).reshape(n, t, h * hd)
    return merged @ proj_w + attn.proj.bias


def chained_mlp_forward(mlp, x, neurons):
    fc1_w, fc1_b, fc2_w = mlp.fc1.weight, mlp.fc1.bias, mlp.fc2.weight
    if neurons != mlp.hidden_features:
        fc1_w, fc1_b, fc2_w = fc1_w[:, :neurons], fc1_b[:neurons], fc2_w[:neurons]
    hidden = _gelu(x @ fc1_w + fc1_b)
    mlp.last_hidden = hidden
    return hidden @ fc2_w + mlp.fc2.bias


def chained_layer_forward(layer, x):
    """``TransformerEncoderLayer.forward`` as the chain of single-op nodes."""
    if not layer.active:
        return x
    x = x + chained_attention_forward(layer.attn, _layer_norm(
        x, layer.norm1.gamma, layer.norm1.beta, layer.norm1.eps), layer.heads)
    x = x + chained_mlp_forward(layer.mlp, _layer_norm(
        x, layer.norm2.gamma, layer.norm2.beta, layer.norm2.eps), layer.neurons)
    return x
