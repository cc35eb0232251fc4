"""The masked backbone: width as keep-masks over full-size tensors.

Before the backbone was permuted by importance, δ(θ0, w, d) kept every
parameter and zeroed the dropped heads' outputs and hidden neurons'
activations with boolean masks chosen by the importance orders, so a
forward at any width did full-width work.  This is that forward, chained
from ``tests/reference/encoder.py``'s single-op nodes.  A sliced model
must equal it at tolerance: dropping the masked terms (exact zeros) and
permuting the rows of ``proj`` / ``fc2`` change the BLAS summation
order, and nothing else.
"""

import numpy as np

from repro.nn.tensor import Tensor
from tests.reference.encoder import _gelu, _layer_norm, _softmax


def keep_masks(size: int, kept: int, order=None) -> np.ndarray:
    """Boolean mask over ``size`` units keeping ``order[:kept]`` (the
    first ``kept`` units when no order is given)."""
    order = np.arange(size) if order is None else np.asarray(order)
    mask = np.zeros(size, dtype=bool)
    mask[order[:kept]] = True
    return mask


def masked_attention(attn, x, mask):
    n, t, d = x.shape
    h, hd = attn.num_heads, attn.head_dim
    qkv = (x @ attn.qkv.weight + attn.qkv.bias).reshape(n, t, 3, h, hd)
    qkv = qkv.transpose((2, 0, 3, 1, 4))
    q, k, v = qkv[0], qkv[1], qkv[2]
    heads = _softmax((q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(hd)), axis=-1) @ v
    heads = heads * Tensor(mask.astype(float).reshape(1, h, 1, 1))
    merged = heads.transpose((0, 2, 1, 3)).reshape(n, t, d)
    return merged @ attn.proj.weight + attn.proj.bias


def masked_mlp(mlp, x, mask):
    hidden = _gelu(x @ mlp.fc1.weight + mlp.fc1.bias)
    hidden = hidden * Tensor(mask.astype(float))
    return hidden @ mlp.fc2.weight + mlp.fc2.bias


def masked_logits(model, images, width, depth, head_orders=None, neuron_orders=None):
    """Logits of ``model``'s (w, d) sub-network by masking: per block the
    top-w heads and neurons of ``head_orders`` / ``neuron_orders`` (the
    first ones when not given), the first ``depth`` blocks.  ``model``
    must be full size; its own (w, d) scale is not read."""
    cfg = model.config
    heads = max(1, int(round(width * cfg.num_heads)))
    neurons = max(1, int(round(width * cfg.mlp_hidden)))
    x = model._embed(Tensor(images))
    for i, layer in enumerate(model.encoder.layers[:depth]):
        head_mask = keep_masks(cfg.num_heads, heads, head_orders and head_orders[i])
        neuron_mask = keep_masks(cfg.mlp_hidden, neurons, neuron_orders and neuron_orders[i])
        x = x + masked_attention(layer.attn, _layer_norm(
            x, layer.norm1.gamma, layer.norm1.beta, layer.norm1.eps), head_mask)
        x = x + masked_mlp(layer.mlp, _layer_norm(
            x, layer.norm2.gamma, layer.norm2.beta, layer.norm2.eps), neuron_mask)
    return model.head(model.norm(x)[:, 0, :])
