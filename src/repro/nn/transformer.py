"""Transformer encoder blocks with maskable width and skippable depth.

The backbone of ACME's reference model θ0 is a stack of these blocks.  Two
structural degrees of freedom matter to the paper:

* **width** — attention heads and MLP hidden neurons can be masked off
  (``head_mask`` / ``neuron_mask``), realizing the width factor ``w``;
* **depth** — whole blocks can be deactivated (``active``), realizing the
  layer count ``d``.

Both are cheap boolean toggles, so the δ(θ0, w, d) transformation of §II-C
never rebuilds parameter tensors.

A block's forward is **one tape node**.  It runs LN → attention →
residual → LN → MLP (GELU, neuron mask) → residual as plain
numpy calls — the bodies of :mod:`repro.nn.functional`, in the order,
on the operand views and in the dtypes a chain of single-op nodes would
use — and keeps only the arrays its backward reads.  The hand-written
backward replays that chain's backward op for op and feeds the block
input its two contributions as two ``_accumulate`` calls, residual
first, so the block's gradients (and a third contribution such as
Eq. 9's hidden-state loss) sum exactly as the chain's did.  Under
``no_grad``, or when nothing requires grad, the same forward runs and
saves nothing.  The chained block lives on as the bit-exact oracle in
``tests/reference/encoder.py``.
"""

from __future__ import annotations

import numbers
from typing import List, Optional

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import LayerNorm, MLP, Module
from repro.nn.tensor import Tensor, _as_array, records


def check_depth(depth, limit: int) -> None:
    """Refuse a ``depth`` that is not an int in ``[1, limit]``.

    ``int`` and ``np.integer`` (a wire-decoded depth) pass; a float or a
    bool is refused rather than compared — ``2.7`` would keep 3 layers.
    """
    if isinstance(depth, bool) or not isinstance(depth, numbers.Integral):
        raise ValueError(f"depth must be an int, got {depth!r}")
    if not 1 <= depth <= limit:
        raise ValueError(f"depth must be in [1, {limit}], got {depth}")


class TransformerEncoderLayer(Module):
    """Pre-norm Transformer encoder block (LN → MHSA → LN → MLP)."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        mlp_ratio: float = 4.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_generator()
        hidden = int(embed_dim * mlp_ratio)
        self.norm1 = LayerNorm(embed_dim)
        self.attn = MultiHeadSelfAttention(embed_dim, num_heads, rng=rng)
        self.norm2 = LayerNorm(embed_dim)
        self.mlp = MLP(embed_dim, hidden, embed_dim, activation="gelu", rng=rng)
        rng.integers(2**31)  # the old dropout seed: later layers' init depends on it
        # Depth toggle: inactive layers pass input through untouched.
        self.active: bool = True

    def forward(self, x: Tensor) -> Tensor:
        if not self.active:
            return x
        params = tuple(self.parameters())
        if not records(x, *params):
            return Tensor(self._block(x.data, taped=False)[0])
        out, pullback = self._block(x.data, taped=True)

        def backward(grad: np.ndarray) -> None:
            residual, through_norm = pullback(grad)
            if x.requires_grad:
                x._accumulate(residual)
                x._accumulate(through_norm)

        return Tensor._make(out, (x,) + params, backward)

    def _block(self, x: np.ndarray, taped: bool):
        """``(out, pullback)`` of the block over the array ``x``.

        ``pullback(grad)`` returns the block input's two gradient
        contributions ``(residual, through norm1)`` after feeding every
        parameter, ``last_head_output`` and ``last_hidden``; it is
        ``None`` unless ``taped``.
        """
        norm1, norm2, mlp = self.norm1, self.norm2, self.mlp
        fc1, fc2 = mlp.fc1, mlp.fc2

        a, x_hat1, inv_std1 = F.layer_norm_forward(
            x, norm1.gamma.data, norm1.beta.data, norm1.eps
        )
        a = _as_array(a)
        h, attend_back = self.attn.attend(a, taped)
        x1 = _as_array(x + h)

        a2, x_hat2, inv_std2 = F.layer_norm_forward(
            x1, norm2.gamma.data, norm2.beta.data, norm2.eps
        )
        a2 = _as_array(a2)
        pre = _as_array(F.linear_forward(a2, fc1.weight.data, fc1.bias.data))
        hidden, tanh = F.gelu_forward(pre)
        hidden = _as_array(hidden)
        neurons = None
        if not mlp.neuron_mask.all():
            neurons = _as_array(mlp.neuron_mask.astype(float))
        fed = hidden if neurons is None else _as_array(hidden * neurons)
        m = _as_array(F.linear_forward(fed, fc2.weight.data, fc2.bias.data))
        out = x1 + m
        if not taped:
            return out, None

        recorded = mlp.last_hidden = Tensor(hidden)

        def pullback(grad: np.ndarray):
            g = F.linear_backward(grad, fed, fc2.weight, fc2.bias)
            if neurons is not None:
                g = g * neurons
            recorded._accumulate(g)
            g = F.gelu_backward(g, pre, tanh)
            g = F.linear_backward(g, a2, fc1.weight, fc1.bias)
            g_x1 = grad + F.layer_norm_backward(g, norm2.gamma, norm2.beta, x_hat2, inv_std2)
            g = attend_back(g_x1)
            return g_x1, F.layer_norm_backward(g, norm1.gamma, norm1.beta, x_hat1, inv_std1)

        return out, pullback


class TransformerEncoder(Module):
    """Stack of encoder layers with hidden-state capture for distillation.

    The distillation objective (Eq. 9) matches teacher and student hidden
    states; ``forward(..., collect_hidden=True)`` returns the per-layer
    outputs for that purpose.
    """

    def __init__(
        self,
        depth: int,
        embed_dim: int,
        num_heads: int,
        mlp_ratio: float = 4.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_generator()
        self.depth = depth
        self.layers: List[TransformerEncoderLayer] = []
        for i in range(depth):
            layer = TransformerEncoderLayer(
                embed_dim, num_heads, mlp_ratio=mlp_ratio, rng=rng
            )
            self.register_module(f"block{i}", layer)
            self.layers.append(layer)

    def active_depth(self) -> int:
        return sum(1 for layer in self.layers if layer.active)

    def set_active_depth(self, depth: int) -> None:
        """Keep the first ``depth`` blocks active; deactivate the rest."""
        check_depth(depth, self.depth)
        for i, layer in enumerate(self.layers):
            layer.active = i < depth

    def forward(self, x: Tensor, collect_hidden: bool = False):
        hidden: List[Tensor] = []
        for layer in self.layers:
            x = layer(x)
            if collect_hidden and layer.active:
                hidden.append(x)
        if collect_hidden:
            return x, hidden
        return x

    def penultimate_and_final(self, x: Tensor):
        """Outputs of the last two *active* layers (header inputs, Fig. 5)."""
        outputs: List[Tensor] = []
        for layer in self.layers:
            x = layer(x)
            if layer.active:
                outputs.append(x)
        if len(outputs) >= 2:
            return outputs[-2], outputs[-1]
        return outputs[-1], outputs[-1]
