"""Multi-head self-attention with maskable heads.

ACME's backbone generation (§III-B1) ranks attention heads by first-order
Taylor importance and removes the least important ones.  To support this,
:class:`MultiHeadSelfAttention` keeps a boolean *head mask*: masked heads
contribute zero output but remain in the parameter tensors, so pruning is
reversible and importance can be re-estimated cheaply.  It also exposes the
per-head output tensor of the last forward pass, which is exactly the
``O_h`` required by Eq. (8): ``I_h = |∂F/∂O_h · O_h|``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor


class MultiHeadSelfAttention(Module):
    """Standard pre-softmax-scaled multi-head self-attention.

    Parameters
    ----------
    embed_dim:
        Token embedding dimension.
    num_heads:
        Number of attention heads; must divide ``embed_dim``.
    rng:
        Random generator for weight initialization.
    """

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError(
                f"embed_dim {embed_dim} must be divisible by num_heads {num_heads}"
            )
        rng = rng if rng is not None else init.default_generator()
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.qkv = Linear(embed_dim, 3 * embed_dim, rng=rng)
        self.proj = Linear(embed_dim, embed_dim, rng=rng)
        # Boolean keep-mask over heads; plain numpy state, not trained.
        self.head_mask = np.ones(num_heads, dtype=bool)
        # Per-head outputs of the most recent forward pass (for Eq. 8).
        self.last_head_output: Optional[Tensor] = None

    def set_head_mask(self, mask: np.ndarray) -> None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_heads,):
            raise ValueError(f"head mask shape {mask.shape} != ({self.num_heads},)")
        self.head_mask = mask.copy()

    def forward(self, x: Tensor) -> Tensor:
        n, t, d = x.shape
        h, hd = self.num_heads, self.head_dim

        qkv = self.qkv(x)  # (N, T, 3D)
        qkv = qkv.reshape(n, t, 3, h, hd)
        qkv = qkv.transpose((2, 0, 3, 1, 4))  # (3, N, H, T, hd)
        q, k, v = qkv[0], qkv[1], qkv[2]

        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(hd))  # (N, H, T, T)
        attn = F.softmax(scores, axis=-1)
        heads = attn @ v  # (N, H, T, hd)

        # Record per-head output and apply the keep-mask.  The mask
        # multiplies the recorded tensor so that gradients w.r.t. O_h are
        # observable on ``last_head_output`` — Eq. (8) reads them directly.
        self.last_head_output = heads
        if not self.head_mask.all():
            mask = Tensor(self.head_mask.astype(float).reshape(1, h, 1, 1))
            heads = heads * mask

        merged = heads.transpose((0, 2, 1, 3)).reshape(n, t, d)
        return self.proj(merged)
