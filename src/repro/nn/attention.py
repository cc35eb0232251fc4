"""Multi-head self-attention with maskable heads.

ACME's backbone generation (§III-B1) ranks attention heads by first-order
Taylor importance and removes the least important ones.  To support this,
:class:`MultiHeadSelfAttention` keeps a boolean *head mask*: masked heads
contribute zero output but remain in the parameter tensors, so pruning is
reversible and importance can be re-estimated cheaply.  A taped forward
also records the per-head output tensor, which is exactly the ``O_h``
required by Eq. (8): ``I_h = |∂F/∂O_h · O_h|``; its backward writes the
gradient there.

A forward is **one tape node** over numpy (qkv projection → softmax
attention → head mask → output projection): :meth:`attend` runs the
bodies of :mod:`repro.nn.functional` and, when taped, returns the
pullback that replays the chained ops' backward op for op.  The encoder
block (:mod:`repro.nn.transformer`) calls the same :meth:`attend` inside
its own single node.  Untaped (``no_grad``, or nothing requires grad)
the forward saves and records nothing.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor, _as_array, records

#: ``grad → input grad`` of a taped numpy forward.
Pullback = Callable[[np.ndarray], np.ndarray]


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
        # Per-head outputs of the most recent taped forward (for Eq. 8).
        self.last_head_output: Optional[Tensor] = None

    def set_head_mask(self, mask: np.ndarray) -> None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_heads,):
            raise ValueError(f"head mask shape {mask.shape} != ({self.num_heads},)")
        self.head_mask = mask.copy()

    def forward(self, x: Tensor) -> Tensor:
        params = (self.qkv.weight, self.qkv.bias, self.proj.weight, self.proj.bias)
        if not records(x, *params):
            return Tensor(self.attend(x.data, taped=False)[0])
        out, pullback = self.attend(x.data, taped=True)

        def backward(grad: np.ndarray) -> None:
            gx = pullback(grad)
            if x.requires_grad:
                x._accumulate(gx)

        return Tensor._make(out, (x,) + params, backward)

    def attend(self, x: np.ndarray, taped: bool) -> Tuple[np.ndarray, Optional[Pullback]]:
        """``(out, pullback)`` of one attention pass over the array ``x``.

        ``pullback`` is ``None`` unless ``taped``; a taped pass also
        records :attr:`last_head_output`, whose grad the pullback writes.
        """
        n, t, d = x.shape
        h, hd = self.num_heads, self.head_dim
        qkv_w, qkv_b = self.qkv.weight, self.qkv.bias
        proj_w, proj_b = self.proj.weight, self.proj.bias

        qkv = _as_array(F.linear_forward(x, qkv_w.data, qkv_b.data))  # (N, T, 3D)
        split = qkv.reshape(n, t, 3, h, hd).transpose((2, 0, 3, 1, 4))  # (3, N, H, T, hd)
        q, k, v = split[0], split[1], split[2]
        scale = _as_array(1.0 / np.sqrt(hd))
        heads, attn = F.attention_forward(q, k, v, scale)  # (N, H, T, hd)
        mask = None
        if not self.head_mask.all():
            mask = _as_array(self.head_mask.astype(float).reshape(1, h, 1, 1))
        masked = heads if mask is None else _as_array(heads * mask)
        merged = masked.transpose((0, 2, 1, 3)).reshape(n, t, d)
        out = _as_array(F.linear_forward(merged, proj_w.data, proj_b.data))
        if not taped:
            return out, None

        recorded = self.last_head_output = Tensor(heads)

        def pullback(grad: np.ndarray) -> np.ndarray:
            g_merged = F.linear_backward(grad, merged, proj_w, proj_b)
            g_heads = np.ascontiguousarray(g_merged.reshape(n, t, h, hd).transpose((0, 2, 1, 3)))
            if mask is not None:
                g_heads = g_heads * mask
            recorded._accumulate(g_heads)
            gq, gk, gv = F.attention_backward(g_heads, q, k, v, attn, scale)
            # The chain's three index-views each scattered into zeros of
            # the split's dtype (casting) and summed: ``+= 0.0`` keeps its
            # signed-zero result.
            g_split = np.zeros_like(split)
            g_split[0], g_split[1], g_split[2] = gq, gk, gv
            g_split += 0.0
            g_qkv = g_split.transpose((1, 3, 0, 2, 4)).reshape(n, t, 3 * d)
            return F.linear_backward(g_qkv, x, qkv_w, qkv_b)

        return out, pullback
