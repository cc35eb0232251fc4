"""Multi-head self-attention whose width is a prefix of its heads.

ACME's backbone generation (§III-B1) ranks attention heads by first-order
Taylor importance and keeps the most important ones.  The backbone is
permuted once so that the heads run most important first
(:meth:`MultiHeadSelfAttention.reorder`); from then on the kept set at
any width is the first ``heads`` heads, and a forward at ``heads`` reads
only their columns of ``qkv`` and their rows of ``proj`` (:meth:`kept`).
A taped forward also records the per-head output tensor, which is
exactly the ``O_h`` required by Eq. (8): ``I_h = |∂F/∂O_h · O_h|``; its
backward writes the gradient there.

A forward is **one tape node** over numpy (qkv projection → softmax
attention → output projection): :meth:`attend` runs the bodies of
:mod:`repro.nn.functional` and, when taped, returns the pullback that
replays the chained ops' backward op for op.  The encoder block
(:mod:`repro.nn.transformer`) calls the same :meth:`attend` inside its
own single node.  Untaped (``no_grad``, or nothing requires grad) the
forward saves and records nothing.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.layers import Linear, Module, Part, permute
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
        # Per-head outputs of the most recent taped forward (for Eq. 8).
        self.last_head_output: Optional[Tensor] = None

    def kept(self, heads: int) -> Tuple:
        """``(qkv weight, qkv bias, proj weight)`` as a forward over the
        first ``heads`` heads reads them: the parameters at full width,
        else :class:`~repro.nn.layers.Part` s of q, k and v's first
        columns (copied into one matmul operand) and ``proj``'s rows."""
        if heads == self.num_heads:
            return self.qkv.weight, self.qkv.bias, self.proj.weight
        kd = heads * self.head_dim

        def columns(a: np.ndarray) -> np.ndarray:
            return a.reshape(a.shape[:-1] + (3, -1))[..., :kd]

        return (
            Part(self.qkv.weight, columns, (self.embed_dim, 3 * kd)),
            Part(self.qkv.bias, columns, (3 * kd,)),
            Part(self.proj.weight, lambda a: a[:kd]),
        )

    def reorder(self, order: np.ndarray) -> None:
        """Permute the heads into ``order`` (most important first): the
        same function, with the kept set at every width a prefix."""
        width = self.num_heads * self.head_dim
        columns = np.arange(width).reshape(self.num_heads, self.head_dim)[order].ravel()
        qkv_columns = np.concatenate([columns + j * width for j in range(3)])
        permute(self.qkv.weight, (slice(None), qkv_columns))
        permute(self.qkv.bias, qkv_columns)
        permute(self.proj.weight, columns)

    def narrow(self, heads: int) -> None:
        """Cut the parameters down to the first ``heads`` heads."""
        for param, part in zip((self.qkv.weight, self.qkv.bias, self.proj.weight), self.kept(heads)):
            if part is not param:
                param.data = np.array(part.data)
        self.num_heads = heads

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

    def attend(
        self, x: np.ndarray, taped: bool, heads: Optional[int] = None
    ) -> Tuple[np.ndarray, Optional[Pullback]]:
        """``(out, pullback)`` of one attention pass over the array ``x``
        through the first ``heads`` heads (default: all of them).

        ``pullback`` is ``None`` unless ``taped``; a taped pass also
        records :attr:`last_head_output`, whose grad the pullback writes.
        """
        n, t, _d = x.shape
        h, hd = self.num_heads if heads is None else heads, self.head_dim
        qkv_w, qkv_b, proj_w = self.kept(h)
        proj_b = self.proj.bias

        qkv = _as_array(F.linear_forward(x, qkv_w.data, qkv_b.data))  # (N, T, 3·h·hd)
        split = qkv.reshape(n, t, 3, h, hd).transpose((2, 0, 3, 1, 4))  # (3, N, h, T, hd)
        q, k, v = split[0], split[1], split[2]
        scale = _as_array(1.0 / np.sqrt(hd))
        out_heads, attn = F.attention_forward(q, k, v, scale)  # (N, h, T, hd)
        merged = out_heads.transpose((0, 2, 1, 3)).reshape(n, t, h * hd)
        out = _as_array(F.linear_forward(merged, proj_w.data, proj_b.data))
        if not taped:
            return out, None

        recorded = self.last_head_output = Tensor(out_heads)

        def pullback(grad: np.ndarray) -> np.ndarray:
            g_merged = F.linear_backward(grad, merged, proj_w, proj_b)
            g_heads = np.ascontiguousarray(g_merged.reshape(n, t, h, hd).transpose((0, 2, 1, 3)))
            recorded._accumulate(g_heads)
            gq, gk, gv = F.attention_backward(g_heads, q, k, v, attn, scale)
            # The chain's three index-views each scattered into zeros of
            # the split's dtype (casting) and summed: ``+= 0.0`` keeps its
            # signed-zero result.
            g_split = np.zeros_like(split)
            g_split[0], g_split[1], g_split[2] = gq, gk, gv
            g_split += 0.0
            g_qkv = g_split.transpose((1, 3, 0, 2, 4)).reshape(n, t, 3 * h * hd)
            return F.linear_backward(g_qkv, x, qkv_w, qkv_b)

        return out, pullback
