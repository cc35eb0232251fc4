"""Width/depth-scalable Vision Transformer (the reference model θ0).

The paper parameterizes every candidate backbone relative to a reference
model via the transformation ``θB_n = δ(θB_0, w, d)`` where ``w ∈ (0, 1]``
scales width (attention heads + MLP neurons, DynaBERT-style) and ``d``
counts active Transformer layers (§II-C).  :class:`VisionTransformer`
implements δ as cheap boolean masking, and ``zeta`` implements the
paper's parameter-count model ζ(θ) = d·w·(H + 2·ξ_h·ξ_f) (Eq. 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.layers import LayerNorm, Linear, Module, Parameter
from repro.nn.tensor import Tensor, concatenate
from repro.nn.transformer import TransformerEncoder, check_depth

#: Colour channels of every input image (RGB).
CHANNELS = 3


@dataclass(frozen=True)
class ViTConfig:
    """Architecture hyperparameters of the reference backbone θ0.

    Defaults are a scaled-down ViT sized for CPU training; the structure
    (patch embedding, CLS token, learned positions, pre-norm encoder) matches
    ViT-B exactly.
    """

    image_size: int = 16
    patch_size: int = 4
    embed_dim: int = 32
    depth: int = 6
    num_heads: int = 4
    mlp_ratio: float = 2.0
    num_classes: int = 20

    def __post_init__(self) -> None:
        if self.image_size % self.patch_size != 0:
            raise ValueError("patch_size must divide image_size")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("num_heads must divide embed_dim")

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def mlp_hidden(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)

    @property
    def head_params(self) -> int:
        """``H`` — attention parameters per layer (QKV + output projection)."""
        d = self.embed_dim
        return 4 * d * d + 4 * d  # three input projections + output, with biases

    def zeta(self, width: float, depth: int) -> float:
        """ζ(θ) = d·w·(H + 2·ξ_h·ξ_f) — the paper's size model (Eq. 3)."""
        if not 0.0 < width <= 1.0:
            raise ValueError(f"width must be in (0, 1], got {width}")
        check_depth(depth, self.depth)
        return depth * width * (self.head_params + 2 * self.embed_dim * self.mlp_hidden)


class PatchEmbedding(Module):
    """Split an image into non-overlapping patches and embed them linearly."""

    def __init__(self, config: ViTConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        patch_dim = CHANNELS * config.patch_size**2
        self.proj = Linear(patch_dim, config.embed_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        cfg = self.config
        n = x.shape[0]
        p = cfg.patch_size
        grid = cfg.image_size // p
        x = x.reshape(n, CHANNELS, grid, p, grid, p)
        x = x.transpose((0, 2, 4, 1, 3, 5))
        x = x.reshape(n, grid * grid, CHANNELS * p * p)
        return self.proj(x)


class VisionTransformer(Module):
    """The reference model θ0 = (θB_0, θH_0): scalable backbone + header.

    The backbone is a pre-norm Transformer encoder with maskable heads and
    MLP neurons; the reference header θH_0 is the classic LayerNorm + Linear
    on the CLS token.  The header can be *replaced* by any module exposing
    ``forward(features) -> logits``; ACME swaps in NAS-generated DAG headers
    (see :mod:`repro.models.header_dag`).
    """

    def __init__(self, config: ViTConfig, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = config
        self.patch_embed = PatchEmbedding(config, rng)
        self.cls_token = Parameter(init.truncated_normal((1, 1, config.embed_dim), rng))
        self.pos_embed = Parameter(
            init.truncated_normal((1, config.num_patches + 1, config.embed_dim), rng)
        )
        self.encoder = TransformerEncoder(
            depth=config.depth,
            embed_dim=config.embed_dim,
            num_heads=config.num_heads,
            mlp_ratio=config.mlp_ratio,
            rng=rng,
        )
        self.norm = LayerNorm(config.embed_dim)
        self.head = Linear(config.embed_dim, config.num_classes, rng=rng)
        # Importance-derived keep orders (most→least important); default is
        # positional order until Phase 1 computes real importances.
        self._head_orders: List[np.ndarray] = [
            np.arange(config.num_heads) for _ in range(config.depth)
        ]
        self._neuron_orders: List[np.ndarray] = [
            np.arange(config.mlp_hidden) for _ in range(config.depth)
        ]
        self.width: float = 1.0

    # ------------------------------------------------------------------
    # δ(θ0, w, d): width & depth control
    # ------------------------------------------------------------------
    def set_importance_orders(
        self,
        head_orders: Optional[List[np.ndarray]] = None,
        neuron_orders: Optional[List[np.ndarray]] = None,
    ) -> None:
        """Install per-layer rankings (most important first) for pruning."""
        if head_orders is not None:
            if len(head_orders) != self.config.depth:
                raise ValueError("need one head order per layer")
            self._head_orders = [np.asarray(o, dtype=np.int64) for o in head_orders]
        if neuron_orders is not None:
            if len(neuron_orders) != self.config.depth:
                raise ValueError("need one neuron order per layer")
            self._neuron_orders = [np.asarray(o, dtype=np.int64) for o in neuron_orders]

    def set_width(self, width: float) -> None:
        """Apply the width factor ``w``: keep the top-w fraction of heads
        and MLP neurons per layer, by importance order."""
        if not 0.0 < width <= 1.0:
            raise ValueError(f"width must be in (0, 1], got {width}")
        cfg = self.config
        keep_heads = max(1, int(round(width * cfg.num_heads)))
        keep_neurons = max(1, int(round(width * cfg.mlp_hidden)))
        for i, layer in enumerate(self.encoder.layers):
            head_mask = np.zeros(cfg.num_heads, dtype=bool)
            head_mask[self._head_orders[i][:keep_heads]] = True
            layer.attn.set_head_mask(head_mask)
            neuron_mask = np.zeros(cfg.mlp_hidden, dtype=bool)
            neuron_mask[self._neuron_orders[i][:keep_neurons]] = True
            layer.mlp.set_neuron_mask(neuron_mask)
        self.width = width

    def set_depth(self, depth: int) -> None:
        """Apply the depth ``d``: keep the first ``d`` encoder layers."""
        self.encoder.set_active_depth(depth)

    def scale(self, width: float, depth: int) -> "VisionTransformer":
        """In-place δ(θ0, w, d); returns self for chaining."""
        check_depth(depth, self.config.depth)  # before any mask changes
        self.set_width(width)
        self.set_depth(depth)
        return self

    @property
    def depth(self) -> int:
        return self.encoder.active_depth()

    def zeta(self) -> float:
        """Current ζ(θ) under the active (w, d)."""
        return self.config.zeta(self.width, self.depth)

    # ------------------------------------------------------------------
    # Forward passes
    # ------------------------------------------------------------------
    def _embed(self, images: Tensor) -> Tensor:
        if not isinstance(images, Tensor):
            images = Tensor(images)
        tokens = self.patch_embed(images)
        n = tokens.shape[0]
        cls = self.cls_token + Tensor(np.zeros((n, 1, self.config.embed_dim)))
        tokens = concatenate([cls, tokens], axis=1)
        return tokens + self.pos_embed

    def forward_features(self, images: Tensor) -> Tuple[Tensor, Tensor]:
        """Backbone only: returns ``(cls_embedding, patch_tokens)``.

        ``cls_embedding`` is the normalized CLS vector ``(N, D)``;
        ``patch_tokens`` are the normalized patch tokens ``(N, T, D)``.
        """
        x = self.encoder(self._embed(images))
        x = self.norm(x)
        return x[:, 0, :], x[:, 1:, :]

    def forward_features_multi(self, images: Tensor):
        """Backbone features plus the penultimate layer's patch tokens.

        The NAS header search space (Fig. 5) feeds headers from both the
        final and penultimate Transformer layers.
        """
        penult, final = self.encoder.penultimate_and_final(self._embed(images))
        final = self.norm(final)
        return final[:, 0, :], final[:, 1:, :], penult[:, 1:, :]

    def forward(self, images: Tensor) -> Tensor:
        cls, _tokens = self.forward_features(images)
        return self.head(cls)

    def forward_depth_prefixes(self, images: Tensor, depths: Sequence[int]) -> List[Tensor]:
        """Logits of the depth-``d`` sub-model for every ``d`` in ``depths``.

        δ keeps the *first* ``d`` layers (§II-C), so at one width the
        depth-``d`` hidden state is a prefix of any deeper one: a single
        encoder pass at the current scale serves every depth up to the
        active one, each bit-identical to ``scale(width, d)`` followed by
        :meth:`forward`.
        """
        _final, hidden = self.encoder(self._embed(images), collect_hidden=True)
        return [self.head(self.norm(hidden[d - 1])[:, 0, :]) for d in depths]
