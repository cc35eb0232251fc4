"""BERT-style text backbone with the same δ(θ0, w, d) scalability.

Demonstrates the paper's claim that ACME "can serve different
Transformer-based models": the encoder, width masking (heads + MLP
neurons), depth toggling, importance ordering and ζ accounting are all the
*same machinery* as the ViT backbone — only the embedding front-end
changes (token + position embeddings with a [CLS] slot instead of patch
projection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.nn import init
from repro.nn.layers import LayerNorm, Linear, Module, Parameter
from repro.nn.tensor import Tensor, concatenate
from repro.nn.transformer import TransformerEncoder


@dataclass(frozen=True)
class TextConfig:
    """Architecture of the reference text backbone."""

    vocab_size: int = 64
    seq_len: int = 16
    embed_dim: int = 32
    depth: int = 4
    num_heads: int = 4
    mlp_ratio: float = 2.0
    num_classes: int = 8

    def __post_init__(self) -> None:
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("num_heads must divide embed_dim")

    @property
    def mlp_hidden(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)

    @property
    def head_params(self) -> int:
        d = self.embed_dim
        return 4 * d * d + 4 * d

    def zeta(self, width: float, depth: int) -> float:
        """The same ζ(θ) = d·w·(H + 2·ξ_h·ξ_f) size model as the ViT."""
        if not 0.0 < width <= 1.0:
            raise ValueError(f"width must be in (0, 1], got {width}")
        if not 1 <= depth <= self.depth:
            raise ValueError(f"depth must be in [1, {self.depth}], got {depth}")
        return depth * width * (self.head_params + 2 * self.embed_dim * self.mlp_hidden)


# reprolint: unreached -- deferred deletion (no paper anchor): the whole module goes with
# data/synthetic_text.py, nn.layers.Embedding, nn.lstm.LSTM and tests/models/test_text.py (14
# tests)
class TextTransformer(Module):
    """Token-classification Transformer: embeddings → encoder → CLS head."""

    def __init__(self, config: TextConfig, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = config
        self.token_embed = Parameter(
            init.truncated_normal((config.vocab_size, config.embed_dim), rng)
        )
        self.cls_token = Parameter(init.truncated_normal((1, 1, config.embed_dim), rng))
        self.pos_embed = Parameter(
            init.truncated_normal((1, config.seq_len + 1, config.embed_dim), rng)
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
        self._head_orders: List[np.ndarray] = [
            np.arange(config.num_heads) for _ in range(config.depth)
        ]
        self._neuron_orders: List[np.ndarray] = [
            np.arange(config.mlp_hidden) for _ in range(config.depth)
        ]
        self.width: float = 1.0

    # -- δ(θ0, w, d), identical contract to the ViT ---------------------
    def set_importance_orders(self, head_orders=None, neuron_orders=None) -> None:
        if head_orders is not None:
            if len(head_orders) != self.config.depth:
                raise ValueError("need one head order per layer")
            self._head_orders = [np.asarray(o, dtype=np.int64) for o in head_orders]
        if neuron_orders is not None:
            if len(neuron_orders) != self.config.depth:
                raise ValueError("need one neuron order per layer")
            self._neuron_orders = [np.asarray(o, dtype=np.int64) for o in neuron_orders]

    def set_width(self, width: float) -> None:
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
        self.encoder.set_active_depth(depth)

    def scale(self, width: float, depth: int) -> "TextTransformer":
        self.set_width(width)
        self.set_depth(depth)
        return self

    @property
    def depth(self) -> int:
        return self.encoder.active_depth()

    def zeta(self) -> float:
        return self.config.zeta(self.width, self.depth)

    # -- forward ---------------------------------------------------------
    def _embed(self, tokens: np.ndarray) -> Tensor:
        tokens = np.asarray(tokens, dtype=np.int64)
        n = tokens.shape[0]
        embedded = self.token_embed[tokens]  # (N, T, D)
        cls = self.cls_token + Tensor(np.zeros((n, 1, self.config.embed_dim)))
        seq = concatenate([cls, embedded], axis=1)
        return seq + self.pos_embed

    def forward_features(self, tokens: np.ndarray) -> Tuple[Tensor, Tensor]:
        x = self.encoder(self._embed(tokens))
        x = self.norm(x)
        return x[:, 0, :], x[:, 1:, :]

    def forward(self, tokens: np.ndarray) -> Tensor:
        cls, _seq = self.forward_features(tokens)
        return self.head(cls)
