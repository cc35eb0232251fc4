"""Fixed (hand-designed) header architectures.

These are the comparison points for ACME's NAS-generated headers: the
multi-exit header designs of Bakhtiarnia et al. ("Multi-exit vision
transformer for dynamic inference", BMVC 2021) referenced by the paper in
Fig. 7(b)/8/13(b).  Every header consumes :class:`BackboneFeatures` and
emits class logits, so headers and backbones compose freely.
"""

from __future__ import annotations

import math
from typing import Final, NamedTuple, Optional

import numpy as np

from repro.nn import init
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.conv import AvgPool2d, Conv2d, GlobalAvgPool2d
from repro.nn.layers import Activation, LayerNorm, Linear, Module, Sequential
from repro.nn.tensor import Tensor, concatenate, no_grad


class BackboneFeatures(NamedTuple):
    """Everything a header may consume from the backbone.

    Attributes
    ----------
    cls:
        Normalized CLS embedding, shape ``(N, D)``.
    tokens:
        Final-layer patch tokens, shape ``(N, T, D)``.
    penultimate:
        Patch tokens from the penultimate active layer, shape ``(N, T, D)``.
    """

    cls: Tensor
    tokens: Tensor
    penultimate: Tensor

    @property
    def grid_size(self) -> int:
        t = self.tokens.shape[1]
        g = int(round(math.sqrt(t)))
        if g * g != t:
            raise ValueError(f"token count {t} is not a square grid")
        return g

    def tokens_as_map(self, source: str = "final") -> Tensor:
        """Reshape patch tokens into a ``(N, D, g, g)`` feature map."""
        tokens = self.tokens if source == "final" else self.penultimate
        n, t, d = tokens.shape
        g = self.grid_size
        return tokens.transpose((0, 2, 1)).reshape(n, d, g, g)


def gather_features(features: BackboneFeatures, indices: np.ndarray) -> BackboneFeatures:
    """Row-gather a precomputed feature cache into a mini-batch view."""
    return BackboneFeatures(
        Tensor(features.cls.data[indices]),
        Tensor(features.tokens.data[indices]),
        Tensor(features.penultimate.data[indices]),
    )


def frozen_batch_features(
    backbone: Module, batch: np.ndarray, features: Optional[BackboneFeatures] = None
) -> BackboneFeatures:
    """One mini-batch's features from a frozen backbone.

    With ``features`` (the backbone's precomputed features over the
    loader's dataset) ``batch`` is the loader's row indices and this is
    a gather; without, ``batch`` is the images and this is a tape-free
    forward.  Bit-identical either way: the kernels are row-independent.
    """
    if features is not None:
        return gather_features(features, batch)
    with no_grad():
        return BackboneFeatures(*backbone.forward_features_multi(Tensor(batch)))


class Header(Module):
    """Base class marking modules usable as model headers."""

    def forward(self, features: BackboneFeatures) -> Tensor:
        raise NotImplementedError


class LinearHeader(Header):
    """The reference θH_0: a single linear probe on the CLS token."""

    def __init__(
        self,
        embed_dim: int,
        num_patches: int,
        num_classes: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_generator()
        self.fc = Linear(embed_dim, num_classes, rng=rng)

    def forward(self, features: BackboneFeatures) -> Tensor:
        return self.fc(features.cls)


class MLPHeader(Header):
    """Two-layer MLP on the CLS token."""

    def __init__(
        self,
        embed_dim: int,
        num_patches: int,
        num_classes: int,
        hidden: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_generator()
        hidden = hidden or 2 * embed_dim
        self.net = Sequential(
            Linear(embed_dim, hidden, rng=rng),
            Activation("gelu"),
            Linear(hidden, num_classes, rng=rng),
        )

    def forward(self, features: BackboneFeatures) -> Tensor:
        return self.net(features.cls)


class PoolHeader(Header):
    """Global average pool over patch tokens, then linear."""

    def __init__(
        self,
        embed_dim: int,
        num_patches: int,
        num_classes: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_generator()
        self.fc = Linear(embed_dim, num_classes, rng=rng)

    def forward(self, features: BackboneFeatures) -> Tensor:
        pooled = features.tokens.mean(axis=1)
        return self.fc(pooled)


class CNNHeader(Header):
    """Convolutional header over the token grid (local-feature extractor).

    3×3 conv → GELU → pool → 3×3 conv → global pool → linear; the design
    follows the CNN exit heads used in multi-exit ViT work.
    """

    def __init__(
        self,
        embed_dim: int,
        num_patches: int,
        num_classes: int,
        channels: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_generator()
        channels = channels or embed_dim
        self.conv1 = Conv2d(embed_dim, channels, 3, padding=1, rng=rng)
        self.act = Activation("gelu")
        self.conv2 = Conv2d(channels, channels, 3, padding=1, rng=rng)
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(channels, num_classes, rng=rng)

    def forward(self, features: BackboneFeatures) -> Tensor:
        x = features.tokens_as_map()
        x = self.act(self.conv1(x))
        x = self.act(self.conv2(x))
        return self.fc(self.pool(x))


class CNNEnsembleHeader(Header):
    """Two parallel conv paths (3×3 and 5×5) fused by addition."""

    def __init__(
        self,
        embed_dim: int,
        num_patches: int,
        num_classes: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_generator()
        self.path_a = Conv2d(embed_dim, embed_dim, 3, padding=1, rng=rng)
        self.path_b = Conv2d(embed_dim, embed_dim, 5, padding=2, rng=rng)
        self.act = Activation("gelu")
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(embed_dim, num_classes, rng=rng)

    def forward(self, features: BackboneFeatures) -> Tensor:
        x = features.tokens_as_map()
        fused = self.act(self.path_a(x) + self.path_b(x))
        return self.fc(self.pool(fused))


class AttentionHeader(Header):
    """A single extra self-attention layer over tokens, then CLS probe.

    This mirrors the "single-layer vision transformer" exit head of
    Bakhtiarnia et al. (2022).
    """

    def __init__(
        self,
        embed_dim: int,
        num_patches: int,
        num_classes: int,
        num_heads: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_generator()
        self.norm = LayerNorm(embed_dim)
        self.attn = MultiHeadSelfAttention(embed_dim, num_heads, rng=rng)
        self.fc = Linear(embed_dim, num_classes, rng=rng)

    def forward(self, features: BackboneFeatures) -> Tensor:
        n, _t, d = features.tokens.shape
        cls = features.cls.reshape(n, 1, d)
        seq = concatenate([cls, features.tokens], axis=1)
        seq = seq + self.attn(self.norm(seq))
        return self.fc(seq[:, 0, :])


class HybridHeader(Header):
    """CLS token concatenated with pooled patch tokens, then MLP."""

    def __init__(
        self,
        embed_dim: int,
        num_patches: int,
        num_classes: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_generator()
        self.net = Sequential(
            Linear(2 * embed_dim, embed_dim, rng=rng),
            Activation("gelu"),
            Linear(embed_dim, num_classes, rng=rng),
        )

    def forward(self, features: BackboneFeatures) -> Tensor:
        pooled = features.tokens.mean(axis=1)
        return self.net(concatenate([features.cls, pooled], axis=1))


#: The fixed header designs compared against NAS headers in Fig. 7(b):
#: the paper evaluates four of Bakhtiarnia et al.'s designs.
FIXED_HEADERS: Final = {
    "linear": LinearHeader,
    "mlp": MLPHeader,
    "pool": PoolHeader,
    "cnn": CNNHeader,
    "cnn_ensemble": CNNEnsembleHeader,
    "attention": AttentionHeader,
    "hybrid": HybridHeader,
}


def build_fixed_header(
    kind: str,
    embed_dim: int,
    num_patches: int,
    num_classes: int,
    rng: Optional[np.random.Generator] = None,
) -> Header:
    """Instantiate one of the named fixed header designs."""
    if kind not in FIXED_HEADERS:
        raise ValueError(f"unknown header {kind!r}; options: {sorted(FIXED_HEADERS)}")
    return FIXED_HEADERS[kind](embed_dim, num_patches, num_classes, rng=rng)
