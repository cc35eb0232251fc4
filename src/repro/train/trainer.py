"""Generic training loops for (backbone, header) models and baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader
from repro.models.headers import BackboneFeatures, Header
from repro.models.vit import VisionTransformer
from repro.nn import functional as F
from repro.nn.layers import Module
from repro.nn.optim import GRAD_CLIP, LR, Adam, clip_grad_norm
from repro.nn.tensor import Tensor


@dataclass
class TrainConfig:
    """Hyperparameters shared by the training helpers (every epoch
    visits the whole set; the learning rate and clip bound are
    :data:`~repro.nn.optim.LR` and :data:`~repro.nn.optim.GRAD_CLIP`)."""

    epochs: int = 3
    batch_size: int = 32
    seed: int = 0


@dataclass
class TrainReport:
    """Loss/accuracy trace of a training run."""

    epoch_losses: List[float] = field(default_factory=list)
    epoch_accuracies: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")

    @property
    def final_accuracy(self) -> float:
        return self.epoch_accuracies[-1] if self.epoch_accuracies else float("nan")


def _train_taped(
    forward: Callable[[np.ndarray], Tensor],
    params: List[Tensor],
    dataset: ArrayDataset,
    config: Optional[TrainConfig],
    after_step: Optional[Callable[[], None]] = None,
) -> TrainReport:
    """The taped mini-batch loop: ``forward(images) -> logits`` trains
    ``params``."""
    config = config or TrainConfig()
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(params, lr=LR)
    report = TrainReport()
    loader = DataLoader(dataset, batch_size=config.batch_size, shuffle=True, rng=rng)
    for _epoch in range(config.epochs):
        losses, correct, total = [], 0, 0
        for images, labels in loader:
            logits = forward(images)
            loss = F.cross_entropy(logits, labels)
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(optimizer.params, GRAD_CLIP)
            optimizer.step()
            if after_step is not None:
                after_step()
            losses.append(float(loss.data))
            correct += int((logits.data.argmax(axis=-1) == labels).sum())
            total += labels.shape[0]
        report.epoch_losses.append(float(np.mean(losses)) if losses else float("nan"))
        report.epoch_accuracies.append(correct / max(1, total))
    return report


def train_model(
    model: Module,
    dataset: ArrayDataset,
    config: Optional[TrainConfig] = None,
) -> TrainReport:
    """Train an end-to-end model (``forward(images) -> logits``)."""
    return _train_taped(
        lambda images: model(Tensor(images)), model.parameters(), dataset, config
    )


def train_header(
    backbone: VisionTransformer,
    header: Header,
    dataset: ArrayDataset,
    config: Optional[TrainConfig] = None,
    freeze_backbone: bool = True,
    features: Optional[BackboneFeatures] = None,
) -> TrainReport:
    """Train a header on top of a backbone.

    With ``freeze_backbone=True`` (the Phase 2-2 setting) this is the
    fleet of one: :func:`repro.train.fleet.train_headers_fleet` over
    ``[header]`` — backbone features are computed tape-free, so only
    header parameters receive gradients.

    ``features`` — the frozen backbone's precomputed features over
    ``dataset.images``, row-aligned — is a cache the caller owns across
    calls (:meth:`repro.distributed.device.DeviceNode.frozen_features`):
    every mini-batch is then a row gather, bit-identical to the forward
    it replaces.  Without it a frozen backbone is still swept once per
    call.
    """
    if freeze_backbone:
        from repro.train.fleet import train_headers_fleet  # lazy: fleet imports this module

        return train_headers_fleet(backbone, [header], [dataset], [config], [features])[0]
    if features is not None:
        raise ValueError("precomputed features require freeze_backbone=True")

    def forward(images: np.ndarray) -> Tensor:
        return header(BackboneFeatures(*backbone.forward_features_multi(Tensor(images))))

    # A taped backbone trains with the header — a different computation
    # from the frozen loop.
    return _train_taped(
        forward,
        header.parameters() + backbone.parameters(),
        dataset,
        config,
        after_step=getattr(header, "reapply_mask", None),
    )
