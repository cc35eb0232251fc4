"""Generic training loops for (backbone, header) models and baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader
from repro.models.header_dag import DAGHeader
from repro.models.headers import BackboneFeatures, Header, frozen_batch_features
from repro.models.vit import VisionTransformer
from repro.nn import functional as F
from repro.nn.layers import Module, has_active_stochastic_modules
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor


@dataclass
class TrainConfig:
    """Hyperparameters shared by the training helpers."""

    epochs: int = 3
    batch_size: int = 32
    lr: float = 1e-3
    grad_clip: float = 5.0
    max_batches_per_epoch: Optional[int] = None
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


def train_model(
    model: Module,
    dataset: ArrayDataset,
    config: Optional[TrainConfig] = None,
) -> TrainReport:
    """Train an end-to-end model (``forward(images) -> logits``)."""
    config = config or TrainConfig()
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.parameters(), lr=config.lr)
    report = TrainReport()
    loader = DataLoader(dataset, batch_size=config.batch_size, shuffle=True, rng=rng)

    model.train()
    for _epoch in range(config.epochs):
        losses, correct, total = [], 0, 0
        for batch_idx, (images, labels) in enumerate(loader):
            if (
                config.max_batches_per_epoch is not None
                and batch_idx >= config.max_batches_per_epoch
            ):
                break
            logits = model(Tensor(images))
            loss = F.cross_entropy(logits, labels)
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(optimizer.params, config.grad_clip)
            optimizer.step()
            losses.append(float(loss.data))
            correct += int((logits.data.argmax(axis=-1) == labels).sum())
            total += labels.shape[0]
        report.epoch_losses.append(float(np.mean(losses)) if losses else float("nan"))
        report.epoch_accuracies.append(correct / max(1, total))
    model.eval()
    return report


def train_header(
    backbone: VisionTransformer,
    header: Header,
    dataset: ArrayDataset,
    config: Optional[TrainConfig] = None,
    freeze_backbone: bool = True,
    features: Optional[BackboneFeatures] = None,
) -> TrainReport:
    """Train a header on top of a backbone.

    With ``freeze_backbone=True`` (the Phase 2-2 setting) backbone features
    are computed tape-free so only header parameters receive gradients.

    ``features`` — the frozen backbone's precomputed features over
    ``dataset.images``, row-aligned — is a cache the caller owns across
    calls (:meth:`repro.distributed.device.DeviceNode.frozen_features`):
    every mini-batch is then a row gather, bit-identical to the forward
    it replaces.  Without it a frozen, RNG-free backbone is still swept
    once per call when the epochs visit every row.
    """
    config = config or TrainConfig()
    if features is not None and not freeze_backbone:
        raise ValueError("precomputed features require freeze_backbone=True")
    rng = np.random.default_rng(config.seed)
    params = header.parameters()
    if not freeze_backbone:
        params = params + backbone.parameters()
    optimizer = Adam(params, lr=config.lr)
    report = TrainReport()
    from repro.train import serving  # lazy: trainer is imported by the package init

    # A frozen backbone is a pure per-sample feature extractor, so one
    # sweep per call serves every epoch — unless the backbone consumes
    # module-local RNG (training-mode dropout), where per-batch draws
    # must be preserved, or the epoch is batch-capped, where a sweep of
    # the whole dataset for this one call would cost more than the
    # forwards it saves.
    if (
        features is None
        and freeze_backbone
        and config.max_batches_per_epoch is None
        and len(dataset) > 0  # nothing to precompute (or train on)
        and not has_active_stochastic_modules(backbone)
    ):
        features = serving.precompute_backbone_features(backbone, dataset.images)
    loader = DataLoader(
        dataset,
        batch_size=config.batch_size,
        shuffle=True,
        rng=rng,
        yield_indices=features is not None,
    )

    header.train()
    for _epoch in range(config.epochs):
        losses, correct, total = [], 0, 0
        for batch_idx, (batch, labels) in enumerate(loader):
            if (
                config.max_batches_per_epoch is not None
                and batch_idx >= config.max_batches_per_epoch
            ):
                break
            if freeze_backbone:
                # The backbone is pure feature extraction here: a row
                # gather, or a tape-free forward — never a graph.
                batch_features = frozen_batch_features(backbone, batch, features)
            else:
                batch_features = BackboneFeatures(
                    *backbone.forward_features_multi(Tensor(batch))
                )
            logits = header(batch_features)
            loss = F.cross_entropy(logits, labels)
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(optimizer.params, config.grad_clip)
            optimizer.step()
            if isinstance(header, DAGHeader):
                header.reapply_mask()
            losses.append(float(loss.data))
            correct += int((logits.data.argmax(axis=-1) == labels).sum())
            total += labels.shape[0]
        report.epoch_losses.append(float(np.mean(losses)) if losses else float("nan"))
        report.epoch_accuracies.append(correct / max(1, total))
    header.eval()
    return report
