"""Textbook per-device frozen-header training loops.

One device, one ``DataLoader``, one ``loss.backward()`` and one
allocating Adam step per mini-batch — the loops ``train_header``'s
frozen branch and ``compute_importance_set`` shipped before they became
one-member calls into :mod:`repro.train.fleet`.  The round loop must
reproduce them bit-for-bit under float64: every loss, accuracy,
importance set and header weight.
"""

from typing import Optional

import numpy as np

from repro.core.header_importance import ImportanceConfig
from repro.core.importance import header_parameter_importance
from repro.data.dataset import ArrayDataset, DataLoader
from repro.models.header_dag import DAGHeader
from repro.models.headers import BackboneFeatures, frozen_batch_features
from repro.nn import functional as F
from repro.nn.layers import Module
from repro.nn.optim import GRAD_CLIP, LR, clip_grad_norm
from repro.train.serving import precompute_backbone_features
from repro.train.trainer import TrainConfig, TrainReport
from tests.reference.optim import ReferenceAdam


def reference_train_header(
    backbone: Module,
    header: Module,
    dataset: ArrayDataset,
    config: Optional[TrainConfig] = None,
    features: Optional[BackboneFeatures] = None,
    sweep: bool = True,
) -> TrainReport:
    """``train_header(..., freeze_backbone=True)``, one device at a time.

    Without ``features`` one sweep per call serves every epoch, as in
    ``train_header``; ``sweep=False`` forwards every mini-batch instead.
    """
    config = config or TrainConfig()
    rng = np.random.default_rng(config.seed)
    optimizer = ReferenceAdam(header.parameters(), lr=LR)
    report = TrainReport()
    if features is None and sweep and len(dataset) > 0:
        features = precompute_backbone_features(backbone, dataset.images)
    loader = DataLoader(
        dataset,
        batch_size=config.batch_size,
        shuffle=True,
        rng=rng,
        yield_indices=features is not None,
    )

    for _epoch in range(config.epochs):
        losses, correct, total = [], 0, 0
        for batch, labels in loader:
            logits = header(frozen_batch_features(backbone, batch, features))
            loss = F.cross_entropy(logits, labels)
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(optimizer.params, GRAD_CLIP)
            optimizer.step()
            if isinstance(header, DAGHeader):
                header.reapply_mask()
            losses.append(float(loss.data))
            correct += int((logits.data.argmax(axis=-1) == labels).sum())
            total += labels.shape[0]
        report.epoch_losses.append(float(np.mean(losses)) if losses else float("nan"))
        report.epoch_accuracies.append(correct / max(1, total))
    return report


def reference_importance_set(
    backbone: Module,
    header: DAGHeader,
    dataset: ArrayDataset,
    config: Optional[ImportanceConfig] = None,
    train: bool = True,
    features: Optional[BackboneFeatures] = None,
) -> np.ndarray:
    """``compute_importance_set``, one device at a time (Eqs. 16-18)."""
    config = config or ImportanceConfig()
    rng = np.random.default_rng(config.seed)
    params = header.parameters()
    optimizer = ReferenceAdam(params, lr=LR) if train else None

    accumulated = np.zeros(header.parameter_count())
    batches_seen = 0

    loader = DataLoader(
        dataset,
        batch_size=config.batch_size,
        shuffle=True,
        rng=rng,
        yield_indices=features is not None,
    )
    for _epoch in range(config.epochs):
        for batch_idx, (batch, labels) in enumerate(loader):
            if batch_idx >= config.max_batches_per_epoch:
                break
            logits = header(frozen_batch_features(backbone, batch, features))
            loss = F.cross_entropy(logits, labels)
            header.zero_grad()
            loss.backward()

            # Eq. (17)-(18): per-parameter (g · υ)², accumulated per batch.
            grads = np.concatenate(
                [
                    (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
                    for p in params
                ]
            )
            values = np.concatenate([p.data.reshape(-1) for p in params])
            accumulated += header_parameter_importance(grads, values)
            batches_seen += 1

            if optimizer is not None:
                optimizer.step()
                header.reapply_mask()

    if batches_seen == 0:
        raise ValueError("dataset produced no batches for importance estimation")
    return accumulated / batches_seen
