"""Evaluation helpers: accuracy and loss over datasets."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader
from repro.models.headers import BackboneFeatures, Header
from repro.models.vit import VisionTransformer
from repro.nn import functional as F
from repro.nn.layers import Module
from repro.nn.tensor import Tensor, no_grad


def batch_metrics(logits: Tensor, labels: np.ndarray) -> tuple:
    """``(loss_sum, correct)`` of one logits batch — the shared metric
    kernel of the evaluation loops here and the batched serving runner
    (:mod:`repro.train.serving`)."""
    loss_sum = float(F.cross_entropy(logits, labels, reduction="sum").data)
    correct = int((logits.data.argmax(axis=-1) == labels).sum())
    return loss_sum, correct


def _evaluate(
    forward: Callable[[np.ndarray], Tensor],
    dataset: ArrayDataset,
    batch_size: int,
    max_batches: Optional[int],
) -> dict:
    """The tape-free evaluation loop: ``forward(images) -> logits`` over
    the first ``max_batches`` unshuffled batches."""
    loader = DataLoader(
        # reprolint: fixed-rng -- shuffle=False never draws from this stream;
        # the pinned rng keeps eval loaders deterministic even if the set_seed
        # fallback default ever changes
        dataset, batch_size=batch_size, shuffle=False, rng=np.random.default_rng(0)
    )
    correct, total, loss_sum = 0, 0, 0.0
    with no_grad():
        for batch_idx, (images, labels) in enumerate(loader):
            if max_batches is not None and batch_idx >= max_batches:
                break
            batch_loss, batch_correct = batch_metrics(forward(images), labels)
            loss_sum += batch_loss
            correct += batch_correct
            total += labels.shape[0]
    if total == 0:
        raise ValueError("no samples evaluated")
    return {"accuracy": correct / total, "loss": loss_sum / total, "samples": total}


def evaluate_model(
    model: Module,
    dataset: ArrayDataset,
    batch_size: int = 64,
    max_batches: Optional[int] = None,
) -> dict:
    """Accuracy and mean loss of an end-to-end model."""
    return _evaluate(lambda images: model(Tensor(images)), dataset, batch_size, max_batches)


def evaluate_header(
    backbone: VisionTransformer,
    header: Header,
    dataset: ArrayDataset,
    batch_size: int = 64,
    max_batches: Optional[int] = None,
) -> dict:
    """Accuracy and mean loss of a (backbone, header) pair."""

    def forward(images: np.ndarray) -> Tensor:
        return header(BackboneFeatures(*backbone.forward_features_multi(Tensor(images))))

    return _evaluate(forward, dataset, batch_size, max_batches)
