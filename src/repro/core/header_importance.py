"""Device-side importance sets for header parameters (Eqs. 16-18).

Each device receives the coarse header from its edge server, trains it
briefly on local data with the backbone frozen, and quantifies every header
parameter by the first-order Taylor estimate of the error its removal
would introduce:

.. math:: Q^{(1)}_{n,r} = (g_{n,r} · υ^H_{n,r})²,\\qquad g_{n,r} = ∂L_n/∂υ^H_{n,r}

Importances are accumulated over mini-batches (the paper computes them
"every minibatch", Fig. 6a) and averaged, producing the importance set
``Q_n`` uploaded to the edge server.

The training itself is :mod:`repro.train.fleet`'s round loop — one
device is the fleet of one.  The backbone only ever runs tape-free
there — or not at all, when the caller hands in its features over the
dataset (``features=``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.models.header_dag import DAGHeader
from repro.models.headers import BackboneFeatures
from repro.models.vit import VisionTransformer


@dataclass
class ImportanceConfig:
    """Local-training hyperparameters for importance estimation."""

    epochs: int = 1
    batch_size: int = 16
    lr: float = 1e-3
    max_batches_per_epoch: int = 8
    seed: int = 0


def compute_importance_set(
    backbone: VisionTransformer,
    header: DAGHeader,
    dataset: ArrayDataset,
    config: Optional[ImportanceConfig] = None,
    train: bool = True,
    features: Optional[BackboneFeatures] = None,
) -> np.ndarray:
    """Train the header locally and return its importance set ``Q_n``.

    The backbone is used frozen (tape-free forwards), matching §III-D:
    "freezing the backbone architecture and its parameters, training the
    header using local private dataset, and generating an importance set".

    Parameters
    ----------
    train:
        When False, skips optimizer updates and only accumulates
        importances (useful for re-scoring an already-trained header).
    features:
        The frozen backbone's precomputed features over
        ``dataset.images``, row-aligned
        (:func:`repro.train.serving.precompute_backbone_features`).
        Each mini-batch is then a row gather instead of a backbone
        forward — same shuffle stream, bit-identical importance set and
        header weights.  The owner of the cache decides when it is valid
        (:meth:`repro.distributed.device.DeviceNode.frozen_features`).

    Returns
    -------
    numpy.ndarray
        Flat array with one importance per header parameter, aligned with
        the header's ``parameters()`` raveled and concatenated in order.
    """
    from repro.train.fleet import fleet_importance_rounds  # lazy: train imports core

    return fleet_importance_rounds(
        backbone, [header], [dataset], [config], [features], train=train
    )[0]


def prune_by_importance(
    header: DAGHeader,
    importance: np.ndarray,
    keep_fraction: float,
    protect_classifier: bool = True,
) -> np.ndarray:
    """Discard the least-important header parameters (Algorithm 2 line 11).

    Parameters
    ----------
    keep_fraction:
        Fraction of prunable parameters to keep (by descending importance).
    protect_classifier:
        Keep the classifier sub-module intact: pruning the final projection
        rows would disconnect output classes entirely.

    Returns
    -------
    numpy.ndarray
        The boolean keep-mask that was applied.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    importance = np.asarray(importance, dtype=np.float64)
    if importance.shape != (header.parameter_count(),):
        raise ValueError(
            f"importance length {importance.shape} != parameter count "
            f"{header.parameter_count()}"
        )

    protected = np.zeros_like(importance, dtype=bool)
    if protect_classifier:
        offset = 0
        for name, p in header._unique_named_parameters():
            if name.startswith("classifier"):
                protected[offset : offset + p.size] = True
            offset += p.size

    prunable = np.flatnonzero(~protected)
    keep_count = int(round(keep_fraction * prunable.size))
    keep = protected.copy()
    if keep_count > 0:
        order = prunable[np.argsort(-importance[prunable], kind="stable")]
        keep[order[:keep_count]] = True
    header.set_parameter_mask(keep)
    return keep
