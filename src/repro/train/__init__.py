"""Training, evaluation, and batched serving loops."""

from repro.train.evaluate import evaluate_header, evaluate_model
from repro.train.fleet import (
    fleet_importance_rounds,
    fleet_supported,
    train_headers_fleet,
)
from repro.train.serving import (
    batched_evaluate_headers,
    batched_extract_features,
    batched_forward_features_multi,
    precompute_backbone_features,
)
from repro.train.trainer import TrainConfig, TrainReport, train_header, train_model

__all__ = [
    "TrainConfig",
    "TrainReport",
    "batched_evaluate_headers",
    "batched_extract_features",
    "batched_forward_features_multi",
    "precompute_backbone_features",
    "evaluate_header",
    "evaluate_model",
    "fleet_importance_rounds",
    "fleet_supported",
    "train_header",
    "train_headers_fleet",
    "train_model",
]
