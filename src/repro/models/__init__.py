"""Models: the scalable ViT, fixed headers, NAS blocks/DAG headers, baselines."""

from repro.models.baselines import (
    BASELINE_BUILDERS,
    DecomposedViT,
    EfficientViTLike,
    MobileViTLike,
    TwinsSVTLike,
    build_baseline,
)
from repro.models.blocks import (
    BlockSpec,
    HeaderSpec,
    OPERATION_NAMES,
    build_operation,
    num_operations,
)
from repro.models.header_dag import DAGHeader
from repro.models.headers import (
    AttentionHeader,
    BackboneFeatures,
    CNNEnsembleHeader,
    CNNHeader,
    FIXED_HEADERS,
    Header,
    HybridHeader,
    LinearHeader,
    MLPHeader,
    PoolHeader,
    build_fixed_header,
)
from repro.models.vit import PatchEmbedding, ViTConfig, VisionTransformer

__all__ = [
    "AttentionHeader",
    "BASELINE_BUILDERS",
    "BackboneFeatures",
    "BlockSpec",
    "CNNEnsembleHeader",
    "CNNHeader",
    "DAGHeader",
    "DecomposedViT",
    "EfficientViTLike",
    "FIXED_HEADERS",
    "Header",
    "HeaderSpec",
    "HybridHeader",
    "LinearHeader",
    "MLPHeader",
    "MobileViTLike",
    "OPERATION_NAMES",
    "PatchEmbedding",
    "PoolHeader",
    "TwinsSVTLike",
    "ViTConfig",
    "VisionTransformer",
    "build_baseline",
    "build_fixed_header",
    "build_operation",
    "num_operations",
]
