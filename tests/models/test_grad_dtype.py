"""Under the float32 engine every gradient is float32.

One backward through a train-mode ViT and a header leaves each
parameter a gradient of the parameter's own dtype — for every fixed
header kind and a DAG header that uses all seven operations, with the
backbone's dropout off and on.  A float64 constant multiplied into an
activation (GELU's ``√(2/π)``, the dropout multiplier) used to promote
everything below it.
"""

import numpy as np
import pytest

from repro.models import ViTConfig, VisionTransformer
from repro.models.blocks import BlockSpec, HeaderSpec, num_operations
from repro.models.header_dag import DAGHeader
from repro.models.headers import FIXED_HEADERS, BackboneFeatures, build_fixed_header
from repro.nn import functional as F
from repro.nn.tensor import Tensor, using_dtype

CLASSES, BATCH = 4, 3

#: Four blocks whose operations cover the whole registry.
ALL_OPS = HeaderSpec(
    blocks=(
        BlockSpec(0, 1, 0, 1),
        BlockSpec(1, 2, 2, 3),
        BlockSpec(2, 3, 4, 5),
        BlockSpec(0, 4, 6, 0),
    )
)


def _header(kind, config, rng):
    if kind == "dag":
        return DAGHeader(
            config.embed_dim, config.num_patches, CLASSES, ALL_OPS, rng=rng
        )
    return build_fixed_header(
        kind, config.embed_dim, config.num_patches, CLASSES, rng=rng
    )


def test_the_dag_spec_uses_every_operation():
    ops = {op for b in ALL_OPS.blocks for op in (b.op1, b.op2)}
    assert ops == set(range(num_operations()))


@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("kind", sorted(FIXED_HEADERS) + ["dag"])
def test_every_gradient_has_its_parameters_dtype(kind, dropout):
    rng = np.random.default_rng(0)
    with using_dtype("float32"):
        config = ViTConfig(
            num_classes=CLASSES, depth=2, embed_dim=16, dropout=dropout
        )
        vit = VisionTransformer(config, seed=0).train()
        header = _header(kind, config, np.random.default_rng(1))
        images = rng.normal(size=(BATCH, 3, config.image_size, config.image_size))
        labels = rng.integers(0, CLASSES, size=BATCH)
        features = BackboneFeatures(*vit.forward_features_multi(Tensor(images)))
        loss = F.cross_entropy(header(features), labels) + F.cross_entropy(
            vit.head(features.cls), labels
        )
        loss.backward()
    for module in (vit, header):
        for name, param in module.named_parameters():
            assert param.grad is not None, name
            assert param.data.dtype == np.float32, name
            assert param.grad.dtype == param.data.dtype, name
