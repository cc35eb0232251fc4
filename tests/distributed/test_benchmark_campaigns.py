"""The benchmark's two campaigns, pinned and run on the chained oracle.

``benchmarks/e2e``'s ``campaign_cloud`` and ``campaign_edge`` workloads
are one ``ACMESystem.run()`` each.  Their configs are written out here
(not imported from ``benchmarks/``) and two things are checked on seeds
0 and 1:

* the fields of the run no BLAS build can move — message count and
  kinds CRC, upload and total bytes, retries, delivery attempts, failed
  deliveries and the cloud's (w, d) assignments — equal their pins;
* the run equals the same run with the encoder block, attention and
  linear layers monkeypatched back to the chain of single-op tape nodes
  (``tests/reference/encoder.py``): the whole ``ACMERunResult`` and the
  cloud's backbone ``state_dict``, bit for bit.
"""

import zlib

import numpy as np
import pytest

from repro.core.header_importance import ImportanceConfig
from repro.distributed import ACMEConfig, ACMESystem
from repro.models import ViTConfig
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Linear
from repro.nn.transformer import TransformerEncoderLayer
from tests.reference.encoder import (
    chained_attention_forward,
    chained_layer_forward,
    chained_linear_forward,
)


def _seeded(cfg: ACMEConfig, seed: int) -> ACMEConfig:
    cfg.edge.seed = seed
    cfg.device_importance = ImportanceConfig(seed=seed)
    return cfg


def campaign_cloud(seed: int) -> ACMEConfig:
    cfg = ACMEConfig(
        num_clusters=1, devices_per_cluster=2, samples_per_class=8,
        public_samples_per_class=6,
        vit=ViTConfig(num_classes=8, depth=6, embed_dim=32), seed=0,
    )
    cfg.cloud.pretrain_epochs = 2
    return _seeded(cfg, seed)


def campaign_edge(seed: int) -> ACMEConfig:
    cfg = ACMEConfig(
        num_clusters=2, devices_per_cluster=6, samples_per_class=24,
        public_samples_per_class=4, seed=0,
    )
    cfg.edge.aggregation_rounds = 3
    cfg.cloud.pretrain_epochs = 1
    cfg.cloud.distill.epochs = 1
    return _seeded(cfg, seed)


CAMPAIGNS = {"campaign_cloud": campaign_cloud, "campaign_edge": campaign_edge}

#: ``(messages, kinds_crc, upload_bytes, total_bytes, retries,
#: delivery_attempts, failed_deliveries, assignments)`` — the same on
#: both seeds: the seed drives only what runs after the searches.
PINS = {
    "campaign_cloud": (12, 4275280605, 451906, 2655297, 0, 12, 0, [[0.5, 4]]),
    "campaign_edge": (
        88, 1064655026, 509661, 5491456, 0, 88, 0, [[0.75, 3], [0.75, 3]]
    ),
}


def _run(name: str, seed: int):
    system = ACMESystem(CAMPAIGNS[name](seed))
    result = system.run()
    backbone = system.cloud.backbone.state_dict()
    system.dispose()
    return result, backbone


@pytest.fixture(scope="module")
def fused_runs():
    runs = {}

    def get(name, seed):
        if (name, seed) not in runs:
            runs[name, seed] = _run(name, seed)
        return runs[name, seed]

    return get


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
class TestBenchmarkCampaigns:
    def test_blas_independent_fields_are_pinned(self, name, seed, fused_runs):
        result, _backbone = fused_runs(name, seed)
        kinds = result.message_kinds
        assert (
            len(kinds),
            zlib.crc32(" ".join(kinds).encode()),
            result.traffic.upload_bytes,
            result.traffic.total_bytes,
            result.total_retries,
            result.delivery_attempts,
            result.failed_deliveries,
            [[c.width, c.depth] for c in result.clusters],
        ) == PINS[name]

    def test_fused_block_equals_the_chained_oracle(self, name, seed, fused_runs, monkeypatch):
        fused, fused_backbone = fused_runs(name, seed)
        monkeypatch.setattr(TransformerEncoderLayer, "forward", chained_layer_forward)
        monkeypatch.setattr(MultiHeadSelfAttention, "forward", chained_attention_forward)
        monkeypatch.setattr(Linear, "forward", chained_linear_forward)
        chained, chained_backbone = _run(name, seed)
        assert fused == chained
        assert fused_backbone.keys() == chained_backbone.keys()
        for key, value in fused_backbone.items():
            other = chained_backbone[key]
            assert value.dtype == other.dtype and np.array_equal(value, other), key
