"""The benchmark's two campaigns, pinned and run on the chained oracle.

``benchmarks/e2e``'s ``campaign_cloud`` and ``campaign_edge`` workloads
are one ``ACMESystem.run()`` each.  Their configs are written out here
(not imported from ``benchmarks/``) and three things are checked on
seeds 0 and 1, at the default dtype (float32) and at float64:

* the ``protocol`` half of the run's digest — message count and kinds
  CRC, upload and total bytes, fault counts, retries, delivery
  attempts, failed deliveries and the cloud's (w, d) assignments —
  equals its pin;
* the run equals the same run with the encoder block, attention and
  linear layers monkeypatched back to the chain of single-op tape nodes
  (``tests/reference/encoder.py``): the whole ``ACMERunResult`` and the
  cloud's backbone ``state_dict``, bit for bit;
* the two dtypes run the same protocol: their ``protocol`` halves differ
  only in the byte counts.
"""

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

#: ``None`` runs the config's default dtype (float32).
DTYPES = {"default": None, "float64": "float64"}

PIN_FIELDS = (
    "messages", "kinds_crc", "upload_bytes", "total_bytes", "retries",
    "delivery_attempts", "failed_deliveries", "assignments",
)
#: The ``protocol`` digest half as a :data:`PIN_FIELDS` tuple (its fault
#: counts are empty) — the same on both seeds: the seed drives only what
#: runs after the searches.  The dtypes differ only in ``total_bytes``.
PINS = {
    ("campaign_cloud", "float64"): (
        12, 4275280605, 451906, 2655297, 0, 12, 0, [[0.5, 4]]
    ),
    ("campaign_edge", "float64"): (
        88, 1064655026, 509661, 5491456, 0, 88, 0, [[0.75, 3], [0.75, 3]]
    ),
    ("campaign_cloud", "default"): (
        12, 4275280605, 451906, 1786657, 0, 12, 0, [[0.5, 4]]
    ),
    ("campaign_edge", "default"): (
        88, 1064655026, 509661, 3275968, 0, 88, 0, [[0.75, 3], [0.75, 3]]
    ),
}

BYTE_FIELDS = ("upload_bytes", "total_bytes")


def _run(name: str, seed: int, dtype: str):
    cfg = CAMPAIGNS[name](seed)
    if DTYPES[dtype] is not None:
        cfg.compute_dtype = DTYPES[dtype]
    system = ACMESystem(cfg)
    result = system.run()
    backbone = system.cloud.backbone.state_dict()
    system.dispose()
    return result, backbone


@pytest.fixture(scope="module")
def fused_runs():
    runs = {}

    def get(name, seed, dtype):
        if (name, seed, dtype) not in runs:
            runs[name, seed, dtype] = _run(name, seed, dtype)
        return runs[name, seed, dtype]

    return get


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
@pytest.mark.parametrize("dtype", sorted(DTYPES))
class TestBenchmarkCampaigns:
    def test_protocol_digest_is_pinned(self, dtype, name, seed, fused_runs):
        result, _backbone = fused_runs(name, seed, dtype)
        pinned = dict(zip(PIN_FIELDS, PINS[name, dtype]), fault_counts={})
        assert result.digest()["protocol"] == pinned

    def test_fused_block_equals_the_chained_oracle(
        self, dtype, name, seed, fused_runs, monkeypatch
    ):
        fused, fused_backbone = fused_runs(name, seed, dtype)
        monkeypatch.setattr(TransformerEncoderLayer, "forward", chained_layer_forward)
        monkeypatch.setattr(MultiHeadSelfAttention, "forward", chained_attention_forward)
        monkeypatch.setattr(Linear, "forward", chained_linear_forward)
        chained, chained_backbone = _run(name, seed, dtype)
        assert fused == chained
        assert fused_backbone.keys() == chained_backbone.keys()
        for key, value in fused_backbone.items():
            other = chained_backbone[key]
            assert value.dtype == other.dtype and np.array_equal(value, other), key


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_float32_runs_the_float64_protocol(name, seed, fused_runs):
    """The dtype changes what each array costs on the wire, never which
    messages are sent or which (w, d) the cloud assigns."""
    halves = [
        fused_runs(name, seed, dtype)[0].digest()["protocol"] for dtype in DTYPES
    ]
    default, wide = (
        {k: v for k, v in half.items() if k not in BYTE_FIELDS} for half in halves
    )
    assert default == wide
    assert halves[0]["total_bytes"] < halves[1]["total_bytes"]
