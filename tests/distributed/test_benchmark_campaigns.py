"""The benchmark's two campaigns, run on the chained oracle.

``benchmarks/e2e``'s ``campaign_cloud`` and ``campaign_edge`` workloads
are one ``ACMESystem.run()`` each.  Their configs and ``protocol`` pins
live in ``test_protocol_pins.py``, whose cached runs these tests share;
three more things are checked on seeds 0 and 1, at the default dtype
(float32) and at float64:

* the run equals the same run with the encoder block, attention and
  linear layers monkeypatched back to the chain of single-op tape nodes
  (``tests/reference/encoder.py``): the whole ``ACMERunResult`` and the
  cloud's backbone ``state_dict``, bit for bit;
* the two dtypes run the same protocol: their ``protocol`` halves differ
  only in the byte counts;
* the ``numeric`` half sees a float the protocol cannot: the distillation
  learning rate × 1.01 moves it and leaves the ``protocol`` half as pinned.
"""

import importlib

import numpy as np
import pytest

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Linear
from repro.nn.optim import LR
from repro.nn.transformer import TransformerEncoderLayer
from tests.distributed.test_protocol_pins import CAMPAIGNS, DTYPES, campaign_run
from tests.reference.encoder import (
    chained_attention_forward,
    chained_layer_forward,
    chained_linear_forward,
)


BYTE_FIELDS = ("upload_bytes", "total_bytes")


def _run(name: str, seed: int, dtype: str):
    """The campaign run again, uncached (under whatever is patched)."""
    return campaign_run.__wrapped__(name, seed, dtype)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
@pytest.mark.parametrize("dtype", sorted(DTYPES))
class TestBenchmarkCampaigns:
    def test_fused_block_equals_the_chained_oracle(self, dtype, name, seed, monkeypatch):
        fused, fused_backbone = campaign_run(name, seed, dtype)
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
def test_float32_runs_the_float64_protocol(name, seed):
    """The dtype changes what each array costs on the wire, never which
    messages are sent or which (w, d) the cloud assigns."""
    halves = [
        campaign_run(name, seed, dtype)[0].digest()["protocol"] for dtype in DTYPES
    ]
    default, wide = (
        {k: v for k, v in half.items() if k not in BYTE_FIELDS} for half in halves
    )
    assert default == wide
    assert halves[0]["total_bytes"] < halves[1]["total_bytes"]


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_numeric_half_sees_the_distillation_rate(name, monkeypatch):
    """One percent on the rate the cloud distils the backbone at sends
    the same messages and bytes and assigns the same (w, d) — and is
    seen by the losses, accuracies and weight CRCs."""
    pinned = campaign_run(name, 0, "default")[0].digest()
    distill = importlib.import_module("repro.core.distill")
    monkeypatch.setattr(distill, "LR", LR * 1.01)
    moved = _run(name, 0, "default")[0].digest()
    assert moved["protocol"] == pinned["protocol"]
    assert moved["numeric"] != pinned["numeric"]
    assert moved["numeric"]["backbone_crcs"] != pinned["numeric"]["backbone_crcs"]
