"""The ``protocol`` digest half of every benchmark workload, pinned.

``benchmarks/e2e`` runs six workloads; their configurations are written
out here (not imported from ``benchmarks/``) at the benchmark's smoke
sizes, and the two campaigns and ``scale_rounds`` also at full size:

* ``campaign_cloud`` / ``campaign_edge`` — one ``ACMESystem.run()``;
  full size at the default dtype (float32) and at float64;
* ``campaign_tcp`` — the ``campaign_edge`` config as cloud and edge OS
  processes over TCP, which must send what the loopback run sends;
* ``wire_exchange`` — the seeded mix of backbone and set round trips,
  sized by their encoded frames;
* ``scale_rounds`` / ``scale_serve`` — ``run_scale_campaign`` with
  drops, churn and a deadline, and with serving.

Each case is run on seeds 0 and 1 and its ``protocol`` half — integers
no BLAS build can move — must equal its pin on any host.  A change that
moves a pin moves it here, in one table.
"""

import functools
import zlib

import numpy as np
import pytest

from repro.core.header_importance import ImportanceConfig
from repro.distributed import ACMEConfig, ACMESystem
from repro.distributed.messages import Message, MessageKind
from repro.distributed.scale import ScaleConfig, run_scale_campaign
from repro.distributed.system import run_multiprocess
from repro.distributed.wire import encode_message, frame
from repro.hw.profiles import DeviceProfile, cluster_statistics
from repro.models import ViTConfig, VisionTransformer
from repro.nn.tensor import using_dtype

SEEDS = (0, 1)
#: The smoke configurations' reference ViT.
SMOKE_VIT = dict(num_classes=4, depth=2, embed_dim=16, num_heads=2)


def _seeded(cfg: ACMEConfig, seed: int) -> ACMEConfig:
    cfg.edge.seed = seed
    cfg.device_importance = ImportanceConfig(seed=seed)
    return cfg


def campaign_cloud(seed: int, smoke: bool = False) -> ACMEConfig:
    if smoke:
        cfg = ACMEConfig(
            num_clusters=1, devices_per_cluster=2, num_classes=4,
            samples_per_class=12, public_samples_per_class=6,
            vit=ViTConfig(**SMOKE_VIT), seed=0,
        )
    else:
        cfg = ACMEConfig(
            num_clusters=1, devices_per_cluster=2, samples_per_class=8,
            public_samples_per_class=6,
            vit=ViTConfig(num_classes=8, depth=6, embed_dim=32), seed=0,
        )
    cfg.cloud.pretrain_epochs = 2
    return _seeded(cfg, seed)


def campaign_edge(seed: int, smoke: bool = False) -> ACMEConfig:
    if smoke:
        cfg = ACMEConfig(
            num_clusters=2, devices_per_cluster=2, num_classes=4,
            samples_per_class=12, public_samples_per_class=6,
            vit=ViTConfig(**SMOKE_VIT), seed=0,
        )
    else:
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


@functools.lru_cache(maxsize=None)
def campaign_run(name: str, seed: int, dtype: str = "default", smoke: bool = False):
    """``(ACMERunResult, cloud backbone state)`` of one loopback campaign,
    run once per session and shared with the oracle tests."""
    cfg = CAMPAIGNS[name](seed, smoke)
    if DTYPES[dtype] is not None:
        cfg.compute_dtype = DTYPES[dtype]
    system = ACMESystem(cfg)
    result = system.run()
    backbone = system.cloud.backbone.state_dict()
    system.dispose()
    return result, backbone


def scale_config(seed: int, smoke: bool, serve: bool) -> ScaleConfig:
    return ScaleConfig(
        num_devices=96 if smoke else 160,
        num_clusters=4,
        rounds=2,
        lru_capacity=4 if smoke else 8,
        eval_requests=8 if serve else 0,
        drop=0.0 if serve else 0.1,
        churn=0.0 if serve else 0.05,
        retries=5,
        deadline_quantile=1.0 if serve else 0.9,
        ledger="summary",
        seed=seed,
    )


def wire_exchange_digest(seed: int) -> dict:
    """The smoke ``wire_exchange`` trips' digest, sized as the workload
    sizes them: one encoded frame per request and per reply."""
    rng = np.random.default_rng([seed, 4])
    groups, set_size = 2, 64
    with using_dtype("float64"):
        state = VisionTransformer(
            ViTConfig(embed_dim=16, depth=2, num_heads=2), seed=seed
        ).state_dict()
    profiles = [DeviceProfile.synthesize(i, 3 + i % 5, 40_000, rng) for i in range(8)]
    stats = cluster_statistics(profiles)
    sets = rng.standard_normal((8, set_size)).astype(np.float32)
    order = np.zeros(groups * 9, dtype=bool)
    order[np.arange(groups) * 9 + rng.integers(0, 9, groups)] = True

    def size(message: Message) -> int:
        return len(frame(encode_message(message)))

    up = down = 0
    for index, backbone in enumerate(order):
        if backbone:
            request = Message("edge0", "cloud", MessageKind.CLUSTER_STATS, {"stats": stats})
            reply = Message(
                "cloud", "edge0", MessageKind.BACKBONE_ASSIGNMENT,
                {"backbone_state": state, "width": 1.0, "depth": 4},
            )
        else:
            values = sets[index % len(sets)]
            request = Message(
                "edge0", "cloud", MessageKind.IMPORTANCE_SET,
                {"importance": values, "device_id": index % 8},
            )
            reply = Message(
                "cloud", "edge0", MessageKind.PERSONALIZED_SET,
                {"importance": values * np.float32(0.5)},
            )
        up += size(request)
        down += size(reply)
    return {
        "trips": len(order),
        "backbone_trips": int(order.sum()),
        "order_crc": zlib.crc32(order.tobytes()),
        "wire_up": up,
        "wire_down": down,
    }


def _campaign_pin(messages, kinds_crc, upload, total, assignments) -> dict:
    """A fault-free campaign's ``protocol`` half."""
    return {
        "messages": messages, "kinds_crc": kinds_crc, "upload_bytes": upload,
        "total_bytes": total, "fault_counts": {}, "retries": 0,
        "delivery_attempts": messages, "failed_deliveries": 0,
        "assignments": assignments,
    }


def _scale_pin(sizes, contributions, kinds, total, faults, stragglers,
               served, hydrations, evictions, live) -> dict:
    return {
        "cluster_sizes": sizes, "contributions": contributions,
        "kind_counts": dict(zip(
            ("importance_set", "model_distribution", "personalized_set"), kinds
        )),
        "total_bytes": total, "fault_counts": faults, "failed_deliveries": 0,
        "stragglers": stragglers, "carried": 0, "eval_requests_served": served,
        "hydrations": hydrations, "evictions": evictions, "live_headers": live,
    }


#: ``(workload, size, dtype) → seed → protocol half``.  The full-size
#: campaigns are the same on both seeds (the seed drives only what runs
#: after the searches) and their dtypes differ only in ``total_bytes``,
#: which counts each ``vit_config``'s repr and every array's bytes.
PINS = {
    ("campaign_cloud", "full", "default"): dict.fromkeys(SEEDS, _campaign_pin(
        12, 4275280605, 451906, 1368892, [[0.5, 4]],
    )),
    ("campaign_cloud", "full", "float64"): dict.fromkeys(SEEDS, _campaign_pin(
        12, 4275280605, 451906, 1832028, [[0.5, 4]],
    )),
    ("campaign_edge", "full", "default"): dict.fromkeys(SEEDS, _campaign_pin(
        88, 1064655026, 509661, 2410052, [[0.75, 3], [0.75, 3]],
    )),
    ("campaign_edge", "full", "float64"): dict.fromkeys(SEEDS, _campaign_pin(
        88, 1064655026, 509661, 3796294, [[0.75, 3], [0.75, 3]],
    )),
    ("campaign_cloud", "smoke", "default"): dict.fromkeys(SEEDS, _campaign_pin(
        12, 4275280605, 11842, 91073, [[0.75, 2]],
    )),
    ("campaign_edge", "smoke", "default"): dict.fromkeys(SEEDS, _campaign_pin(
        24, 60441726, 22274, 112211, [[0.5, 1], [0.5, 1]],
    )),
    ("campaign_tcp", "smoke", "default"): dict.fromkeys(SEEDS, _campaign_pin(
        24, 60441726, 22274, 112211, [[0.5, 1], [0.5, 1]],
    )),
    ("wire_exchange", "smoke", "default"): {
        seed: {"trips": 18, "backbone_trips": 2, "order_crc": crc,
               "wire_up": 9054, "wire_down": 105442}
        for seed, crc in zip(SEEDS, (1187647418, 2678239280))
    },
    ("scale_rounds", "smoke", "default"): {
        0: _scale_pin([51, 22, 13, 10], 165, (181, 103, 188), 3676259,
                      {"drop": 46}, 20, 0, 165, 149, 16),
        1: _scale_pin([51, 22, 13, 10], 164, (177, 113, 176), 4019543,
                      {"drop": 42}, 20, 0, 164, 148, 16),
    },
    ("scale_serve", "smoke", "default"): dict.fromkeys(SEEDS, _scale_pin(
        [51, 22, 13, 10], 192, (192, 96, 192), 3437068, {}, 0, 64, 256, 240, 16,
    )),
    ("scale_rounds", "full", "default"): {
        0: _scale_pin([84, 37, 23, 16], 276, (303, 177, 315), 6313317,
                      {"drop": 83}, 32, 0, 276, 244, 32),
        1: _scale_pin([84, 37, 23, 16], 272, (301, 185, 300), 6586884,
                      {"drop": 82}, 32, 0, 272, 240, 32),
    },
}


def _protocol(workload: str, size: str, dtype: str, seed: int) -> dict:
    smoke = size == "smoke"
    if workload in CAMPAIGNS:
        return campaign_run(workload, seed, dtype, smoke)[0].digest()["protocol"]
    if workload == "campaign_tcp":
        result = run_multiprocess(campaign_edge(seed, smoke), edge_timeout=150.0)
        return result.digest()["protocol"]
    if workload == "wire_exchange":
        return wire_exchange_digest(seed)
    serve = workload == "scale_serve"
    return run_scale_campaign(scale_config(seed, smoke, serve)).digest()["protocol"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload, size, dtype", sorted(PINS))
def test_protocol_half_is_pinned(workload, size, dtype, seed):
    assert _protocol(workload, size, dtype, seed) == PINS[workload, size, dtype][seed]
