"""Layer probes: timed calls into single layers' public functions.

Each probe measures one layer at a fixed reference size, independent of
the workload, so a change to that layer has a number of its own next to
the end-to-end one.  The layer → end-to-end map (which ``campaign_s`` a
probe is predicted to move, on which workload) is in the README; a probe
that moves while its mapped end-to-end metric does not is a finding.

Sizes are the ``campaign_cloud`` ViT at batch 32 and an 8-device
cluster, float64 — the shapes the campaign workloads run.  Times are the
fastest of repeated calls (host interference only ever adds).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.aggregation import StreamingAggregator
from repro.core.similarity import build_similarity_matrix
from repro.data.synthetic import make_cifar100_like
from repro.distributed.executor import parallel_map
from repro.distributed.faults import FaultConfig, FaultPolicy
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import Network
from repro.distributed.scale import ScaleCluster, ScaleConfig
from repro.distributed.state_store import snapshot_header
from repro.distributed.wire import decode_message, encode_message
from repro.models.blocks import HeaderSpec
from repro.models.header_dag import DAGHeader
from repro.models.vit import ViTConfig, VisionTransformer
from repro.nn import functional as F
from repro.nn.optim import Adam
from repro.nn.serialization import state_to_bytes
from repro.nn.tensor import Tensor, no_grad, using_dtype
from repro.train.fleet import train_headers_fleet
from repro.train.serving import batched_evaluate_headers
from repro.train.trainer import TrainConfig, train_header

from .stats import steady

CLUSTER = 8
SET_SIZE = 64


def seconds_per_call(
    fn: Callable[[], object],
    budget_s: float,
    before: Optional[Callable[[], None]] = None,
) -> float:
    """Fastest seconds of one ``fn()``; ``before`` runs untimed each time."""
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < 5 or time.perf_counter() < deadline:
        if before is not None:
            before()
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return steady(samples[1:])  # the first call warms caches


def nn_probes(smoke: bool, budget_s: float) -> Dict[str, float]:
    """ViT forward / backward / optimizer step at the campaign_cloud model."""
    vit = (
        ViTConfig(num_classes=4, depth=2, embed_dim=16, num_heads=2)
        if smoke
        else ViTConfig(num_classes=8, depth=6, embed_dim=32)
    )
    model = VisionTransformer(vit, seed=0)
    data = make_cifar100_like(
        num_classes=vit.num_classes, image_size=vit.image_size, seed=0
    ).generate(samples_per_class=32 // vit.num_classes, seed=1)
    images, labels = data.images, data.labels
    optimizer = Adam(model.parameters(), lr=1e-3)

    def forward_nograd() -> None:
        with no_grad():
            model(Tensor(images))

    state: Dict[str, Tensor] = {}

    def forward_loss() -> None:
        optimizer.zero_grad()
        state["loss"] = F.cross_entropy(model(Tensor(images)), labels)

    full = seconds_per_call(forward_nograd, budget_s)
    out = {
        "nn.vit_forward_nograd_ms": full * 1e3,
        "nn.vit_forward_ms": seconds_per_call(lambda: model(Tensor(images)), budget_s) * 1e3,
        "nn.vit_backward_ms": seconds_per_call(
            lambda: state["loss"].backward(), budget_s, before=forward_loss
        )
        * 1e3,
        "nn.adam_step_ms": seconds_per_call(optimizer.step, budget_s) * 1e3,
    }
    # Width pruning masks heads and neurons; ROADMAP: masked heads still
    # pay full cost, so this ratio sits near 1.0 until that changes.
    model.scale(0.25, vit.depth)
    quarter = seconds_per_call(forward_nograd, budget_s)
    out["nn.vit_forward_w025_ms"] = quarter * 1e3
    out["nn.width_speedup"] = full / quarter
    return out


def cluster_probes(smoke: bool, budget_s: float) -> Dict[str, float]:
    """Edge-side layers over one 8-device cluster's frozen backbone."""
    vit = ViTConfig(num_classes=8, depth=2 if smoke else 4, embed_dim=16 if smoke else 32)
    backbone = VisionTransformer(vit, seed=0)
    generator = make_cifar100_like(
        num_classes=vit.num_classes, image_size=vit.image_size, seed=0
    )
    datasets = [
        generator.generate(samples_per_class=2 if smoke else 6, seed=10 + i)
        for i in range(CLUSTER)
    ]
    spec = HeaderSpec.from_sequence([0, 1, 0, 2, 1, 2, 2, 0])

    def headers():
        return [
            DAGHeader(
                vit.embed_dim, vit.num_patches, vit.num_classes, spec,
                rng=np.random.default_rng(i),
            )
            for i in range(CLUSTER)
        ]

    fleet: Dict[str, list] = {}

    def fresh() -> None:
        fleet["headers"] = headers()

    config = TrainConfig(epochs=1, batch_size=16)
    steps = -(-len(datasets[0]) // config.batch_size)
    weights = np.full((CLUSTER, CLUSTER), 1.0 / CLUSTER)
    sets = np.random.default_rng(0).standard_normal((CLUSTER, SET_SIZE))

    def aggregate() -> None:
        aggregator = StreamingAggregator(weights)
        for col in range(CLUSTER):
            aggregator.consume(col, sets[col])
        aggregator.finalize()

    fresh()
    eval_headers = fleet["headers"]
    return {
        "train.header_epoch_ms": seconds_per_call(
            lambda: train_header(backbone, fleet["headers"][0], datasets[0], config),
            budget_s,
            before=fresh,
        )
        * 1e3,
        "train.fleet_step_ms": seconds_per_call(
            lambda: train_headers_fleet(
                backbone, fleet["headers"], datasets, [config] * CLUSTER
            ),
            budget_s,
            before=fresh,
        )
        * 1e3
        / steps,
        "core.similarity_matrix_ms": seconds_per_call(
            lambda: build_similarity_matrix(backbone, datasets), budget_s
        )
        * 1e3,
        "core.aggregate_us": seconds_per_call(aggregate, budget_s) * 1e6,
        "serving.batch_eval_ms": seconds_per_call(
            lambda: batched_evaluate_headers(backbone, eval_headers, datasets), budget_s
        )
        * 1e3,
        # Serial workloads never dispatch today; listed so a later
        # default flip to a parallel fan-out is visible.
        "executor.dispatch_us": seconds_per_call(
            lambda: parallel_map(lambda item: item, range(64), max_workers=2),
            budget_s,
        )
        * 1e6
        / 64,
    }


def network_probes(budget_s: float) -> Dict[str, float]:
    """Per-send cost of the fabric: summary and full ledger, and retries."""
    payload = {
        "importance": np.zeros(SET_SIZE, dtype=np.float32),
        "device_id": 1,
    }
    batch = 200

    def sender(ledger: str, drop: float):
        def run() -> None:
            network = Network(ledger=ledger)
            if drop:
                network.install_fault_policy(
                    FaultPolicy(FaultConfig(seed=0, drop=drop, retries=5))
                )
            network.register("sink", lambda message: None)
            for _ in range(batch):
                network.send_reliable(
                    Message("src", "sink", MessageKind.IMPORTANCE_SET, payload)
                )

        return run

    return {
        "network.send_us": seconds_per_call(sender("summary", 0.0), budget_s) * 1e6 / batch,
        "network.send_full_us": seconds_per_call(sender("full", 0.0), budget_s) * 1e6 / batch,
        "network.send_reliable_drop10_us": seconds_per_call(sender("summary", 0.1), budget_s)
        * 1e6
        / batch,
    }


def wire_probes(message: Message, budget_s: float) -> Dict[str, float]:
    """Codec throughput on one message (the backbone assignment)."""
    encoded = encode_message(message)
    megabytes = message.nbytes / 1e6
    encode_s = seconds_per_call(lambda: encode_message(message), budget_s)
    decode_s = seconds_per_call(lambda: decode_message(encoded), budget_s)
    return {
        "wire.encode_mb_per_s": megabytes / encode_s,
        "wire.decode_mb_per_s": megabytes / decode_s,
        "wire.bytes_per_payload_byte": len(encoded) / message.nbytes,
        "wire.codec_s": encode_s + decode_s,
    }


def state_store_probes(budget_s: float) -> Dict[str, float]:
    """One evict + one hydrate, by difference.

    Two devices alternate on a capacity-1 store (every touch evicts the
    other and hydrates this one) and on a capacity-2 store (every touch
    hits); the difference per touch is the cost of one cycle.
    """

    def pair(capacity: int):
        cluster = ScaleCluster(
            0, 2, 0, Network(ledger="summary"),
            ScaleConfig(num_devices=2, num_clusters=1, lru_capacity=capacity),
        )
        cluster.distribute()
        return cluster

    def alternate(cluster: ScaleCluster):
        def run() -> None:
            for _ in range(20):
                for device in cluster.devices:
                    cluster.store.touch(device)

        return run

    thrash, resident = pair(1), pair(2)
    miss = seconds_per_call(alternate(thrash), budget_s) / 40
    hit = seconds_per_call(alternate(resident), budget_s) / 40
    blob = state_to_bytes(snapshot_header(resident.devices[0].header), compress=False)
    return {
        "state_store.cycle_us": (miss - hit) * 1e6,
        "state_store.blob_bytes": float(len(blob)),
    }


def run_probes(smoke: bool) -> Dict[str, float]:
    budget_s = 0.02 if smoke else 0.15
    with using_dtype("float64"):
        return {
            **nn_probes(smoke, budget_s),
            **cluster_probes(smoke, budget_s),
            **network_probes(budget_s),
            **state_store_probes(budget_s),
        }
