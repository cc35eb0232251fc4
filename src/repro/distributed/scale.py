"""Fleet-scale harness: 10⁴–10⁵+ simulated devices on one machine.

The full :class:`~repro.distributed.system.ACMESystem` trains real
headers on real gradients, which caps a laptop run at tens of devices.
This module keeps the *protocol* at full fidelity — every model
distribution, importance upload, personalized-set downlink and ACK is a
checksummed :class:`~repro.distributed.messages.Message` through the
:class:`~repro.distributed.network.Network` fabric, with seeded churn
and drops from the PR-6 :class:`~repro.distributed.faults.FaultPolicy` —
while replacing the per-device *learning* with seeded synthetic
importance sets, so the harness measures what actually limits scale:

* **memory** — devices live behind one
  :class:`~repro.distributed.state_store.DeviceStateLRU` per cluster,
  so only ``lru_capacity`` headers are live at any instant and the rest
  sit as cold snapshots (``lru_capacity=None`` never evicts — every
  header live, for the memory comparison);
* **the round** — each cluster is an
  :class:`~repro.distributed.edge.EdgeServer` and runs its round
  unchanged (quorum re-poll and carry-forward included): its walk
  hydrates ``lru_capacity``-sized chunks of participants in the parent,
  one chunk live at a time, and it aggregates
  through one uniform weight row into one running-sum accumulator,
  never an ``(n, R)`` stack or an ``n × n`` matrix;
* **stragglers** — the edge's ``round_deadline`` is set at the
  ``deadline_quantile`` of the cluster's Eq. (2) latency distribution,
  excluding slow devices from rounds deterministically;
* **serving** — eval requests queue into a
  :class:`~repro.train.serving.ServingFront` and ride micro-batched
  backbone forwards.

Cluster populations are heavy-tailed (Zipf over cluster rank, largest-
remainder apportionment) — fleet skew, not uniform shards.  Everything
is seeded: the same :class:`ScaleConfig` replays the identical campaign.
"""

from __future__ import annotations

import time
import tracemalloc
import zlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.synthetic import make_cifar100_like
from repro.distributed.device import DeviceNode
from repro.distributed.edge import EdgeConfig, EdgeServer
from repro.distributed.faults import FaultConfig, FaultPolicy, check_count, check_unit_interval
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import Network
from repro.distributed.state_store import DeviceStateLRU
from repro.hw.energy import latency
from repro.hw.profiles import DeviceProfile
from repro.models.blocks import BlockSpec, HeaderSpec
from repro.models.header_dag import DAGHeader
from repro.models.vit import VisionTransformer, ViTConfig
from repro.train.serving import ServingFront

#: Per-class samples of each edge's synthetic shared set.
SAMPLES_PER_CLASS = 6
#: Eval requests per stacked forward of a cluster's serving front.
MICRO_BATCH = 16


@dataclass
class ScaleConfig:
    """One synthetic fleet campaign, fully determined by its fields."""

    num_devices: int = 10_000
    num_clusters: int = 8
    #: Zipf exponent for cluster populations (larger = heavier head).
    zipf_exponent: float = 1.2  # reprolint: knob -- deferred: benchmarks/e2e reads it
    #: Length of each synthetic importance set.
    set_size: int = 64
    rounds: int = 3
    #: Live headers per cluster; ``None`` keeps every header live —
    #: only sane at small ``num_devices``, for the memory comparison.
    lru_capacity: Optional[int] = 64
    #: Serving requests sampled per cluster per round.
    eval_requests: int = 8
    #: Deadline at this quantile of the cluster's latency distribution;
    #: 1.0 disables (every device is on time).
    deadline_quantile: float = 1.0
    churn: float = 0.0
    drop: float = 0.0
    retries: int = 2
    #: Network ledger mode: "summary" bounds log/stats memory at scale.
    ledger: str = "summary"
    seed: int = 0

    def check(self) -> None:
        """Refuse, naming the field, a campaign that cannot run: a fleet
        that cannot be split into its clusters, a negative count, a rate
        outside [0, 1].  Every :class:`ScaleCluster` checks its config
        before it builds a device, so a value assigned after construction
        is caught too."""
        heavy_tailed_sizes(self.num_devices, self.num_clusters, self.zipf_exponent)
        for name in ("rounds", "eval_requests", "retries"):
            check_count(name, getattr(self, name), 0)
        for name in ("drop", "churn", "deadline_quantile"):
            check_unit_interval(name, getattr(self, name))


def heavy_tailed_sizes(
    num_devices: int, num_clusters: int, exponent: float = 1.2
) -> List[int]:
    """Zipf cluster populations via largest-remainder apportionment.

    Cluster ``k`` (1-indexed) gets a share proportional to
    ``k**-exponent``; floors are topped up by descending fractional
    remainder so the sizes sum exactly to ``num_devices`` and every
    cluster keeps at least one device.
    """
    if num_clusters < 1:
        raise ValueError(f"need at least one cluster, got {num_clusters}")
    if num_devices < num_clusters:
        raise ValueError(
            f"{num_devices} devices cannot populate {num_clusters} clusters"
        )
    ranks = np.arange(1, num_clusters + 1, dtype=np.float64)
    weights = ranks**-float(exponent)
    shares = weights / weights.sum() * num_devices
    sizes = np.maximum(np.floor(shares).astype(int), 1)
    order = np.argsort(-(shares - np.floor(shares)))
    i = 0
    while sizes.sum() < num_devices:
        sizes[order[i % num_clusters]] += 1
        i += 1
    while sizes.sum() > num_devices:
        big = int(np.argmax(sizes))
        sizes[big] -= 1
    return [int(s) for s in sizes]


class ScaleDevice(DeviceNode):
    """Protocol-faithful device with synthetic local computation.

    Inherits the full residency machinery (hydrate/evict/LRU) and wire
    behavior of :class:`DeviceNode`; only the *learning* is replaced:

    * :meth:`importance_rounds` uploads a seeded random set per device
      — a pure function of ``(seed, device_id, round_index)`` — for a
      chunk the edge's walk has just hydrated through the LRU
      (hydration is the real, measured per-device work at scale);
    * :meth:`_receive_personalized_set` acknowledges the downlink
      without pruning, because synthetic sets are not aligned to header
      parameters, and folds the set into :attr:`sets_crc`.  The wire
      exchange (payload + ACK) is unchanged.
    """

    def __init__(self, *args, set_size: int = 64, **kwargs) -> None:
        check_count("set_size", set_size, 1)
        super().__init__(*args, **kwargs)
        self.set_size = int(set_size)
        #: CRC of every personalized set received, in arrival order.
        self.sets_crc = 0

    @classmethod
    def importance_rounds(
        cls,
        devices: Sequence["ScaleDevice"],
        include_feature_sample: bool = False,
        round_index: int = 0,
    ) -> List[Message]:
        messages = []
        for device in devices:
            rng = np.random.default_rng(
                [max(device.seed, 0), device.profile.device_id, round_index]
            )
            q = rng.standard_normal(device.set_size).astype(np.float32)
            messages.append(
                device.build_importance_message(q, include_feature_sample)
            )
        return messages

    def _receive_personalized_set(self, message: Message) -> Message:
        assert self.has_model, "model must be distributed first"
        self.sets_crc = zlib.crc32(message.payload["importance"].tobytes(), self.sets_crc)
        return Message(self.name, message.sender, MessageKind.ACK)


class ScaleCluster(EdgeServer):
    """An :class:`EdgeServer` over a synthetic device population.

    The round is the edge's own (:meth:`EdgeServer.run_round`: churn →
    straggler cut → local update → reliable upload → quorum re-poll →
    carry-forward → aggregate → downlink); the harness only supplies
    what a campaign without learning lacks — :class:`ScaleDevice`
    members, the straggler deadline as a quantile of the cluster's
    Eq. (2) latencies, and one uniform weight row in place of a
    similarity matrix, so even a 40k-device cluster aggregates into a
    single accumulator row and never builds an ``n × n`` matrix.
    """

    def __init__(
        self,
        index: int,
        size: int,
        first_device_id: int,
        network: Network,
        config: ScaleConfig,
    ) -> None:
        config.check()
        self.scale_config = config
        self.store = DeviceStateLRU(config.lru_capacity)

        # One tiny model template and ONE dataset object per cluster;
        # devices alias both, so fleet memory is dominated by per-device
        # header state — exactly what the LRU is there to bound.
        vit = ViTConfig(
            image_size=8,
            patch_size=4,
            embed_dim=16,
            depth=2,
            num_heads=2,
            mlp_ratio=2.0,
            num_classes=4,
        )
        generator = make_cifar100_like(
            num_classes=vit.num_classes, image_size=vit.image_size,
            seed=config.seed + index,
        )
        dataset = generator.generate(
            SAMPLES_PER_CLASS, seed=config.seed + 1, name=f"edge{index}"
        )
        backbone = VisionTransformer(vit, seed=0)
        head_orders = [np.arange(vit.num_heads) for _ in range(vit.depth)]
        neuron_orders = [np.arange(vit.mlp_hidden) for _ in range(vit.depth)]
        backbone.set_importance_orders(
            head_orders=head_orders, neuron_orders=neuron_orders
        )
        backbone.scale(1.0, vit.depth)
        spec = HeaderSpec(blocks=(BlockSpec(0, 1, 1, 3),))
        template_header = DAGHeader(
            vit.embed_dim,
            vit.num_patches,
            vit.num_classes,
            spec,
            rng=np.random.default_rng(config.seed),
        )
        self.payload = {
            "vit_config": vit,
            "backbone_state": backbone.state_dict(),
            "head_orders": head_orders,
            "neuron_orders": neuron_orders,
            "width": 1.0,
            "depth": vit.depth,
            "header_spec": spec,
            "header_state": template_header.state_dict(),
            "keep_fraction": 0.7,
        }

        profile_rng = np.random.default_rng([max(config.seed, 0), 13, index])
        devices = [
            ScaleDevice(
                DeviceProfile.synthesize(
                    first_device_id + slot,
                    vcpus=3 + (index + slot) % 5,
                    storage_limit=300_000,
                    rng=profile_rng,
                    num_patches=vit.num_patches,
                ),
                dataset,
                network,
                seed=config.seed + first_device_id + slot,
                state_store=self.store,
                set_size=config.set_size,
            )
            for slot in range(size)
        ]
        deadline: Optional[float] = None
        if config.deadline_quantile < 1.0:
            deadline = float(
                np.quantile(
                    [latency(d.profile, 1.0, vit.depth) for d in devices],
                    config.deadline_quantile,
                )
            )
        super().__init__(
            index,
            devices,
            dataset,
            network,
            EdgeConfig(round_deadline=deadline, seed=config.seed),
        )
        self.backbone = backbone
        self.assigned_width, self.assigned_depth = 1.0, vit.depth
        #: The whole of Eq. (21)'s weights: one uniform row shared by
        #: every target; a round's absentees are masked out of it and
        #: the rest renormalized, like any similarity row.
        self.similarity = np.full((1, size), 1.0 / size)
        self.front = ServingFront(backbone, micro_batch=MICRO_BATCH)

    def _weight_rows(self, rows) -> np.ndarray:
        """The one uniform row, whoever the targets are."""
        return self.similarity

    def distribute(self) -> int:
        """Phase-2 model distribution; returns devices provisioned."""
        return self._distribute(self.payload)

    def run_round(self, round_index: int, policy: Optional[FaultPolicy]) -> int:
        """One aggregation round; returns the fresh sets that arrived.

        ``policy`` must be the fabric's own (the round reads it from
        there).  A round in which no device is on time is a recorded
        0.0-participation no-op rather than the edge's
        :class:`~repro.distributed.faults.ProtocolError`: at fleet scale
        a small cluster can be churned off whole.
        """
        if policy is not self.network.fault_policy:
            raise ValueError(
                f"{self.name}: run_round was handed a fault policy that is "
                f"not the one installed on the fabric"
            )
        participants = self._round_participants(round_index)
        if not participants:
            self.round_participation.append(0.0)
            return 0
        return self._exchange(round_index, participants)

    def serve(self, round_index: int) -> int:
        """Queue + flush one round's eval requests; returns served count."""
        count = min(self.scale_config.eval_requests, len(self.devices))
        if count == 0:
            return 0
        rng = np.random.default_rng(
            [max(self.scale_config.seed, 0), 97, self.index, round_index]
        )
        picks = sorted(
            int(p) for p in rng.choice(len(self.devices), count, replace=False)
        )
        tickets = []
        for i in picks:
            device = self.devices[i]
            if not (device.active and device.has_model):
                continue
            device._ensure_live()
            # The front holds the header reference, so a later touch in
            # this loop evicting the device cannot invalidate the queue.
            tickets.append(
                self.front.submit(device.header, device.eval_dataset())
            )
        self.front.flush()
        for ticket in tickets:
            self.front.result(ticket)
        return len(tickets)


@dataclass
class ScaleReport:
    """Everything a campaign measured, JSON-ready via :meth:`to_dict`."""

    num_devices: int
    cluster_sizes: List[int]
    rounds: int
    contributions: int
    round_seconds: float
    devices_per_round_second: float
    eval_requests_served: int
    serving_seconds: float
    requests_per_second: float
    #: Mean over clusters and rounds of fresh sets ÷ cluster size.
    participation: float
    stragglers: int
    #: Sets carried forward into a below-quorum round's aggregate on
    #: behalf of devices whose upload never arrived.
    carried: int
    #: Model / personalized-set downlinks that exhausted their retries.
    failed_deliveries: int
    hydrations: int
    evictions: int
    live_headers: int
    peak_memory_mb: Optional[float]
    total_megabytes: float
    #: CRC over every device's :attr:`ScaleDevice.sets_crc`, in device
    #: order: the aggregated floats the downlinks carried.
    sets_crc: int
    kind_counts: Dict[str, int] = field(default_factory=dict)
    fault_counts: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def digest(self) -> Dict[str, Dict[str, object]]:
        """The campaign in two halves, each comparable with ``==``, like
        :meth:`~repro.distributed.system.ACMERunResult.digest`:
        ``protocol`` holds what went over the fabric and through the
        device stores (residency counters included) — integers no BLAS
        build moves; ``numeric`` what the campaign computed.  Timings and
        peak memory are in neither.
        """
        return {
            "protocol": {
                "cluster_sizes": list(self.cluster_sizes),
                "contributions": self.contributions,
                "kind_counts": dict(sorted(self.kind_counts.items())),
                "total_bytes": int(round(self.total_megabytes * 1e6)),
                "fault_counts": dict(sorted(self.fault_counts.items())),
                "failed_deliveries": self.failed_deliveries,
                "stragglers": self.stragglers,
                "carried": self.carried,
                "eval_requests_served": self.eval_requests_served,
                "hydrations": self.hydrations,
                "evictions": self.evictions,
                "live_headers": self.live_headers,
            },
            "numeric": {
                "participation": self.participation,
                "sets_crc": self.sets_crc,
            },
        }


def run_scale_campaign(
    config: Optional[ScaleConfig] = None, measure_memory: bool = False
) -> ScaleReport:
    """Build the fleet, run every round and serving wave, report.

    With ``measure_memory=True`` the whole campaign — fleet construction
    included — runs under :mod:`tracemalloc` and the report carries the
    peak traced size in MiB (roughly 2× slower; leave it off when
    measuring throughput).
    """
    cfg = config or ScaleConfig()
    if measure_memory:
        tracemalloc.start()
    try:
        network = Network(ledger=cfg.ledger)
        policy: Optional[FaultPolicy] = None
        if cfg.drop > 0.0 or cfg.churn > 0.0:
            policy = FaultPolicy(
                FaultConfig(
                    seed=cfg.seed,
                    drop=cfg.drop,
                    churn=cfg.churn,
                    retries=cfg.retries,
                )
            )
            network.install_fault_policy(policy)

        sizes = heavy_tailed_sizes(
            cfg.num_devices, cfg.num_clusters, cfg.zipf_exponent
        )
        clusters: List[ScaleCluster] = []
        first_device_id = 0
        for index, size in enumerate(sizes):
            clusters.append(
                ScaleCluster(index, size, first_device_id, network, cfg)
            )
            first_device_id += size
        for cluster in clusters:
            cluster.distribute()

        start = time.perf_counter()
        contributions = 0
        for round_index in range(cfg.rounds):
            for cluster in clusters:
                contributions += cluster.run_round(round_index, policy)
        round_seconds = time.perf_counter() - start

        start = time.perf_counter()
        served = 0
        for round_index in range(cfg.rounds):
            for cluster in clusters:
                served += cluster.serve(round_index)
        serving_seconds = time.perf_counter() - start

        peak_mb: Optional[float] = None
        if measure_memory:
            _current, peak = tracemalloc.get_traced_memory()
            peak_mb = peak / 2**20
    finally:
        if measure_memory:
            tracemalloc.stop()

    rates = [p for c in clusters for p in c.round_participation]
    stores = [c.store for c in clusters]
    return ScaleReport(
        num_devices=cfg.num_devices,
        cluster_sizes=sizes,
        rounds=cfg.rounds,
        contributions=contributions,
        round_seconds=round_seconds,
        devices_per_round_second=contributions / max(round_seconds, 1e-9),
        eval_requests_served=served,
        serving_seconds=serving_seconds,
        requests_per_second=served / max(serving_seconds, 1e-9),
        participation=float(np.mean(rates)) if rates else 0.0,
        stragglers=sum(c.stragglers for c in clusters),
        carried=sum(c.carried for c in clusters),
        failed_deliveries=sum(c.failed_deliveries for c in clusters),
        hydrations=sum(s.hydrations for s in stores),
        evictions=sum(s.evictions for s in stores),
        live_headers=sum(
            1 for c in clusters for d in c.devices if d.header is not None
        ),
        peak_memory_mb=peak_mb,
        total_megabytes=network.stats.total_megabytes(),
        sets_crc=zlib.crc32(
            b"".join(d.sets_crc.to_bytes(4, "big") for c in clusters for d in c.devices)
        ),
        kind_counts=dict(network.kind_counts),
        fault_counts=network.fault_counts(),
    )
