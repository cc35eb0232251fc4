"""The full ACME system: build the hierarchy, run the protocol end-to-end.

:class:`ACMESystem` assembles cloud, edge servers and devices from an
:class:`ACMEConfig`, wires them through a byte-accounted network, and runs
the complete pipeline of Fig. 4:

1. cloud pretrains θ0 and generates the dynamic backbone (§III-B1);
2. every edge uploads statistics, receives its PFG-selected backbone
   (§III-B2);
3. every edge runs header NAS and distributes models (§III-C);
4. every cluster runs the personalized-aggregation single loop (§III-D);
5. devices fine-tune and report accuracy.

The result object carries per-device accuracies, per-cluster assignments,
and the full traffic ledger — everything the evaluation section needs.
"""

from __future__ import annotations

import contextlib
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.checks import check_count
from repro.core.distill import DistillConfig
from repro.core.nas import NASConfig
from repro.data.dataset import ArrayDataset, merge
from repro.data.partition import partition_dirichlet
from repro.data.synthetic import SyntheticImageGenerator, make_cifar100_like
from repro.distributed.cloud import CloudConfig, CloudServer
from repro.distributed.device import DeviceNode
from repro.distributed.edge import EdgeConfig, EdgeServer
from repro.distributed.executor import ExecutionPlan
from repro.distributed.faults import FaultConfig, FaultPolicy
from repro.distributed.metrics import centralized_upload_bytes
from repro.distributed.network import Network, NetworkShard, TrafficStats
from repro.distributed.state_store import DeviceStateLRU
from repro.hw.profiles import DeviceProfile, make_fleet
from repro.models.vit import ViTConfig, VisionTransformer
from repro.nn.tensor import using_dtype

#: The share of each device's data an edge keeps as its shared set (the
#: 10-20 % of §IV-A).
SHARED_FRACTION = 0.15
#: Device storage limits in parameters, assigned round-robin.
STORAGE_LEVELS = (20_000, 30_000, 40_000, 50_000, 60_000)


@dataclass
class ACMEConfig:
    """Top-level configuration of a system run.

    Defaults are sized for CPU execution: 2 clusters × 3 devices with a
    small ViT.  Scale ``num_clusters``/``devices_per_cluster`` up for the
    paper's 10 × 5 testbed.
    """

    num_clusters: int = 2
    devices_per_cluster: int = 3
    num_classes: int = 8
    samples_per_class: int = 48
    public_samples_per_class: int = 24
    dirichlet_alpha: float = 0.6  # reprolint: knob -- Dirichlet α of the non-IID split
    #: Derived from the other fields in ``__post_init__`` when not given
    #: (``Optional`` + post-init, since the defaults depend on
    #: ``num_classes``/``seed``/each other).
    vit: Optional[ViTConfig] = None
    cloud: Optional[CloudConfig] = None
    edge: Optional[EdgeConfig] = None
    device_importance: object = None  # Optional[ImportanceConfig]
    finalize: bool = True  # run final fine-tune + evaluation
    #: Engine compute precision for this run ("float32" or "float64").
    #: The engine default dtype is scoped to construction and ``run()``
    #: (models are built in both) and restored on exit, so it never
    #: leaks into the rest of the process.
    #:
    #: float32 by default: the run computes in float32 and ships float32
    #: backbones and headers, which cuts the benchmark campaigns' wire
    #: bytes by 33–40 % and leaves the protocol — message kinds, upload
    #: bytes, (w, d) assignments — as it was under float64
    #: (PERFORMANCE.md).
    #: Pass ``"float64"`` for full precision, as the finite-difference
    #: and bit-parity fixtures do, or ``None`` to inherit the ambient
    #: engine default.  ``scripts/parity.py`` sets it to float64 inside
    #: the subprocess template it runs, a string the static pass cannot
    #: read: that is the float64 half of the digest contract CI checks.
    compute_dtype: Optional[str] = "float32"  # reprolint: knob -- parity.py's float64 digest half
    #: Where the work runs — cross-edge width and per-device / NAS-child
    #: width: the one declaration of execution placement
    #: (:class:`~repro.distributed.executor.ExecutionPlan`).  Every plan
    #: reproduces the serial run bit-for-bit in either dtype, traffic
    #: ledger included (tests/distributed/test_cross_edge_parallel.py).
    execution: ExecutionPlan = ExecutionPlan()
    #: Seeded chaos campaign for this run: drop/corrupt/duplicate/delay
    #: rates, retry/backoff budgets, churn probability and permanently
    #: dead devices (:class:`~repro.distributed.faults.FaultConfig`).
    #: ``None`` (the default) installs no policy — the fabric and the
    #: protocol are bit-for-bit the fault-free system.  With a config,
    #: the same seed replays the identical fault log, traffic ledger and
    #: results (tests/distributed/test_chaos.py); pair with
    #: ``edge.round_quorum < 1.0`` for partial-round aggregation.
    fault_config: Optional[FaultConfig] = None
    #: Live devices per cluster: the capacity of each cluster's
    #: :class:`~repro.distributed.state_store.DeviceStateLRU`, through
    #: which every device installs its model and borrows the cluster's
    #: one frozen backbone.  ``None`` (the default) never evicts; with a
    #: bound, devices materialize headers on first touch and cold
    #: per-device state (header params, prune-mask state, cached feature
    #: samples) is evicted down to its snapshot arrays, so memory per
    #: cluster follows the capacity instead of the cluster size.  Every
    #: capacity is bit-for-bit identical — tested in
    #: tests/distributed/test_state_store.py.
    device_state_capacity: Optional[int] = None  # reprolint: knob -- safety limit: residency
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("num_clusters", self.num_clusters, 1)
        check_count("devices_per_cluster", self.devices_per_cluster, 1)
        if self.vit is None:
            self.vit = ViTConfig(num_classes=self.num_classes, depth=4, embed_dim=32)
        if self.cloud is None:
            self.cloud = CloudConfig(
                pretrain_epochs=4,
                distill=DistillConfig(epochs=2, seed=self.seed),
                seed=self.seed,
            )
        if self.edge is None:
            self.edge = EdgeConfig(
                nas=NASConfig(
                    num_blocks=2,
                    search_epochs=2,
                    children_per_epoch=2,
                    shared_steps_per_child=3,
                    controller_updates_per_epoch=2,
                    derive_samples=3,
                    train_backbone=False,
                    seed=self.seed,
                ),
                keep_fraction=0.8,
                seed=self.seed,
            )


@dataclass
class FleetData:
    """Everything data/hardware-side a run needs, built purely from seed.

    Construction is a pure function of ``(ACMEConfig, generator seed)``:
    the partition, the per-device train/test splits and the edge shared
    samples all draw from one ``default_rng(cfg.seed)`` in a fixed order.
    That is the multiprocess determinism contract — the supervisor's
    cloud and edge processes each call :func:`build_fleet_data` locally
    and reconstruct bit-identical datasets without shipping a byte of
    data across the wire (only protocol messages travel).
    """

    generator: SyntheticImageGenerator
    public_dataset: ArrayDataset
    device_datasets: List[ArrayDataset]
    device_test_sets: List[ArrayDataset]
    fleet: List[List[DeviceProfile]]
    shared_datasets: List[ArrayDataset]
    rng: np.random.Generator


def build_fleet_data(
    config: ACMEConfig, generator: Optional[SyntheticImageGenerator] = None
) -> FleetData:
    """Build datasets, splits, fleet profiles and edge shared sets.

    RNG draw order (the bit-parity contract with the pre-refactor
    ``ACMESystem._build``): dirichlet partition, then every device's
    test/train split in device order, then every cluster's shared-sample
    draws in cluster order.  Nothing between those draws touches the
    run RNG.
    """
    cfg = config
    generator = generator or make_cifar100_like(
        num_classes=cfg.num_classes, image_size=cfg.vit.image_size, seed=cfg.seed
    )
    rng = np.random.default_rng(cfg.seed)
    public_dataset = generator.generate(
        cfg.public_samples_per_class, seed=1000 + cfg.seed, name="public"
    )
    full = generator.generate(cfg.samples_per_class, seed=2000 + cfg.seed, name="fleet")
    total_devices = cfg.num_clusters * cfg.devices_per_cluster
    shards = partition_dirichlet(
        full, total_devices, cfg.dirichlet_alpha, rng, min_samples=12
    )
    # Each device holds out a quarter of its shard for evaluation:
    # personalized models are judged on the device's *own* data
    # distribution (the paper's per-device accuracy).
    device_datasets: List[ArrayDataset] = []
    device_test_sets: List[ArrayDataset] = []
    for shard in shards:
        test, train = shard.split(0.25, rng)
        device_datasets.append(train)
        device_test_sets.append(test)
    fleet = make_fleet(
        num_clusters=cfg.num_clusters,
        devices_per_cluster=cfg.devices_per_cluster,
        seed=cfg.seed,
        storage_levels=STORAGE_LEVELS,
    )
    # Edge shared datasets: a fraction of each device's data (the
    # 10-20% of §IV-A), drawn cluster by cluster.
    shared_datasets: List[ArrayDataset] = []
    for cluster_idx in range(cfg.num_clusters):
        base = cluster_idx * cfg.devices_per_cluster
        local_sets = device_datasets[base : base + cfg.devices_per_cluster]
        shared_parts = [
            d.sample(max(2, int(SHARED_FRACTION * len(d))), rng)
            for d in local_sets
        ]
        shared_datasets.append(merge(shared_parts, name=f"edge{cluster_idx}-shared"))
    return FleetData(
        generator=generator,
        public_dataset=public_dataset,
        device_datasets=device_datasets,
        device_test_sets=device_test_sets,
        fleet=fleet,
        shared_datasets=shared_datasets,
        rng=rng,
    )


def build_cluster(
    config: ACMEConfig, data: FleetData, cluster_idx: int, network: Network
) -> EdgeServer:
    """Construct one cluster's devices + edge server on a fabric.

    The unit a supervisor edge process builds: only this cluster's
    devices register on ``network``, and every seeded input
    (``cfg.seed + device_id``, the pre-drawn datasets in ``data``) is
    position-independent, so a cluster built alone is identical to the
    same cluster built inside a full :class:`ACMESystem`.
    """
    cfg = config
    profiles = data.fleet[cluster_idx]
    store = DeviceStateLRU(cfg.device_state_capacity)
    devices = []
    base = cluster_idx * cfg.devices_per_cluster
    for offset, profile in enumerate(profiles):
        index = base + offset
        devices.append(
            DeviceNode(
                profile,
                data.device_datasets[index],
                network,
                test_dataset=data.device_test_sets[index],
                importance_config=cfg.device_importance,
                seed=cfg.seed + profile.device_id,
                state_store=store,
            )
        )
    return EdgeServer(
        cluster_idx,
        devices,
        data.shared_datasets[cluster_idx],
        network,
        cfg.edge,
        plan=cfg.execution.split(cfg.num_clusters),
    )


def arm_fault_policy(
    network: Network, config: ACMEConfig, edges: Sequence[EdgeServer]
) -> Optional[FaultPolicy]:
    """Install the configured chaos policy and retire dead devices.

    Installed before any traffic flows so the policy's per-link attempt
    counters cover the whole run (seed replayability).  Permanently dead
    devices leave the fabric immediately: they never receive a model and
    never contribute a set.  Shared by :class:`ACMESystem` and the
    multiprocess supervisor (each edge process arms its own policy from
    the same config — fault draws are pure per-link functions, so the
    distributed draws equal the loopback ones).
    """
    if config.fault_config is None:
        return None
    policy = FaultPolicy(config.fault_config)
    network.install_fault_policy(policy)
    for edge in edges:
        for device in edge.devices:
            if policy.is_dead(device.profile.device_id):
                device.deactivate()
    return policy


@dataclass
class ClusterResult:
    """Per-cluster outcome."""

    edge_name: str
    width: float
    depth: int
    device_accuracies: List[float] = field(default_factory=list)
    device_losses: List[float] = field(default_factory=list)
    #: Fraction of the cluster that contributed a fresh importance set,
    #: per aggregation round.  All 1.0 on a fault-free run; < 1.0 rounds
    #: mark drops the quorum machinery absorbed, churned-off devices, or
    #: permanently dead ones.
    round_participation: List[float] = field(default_factory=list)
    #: Protocol-level retries this edge spent (round re-polls and
    #: backbone-exchange repeats; message-level retries are counted on
    #: the network ledger).
    protocol_retries: int = 0
    #: :func:`state_crc` of each provisioned device's final header
    #: parameters, in device order, and of the deployed backbone.
    header_crcs: List[int] = field(default_factory=list)
    backbone_crc: int = 0


def state_crc(state: Mapping[str, np.ndarray]) -> int:
    """CRC-32 over a state dict: each name, dtype, shape and the bytes."""
    crc = 0
    for name, value in state.items():
        value = np.ascontiguousarray(value)
        crc = zlib.crc32(f"{name}:{value.dtype.str}:{value.shape}".encode(), crc)
        crc = zlib.crc32(value, crc)
    return crc


@dataclass
class ACMERunResult:
    """Everything a full system run produces."""

    clusters: List[ClusterResult]
    traffic: TrafficStats
    centralized_upload_bytes: int
    message_kinds: List[str]
    #: Per-edge sub-sequence of ``message_kinds``: the kinds each edge's
    #: network shard recorded, in that edge's program order.  Serial and
    #: cross-edge-parallel runs produce identical sub-sequences (the
    #: global sequence is their concatenation in edge index order).
    edge_message_kinds: Dict[str, List[str]] = field(default_factory=dict)
    #: Robustness telemetry (all zero / empty on a fault-free run):
    #: injected faults by class, message-level retry and attempt totals
    #: from the merged network ledger, and sends that exhausted their
    #: retries.
    fault_counts: Dict[str, int] = field(default_factory=dict)
    total_retries: int = 0
    delivery_attempts: int = 0
    failed_deliveries: int = 0

    def digest(self) -> Dict[str, Dict[str, object]]:
        """The run in two halves, each comparable with ``==``.

        ``protocol`` is what went over the fabric: message count and
        kinds CRC, upload and total bytes, fault counts, retries,
        delivery attempts, failed deliveries and the (w, d)
        assignments — integers no BLAS build or rounding moves.
        ``numeric`` is what the run computed: device accuracies and
        losses, and the CRC of every device's final header and every
        cluster's deployed backbone.
        """
        kinds = self.message_kinds
        return {
            "protocol": {
                "messages": len(kinds),
                "kinds_crc": zlib.crc32(" ".join(kinds).encode()),
                "upload_bytes": self.traffic.upload_bytes,
                "total_bytes": self.traffic.total_bytes,
                "fault_counts": dict(sorted(self.fault_counts.items())),
                "retries": self.total_retries,
                "delivery_attempts": self.delivery_attempts,
                "failed_deliveries": self.failed_deliveries,
                "assignments": [[c.width, c.depth] for c in self.clusters],
            },
            "numeric": {
                "accuracies": [list(c.device_accuracies) for c in self.clusters],
                "losses": [list(c.device_losses) for c in self.clusters],
                "header_crcs": [list(c.header_crcs) for c in self.clusters],
                "backbone_crcs": [c.backbone_crc for c in self.clusters],
            },
        }

    @property
    def mean_accuracy(self) -> float:
        accs = [a for c in self.clusters for a in c.device_accuracies]
        return float(np.mean(accs)) if accs else float("nan")

    @property
    def participation(self) -> float:
        """Mean fresh-contribution rate across all clusters and rounds.

        1.0 when every device answered every aggregation round; below
        that, drops/churn/dead devices left degraded rounds behind.
        Runs without aggregation telemetry (protocol-only paths) report
        1.0.
        """
        rates = [r for c in self.clusters for r in c.round_participation]
        return float(np.mean(rates)) if rates else 1.0

    @property
    def upload_ratio_vs_centralized(self) -> float:
        """ACME upload bytes ÷ centralized upload bytes (paper: ≈6%)."""
        if self.centralized_upload_bytes == 0:
            return float("nan")
        return self.traffic.upload_bytes / self.centralized_upload_bytes


def dtype_scope(config: ACMEConfig):
    """Context applying ``config.compute_dtype`` to everything inside it.

    Wraps system construction, ``run()`` and each worker process of a
    multiprocess run.  The engine default is restored on exit, so a
    float32 system never leaks its dtype into the rest of the process.
    Callers driving protocol phases manually (outside ``run()``) should
    wrap them in ``repro.nn.using_dtype`` themselves.
    """
    if config.compute_dtype is not None:
        return using_dtype(config.compute_dtype)
    return contextlib.nullcontext()


def run_edge_phases(
    config: ACMEConfig,
    edge: EdgeServer,
    checkpoint: Optional[Callable[[str], None]] = None,
) -> ClusterResult:
    """One edge's complete phase-2/3/4 protocol sequence + finalize.

    The pure protocol body shared by :meth:`ACMESystem.run_edge_pipeline`
    (which wraps it in a network-shard scope) and the multiprocess
    supervisor's edge workers (which run it against their own wire
    fabric).  ``checkpoint`` is called with a phase name after each
    phase — the supervisor's fault-injection hook (e.g. SIGKILL the
    process mid-campaign in the kill-an-edge test).
    """
    mark = checkpoint if checkpoint is not None else (lambda phase: None)
    # Phase 1: cloud ↔ edge bidirectional interaction.
    edge.request_backbone()
    mark("backbone")
    # Phase 2-1: header generation + distribution.
    edge.search_header()
    mark("search")
    edge.distribute_models()
    mark("distribute")
    # Phase 2-2: the single loop.
    edge.aggregation_loop()
    mark("aggregate")
    # Final fine-tune + evaluation (skipped in protocol-only runs,
    # e.g. the Table I traffic accounting where only byte counts
    # matter — payload sizes depend on shapes, not trained values).
    evals = edge.finalize() if config.finalize else []
    mark("finalize")
    return ClusterResult(
        edge_name=edge.name,
        width=edge.assigned_width or 1.0,
        depth=edge.assigned_depth or config.vit.depth,
        device_accuracies=[e["accuracy"] for e in evals],
        device_losses=[e["loss"] for e in evals],
        round_participation=list(edge.round_participation),
        protocol_retries=edge.round_retry_total,
        header_crcs=[
            state_crc(d.header_parameters()) for d in edge.devices if d.has_model
        ],
        backbone_crc=(
            0 if edge.backbone is None else state_crc(edge.backbone.state_dict())
        ),
    )


def run_multiprocess(config: ACMEConfig, **kwargs) -> ACMERunResult:
    """Run the system as real processes over the TCP wire transport.

    One cloud process (a :class:`~repro.distributed.transport.WireHub`)
    plus one process per edge cluster (each hosting its devices on a
    local :class:`~repro.distributed.transport.WireFabric` and dialing
    the hub).  Keyword arguments are forwarded to
    :func:`repro.distributed.supervisor.run_multiprocess` — transport
    knobs, per-edge deadlines and the kill-an-edge test hooks.  A
    seeded run reproduces the loopback :meth:`ACMESystem.run` result
    bit-for-bit (``kind_sequence()`` and accuracies included); a
    crashed edge degrades the run instead of failing it.
    """
    from repro.distributed.supervisor import run_multiprocess as _run

    return _run(config, **kwargs)


class ACMESystem:
    """Builds and runs the three-tier ACME deployment."""

    def __init__(
        self,
        config: Optional[ACMEConfig] = None,
        generator: Optional[SyntheticImageGenerator] = None,
    ) -> None:
        self.config = config or ACMEConfig()
        with dtype_scope(self.config):
            self._build(generator)

    def _build(self, generator: Optional[SyntheticImageGenerator]) -> None:
        cfg = self.config
        data = build_fleet_data(cfg, generator)
        self.generator = data.generator
        self.network = Network()
        self.rng = data.rng
        #: Per-edge message-kind sub-sequences of the last cluster loop.
        self._edge_message_kinds: Dict[str, List[str]] = {}
        self.public_dataset = data.public_dataset
        self.device_datasets = data.device_datasets
        self.device_test_sets = data.device_test_sets
        self.fleet = data.fleet

        # --- nodes -------------------------------------------------------
        reference = VisionTransformer(cfg.vit, seed=cfg.seed)
        self.cloud = CloudServer(
            reference, self.public_dataset, self.network, cfg.cloud
        )
        self.edges: List[EdgeServer] = [
            build_cluster(cfg, data, cluster_idx, self.network)
            for cluster_idx in range(cfg.num_clusters)
        ]

        # --- fault injection -------------------------------------------
        arm_fault_policy(self.network, cfg, self.edges)

    # ------------------------------------------------------------------
    def run(self) -> ACMERunResult:
        """Execute the full pipeline and gather results."""
        with dtype_scope(self.config):
            return self._run()

    def _run(self) -> ACMERunResult:
        self.run_cloud_phases()
        clusters = self.run_cluster_loop()
        return ACMERunResult(
            clusters=clusters,
            traffic=self.network.stats,
            centralized_upload_bytes=centralized_upload_bytes(self.device_datasets),
            message_kinds=self.network.kind_sequence(),
            edge_message_kinds=dict(self._edge_message_kinds),
            fault_counts=self.network.fault_counts(),
            total_retries=self.network.retry_count,
            delivery_attempts=self.network.delivery_attempts,
            failed_deliveries=self.network.failed_deliveries,
        )

    def run_cloud_phases(self) -> None:
        """Phase 0/1 cloud-side setup (no network traffic).

        Pretrains θ0, generates the dynamic backbone, and precomputes
        the PFG candidate loss grid — after which every piece of state
        the cloud's request path reads is immutable, the precondition
        for serving concurrent edges.
        """
        with dtype_scope(self.config):
            self.cloud.pretrain_reference()
            self.cloud.generate_dynamic_backbone()
            self.cloud.prepare_candidates()

    def run_edge_pipeline(
        self, edge: EdgeServer, shard: Optional[NetworkShard] = None
    ) -> ClusterResult:
        """One edge's complete phase-2/3/4 pipeline + finalize.

        This is the schedulable unit of the cross-edge fan-out: it
        touches only the edge's own state (its devices, header search,
        similarity matrix), the cloud's immutable/per-edge-safe request
        path, and — when ``shard`` is given — that shard's private
        ledger, so any number of edges can run concurrently.

        Applies ``compute_dtype`` like the other phase methods do
        (re-entering the scope is a no-op under ``run_cluster_loop``),
        so edge-by-edge drivers stay bit-identical to ``run()`` under
        the float32 engine default.
        """
        scope = shard.activate() if shard is not None else contextlib.nullcontext()
        with dtype_scope(self.config), scope:
            return run_edge_phases(self.config, edge)

    def run_cluster_loop(self) -> List[ClusterResult]:
        """Run every edge's pipeline, possibly concurrently.

        Each edge sends through its own network shard; the shards are
        merged into the global ledger in edge index order afterwards, so
        the traffic statistics and the message log are bit-identical to
        the serial edge-by-edge loop for any cross-edge width.
        Cluster results come back in edge order (``parallel_map``'s
        input-order contract).
        """
        with dtype_scope(self.config):
            shards = [self.network.shard(edge.name) for edge in self.edges]
            try:
                clusters = self.config.execution.map_edges(
                    lambda pair: self.run_edge_pipeline(*pair),
                    list(zip(self.edges, shards)),
                )
            finally:
                # Merge even when a pipeline raised, so the traffic the
                # completed edges recorded stays inspectable on the
                # global ledger instead of dying with the local shards.
                # Capture per-edge sub-sequences first — the merge
                # drains the shard ledgers.
                self._edge_message_kinds = {
                    shard.owner: shard.kind_sequence() for shard in shards
                }
                self.network.merge_shards(shards)
        return clusters

    # reprolint: unreached -- fabric teardown: unregisters every node so a driver can rebuild a
    # system on the same fabric; the cross-edge parity suite releases its fabrics with it
    def dispose(self) -> None:
        """Unregister every node from the fabric.

        Frees names only: it makes the node names available again while
        this system is still alive, for tests or drivers that rebuild
        systems against a fabric.  Memory needs no call — the fabric and
        the device stores hold their nodes weakly, so dropping the last
        reference to a system frees it by refcount, and a collected
        node's name is free again anyway.
        """
        for edge in self.edges:
            for device in edge.devices:
                # Churned-off / dead devices already left the fabric.
                if device.active:
                    self.network.unregister(device.name)
            self.network.unregister(edge.name)
        self.network.unregister(self.cloud.name)

    def run_centralized_baseline(self) -> TrafficStats:
        """Traffic of the CS baseline: every device uploads its dataset.

        Uses a dedicated network so the ACME run's ledger is untouched.
        """
        baseline_net = Network()
        baseline_net.register("cloud-cs", lambda m: None)
        for edge in self.edges:
            for device in edge.devices:
                message = device.dataset_upload_message("cloud-cs")
                baseline_net.send(message)
        return baseline_net.stats
