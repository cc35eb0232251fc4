"""The workloads: what an operator launches and waits for.

Four are declared in ``BENCHMARK.json`` and carry the bounded end-to-end
metrics; ``campaign_tcp`` and ``scale_serve`` are *layer-only*: the
harness runs their traced pass in every ``--trace 1`` invocation for the
``supervisor.*`` and ``serving.*`` metrics (README, "Workloads").

Every workload is a closed loop driven from one process: the next
repetition starts when the previous one returned.  A workload owns three
things — the inputs it generates from the seed, the *timed region*
(``run``: one repetition of what the operator waits for, returning an
:class:`Outcome` whose digest is the replay contract), and the *traced
pass* (``run_traced``: the same work driven layer by layer through
public functions, each call wrapped in a benchmark-owned span).  The
program only ever receives the generated configs and inputs.

Seeds.  A campaign's cost is chaotic in its *data* seed: the header NAS
and the cloud's (w, d) choice pick architectures whose cost and ledger
bytes differ by 2× between seeds (README, "Sizing").  A benchmark that
must hold a 10 % line across seeds cannot ride on that, so the campaign
workloads pin the data/fleet/search seed (``DATA_SEED``) and let
``--seed`` drive everything *downstream* of the searches: the devices'
local-training streams, the deployed header's initialisation and the
similarity projections.  Accuracies and every transmitted value change
with the seed; the amount of work does not.  ``wire_exchange`` and the
scale workloads take the seed whole.
"""

from __future__ import annotations

import contextlib
import os
import resource
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.header_importance import ImportanceConfig
from repro.distributed.faults import FaultConfig, FaultPolicy
from repro.distributed.messages import Message, MessageKind
from repro.distributed.metrics import centralized_upload_bytes
from repro.distributed.network import Network
from repro.distributed.scale import (
    ScaleCluster,
    ScaleConfig,
    heavy_tailed_sizes,
    run_scale_campaign,
)
from repro.distributed.system import (
    ACMEConfig,
    ACMERunResult,
    ACMESystem,
    run_edge_phases,
    run_multiprocess,
)
from repro.distributed.transport import TcpTransport
from repro.distributed.wire import encode_message, frame
from repro.hw.profiles import DeviceProfile, cluster_statistics
from repro.models.vit import ViTConfig, VisionTransformer
from repro.nn.tensor import using_dtype

from .probes import wire_probes
from .spans import SpanRecorder

#: Data / fleet / search seed of the campaign workloads (see module doc).
DATA_SEED = 0

#: ``run_edge_phases`` checkpoint name → the span that phase closes.
EDGE_PHASE_SPANS = {
    "backbone": "edge.request_backbone",
    "search": "edge.search_header",
    "distribute": "edge.distribute",
    "aggregate": "edge.aggregation",
    "finalize": "edge.finalize",
}


class GateError(AssertionError):
    """A correctness gate failed: no metric may be printed."""


@dataclass
class Outcome:
    """What one repetition produced, reduced to what the gates compare."""

    attempted: int
    failed: int
    upload_bytes: int
    total_bytes: int
    #: Throughput units of one repetition (stated per workload).
    units: int
    #: The replay contract: one ``(workload, seed)`` gives one digest,
    #: repetition after repetition, traced or not.
    digest: Dict[str, object] = field(default_factory=dict)
    #: Seeded per-layer counts read off the program's public counters.
    counters: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Interface the harness drives; see the module docstring."""

    name = ""
    #: Throughput unit of one operation (printed as ``<unit>/s``).
    unit = ""
    #: True when one core loses the workload no parallelism (CPU time
    #: equals wall time): the harness then runs each repetition on a
    #: single CPU, alternating CPUs (``Invocation.timed``).  The BLAS
    #: campaigns are never placed.
    one_cpu = False
    #: Timed regions one traced pass holds (``trace.overhead_share``
    #: compares per region).
    traced_regions = 1

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = int(seed)
        self.smoke = bool(smoke)

    #: The warm-up's outcome and duration, set by :meth:`setup`.  Its
    #: digest is the reference every later repetition must reproduce.
    warm: Outcome
    warm_s: float

    def setup(self) -> None:
        """Generate inputs, build timed-region state, warm up."""
        raise NotImplementedError

    def warm_up(self, fn: Callable[[], Outcome]) -> None:
        start = time.perf_counter()
        self.warm = fn()
        self.warm_s = time.perf_counter() - start

    def run(self) -> Outcome:
        raise NotImplementedError

    def run_traced(self, rec: SpanRecorder) -> Outcome:
        raise NotImplementedError

    def layer_metrics(self, rec: SpanRecorder, outcome: Outcome) -> Dict[str, float]:
        """The per-layer metrics this workload's traced pass owns."""
        return {}

    def teardown(self) -> None:
        """Release what ``setup`` opened."""


# ---------------------------------------------------------------------------
# Campaigns (loopback and TCP)
# ---------------------------------------------------------------------------
def _seeded(cfg: ACMEConfig, seed: int) -> ACMEConfig:
    cfg.edge.seed = seed
    cfg.device_importance = ImportanceConfig(seed=seed)
    return cfg


def cloud_config(seed: int, smoke: bool) -> ACMEConfig:
    """Cloud-heavy: a deep reference ViT, a 4×6 candidate grid, 2 devices."""
    if smoke:
        vit = ViTConfig(num_classes=4, depth=2, embed_dim=16, num_heads=2)
        cfg = ACMEConfig(
            num_clusters=1, devices_per_cluster=2, num_classes=4,
            samples_per_class=12, public_samples_per_class=6, vit=vit,
            seed=DATA_SEED,
        )
    else:
        vit = ViTConfig(num_classes=8, depth=6, embed_dim=32)
        cfg = ACMEConfig(
            num_clusters=1, devices_per_cluster=2, samples_per_class=8,
            public_samples_per_class=6, vit=vit, seed=DATA_SEED,
        )
    cfg.cloud.pretrain_epochs = 2
    return _seeded(cfg, seed)


def edge_config(seed: int, smoke: bool) -> ACMEConfig:
    """Edge-heavy: a shallow cloud, many devices, more aggregation rounds."""
    if smoke:
        cfg = ACMEConfig(
            num_clusters=2, devices_per_cluster=2, num_classes=4,
            samples_per_class=12, public_samples_per_class=6,
            vit=ViTConfig(num_classes=4, depth=2, embed_dim=16, num_heads=2),
            seed=DATA_SEED,
        )
    else:
        cfg = ACMEConfig(
            num_clusters=2, devices_per_cluster=6, samples_per_class=24,
            public_samples_per_class=4, seed=DATA_SEED,
        )
        cfg.edge.aggregation_rounds = 3
    cfg.cloud.pretrain_epochs = 1
    cfg.cloud.distill.epochs = 1
    return _seeded(cfg, seed)


def campaign_outcome(result: ACMERunResult, cfg: ACMEConfig) -> Outcome:
    """Operation = one device ending with a model and a finite accuracy."""
    accuracies = [list(c.device_accuracies) for c in result.clusters]
    attempted = cfg.num_clusters * cfg.devices_per_cluster
    served = sum(1 for row in accuracies for a in row if np.isfinite(a))
    kinds = result.message_kinds
    return Outcome(
        attempted=attempted,
        failed=attempted - served,
        upload_bytes=result.traffic.upload_bytes,
        total_bytes=result.traffic.total_bytes,
        units=attempted,
        digest={
            "accuracies": accuracies,
            "assignments": [[c.width, c.depth] for c in result.clusters],
            "messages": len(kinds),
            "kinds_crc": zlib.crc32(" ".join(kinds).encode()),
            "upload_bytes": result.traffic.upload_bytes,
            "total_bytes": result.traffic.total_bytes,
            "fault_counts": dict(sorted(result.fault_counts.items())),
            "retries": result.total_retries,
            "delivery_attempts": result.delivery_attempts,
            "failed_deliveries": result.failed_deliveries,
        },
        counters={
            "network.messages": len(kinds),
            "edge.participation": result.participation,
        },
    )


def drive_campaign_phases(cfg: ACMEConfig, rec: SpanRecorder) -> ACMERunResult:
    """``ACMESystem.run()`` phase by phase, one span per protocol phase.

    The same calls ``run()`` makes, in the same order and scopes — the
    cloud's three set-up phases, then per edge ``run_edge_phases`` inside
    that edge's shard, then the ledger merge — so the result (ledger
    included) is the untraced run's, which the replay gate checks.
    """
    with rec.span("campaign"):
        with rec.span("system.build"):
            system = ACMESystem(cfg)
        with using_dtype(cfg.compute_dtype):
            with rec.span("cloud.pretrain"):
                system.cloud.pretrain_reference()
            with rec.span("cloud.backbone"):
                system.cloud.generate_dynamic_backbone()
            with rec.span("cloud.candidates"):
                system.cloud.prepare_candidates()
            clusters, shards = [], []
            for edge in system.edges:
                shard = system.network.shard(edge.name)
                with rec.span("edge.pipeline"), shard.activate():
                    last = [time.perf_counter()]

                    def mark(phase: str) -> None:
                        now = time.perf_counter()
                        rec.add(EDGE_PHASE_SPANS[phase], last[0], now)
                        last[0] = now

                    clusters.append(run_edge_phases(cfg, edge, checkpoint=mark))
                shards.append(shard)
            with rec.span("system.merge"):
                edge_kinds = {s.owner: s.kind_sequence() for s in shards}
                system.network.merge_shards(shards)
                network = system.network
                result = ACMERunResult(
                    clusters=clusters,
                    traffic=network.stats,
                    centralized_upload_bytes=centralized_upload_bytes(
                        system.device_datasets
                    ),
                    message_kinds=network.kind_sequence(),
                    edge_message_kinds=edge_kinds,
                    fault_counts=network.fault_counts(),
                    total_retries=network.retry_count,
                    delivery_attempts=network.delivery_attempts,
                    failed_deliveries=network.failed_deliveries,
                )
    return result


class _Campaign(Workload):
    """Loopback ``ACMESystem(cfg).run()``; timed = construct + run."""

    unit = "devices"
    config: Callable[[int, bool], ACMEConfig]
    #: Span name → per-layer metric this workload's traced pass reports.
    phase_metrics: Dict[str, str] = {}

    def cfg(self) -> ACMEConfig:
        return type(self).config(self.seed, self.smoke)

    def setup(self) -> None:
        self.warm_up(self.run)  # fills im2col / projection / BLAS caches

    def run(self) -> Outcome:
        cfg = self.cfg()
        return campaign_outcome(ACMESystem(cfg).run(), cfg)

    def run_traced(self, rec: SpanRecorder) -> Outcome:
        cfg = self.cfg()
        return campaign_outcome(drive_campaign_phases(cfg, rec), cfg)

    def layer_metrics(self, rec: SpanRecorder, outcome: Outcome) -> Dict[str, float]:
        return {
            metric: rec.total(span) for span, metric in self.phase_metrics.items()
        }


class CampaignCloud(_Campaign):
    """Cloud phases (pretrain, distill, (w, d) grid) are ~80 % of it."""

    name = "campaign_cloud"
    config = staticmethod(cloud_config)
    phase_metrics = {
        "system.build": "system.build_s",
        "cloud.pretrain": "cloud.pretrain_s",
        "cloud.backbone": "cloud.backbone_s",
        "cloud.candidates": "cloud.candidates_s",
    }


class CampaignEdge(_Campaign):
    """The mirror image: aggregation loop, finalize, header NAS are ~75 %."""

    name = "campaign_edge"
    config = staticmethod(edge_config)
    phase_metrics = {
        "edge.request_backbone": "edge.request_backbone_s",
        "edge.search_header": "edge.search_header_s",
        "edge.distribute": "edge.distribute_s",
        "edge.aggregation": "edge.aggregation_s",
        "edge.finalize": "edge.finalize_s",
    }

    def layer_metrics(self, rec: SpanRecorder, outcome: Outcome) -> Dict[str, float]:
        return {**super().layer_metrics(rec, outcome), **outcome.counters}


def cpu_seconds() -> float:
    """user+sys CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def live_children() -> List[int]:
    """PIDs of this process's direct children that still exist."""
    pids: List[int] = []
    task_dir = f"/proc/{os.getpid()}/task"
    try:
        for tid in os.listdir(task_dir):
            with open(f"{task_dir}/{tid}/children") as handle:
                pids.extend(int(p) for p in handle.read().split())
    except OSError:
        import multiprocessing

        pids = [p.pid for p in multiprocessing.active_children()]
    return pids


class CampaignTcp(Workload):
    """The ``campaign_edge`` config as cloud + edge OS processes over TCP."""

    name = "campaign_tcp"
    unit = "devices"

    def cfg(self) -> ACMEConfig:
        return edge_config(self.seed, self.smoke)

    def setup(self) -> None:
        # The warm-up is the *loopback* campaign: children fork from this
        # process, so they inherit its warm caches, and its digest being
        # the replay reference is the TCP-equals-loopback gate.
        cfg = self.cfg()
        self.warm_up(lambda: campaign_outcome(ACMESystem(cfg).run(), cfg))

    def run(self) -> Outcome:
        cfg = self.cfg()
        result = run_multiprocess(cfg, edge_timeout=150.0)
        outcome = campaign_outcome(result, cfg)
        # A degraded edge fails all its devices.
        crashed = result.fault_counts.get("crash", 0)
        outcome.failed = max(outcome.failed, crashed * cfg.devices_per_cluster)
        return outcome

    def run_traced(self, rec: SpanRecorder) -> Outcome:
        # The supervisor is seen from outside: its children are separate
        # processes the benchmark's recorder cannot enter.
        cpu0, start = cpu_seconds(), time.perf_counter()
        with rec.span("supervisor.run_multiprocess"):
            outcome = self.run()
        self.traced_wall = time.perf_counter() - start
        self.traced_cpu = cpu_seconds() - cpu0
        return outcome

    def layer_metrics(self, rec: SpanRecorder, outcome: Outcome) -> Dict[str, float]:
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return {
            "supervisor.wall_over_loopback": self.traced_wall / self.warm_s,
            "supervisor.cpu_over_wall": self.traced_cpu / self.traced_wall,
            "supervisor.child_peak_rss_mb": children.ru_maxrss / 1024.0,
            "supervisor.leaked_children": float(len(live_children())),
        }


# ---------------------------------------------------------------------------
# wire_exchange
# ---------------------------------------------------------------------------
class WireExchange(Workload):
    """Request/reply round trips over real localhost sockets.

    An in-process ``TcpTransport.serve`` hub, one ``TcpTransport.connect``
    link, one driver thread.  The mix is the protocol's own: 1 trip in 9
    is a "backbone" trip (``CLUSTER_STATS`` up, the default ``ViTConfig``
    float64 state dict ≈ 0.43 MB back as ``BACKBONE_ASSIGNMENT``), 8 in 9
    are "set" trips (a 64-float ``IMPORTANCE_SET`` up, a
    ``PERSONALIZED_SET`` back), in a seeded order with seeded contents.
    """

    name = "wire_exchange"
    unit = "round trips"
    # A trip is a strict ping-pong between the driver, two loop threads
    # and the handler pool; spread over both vCPUs every hand-off is a
    # cross-vCPU wake-up and the same run reads 2x slow (README, "Noise").
    one_cpu = True
    SET_SIZE = 64
    #: Exchanges per traced pass: the timed region is kept short (90
    #: trips, ~45 ms) so its fastest repetition fits between two bursts
    #: of host interference; the rtt percentiles want more samples.
    TRACED_EXCHANGES = 3

    @property
    def traced_regions(self) -> int:
        return 1 if self.smoke else self.TRACED_EXCHANGES

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 4])
        groups = 2 if self.smoke else 10
        vit = ViTConfig(embed_dim=16, depth=2, num_heads=2) if self.smoke else ViTConfig()
        with using_dtype("float64"):
            self.state = VisionTransformer(vit, seed=self.seed).state_dict()
        profiles = [
            DeviceProfile.synthesize(i, 3 + i % 5, 40_000, rng) for i in range(8)
        ]
        self.stats = cluster_statistics(profiles)
        self.sets = rng.standard_normal((8, self.SET_SIZE)).astype(np.float32)
        #: True = backbone trip.  Exactly one per group of nine, at a
        #: seeded position, so every seed moves the same bytes.
        self.order = np.zeros(groups * 9, dtype=bool)
        self.order[np.arange(groups) * 9 + rng.integers(0, 9, groups)] = True

        start = time.perf_counter()
        self.hub = TcpTransport.serve("bench-hub")
        self.hub.network.register("cloud", self._cloud_handler)
        self.link = TcpTransport.connect("bench-link", "127.0.0.1", self.hub.port)
        self.link.network.register("edge0", lambda message: None)
        self.link.start()
        self.connect_s = time.perf_counter() - start
        #: (request, reply) wire bytes of each distinct trip, sized here
        #: so the timed region is the client's wait and nothing else.
        self.wire_bytes = {
            key: tuple(
                len(frame(encode_message(m)))
                for m in (self._request(*key), self._cloud_handler(self._request(*key)))
            )
            for key in [(0, True)] + [(i, False) for i in range(len(self.sets))]
        }
        self.warm_up(self.run)  # codec tables, socket buffers, loop threads

    def teardown(self) -> None:
        self.link.close()
        self.hub.close()

    def _cloud_handler(self, message: Message) -> Message:
        if message.kind is MessageKind.CLUSTER_STATS:
            return Message(
                "cloud", message.sender, MessageKind.BACKBONE_ASSIGNMENT,
                {"backbone_state": self.state, "width": 1.0, "depth": 4},
            )
        halved = message.payload["importance"] * np.float32(0.5)
        return Message(
            "cloud", message.sender, MessageKind.PERSONALIZED_SET,
            {"importance": halved},
        )

    def _request(self, index: int, backbone: bool) -> Message:
        if backbone:
            return Message(
                "edge0", "cloud", MessageKind.CLUSTER_STATS, {"stats": self.stats}
            )
        return Message(
            "edge0", "cloud", MessageKind.IMPORTANCE_SET,
            {"importance": self.sets[index % len(self.sets)], "device_id": index % 8},
        )

    def _reply_ok(self, index: int, backbone: bool, reply: Optional[Message]) -> bool:
        if reply is None:
            return False
        if backbone:
            got = reply.payload["backbone_state"]
            return got.keys() == self.state.keys() and all(
                np.array_equal(got[k], v) for k, v in self.state.items()
            )
        expected = self.sets[index % len(self.sets)] * np.float32(0.5)
        return np.array_equal(reply.payload["importance"], expected)

    def _exchange(self, on_trip: Optional[Callable[[bool, float, float], None]]) -> Outcome:
        send = self.link.network.send
        replies = []
        wire_up = wire_down = 0
        for index, backbone in enumerate(self.order):
            request = self._request(index, bool(backbone))
            start = time.perf_counter()
            reply = send(request)
            if on_trip is not None:
                on_trip(bool(backbone), start, time.perf_counter())
            replies.append(reply)
        # Verified after the loop: checking is not the client's wait.
        failed = 0
        for index, (backbone, reply) in enumerate(zip(self.order, replies)):
            if not self._reply_ok(index, bool(backbone), reply):
                failed += 1
                continue
            key = (0, True) if backbone else (index % len(self.sets), False)
            wire_up += self.wire_bytes[key][0]
            wire_down += self.wire_bytes[key][1]
        trips = len(self.order)
        return Outcome(
            attempted=trips,
            failed=failed,
            upload_bytes=wire_up,
            total_bytes=wire_up + wire_down,
            units=trips,
            digest={
                "trips": trips,
                "backbone_trips": int(self.order.sum()),
                "order_crc": zlib.crc32(self.order.tobytes()),
                "wire_up": wire_up,
                "wire_down": wire_down,
                "failed": failed,
            },
        )

    def run(self) -> Outcome:
        return self._exchange(None)

    def run_traced(self, rec: SpanRecorder) -> Outcome:
        def on_trip(backbone: bool, start: float, end: float) -> None:
            rec.add("transport.rtt_backbone" if backbone else "transport.rtt_set", start, end)

        for _ in range(self.traced_regions):
            with rec.span("wire_exchange"):
                outcome = self._exchange(on_trip)
        return outcome

    def layer_metrics(self, rec: SpanRecorder, outcome: Outcome) -> Dict[str, float]:
        sets = np.array(rec.durations("transport.rtt_set")) * 1e3
        backbones = np.array(rec.durations("transport.rtt_backbone")) * 1e3
        reply = self._cloud_handler(self._request(0, True))
        codec = wire_probes(reply, 0.02 if self.smoke else 0.15)
        codec_ms = codec.pop("wire.codec_s") * 1e3
        backbone_p50 = float(np.percentile(backbones, 50))
        return {
            "transport.rtt_set_p50_ms": float(np.percentile(sets, 50)),
            "transport.rtt_set_p99_ms": float(np.percentile(sets, 99)),
            "transport.rtt_backbone_p50_ms": backbone_p50,
            "transport.rtt_backbone_p99_ms": float(np.percentile(backbones, 99)),
            "transport.mb_per_s": outcome.total_bytes / 1e6 * (len(sets) + len(backbones))
            / outcome.units / float(sets.sum() + backbones.sum()) * 1e3,
            "transport.connect_s": self.connect_s,
            # What a backbone trip spends outside the codec (one encode +
            # one decode of the reply): sockets, both asyncio loops and
            # the single-worker handler pool.
            "transport.self_share": 1.0 - codec_ms / backbone_p50,
            **codec,
        }


# ---------------------------------------------------------------------------
# Scale harness: rounds (write side) and serving (read side)
# ---------------------------------------------------------------------------
def scale_config(seed: int, smoke: bool, chaos: bool, eval_requests: int) -> ScaleConfig:
    return ScaleConfig(
        num_devices=96 if smoke else 160,
        num_clusters=4,
        rounds=2,
        lru_capacity=4 if smoke else 8,
        eval_requests=eval_requests,
        drop=0.1 if chaos else 0.0,
        churn=0.05 if chaos else 0.0,
        # 10 % drops with 5 retries: the retry layer works on one send
        # in ten, and a delivery exhausts its budget once in 10⁶.
        retries=5,
        deadline_quantile=0.9 if chaos else 1.0,
        ledger="summary",
        seed=seed,
    )


class ScaleFleet:
    """The body of ``run_scale_campaign`` with the fabric kept in reach.

    ``ScaleReport`` carries total but not upload bytes and no handle on
    the ``Network``, so the benchmark builds the same fleet from
    ``ScaleCluster`` directly — the construction, distribution and round
    loop below are ``run_scale_campaign``'s, statement for statement —
    and the replay gate holds the two to one digest (``ScaleRounds``).
    """

    def __init__(self, cfg: ScaleConfig, rec: Optional[SpanRecorder] = None) -> None:
        span = rec.span if rec is not None else (lambda name: contextlib.nullcontext())
        self.cfg = cfg
        self.span = span
        self.network = Network(ledger=cfg.ledger)
        self.policy: Optional[FaultPolicy] = None
        if cfg.drop > 0.0 or cfg.churn > 0.0:
            self.policy = FaultPolicy(
                FaultConfig(
                    seed=cfg.seed, drop=cfg.drop, churn=cfg.churn, retries=cfg.retries
                )
            )
            self.network.install_fault_policy(self.policy)
        with span("scale.build"):
            sizes = heavy_tailed_sizes(
                cfg.num_devices, cfg.num_clusters, cfg.zipf_exponent
            )
            self.clusters: List[ScaleCluster] = []
            first_device_id = 0
            for index, size in enumerate(sizes):
                self.clusters.append(
                    ScaleCluster(index, size, first_device_id, self.network, cfg)
                )
                first_device_id += size
        with span("scale.distribute"):
            for cluster in self.clusters:
                cluster.distribute()
        self.contributions = 0

    def run_rounds(self, rounds: int) -> None:
        for round_index in range(rounds):
            with self.span("scale.round"):
                for cluster in self.clusters:
                    self.contributions += cluster.run_round(round_index, self.policy)

    def hydrations(self) -> int:
        return sum(c.store.hydrations for c in self.clusters)

    def evictions(self) -> int:
        return sum(c.store.evictions for c in self.clusters)

    def outcome(self) -> Outcome:
        """Operation = one expected on-time contribution.

        Carried-forward uploads and exhausted downlinks count as failed.
        """
        network = self.network
        carried = sum(c.carried for c in self.clusters)
        failed_deliveries = sum(c.failed_deliveries for c in self.clusters)
        stragglers = sum(c.stragglers for c in self.clusters)
        faults = network.fault_counts()
        return Outcome(
            attempted=self.contributions,
            failed=carried + failed_deliveries,
            upload_bytes=network.stats.upload_bytes,
            total_bytes=network.stats.total_bytes,
            units=self.contributions,
            digest={
                "contributions": self.contributions,
                "total_bytes": network.stats.total_bytes,
                "upload_bytes": network.stats.upload_bytes,
                "kind_counts": dict(sorted(network.kind_counts.items())),
                "fault_counts": dict(sorted(faults.items())),
                "stragglers": stragglers,
                "carried": carried,
                "failed_deliveries": failed_deliveries,
                "hydrations": self.hydrations(),
                "evictions": self.evictions(),
            },
            counters={
                "network.retries": network.retry_count,
                "network.delivery_attempts": network.delivery_attempts,
                "network.failed_deliveries": network.failed_deliveries,
                "faults.injected": sum(faults.values()),
                "scale.stragglers": stragglers,
                "scale.carried": carried,
            },
        )


class ScaleRounds(Workload):
    """The write side: every contribution hydrates and evicts through a
    thrashing LRU, plus ``send_reliable`` retries under 10 % drops."""

    name = "scale_rounds"
    unit = "contributions"
    one_cpu = True

    def cfg(self) -> ScaleConfig:
        return scale_config(self.seed, self.smoke, chaos=True, eval_requests=0)

    def _fleet(self, rec: Optional[SpanRecorder] = None) -> Outcome:
        fleet = ScaleFleet(self.cfg(), rec)
        fleet.run_rounds(self.cfg().rounds)
        return fleet.outcome()

    def setup(self) -> None:
        # The warm-up goes through the benchmark's own fleet loop: it
        # yields the upload-byte count ``ScaleReport`` does not carry,
        # and its digest being the replay reference is the gate that
        # this loop and ``run_scale_campaign`` are the same campaign.
        self.warm_up(self._fleet)

    def run(self) -> Outcome:
        report = run_scale_campaign(self.cfg())
        total_bytes = int(round(report.total_megabytes * 1e6))
        return Outcome(
            attempted=report.contributions,
            failed=report.carried + report.failed_deliveries,
            upload_bytes=self.warm.upload_bytes,
            total_bytes=total_bytes,
            units=report.contributions,
            digest={
                "contributions": report.contributions,
                "total_bytes": total_bytes,
                "upload_bytes": self.warm.upload_bytes,
                "kind_counts": dict(sorted(report.kind_counts.items())),
                "fault_counts": dict(sorted(report.fault_counts.items())),
                "stragglers": report.stragglers,
                "carried": report.carried,
                "failed_deliveries": report.failed_deliveries,
                "hydrations": report.hydrations,
                "evictions": report.evictions,
            },
        )

    def run_traced(self, rec: SpanRecorder) -> Outcome:
        with rec.span("scale_rounds"):
            return self._fleet(rec)

    def layer_metrics(self, rec: SpanRecorder, outcome: Outcome) -> Dict[str, float]:
        round_s = rec.total("scale.round")
        hydrations = outcome.digest["hydrations"]
        return {
            "scale.build_s": rec.total("scale.build"),
            "scale.distribute_s": rec.total("scale.distribute"),
            "scale.round_s": round_s / len(rec.durations("scale.round")),
            "scale.round_devices_per_s": outcome.units / round_s,
            "state_store.hydrations": float(hydrations),
            "state_store.evictions": float(outcome.digest["evictions"]),
            # One touch per contribution: 1.0 = the LRU never hits.
            "state_store.hydrations_per_touch": hydrations / max(outcome.units, 1),
            **outcome.counters,
        }


class ScaleServe(Workload):
    """The read side of the same fleet: eval requests through the LRU."""

    name = "scale_serve"
    unit = "requests"
    one_cpu = True

    def cfg(self) -> ScaleConfig:
        return scale_config(
            self.seed, self.smoke, chaos=False, eval_requests=8 if self.smoke else 32
        )

    def setup(self) -> None:
        self.waves = 1 if self.smoke else 2
        self.fleet = ScaleFleet(self.cfg())
        self.fleet.run_rounds(1)
        # Ledger bytes are the provisioning traffic of the fleet being
        # served; serving itself sends no message today.
        # Two passes: the first brings the LRU to the state every later
        # pass starts from, so the second is the replay reference.
        self.run()
        self.warm_up(self.run)

    def _serve(self, rec: Optional[SpanRecorder]) -> Outcome:
        cfg = self.fleet.cfg
        before = self.fleet.hydrations()
        attempted = served = 0
        for wave in range(self.waves):
            for cluster in self.fleet.clusters:
                attempted += min(cfg.eval_requests, len(cluster.devices))
                if rec is None:
                    served += cluster.serve(wave)
                else:
                    with rec.span("serving.wave"):
                        served += cluster.serve(wave)
        stats = self.fleet.network.stats
        hydrations = self.fleet.hydrations() - before
        return Outcome(
            attempted=attempted,
            failed=attempted - served,
            upload_bytes=stats.upload_bytes,
            total_bytes=stats.total_bytes,
            units=attempted,
            digest={
                "served": served,
                "hydrations": hydrations,
                "upload_bytes": stats.upload_bytes,
                "total_bytes": stats.total_bytes,
            },
        )

    def run(self) -> Outcome:
        return self._serve(None)

    def run_traced(self, rec: SpanRecorder) -> Outcome:
        with rec.span("scale_serve"):
            return self._serve(rec)

    def layer_metrics(self, rec: SpanRecorder, outcome: Outcome) -> Dict[str, float]:
        waves = np.array(rec.durations("serving.wave"))
        return {
            "serving.requests_per_s": outcome.units / float(waves.sum()),
            "serving.wave_p50_ms": float(np.percentile(waves, 50)) * 1e3,
            "state_store.serve_hydrations": float(outcome.digest["hydrations"]),
        }


def digest_diff(expected: Dict[str, object], got: Dict[str, object]) -> str:
    keys = [k for k in sorted(set(expected) | set(got)) if expected.get(k) != got.get(k)]
    return "; ".join(f"{k}: expected {expected.get(k)!r}, got {got.get(k)!r}" for k in keys)


WORKLOADS = {
    cls.name: cls
    for cls in (
        CampaignCloud,
        CampaignEdge,
        CampaignTcp,
        WireExchange,
        ScaleRounds,
        ScaleServe,
    )
}
