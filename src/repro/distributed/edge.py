"""Edge server node: the middle tier running both customization stages.

An edge server ``s`` manages a device cluster N_s and a shared dataset
(10-20% of the cluster's data, per §IV-A).  Its protocol role:

* **Phase 1** — upload cluster statistics, receive the assigned backbone.
* **Phase 2-1** — run the ENAS header search on the shared dataset and
  distribute (backbone, coarse header) to every device.
* **Phase 2-2** — drive the single loop of Algorithm 2: collect device
  importance sets, compute the Wasserstein similarity matrix from the
  devices' feature samples, aggregate (Eq. 21), and redistribute.

The devices' side of every round and of the finale is one walk over the
cluster (:meth:`EdgeServer._local_updates`): chunks as large as the
cluster's store keeps live, each hydrated in the parent and then trained
in groups across the plan's workers — only the edge's walk touches a
store that can evict, in the parent, chunk by chunk.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.checks import check_count
from repro.core.aggregation import StreamingAggregator
from repro.core.nas import HeaderSearch, NASConfig
from repro.core.similarity import (
    distance_matrix,
    regularize_similarity,
    similarity_from_distances,
)
from repro.data.dataset import ArrayDataset
from repro.distributed.device import DeviceNode
from repro.distributed.executor import ExecutionPlan, resolve_workers
from repro.distributed.faults import DeliveryError, ProtocolError
from repro.distributed.messages import Message, MessageKind, payload_nbytes
from repro.distributed.network import Network
from repro.distributed.state_store import backbone_from_payload
from repro.hw.energy import latency
from repro.hw.profiles import cluster_statistics
from repro.models.blocks import HeaderSpec
from repro.models.vit import VisionTransformer
from repro.train import serving

#: The distance behind the similarity weights (Eq. 19's sliced
#: Wasserstein; ``core.similarity`` also offers ``"js"``).
SIMILARITY_METRIC = "wasserstein"
#: Round-level re-request budget when fresh replies are short of
#: quorum.  Retries re-send each missing device's *cached* upload — the
#: device does not retrain — mirroring a real edge's timeout → re-poll
#: loop.  Message-level retries are separate (the fault policy's
#: ``retries``).
ROUND_RETRIES = 2


@dataclass
class EdgeConfig:
    """Edge-side knobs."""

    #: Filled from ``seed`` in ``__post_init__`` when not given (the
    #: derived default depends on another field, so ``Optional`` +
    #: post-init rather than a default_factory).
    nas: Optional[NASConfig] = None
    aggregation_rounds: int = 2  # T in Algorithm 2
    keep_fraction: float = 0.7
    #: Degraded-mode quorum: the fraction of a round's *participating*
    #: devices whose fresh importance sets must arrive before the round
    #: aggregates.  1.0 (the default) is today's all-replies behavior —
    #: on a fault-free fabric the loop is bit-identical to the
    #: pre-quorum code, and a missing reply is a loud
    #: :class:`~repro.distributed.faults.ProtocolError`.  Below 1.0 the
    #: round proceeds with whoever answered: re-request up to
    #: :data:`ROUND_RETRIES` times, then aggregate the fresh sets (masked,
    #: renormalized similarity rows), carrying forward each absent
    #: device's last known set only when even the quorum cannot be met.
    round_quorum: float = 1.0
    #: Straggler deadline in *simulated* seconds per local epoch: a
    #: device whose hardware model predicts a slower epoch
    #: (:func:`repro.hw.energy.latency` at the assigned width/depth)
    #: misses the aggregation round entirely — no local round, no
    #: upload, no personalized set — making partial rounds first-class
    #: on a fault-free fabric.  Determination is deterministic from the
    #: device profiles.  The on-time subset aggregates through the same
    #: masked/renormalized path as quorum rounds, and a deadline no
    #: device misses reproduces the full round bit-for-bit.  ``None``
    #: (default) disables the deadline.
    round_deadline: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.nas is None:
            self.nas = NASConfig(seed=self.seed)

    def checked_rounds(self, num_rounds: Optional[int] = None) -> int:
        """The round count to run, after range-checking the round settings.

        Checked where the round engine reads them, not in
        ``__post_init__``: callers such as ``repro-cli run --quorum``
        assign fields after construction.
        """
        rounds = self.aggregation_rounds if num_rounds is None else num_rounds
        check_count("aggregation_rounds", rounds, 1)
        if not 0.0 < self.round_quorum <= 1.0:
            raise ValueError(
                f"round_quorum must be in (0, 1], got {self.round_quorum}"
            )
        if self.round_deadline is not None and self.round_deadline <= 0:
            raise ValueError(
                f"round_deadline must be > 0 (or None), got {self.round_deadline}"
            )
        return rounds


class EdgeServer:
    """One edge server ``s_s`` and its device cluster."""

    def __init__(
        self,
        index: int,
        devices: Sequence[DeviceNode],
        shared_dataset: ArrayDataset,
        network: Network,
        config: Optional[EdgeConfig] = None,
        cloud_name: str = "cloud",
        plan: ExecutionPlan = ExecutionPlan(),
    ) -> None:
        self.index = index
        self.devices = list(devices)
        self.shared_dataset = shared_dataset
        self.network = network
        self.config = config or EdgeConfig()
        #: Where this cluster's fan-outs run (already budget-split).
        self.plan = plan
        self.cloud_name = cloud_name
        self.name = f"edge{index}"
        self.backbone: Optional[VisionTransformer] = None
        self.assigned_width: Optional[float] = None
        self.assigned_depth: Optional[int] = None
        self.header_spec: Optional[HeaderSpec] = None
        self.search: Optional[HeaderSearch] = None
        self.similarity: Optional[np.ndarray] = None
        self._pending_importance: Dict[int, np.ndarray] = {}
        self._feature_samples: Dict[int, np.ndarray] = {}
        #: Carry-forward store: each device's last importance set that
        #: actually arrived, keyed by device id.  Below-quorum rounds
        #: aggregate absent devices from here instead of stalling.
        self._carried: Dict[int, np.ndarray] = {}
        #: True while ``similarity`` was computed from an incomplete set
        #: of feature samples (some devices' uploads never arrived); the
        #: edge keeps requesting samples and recomputes until complete.
        self._similarity_partial = False
        #: Robustness telemetry for :class:`ClusterResult`: the fraction
        #: of the cluster that contributed a fresh set each round, and
        #: protocol-level (round/exchange) retry count.
        self.round_participation: List[float] = []
        self.round_retry_total = 0
        #: Devices the straggler deadline cut from a round, sets carried
        #: forward into an aggregate for an absent device, and downlinks
        #: (model or personalized set) that exhausted their retries —
        #: each summed over the rounds run so far.
        self.stragglers = 0
        self.carried = 0
        self.failed_deliveries = 0
        network.register(self.name, self.handle)

    # ------------------------------------------------------------------
    def handle(self, message: Message) -> Optional[Message]:
        if message.kind is MessageKind.BACKBONE_ASSIGNMENT:
            return self._receive_backbone(message)
        if message.kind is MessageKind.IMPORTANCE_SET:
            return self._receive_importance(message)
        raise ValueError(f"{self.name} cannot handle {message.kind}")

    def _receive_backbone(self, message: Message) -> None:
        self.backbone = backbone_from_payload(message.payload)
        self.assigned_width = float(message.payload["width"])
        self.assigned_depth = int(message.payload["depth"])
        return None

    def _receive_importance(self, message: Message) -> None:
        device_id = int(message.payload["device_id"])
        self._pending_importance[device_id] = message.payload["importance"]
        if "feature_sample" in message.payload:
            self._feature_samples[device_id] = message.payload["feature_sample"]
        return None

    # ------------------------------------------------------------------
    # Phase 1: cloud ↔ edge
    # ------------------------------------------------------------------
    def request_backbone(self) -> None:
        """Upload cluster statistics; the cloud replies with a backbone.

        The assignment rides a nested send subject to its own fault
        draws, so a cleanly delivered upload can still leave the edge
        unassigned — retry the whole exchange (the cloud's request path
        is idempotent) up to the policy's retry budget before failing
        loudly.  Without a policy this is a single plain send.
        """
        policy = self.network.fault_policy
        stats = cluster_statistics([d.profile for d in self.devices])
        message = Message(
            self.name, self.cloud_name, MessageKind.CLUSTER_STATS, {"stats": stats}
        )
        exchanges = (policy.config.retries if policy is not None else 0) + 1
        last_failure = "assignment reply lost"
        for attempt in range(exchanges):
            if attempt:
                self.round_retry_total += 1
                if policy is not None and policy.config.backoff > 0.0:
                    time.sleep(policy.config.backoff * attempt)
            try:
                self.network.send_reliable(message, retries=0)
            except DeliveryError as err:
                last_failure = str(err)
                continue
            if self.backbone is not None:
                return
        raise ProtocolError(
            f"{self.name}: cloud did not assign a backbone after "
            f"{exchanges} exchange(s) ({last_failure})"
        )

    # ------------------------------------------------------------------
    # Phase 2-1: header search + distribution
    # ------------------------------------------------------------------
    def search_header(self) -> HeaderSpec:
        """ENAS search for the coarse header on the shared dataset."""
        assert self.backbone is not None, "request_backbone() first"
        num_classes = self.shared_dataset.num_classes
        self.search = HeaderSearch(
            self.backbone, num_classes, self.config.nas, plan=self.plan
        )
        result = self.search.search(self.shared_dataset)
        self.header_spec = result.spec
        return result.spec

    def distribute_models(self) -> None:
        """Send (backbone, coarse header) to every device in the cluster."""
        assert self.backbone is not None and self.header_spec is not None
        assert self.search is not None
        header = self.search.materialize_header(self.header_spec, seed=self.config.seed)
        provisioned = self._distribute(
            {
                "vit_config": self.backbone.config,
                "backbone_state": self.backbone.state_dict(),
                "width": self.assigned_width,
                "depth": self.assigned_depth,
                "header_spec": self.header_spec,
                "header_state": header.state_dict(),
                "keep_fraction": self.config.keep_fraction,
            }
        )
        if provisioned == 0:
            raise ProtocolError(
                f"{self.name}: no device received the model distribution "
                f"({len(self.devices)} in cluster, "
                f"{sum(d.active for d in self.devices)} active)"
            )

    def _distribute(self, payload: dict) -> int:
        """One model payload to every device on the fabric; returns how
        many got it.  Dead / churned-off devices cannot receive, and one
        whose delivery fails sits out the rounds and the finale (checked
        via ``has_model``) rather than crashing them.
        """
        return self._send_each(
            MessageKind.MODEL_DISTRIBUTION,
            [d for d in self.devices if d.active],
            itertools.repeat(payload),
            nbytes=payload_nbytes(payload),
        )

    # ------------------------------------------------------------------
    # Phase 2-2: the single loop (Algorithm 2)
    # ------------------------------------------------------------------
    def _compute_similarity(self) -> np.ndarray:
        """Eqs. (19)-(20) from the devices' uploaded feature samples.

        Degraded mode: a device whose feature sample never arrived gets
        an identity row/column (self-similarity only, keeping the matrix
        row-stochastic) and the result is marked partial, so the edge
        keeps requesting samples and recomputes as stragglers check in.
        With every sample present — always true on the fault-free path —
        this is exactly the full computation.
        """
        ids = [d.profile.device_id for d in self.devices]
        have = [i for i, did in enumerate(ids) if did in self._feature_samples]
        self._similarity_partial = len(have) < len(ids)
        if self._similarity_partial and len(have) < 2:
            return np.eye(len(ids))
        distances = distance_matrix(
            [self._feature_samples[ids[i]] for i in have],
            metric=SIMILARITY_METRIC,
            seed=self.config.seed,
        )
        similarity = regularize_similarity(
            similarity_from_distances(distances), temperature=0.05
        )
        if not self._similarity_partial:
            return similarity
        full = np.eye(len(ids))
        full[np.ix_(have, have)] = similarity
        return full

    def _round_participants(self, round_index: int) -> List[DeviceNode]:
        """Who takes part in this round: churn, then the straggler cut.

        Every device's seeded churn state is re-asserted first —
        departing devices unregister from the fabric, returning ones
        re-register under the same name with whatever model state they
        had when they left (the carry-forward store bridges the rounds
        they missed).  Of the devices then on the fabric with a model,
        Eq. (2)'s per-epoch latency at the assigned scale decides —
        deterministically, from the device profile — who uploads before
        the edge aggregates: a straggler past ``round_deadline`` neither
        trains nor uploads, exactly like a device whose upload was lost.
        """
        policy = self.network.fault_policy
        if policy is not None:
            for device in self.devices:
                if policy.device_active(device.profile.device_id, round_index):
                    device.reactivate()
                else:
                    device.deactivate()
        participants = [d for d in self.devices if d.active and d.has_model]
        deadline = self.config.round_deadline
        if deadline is None:
            return participants
        width = self.assigned_width if self.assigned_width is not None else 1.0
        depth = self.assigned_depth if self.assigned_depth is not None else 1
        on_time = [
            d for d in participants if latency(d.profile, width, depth) <= deadline
        ]
        self.stragglers += len(participants) - len(on_time)
        return on_time

    def _weight_rows(self, rows: Sequence[int]) -> np.ndarray:
        """Eq. (21)'s weights for the targets at cluster indices ``rows``.

        The pre-sliced ``(len(rows), n)`` block
        :class:`~repro.core.aggregation.StreamingAggregator` accepts; a
        block of one row serves every target.
        """
        return self.similarity[list(rows)]

    def _send_each(
        self,
        kind: MessageKind,
        devices: Iterable[DeviceNode],
        payloads: Iterable[dict],
        nbytes: int = 0,
    ) -> int:
        """Reliable per-device downlink; returns how many were delivered.

        A send that exhausts its retry budget is counted and skipped —
        the device catches up on its next active round (or, for a lost
        model distribution, sits the campaign out).  ``nbytes`` sizes a
        payload shared by every device once instead of once per message.
        """
        delivered = 0
        for device, payload in zip(devices, payloads):
            message = Message(self.name, device.name, kind, payload, nbytes=nbytes)
            try:
                self.network.send_reliable(message)
            except DeliveryError:
                self.failed_deliveries += 1
                continue
            delivered += 1
        return delivered

    def aggregation_loop(self, num_rounds: Optional[int] = None) -> np.ndarray:
        """Run T single-loop rounds; returns the similarity matrix used."""
        rounds = self.config.checked_rounds(num_rounds)
        self.round_participation = []
        for t in range(rounds):
            self.run_round(t)
        return self.similarity

    def run_round(self, t: int) -> int:
        """One round of Algorithm 2; returns how many fresh sets arrived."""
        return self._exchange(t, self._round_participants(t))

    def _exchange(self, t: int, participants: List[DeviceNode]) -> int:
        """Local update → upload → re-poll → aggregate → downlink.

        Uploads travel via :meth:`Network.send_reliable`; when fresh
        replies are short of ``ceil(round_quorum × participants)`` the
        edge re-polls (cached uploads, no retraining) up to
        :data:`ROUND_RETRIES` times, then aggregates whoever answered —
        masked, renormalized similarity rows — carrying forward each
        absent device's last known set only when even the quorum cannot
        be met.  A round with no set at all, fresh or carried, is a hard
        :class:`ProtocolError` rather than a hang; so is a missing reply
        when nothing licenses a partial round (no fault policy, quorum
        1.0, no deadline).  With every device present the weight rows
        are used as given, so a fault-free run under a benign policy,
        quorum or deadline is bit-identical to one without them (a
        subset's row renormalization divides by a float row-sum that
        need not be exactly 1.0).
        """
        config = self.config
        pending = self._pending_importance
        pending.clear()
        include_features = self.similarity is None or self._similarity_partial
        # The local importance rounds (header training + Taylor
        # accumulation) run group by group; the network sends stay
        # serial and in device order so the traffic ledger and message
        # sequence are the same under every plan.
        messages = self._local_updates(
            participants,
            lambda group: type(group[0]).importance_rounds(
                group, include_feature_sample=include_features, round_index=t
            ),
        )
        for message in messages:
            message.receiver = self.name
            try:
                self.network.send_reliable(message)
            except DeliveryError:
                continue

        # Round-level quorum: re-poll the devices whose sets are
        # missing (their cached uploads are re-sent verbatim — no
        # retraining) until enough fresh sets arrived or the retry
        # budget is spent.  A no-op on the fault-free path.
        quorum = math.ceil(config.round_quorum * len(participants))
        for _ in range(ROUND_RETRIES):
            if sum(d.profile.device_id in pending for d in participants) >= quorum:
                break
            self.round_retry_total += 1
            for device, message in zip(participants, messages):
                if device.profile.device_id in pending:
                    continue
                try:
                    self.network.send_reliable(message)
                except DeliveryError:
                    continue

        # Only devices that replied receive (and prune by) a
        # personalized set this round; absent ones catch up on their
        # next active round.  Every fresh set refreshes the
        # carry-forward store, so a device that later goes dark is
        # represented by its most recent contribution.
        fresh = [d for d in participants if d.profile.device_id in pending]
        for d in fresh:
            self._carried[d.profile.device_id] = pending[d.profile.device_id]
        self.round_participation.append(
            len(fresh) / len(self.devices) if self.devices else 0.0
        )
        if self.similarity is None or self._similarity_partial:
            self.similarity = self._compute_similarity()

        index_of = {d.profile.device_id: i for i, d in enumerate(self.devices)}
        may_degrade = (
            self.network.fault_policy is not None
            or config.round_quorum < 1.0
            or config.round_deadline is not None
        )
        if fresh and len(fresh) >= (quorum if may_degrade else len(self.devices)):
            contributors = [
                (index_of[d.profile.device_id], pending[d.profile.device_id])
                for d in fresh
            ]
        elif may_degrade:
            # Below quorum even after retries: degrade to fresh sets
            # plus each absent device's carried-forward one.
            known = {**self._carried, **pending}
            contributors = [
                (i, known[did]) for did, i in index_of.items() if did in known
            ]
        else:
            absent = next(
                d for d in self.devices if d.profile.device_id not in pending
            )
            raise ProtocolError(
                f"{self.name}: no importance set from device "
                f"{absent.profile.device_id} ({absent.name}) in aggregation "
                f"round {t}; received sets from {sorted(pending)} — install "
                f"a fault policy or set round_quorum < 1.0 to degrade "
                f"instead of failing"
            )
        if not contributors:
            raise ProtocolError(
                f"{self.name}: aggregation round {t} has no importance set "
                f"to aggregate — no device replied ({len(participants)} "
                f"participating of {len(self.devices)}) and none has a "
                f"prior set to carry forward"
            )
        if not fresh:
            return 0
        self.carried += len(contributors) - len(fresh)
        aggregator = StreamingAggregator(
            self._weight_rows([index_of[d.profile.device_id] for d in fresh]),
            cols=(
                None
                if len(fresh) == len(self.devices)
                else [i for i, _ in contributors]
            ),
        )
        for i, q in contributors:
            aggregator.consume(i, q)
        personalized = [q.astype(np.float32) for q in aggregator.finalize()]
        if len(personalized) == 1:  # one weight row serves every target
            personalized *= len(fresh)
        self._send_each(
            MessageKind.PERSONALIZED_SET,
            fresh,
            ({"importance": q} for q in personalized),
        )
        return len(fresh)

    # ------------------------------------------------------------------
    def _local_groups(self, devices: Sequence[DeviceNode]) -> List[List[DeviceNode]]:
        """Partition live ``devices`` for a local update (importance
        round, fine-tune): who trains in one stacked graph together.

        Batchable devices — at least two devices of one class that hold
        the same frozen backbone instance — are chunked into as many contiguous groups as the
        plan's inner tier has workers, one stacked graph per worker;
        the serial plan is the one-group case.  A group is trained by
        its class's group method (:meth:`DeviceNode.importance_rounds`)
        against that backbone.  Singletons otherwise.
        """
        singletons = [[d] for d in devices]
        if len(devices) < 2:
            return singletons
        width = resolve_workers(self.plan.device_workers, num_tasks=len(devices))
        size = -(-len(devices) // width)
        groups = [list(devices[i : i + size]) for i in range(0, len(devices), size)]
        backbone = devices[0].backbone
        if (
            len({type(d) for d in devices}) == 1
            and backbone is not None
            and all(d.backbone is backbone for d in devices)
        ):
            return groups
        return singletons

    def _local_updates(
        self,
        devices: Sequence[DeviceNode],
        update: Callable[[List[DeviceNode]], list],
    ) -> list:
        """``update(group)`` over ``devices``, walked chunk by chunk; the
        groups' per-device results, concatenated in device order.

        A chunk is as many devices as the smallest store capacity among
        them (all of ``devices`` when no store has a capacity).  Each
        chunk is hydrated here, in device order — the only store
        touches ahead of the fan-out, so no worker ever moves an LRU —
        and stays live while :meth:`_local_groups` partitions it and
        ``plan.map_devices`` runs ``update`` on the groups, each of
        which returns one result per member.  A group's update mutates
        exactly its own devices' header parameters; every other mutation
        (prune masks, the network ledger) happens in the caller.
        """
        capacities = [d.state_store.capacity for d in devices if d.state_store.bounded]
        size = min(capacities, default=max(len(devices), 1))
        results: list = []
        for start in range(0, len(devices), size):
            chunk = devices[start : start + size]
            for device in chunk:
                device._ensure_live()
            for group_results in self.plan.map_devices(
                update, self._local_groups(chunk)
            ):
                results.extend(group_results)
        return results

    # ------------------------------------------------------------------
    def finalize(self) -> List[dict]:
        """Final device-side fine-tuning and evaluation, in device order.

        The same walk as a round (:meth:`_local_updates`): each group
        fine-tunes, then is evaluated while its chunk is live through
        one batched backbone forward per batch
        (:func:`repro.train.serving.batched_evaluate_headers`) against
        the backbone its members share — a device alone is the group of
        one.  Per-device results are row-independent there, so any
        grouping is bit-identical to the per-device loop.
        """
        # Only devices that are on the fabric and actually hold a model
        # reach the finale; a dead or never-provisioned device yields no
        # result row (the cluster's participation metric reports it).
        devices = [d for d in self.devices if d.active and d.has_model]
        return self._local_updates(devices, _finetune_and_evaluate)


def _finetune_and_evaluate(group: List[DeviceNode]) -> List[dict]:
    """The finale of one group: fine-tune, then evaluate (one row each)."""
    type(group[0]).finetune_group(group)
    return serving.batched_evaluate_headers(
        group[0].backbone,
        [d.header for d in group],
        [d.eval_dataset() for d in group],
    )
