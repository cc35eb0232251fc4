"""Cloud server node: backbone generation and Phase 1 customization.

The cloud holds the reference model θ0 and the generalized public dataset
D̃_c.  On startup it performs backbone generation (§III-B1): Taylor
importance scoring plus width/depth distillation, yielding the dynamic
backbone θB.  For each edge server's uploaded cluster statistics it
evaluates the (w, d) candidate grid on (loss, energy, ζ), builds the
Pareto Front Grid, and assigns the Eq. (13) selection to the cluster.

The cloud is the one node every edge talks to, so its request path is
safe under concurrent edges: the shared state a request reads — θ0's
weights, the backbone at full scale, the per-(w, d) public-set losses —
is immutable once :meth:`CloudServer.prepare_candidates` has run (the
loss grid is computed once, up front or lazily under a lock, and the
backbone is restored to full configuration before any request is
served), and the per-edge response path writes only the edge's own
``assignments`` slot (under a lock).  Selection ties break
deterministically (:func:`repro.core.pareto.select_model`), so the
replies are independent of the order concurrent requests arrive in.

The loss grid is filled width-major (:meth:`CloudServer._fill_losses`):
δ keeps the *first* ``d`` layers (§II-C), so at one width a single
tape-free forward at the deepest requested depth yields every shallower
candidate's hidden state, and each cell's loss is read off its prefix —
bit-identical to evaluating the cells one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.registry import register_lock
from repro.core.distill import WIDTH_CHOICES, DistillConfig
from repro.core.pareto import Candidate, ParetoFrontGrid, build_pfg, select_model
from repro.core.segmentation import generate_backbone
from repro.data.dataset import ArrayDataset
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import Network
from repro.hw.energy import energy
from repro.hw.profiles import DeviceProfile
from repro.models.vit import VisionTransformer
from repro.nn.tensor import Tensor, no_grad
from repro.train.evaluate import batch_metrics
from repro.train.trainer import TrainConfig, train_model

#: Rows per eval batch of the loss grid — ``evaluate_model``'s default,
#: which the per-cell evaluation this replaces ran at.
_EVAL_BATCH = 64
#: Public samples the (w, d) loss grid is evaluated on.
EVAL_SAMPLES = 128


@dataclass
class CloudConfig:
    """Knobs of the cloud-side Phase 1 (the widths offered are
    :data:`~repro.core.distill.WIDTH_CHOICES`)."""

    depth_choices: Optional[Sequence[int]] = None  # default 1..reference depth
    performance_window: float = 0.05  # reprolint: knob -- γ_p, the PFG's performance window
    pretrain_epochs: int = 3
    #: Filled from ``seed`` in ``__post_init__`` when not given — a
    #: mutable default can't be a dataclass default and the derived
    #: value depends on another field, so ``Optional`` + post-init is
    #: the idiom (not a ``None`` default lying about its type).
    distill: Optional[DistillConfig] = None
    energy_epochs: int = 5  # reprolint: knob -- k of Eq. 1, the epochs energy is charged for
    seed: int = 0

    def __post_init__(self) -> None:
        if self.distill is None:
            self.distill = DistillConfig(epochs=1, seed=self.seed)


class CloudServer:
    """The cloud node ``C``."""

    def __init__(
        self,
        reference: VisionTransformer,
        public_dataset: ArrayDataset,
        network: Network,
        config: Optional[CloudConfig] = None,
        name: str = "cloud",
    ) -> None:
        self.reference = reference
        self.public_dataset = public_dataset
        self.network = network
        self.config = config or CloudConfig()
        self.name = name
        self.backbone: Optional[VisionTransformer] = None
        self.head_orders: Optional[List[np.ndarray]] = None
        self.neuron_orders: Optional[List[np.ndarray]] = None
        self._loss_cache: Dict[Tuple[float, int], float] = {}
        #: True once the whole (w, d) loss grid is cached and the
        #: backbone is back at full scale — from then on every request
        #: reads immutable state and handling is safe under concurrent
        #: edges.
        self._losses_ready = False
        self._lock = register_lock("cloud.state")
        #: Full-scale backbone weights captured when the loss grid is
        #: frozen — the immutable payload every ``BACKBONE_ASSIGNMENT``
        #: reply ships, so the request path never reads live parameters.
        self._backbone_state: Optional[Dict[str, np.ndarray]] = None
        self.assignments: Dict[str, Candidate] = {}
        network.register(name, self.handle)

    # ------------------------------------------------------------------
    # Phase 1 setup
    # ------------------------------------------------------------------
    def pretrain_reference(self) -> None:
        """Train θ0 on the public dataset D̃_c (the model zoo step)."""
        train_model(
            self.reference,
            self.public_dataset,
            TrainConfig(epochs=self.config.pretrain_epochs, seed=self.config.seed),
        )

    def generate_dynamic_backbone(self) -> None:
        """Backbone generation (§III-B1): importance + distillation."""
        result = generate_backbone(
            self.reference,
            self.public_dataset,
            distill_config=self.config.distill,
            seed=self.config.seed,
        )
        self.backbone = result.backbone
        self.head_orders = result.importance.head_orders()
        self.neuron_orders = result.importance.neuron_orders()
        self._loss_cache.clear()
        self._losses_ready = False
        self._backbone_state = None

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------
    def _depth_choices(self) -> List[int]:
        assert self.backbone is not None
        cfg = self.config
        return (
            list(cfg.depth_choices)
            if cfg.depth_choices is not None
            else list(range(1, self.backbone.config.depth + 1))
        )

    def prepare_candidates(self) -> None:
        """Precompute the public-set loss of every (w, d) sub-backbone.

        The sweep scales the shared backbone through the whole grid, so
        it must not race with requests reading the backbone's weights;
        running it once after :meth:`generate_dynamic_backbone` (as
        ``ACMESystem`` does) freezes all request-path state before the
        first edge asks.  Lazy first-request computation is kept as a
        lock-protected fallback for callers driving phases manually —
        the lock covers the *whole* grid fill, so no request is served
        from a half-scaled backbone.
        """
        assert self.backbone is not None, "generate_dynamic_backbone() first"
        if self._losses_ready:
            return
        with self._lock:
            if self._losses_ready:
                return
            self._fill_losses()
            # Freeze the reply payload at full configuration: replies
            # ship the copy captured here, and ``_fill_losses`` — the
            # only code that re-scales the backbone — runs only above,
            # under this lock, before ``_losses_ready`` is set.
            self._backbone_state = self.backbone.state_dict()
            self._losses_ready = True

    def _fill_losses(self) -> None:
        """Cache L_s(˜θ_s, D̃_c) for every ``(w, d)`` of the configured grid.

        The caller holds ``self._lock``.  Width-major: the seeded sample
        is drawn once, and at each width one tape-free forward per eval
        batch at the deepest configured depth serves every shallower
        depth (:meth:`VisionTransformer.forward_depth_prefixes`) —
        ``len(widths) · max(depths)`` encoder-layer forwards per batch
        where one ``evaluate_model`` per cell ran ``Σ depths`` per
        width.  Sample, batching (``_EVAL_BATCH`` rows, dataset order)
        and metric accumulation are ``evaluate_model``'s, so every loss
        equals the per-cell evaluation exactly (the oracle is
        ``tests/reference/cloud_grid.py``).  The backbone is left at
        full scale.
        """
        assert self.backbone is not None
        sample = self.public_dataset.sample(
            EVAL_SAMPLES, np.random.default_rng(self.config.seed)
        )
        if len(sample) == 0:
            raise ValueError("no samples evaluated")
        depths = self._depth_choices()
        with no_grad():
            for width in WIDTH_CHOICES:
                self.backbone.scale(width, max(depths))
                loss_sums = [0.0] * len(depths)
                for start in range(0, len(sample), _EVAL_BATCH):
                    rows = slice(start, start + _EVAL_BATCH)
                    labels = sample.labels[rows]
                    logits = self.backbone.forward_depth_prefixes(
                        Tensor(sample.images[rows]), depths
                    )
                    for i, depth_logits in enumerate(logits):
                        loss_sums[i] += batch_metrics(depth_logits, labels)[0]
                for depth, loss_sum in zip(depths, loss_sums):
                    self._loss_cache[(width, depth)] = loss_sum / len(sample)
        self.backbone.scale(1.0, self.backbone.config.depth)

    def _representative_profile(self, stats: dict) -> DeviceProfile:
        """Worst-case device profile reconstructed from cluster statistics.

        Eq. (10) uses the maximum energy within the cluster as the
        representative metric, so the profile is assembled from the
        cluster's maxima.
        """
        return DeviceProfile(
            device_id=-1,
            gpu_capacity=stats["mean_gpu_capacity"],
            storage_limit=int(stats["min_storage"]),
            num_patches=int(stats["num_patches"]),
            batch_size=int(stats["batch_size"]),
            base_power=stats["max_base_power"],
            power_per_layer=stats["max_power_per_layer"],
            base_latency=stats["max_base_latency"],
            latency_per_layer=stats["max_latency_per_layer"],
        )

    def evaluate_candidates(self, stats: dict) -> List[Candidate]:
        """The (w, d) grid with objective vectors (loss, energy, ζ).

        Losses come from the immutable precomputed grid
        (:meth:`prepare_candidates` runs here if it hasn't yet); the
        energy term is recomputed per cluster from the uploaded stats.
        Nothing on this path mutates shared state, so any number of
        edges can be served concurrently.
        """
        assert self.backbone is not None
        cfg = self.config
        self.prepare_candidates()
        profile = self._representative_profile(stats)
        candidates = []
        for width in WIDTH_CHOICES:
            for depth in self._depth_choices():
                loss = self._loss_cache[(width, depth)]
                joules = energy(profile, width, depth, epochs=cfg.energy_epochs).energy_joules
                size = self.backbone.config.zeta(width, depth)
                candidates.append(Candidate(width, depth, (loss, joules, size)))
        return candidates

    def customize_for_cluster(self, stats: dict) -> Candidate:
        """Algorithm 1 lines 5-18 for one cluster."""
        candidates = self.evaluate_candidates(stats)
        pfg = build_pfg(candidates, self.config.performance_window)
        return select_model(pfg, storage_limit=stats["min_storage"])

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def handle(self, message: Message) -> Optional[Message]:
        if message.kind is MessageKind.CLUSTER_STATS:
            return self._assign_backbone(message)
        if message.kind is MessageKind.DATASET_UPLOAD:
            # Centralized baseline: the cloud just absorbs the data.
            return Message(self.name, message.sender, MessageKind.ACK)
        raise ValueError(f"{self.name} cannot handle {message.kind}")

    def _assign_backbone(self, message: Message) -> None:
        assert self.backbone is not None and self.head_orders is not None
        stats = message.payload["stats"]
        chosen = self.customize_for_cluster(stats)
        with self._lock:
            self.assignments[message.sender] = chosen
        assert self._backbone_state is not None  # frozen by prepare_candidates
        reply = Message(
            self.name,
            message.sender,
            MessageKind.BACKBONE_ASSIGNMENT,
            {
                "vit_config": self.backbone.config,
                "backbone_state": self._backbone_state,
                "head_orders": self.head_orders,
                "neuron_orders": self.neuron_orders,
                "width": chosen.width,
                "depth": chosen.depth,
                "objectives": list(chosen.objectives),
            },
        )
        # The assignment travels cloud → edge over the network (downlink),
        # so it is sent explicitly and its bytes are accounted.
        self.network.send(reply)
        return None
