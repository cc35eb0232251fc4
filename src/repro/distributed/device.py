"""Device node: the leaves of the hierarchy.

A device owns its private dataset and profile.  It receives the customized
(backbone, coarse header) from its edge server, then participates in the
Phase 2-2 single loop: train the header locally with the backbone frozen,
compute an importance set (Eqs. 16-18), upload it, and prune the header by
the personalized set the edge sends back.  Local data never leaves the
device — only importance sets and a tiny feature sample for similarity
estimation.

The backbone being frozen for all of that, a device whose store is
unbounded sweeps its private set through it once per installed model
(:meth:`DeviceNode.frozen_features`); the importance rounds, the finale's
fine-tune and the similarity sample all gather rows from that sweep.

The group methods (:meth:`DeviceNode.importance_rounds`,
:meth:`DeviceNode.finetune_group`) take live devices and never touch
the store: only the edge's walk touches a bounded store, in the parent,
chunk by chunk.  The one single-device entry point, the
personalized-set downlink, hydrates itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.header_importance import ImportanceConfig, prune_by_importance
from repro.core.similarity import extract_features
from repro.data.dataset import ArrayDataset
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import Network
from repro.distributed.state_store import (
    DeviceStateLRU,
    restore_header,
    snapshot_header,
    snapshot_params,
)
from repro.hw.profiles import DeviceProfile
from repro.models.blocks import HeaderSpec
from repro.models.header_dag import DAGHeader
from repro.models.headers import BackboneFeatures
from repro.models.vit import VisionTransformer, ViTConfig
from repro.train.fleet import fleet_importance_rounds, train_headers_fleet
from repro.train.serving import precompute_backbone_features
from repro.train.trainer import TrainConfig

#: Snapshot key for the cached frozen-feature sample (kept distinct from
#: the header's ``param.``/``mask.``/``pristine.`` namespaces).
_FEATURE_KEY = "feature.sample"


class DeviceNode:
    """One device ``n`` with tuple ``(G_n, C_n, θ_n)`` and private data."""

    def __init__(
        self,
        profile: DeviceProfile,
        dataset: ArrayDataset,
        network: Network,
        test_dataset: Optional[ArrayDataset] = None,
        importance_config: Optional[ImportanceConfig] = None,
        seed: int = 0,
        state_store: Optional[DeviceStateLRU] = None,
    ) -> None:
        self.profile = profile
        self.dataset = dataset
        self.test_dataset = test_dataset
        self.network = network
        self.name = f"device{profile.device_id}"
        self.seed = seed
        self.importance_config = importance_config or ImportanceConfig(seed=seed)
        self.backbone: Optional[VisionTransformer] = None
        self.header: Optional[DAGHeader] = None
        self.keep_fraction: float = 0.7
        #: Where model state lives — the cluster's store, or a private
        #: unbounded one for a device built alone.  The device keeps the
        #: distributed payload and hydrates from it (building its header
        #: from the payload with its own seeded RNG, borrowing the
        #: store's shared backbone): at once when the store is
        #: unbounded, on first touch otherwise, keeping only the snapshot
        #: of its mutable state (:func:`snapshot_header`'s arrays plus
        #: the feature sample) when a bounded store evicts it.  Every
        #: capacity is bit-for-bit identical.
        self.state_store = (
            state_store if state_store is not None else DeviceStateLRU()
        )
        self._model_payload: Optional[dict] = None
        self._cold_state: Optional[Dict[str, np.ndarray]] = None
        #: Deterministic cache of the similarity feature sample: frozen
        #: backbone + fixed seed make :func:`extract_features` a pure
        #: function of installed state, so computing it once per model
        #: distribution is value-identical to recomputing per round.
        self._feature_sample: Optional[np.ndarray] = None
        #: The installed backbone's features over ``dataset.images`` —
        #: see :meth:`frozen_features`, the only reader.
        self._features: Optional[BackboneFeatures] = None
        #: Churn state: an inactive device is unregistered from the
        #: fabric (sends to it raise ``KeyError``) and sits out protocol
        #: rounds until :meth:`reactivate` re-registers it.
        self.active = True
        network.register(self.name, self.handle)

    # ------------------------------------------------------------------
    def deactivate(self) -> None:
        """Leave the fabric (device churned off / crashed / went dark).

        Idempotent: deactivating an already-inactive device is a no-op,
        so a churn schedule can re-assert the state every round.
        """
        if self.active:
            self.network.unregister(self.name)
            self.active = False

    def reactivate(self) -> None:
        """Rejoin the fabric under the same name (lazy re-registration).

        The device keeps whatever model state it had when it left; the
        edge's carry-forward store bridges the rounds it missed.
        """
        if not self.active:
            self.network.register(self.name, self.handle)
            self.active = True

    # ------------------------------------------------------------------
    # Residency protocol (DeviceStateLRU owner interface)
    # ------------------------------------------------------------------
    @property
    def has_model(self) -> bool:
        """Whether this device holds a distributed model, live or cold.

        The protocol's participation checks use this instead of probing
        ``backbone``/``header`` directly, so an evicted device still
        counts as provisioned.
        """
        return self._model_payload is not None

    def _ensure_live(self) -> None:
        """Materialize model state before any use (no-op when live)."""
        assert self._model_payload is not None, "model must be distributed first"
        self.state_store.touch(self)

    def _hydrate(self) -> None:
        """Store callback: build (first touch) or restore (post-evict)."""
        payload = self._model_payload
        assert payload is not None
        self.backbone = self.state_store.shared_backbone(payload)
        self.header = self._new_header(payload)
        if self._cold_state is None:
            self.header.load_state_dict(payload["header_state"])
            return
        state, self._cold_state = self._cold_state, None
        sample = state.pop(_FEATURE_KEY, None)
        if sample is not None:
            self._feature_sample = sample
        restore_header(self.header, state)

    def header_parameters(self) -> Dict[str, np.ndarray]:
        """The header's parameter arrays, live or cold, without a touch.

        A touch would hydrate a cold device and move the store's
        counters; the cold snapshot (or, never hydrated, the payload)
        holds the same values.
        """
        if self.header is not None:
            return self.header.state_dict()
        if self._cold_state is not None:
            return snapshot_params(self._cold_state)
        assert self._model_payload is not None, "model must be distributed first"
        return self._model_payload["header_state"]

    def _new_header(self, payload: dict) -> DAGHeader:
        """The payload's header architecture, freshly seeded (no weights)."""
        config: ViTConfig = payload["vit_config"]
        spec: HeaderSpec = payload["header_spec"]
        return DAGHeader(
            config.embed_dim,
            config.num_patches,
            config.num_classes,
            spec,
            rng=np.random.default_rng(self.seed),
        )

    def _evict(self) -> None:
        """Store callback: snapshot mutable state, drop live references.

        The snapshot owns its arrays: parameter values are copies
        (``Module.state_dict`` copies) and the mask / pristine / feature
        arrays change hands, because the header that held them is
        dropped here.
        """
        assert self.header is not None
        state = snapshot_header(self.header)
        if self._feature_sample is not None:
            state[_FEATURE_KEY] = self._feature_sample
        self._cold_state = state
        self.header = None
        self.backbone = None
        self._feature_sample = None
        self._features = None

    # ------------------------------------------------------------------
    def handle(self, message: Message) -> Optional[Message]:
        if message.kind is MessageKind.MODEL_DISTRIBUTION:
            return self._receive_model(message)
        if message.kind is MessageKind.PERSONALIZED_SET:
            return self._receive_personalized_set(message)
        raise ValueError(f"{self.name} cannot handle {message.kind}")

    def _receive_model(self, message: Message) -> Message:
        """Install the distributed backbone + coarse header.

        The payload is stashed and the previous state dropped; the
        header materializes in :meth:`_hydrate` — here and now when
        nothing can ever evict it, on first touch under a bounded store
        — from the same payload with the same seeded RNG, so the live
        state is bit-identical whenever it is built.  The ACK is
        payload-free, so the wire traffic does not depend on it.
        """
        self._feature_sample = None
        self._features = None
        self.keep_fraction = float(message.payload.get("keep_fraction", 0.7))
        self.state_store.drop(self)
        self._model_payload = message.payload
        self._cold_state = None
        self.backbone = None
        self.header = None
        if not self.state_store.bounded:
            self.state_store.touch(self)
        return Message(self.name, message.sender, MessageKind.ACK)

    def _receive_personalized_set(self, message: Message) -> Message:
        """Algorithm 2 line 11: prune the header by the aggregated set Q'_n."""
        assert self.has_model, "model must be distributed first"
        self._ensure_live()
        q_prime = message.payload["importance"]
        prune_by_importance(self.header, q_prime, self.keep_fraction)
        return Message(self.name, message.sender, MessageKind.ACK)

    # ------------------------------------------------------------------
    def frozen_features(self) -> Optional[BackboneFeatures]:
        """The frozen backbone's features over the whole private set.

        Phase 2-2 trains headers "freezing the backbone architecture and
        its parameters" (§III-D) over a fixed private set, so these
        features are a pure function of the installed model: they are
        swept once, tape-free, at first need and serve every importance
        round, the finale's fine-tune and the similarity feature sample
        as row gathers (bit-identical — the kernels are row-independent)
        until the next ``MODEL_DISTRIBUTION`` drops them.  Resident cost
        is ``(1 + 2·num_patches) · embed_dim`` floats per private sample.

        ``None`` — callers keep the per-batch tape-free forward — where
        a cache would be wasteful: there is no row to sweep, or the
        device lives in a bounded
        :class:`DeviceStateLRU` (a thrashing LRU would re-sweep all
        ``n`` rows per touch where a capped round forwards at most
        ``max_batches_per_epoch · batch_size``, and the cold snapshot
        must not grow).
        """
        assert self.backbone is not None, "model must be live"
        if self.state_store.bounded or len(self.dataset) == 0:
            return None
        if self._features is None:
            self._features = precompute_backbone_features(
                self.backbone, self.dataset.images
            )
        return self._features

    @classmethod
    def importance_rounds(
        cls,
        devices: Sequence["DeviceNode"],
        include_feature_sample: bool = False,
        round_index: int = 0,
    ) -> List[Message]:
        """Run the local importance round of ``devices``; one upload
        message each, in order.

        The group trains against its first device's backbone in one
        stacked graph per mini-batch round (:mod:`repro.train.fleet`),
        so the caller groups only devices of this class that hold the
        same frozen backbone instance; one device is the
        group of one.  The caller (edge server) transmits the returned
        messages through the network so the bytes are accounted on the
        uplink.  ``round_index`` is the edge's round counter; the local
        data decide the sets here, so only synthetic devices (the scale
        harness) read it.  The devices must be live: the edge's walk
        hydrates them ahead of the fan-out.
        """
        sets = fleet_importance_rounds(
            devices[0].backbone,
            [d.header for d in devices],
            [d.dataset for d in devices],
            [d.importance_config for d in devices],
            [d.frozen_features() for d in devices],
        )
        return [
            device.build_importance_message(q, include_feature_sample)
            for device, q in zip(devices, sets)
        ]

    def build_importance_message(
        self, importance: np.ndarray, include_feature_sample: bool = False
    ) -> Message:
        """The ``IMPORTANCE_SET`` upload for an already-computed set."""
        assert self.backbone is not None
        # Wire format: importance sets travel as float32 (like any practical
        # serialization); local computation stays float64.
        payload = {
            "importance": np.asarray(importance).astype(np.float32),
            "device_id": self.profile.device_id,
        }
        if include_feature_sample:
            if self._feature_sample is None:
                self._feature_sample = extract_features(
                    self.backbone,
                    self.dataset,
                    max_samples=16,
                    seed=self.seed,
                    features=self.frozen_features(),
                ).astype(np.float32)
            payload["feature_sample"] = self._feature_sample
        return Message(self.name, "", MessageKind.IMPORTANCE_SET, payload)

    def finetune_config(self) -> TrainConfig:
        """The final fine-tuning schedule."""
        return TrainConfig(epochs=2, seed=self.seed)

    @classmethod
    def finetune_group(cls, devices: Sequence["DeviceNode"]) -> None:
        """Final local header training (backbone frozen, mask enforced)
        of live ``devices`` — grouped as for :meth:`importance_rounds`."""
        train_headers_fleet(
            devices[0].backbone,
            [d.header for d in devices],
            [d.dataset for d in devices],
            [d.finetune_config() for d in devices],
            [d.frozen_features() for d in devices],
        )

    def eval_dataset(self) -> ArrayDataset:
        """The split this device's accuracy is judged on."""
        return self.test_dataset if self.test_dataset is not None else self.dataset

    def dataset_upload_message(self, cloud_name: str) -> Message:
        """The centralized-system baseline: ship the raw local dataset."""
        return Message(
            self.name,
            cloud_name,
            MessageKind.DATASET_UPLOAD,
            {"dataset": self.dataset, "device_id": self.profile.device_id},
        )
