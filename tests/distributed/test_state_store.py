"""Device-state LRU: evict → rehydrate is bit-for-bit the never-evicted path.

The :class:`~repro.distributed.state_store.DeviceStateLRU` lets a
cluster keep only K devices' headers materialized; everything else sits
as its cold snapshot (the ``snapshot_header`` arrays — no byte format on
the residency path).  The contract under test: *no observable
difference* from an unbounded store (the "eager" twins here own a
private one, hydrated at distribution) — not in importance sets, not in
prune masks, not across checkpoints or dtype casts, and not in a full
system run's ledger.  Eviction is probed
at the adversarial points: between importance rounds, after pruning,
across a save→load checkpoint, and across ``astype``.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.header_importance import ImportanceConfig
from repro.data import make_cifar100_like
from repro.distributed import ACMEConfig, ACMESystem
from repro.distributed.device import DeviceNode
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import Network
from repro.distributed.scale import ScaleCluster, ScaleConfig
from repro.distributed.state_store import (
    DeviceStateLRU,
    restore_header,
    snapshot_header,
)
from repro.hw.profiles import DeviceProfile
from repro.models import ViTConfig, VisionTransformer
from repro.models.blocks import BlockSpec, HeaderSpec
from repro.models.header_dag import DAGHeader
from repro.nn.serialization import state_from_bytes, state_to_bytes
from repro.train.serving import ServingFront
from tests.helpers import evaluate, finetune, importance_round

#: The scale harness's counts, each built the way the harness builds it.
SCALE_COUNTS = {
    "set_size": lambda n: ScaleCluster(0, 2, 0, Network(), ScaleConfig(set_size=n)),
    "micro_batch": lambda n: ServingFront(None, micro_batch=n),
}


def _distribution_payload(seed: int = 0) -> dict:
    config = ViTConfig(image_size=8, patch_size=4, embed_dim=16, depth=2,
                       num_heads=2, num_classes=4)
    backbone = VisionTransformer(config, seed=0)
    spec = HeaderSpec(blocks=(BlockSpec(0, 1, 1, 3),))
    header = DAGHeader(config.embed_dim, config.num_patches,
                       config.num_classes, spec,
                       rng=np.random.default_rng(seed))
    return {
        "vit_config": config,
        "backbone_state": backbone.state_dict(),
        "head_orders": [np.arange(config.num_heads)] * config.depth,
        "neuron_orders": [np.arange(config.mlp_hidden)] * config.depth,
        "width": 1.0,
        "depth": config.depth,
        "header_spec": spec,
        "header_state": header.state_dict(),
        "keep_fraction": 0.6,
    }


def _device(network, data, device_id=0, seed=3, store=None):
    profile = DeviceProfile.synthesize(
        device_id, 4, 50_000, np.random.default_rng(device_id)
    )
    return DeviceNode(
        profile, data, network, seed=seed, state_store=store,
        importance_config=ImportanceConfig(seed=seed, max_batches_per_epoch=1),
    )


def _provision(device, payload):
    reply = device.handle(
        Message("edge0", device.name, MessageKind.MODEL_DISTRIBUTION, payload)
    )
    assert reply.kind is MessageKind.ACK


@pytest.fixture()
def twins():
    """Same profile/seed/data twice: one eager device, one lazy."""
    network = Network()
    data = make_cifar100_like(num_classes=4, image_size=8).generate(
        samples_per_class=8, seed=1
    )
    payload = _distribution_payload()
    eager = _device(network, data, device_id=0)
    store = DeviceStateLRU(capacity=1)
    lazy = _device(network, data, device_id=1, store=store)
    # Same seed on both sides — the device name differs but every RNG
    # draw (header init, importance config, feature sampling) is seeded
    # from `seed`, which is what the parity contract keys on.
    _provision(eager, payload)
    _provision(lazy, payload)
    return eager, lazy, store, network, data, payload


def _force_evict(lazy, store, network, data, payload):
    """Hydrate a sacrificial sibling so the capacity-1 store evicts."""
    other = _device(network, data, device_id=99, store=store)
    _provision(other, payload)
    other._ensure_live()
    assert not store.is_live(lazy)
    assert lazy.header is None and lazy._cold_state is not None


class TestEvictionParity:
    def test_first_touch_matches_eager_build(self, twins):
        eager, lazy, _store, *_ = twins
        assert lazy.header is None  # nothing materialized yet
        up_eager = importance_round(eager, include_feature_sample=True)
        up_lazy = importance_round(lazy, include_feature_sample=True)
        np.testing.assert_array_equal(
            up_eager.payload["importance"], up_lazy.payload["importance"]
        )
        np.testing.assert_array_equal(
            up_eager.payload["feature_sample"], up_lazy.payload["feature_sample"]
        )

    def test_eviction_between_importance_rounds(self, twins):
        eager, lazy, store, network, data, payload = twins
        q1e = importance_round(eager).payload["importance"]
        q1l = importance_round(lazy).payload["importance"]
        np.testing.assert_array_equal(q1e, q1l)
        # Prune both by the same personalized set, then evict the lazy
        # twin *between rounds* — masks and pristine copies must survive
        # the round trip.
        q_prime = np.abs(np.random.default_rng(0).random(q1e.size)).astype(
            np.float32
        )
        down = {"importance": q_prime}
        eager.handle(Message("edge0", eager.name, MessageKind.PERSONALIZED_SET, down))
        lazy.handle(Message("edge0", lazy.name, MessageKind.PERSONALIZED_SET, down))
        _force_evict(lazy, store, network, data, payload)
        q2e = importance_round(eager).payload["importance"]
        q2l = importance_round(lazy).payload["importance"]
        np.testing.assert_array_equal(q2e, q2l)
        for name, value in eager.header.state_dict().items():
            np.testing.assert_array_equal(value, lazy.header.state_dict()[name])
        assert (eager.header._parameter_mask is None) == (
            lazy.header._parameter_mask is None
        )
        if eager.header._parameter_mask is not None:
            for key, mask in eager.header._parameter_mask.items():
                np.testing.assert_array_equal(
                    mask, lazy.header._parameter_mask[key]
                )

    def test_eviction_across_checkpoint_save_load(self, twins, tmp_path):
        eager, lazy, store, network, data, payload = twins
        finetune(eager)
        finetune(lazy)
        _force_evict(lazy, store, network, data, payload)
        # Spill the cold snapshot to disk explicitly (what a real edge
        # would checkpoint), reload it, and hand it back to the device.
        blob_path = tmp_path / "device1.cold"
        blob_path.write_bytes(state_to_bytes(lazy._cold_state))
        lazy._cold_state = state_from_bytes(blob_path.read_bytes())
        lazy._ensure_live()
        for name, value in eager.header.state_dict().items():
            np.testing.assert_array_equal(value, lazy.header.state_dict()[name])
        ev_eager, ev_lazy = evaluate(eager), evaluate(lazy)
        assert ev_eager == ev_lazy

    def test_eviction_and_rehydration_serialize_nothing(self, monkeypatch):
        """No byte format on the residency path: the npz serializers may
        raise and a thrashing store still matches the always-live twins."""

        def forbidden(*args, **kwargs):
            raise AssertionError("byte serialization on the residency path")

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for name in ("state_to_bytes", "state_from_bytes"):
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, forbidden)
        network = Network()
        data = make_cifar100_like(num_classes=4, image_size=8).generate(
            samples_per_class=8, seed=1
        )
        payload = _distribution_payload()
        store = DeviceStateLRU(capacity=1)
        live = [_device(network, data, device_id=i) for i in (0, 1)]
        lazy = [_device(network, data, device_id=10 + i, store=store) for i in (0, 1)]
        for device in live + lazy:
            _provision(device, payload)
        for _round in range(3):
            for eager_twin, lazy_twin in zip(live, lazy):
                np.testing.assert_array_equal(
                    importance_round(eager_twin).payload["importance"],
                    importance_round(lazy_twin).payload["importance"],
                )
        assert store.hydrations == 6 and store.evictions == 5

    def test_cold_snapshot_owns_its_state(self, twins):
        """Nothing outside the device can reach into an evicted snapshot."""
        eager, lazy, store, network, data, payload = twins
        finetune(lazy)
        expected = lazy.header.state_dict()
        old_arrays = [p.data for p in lazy.header.parameters()]
        _force_evict(lazy, store, network, data, payload)
        for array in old_arrays + list(payload["header_state"].values()):
            array[...] = np.nan
        lazy._ensure_live()
        restored = lazy.header.state_dict()
        assert set(restored) == set(expected)
        for name, value in expected.items():
            np.testing.assert_array_equal(value, restored[name])

    def test_lazy_device_never_caches_frozen_features(self, twins):
        """A store-managed device keeps the capped per-batch forwards: no
        whole-set feature cache is built, live or cold, and the cold
        snapshot holds the header's arrays plus the 16-row sample only —
        while its always-live twin, which does cache, agrees bit for bit."""
        eager, lazy, store, network, data, payload = twins
        for _round in range(2):
            up_eager = importance_round(eager, include_feature_sample=True)
            up_lazy = importance_round(lazy, include_feature_sample=True)
            np.testing.assert_array_equal(
                up_eager.payload["importance"], up_lazy.payload["importance"]
            )
        finetune(eager)
        finetune(lazy)
        assert eager.frozen_features() is not None
        assert lazy.frozen_features() is None and lazy._features is None
        header_keys = set(snapshot_header(lazy.header))
        _force_evict(lazy, store, network, data, payload)
        assert lazy._features is None
        assert set(lazy._cold_state) == header_keys | {"feature.sample"}
        lazy._ensure_live()
        for name, value in eager.header.state_dict().items():
            np.testing.assert_array_equal(value, lazy.header.state_dict()[name])

    def test_eviction_across_astype(self, twins):
        eager, lazy, store, network, data, payload = twins
        finetune(eager)
        finetune(lazy)
        _force_evict(lazy, store, network, data, payload)
        lazy._ensure_live()
        eager32 = eager.header.astype(np.float32)
        lazy32 = lazy.header.astype(np.float32)
        for name, value in eager32.state_dict().items():
            assert value.dtype == np.float32
            np.testing.assert_array_equal(value, lazy32.state_dict()[name])


class TestSnapshotRoundTrip:
    def test_masked_header_snapshot_bit_exact(self):
        rng = np.random.default_rng(7)
        spec = HeaderSpec(blocks=(BlockSpec(0, 1, 1, 3),))
        header = DAGHeader(16, 4, 4, spec, rng=np.random.default_rng(3))
        from repro.core.header_importance import prune_by_importance

        size = sum(int(np.prod(p.data.shape)) for p in header.parameters())
        prune_by_importance(header, rng.random(size), keep_fraction=0.5)
        state = state_from_bytes(state_to_bytes(snapshot_header(header)))
        fresh = DAGHeader(16, 4, 4, spec, rng=np.random.default_rng(99))
        restore_header(fresh, state)
        for name, value in header.state_dict().items():
            np.testing.assert_array_equal(value, fresh.state_dict()[name])
        assert set(header._parameter_mask) == set(fresh._parameter_mask)
        for key in header._parameter_mask:
            np.testing.assert_array_equal(
                header._parameter_mask[key], fresh._parameter_mask[key]
            )
            np.testing.assert_array_equal(
                header._pristine[key], fresh._pristine[key]
            )


class TestLRUMechanics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DeviceStateLRU(0)
        # Refused and named, never truncated (2.7 → 2, True → 1) nor left
        # to fail later inside a comparison ("4").
        for bad in (2.7, True, "4", -1):
            with pytest.raises(ValueError, match=f"got {bad!r}"):
                DeviceStateLRU(bad)
        assert DeviceStateLRU(np.int64(3)).capacity == 3
        with pytest.raises(ValueError, match="got 2.7"):
            ACMESystem(
                ACMEConfig(
                    num_clusters=1,
                    devices_per_cluster=2,
                    num_classes=4,
                    samples_per_class=6,
                    device_state_capacity=2.7,
                )
            )
        with pytest.raises(ValueError, match="got 2.7"):
            ScaleCluster(0, 2, 0, Network(), ScaleConfig(lru_capacity=2.7))
        # The scale harness's other counts follow the same rule: its
        # own ``set_size`` and its serving front's ``micro_batch``.
        for field, build in SCALE_COUNTS.items():
            with pytest.raises(ValueError, match=f"{field} .*got 2.7"):
                build(2.7)

    @pytest.mark.parametrize("field", list(SCALE_COUNTS))
    def test_scale_counts_refuse_bools_and_zero(self, field):
        """``True`` is not a count of 1 and zero is no count at all: the
        harness refuses both, naming the field, before any device trains."""
        for bad in (True, 0):
            with pytest.raises(ValueError, match=f"{field} .*got {bad!r}"):
                SCALE_COUNTS[field](bad)

    def test_eviction_order_and_counters(self):
        network = Network()
        data = make_cifar100_like(num_classes=4, image_size=8).generate(
            samples_per_class=4, seed=1
        )
        payload = _distribution_payload()
        store = DeviceStateLRU(capacity=2)
        devices = [
            _device(network, data, device_id=i, store=store) for i in range(3)
        ]
        for d in devices:
            _provision(d, payload)
        devices[0]._ensure_live()
        devices[1]._ensure_live()
        devices[0]._ensure_live()  # refresh 0 → LRU order is [1, 0]
        devices[2]._ensure_live()  # evicts 1, not 0
        assert store.is_live(devices[0]) and store.is_live(devices[2])
        assert not store.is_live(devices[1])
        assert store.hydrations == 3 and store.evictions == 1
        # The evicted device's cold snapshot exists; the live ones have none.
        assert devices[1]._cold_state is not None
        assert devices[0]._cold_state is None

    def test_shared_backbone_single_instance(self):
        network = Network()
        data = make_cifar100_like(num_classes=4, image_size=8).generate(
            samples_per_class=4, seed=1
        )
        payload = _distribution_payload()
        store = DeviceStateLRU(capacity=4)
        devices = [
            _device(network, data, device_id=i, store=store) for i in range(3)
        ]
        for d in devices:
            _provision(d, payload)
            d._ensure_live()
        assert devices[0].backbone is devices[1].backbone is devices[2].backbone


class TestUnboundedStore:
    def test_hydrates_at_install_and_touch_is_a_pure_read(self):
        """``capacity=None``: every owner is built once, when the model
        arrives, and a later touch — from any number of threads, as the
        thread fan-out of a live cluster does — mutates nothing."""
        network = Network()
        data = make_cifar100_like(num_classes=4, image_size=8).generate(
            samples_per_class=4, seed=1
        )
        payload = _distribution_payload()
        store = DeviceStateLRU()
        assert not store.bounded and DeviceStateLRU(2).bounded
        devices = [_device(network, data, device_id=i, store=store) for i in range(6)]
        for d in devices:
            _provision(d, payload)
        assert all(d.header is not None and store.is_live(d) for d in devices)
        assert len({id(d.backbone) for d in devices}) == 1
        headers = [d.header for d in devices]
        order = list(store._live)

        def touch_all():
            for _ in range(200):
                for d in reversed(devices):
                    d._ensure_live()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=touch_all) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert (store.hydrations, store.evictions) == (6, 0)
        assert list(store._live) == order
        assert [d.header for d in devices] == headers


class TestSystemParity:
    def test_lazy_system_bit_identical_to_eager(self):
        """Full pipeline, LRU capacity 1 (evict on every touch) vs None."""

        def run(capacity):
            from tests.helpers import reset_engine_state

            reset_engine_state()
            config = ACMEConfig(
                num_clusters=1,
                devices_per_cluster=3,
                num_classes=4,
                samples_per_class=12,
                compute_dtype="float64",
                device_state_capacity=capacity,
                seed=0,
            )
            system = ACMESystem(config)
            result = system.run()
            return result, system.network.kind_sequence(), system.network.stats.total_bytes

        eager, eager_kinds, eager_bytes = run(None)
        lazy, lazy_kinds, lazy_bytes = run(1)
        assert lazy.mean_accuracy == eager.mean_accuracy
        assert (
            lazy.clusters[0].device_accuracies == eager.clusters[0].device_accuracies
        )
        assert lazy.clusters[0].device_losses == eager.clusters[0].device_losses
        assert lazy_kinds == eager_kinds
        assert lazy_bytes == eager_bytes
