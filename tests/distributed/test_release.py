"""A finished deployment frees itself by refcount.

The fabric keeps a node's bound ``handle`` weakly and a device store
indexes its devices weakly, so a deployment's object graph is a tree —
system → network, cloud, edges; edge → devices → store → shared
backbone — and dropping its last reference frees it at once, with no
teardown call.  Every case here runs with the cyclic collector off: the
weakrefs into the run must be dead before any collection, and the
collection that follows must find nothing from ``repro``.
"""

import collections
import gc
import math
import types
import weakref

import pytest

from repro.distributed import ACMEConfig, ACMESystem, ExecutionPlan, FaultConfig
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import Network
from repro.distributed.scale import ScaleCluster, ScaleConfig, run_scale_campaign
from repro.distributed.state_store import DeviceStateLRU
from repro.models.vit import ViTConfig
from tests.helpers import collector_off


def _config(**overrides) -> ACMEConfig:
    config = ACMEConfig(
        num_clusters=2,
        devices_per_cluster=2,
        num_classes=4,
        samples_per_class=12,
        public_samples_per_class=6,
        vit=ViTConfig(num_classes=4, depth=2, embed_dim=16, num_heads=2),
        **overrides,
    )
    config.cloud.pretrain_epochs = 1
    config.cloud.distill.epochs = 1
    return config


def _from_repro(obj) -> bool:
    if isinstance(obj, (type, types.FunctionType)):
        module = obj.__module__
    else:
        module = type(obj).__module__
    return isinstance(module, str) and module.startswith("repro.")


def _repro_garbage() -> collections.Counter:
    """What a collection now finds that was built by ``repro`` code."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return collections.Counter(
            type(o).__qualname__ for o in gc.garbage if _from_repro(o)
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _run_and_drop(config: ACMEConfig):
    """Run a system; return its result and weakrefs into the dropped run."""
    system = ACMESystem(config)
    result = system.run()
    edge = system.edges[0]
    backbone = next(d.backbone for d in edge.devices if d.backbone is not None)
    refs = {
        "system": weakref.ref(system),
        "cloud": weakref.ref(system.cloud),
        "device": weakref.ref(edge.devices[0]),
        "backbone": weakref.ref(backbone),
    }
    return result, refs


class TestDeploymentIsATree:
    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({}, id="serial"),
            pytest.param(
                {"execution": ExecutionPlan(edge_workers=2, device_workers=2)},
                id="thread",
            ),
            pytest.param(
                {
                    "fault_config": FaultConfig(
                        seed=3, drop=0.2, churn=0.3, dead_devices=(1,)
                    )
                },
                id="faults-churn",
            ),
            pytest.param({"device_state_capacity": 1}, id="capacity-1"),
        ],
    )
    def test_dropped_system_is_freed_by_refcount(self, overrides):
        config = _config(**overrides)
        config.edge.round_quorum = 0.3
        with collector_off():
            result, refs = _run_and_drop(config)
            alive = sorted(name for name, ref in refs.items() if ref() is not None)
            leftovers = _repro_garbage()
        assert alive == []
        assert leftovers == collections.Counter()
        # The result outlives its deployment without pinning it.
        assert math.isfinite(result.mean_accuracy)

    def test_dropped_scale_campaign_is_freed_by_refcount(self, monkeypatch):
        refs = []
        distribute = ScaleCluster.distribute

        def recording(self):
            refs.extend(
                weakref.ref(o) for o in (self, self.store, self.devices[0], self.backbone)
            )
            return distribute(self)

        monkeypatch.setattr(ScaleCluster, "distribute", recording)
        config = ScaleConfig(
            num_devices=24, num_clusters=2, rounds=2, lru_capacity=3,
            eval_requests=2, drop=0.2, churn=0.2, deadline_quantile=0.9,
            seed=0,
        )
        with collector_off():
            report = run_scale_campaign(config)
            alive = [ref for ref in refs if ref() is not None]
            leftovers = _repro_garbage()
        assert len(refs) == 8 and alive == []
        assert leftovers == collections.Counter()
        assert report.contributions > 0


class _Node:
    def __init__(self) -> None:
        self.seen = []

    def handle(self, message: Message) -> None:
        self.seen.append(message.kind)


def _ack(receiver: str) -> Message:
    return Message("sender", receiver, MessageKind.ACK, nbytes=1)


class TestWeakRegistry:
    def test_delivery_to_a_dropped_node_names_the_collection(self):
        network = Network()
        with collector_off():
            node = _Node()
            network.register("n", node.handle)
            del node
            with pytest.raises(KeyError, match="garbage-collected without unregister"):
                network.send(_ack("n"))
        assert not network.is_registered("n")
        assert network.nodes() == []

    def test_a_dropped_nodes_name_is_free_again(self):
        network = Network()
        with collector_off():
            first = _Node()
            network.register("n", first.handle)
            del first
            second = _Node()
            network.register("n", second.handle)
        network.send(_ack("n"))
        assert second.seen == [MessageKind.ACK]
        assert network.nodes() == ["n"]

    def test_reregistering_the_same_bound_method_is_a_no_op(self):
        network = Network()
        node = _Node()
        network.register("n", node.handle)
        network.register("n", node.handle)  # a fresh bound method, == the first
        network.send(_ack("n"))
        assert node.seen == [MessageKind.ACK]
        assert network.nodes() == ["n"]

    def test_a_lambda_handler_needs_no_other_owner(self):
        network = Network()
        seen = []
        network.register("sink", lambda message: seen.append(message.kind))
        gc.collect()
        network.send(_ack("sink"))
        assert seen == [MessageKind.ACK]

    def test_the_store_indexes_its_devices_without_owning_them(self):
        class Owner:
            name = "device0"

            def _hydrate(self) -> None:
                pass

            def _evict(self) -> None:
                pass

        store = DeviceStateLRU(capacity=1)
        with collector_off():
            owner = Owner()
            store.touch(owner)
            ref = weakref.ref(owner)
            del owner
            assert ref() is None
