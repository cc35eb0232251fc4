"""Cross-edge parallel cluster pipeline reproduces the serial run exactly.

``ExecutionPlan.edge_workers`` fans whole per-edge pipelines (backbone
request, header NAS, aggregation loop, finalize) out across worker
threads.  Each edge sends through its own
:class:`repro.distributed.network.NetworkShard`; shards merge into the
global ledger in deterministic edge order, and the cloud's request path
is immutable-shared with a per-edge response path — so any worker count
must reproduce the serial float64 run **bit-for-bit**, including the
full traffic ledger.  These tests assert exactly that, plus the fabric
semantics (shard routing, merge determinism, register/unregister), the
:class:`ExecutionPlan` itself (validation, the worker-budget split that
keeps nested fan-outs within the host budget) and the plan checked as a
**product**: every cell of edge × device widths equals the serial run, and
every cell of residency × executor gives one result — at float64, and
on a subset of cells at the default float32.
"""

import dataclasses
import functools
import os
import pickle
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core.distill import WIDTH_CHOICES
from repro.distributed import ACMEConfig, ACMESystem, ExecutionPlan
from repro.distributed.faults import FaultConfig, FaultPolicy
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import Network
from repro.models.vit import ViTConfig
from tests.helpers import assert_same_run, collector_off, reset_engine_state


def _fleet_config(**overrides) -> ACMEConfig:
    base = dict(
        num_clusters=3,
        devices_per_cluster=2,
        num_classes=6,
        samples_per_class=18,
        compute_dtype="float64",
        seed=0,
    )
    base.update(overrides)
    return ACMEConfig(**base)


@pytest.fixture(scope="module")
def serial_and_parallel_runs():
    # Module-scoped fixtures set up BEFORE the function-scoped autouse
    # reset in tests/conftest.py, so reset explicitly: these runs must
    # not inherit engine state from whichever test happened to run last.
    from tests.helpers import reset_engine_state

    reset_engine_state()
    serial = ACMESystem(_fleet_config()).run()
    parallel = ACMESystem(
        _fleet_config(execution=ExecutionPlan(edge_workers=3))
    ).run()
    return serial, parallel


class TestEndToEndParity:
    def test_accuracies_bit_for_bit(self, serial_and_parallel_runs):
        serial, parallel = serial_and_parallel_runs
        for cs, cp in zip(serial.clusters, parallel.clusters):
            assert cs.edge_name == cp.edge_name
            assert cs.device_accuracies == cp.device_accuracies
            assert cs.device_losses == cp.device_losses
            assert (cs.width, cs.depth) == (cp.width, cp.depth)

    def test_global_message_sequence_identical(self, serial_and_parallel_runs):
        serial, parallel = serial_and_parallel_runs
        assert serial.message_kinds == parallel.message_kinds

    def test_per_edge_subsequences_identical(self, serial_and_parallel_runs):
        """Each edge's shard log is the same kind sub-sequence either way,
        and the global sequence is their concatenation in edge order."""
        serial, parallel = serial_and_parallel_runs
        assert serial.edge_message_kinds.keys() == parallel.edge_message_kinds.keys()
        for edge_name in serial.edge_message_kinds:
            assert (
                serial.edge_message_kinds[edge_name]
                == parallel.edge_message_kinds[edge_name]
            )
        concatenated = [
            kind
            for edge_name in sorted(
                serial.edge_message_kinds, key=lambda n: int(n.removeprefix("edge"))
            )
            for kind in serial.edge_message_kinds[edge_name]
        ]
        assert concatenated == serial.message_kinds

    def test_traffic_ledger_identical(self, serial_and_parallel_runs):
        serial, parallel = serial_and_parallel_runs
        s, p = serial.traffic, parallel.traffic
        assert s.total_bytes == p.total_bytes
        assert s.upload_bytes == p.upload_bytes
        assert s.download_bytes == p.download_bytes
        assert s.message_count == p.message_count
        assert dict(s.by_kind) == dict(p.by_kind)
        assert dict(s.by_pair) == dict(p.by_pair)

    def test_ledger_internally_consistent(self, serial_and_parallel_runs):
        _serial, parallel = serial_and_parallel_runs
        stats = parallel.traffic
        assert stats.total_bytes == stats.upload_bytes + stats.download_bytes
        assert stats.total_bytes == sum(stats.by_kind.values())
        assert stats.total_bytes == sum(stats.by_pair.values())

    def test_composes_with_parallel_devices(self, serial_and_parallel_runs):
        """Both tiers fanning out at once still reproduces serial."""
        nested = ACMESystem(
            _fleet_config(execution=ExecutionPlan(edge_workers=2, device_workers=2))
        ).run()
        assert_same_run(serial_and_parallel_runs[0], nested)


@pytest.fixture(scope="module")
def serial_float32_run():
    reset_engine_state()
    return ACMESystem(_fleet_config(compute_dtype="float32")).run()


#: ``ExecutionPlan`` cells, each held to the serial run (whose clusters
#: train batched: the inner tier is serial).
PLAN_CELLS = {
    "devices4": dict(device_workers=4),
    "edges3": dict(edge_workers=3),
    "edges2-devices2": dict(edge_workers=2, device_workers=2),
}


class TestPlanProduct:
    @pytest.mark.parametrize("cell", list(PLAN_CELLS))
    def test_cell_reproduces_serial(self, cell, serial_and_parallel_runs, monkeypatch):
        """Execution placement is invisible to the protocol: accuracies,
        losses, ``(width, depth)``, kind sequence, ledger bytes and fault
        counters of every plan equal the serial run's."""
        plan = ExecutionPlan(**PLAN_CELLS[cell])
        # A roomy host budget, so the nested cells really nest instead
        # of being capped to edges × 1 on a 2-core CI box.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        system = ACMESystem(_fleet_config(execution=plan))
        assert_same_run(serial_and_parallel_runs[0], system.run())

    @pytest.mark.parametrize("cell", ["devices4"])
    def test_float32_cell_reproduces_serial(self, cell, serial_float32_run, monkeypatch):
        """The same contract at the default dtype on a thread cell:
        float32 arrays cross the executor's context hand-off like
        float64 ones."""
        plan = ExecutionPlan(**PLAN_CELLS[cell])
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        system = ACMESystem(_fleet_config(execution=plan, compute_dtype="float32"))
        assert_same_run(serial_float32_run, system.run())


#: Residency × executor on a 1 × 3-device system (capacity 2 puts a
#: chunk boundary of the edge's walk inside the cluster).
CAPACITY_CELLS = {"unbounded": None, "capacity1": 1, "capacity2": 2, "capacityN": 3}
EXECUTOR_CELLS = {"serial": {}, "threads2": dict(device_workers=2)}


def _residency_run(capacity, executor, dtype="float64"):
    reset_engine_state()
    config = _fleet_config(
        num_clusters=1,
        devices_per_cluster=3,
        num_classes=4,
        samples_per_class=12,
        vit=ViTConfig(num_classes=4, depth=4, embed_dim=32),
        device_state_capacity=capacity,
        execution=ExecutionPlan(**EXECUTOR_CELLS[executor]),
        compute_dtype=dtype,
    )
    return ACMESystem(config).run().digest()


@functools.cache
def _residency_reference(dtype="float64"):
    """The serial unbounded run for one dtype."""
    return _residency_run(None, "serial", dtype)


class TestResidencyProduct:
    @pytest.mark.parametrize("executor", list(EXECUTOR_CELLS))
    @pytest.mark.parametrize("capacity", list(CAPACITY_CELLS))
    def test_cell_gives_the_one_result(self, capacity, executor):
        """How many devices stay live and where their updates run are
        invisible: one digest — protocol and numeric halves — over all
        eight cells."""
        got = _residency_run(CAPACITY_CELLS[capacity], executor)
        assert got == _residency_reference()

    @pytest.mark.parametrize("executor", list(EXECUTOR_CELLS))
    @pytest.mark.parametrize("capacity", ["capacity1", "capacity2"])
    def test_float32_cell_gives_the_one_result(self, capacity, executor):
        """The default dtype on the capacities that evict: a float32
        snapshot restores the float32 header it was taken from."""
        cap = CAPACITY_CELLS[capacity]
        got = _residency_run(cap, executor, "float32")
        assert got == _residency_reference("float32")


def _device_backbones(edge):
    return {id(d.backbone): d.backbone for d in edge.devices if d.backbone is not None}


class TestOneBackbonePerCluster:
    @pytest.mark.parametrize("capacity", [None, 2])
    def test_cluster_shares_one_eval_mode_instance(self, capacity):
        system = ACMESystem(
            _fleet_config(num_clusters=2, device_state_capacity=capacity)
        )
        system.run_cloud_phases()
        instances = {}
        for edge in system.edges:
            edge.request_backbone()
            edge.search_header()
            edge.distribute_models()
            for device in edge.devices:  # a bounded store builds on first touch
                device._ensure_live()
            (backbone,) = _device_backbones(edge).values()
            assert backbone is not edge.backbone
            instances.update(_device_backbones(edge))
        assert len(instances) == 2  # one per cluster, not one per device

    def test_redistribution_releases_the_previous_backbone(self):
        """The store holds the current payload's backbone only: a second
        distribution replaces it and nothing pins the first — not even a
        cycle, as the collector never runs."""
        with collector_off():
            system = ACMESystem(_fleet_config(num_clusters=1))
            system.run_cloud_phases()
            (edge,) = system.edges
            edge.request_backbone()
            edge.search_header()
            edge.distribute_models()
            first = weakref.ref(edge.devices[0].backbone)
            edge.distribute_models()
            assert first() is None
        (second,) = _device_backbones(edge).values()
        assert all(d.backbone is second for d in edge.devices)


class TestShardFabric:
    def test_shard_records_locally_until_merge(self):
        net = Network()
        net.register("sink", lambda m: None)
        shard = net.shard("edge0")
        shard.send(Message("a", "sink", MessageKind.ACK, nbytes=3))
        assert net.stats.total_bytes == 0 and net.log == []
        assert shard.stats.total_bytes == 3
        assert shard.kind_sequence() == ["ack"]
        net.merge_shards([shard])
        assert net.stats.total_bytes == 3
        assert net.kind_sequence() == ["ack"]
        # Drained: merging again cannot double-count.
        assert shard.log == [] and shard.stats.total_bytes == 0
        net.merge_shards([shard])
        assert net.stats.total_bytes == 3

    def test_merge_order_is_the_log_order(self):
        net = Network()
        net.register("sink", lambda m: None)
        first, second = net.shard("edge0"), net.shard("edge1")
        # Interleave sends; the merged log must follow merge order, not
        # send order.
        second.send(Message("b", "sink", MessageKind.PERSONALIZED_SET, nbytes=2))
        first.send(Message("a", "sink", MessageKind.IMPORTANCE_SET, nbytes=1))
        net.merge_shards([first, second])
        assert net.kind_sequence() == ["importance_set", "personalized_set"]
        assert net.stats.upload_bytes == 1 and net.stats.download_bytes == 2
        assert net.stats.by_pair[("a", "sink")] == 1

    def test_nested_handler_send_lands_on_the_carrying_shard(self):
        """A handler's reply through the ROOT network (the cloud pattern)
        is recorded on the shard that carried the request."""
        net = Network()
        net.register("edge", lambda m: None)

        def cloud_handler(message):
            net.send(Message("cloud", "edge", MessageKind.BACKBONE_ASSIGNMENT, nbytes=8))

        net.register("cloud", cloud_handler)
        shard = net.shard("edge0")
        shard.send(Message("edge", "cloud", MessageKind.CLUSTER_STATS, nbytes=4))
        assert shard.kind_sequence() == ["cluster_stats", "backbone_assignment"]
        assert shard.stats.total_bytes == 12
        assert net.stats.total_bytes == 0

    def test_activate_scope_routes_root_sends(self):
        net = Network()
        net.register("sink", lambda m: None)
        shard = net.shard("edge0")
        with shard.activate():
            net.send(Message("a", "sink", MessageKind.ACK, nbytes=5))
        net.send(Message("a", "sink", MessageKind.ACK, nbytes=7))
        assert shard.stats.total_bytes == 5
        assert net.stats.total_bytes == 7

    def test_merge_rejects_foreign_shards(self):
        net, other = Network(), Network()
        with pytest.raises(ValueError, match="different fabric"):
            net.merge_shards([other.shard("edge0")])

    def test_shard_register_is_fabric_global(self):
        net = Network()
        shard = net.shard("edge0")
        shard.register("node", lambda m: None)
        assert "node" in net.nodes()
        with pytest.raises(ValueError, match="shard 'edge0'"):
            shard.register("node", lambda m: None)

    def test_unknown_receiver_names_the_shard(self):
        net = Network()
        shard = net.shard("edge0")
        with pytest.raises(KeyError, match="edge0"):
            shard.send(Message("a", "nowhere", MessageKind.ACK, nbytes=1))


class TestAdversarialShardMerge:
    """``merge_shards`` under fault injection and hostile interleavings.

    Each shard pumps a seeded random schedule of sends while a fault
    policy drops/corrupts/duplicates/delays deliveries.  Fault draws are
    keyed per (kind, sender, receiver) link and every link belongs to
    exactly one shard, so however the threads interleave, the merged
    traffic log AND the merged fault log must equal the serial
    edge-order run's — the same contract the system relies on for
    chaos-run replayability under ``parallel_edges``.
    """

    KINDS = (
        MessageKind.CLUSTER_STATS,
        MessageKind.ACK,
        MessageKind.IMPORTANCE_SET,
        MessageKind.PERSONALIZED_SET,
    )

    def _schedules(self, seed, num_shards=4, sends_per_shard=40):
        rng = np.random.default_rng(seed)
        return [
            [
                (self.KINDS[int(k)], int(n))
                for k, n in zip(
                    rng.integers(0, len(self.KINDS), sends_per_shard),
                    rng.integers(1, 100, sends_per_shard),
                )
            ]
            for _ in range(num_shards)
        ]

    def _run(self, schedules, seed, concurrent):
        net = Network()
        net.register("sink", lambda m: None)
        net.install_fault_policy(
            FaultPolicy(
                FaultConfig(
                    seed=seed,
                    drop=0.2,
                    corrupt=0.1,
                    duplicate=0.1,
                    delay=0.1,
                    delay_deliveries=2,
                )
            )
        )
        shards = [net.shard(f"edge{i}") for i in range(len(schedules))]

        def pump(i):
            jitter = np.random.default_rng(1000 + i)
            for kind, nbytes in schedules[i]:
                if concurrent and jitter.random() < 0.3:
                    time.sleep(float(jitter.uniform(0.0, 0.002)))
                shards[i].send(Message(f"edge{i}", "sink", kind, nbytes=nbytes))

        if concurrent:
            threads = [
                threading.Thread(target=pump, args=(i,))
                for i in range(len(shards))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        else:
            for i in range(len(shards)):
                pump(i)
        net.merge_shards(shards)
        return net

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_concurrent_merge_equals_serial_edge_order(self, seed):
        schedules = self._schedules(seed)
        serial = self._run(schedules, seed, concurrent=False)
        concurrent = self._run(schedules, seed, concurrent=True)
        assert concurrent.kind_sequence() == serial.kind_sequence()
        assert [
            (m.kind, m.sender, m.receiver, m.nbytes) for m in concurrent.log
        ] == [(m.kind, m.sender, m.receiver, m.nbytes) for m in serial.log]
        assert concurrent.fault_log == serial.fault_log
        assert concurrent.fault_log, "campaign should have injected faults"
        assert concurrent.stats.total_bytes == serial.stats.total_bytes
        assert dict(concurrent.stats.by_kind) == dict(serial.stats.by_kind)
        assert dict(concurrent.stats.by_pair) == dict(serial.stats.by_pair)
        assert concurrent.delivery_attempts == serial.delivery_attempts


class TestTeardown:
    def test_unregister_frees_the_name(self):
        net = Network()
        net.register("x", lambda m: None)
        net.unregister("x")
        assert net.nodes() == []
        net.register("x", lambda m: None)  # no duplicate error

    def test_unregister_unknown_raises(self):
        net = Network()
        with pytest.raises(KeyError, match="unknown node"):
            net.unregister("ghost")

    def test_system_dispose_unregisters_everything(self):
        system = ACMESystem(
            _fleet_config(num_clusters=1, finalize=False)
        )
        assert len(system.network.nodes()) == 1 + 1 + 2  # cloud + edge + devices
        system.dispose()
        assert system.network.nodes() == []


class TestExecutionPlan:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("device_workers", -2),
            ("edge_workers", -2),
            ("device_workers", "many"),
            # Refused, not truncated to 2 / 1: the resolved width decides
            # how an edge groups its devices' training.
            ("device_workers", 2.7),
            ("edge_workers", True),
        ],
    )
    def test_bad_spec_named_at_construction(self, field, value):
        with pytest.raises(ValueError, match=f"ExecutionPlan.{field}: "):
            ExecutionPlan(**{field: value})

    def test_frozen_and_pickles(self):
        """Immutable (no layer can re-declare a field after the fact) and
        picklable (the supervisor ships configs to edge processes)."""
        plan = ExecutionPlan(edge_workers=2, device_workers="auto")
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.device_workers = 1
        config = _fleet_config(execution=plan)
        assert pickle.loads(pickle.dumps(config)).execution == plan

    def test_one_plan_reaches_every_layer(self):
        """No tier can disagree with the system about width: the edge
        holds the config's plan, split once."""
        plan = ExecutionPlan(device_workers=2)
        system = ACMESystem(_fleet_config(num_clusters=1, finalize=False, execution=plan))
        assert system.edges[0].plan == plan.split(1)
        assert not hasattr(system.config.edge, "backend")
        assert not hasattr(system.config.edge.nas, "backend")


class TestWorkerBudgetSplit:
    def test_serial_outer_passes_inner_through(self):
        plan = ExecutionPlan(device_workers=4)
        assert plan.split(3) is plan
        plan = ExecutionPlan(edge_workers=1, device_workers="auto")
        assert plan.split(3) is plan

    def test_serial_inner_untouched(self):
        for inner in (None, 1):
            plan = ExecutionPlan(edge_workers=4, device_workers=inner)
            assert plan.split(4) is plan

    def test_product_capped_by_budget(self):
        plan = ExecutionPlan(edge_workers=4, device_workers=8)
        assert plan.split(4, budget=8).device_workers == 2
        # Outer tier wins; inner floors at 1.
        plan = ExecutionPlan(edge_workers=8, device_workers=8)
        assert plan.split(8, budget=4) == ExecutionPlan(edge_workers=8, device_workers=1)

    def test_within_budget_passes_through(self):
        plan = ExecutionPlan(edge_workers=2, device_workers=3)
        assert plan.split(2, budget=6) is plan

    def test_outer_clamped_to_tasks(self):
        plan = ExecutionPlan(edge_workers=16, device_workers=4)
        assert plan.split(2, budget=8) is plan

    def test_config_wiring_applies_split(self):
        plan = ExecutionPlan(edge_workers=2, device_workers=8)
        system = ACMESystem(_fleet_config(finalize=False, execution=plan))
        assert [edge.plan for edge in system.edges] == [plan.split(3)] * 3
        assert system.edges[0].plan.device_workers == max(1, (os.cpu_count() or 1) // 2)

    def test_config_wiring_without_edges_unchanged(self):
        plan = ExecutionPlan(device_workers=5)
        system = ACMESystem(_fleet_config(num_clusters=1, finalize=False, execution=plan))
        assert system.edges[0].plan is plan


class TestCloudConcurrencySafety:
    def test_prepare_candidates_freezes_request_state(self):
        system = ACMESystem(_fleet_config(num_clusters=1, finalize=False))
        system.run_cloud_phases()
        cloud = system.cloud
        assert cloud._losses_ready
        # The request path must not mutate the backbone's configuration.
        width_before = cloud.backbone.width
        depth_before = cloud.backbone.depth
        stats_payload = {
            "mean_gpu_capacity": 4.0,
            "min_storage": 50_000,
            "num_patches": cloud.backbone.config.num_patches,
            "batch_size": 16,
            "max_base_power": 1.0,
            "max_power_per_layer": 0.5,
            "max_base_latency": 0.1,
            "max_latency_per_layer": 0.05,
        }
        candidates = cloud.evaluate_candidates(stats_payload)
        assert cloud.backbone.width == width_before
        assert cloud.backbone.depth == depth_before
        assert len(candidates) == len(WIDTH_CHOICES) * cloud.backbone.config.depth

    def test_concurrent_requests_match_serial_replies(self):
        """Same stats → same deterministic reply regardless of arrival
        order or concurrency."""
        import concurrent.futures

        system = ACMESystem(_fleet_config(finalize=False))
        system.run_cloud_phases()
        cloud = system.cloud
        from repro.hw.profiles import cluster_statistics

        stats = [
            cluster_statistics([d.profile for d in edge.devices])
            for edge in system.edges
        ]
        serial = [cloud.customize_for_cluster(s) for s in stats]
        with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
            concurrent = list(pool.map(cloud.customize_for_cluster, stats))
        assert serial == concurrent


class TestSelectModelDeterminism:
    def test_selection_is_order_invariant(self):
        from repro.core.pareto import Candidate, build_pfg, select_model

        rng = np.random.default_rng(0)
        candidates = [
            Candidate(w, d, (float(rng.uniform(1, 2)), float(rng.uniform(5, 9)), w * d * 100))
            for w in (0.25, 0.5, 0.75, 1.0)
            for d in (1, 2, 3, 4)
        ]
        reference = select_model(build_pfg(candidates, 0.05), storage_limit=500)
        for seed in range(5):
            shuffled = list(candidates)
            np.random.default_rng(seed).shuffle(shuffled)
            chosen = select_model(build_pfg(shuffled, 0.05), storage_limit=500)
            assert (chosen.width, chosen.depth) == (reference.width, reference.depth)

    def test_exact_ties_break_on_width_then_depth(self):
        from repro.core.pareto import Candidate, build_pfg, select_model

        # Two candidates with identical objectives: the smaller (width,
        # depth) must win no matter the list order.
        tied = [
            Candidate(1.0, 4, (1.0, 5.0, 100.0)),
            Candidate(0.5, 2, (1.0, 5.0, 100.0)),
        ]
        for ordering in (tied, tied[::-1]):
            chosen = select_model(build_pfg(ordering, 0.05), storage_limit=500)
            assert (chosen.width, chosen.depth) == (0.5, 2)
