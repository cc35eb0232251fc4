"""The batched local update reproduces the per-device run exactly.

Under the default plan (serial inner tier) every edge cluster's local
updates — the aggregation loop's importance rounds and the finalize
fine-tune — run as one computation graph per round with a single fused
optimizer step (:mod:`repro.train.fleet`); inner-tier width splits the
cluster into that many stacked groups, so a worker per device
(``device_workers=3`` here) runs them one device at a time across the
fan-out.  The float64 contract: accuracies, losses, the message-kind
sequence and the full traffic ledger must be **bit-for-bit identical**
between the two, alone and composed with the edge width.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro.distributed import ACMEConfig, ACMESystem, ExecutionPlan
from repro.distributed.messages import MessageKind
from repro.distributed.network import Network
from repro.distributed.scale import ScaleCluster, ScaleConfig
from repro.distributed.state_store import backbone_from_payload
from repro.train import fleet, serving
from tests.helpers import assert_same_run


def _config(**plan) -> ACMEConfig:
    return ACMEConfig(
        execution=ExecutionPlan(**plan),
        num_clusters=2,
        devices_per_cluster=3,
        num_classes=6,
        samples_per_class=18,
        compute_dtype="float64",
        seed=0,
    )


@pytest.fixture(scope="module")
def serial_and_fleet_runs():
    from tests.helpers import reset_engine_state

    reset_engine_state()
    systems = ACMESystem(_config(device_workers=3)), ACMESystem(_config())
    serial, fleet = (system.run() for system in systems)
    # Both runs trained from the devices' own frozen-feature caches.
    for system in systems:
        assert all(d._features is not None for e in system.edges for d in e.devices)
    return serial, fleet


class TestFleetSystemParity:
    def test_same_run(self, serial_and_fleet_runs):
        assert_same_run(*serial_and_fleet_runs)

    def test_accuracies_and_losses_bit_for_bit(self, serial_and_fleet_runs):
        serial, fleet = serial_and_fleet_runs
        for cs, cf in zip(serial.clusters, fleet.clusters):
            assert cs.edge_name == cf.edge_name
            assert cs.device_accuracies == cf.device_accuracies
            assert cs.device_losses == cf.device_losses
            assert (cs.width, cs.depth) == (cf.width, cf.depth)

    def test_message_sequence_identical(self, serial_and_fleet_runs):
        serial, fleet = serial_and_fleet_runs
        assert serial.message_kinds == fleet.message_kinds
        assert serial.edge_message_kinds == fleet.edge_message_kinds

    def test_traffic_ledger_identical(self, serial_and_fleet_runs):
        serial, fleet = serial_and_fleet_runs
        s, f = serial.traffic, fleet.traffic
        assert s.total_bytes == f.total_bytes
        assert s.upload_bytes == f.upload_bytes
        assert s.download_bytes == f.download_bytes
        assert s.message_count == f.message_count
        assert dict(s.by_kind) == dict(f.by_kind)
        assert dict(s.by_pair) == dict(f.by_pair)

    def test_composes_with_parallel_edges(self, serial_and_fleet_runs):
        """Batched updates inside each edge + whole-edge fan-out across
        workers: still bit-identical, ledger included."""
        serial, _fleet = serial_and_fleet_runs
        nested = ACMESystem(_config(edge_workers=2)).run()
        assert_same_run(serial, nested)


def _distributed_edge(**plan):
    system = ACMESystem(_config(**plan))
    system.run_cloud_phases()
    edge = system.edges[0]
    edge.request_backbone()
    edge.search_header()
    edge.distribute_models()
    return edge


class TestFleetWiring:
    def test_fleet_ready_requires_distributed_models(self):
        edge = ACMESystem(_config()).edges[0]
        # Before model distribution no device holds a backbone/header.
        assert edge._local_groups(edge.devices) == [[d] for d in edge.devices]

    def test_fleet_ready_rejects_heterogeneous_backbones(self, monkeypatch):
        edge = _distributed_edge()
        assert edge._local_groups(edge.devices) == [edge.devices]
        # The cluster shares one backbone instance, so an in-place
        # perturbation reaches every member and it stays one group.
        device = edge.devices[0]
        param = device.backbone.parameters()[0]
        param.data[...] = param.data + 1.0
        assert edge._local_groups(edge.devices) == [edge.devices]
        # A device holding its own instance — even a value-identical
        # one — breaks the sharing: the devices train one by one and
        # the finale evaluates each against its own backbone instead of
        # one batched forward.
        device.backbone = backbone_from_payload(device._model_payload)
        assert edge._local_groups(edge.devices) == [[d] for d in edge.devices]
        evaluated = []
        real = serving.batched_evaluate_headers

        def recording(backbone, headers, datasets, **kwargs):
            evaluated.append((backbone, headers))
            return real(backbone, headers, datasets, **kwargs)

        monkeypatch.setattr(serving, "batched_evaluate_headers", recording)
        assert len(edge.finalize()) == len(edge.devices)
        assert evaluated == [(d.backbone, [d.header]) for d in edge.devices]

    def test_inner_tier_width_selects_the_fan_out(self):
        """Inner-tier width is the number of stacked groups — contiguous
        chunks of ``ceil(N / w)``, one per worker — and nothing else."""
        edge = _distributed_edge(device_workers=2)
        first, second, third = edge.devices
        assert edge._local_groups(edge.devices) == [[first, second], [third]]
        edge.plan = ExecutionPlan(device_workers=8)  # clamped to the 3 devices
        assert edge._local_groups(edge.devices) == [[d] for d in edge.devices]
        edge.plan = ExecutionPlan()
        assert edge._local_groups(edge.devices) == [edge.devices]


@pytest.fixture()
def round_loop_calls(monkeypatch):
    """The members' datasets at every entry into the one round loop."""
    calls = []
    real = fleet._run_rounds

    def counting(backbone, members, *args, **kwargs):
        calls.append([m.dataset for m in members])
        return real(backbone, members, *args, **kwargs)

    monkeypatch.setattr(fleet, "_run_rounds", counting)
    return calls


class TestRoundLoopEntries:
    """How many times, and with how many members, a plan enters
    ``repro.train.fleet._run_rounds`` — T aggregation rounds and the
    finale over a 3-device cluster."""

    @staticmethod
    def _entries(calls, **config):
        system = ACMESystem(dataclasses.replace(_config(), **config))
        system.run_cloud_phases()
        edge = system.edges[0]
        edge.request_backbone()
        edge.search_header()
        edge.distribute_models()
        del calls[:]
        edge.aggregation_loop()
        edge.finalize()
        datasets = [d.dataset for d in edge.devices]
        phases = edge.config.aggregation_rounds + 1
        return [[datasets.index(d) for d in call] for call in calls], phases

    def test_default_plan_is_one_call_per_round_and_per_finalize_chunk(
        self, round_loop_calls
    ):
        entries, phases = self._entries(round_loop_calls)
        assert entries == [[0, 1, 2]] * phases

    def test_device_width_is_one_member_calls(self, round_loop_calls):
        entries, phases = self._entries(
            round_loop_calls, execution=ExecutionPlan(device_workers=2)
        )
        # Width 2 over 3 devices: two stacked groups per phase, one per
        # worker (in completion order — the workers are threads).
        assert sorted(entries) == sorted([[0, 1], [2]] * phases)

    def test_lazy_cluster_is_one_member_calls_serially(self, round_loop_calls):
        """A bounded-store cluster trains one device at a time, in
        device order: a group's graph must not outlive an eviction."""
        entries, phases = self._entries(round_loop_calls, device_state_capacity=1)
        assert entries == [[0], [1], [2]] * phases

    def test_bounded_cluster_trains_in_store_sized_chunks(
        self, round_loop_calls, monkeypatch
    ):
        """A bounded store's cluster is walked in chunks of its capacity,
        each live at once and so a legal group: serially, one stacked
        graph per chunk in device order; on two thread workers the first
        chunk's two one-member groups run side by side."""
        entries, phases = self._entries(round_loop_calls, device_state_capacity=2)
        assert entries == [[0, 1], [2]] * phases

        counting, ran_on = fleet._run_rounds, []
        # Groups on pool threads meet here, so the test holds only if the
        # first chunk's two groups are in flight at once — and does not
        # depend on whether the OS lets one worker take both groups.
        side_by_side = threading.Barrier(2)

        def on_thread(backbone, members, *args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                side_by_side.wait(timeout=30)
            ran_on.append((members[0].dataset, threading.get_ident()))
            return counting(backbone, members, *args, **kwargs)

        monkeypatch.setattr(fleet, "_run_rounds", on_thread)
        entries, phases = self._entries(
            round_loop_calls,
            device_state_capacity=2,
            execution=ExecutionPlan(device_workers=2),
        )
        # Within a phase the chunks run in order; a chunk's groups in
        # completion order.
        assert [sorted(entries[i : i + 3]) for i in range(0, len(entries), 3)] == [
            [[0], [1], [2]]
        ] * phases
        index = {id(call[0]): entry[0] for call, entry in zip(round_loop_calls, entries)}
        walk = ran_on[-3 * phases :]
        for i in range(0, len(walk), 3):
            (first, a), (second, b) = walk[i : i + 2]
            assert {index[id(first)], index[id(second)]} == {0, 1}
            assert a != b


class TestScaleClusterDispatch:
    def test_always_live_round_goes_through_the_device_class(self):
        """An unbounded-store ``ScaleCluster`` is batchable, and its group
        update is ``ScaleDevice``'s: synthetic ``set_size``-float sets,
        no header weight moved (a batched path that reached around the
        device class trained the headers for real)."""
        config = ScaleConfig(
            num_devices=3, num_clusters=1, lru_capacity=None, set_size=24,
            ledger="full",
        )
        network = Network(ledger=config.ledger)
        cluster = ScaleCluster(0, 3, 0, network, config)
        assert cluster.distribute() == 3
        assert cluster._local_groups(cluster.devices) == [cluster.devices]
        before = [
            [p.data.copy() for p in d.header.parameters()] for d in cluster.devices
        ]
        assert cluster.run_round(0, None) == 3
        for device, weights in zip(cluster.devices, before):
            for p, w in zip(device.header.parameters(), weights):
                np.testing.assert_array_equal(p.data, w)
        uploads = [m for m in network.log if m.kind is MessageKind.IMPORTANCE_SET]
        assert [m.sender for m in uploads] == [d.name for d in cluster.devices]
        assert all(m.payload["importance"].shape == (24,) for m in uploads)
