"""``ExecutionPlan.fleet_batched`` reproduces the per-device run exactly.

With fleet training on, every edge cluster's local updates — the
aggregation loop's importance rounds and the finalize fine-tune — run as
one computation graph per round with a single fused fleet-optimizer step
(:mod:`repro.train.fleet`).  The float64 contract mirrors PR 2-4:
accuracies, losses, the message-kind sequence and the full traffic
ledger must be **bit-for-bit identical** to the serial per-device run,
alone and composed with the plan's edge and device widths.
"""

import pytest

from repro.distributed import ACMEConfig, ACMESystem, ExecutionPlan
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
    systems = ACMESystem(_config()), ACMESystem(_config(fleet_batched=True))
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
        """Fleet batching inside each edge + whole-edge fan-out across
        workers: still bit-identical, ledger included."""
        serial, _fleet = serial_and_fleet_runs
        nested = ACMESystem(_config(fleet_batched=True, edge_workers=2)).run()
        assert_same_run(serial, nested)

    def test_composes_with_parallel_devices(self, serial_and_fleet_runs):
        """The device width still drives the phases fleet does not claim
        (NAS scoring, per-device evaluation); results match."""
        serial, _fleet = serial_and_fleet_runs
        combined = ACMESystem(_config(fleet_batched=True, device_workers=2)).run()
        assert_same_run(serial, combined)


class TestFleetWiring:
    def test_config_propagates_to_edge(self):
        for fleet in (True, False):
            system = ACMESystem(_config(fleet_batched=fleet))
            assert [e.plan.fleet_batched for e in system.edges] == [fleet] * 2

    def test_fleet_ready_requires_distributed_models(self):
        system = ACMESystem(_config(fleet_batched=True))
        edge = system.edges[0]
        # Before model distribution no device holds a backbone/header.
        assert not edge._fleet_ready()

    def test_fleet_ready_rejects_heterogeneous_backbones(self):
        system = ACMESystem(_config(fleet_batched=True))
        system.run_cloud_phases()
        edge = system.edges[0]
        edge.request_backbone()
        edge.search_header()
        edge.distribute_models()
        assert edge._fleet_ready()
        # Perturb one device's backbone: the cluster no longer shares
        # value-identical weights, so fleet batching must stand down.
        device = edge.devices[0]
        param = device.backbone.parameters()[0]
        param.data[...] = param.data + 1.0
        assert not edge._fleet_ready()

    def test_cli_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "--fleet"])
        assert args.fleet is True
        assert build_parser().parse_args(["run"]).fleet is False
