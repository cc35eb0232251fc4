"""Transport layer: loopback identity, TCP parity, liveness, recovery.

The acceptance contract of the pluggable transport (ISSUE PR 8):

* Loopback is the existing in-process fabric (a bare ``Network``),
  bit-for-bit — the transport layer adds nothing to that path.
* A seeded 2-edge campaign over real TCP processes reproduces the
  loopback run's ``kind_sequence()``, traffic ledger and final
  accuracies exactly.
* Endpoint liveness: heartbeats detect a silent peer; a killed hub
  surfaces as ``TransportFailure`` → fabric fault → ``DeliveryError``
  after bounded retries — never a hang; a restarted hub is rejoined via
  capped-backoff reconnect with idempotent re-registration.
"""

import multiprocessing
import threading
import time

import pytest

from repro.distributed.faults import DeliveryError
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import Network
from repro.distributed.system import ACMEConfig, ACMESystem, run_multiprocess
from repro.distributed.transport import TcpTransport, TransportConfig

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _config(**overrides) -> ACMEConfig:
    base = dict(
        num_clusters=2,
        devices_per_cluster=3,
        num_classes=6,
        samples_per_class=18,
        compute_dtype="float64",
        seed=0,
    )
    base.update(overrides)
    return ACMEConfig(**base)


def _fast_tcfg(**overrides) -> TransportConfig:
    base = dict(
        heartbeat_interval=0.05,
        heartbeat_misses=4,
        request_timeout=10.0,
        connect_timeout=2.0,
        reconnect_backoff=0.01,
        reconnect_backoff_cap=0.05,
        reconnect_attempts=3,
    )
    base.update(overrides)
    return TransportConfig(**base)


class _Echo:
    """A registrable node that answers every message with an ACK."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.seen = []

    def handle(self, message: Message) -> Message:
        self.seen.append(message.kind)
        return Message(self.name, message.sender, MessageKind.ACK)


class TestLoopbackTransport:
    """The loopback transport is a bare ``Network``."""

    def test_system_runs_unchanged_over_loopback_transport(self):
        from repro.distributed.cloud import CloudServer
        from repro.distributed.system import (
            build_cluster,
            build_fleet_data,
            run_edge_phases,
        )
        from repro.models.vit import VisionTransformer
        from repro.nn.tensor import using_dtype

        cfg = _config(num_clusters=1, devices_per_cluster=2)
        network = Network()
        with using_dtype(cfg.compute_dtype):
            data = build_fleet_data(cfg)
            cloud = CloudServer(
                VisionTransformer(cfg.vit, seed=cfg.seed),
                data.public_dataset,
                network,
                cfg.cloud,
            )
            cloud.pretrain_reference()
            cloud.generate_dynamic_backbone()
            cloud.prepare_candidates()
            edge = build_cluster(cfg, data, 0, network)
            result = run_edge_phases(cfg, edge)
        assert result.device_accuracies
        assert all(p == 1.0 for p in result.round_participation)
        system = ACMESystem(cfg)
        assert result.device_accuracies == system.run().clusters[0].device_accuracies
        assert network.kind_sequence() == system.network.kind_sequence()


class TestRegisterIdempotency:
    """Satellite 2: re-registering the same handler identity is a no-op."""

    def test_same_bound_method_reregisters(self):
        network = Network()
        node = _Echo("n0")
        network.register("n0", node.handle)
        # ``node.handle`` is a fresh bound-method object every access;
        # idempotency must compare identity by ==, not ``is``.
        network.register("n0", node.handle)
        assert network.is_registered("n0")

    def test_same_function_reregisters(self):
        network = Network()

        def handler(message):
            return None

        network.register("n1", handler)
        network.register("n1", handler)

    def test_different_handler_still_collides(self):
        network = Network()
        owner = _Echo("n2")  # the fabric holds it weakly; keep it alive
        network.register("n2", owner.handle)
        with pytest.raises(ValueError, match="already registered"):
            network.register("n2", _Echo("other").handle)


class TestTcpEndpoints:
    """Endpoint-level liveness and recovery, no ACME protocol involved."""

    def _hub_and_link(self, tcfg=None, link_nodes=("edge-n",)):
        tcfg = tcfg or _fast_tcfg()
        hub = TcpTransport.serve("hub", tcfg)
        cloud = _Echo("cloud-n")
        hub.network.register("cloud-n", cloud.handle)
        link = TcpTransport.connect("link", tcfg.host, hub.port, tcfg)
        nodes = []
        for name in link_nodes:
            node = _Echo(name)
            link.network.register(name, node.handle)
            nodes.append(node)
        link.start()
        return hub, link, cloud, nodes

    def test_request_reply_both_directions(self):
        hub, link, cloud, (edge,) = self._hub_and_link()
        try:
            # edge → cloud (through the link's recording fabric).
            reply = link.network.send(
                Message("edge-n", "cloud-n", MessageKind.CLUSTER_STATS, {"stats": {}})
            )
            assert reply is not None and reply.kind is MessageKind.ACK
            assert cloud.seen == [MessageKind.CLUSTER_STATS]
            # cloud → edge (transparent relay through the hub).
            reply = hub.network.send(
                Message("cloud-n", "edge-n", MessageKind.ACK)
            )
            assert reply is not None and reply.kind is MessageKind.ACK
            assert edge.seen == [MessageKind.ACK]
        finally:
            link.close()
            hub.close()

    def test_edge_ledger_records_both_directions_hub_records_nothing(self):
        hub, link, cloud, (edge,) = self._hub_and_link()
        try:
            link.network.send(
                Message("edge-n", "cloud-n", MessageKind.CLUSTER_STATS, {"stats": {}})
            )
            hub.network.send(Message("cloud-n", "edge-n", MessageKind.ACK))
            assert link.network.kind_sequence() == ["cluster_stats", "ack"]
            assert hub.network.kind_sequence() == []
            assert hub.network.stats.message_count == 0
        finally:
            link.close()
            hub.close()

    def test_unknown_receiver_raises_keyerror_across_the_wire(self):
        hub, link, _cloud, _ = self._hub_and_link()
        try:
            with pytest.raises(KeyError):
                link.network.send(Message("edge-n", "cloud-n", MessageKind.ACK))
                # cloud-n is registered; ghost is not, anywhere:
                link.network.send(Message("edge-n", "ghost", MessageKind.ACK))
        finally:
            link.close()
            hub.close()

    def test_dead_hub_becomes_delivery_error_not_hang(self):
        hub, link, _cloud, _ = self._hub_and_link()
        hub.close()
        try:
            start = time.monotonic()
            with pytest.raises(DeliveryError):
                link.network.send_reliable(
                    Message("edge-n", "cloud-n", MessageKind.ACK), retries=1
                )
            assert time.monotonic() - start < 30.0
            # The fabric recorded the transport failures as faults.
            counts = link.network.fault_counts()
            assert counts.get("crash", 0) >= 1
            assert link.network.failed_deliveries == 1
        finally:
            link.close()

    def test_reconnect_after_hub_restart_reregisters_idempotently(self):
        tcfg = _fast_tcfg(reconnect_attempts=6, reconnect_backoff_cap=0.2)
        hub, link, _cloud, _ = self._hub_and_link(tcfg)
        try:
            assert link.network.send(
                Message("edge-n", "cloud-n", MessageKind.ACK)
            )
            port = hub.port
            hub.close()
            # Restart a hub on the same port; the link's next send must
            # re-dial (capped backoff) and replay its hello registration.
            time.sleep(0.1)
            hub2 = TcpTransport.serve("hub", _fast_tcfg(port=port))
            cloud2 = _Echo("cloud-n")
            hub2.network.register("cloud-n", cloud2.handle)
            try:
                reply = link.network.send_reliable(
                    Message("edge-n", "cloud-n", MessageKind.ACK), retries=5
                )
                assert reply is not None
                assert cloud2.seen[-1] is MessageKind.ACK
                assert hub2.endpoint.routes("edge-n")
            finally:
                hub2.close()
        finally:
            link.close()
            hub.close()

    def test_silent_peer_pruned_after_heartbeat_misses(self):
        tcfg = _fast_tcfg(heartbeat_interval=0.05, heartbeat_misses=3)
        hub = TcpTransport.serve("hub", tcfg)
        try:
            import socket

            # A raw socket that says hello and then goes silent forever.
            from repro.distributed import wire

            sock = socket.create_connection(("127.0.0.1", hub.port))
            sock.sendall(
                wire.frame(
                    wire.encode_value(
                        {"t": "hello", "peer": "zombie", "nodes": ["z0"]}
                    )
                )
            )
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and not hub.endpoint.routes("z0"):
                time.sleep(0.02)
            assert hub.endpoint.routes("z0")
            # No heartbeats arrive; the hub must declare it dead.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and hub.endpoint.routes("z0"):
                time.sleep(0.05)
            assert not hub.endpoint.routes("z0")
            sock.close()
        finally:
            hub.close()

    def test_heartbeats_keep_an_idle_link_alive(self):
        tcfg = _fast_tcfg(heartbeat_interval=0.05, heartbeat_misses=4)
        hub, link, cloud, _ = self._hub_and_link(tcfg)
        try:
            # Idle for many miss-windows; heartbeats must keep both ends up.
            time.sleep(0.05 * 4 * 3)
            assert hub.endpoint.routes("edge-n")
            reply = link.network.send(
                Message("edge-n", "cloud-n", MessageKind.ACK)
            )
            assert reply is not None
        finally:
            link.close()
            hub.close()

    def test_concurrent_inbound_requests_serialize_on_handler_pool(self):
        hub, link, cloud, _ = self._hub_and_link(link_nodes=("e0", "e1"))
        try:
            errors = []

            def blast(sender):
                try:
                    for _ in range(10):
                        assert link.network.send(
                            Message(sender, "cloud-n", MessageKind.ACK)
                        )
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=blast, args=(f"e{i}",)) for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors
            assert len(cloud.seen) == 20
        finally:
            link.close()
            hub.close()


class TestTcpSystemParity:
    """The acceptance bar: a seeded TCP campaign == the loopback campaign."""

    @pytest.fixture(scope="class")
    def runs(self):
        cfg = _config()
        loop = ACMESystem(cfg).run()
        mp = run_multiprocess(cfg, edge_timeout=300.0)
        return loop, mp

    def test_kind_sequence_identical(self, runs):
        loop, mp = runs
        assert mp.message_kinds == loop.message_kinds
        assert mp.edge_message_kinds == loop.edge_message_kinds

    def test_accuracies_bit_identical(self, runs):
        loop, mp = runs
        for got, want in zip(mp.clusters, loop.clusters):
            assert got.edge_name == want.edge_name
            assert got.width == want.width and got.depth == want.depth
            assert got.device_accuracies == want.device_accuracies
            assert got.device_losses == want.device_losses
            assert got.round_participation == want.round_participation

    def test_traffic_ledger_identical(self, runs):
        loop, mp = runs
        assert mp.traffic.total_bytes == loop.traffic.total_bytes
        assert mp.traffic.upload_bytes == loop.traffic.upload_bytes
        assert mp.traffic.download_bytes == loop.traffic.download_bytes
        assert dict(mp.traffic.by_kind) == dict(loop.traffic.by_kind)
        assert dict(mp.traffic.by_pair) == dict(loop.traffic.by_pair)
        assert mp.centralized_upload_bytes == loop.centralized_upload_bytes

    def test_delivery_counters_identical(self, runs):
        loop, mp = runs
        assert mp.fault_counts == loop.fault_counts == {}
        assert mp.delivery_attempts == loop.delivery_attempts
        assert mp.total_retries == loop.total_retries == 0
        assert mp.failed_deliveries == loop.failed_deliveries == 0

    def test_no_child_processes_leak(self, runs):
        _ = runs
        assert multiprocessing.active_children() == []
