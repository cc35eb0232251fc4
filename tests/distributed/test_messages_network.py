"""Tests for protocol messages and the accounting network."""

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.distributed import (
    DeliveryError,
    FaultConfig,
    FaultDecision,
    FaultPolicy,
    FaultRecord,
    Ledger,
    Message,
    MessageKind,
    Network,
    payload_nbytes,
)


class ScriptedPolicy:
    """Duck-typed fault policy replaying a fixed decision sequence.

    The fabric only touches ``decide`` and ``config``, so tests can
    script exact fault timelines instead of hunting for seeds.
    """

    def __init__(self, decisions, config=None):
        self.decisions = list(decisions)
        self.config = config or FaultConfig()

    def decide(self, kind, sender, receiver):
        return self.decisions.pop(0) if self.decisions else None


class TestPayloadAccounting:
    def test_array_payload(self):
        arr = np.zeros(100, dtype=np.float64)
        assert payload_nbytes({"x": arr}) == 800

    def test_float32_is_half(self):
        assert payload_nbytes({"x": np.zeros(100, dtype=np.float32)}) == 400

    def test_state_dict_payload(self):
        state = {"w": np.zeros((10, 10)), "b": np.zeros(10)}
        size = payload_nbytes({"state": state})
        assert size >= 880  # arrays + manifest

    def test_dataset_payload_uses_nbytes(self):
        ds = ArrayDataset(np.zeros((4, 1, 2, 2)), np.zeros(4, dtype=int), 2)
        assert payload_nbytes({"dataset": ds}) == ds.nbytes()

    def test_scalar_metadata_is_cheap(self):
        size = payload_nbytes({"width": 0.5, "depth": 3})
        assert 0 < size < 100

    def test_array_lists(self):
        arrays = [np.zeros(10), np.zeros(20)]
        assert payload_nbytes({"orders": arrays}) >= 240


class TestMessage:
    def test_auto_size(self):
        msg = Message("a", "b", MessageKind.IMPORTANCE_SET, {"q": np.zeros(50)})
        assert msg.nbytes == 400

    def test_explicit_size_preserved(self):
        msg = Message("a", "b", MessageKind.ACK, nbytes=7)
        assert msg.nbytes == 7

    def test_sequence_monotone(self):
        a = Message("a", "b", MessageKind.ACK, nbytes=1)
        b = Message("a", "b", MessageKind.ACK, nbytes=1)
        assert b.sequence > a.sequence

    def test_upload_classification(self):
        assert MessageKind.CLUSTER_STATS.is_upload
        assert MessageKind.IMPORTANCE_SET.is_upload
        assert MessageKind.DATASET_UPLOAD.is_upload
        assert not MessageKind.BACKBONE_ASSIGNMENT.is_upload
        assert not MessageKind.MODEL_DISTRIBUTION.is_upload
        assert not MessageKind.PERSONALIZED_SET.is_upload


class TestNetwork:
    def test_routing(self):
        net = Network()
        received = []
        net.register("sink", lambda m: received.append(m))
        net.send(Message("src", "sink", MessageKind.ACK, nbytes=5))
        assert len(received) == 1

    def test_unknown_receiver(self):
        net = Network()
        with pytest.raises(KeyError):
            net.send(Message("a", "nowhere", MessageKind.ACK, nbytes=1))

    def test_duplicate_registration(self):
        net = Network()
        net.register("x", lambda m: None)
        with pytest.raises(ValueError):
            net.register("x", lambda m: None)

    def test_stats_accumulate(self):
        net = Network()
        net.register("sink", lambda m: None)
        net.send(Message("a", "sink", MessageKind.IMPORTANCE_SET, {"q": np.zeros(10)}))
        net.send(Message("a", "sink", MessageKind.PERSONALIZED_SET, {"q": np.zeros(10)}))
        assert net.stats.message_count == 2
        assert net.stats.upload_bytes == 80
        assert net.stats.download_bytes == 80
        assert net.stats.total_bytes == 160

    def test_by_kind_and_pair(self):
        net = Network()
        net.register("sink", lambda m: None)
        net.send(Message("a", "sink", MessageKind.ACK, nbytes=3))
        net.send(Message("b", "sink", MessageKind.ACK, nbytes=4))
        assert net.stats.by_kind["ack"] == 7
        assert net.stats.by_pair[("a", "sink")] == 3
        assert net.stats.by_pair[("b", "sink")] == 4

    def test_kind_sequence(self):
        net = Network()
        net.register("sink", lambda m: None)
        net.send(Message("a", "sink", MessageKind.CLUSTER_STATS, nbytes=1))
        net.send(Message("a", "sink", MessageKind.ACK, nbytes=1))
        assert net.kind_sequence() == ["cluster_stats", "ack"]

    def test_reset(self):
        net = Network()
        net.register("sink", lambda m: None)
        net.send(Message("a", "sink", MessageKind.ACK, nbytes=3))
        net.reset_stats()
        assert net.stats.total_bytes == 0
        assert net.log == []

    def test_nested_send_in_handler(self):
        """Handlers may send follow-up messages (cloud replies to edges)."""
        net = Network()
        net.register("b", lambda m: None)

        def relay(message):
            net.send(Message("a", "b", MessageKind.ACK, nbytes=2))

        net.register("a", relay)
        net.send(Message("x", "a", MessageKind.CLUSTER_STATS, nbytes=1))
        assert net.stats.message_count == 2

    def test_megabyte_helpers(self):
        net = Network()
        net.register("sink", lambda m: None)
        net.send(Message("a", "sink", MessageKind.DATASET_UPLOAD, nbytes=2_000_000))
        assert net.stats.upload_megabytes() == pytest.approx(2.0)
        assert net.stats.total_megabytes() == pytest.approx(2.0)


class TestChecksum:
    def test_stamped_at_construction(self):
        msg = Message("a", "b", MessageKind.IMPORTANCE_SET, {"q": np.zeros(10)})
        assert msg.checksum == msg.compute_checksum()

    def test_ignores_routing_rewrites(self):
        """Devices address importance sets to '' and the edge fills
        itself in — the checksum must survive that."""
        msg = Message("device0", "", MessageKind.IMPORTANCE_SET, {"q": np.zeros(4)})
        stamped = msg.checksum
        msg.receiver = "edge0"
        assert msg.compute_checksum() == stamped

    def test_not_counted_in_nbytes(self):
        with_arr = Message("a", "b", MessageKind.IMPORTANCE_SET, {"q": np.zeros(50)})
        assert with_arr.nbytes == 400  # exactly the payload, as before


class TestPerNetworkSequence:
    def test_identical_send_programs_stamp_identical_sequences(self):
        def program(net):
            net.register("sink", lambda m: None)
            net.send(Message("a", "sink", MessageKind.ACK, nbytes=1))
            net.send(Message("a", "sink", MessageKind.CLUSTER_STATS, nbytes=2))
            net.send(Message("a", "sink", MessageKind.ACK, nbytes=3))
            return [m.sequence for m in net.log]

        assert program(Network()) == program(Network()) == [0, 1, 2]

    def test_retries_keep_the_first_stamp(self):
        net = Network()
        net.register("sink", lambda m: None)
        net.fault_policy = ScriptedPolicy([FaultDecision(drop=True), None])
        msg = Message("a", "sink", MessageKind.ACK, nbytes=1)
        net.send_reliable(msg, retries=1)
        assert msg.sequence == 0 and msg.attempts == 2


class TestFaultInjection:
    def _net(self, decisions, config=None):
        net = Network()
        received = []
        net.register("sink", lambda m: received.append(m) or None)
        net.fault_policy = ScriptedPolicy(decisions, config)
        return net, received

    def test_drop_records_bytes_but_not_delivery(self):
        net, received = self._net([FaultDecision(drop=True)])
        reply = net.send(Message("a", "sink", MessageKind.ACK, nbytes=5))
        assert reply is None and received == []
        assert net.stats.total_bytes == 5  # the transfer left the sender
        assert [f.fault for f in net.fault_log] == ["drop"]

    def test_corrupt_fails_checksum_verification(self):
        net, received = self._net([FaultDecision(corrupt=True)])
        net.send(Message("a", "sink", MessageKind.ACK, nbytes=5))
        assert received == []
        assert [f.fault for f in net.fault_log] == ["corrupt"]

    def test_duplicate_delivers_and_accounts_twice(self):
        net, received = self._net([FaultDecision(duplicate=True)])
        net.send(Message("a", "sink", MessageKind.ACK, nbytes=5))
        assert len(received) == 2
        assert net.stats.message_count == 2 and net.stats.total_bytes == 10
        assert [f.fault for f in net.fault_log] == ["duplicate"]

    def test_delay_defers_past_subsequent_deliveries(self):
        net, received = self._net([FaultDecision(delay_deliveries=2)])
        net.send(Message("a", "sink", MessageKind.CLUSTER_STATS, nbytes=1))
        assert received == []  # queued
        net.send(Message("a", "sink", MessageKind.ACK, nbytes=1))
        assert [m.kind for m in received] == [MessageKind.ACK]
        net.send(Message("a", "sink", MessageKind.ACK, nbytes=1))
        # Second subsequent delivery ripens the straggler.
        assert [m.kind for m in received] == [
            MessageKind.ACK,
            MessageKind.ACK,
            MessageKind.CLUSTER_STATS,
        ]
        assert [f.fault for f in net.fault_log] == ["delay"]

    def test_delayed_to_unregistered_receiver_is_lost_not_raised(self):
        net, _ = self._net([FaultDecision(delay_deliveries=1)])
        net.register("churner", lambda m: None)
        net.send(Message("a", "churner", MessageKind.ACK, nbytes=1))
        net.unregister("churner")
        net.send(Message("a", "sink", MessageKind.ACK, nbytes=1))  # ripens it
        assert [f.fault for f in net.fault_log] == ["delay", "lost"]

    def test_send_reliable_retries_through_drops(self):
        net, received = self._net(
            [FaultDecision(drop=True), FaultDecision(corrupt=True), None]
        )
        msg = Message("a", "sink", MessageKind.ACK, nbytes=5)
        net.send_reliable(msg, retries=3)
        assert len(received) == 1 and msg.attempts == 3
        assert net.retry_count == 2 and net.delivery_attempts == 3
        assert net.stats.message_count == 3  # every attempt cost bytes

    def test_send_reliable_exhaustion_raises(self):
        net, _ = self._net([FaultDecision(drop=True)] * 3)
        with pytest.raises(DeliveryError, match="ack a->sink.*drop"):
            net.send_reliable(
                Message("a", "sink", MessageKind.ACK, nbytes=1), retries=2
            )
        assert net.failed_deliveries == 1

    def test_send_reliable_defaults_from_policy_config(self):
        net, received = self._net(
            [FaultDecision(drop=True), None], FaultConfig(retries=1)
        )
        net.send_reliable(Message("a", "sink", MessageKind.ACK, nbytes=1))
        assert len(received) == 1

    def test_no_policy_send_reliable_is_plain_send(self):
        net = Network()
        received = []
        net.register("sink", lambda m: received.append(m))
        net.send_reliable(Message("a", "sink", MessageKind.ACK, nbytes=1))
        assert len(received) == 1 and net.retry_count == 0

    def test_zero_rate_policy_is_invisible(self):
        """A policy with all-zero rates must not change ledger semantics."""
        programs = []
        for policy in (None, FaultPolicy(FaultConfig(seed=0))):
            net = Network()
            net.register("sink", lambda m: None)
            net.install_fault_policy(policy)
            net.send(Message("a", "sink", MessageKind.CLUSTER_STATS, nbytes=3))
            net.send(Message("a", "sink", MessageKind.ACK, nbytes=4))
            programs.append(
                (net.kind_sequence(), net.stats.total_bytes,
                 [m.sequence for m in net.log], list(net.fault_log))
            )
        assert programs[0] == programs[1]


class TestFaultShardMerge:
    def test_shard_fault_logs_merge_in_order(self):
        net = Network()
        net.register("sink", lambda m: None)
        net.fault_policy = ScriptedPolicy(
            [FaultDecision(drop=True), FaultDecision(corrupt=True)]
        )
        first, second = net.shard("edge0"), net.shard("edge1")
        # Interleave: edge1 faults first, but merge order must win.
        second.send(Message("b", "sink", MessageKind.ACK, nbytes=1))
        first.send(Message("a", "sink", MessageKind.ACK, nbytes=1))
        assert net.fault_log == []
        net.merge_shards([first, second])
        assert [(f.fault, f.sender) for f in net.fault_log] == [
            ("corrupt", "a"),
            ("drop", "b"),
        ]
        assert net.delivery_attempts == 2
        assert first.fault_log == [] and second.fault_log == []  # drained

    def test_pending_delays_expire_at_merge(self):
        net = Network()
        net.register("sink", lambda m: None)
        net.fault_policy = ScriptedPolicy([FaultDecision(delay_deliveries=5)])
        shard = net.shard("edge0")
        shard.send(Message("a", "sink", MessageKind.ACK, nbytes=1))
        net.merge_shards([shard])
        assert [f.fault for f in net.fault_log] == ["delay", "expired"]


class TestLedger:
    """One ``Ledger`` from shard to supervisor: fold, expire, clear."""

    @staticmethod
    def _fields(ledger):
        """The ledger's state, keyed by ``Ledger``'s own field list."""
        return {name: getattr(ledger, name) for name in vars(Ledger(ledger.ledger))}

    @staticmethod
    def _fabric(mode, armed):
        net = Network(ledger=mode)
        net.register("sink", lambda m: None)
        if armed:
            net.install_fault_policy(
                ScriptedPolicy(
                    [
                        FaultDecision(drop=True),
                        None,
                        FaultDecision(duplicate=True),
                        FaultDecision(delay_deliveries=50),  # never ripens
                    ],
                    FaultConfig(retries=1),
                )
            )
        return net

    @staticmethod
    def _traffic(route):
        route.send_reliable(Message("a", "sink", MessageKind.CLUSTER_STATS, nbytes=7))
        route.send(Message("device3", "sink", MessageKind.IMPORTANCE_SET, nbytes=5))
        route.send(Message("b", "sink", MessageKind.ACK, nbytes=3))
        route.send(Message("a", "sink", MessageKind.ACK, nbytes=2))

    @pytest.mark.parametrize("armed", [False, True])
    @pytest.mark.parametrize("mode", ["full", "summary"])
    def test_absorb_folds_expires_and_clears(self, mode, armed):
        serial = self._fabric(mode, armed)
        self._traffic(serial)
        expected = self._fields(serial)
        if armed:
            # What the serial root still holds in flight, the fold expires.
            ((straggler, _countdown),) = expected["_delayed"]
            expected["_delayed"] = []
            expected["fault_log"] = type(serial.fault_log)(
                [*serial.fault_log, FaultRecord("expired", "ack", "b", "sink", 1)]
            )
            expected["_fault_counter"] = serial._fault_counter + Counter(expired=1)
            assert straggler.sender == "b"

        root = self._fabric(mode, armed)
        shard = root.shard("edge0")
        self._traffic(shard)
        assert self._fields(root) == self._fields(Ledger(mode))  # untouched
        root.absorb(shard)
        assert self._fields(shard) == self._fields(Ledger(mode))
        assert self._fields(root) == expected
        assert root.fault_counts().get("expired", 0) == int(armed)
        root.absorb(shard)  # a cleared ledger adds nothing
        assert self._fields(root) == expected

        root.reset_stats()
        assert self._fields(root) == self._fields(Ledger(mode))

    def test_detached_ledger_survives_pickling(self):
        """What an edge process ships home: every field but the log."""
        fabric = self._fabric("full", armed=True)
        self._traffic(fabric)
        detached = Ledger()
        detached.absorb(fabric)
        kinds = detached.kind_sequence()
        detached.log.clear()
        shipped = pickle.loads(pickle.dumps(detached))
        assert self._fields(shipped) == self._fields(detached)
        assert shipped.stats.message_count == len(kinds) == 6
        total = Ledger()
        total.absorb(shipped)
        assert total.fault_counts() == {
            "drop": 1, "duplicate": 1, "delay": 1, "expired": 1,
        }
