"""Seeded chaos campaigns: deterministic fault injection end to end.

Three contracts from the robustness layer (see ROBUSTNESS.md):

1. **Invisibility** — with no fault policy (or an all-zero-rate one) and
   the default quorum, a full run is bit-for-bit the fault-free system:
   accuracies, traffic ledger, kind sequence, sequence numbers.
2. **Replayability** — the same fault seed reproduces the identical
   fault log, message ledger and final accuracies, run after run.
3. **Degradation, not death** — drop campaigns complete all rounds via
   retries/quorum with accuracy close to fault-free; a permanently dead
   device yields a reported degraded result (participation < 1.0), not
   a hang or traceback.
"""

from collections import Counter

import numpy as np
import pytest

from repro.distributed import (
    ACMEConfig,
    ACMESystem,
    ExecutionPlan,
    FaultConfig,
    FaultPolicy,
    ProtocolError,
)
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import Network


def _config(**overrides) -> ACMEConfig:
    base = dict(
        num_clusters=1,
        devices_per_cluster=3,
        num_classes=6,
        samples_per_class=18,
        compute_dtype="float64",
        seed=0,
    )
    base.update(overrides)
    return ACMEConfig(**base)


def _run(fault=None, quorum=1.0, **overrides):
    config = _config(fault_config=fault, **overrides)
    config.edge.round_quorum = quorum
    system = ACMESystem(config)
    return system, system.run()


#: The acceptance campaign: 15% drop absorbed by retries + 2/3 quorum.
DROP_CAMPAIGN = FaultConfig(seed=7, drop=0.15, retries=3)


@pytest.fixture(scope="module")
def clean_run():
    # Module-scoped fixtures set up BEFORE the function-scoped autouse
    # reset in tests/conftest.py, so reset explicitly (same pattern as
    # tests/distributed/test_cross_edge_parallel.py).
    from tests.helpers import reset_engine_state

    reset_engine_state()
    return _run()


@pytest.fixture(scope="module")
def drop_runs():
    from tests.helpers import reset_engine_state

    reset_engine_state()
    first = _run(fault=DROP_CAMPAIGN, quorum=0.67)
    second = _run(fault=DROP_CAMPAIGN, quorum=0.67)
    return first, second


class TestFaultPolicyUnits:
    def test_same_seed_same_decisions(self):
        config = FaultConfig(seed=3, drop=0.3, corrupt=0.2, duplicate=0.2, delay=0.2)
        links = [("ack", "a", "b"), ("importance_set", "device1", "edge0")] * 10
        first, second = FaultPolicy(config), FaultPolicy(config)
        one = [first.decide(*l) for l in links]
        two = [second.decide(*l) for l in links]
        assert one == two
        assert any(d is not None for d in one)

    def test_different_seeds_diverge(self):
        links = [("ack", "a", "b")] * 50
        first = FaultPolicy(FaultConfig(seed=0, drop=0.5))
        second = FaultPolicy(FaultConfig(seed=1, drop=0.5))
        one = [d is not None for d in (first.decide(*l) for l in links)]
        two = [d is not None for d in (second.decide(*l) for l in links)]
        assert one != two

    def test_churn_schedule_is_seeded_and_dead_is_forever(self):
        config = FaultConfig(seed=9, churn=0.5, dead_devices=(2,))
        policy = FaultPolicy(config)
        grid = [
            [policy.device_active(d, t) for t in range(8)] for d in range(4)
        ]
        again = FaultPolicy(config)
        assert grid == [
            [again.device_active(d, t) for t in range(8)] for d in range(4)
        ]
        assert grid[2] == [False] * 8  # dead never attends
        flat = [a for row in grid for a in row]
        assert any(flat) and not all(flat)  # churn actually churns

    def test_parse_round_trips_the_cli_spec(self):
        config = FaultConfig.parse("seed=7,drop=0.15,churn=0.05,dead=2|5,retries=4")
        assert config.seed == 7
        assert config.drop == pytest.approx(0.15)
        assert config.churn == pytest.approx(0.05)
        assert config.dead_devices == (2, 5)
        assert config.retries == 4

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("drop", 1.5),
            ("corrupt", -0.1),
            ("duplicate", float("nan")),
            ("delay", True),
            ("churn", 2),
            ("retries", -1),
            ("retries", 2.0),
            ("retries", True),
            ("delay_deliveries", 0),
            ("delay_deliveries", -2),
            ("backoff", -1.0),
            ("backoff", float("inf")),
            ("dead_devices", (2, -1)),
            ("dead_devices", (1.5,)),
        ],
    )
    def test_out_of_range_field_is_refused_at_construction(self, field, bad):
        """A bad value fails where it is written: ``retries=-1`` used to
        surface as a backbone exchange that "failed" after 0 attempts,
        ``delay_deliveries=-2`` was clamped to 1 and ``backoff=-1`` read
        as 0."""
        with pytest.raises(ValueError, match=field):
            FaultConfig(**{field: bad})

    @pytest.mark.parametrize(
        "spec", ["retries=-1", "drop=1.5", "delay_deliveries=0", "backoff=-1", "dead=3|-1"]
    )
    def test_parse_goes_through_the_same_checks(self, spec):
        with pytest.raises(ValueError, match="must be"):
            FaultConfig.parse(spec)

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultConfig.parse("drp=0.1")
        with pytest.raises(ValueError, match="not key=value"):
            FaultConfig.parse("drop")


class TestDisarmedFabricCost:
    """With no policy installed, ``Network.send`` and ``send_reliable``
    draw no fault and verify no checksum; an armed zero-rate policy does
    each once per send.  Disarming with ``None`` restores the free path.
    The fault-free path pays nothing for fault injection."""

    SENDS = 40

    @pytest.mark.parametrize("method", ["send", "send_reliable"])
    @pytest.mark.parametrize(
        "policies, armed",
        [((), False), ((FaultConfig(seed=0),), True), ((FaultConfig(seed=0), None), False)],
        ids=["no-policy", "zero-rate", "uninstalled"],
    )
    def test_fault_calls_per_send(self, monkeypatch, policies, armed, method):
        network = Network()
        delivered = []
        network.register("sink", delivered.append)
        for config in policies:
            network.install_fault_policy(None if config is None else FaultPolicy(config))
        # Built before counting starts: construction stamps the checksum.
        messages = [
            Message(
                sender="src",
                receiver="sink",
                kind=MessageKind.ACK,
                payload={"block": np.zeros(4)},
            )
            for _ in range(self.SENDS)
        ]
        calls = Counter()
        decide, checksum = FaultPolicy.decide, Message.compute_checksum

        def counted_decide(self, *args):
            calls["decide"] += 1
            return decide(self, *args)

        def counted_checksum(self):
            calls["checksum"] += 1
            return checksum(self)

        monkeypatch.setattr(FaultPolicy, "decide", counted_decide)
        monkeypatch.setattr(Message, "compute_checksum", counted_checksum)
        for message in messages:
            getattr(network, method)(message)
        assert delivered == messages
        expected = self.SENDS if armed else 0
        assert (calls["decide"], calls["checksum"]) == (expected, expected)


class TestFaultFreeInvisibility:
    def test_zero_rate_policy_is_bit_identical(self, clean_run):
        """An armed policy that never fires must not move a single bit:
        same accuracies, ledger, kind sequence and sequence numbers as
        no policy at all."""
        _, clean = clean_run
        system, armed = _run(fault=FaultConfig(seed=0))
        assert [c.device_accuracies for c in armed.clusters] == [
            c.device_accuracies for c in clean.clusters
        ]
        assert [c.device_losses for c in armed.clusters] == [
            c.device_losses for c in clean.clusters
        ]
        assert armed.message_kinds == clean.message_kinds
        assert armed.traffic.total_bytes == clean.traffic.total_bytes
        assert dict(armed.traffic.by_pair) == dict(clean.traffic.by_pair)
        assert armed.fault_counts == {} and armed.total_retries == 0
        assert armed.participation == 1.0
        assert system.network.fault_log == []

    def test_clean_run_reports_full_participation(self, clean_run):
        _, clean = clean_run
        assert clean.participation == 1.0
        assert clean.fault_counts == {}
        assert clean.failed_deliveries == 0
        for cluster in clean.clusters:
            assert cluster.round_participation == [1.0, 1.0]
            assert cluster.protocol_retries == 0

    def test_sequence_numbers_reproducible_across_runs(self, clean_run):
        """The per-network sequence counter: two identical runs in one
        process stamp identical sequence numbers (the module-global
        counter used to drift)."""
        first_system, _ = clean_run
        second_system, _ = _run()
        assert [m.sequence for m in first_system.network.log] == [
            m.sequence for m in second_system.network.log
        ]


class TestChaosDeterminism:
    def test_same_seed_replays_everything(self, drop_runs):
        (sys1, run1), (sys2, run2) = drop_runs
        assert sys1.network.fault_log == sys2.network.fault_log
        assert sys1.network.fault_log, "campaign should have injected faults"
        assert run1.message_kinds == run2.message_kinds
        assert [m.sequence for m in sys1.network.log] == [
            m.sequence for m in sys2.network.log
        ]
        assert dict(run1.traffic.by_pair) == dict(run2.traffic.by_pair)
        assert [c.device_accuracies for c in run1.clusters] == [
            c.device_accuracies for c in run2.clusters
        ]
        assert run1.total_retries == run2.total_retries
        assert [c.round_participation for c in run1.clusters] == [
            c.round_participation for c in run2.clusters
        ]

    def test_parallel_edges_chaos_replays(self):
        """Chaos + cross-edge concurrency still replays exactly: fault
        draws are per-link and ledgers merge in edge order."""
        fault = FaultConfig(seed=5, drop=0.1, retries=3)
        results = []
        for _ in range(2):
            system, result = _run(
                fault=fault,
                quorum=0.5,
                num_clusters=2,
                devices_per_cluster=2,
                execution=ExecutionPlan(edge_workers=2),
                finalize=False,
            )
            results.append((system, result))
        (sys1, run1), (sys2, run2) = results
        assert sys1.network.fault_log == sys2.network.fault_log
        assert run1.message_kinds == run2.message_kinds
        assert run1.edge_message_kinds == run2.edge_message_kinds
        assert run1.fault_counts == run2.fault_counts


class TestDropCampaign:
    def test_completes_all_rounds_with_accuracy_near_fault_free(
        self, clean_run, drop_runs
    ):
        _, clean = clean_run
        (system, chaos), _ = drop_runs
        rounds = system.config.edge.aggregation_rounds
        for cluster in chaos.clusters:
            assert len(cluster.round_participation) == rounds
            assert len(cluster.device_accuracies) == 3
        assert chaos.fault_counts.get("drop", 0) > 0
        assert abs(chaos.mean_accuracy - clean.mean_accuracy) <= 0.05

    def test_retries_are_accounted(self, drop_runs):
        (_, chaos), _ = drop_runs
        assert chaos.total_retries > 0
        assert chaos.delivery_attempts > chaos.traffic.message_count - 1


class TestDeadDevice:
    def test_degraded_result_not_a_hang(self, clean_run):
        """A permanently dead device: the run completes, reports
        participation < 1.0 and one fewer accuracy — no traceback."""
        _, clean = clean_run
        _, result = _run(fault=FaultConfig(seed=3, dead_devices=(1,)), quorum=0.5)
        assert result.participation < 1.0
        assert result.participation == pytest.approx(2.0 / 3.0)
        (cluster,) = result.clusters
        assert len(cluster.device_accuracies) == 2  # dead device absent
        assert len(clean.clusters[0].device_accuracies) == 3


class TestChurn:
    def test_churned_rounds_replay_and_degrade_gracefully(self):
        fault = FaultConfig(seed=11, churn=0.3, retries=2)
        _, first = _run(fault=fault, quorum=0.5, finalize=False)
        _, second = _run(fault=fault, quorum=0.5, finalize=False)
        assert [c.round_participation for c in first.clusters] == [
            c.round_participation for c in second.clusters
        ]
        rates = [r for c in first.clusters for r in c.round_participation]
        assert all(0.0 <= r <= 1.0 for r in rates)
        assert first.message_kinds == second.message_kinds


class TestStrictModeProtocolError:
    def test_missing_reply_names_device_and_round(self):
        """The pre-PR latent ``KeyError``: a silently missing importance
        reply on the strict (quorum=1.0, no-policy) path must raise a
        descriptive ProtocolError instead."""
        config = _config(devices_per_cluster=2, finalize=False)
        system = ACMESystem(config)
        system.run_cloud_phases()
        edge = system.edges[0]
        edge.request_backbone()
        edge.search_header()
        edge.distribute_models()
        victim = edge.devices[-1].profile.device_id
        original = edge._receive_importance

        def dropper(message):
            if int(message.payload["device_id"]) == victim:
                return None
            return original(message)

        edge._receive_importance = dropper
        with pytest.raises(
            ProtocolError,
            match=rf"device {victim} \(device{victim}\) in aggregation round 0",
        ):
            edge.aggregation_loop()

    def test_no_contributor_at_all_fails_loudly(self):
        """Every device permanently dead: a hard ProtocolError naming
        the cluster, not a hang (distribution already has nobody)."""
        with pytest.raises(ProtocolError, match="edge0"):
            _run(
                fault=FaultConfig(seed=0, dead_devices=(0, 1, 2)),
                quorum=0.5,
                finalize=False,
            )