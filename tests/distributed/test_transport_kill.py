"""Kill-an-edge integration: SIGKILL mid-campaign, degraded completion.

One edge process is SIGKILLed partway through a TCP campaign.  The
acceptance bar — the run *completes* (never hangs), reports
participation < 1.0, carries a DeliveryError-derived ``"crash"`` entry
in the fault counters, the surviving edge's results are intact, and no
child processes are left behind.

The converse: an engine lock a parent thread holds when the workers
fork must not wedge them — each worker re-inits the registered locks
first, so the run completes in full.
"""

import importlib
import multiprocessing
import threading

import pytest

from repro.distributed.supervisor import KILL_POINTS
from repro.distributed.system import ACMEConfig, ACMESystem, run_multiprocess


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


class TestKillAnEdge:
    @pytest.fixture(scope="class")
    def degraded(self):
        return run_multiprocess(
            _config(), kill_edge=1, kill_point="mid_rounds", edge_timeout=300.0
        )

    def test_run_completes_with_reduced_participation(self, degraded):
        assert degraded.participation < 1.0
        assert len(degraded.clusters) == 2

    def test_crash_recorded_as_delivery_error_fault(self, degraded):
        assert degraded.fault_counts.get("crash") == 1
        assert degraded.failed_deliveries >= 1

    def test_survivor_results_intact(self, degraded):
        survivor = degraded.clusters[0]
        reference = ACMESystem(_config()).run().clusters[0]
        assert survivor.device_accuracies == reference.device_accuracies
        assert survivor.round_participation == reference.round_participation

    def test_victim_slot_degraded_not_missing(self, degraded):
        victim = degraded.clusters[1]
        assert victim.edge_name == "edge1"
        assert victim.width == 0.0 and victim.depth == 0
        assert victim.round_participation and all(
            p == 0.0 for p in victim.round_participation
        )
        assert not victim.device_accuracies

    def test_victim_ledger_excluded_from_merge(self, degraded):
        assert "edge1" not in degraded.edge_message_kinds
        assert "edge0" in degraded.edge_message_kinds

    def test_no_orphaned_child_processes(self, degraded):
        _ = degraded
        assert multiprocessing.active_children() == []

    def test_kill_during_earliest_phase_also_degrades(self):
        result = run_multiprocess(
            _config(), kill_edge=0, kill_point="backbone", edge_timeout=300.0
        )
        assert result.participation < 1.0
        assert result.fault_counts.get("crash") == 1
        assert result.clusters[1].device_accuracies  # survivor intact
        assert multiprocessing.active_children() == []

    def test_unknown_kill_point_rejected(self):
        with pytest.raises(ValueError, match="kill_point"):
            run_multiprocess(_config(), kill_edge=0, kill_point="nonsense")

    def test_kill_points_cover_all_phases(self):
        assert set(KILL_POINTS) == {
            "backbone",
            "search",
            "distribute",
            "mid_rounds",
            "aggregate",
        }


class TestLockHeldAtFork:
    @pytest.mark.parametrize(
        "module, attr",
        [
            ("repro.distributed.messages", "_SEQUENCE_LOCK"),
            ("repro.nn.init", "_STATE_LOCK"),
            ("repro.nn.optim", "_REGISTRY_LOCK"),
            ("repro.core.similarity", "_PROJECTION_CACHE_LOCK"),
        ],
    )
    def test_workers_do_not_inherit_a_held_engine_lock(self, module, attr):
        """A parent thread holds a registered engine lock for the whole
        run, as a concurrent sender, initializer, optimizer or
        similarity call can at fork time.  Inherited as held, it would
        wedge every edge until ``edge_timeout`` and degrade both
        clusters; re-inited, the run is whole."""
        lock = getattr(importlib.import_module(module), attr)
        held, release = threading.Event(), threading.Event()

        def hold():
            with lock:
                held.set()
                release.wait()

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        try:
            assert held.wait(timeout=10.0)
            result = run_multiprocess(
                _config(devices_per_cluster=2), edge_timeout=20.0
            )
        finally:
            release.set()
            holder.join(timeout=10.0)
        assert not holder.is_alive()
        assert result.participation == 1.0
        assert "crash" not in result.fault_counts
        assert multiprocessing.active_children() == []
