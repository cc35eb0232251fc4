"""First-class straggler rounds: deadline parity and graceful degradation.

``EdgeConfig.round_deadline`` turns Eq. (2)'s deterministic per-epoch
latency into an upload cutoff: devices past it skip the round while the
carry-forward subset path aggregates whoever made it.  Three contracts:

1. a deadline nobody misses is *bit-for-bit* the no-deadline run —
   enabling the knob must not perturb the arithmetic;
2. the on-time subset trained as one batched group (the default plan)
   reproduces the per-device fan-out (``device_workers=2``) exactly
   under the same deadline;
3. a tight deadline degrades participation without raising or hanging,
   and still finalizes every device.
"""

import numpy as np
import pytest

from repro.distributed import ACMEConfig, ACMESystem, ExecutionPlan
from repro.hw.energy import latency


def _config(**overrides) -> ACMEConfig:
    return ACMEConfig(
        num_clusters=1,
        devices_per_cluster=3,
        num_classes=4,
        samples_per_class=12,
        compute_dtype="float64",
        seed=0,
        **overrides,
    )


def _run(deadline=None, fleet=True, finalize=True):
    from tests.helpers import reset_engine_state

    reset_engine_state()
    config = _config(
        finalize=finalize,
        execution=ExecutionPlan(device_workers=None if fleet else 2),
    )
    config.edge.round_deadline = deadline
    system = ACMESystem(config)
    result = system.run()
    return system, result


def _observe(system, result):
    return (
        result.mean_accuracy,
        [c.device_accuracies for c in result.clusters],
        [c.round_participation for c in result.clusters],
        system.network.kind_sequence(),
        system.network.stats.total_bytes,
    )


def _latencies(system):
    edge = system.edges[0]
    width = edge.assigned_width if edge.assigned_width is not None else 1.0
    depth = edge.assigned_depth if edge.assigned_depth is not None else 1
    return sorted(latency(d.profile, width, depth) for d in edge.devices)


class TestDeadlineParity:
    def test_slack_deadline_is_bitwise_noop(self):
        """A deadline everyone makes == no deadline at all, bit for bit."""
        baseline = _observe(*_run(deadline=None))
        slack = _observe(*_run(deadline=1e9))
        assert slack == baseline

    def test_fleet_partial_rounds_match_per_device(self):
        """A batched on-time subset under a deadline == per-device path.

        The deadline is picked *from the run itself* (between the two
        fastest devices' latencies) so exactly the on-time subset
        trains: a group of two of the cluster's three devices must
        reproduce the per-device fan-out exactly.
        """
        probe_system, _ = _run(deadline=None, finalize=False)
        lats = _latencies(probe_system)
        assert len(lats) == 3
        deadline = (lats[1] + lats[2]) / 2.0  # keeps 2 of 3 devices

        per_device = _observe(*_run(deadline=deadline, fleet=False))
        fleet = _observe(*_run(deadline=deadline, fleet=True))
        assert fleet == per_device

    def test_tight_deadline_degrades_without_raising(self):
        probe_system, _ = _run(deadline=None, finalize=False)
        lats = _latencies(probe_system)
        deadline = (lats[0] + lats[1]) / 2.0  # keeps exactly 1 of 3

        system, result = _run(deadline=deadline)
        rates = [r for c in result.clusters for r in c.round_participation]
        assert rates, "round telemetry missing"
        assert all(rate == pytest.approx(1 / 3) for rate in rates)
        assert 0.0 < result.participation < 1.0
        # Stragglers still receive the final model and get evaluated.
        assert all(len(c.device_accuracies) == 3 for c in result.clusters)
