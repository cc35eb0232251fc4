"""Property-based protocol layer: seeded-random scenario sweep.

Rather than hand-picking fault configurations, these tests draw random
topologies, fault policies, quorums and deadlines from a seeded
generator and assert the *invariants* every ACME run must keep:

1. the system never hangs and never raises anything past
   :class:`~repro.distributed.faults.ProtocolError`;
2. participation stays in ``(0, 1]`` and per-cluster round telemetry is
   complete;
3. each edge's aggregation weights (the similarity matrix) stay
   row-stochastic — the convexity precondition of Eq. (21), full-round
   and masked subset alike;
4. replaying the identical scenario reproduces the identical kind
   sequence, fault counts and traffic ledger (replay-determinism).

The generator is a seeded-random equivalent of a hypothesis strategy:
fixed seeds make failures reproducible by scenario index.
"""

import numpy as np
import pytest

from repro.distributed import (
    ACMEConfig,
    ACMESystem,
    FaultConfig,
    ProtocolError,
)


def _random_scenario(rng: np.random.Generator) -> ACMEConfig:
    """One random-but-seeded system configuration."""
    fault = None
    if rng.random() < 0.8:
        fault = FaultConfig(
            seed=int(rng.integers(0, 1000)),
            drop=float(rng.choice([0.0, 0.1, 0.2])),
            churn=float(rng.choice([0.0, 0.05, 0.1])),
            duplicate=float(rng.choice([0.0, 0.05])),
            retries=int(rng.integers(1, 4)),
        )
    config = ACMEConfig(
        num_clusters=int(rng.integers(1, 3)),
        devices_per_cluster=int(rng.integers(2, 4)),
        num_classes=4,
        samples_per_class=12,
        finalize=False,
        compute_dtype="float64",
        fault_config=fault,
        seed=int(rng.integers(0, 1000)),
    )
    config.edge.round_quorum = float(rng.choice([0.5, 0.67, 1.0] if fault is None else [0.5, 0.67]))
    if rng.random() < 0.3:
        # A deadline somewhere inside the plausible latency range; some
        # draws exclude nobody, some exclude slow devices entirely.
        config.edge.round_deadline = float(rng.uniform(2.0, 12.0))
    return config


def _run(config: ACMEConfig):
    from tests.helpers import reset_engine_state

    reset_engine_state()
    system = ACMESystem(config)
    result = system.run()
    return system, result


class TestScenarioSweep:
    @pytest.mark.parametrize("scenario", range(5))
    def test_invariants_hold(self, scenario):
        rng = np.random.default_rng(9000 + scenario)
        config = _random_scenario(rng)
        try:
            system, result = _run(config)
        except ProtocolError:
            # A legitimate terminal outcome (e.g. a cluster whose every
            # upload died past the retry budget) — loud, typed, no hang.
            return

        # -- participation ------------------------------------------------
        assert 0.0 < result.participation <= 1.0
        for cluster in result.clusters:
            assert len(cluster.round_participation) == config.edge.aggregation_rounds
            for rate in cluster.round_participation:
                assert 0.0 <= rate <= 1.0

        # -- aggregation weights are row-stochastic -----------------------
        for edge in system.edges:
            assert edge.similarity is not None
            rows = edge.similarity.sum(axis=1)
            np.testing.assert_allclose(rows, np.ones_like(rows), atol=1e-9)
            assert np.all(edge.similarity >= 0.0)

        # -- ledger sanity ------------------------------------------------
        assert system.network.stats.total_bytes > 0
        counts = system.network.kind_counts
        assert counts.get("model_distribution", 0) > 0
        assert counts.get("importance_set", 0) > 0

    @pytest.mark.parametrize("scenario", range(2))
    def test_replay_determinism(self, scenario):
        rng = np.random.default_rng(4200 + scenario)
        config = _random_scenario(rng)

        def observe():
            try:
                system, result = _run(config)
            except ProtocolError as err:
                return ("protocol-error", str(err))
            return (
                system.network.kind_sequence(),
                system.network.fault_counts(),
                system.network.stats.total_bytes,
                result.participation,
                [c.round_participation for c in result.clusters],
            )

        assert observe() == observe()
