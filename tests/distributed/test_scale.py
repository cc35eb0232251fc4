"""Scale harness invariants: fleet shapes, lazy parity, determinism.

``repro.distributed.scale`` runs the million-device synthetic campaigns
behind ``repro-cli scale`` and the ``scale_rounds`` benchmark workload.
These tests pin its invariants: the heavy-tailed cluster
split is exact and total, the lazy-LRU fleet observes the *same protocol* as
an unbounded-store fleet (traffic, contributions, serving — everything but
the memory bill), and a campaign replays byte-identically from its seed.
"""

import numpy as np
import pytest

from repro.distributed.faults import FaultConfig, FaultPolicy, ProtocolError
from repro.distributed.network import Network
from repro.distributed.scale import (
    ScaleCluster,
    ScaleConfig,
    heavy_tailed_sizes,
    run_scale_campaign,
)


class TestHeavyTailedSizes:
    def test_exact_total_and_floor(self):
        sizes = heavy_tailed_sizes(1000, 8, exponent=1.2)
        assert sum(sizes) == 1000
        assert len(sizes) == 8
        assert min(sizes) >= 1

    def test_heavy_tail_is_monotone(self):
        sizes = heavy_tailed_sizes(10_000, 16, exponent=1.5)
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] > sizes[-1] * 3  # genuinely skewed

    def test_degenerate_counts(self):
        assert heavy_tailed_sizes(5, 5) == [1, 1, 1, 1, 1]
        assert heavy_tailed_sizes(7, 1) == [7]
        with pytest.raises(ValueError):
            heavy_tailed_sizes(3, 4)
        with pytest.raises(ValueError):
            heavy_tailed_sizes(3, 0)

    def test_deterministic(self):
        assert heavy_tailed_sizes(12_345, 7) == heavy_tailed_sizes(12_345, 7)


def _campaign_dict(**overrides):
    config = ScaleConfig(
        num_devices=120,
        num_clusters=3,
        rounds=2,
        lru_capacity=8,
        eval_requests=4,
        deadline_quantile=0.8,
        churn=0.05,
        drop=0.02,
        ledger="summary",
        seed=0,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return run_scale_campaign(config).to_dict()


#: Fields that may legitimately differ between runs or modes (wall
#: clock, memory instrumentation, LRU churn counters).
_VOLATILE = {
    "round_seconds",
    "devices_per_round_second",
    "serving_seconds",
    "requests_per_second",
    "peak_memory_mb",
    "hydrations",
    "evictions",
    "live_headers",
}


def _stable(report: dict) -> dict:
    return {k: v for k, v in report.items() if k not in _VOLATILE}


class TestCampaignProperties:
    def test_lazy_matches_always_live(self):
        """Same protocol either way: lazy eviction only changes memory."""
        lazy = _campaign_dict()
        live = _campaign_dict(lru_capacity=None)
        assert _stable(lazy) == _stable(live)
        assert lazy["hydrations"] > 0  # the LRU actually cycled
        # Unbounded: every provisioned device's header is built exactly
        # once, at distribution, and stays live.
        assert live["hydrations"] == live["live_headers"] > 0
        assert live["evictions"] == 0

    def test_replay_determinism(self):
        assert _stable(_campaign_dict()) == _stable(_campaign_dict())

    def test_numeric_half_sees_the_sets_and_not_the_clock(self):
        """The numeric half moves with the aggregated sets (another seed
        for the devices' synthetic uploads), never with timings: a replay
        gives the whole digest again."""
        report = run_scale_campaign(ScaleConfig(num_devices=40, num_clusters=2, rounds=2))
        again = run_scale_campaign(ScaleConfig(num_devices=40, num_clusters=2, rounds=2))
        assert report.digest() == again.digest()
        assert report.digest()["numeric"]["sets_crc"] != 0
        other = run_scale_campaign(
            ScaleConfig(num_devices=40, num_clusters=2, rounds=2, seed=1)
        )
        assert other.digest()["numeric"]["sets_crc"] != report.digest()["numeric"]["sets_crc"]

    @pytest.mark.parametrize(
        "field, bad, named",
        [
            ("drop", -0.1, "drop must be in"),
            ("churn", 1.5, "churn must be in"),
            ("deadline_quantile", float("nan"), "deadline_quantile must be in"),
            ("rounds", -1, "rounds must be an int"),
            ("eval_requests", 2.5, "eval_requests must be an int"),
            ("retries", True, "retries must be an int"),
            ("num_clusters", 0, "need at least one cluster"),
        ],
    )
    def test_a_campaign_that_cannot_run_is_refused_before_any_device(
        self, field, bad, named, monkeypatch
    ):
        """``drop=-0.1`` used to skip the fault policy and run as a clean
        campaign; every field is checked before a cluster is built, even
        when assigned after construction."""
        from repro.distributed import scale

        def no_device(*args, **kwargs):
            raise AssertionError("a device was built for a refused campaign")

        monkeypatch.setattr(scale, "ScaleDevice", no_device)
        config = ScaleConfig(num_devices=40, num_clusters=2)
        setattr(config, field, bad)
        with pytest.raises(ValueError, match=named):
            run_scale_campaign(config)

    def test_straggler_and_fault_accounting(self):
        report = _campaign_dict()
        assert report["contributions"] > 0
        assert report["stragglers"] > 0
        assert 0.0 < report["participation"] <= 1.0
        assert report["eval_requests_served"] > 0
        assert report["kind_counts"].get("importance_set", 0) > 0
        assert report["total_megabytes"] > 0.0


class TestDegradedRounds:
    """The harness runs the edge's real round, so heavy loss exercises
    the real re-poll + carry-forward path rather than a stand-in."""

    @staticmethod
    def _heavy_loss(seed):
        config = ScaleConfig(
            num_devices=48,
            num_clusters=3,
            rounds=3,
            lru_capacity=4,
            eval_requests=0,
            drop=0.5,
            retries=0,
            seed=seed,
        )
        try:
            return _stable(run_scale_campaign(config).to_dict())
        except ProtocolError as err:  # the one sanctioned way to not finish
            return str(err)

    def test_heavy_loss_repolls_and_carries_forward(self):
        report = self._heavy_loss(seed=0)
        assert isinstance(report, dict), report
        assert report["carried"] > 0
        assert 0.0 < report["participation"] < 1.0
        # Every fresh set is one delivered upload; re-polled uploads and
        # dropped attempts are on the ledger on top of those.
        assert report["kind_counts"]["importance_set"] > report["contributions"]
        assert report["kind_counts"]["personalized_set"] >= report["contributions"]
        assert report["fault_counts"]["drop"] > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_heavy_loss_replays_identically(self, seed):
        assert self._heavy_loss(seed) == self._heavy_loss(seed)

    def test_round_with_nobody_on_time_is_a_recorded_noop(self):
        """Whole clusters churned off: 0.0 participation, not an error."""
        report = run_scale_campaign(
            ScaleConfig(
                num_devices=12, num_clusters=2, rounds=2, lru_capacity=4,
                eval_requests=0, churn=1.0, seed=0,
            )
        ).to_dict()
        assert report["contributions"] == 0
        assert report["participation"] == 0.0
        assert report["kind_counts"] == {"model_distribution": 12}

    def test_run_round_refuses_a_foreign_policy(self):
        network = Network(ledger="summary")
        cluster = ScaleCluster(
            0, 3, 0, network, ScaleConfig(num_devices=3, num_clusters=1)
        )
        cluster.distribute()
        with pytest.raises(ValueError, match="fault policy"):
            cluster.run_round(0, FaultPolicy(FaultConfig(seed=0, drop=0.1)))
        assert cluster.run_round(0, None) == 3


class TestConfigChecks:
    def test_drop_rate_above_one_is_refused(self):
        """It used to "succeed" with 0 contributions and 20 MB of traffic."""
        with pytest.raises(ValueError, match="drop must be in"):
            run_scale_campaign(
                ScaleConfig(num_devices=4, num_clusters=1, rounds=1, drop=1.5)
            )

    @pytest.mark.parametrize("bad", [1.5, -1.0, float("nan"), True])
    def test_deadline_quantile_outside_the_unit_interval_is_refused(self, bad):
        """1.5 used to mean "no deadline" and -1.0 failed inside numpy."""
        config = ScaleConfig(num_devices=3, num_clusters=1)
        config.deadline_quantile = bad  # assigned late, as the CLI may
        with pytest.raises(ValueError, match="deadline_quantile"):
            ScaleCluster(0, 3, 0, Network(), config)
