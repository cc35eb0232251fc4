"""Summary ledger mode: bounded memory at fleet scale, exact counters.

The full ledger appends one record per delivered message and one
``by_pair`` row per (sender, receiver) — both O(messages) and O(nodes²),
which at 10⁴⁺ devices *is* the memory bill.  ``Network(ledger="summary")``
keeps a bounded tail of the log, collapses pair keys to roles
(``device*``), and keeps every scalar / per-kind / per-fault counter
exact.  The capstone test runs a 10,000-device campaign under
``tracemalloc`` and holds it to a peak the always-live, full-ledger mode
could not approach.
"""

import numpy as np
import pytest

from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import _SUMMARY_TAIL, Network
from repro.distributed.scale import ScaleConfig, run_scale_campaign


def _chatter(network: Network, count: int) -> None:
    for i in range(count):
        name = f"device{i}"
        network.register(name, lambda m: None)
        network.send(
            Message("edge0", name, MessageKind.PERSONALIZED_SET,
                    {"importance": np.zeros(4, dtype=np.float32)})
        )


class TestSummaryLedger:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Network(ledger="verbose")

    def test_counters_exact_log_bounded(self):
        full, summary = Network(ledger="full"), Network(ledger="summary")
        n = _SUMMARY_TAIL + 100
        for network in (full, summary):
            network.register("edge0", lambda m: None)
            _chatter(network, n)
        assert len(full.log) == n
        assert len(summary.log) == _SUMMARY_TAIL  # bounded tail
        assert summary.kind_counts == full.kind_counts
        assert summary.stats.total_bytes == full.stats.total_bytes
        assert summary.stats.message_count == full.stats.message_count
        assert summary.stats.by_kind == full.stats.by_kind

    def test_pairs_collapse_to_roles(self):
        network = Network(ledger="summary")
        network.register("edge0", lambda m: None)
        _chatter(network, 50)
        assert set(network.stats.by_pair) == {("edge*", "device*")}

    def test_kind_sequence_unavailable_in_summary(self):
        network = Network(ledger="summary")
        network.register("edge0", lambda m: None)
        _chatter(network, 3)
        with pytest.raises(RuntimeError, match="summary"):
            network.kind_sequence()
        # The exact per-kind counts remain available in both modes.
        assert network.kind_counts["personalized_set"] == 3


class TestScaleMemoryBudget:
    #: MiB budget for the 10k-device smoke below.  Lazy LRU state plus
    #: the bounded ledger measured ~260 MiB; a private backbone per
    #: device (~0.1 MiB/device, the install path PR 24 retired)
    #: projected to ~1 GiB at this fleet size, far past the budget.
    BUDGET_MB = 420.0

    def test_ten_thousand_devices_stay_under_budget(self):
        config = ScaleConfig(
            num_devices=10_000,
            num_clusters=8,
            rounds=1,
            lru_capacity=32,
            eval_requests=4,
            deadline_quantile=0.9,
            ledger="summary",
            seed=0,
        )
        report = run_scale_campaign(config, measure_memory=True)
        assert report.contributions > 0
        assert report.live_headers <= 8 * 32
        assert report.peak_memory_mb is not None
        assert report.peak_memory_mb < self.BUDGET_MB, (
            f"10k-device smoke peaked at {report.peak_memory_mb:.1f} MiB "
            f"(budget {self.BUDGET_MB} MiB)"
        )
        # The ledger stayed bounded: a full log would hold one entry per
        # delivered message (≥ 3 × 10k just for distribution + round 1).
        assert len(report.kind_counts) > 0
        assert sum(report.kind_counts.values()) > 20_000
