"""Perf bench: the fault-injection fabric's overhead and retry cost.

PR 6 teaches the in-process fabric to inject deterministic faults
(drops, corruption, duplicates, delays, churn) and the protocol to
degrade gracefully (retries with backoff, quorum rounds, carried-forward
sets).  That machinery sits on the hot ``send`` path of every message,
so this bench guards two budgets in ``BENCH_perf.json``:

* ``chaos_fabric_overhead`` — a raw ``Network.send`` microbench, the
  no-policy path vs the same loop with an armed-but-zero-rate
  :class:`FaultPolicy`.  The armed path pays the fault draw + checksum
  verification; the floor (0.95x) asserts the *no-policy* path never
  quietly inherits that cost — fault-free users must keep paying
  nothing.
* ``chaos_campaign_10pct_drop`` — a full multi-edge campaign under a
  seeded 10% drop policy vs the identical fault-free campaign.  The
  speedup is fault-free-time / chaos-time; the 0.5x floor bounds the
  retry + re-poll overhead of absorbing a 10% loss rate at roughly 2x
  wall-clock.  The record also logs completed rounds/s, the retry count
  and the injected-fault census (the fault model is ROBUSTNESS.md's).

The campaign leg asserts the chaos run *completes every aggregation
round* (the degraded-mode contract) before any timing is recorded.

Run:  PYTHONPATH=src python benchmarks/bench_chaos.py
  or: PYTHONPATH=src python -m pytest benchmarks/bench_chaos.py -s
Smoke (tiny shapes, no floors, trajectory untouched — wired into tier-1
via tests/test_bench_chaos_smoke.py):
      PYTHONPATH=src python benchmarks/bench_chaos.py --smoke
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

from _common import emit_perf, perf_record, timed

from repro.distributed.faults import FaultConfig, FaultPolicy
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import Network
from repro.distributed.system import ACMEConfig, ACMESystem

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The no-policy send path vs the armed-but-silent path.  >=1.0 means
#: "armed costs more than plain", the expected direction; the floor only
#: trips if the plain path becomes measurably slower than the armed one.
OVERHEAD_FLOOR = 0.95
#: Fault-free campaign time / 10%-drop campaign time: retries and quorum
#: re-polls may cost up to ~2x before the floor trips.
CAMPAIGN_FLOOR = 0.5
DROP_RATE = 0.10


def _send_loop(sends: int, policy_config):
    """A zero-arg callable driving ``sends`` ACK messages through a fabric."""
    network = Network()
    network.register("sink", lambda message: None)
    if policy_config is not None:
        network.install_fault_policy(FaultPolicy(policy_config))
    block = np.zeros(64)

    def fn():
        network.reset_stats()
        for _ in range(sends):
            network.send(
                Message(
                    sender="src",
                    receiver="sink",
                    kind=MessageKind.ACK,
                    payload={"block": block},
                )
            )

    return fn


def _campaign_config(smoke: bool, fault=None) -> ACMEConfig:
    return ACMEConfig(
        num_clusters=2 if smoke else 4,
        devices_per_cluster=2 if smoke else 3,
        num_classes=4 if smoke else 6,
        samples_per_class=12 if smoke else 24,
        compute_dtype="float64",
        finalize=False,  # time the protocol rounds, not the fine-tune
        fault_config=fault,
        seed=0,
    )


def _run_campaign(smoke: bool, fault=None):
    config = _campaign_config(smoke, fault=fault)
    if fault is not None:
        config.edge.round_quorum = 0.6
    system = ACMESystem(config)
    start = time.perf_counter()
    result = system.run()
    elapsed = time.perf_counter() - start
    rounds = config.num_clusters * config.edge.aggregation_rounds
    for cluster in result.clusters:
        if len(cluster.round_participation) != config.edge.aggregation_rounds:
            raise AssertionError(
                f"{cluster.edge_name} completed "
                f"{len(cluster.round_participation)} of "
                f"{config.edge.aggregation_rounds} rounds under faults"
            )
    return elapsed, rounds, result


def bench_chaos(smoke: bool = False):
    sends = 200 if smoke else 2000
    reps = dict(repeats=3, warmup=1) if smoke else dict(repeats=5, warmup=1)
    plain = timed(_send_loop(sends, None), **reps)
    armed = timed(_send_loop(sends, FaultConfig(seed=0)), **reps)

    clean_s, rounds, _ = _run_campaign(smoke)
    chaos_s, chaos_rounds, chaos = _run_campaign(
        smoke, fault=FaultConfig(seed=7, drop=DROP_RATE, retries=3)
    )
    if chaos_rounds != rounds:
        raise AssertionError(f"round count moved: {chaos_rounds} vs {rounds}")

    one_run = {"repeats": 1, "warmup": 0}
    return [
        perf_record(
            "chaos_fabric_overhead",
            fast=plain,
            baseline=armed,
            floor=None if smoke else OVERHEAD_FLOOR,
            sends=sends,
            metric="no-policy Network.send loop vs armed zero-rate policy "
            "(floor = the fault-free path must not inherit the armed cost)",
        ),
        perf_record(
            "chaos_campaign_10pct_drop",
            fast={"best_s": chaos_s, "mean_s": chaos_s, **one_run},
            baseline={"best_s": clean_s, "mean_s": clean_s, **one_run},
            floor=None if smoke else CAMPAIGN_FLOOR,
            drop_rate=DROP_RATE,
            completed_rounds=chaos_rounds,
            completed_rounds_per_s=chaos_rounds / max(chaos_s, 1e-12),
            retries=chaos.total_retries,
            failed_deliveries=chaos.failed_deliveries,
            fault_counts=chaos.fault_counts,
            participation=chaos.participation,
            metric="seeded 10%-drop campaign wall-clock vs fault-free "
            "(speedup = clean/chaos; floor bounds retry overhead at ~2x)",
        ),
    ]


def run_bench(smoke: bool = False):
    if smoke:
        # Tiny shapes, no floors, committed trajectory untouched — the
        # tier-1 mode proving the bench itself (fabric microbench, chaos
        # campaign completion asserts, record plumbing) cannot rot.
        return emit_perf("bench_chaos_smoke", bench_chaos(smoke=True))
    return emit_perf(
        "bench_chaos",
        bench_chaos(),
        path=REPO_ROOT / "BENCH_perf.json",
    )


def test_chaos_bench():
    run_bench(smoke="--smoke" in sys.argv)


if __name__ == "__main__":
    run_bench(smoke="--smoke" in sys.argv)
