"""Perf bench: the cross-edge parallel cluster pipeline vs the serial loop.

PR 4 routes the per-edge phase-2/3/4 pipeline (backbone request, header
NAS, aggregation loop, finalize) through ``repro.distributed.executor``
with ``ExecutionPlan.edge_workers`` workers, each edge sending through
its own :class:`~repro.distributed.network.NetworkShard`.  This bench
measures that cluster loop on an 8-edge fleet and records two
comparisons into the ``BENCH_perf.json`` trajectory (merged with the
existing records, their floors untouched):

* ``cross_edge_makespan_4workers`` — the *schedule length*: measured
  per-edge pipeline durations list-scheduled onto 4 workers (exactly
  the FIFO schedule a thread pool produces) vs their serial sum.  This
  is the speedup the executor delivers when the 4 workers are physical
  cores (or physically distinct edge servers, the deployment the paper
  simulates); it is computed from measured wall-clock durations, so it
  reflects the real workload balance, and it is the record the ≥1.5×
  floor is asserted on because it is hardware-independent.
* ``cross_edge_wallclock_4workers`` — the actual wall-clock of the
  ``edge_workers=4`` cluster loop vs the serial sum **on this host**.
  On a host with ≥4 cores this approaches the makespan bound, so the
  record asserts a conservative real speedup floor (≥1.3×); on a
  smaller box it degrades to roughly serial and the floor relaxes to
  an overhead guard.  The makespan record above stays the single-core
  CI contract either way.

The bench also asserts the parallel run reproduces the serial run
**bit-for-bit under float64** — per-device accuracies, cluster
assignments, and the full traffic ledger (total/upload/by_kind/by_pair
byte counters and the global + per-edge message sequences).

Run:  PYTHONPATH=src python benchmarks/bench_cross_edge.py
  or: PYTHONPATH=src python -m pytest benchmarks/bench_cross_edge.py -s
Smoke (tiny shapes, no floors, trajectory untouched — wired into tier-1
via tests/test_bench_cross_edge_smoke.py):
      PYTHONPATH=src python benchmarks/bench_cross_edge.py --smoke
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit_perf, perf_record

from repro.distributed.executor import ExecutionPlan
from repro.distributed.metrics import schedule_length
from repro.distributed.system import ACMEConfig, ACMESystem

REPO_ROOT = Path(__file__).resolve().parent.parent

WORKERS = 4
EDGES = 8
DEVICES = 2
#: Floor on the schedule-length speedup (hardware-independent).  8
#: roughly equal edge pipelines onto 4 workers schedule in 2 rounds,
#: ~4x; the floor leaves margin for workload imbalance.
MAKESPAN_FLOOR = 1.5
#: Overhead guard on this host's wall-clock: shard bookkeeping + thread
#: dispatch must never make the loop catastrophically slower than
#: serial, even on a single-core machine where GIL convoying between 4
#: Python-heavy edge pipelines costs ~2x.
WALLCLOCK_FLOOR = 0.2
#: Strict wall-clock floor once the 4 workers are real cores — demanded
#: conservative vs the ~3.5x makespan bound to absorb scheduler noise.
WALLCLOCK_MULTICORE_FLOOR = 1.3


def _wallclock_floor() -> float:
    """Strict floor on a >=4-core host, overhead guard elsewhere."""
    return (
        WALLCLOCK_MULTICORE_FLOOR
        if (os.cpu_count() or 1) >= WORKERS
        else WALLCLOCK_FLOOR
    )


def _fleet_config(smoke: bool, **overrides) -> ACMEConfig:
    """A multi-edge fleet, float64 (the parity-auditable mode)."""
    base = dict(
        num_clusters=2 if smoke else EDGES,
        devices_per_cluster=DEVICES,
        num_classes=4 if smoke else 6,
        samples_per_class=12 if smoke else 32,
        compute_dtype="float64",
        seed=0,
    )
    base.update(overrides)
    return ACMEConfig(**base)


def _assert_parity(serial_system, serial_clusters, serial_kinds, parallel_system, parallel_clusters):
    """Serial and parallel runs must agree bit-for-bit, ledger included."""
    serial_acc = [c.device_accuracies for c in serial_clusters]
    parallel_acc = [c.device_accuracies for c in parallel_clusters]
    if serial_acc != parallel_acc:
        raise AssertionError(
            f"parallel cluster loop diverged from serial: "
            f"{parallel_acc} vs {serial_acc}"
        )
    assignments = [(c.width, c.depth) for c in serial_clusters]
    parallel_assignments = [(c.width, c.depth) for c in parallel_clusters]
    if assignments != parallel_assignments:
        raise AssertionError(
            f"cluster assignments diverged: {parallel_assignments} vs {assignments}"
        )
    s, p = serial_system.network.stats, parallel_system.network.stats
    for attr in ("total_bytes", "upload_bytes", "download_bytes", "message_count"):
        if getattr(s, attr) != getattr(p, attr):
            raise AssertionError(
                f"traffic ledger diverged on {attr}: "
                f"{getattr(p, attr)} vs {getattr(s, attr)}"
            )
    if dict(s.by_kind) != dict(p.by_kind) or dict(s.by_pair) != dict(p.by_pair):
        raise AssertionError("traffic ledger diverged on by_kind/by_pair")
    if serial_system.network.kind_sequence() != parallel_system.network.kind_sequence():
        raise AssertionError("global message sequence diverged")
    if serial_kinds != parallel_system._edge_message_kinds:
        raise AssertionError("per-edge message sub-sequences diverged")


def bench_cross_edge(smoke: bool = False):
    # Two bit-identical fleets: one drives the cluster loop edge by edge
    # (timed per edge, through shards exactly like the parallel path),
    # the other through the 4-worker cross-edge executor.
    serial_system = ACMESystem(_fleet_config(smoke))
    serial_system.run_cloud_phases()
    shards = [serial_system.network.shard(e.name) for e in serial_system.edges]
    durations: List[float] = []
    serial_clusters = []
    for edge, shard in zip(serial_system.edges, shards):
        start = time.perf_counter()
        serial_clusters.append(serial_system.run_edge_pipeline(edge, shard))
        durations.append(time.perf_counter() - start)
    serial_kinds = {shard.owner: shard.kind_sequence() for shard in shards}
    serial_system.network.merge_shards(shards)
    serial_total = sum(durations)

    parallel_system = ACMESystem(_fleet_config(smoke, execution=ExecutionPlan(edge_workers=WORKERS)))
    parallel_system.run_cloud_phases()
    start = time.perf_counter()
    parallel_clusters = parallel_system.run_cluster_loop()
    parallel_wall = time.perf_counter() - start

    _assert_parity(
        serial_system, serial_clusters, serial_kinds, parallel_system, parallel_clusters
    )

    makespan = schedule_length(durations, WORKERS)
    one_run = {"repeats": 1, "warmup": 0}
    records = [
        perf_record(
            "cross_edge_makespan_4workers",
            fast={"best_s": makespan, "mean_s": makespan, **one_run},
            baseline={"best_s": serial_total, "mean_s": serial_total, **one_run},
            floor=None if smoke else MAKESPAN_FLOOR,
            workers=WORKERS,
            edges=len(durations),
            devices_per_edge=DEVICES,
            metric="list-schedule length of measured per-edge pipeline durations",
            per_edge_s=durations,
        ),
        perf_record(
            "cross_edge_wallclock_4workers",
            fast={"best_s": parallel_wall, "mean_s": parallel_wall, **one_run},
            baseline={"best_s": serial_total, "mean_s": serial_total, **one_run},
            floor=None if smoke else _wallclock_floor(),
            workers=WORKERS,
            edges=len(durations),
            host_cpus=os.cpu_count(),
            metric="wall-clock on this host (strict floor on >=4 cores, "
            "overhead guard otherwise)",
            parity="float64 accuracies, assignments and full traffic ledger "
            "identical serial vs parallel",
        ),
    ]
    return records


def run_bench(smoke: bool = False):
    if smoke:
        # Tiny shapes, no floors, committed trajectory untouched — the
        # tier-1 mode proving the bench itself (imports, shard-driven
        # serial loop, parity asserts, record plumbing) cannot rot
        # between perf PRs.
        return emit_perf("bench_cross_edge_smoke", bench_cross_edge(smoke=True))
    return emit_perf(
        "bench_cross_edge",
        bench_cross_edge(),
        path=REPO_ROOT / "BENCH_perf.json",
    )


def test_cross_edge_bench():
    run_bench(smoke="--smoke" in sys.argv)


if __name__ == "__main__":
    run_bench(smoke="--smoke" in sys.argv)
