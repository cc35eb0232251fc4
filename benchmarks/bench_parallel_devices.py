"""Perf bench: thread-parallel cluster phases vs the serial device loop.

The finalize/eval phase (per-device fine-tune + evaluation) is
embarrassingly parallel across a cluster — PR 2 routes it through
``repro.distributed.executor`` with ``ExecutionPlan.device_workers``
workers.  This bench measures that cluster phase on an 8-device cluster
and records two comparisons into the ``BENCH_perf.json`` trajectory
(merged with the existing hot-path records, their floors untouched):

* ``cluster_finalize_makespan_4workers`` — the cluster-phase *schedule
  length*: measured per-device durations list-scheduled onto 4 workers
  (exactly the FIFO schedule a thread pool produces) vs their serial
  sum.  This is the speedup the executor delivers when the 4 workers
  are physical cores (or, in the deployment the paper simulates,
  physically distinct edge devices); it is computed from measured
  wall-clock durations, so it reflects the real workload balance, and
  it is the record the ≥1.5× floor is asserted on because it is
  hardware-independent.
* ``cluster_finalize_wallclock_4workers`` — the actual wall-clock of
  ``edge.finalize()`` under a 4-wide plan vs the serial loop **on this host**.
  On a host with ≥4 cores this approaches the makespan bound (the heavy
  kernels release the GIL), so the record asserts a conservative real
  speedup floor (≥1.3×); on a smaller box it degrades to roughly
  serial and the floor relaxes to an overhead guard (parallel must
  never be catastrophically slower than serial).  The makespan record
  above stays the single-core CI contract either way.

The bench also asserts the parallel run's per-device accuracies equal
the serial run's **bit-for-bit under float64** — speed never buys a
different answer.

Run:  PYTHONPATH=src python benchmarks/bench_parallel_devices.py
  or: PYTHONPATH=src python -m pytest benchmarks/bench_parallel_devices.py -s
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit_perf, perf_record

from repro.distributed.executor import ExecutionPlan, parallel_map
from repro.distributed.metrics import schedule_length
from repro.distributed.system import ACMEConfig, ACMESystem

REPO_ROOT = Path(__file__).resolve().parent.parent

WORKERS = 4
DEVICES = 8
#: Floor on the schedule-length speedup (hardware-independent).
MAKESPAN_FLOOR = 1.5
#: Overhead guard on this host's wall-clock: thread dispatch must never
#: make the phase catastrophically slower than the serial loop, even on
#: a single-core machine where no real speedup is possible and GIL
#: convoying between 4 Python-heavy training threads costs ~2x.
WALLCLOCK_FLOOR = 0.2
#: Strict wall-clock floor once the 4 workers are real cores: the heavy
#: kernels release the GIL, so actual parallel speedup is demanded —
#: conservative vs the ~3.5x makespan bound to absorb scheduler noise.
WALLCLOCK_MULTICORE_FLOOR = 1.3


def _wallclock_floor() -> float:
    """Strict floor on a >=4-core host, overhead guard elsewhere."""
    return (
        WALLCLOCK_MULTICORE_FLOOR
        if (os.cpu_count() or 1) >= WORKERS
        else WALLCLOCK_FLOOR
    )


def _cluster_config(device_workers=None) -> ACMEConfig:
    """One cluster x 8 devices, float64 (the parity-auditable mode)."""
    return ACMEConfig(
        execution=ExecutionPlan(device_workers=device_workers),
        num_clusters=1,
        devices_per_cluster=DEVICES,
        num_classes=6,
        samples_per_class=64,
        finalize=False,  # protocol phases here; finalize timed separately
        compute_dtype="float64",
        seed=0,
    )


def _assert_executor_fans_out() -> None:
    """Fail the bench if the executor silently serializes.

    The makespan record is computed from measured durations plus the
    thread pool's schedule policy, so it would survive an executor that
    stopped parallelizing; this barrier cannot — it is only crossable
    when all WORKERS tasks are in flight simultaneously.
    """
    import threading

    barrier = threading.Barrier(WORKERS)
    parallel_map(lambda _: barrier.wait(timeout=10), range(WORKERS), max_workers=WORKERS)


def bench_cluster_finalize():
    _assert_executor_fans_out()
    # Two bit-identical systems: one runs the cluster phase serially
    # (timed per device), the other through the 4-worker plan.
    serial_system = ACMESystem(_cluster_config())
    serial_system.run()
    parallel_system = ACMESystem(_cluster_config(device_workers=WORKERS))
    parallel_system.run()

    serial_edge = serial_system.edges[0]
    durations: List[float] = []
    serial_results = []
    for device in serial_edge.devices:
        start = time.perf_counter()
        serial_results.append(device.finalize_round())
        durations.append(time.perf_counter() - start)
    serial_total = sum(durations)

    start = time.perf_counter()
    parallel_results = parallel_system.edges[0].finalize()
    parallel_wall = time.perf_counter() - start

    # Parity: float64 serial and parallel cluster phases must agree
    # bit-for-bit, device by device.
    serial_acc = [r["accuracy"] for r in serial_results]
    parallel_acc = [r["accuracy"] for r in parallel_results]
    if serial_acc != parallel_acc:
        raise AssertionError(
            f"parallel finalize diverged from serial: {parallel_acc} vs {serial_acc}"
        )

    makespan = schedule_length(durations, WORKERS)
    one_run = {"repeats": 1, "warmup": 0}
    records = [
        perf_record(
            "cluster_finalize_makespan_4workers",
            fast={"best_s": makespan, "mean_s": makespan, **one_run},
            baseline={"best_s": serial_total, "mean_s": serial_total, **one_run},
            floor=MAKESPAN_FLOOR,
            workers=WORKERS,
            devices=DEVICES,
            metric="list-schedule length of measured per-device durations",
            per_device_s=durations,
        ),
        perf_record(
            "cluster_finalize_wallclock_4workers",
            fast={"best_s": parallel_wall, "mean_s": parallel_wall, **one_run},
            baseline={"best_s": serial_total, "mean_s": serial_total, **one_run},
            floor=_wallclock_floor(),
            workers=WORKERS,
            devices=DEVICES,
            host_cpus=os.cpu_count(),
            metric="wall-clock on this host (strict floor on >=4 cores, "
            "overhead guard otherwise)",
            parity="float64 per-device accuracies identical serial vs parallel",
        ),
    ]
    return records


def run_bench():
    return emit_perf(
        "bench_parallel_devices",
        bench_cluster_finalize(),
        path=REPO_ROOT / "BENCH_perf.json",
    )


def test_parallel_devices_bench():
    run_bench()


if __name__ == "__main__":
    run_bench()
