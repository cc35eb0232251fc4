"""Perf bench: the process-pool executor and the cache-blocked fused step.

Two comparisons, recorded into the ``BENCH_perf.json`` trajectory
(merged with the existing records, their floors untouched):

* ``process_pool_importance_rounds`` — an 8-device importance-round
  fan-out (Algorithm 2's per-device phase: a taped DAG-header forward /
  backward per batch, the GIL-bound workload the process backend
  exists for) through an ``ExecutionPlan(backend="process")`` with 4
  workers, measured **wall-clock against the thread backend** with a
  ≥1.5× floor.  The record is written only on a host with ≥4 cores and
  ``fork``; a smaller host cannot run the workers in parallel, so there
  the leg checks parity and records nothing.  Either way the
  process-backend results are asserted **bit-for-bit identical** to the
  serial loop under float64 — header parameters returned in the result
  frames included.

* ``fused_step_cache_blocked`` — the cache-blocked fused Adam sweep
  (``repro.nn.optim._adam_inplace_update``) vs ``_adam_block`` over each
  whole buffer, at float32 on the flat-buffer sizes real runs reach.
  Floor: 1.0× — blocking must not lose where it engages; measured
  1.17–1.31× over both sizes (1.19–1.24× at 314 280, 1.29–1.32× at
  445 760).  Below ~186k elements it does not pay (6–13 % slower at
  68k–87k; see ``_FUSED_BLOCK_ELEMS``).  Parity is bit-for-bit by
  construction (elementwise passes) and asserted in
  ``tests/nn/test_optim_blocked.py``.

Run:  PYTHONPATH=src python benchmarks/bench_process_pool.py
``--smoke`` runs tiny shapes with no floor assertions and without
touching ``BENCH_perf.json`` (wired into tier-1 so this script cannot
rot between perf PRs).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit_perf, perf_record, timed

from repro.core.header_importance import ImportanceConfig, compute_importance_set
from repro.data.synthetic import make_cifar100_like
from repro.distributed.executor import ExecutionPlan
from repro.distributed.procpool import fork_available
from repro.models.blocks import HeaderSpec
from repro.models.header_dag import DAGHeader
from repro.models.vit import VisionTransformer, ViTConfig
from repro.nn.optim import _adam_block, _adam_inplace_update
from repro.nn.tensor import using_dtype

REPO_ROOT = Path(__file__).resolve().parent.parent

WORKERS = 4
DEVICES = 8
#: Floor on the process-pool importance fan-out: wall-clock vs threads
#: on a ≥4-core host (no record on anything smaller).
PROCESS_POOL_FLOOR = 1.5
#: Floor on the cache-blocked fused sweep: blocking must never lose.
BLOCKED_STEP_FLOOR = 1.0


def _importance_fixture(smoke: bool):
    """Task + a factory for fresh per-run work items.

    ``compute_importance_set`` trains the header it scores, so every
    run (serial reference, each timed repeat, each backend) must start
    from freshly built — seed-identical — headers, exactly like the
    fleet bench rebuilds its fleets.
    """
    members = 3 if smoke else DEVICES
    vit = ViTConfig(num_classes=8, depth=1, embed_dim=16, num_heads=4, image_size=16)
    backbone = VisionTransformer(vit, seed=0)
    generator = make_cifar100_like(num_classes=8, image_size=16, seed=0)
    spec = HeaderSpec.from_sequence([0, 1, 0, 2, 1, 2, 2, 0])
    datasets = [
        generator.generate(samples_per_class=2 if smoke else 6, seed=30 + i)
        for i in range(members)
    ]
    configs = [ImportanceConfig(seed=i, batch_size=4) for i in range(members)]

    def make_items():
        headers = [
            DAGHeader(
                vit.embed_dim, vit.num_patches, vit.num_classes, spec,
                rng=np.random.default_rng(i),
            )
            for i in range(members)
        ]
        items = list(zip(headers, datasets, configs))
        shared = [list(h.parameters()) for h in headers]
        return items, shared

    task = lambda triple: compute_importance_set(  # noqa: E731
        backbone, triple[0], triple[1], config=triple[2]
    )
    return make_items, task


def bench_process_pool_importance(smoke: bool):
    """8 per-device importance rounds: process pool vs thread pool.

    Returns ``None`` — parity checked, nothing timed — on a host with
    fewer than ``WORKERS`` cores or without ``fork``.
    """
    multicore = (os.cpu_count() or 1) >= WORKERS and fork_available()
    with using_dtype("float64"):
        make_items, task = _importance_fixture(smoke)

        items, _ = make_items()
        serial_sets = [task(item) for item in items]

        # The process backend must reproduce the serial sets exactly —
        # results and header parameters both travel back in the
        # wire-codec result frames.
        threads = ExecutionPlan(device_workers=WORKERS)
        processes = ExecutionPlan(device_workers=WORKERS, backend="process")
        process_items, process_shared = make_items()
        process_sets = processes.map_devices(
            task, process_items, shared_params=process_shared
        )
        for a, b in zip(serial_sets, process_sets):
            np.testing.assert_array_equal(a, b)
        if not multicore:
            print(
                "process_pool_importance_rounds: parity ok, not timed "
                f"(needs >= {WORKERS} CPUs and fork)"
            )
            return None

        repeats = 2 if smoke else 5

        def run_threads():
            fresh, _ = make_items()
            return threads.map_devices(task, fresh)

        def run_processes():
            fresh, shared = make_items()
            return processes.map_devices(task, fresh, shared_params=shared)

        thread_run = timed(run_threads, repeats=repeats, warmup=1)
        process_run = timed(run_processes, repeats=repeats, warmup=1)
        return perf_record(
            "process_pool_importance_rounds",
            fast=process_run,
            baseline=thread_run,
            floor=None if smoke else PROCESS_POOL_FLOOR,
            workers=WORKERS,
            devices=len(items),
            host_cpus=os.cpu_count(),
            metric="wall-clock: process pool vs thread pool on this host",
            parity="float64 importance sets identical serial vs process",
        )


def bench_blocked_fused_step(smoke: bool):
    """Cache-blocked vs unblocked fused Adam sweep on float32 flats of the
    sizes real runs reach: the figures' fleet importance rounds (314 280
    elements) and the fleet-trainer probe (445 760).  One timed call runs
    ``calls`` updates of one buffer of each size."""
    sizes = (100_000,) if smoke else (314_280, 445_760)
    repeats, calls = (3, 2) if smoke else (10, 20)
    rng = np.random.default_rng(0)
    # data, grad, m, v and the two scratch arrays of each buffer.
    buffers = [
        [rng.normal(size=size).astype(np.float32) for _ in range(2)]
        + [np.zeros(size, np.float32) for _ in range(4)]
        for size in sizes
    ]
    # lr, beta1, beta2, eps, weight_decay, bias1, bias2 at step 10.
    hyper = (1e-3, 0.9, 0.999, 1e-8, 0.0, 1 - 0.9**10, 1 - 0.999**10)

    def sweep(update):
        def run():
            for _ in range(calls):
                for arrays in buffers:
                    update(*arrays, *hyper)

        return run

    blocked = timed(sweep(_adam_inplace_update), repeats=repeats, warmup=3)
    unblocked = timed(sweep(_adam_block), repeats=repeats, warmup=3)
    return perf_record(
        "fused_step_cache_blocked",
        fast=blocked,
        baseline=unblocked,
        floor=None if smoke else BLOCKED_STEP_FLOOR,
        buffer_elems=list(sizes),
        calls=calls,
        dtype="float32",
        metric="fused Adam update per buffer: _adam_inplace_update "
        "(cache-blocked) vs _adam_block over the whole buffer",
        parity="bit-for-bit by construction (elementwise passes); "
        "asserted in tests/nn/test_optim_blocked.py",
    )


def run_bench(smoke: bool = False):
    records = [
        record
        for record in (
            bench_process_pool_importance(smoke),
            bench_blocked_fused_step(smoke),
        )
        if record is not None
    ]
    # Smoke runs exercise the full pipeline but never touch the committed
    # trajectory file or the full run's bench_results records.
    return emit_perf(
        "bench_process_pool_smoke" if smoke else "bench_process_pool",
        records,
        path=None if smoke else REPO_ROOT / "BENCH_perf.json",
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny shapes, no floor assertions, BENCH_perf.json untouched",
    )
    run_bench(smoke=parser.parse_args().smoke)
