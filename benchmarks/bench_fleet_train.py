"""Perf trajectory bench: one fleet of N vs one device at a time, and
the fleet optimizer's cache-blocked sweep.

Frozen-header training has one loop (:mod:`repro.train.fleet`); a
single device is its one-member case.  The "serial" side is therefore N
consecutive one-member rounds — ``train_header`` /
``compute_importance_set`` per member, each with its own fused optimizer
and feature sweep — and what is recorded is what stacking the members
into one graph per round adds on top of it:

* **fleet ``train_headers_fleet``** — a 48-member linear-probe fleet
  (the per-device personalization regime: many small headers over one
  frozen backbone, small local batches) trained as one graph per round
  with a single fused :class:`~repro.nn.optim.FleetOptimizer` step, vs
  48 one-member ``train_header`` runs.  Floor: 1.5×.
* **fleet ``fleet_importance_rounds``** — a 12-member DAG-header fleet
  running Algorithm 2's local importance rounds (the aggregation loop's
  per-device phase), vs 12 one-member ``compute_importance_set`` runs
  (recorded as ``one_member``; DAG forwards dominate, so grouping these
  measures within a few percent of not grouping them) **and** vs the
  textbook per-device loop of ``tests/reference/train.py`` — one
  ``DataLoader``, one backbone forward and one ``backward()`` per
  mini-batch per device, what ``compute_importance_set`` was when this
  row earned its floor.  Floor: 1.1×, against that loop: the batched
  round is every default run's path and must not fall back to it.

* **``fused_step_cache_blocked``** — the cache-blocked fused Adam sweep
  every fleet step runs (``repro.nn.optim._adam_inplace_update``) vs
  ``_adam_block`` over each whole buffer, at float32 on the flat-buffer
  sizes real runs reach: the figures' fleet importance rounds (314 280
  elements) and the fleet-trainer probe (445 760).  Floor: 1.0× —
  blocking must not lose where it engages; measured 1.19–1.32× at those
  sizes.  Buffers of up to four blocks sweep whole, since below ~186k
  elements blocking does not pay (6–13 % slower at 68k–87k; see
  ``_FUSED_WHOLE_BLOCKS``).  Parity is bit-for-bit by construction
  (elementwise passes) and asserted in ``tests/nn/test_optim_blocked.py``.

The sides of a comparison are timed in alternation — one repetition of
each in turn — so a busy neighbour on a shared host slows a repetition
of every side instead of one side's whole block.

Both fleet comparisons assert **bit-for-bit float64 parity** while they time:
per-member epoch losses and accuracies, final header weights, and
importance sets of the fleet of N must equal the N fleets of one (and
the textbook loop) exactly — grouping is a pure execution-plan change.

Results are persisted machine-readably to ``bench_results/`` and merged
into ``BENCH_perf.json`` at the repo root once every floor holds.

Run:  PYTHONPATH=src python benchmarks/bench_fleet_train.py
``--smoke`` runs tiny shapes with no floor assertions and without
touching ``BENCH_perf.json`` (wired into tier-1 so this script cannot
rot between perf PRs).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(REPO_ROOT))  # tests.reference: the textbook loops

from _common import emit_perf, perf_record, timed

from repro.core.header_importance import ImportanceConfig, compute_importance_set
from repro.data.synthetic import make_cifar100_like
from repro.models.blocks import HeaderSpec
from repro.models.header_dag import DAGHeader
from repro.models.headers import LinearHeader
from repro.models.vit import VisionTransformer, ViTConfig
from repro.nn.optim import _adam_block, _adam_inplace_update
from repro.nn.tensor import using_dtype
from repro.train.fleet import fleet_importance_rounds, train_headers_fleet
from repro.train.trainer import TrainConfig, train_header
from tests.reference.train import reference_importance_set

# Floors asserted by emit_perf — regressions below these fail the bench.
TRAIN_FLEET_FLOOR = 1.5
IMPORTANCE_FLEET_FLOOR = 1.1
#: Floor on the cache-blocked fused sweep: blocking must never lose.
BLOCKED_STEP_FLOOR = 1.0


def _backbone(smoke: bool):
    vit = ViTConfig(num_classes=8, depth=1, embed_dim=16, num_heads=4, image_size=16)
    return vit, VisionTransformer(vit, seed=0)


def _timed_alternating(sides, repeats: int):
    """``{name: (measurement, last result)}`` of ``sides``' callables,
    each warmed once (allocator pools, BLAS buffers), then timed one
    repetition of each in turn, ``repeats`` times."""
    for fn in sides.values():
        fn()
    times = {name: [] for name in sides}
    results = {}
    for _ in range(repeats):
        for name, fn in sides.items():
            start = time.perf_counter()
            results[name] = fn()
            times[name].append(time.perf_counter() - start)
    return {
        name: (
            {
                "best_s": min(samples),
                "mean_s": sum(samples) / len(samples),
                "repeats": repeats,
                "warmup": 1,
                "times_s": samples,
            },
            results[name],
        )
        for name, samples in times.items()
    }


def bench_fleet_train(smoke: bool):
    """48 linear-probe headers: serial train_header loop vs one fleet."""
    members = 4 if smoke else 48
    vit, backbone = _backbone(smoke)
    generator = make_cifar100_like(num_classes=8, image_size=16, seed=0)
    datasets = [
        generator.generate(samples_per_class=2 if smoke else 4, seed=10 + i)
        for i in range(members)
    ]
    configs = [
        TrainConfig(epochs=1 if smoke else 2, batch_size=2, seed=i)
        for i in range(members)
    ]

    def headers():
        return [
            LinearHeader(
                vit.embed_dim, vit.num_patches, vit.num_classes,
                rng=np.random.default_rng(i),
            )
            for i in range(members)
        ]

    def run_serial():
        fleet = headers()
        reports = [
            train_header(backbone, h, d, config=c, freeze_backbone=True)
            for h, d, c in zip(fleet, datasets, configs)
        ]
        return fleet, reports

    def run_fleet():
        fleet = headers()
        reports = train_headers_fleet(backbone, fleet, datasets, configs)
        return fleet, reports

    timings = _timed_alternating(
        {"fleet": run_fleet, "serial": run_serial}, repeats=2 if smoke else 5
    )
    fast, (fleet_headers, fleet_reports) = timings["fleet"]
    baseline, (serial_headers, serial_reports) = timings["serial"]

    # The fleet is a pure execution-plan change: per-member traces and
    # final weights must match the serial path bit for bit.
    for rs, rf in zip(serial_reports, fleet_reports):
        assert rs.epoch_losses == rf.epoch_losses
        assert rs.epoch_accuracies == rf.epoch_accuracies
    for s, f in zip(serial_headers, fleet_headers):
        for (name, a), (_, b) in zip(s.named_parameters(), f.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    return perf_record(
        "fleet_train_headers",
        fast=fast,
        baseline=baseline,
        floor=None if smoke else TRAIN_FLEET_FLOOR,
        members=members,
        final_loss=fleet_reports[0].final_loss,
    )


def bench_fleet_importance(smoke: bool):
    """12 DAG headers: one fleet round vs the textbook per-device loop
    (floor) and vs 12 one-member rounds (recorded beside it)."""
    members = 3 if smoke else 12
    vit, backbone = _backbone(smoke)
    generator = make_cifar100_like(num_classes=8, image_size=16, seed=0)
    spec = HeaderSpec.from_sequence([0, 1, 0, 2, 1, 2, 2, 0])
    datasets = [
        generator.generate(samples_per_class=2 if smoke else 4, seed=40 + i)
        for i in range(members)
    ]
    configs = [ImportanceConfig(seed=i, batch_size=4) for i in range(members)]

    def headers():
        return [
            DAGHeader(
                vit.embed_dim, vit.num_patches, vit.num_classes, spec,
                rng=np.random.default_rng(i),
            )
            for i in range(members)
        ]

    def per_device(score):
        def run():
            return [
                score(backbone, h, d, config=c)
                for h, d, c in zip(headers(), datasets, configs)
            ]

        return run

    def run_fleet():
        return fleet_importance_rounds(backbone, headers(), datasets, configs)

    timings = _timed_alternating(
        {
            "fleet": run_fleet,
            "textbook": per_device(reference_importance_set),
            "one_member": per_device(compute_importance_set),
        },
        repeats=2 if smoke else 5,
    )
    fast, fleet_sets = timings["fleet"]
    baseline, textbook_sets = timings["textbook"]
    one_member, one_member_sets = timings["one_member"]
    for a, b, c in zip(fleet_sets, textbook_sets, one_member_sets):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    return perf_record(
        "fleet_importance_rounds",
        fast=fast,
        baseline=baseline,
        floor=None if smoke else IMPORTANCE_FLEET_FLOOR,
        members=members,
        one_member=one_member,
    )


def bench_blocked_fused_step(smoke: bool):
    """Cache-blocked vs unblocked fused Adam sweep on float32 flats of the
    sizes real runs reach.  One timed call runs ``calls`` updates of one
    buffer of each size."""
    sizes = (300_000,) if smoke else (314_280, 445_760)
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
    # The docstring's parity claims — and the committed floor history —
    # are statements about the float64 kernels; pin the engine dtype so
    # the float32 engine default cannot silently change the workload.
    with using_dtype("float64"):
        records = [bench_fleet_train(smoke), bench_fleet_importance(smoke)]
    records.append(bench_blocked_fused_step(smoke))
    # Smoke runs exercise the full pipeline but never touch the committed
    # trajectory file or the full run's bench_results records.
    return emit_perf(
        "bench_fleet_train_smoke" if smoke else "bench_fleet_train",
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
