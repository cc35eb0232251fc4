"""Command-line interface for running ACME experiments.

Usage::

    python -m repro.cli run --clusters 2 --devices 3 --classes 8
    python -m repro.cli table1 --fleet 10
    python -m repro.cli search-space --blocks 3

The CLI is a thin veneer over :mod:`repro.distributed` and
:mod:`repro.core`; anything it prints can be computed programmatically
through the public API.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, List, Optional


def _cmd_run(args: argparse.Namespace) -> Callable[[], None]:
    from repro.distributed import ACMEConfig, ACMESystem, ExecutionPlan, FaultConfig

    # Bad specs are named before the cloud phases are paid for: the
    # configs and the plan range-check themselves, and checked_rounds()
    # is the check every aggregation_loop runs.
    fault_config = FaultConfig.parse(args.faults) if args.faults else None
    config = ACMEConfig(
        num_clusters=args.clusters,
        devices_per_cluster=args.devices,
        num_classes=args.classes,
        samples_per_class=args.samples,
        execution=ExecutionPlan(
            edge_workers=args.edge_workers,
            device_workers=args.workers,
            backend=args.backend,
        ),
        fault_config=fault_config,
        seed=args.seed,
    )
    if args.quorum is not None:
        config.edge.round_quorum = args.quorum
    config.edge.checked_rounds()

    def execute() -> None:
        if args.transport == "tcp":
            from repro.distributed.system import run_multiprocess

            result = run_multiprocess(config)
        else:
            result = ACMESystem(config).run()
        payload = {
            "mean_accuracy": result.mean_accuracy,
            "upload_mb": result.traffic.upload_megabytes(),
            "total_mb": result.traffic.total_megabytes(),
            "upload_ratio_vs_centralized": result.upload_ratio_vs_centralized,
            "clusters": [
                {
                    "edge": c.edge_name,
                    "width": c.width,
                    "depth": c.depth,
                    "device_accuracies": c.device_accuracies,
                    "round_participation": c.round_participation,
                    "protocol_retries": c.protocol_retries,
                }
                for c in result.clusters
            ],
            "participation": result.participation,
            "fault_counts": result.fault_counts,
            "total_retries": result.total_retries,
            "failed_deliveries": result.failed_deliveries,
        }
        print(json.dumps(payload, indent=2))

    return execute


def _cmd_scale(args: argparse.Namespace) -> Callable[[], None]:
    from repro.distributed.scale import ScaleConfig, run_scale_campaign

    config = ScaleConfig(
        num_devices=args.devices,
        num_clusters=args.clusters,
        rounds=args.rounds,
        set_size=args.set_size,
        lru_capacity=None if args.always_live else args.lru,
        eval_requests=args.eval_requests,
        deadline_quantile=args.deadline_quantile,
        churn=args.churn,
        drop=args.drop,
        ledger=args.ledger,
        seed=args.seed,
    )
    config.check()

    def execute() -> None:
        report = run_scale_campaign(config, measure_memory=args.memory)
        print(json.dumps(report.to_dict(), indent=2))

    return execute


def _cmd_table1(args: argparse.Namespace) -> Callable[[], None]:
    from repro.core.search_space import table1_search_space_row

    row = table1_search_space_row(args.fleet, devices_per_cluster=args.devices)
    return lambda: print(json.dumps(row, indent=2))


def _cmd_search_space(args: argparse.Namespace) -> Callable[[], None]:
    from repro.core.search_space import header_search_space_size

    size = header_search_space_size(args.blocks)
    return lambda: print(json.dumps({"blocks": args.blocks, "architectures": size}))


def _cmd_energy(args: argparse.Namespace) -> Callable[[], None]:
    import numpy as np

    from repro.hw.energy import energy
    from repro.hw.profiles import DeviceProfile

    profile = DeviceProfile.synthesize(
        0, args.vcpus, storage_limit=10**9, rng=np.random.default_rng(args.seed)
    )
    report = energy(profile, args.width, args.depth, epochs=args.epochs)
    summary = {
        "power_watts": report.power_watts,
        "latency_seconds": report.latency_seconds,
        "energy_joules": report.energy_joules,
    }
    return lambda: print(json.dumps(summary))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full ACME system")
    run.add_argument("--clusters", type=int, default=2)
    run.add_argument("--devices", type=int, default=3)
    run.add_argument("--classes", type=int, default=8)
    run.add_argument("--samples", type=int, default=48)
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="ExecutionPlan.device_workers: width of the fan-outs inside "
        "an edge — local header training, per-device eval, NAS child "
        "scoring (an edge's headers train in that many stacked groups, "
        "one per worker; 1 = serial, -1 = all CPU cores); any value "
        "reproduces the serial results exactly",
    )
    run.add_argument(
        "--edge-workers",
        type=int,
        default=1,
        help="ExecutionPlan.edge_workers: worker threads for the cluster "
        "dimension (each runs one edge's whole pipeline; 1 = serial, "
        "-1 = all CPU cores); composes with --workers under a shared "
        "host budget, and any value reproduces the serial results — "
        "traffic ledger included — exactly",
    )
    run.add_argument(
        "--backend",
        default="thread",
        help="ExecutionPlan.backend: executor backend of the --workers "
        "tier, 'thread' or 'process'.  'thread' overlaps the "
        "GIL-releasing numpy kernels; 'process' forks a "
        "worker pool that returns the device headers it trained, so "
        "the tape-bound phases (importance rounds, NAS child scoring) "
        "scale past the GIL.  Either backend reproduces the serial "
        "results bit for bit",
    )
    run.add_argument(
        "--faults",
        type=str,
        default=None,
        metavar="SPEC",
        help="seeded chaos campaign as k=v pairs, e.g. "
        "'seed=7,drop=0.15,churn=0.05,dead=2|5' (keys: seed, drop, "
        "corrupt, duplicate, delay, churn, retries, backoff, "
        "delay_deliveries, dead).  The same spec replays the identical "
        "fault log, ledger and results",
    )
    run.add_argument(
        "--quorum",
        type=float,
        default=None,
        metavar="FRAC",
        help="fraction of each round's participating devices whose fresh "
        "importance sets must arrive before the round aggregates "
        "(default 1.0 = require every reply); below it, rounds degrade "
        "to whoever answered plus carried-forward sets",
    )
    run.add_argument(
        "--transport",
        choices=["loopback", "tcp"],
        default="loopback",
        help="message fabric: 'loopback' runs everything in-process "
        "(the default, bit-for-bit the historical behavior); 'tcp' runs "
        "the cloud and each edge cluster as separate OS processes "
        "connected by the wire protocol — same seed, same results, same "
        "ledger (see ROBUSTNESS.md, 'The wire transport')",
    )
    run.add_argument("--seed", type=int, default=0)
    run.set_defaults(func=_cmd_run)

    scale = sub.add_parser(
        "scale",
        help="synthetic fleet-scale campaign (lazy LRU device state, "
        "streaming aggregation, straggler deadlines, serving front)",
    )
    scale.add_argument("--devices", type=int, default=10_000)
    scale.add_argument("--clusters", type=int, default=8)
    scale.add_argument("--rounds", type=int, default=3)
    scale.add_argument("--set-size", type=int, default=64)
    scale.add_argument(
        "--lru",
        type=int,
        default=64,
        help="live headers kept per cluster before cold devices are "
        "evicted to their state snapshots",
    )
    scale.add_argument(
        "--always-live",
        action="store_true",
        help="no eviction (an unbounded --lru); every device keeps a live "
        "header (the memory baseline the LRU exists to beat)",
    )
    scale.add_argument("--eval-requests", type=int, default=8)
    scale.add_argument(
        "--deadline-quantile",
        type=float,
        default=1.0,
        metavar="Q",
        help="per-cluster straggler deadline as a latency quantile "
        "(1.0 = no deadline; 0.9 drops the slowest decile each round)",
    )
    scale.add_argument("--churn", type=float, default=0.0)
    scale.add_argument("--drop", type=float, default=0.0)
    scale.add_argument(
        "--ledger",
        choices=["full", "summary"],
        default="summary",
        help="traffic ledger mode; 'summary' bounds memory at fleet scale",
    )
    scale.add_argument(
        "--memory",
        action="store_true",
        help="trace peak memory with tracemalloc (slower)",
    )
    scale.add_argument("--seed", type=int, default=0)
    scale.set_defaults(func=_cmd_scale)

    table1 = sub.add_parser("table1", help="Table I search-space accounting")
    table1.add_argument("--fleet", type=int, default=10)
    table1.add_argument("--devices", type=int, default=5)
    table1.set_defaults(func=_cmd_table1)

    space = sub.add_parser("search-space", help="Eq. (14) cardinality")
    space.add_argument("--blocks", type=int, default=3)
    space.set_defaults(func=_cmd_search_space)

    energy_cmd = sub.add_parser("energy", help="Eq. (1)-(2) energy estimate")
    energy_cmd.add_argument("--vcpus", type=int, default=5)
    energy_cmd.add_argument("--width", type=float, default=1.0)
    energy_cmd.add_argument("--depth", type=int, default=6)
    energy_cmd.add_argument("--epochs", type=int, default=5)
    energy_cmd.add_argument("--seed", type=int, default=0)
    energy_cmd.set_defaults(func=_cmd_energy)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The one error path: every command builds and checks its inputs
    # before it returns the work, so a bad value is a named error with
    # exit 2, never a traceback or work paid for first.
    try:
        execute = args.func(args)
    except ValueError as err:
        print(f"repro-cli {args.command}: error: {err}", file=sys.stderr)
        return 2
    execute()
    return 0


if __name__ == "__main__":
    sys.exit(main())
