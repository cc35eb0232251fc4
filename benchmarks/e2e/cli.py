"""Command line of the benchmark.

Three uses, one program::

    run.py --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
    run.py [--seed N] [--smoke]                            the suite: every declared workload, both passes
    run.py compare A.json B.json [--normalise]             two suite results, row by row

The first form is the contract ``BENCHMARK.json`` names (see harness.py).
The suite runs that form once per declared workload and pass, each in a fresh
process so ``peak_rss_mb`` is the workload's own, then prints every
metric by name with unit, value, median, IQR and sample count and writes
``results.json`` for ``compare``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import compare, harness
from .stats import summary

#: Per-layer metrics that describe the named workload's own traced pass;
#: every other per-layer metric is the same measurement in each traced
#: invocation, so the suite pools it across them.
PER_WORKLOAD_LAYER = ("trace.overhead_share", "system.unattributed_share")


def _invoke(workload: str, args, trace: int) -> dict:
    command = [
        sys.executable, str(harness.HERE / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--out", str(args.out),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} (--trace {trace}) exited {done.returncode}; no metrics")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    detail = json.loads(
        (args.out / f"{workload}.seed{args.seed}.trace{trace}.json").read_text()
    )
    return {"line": line, "detail": detail}


def _row(name: str, unit: str, value: float, stats: Optional[dict] = None) -> str:
    row = f"  {name:<34}{unit:>7} {value:>14.6g}"
    if stats is None:  # one reading: nothing to spread
        return row
    return f"{row} {stats['median']:>14.6g} {stats['iqr']:>12.4g} {int(stats['n']):>4}"


def run_suite(args) -> int:
    spec = harness.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    results: Dict[str, dict] = {}
    pooled: Dict[str, List[float]] = {}
    header = f"  {'metric':<34}{'unit':>7} {'value':>14} {'median':>14} {'iqr':>12} {'n':>4}"
    for name in names:
        plain = _invoke(name, args, trace=0)
        traced = _invoke(name, args, trace=1)
        line, detail = plain["line"], plain["detail"]
        entry = {
            "attempted": line["attempted"],
            "failed": line["failed"],
            "failed_share": line["failed"] / line["attempted"],
            "digest": detail["digest"],
            # The traced invocation passes through every workload,
            # the two layer-only ones included.
            "digests": traced["detail"]["digests"],
            "throughput": detail["throughput"],
            "end_to_end": {},
            "per_layer": traced["line"]["metrics"],
        }
        print(f"\n== {name}  (seed {args.seed}, {detail['summary']['campaign_s']['n']} repetitions)")
        print(header)
        for metric, reading in line["metrics"].items():
            # Timings carry their repetitions' spread; the rest are one reading.
            stats = detail["summary"].get(metric)
            entry["end_to_end"][metric] = {
                **reading,
                **(stats or {"median": reading["value"], "iqr": 0.0, "n": 1}),
            }
            print(_row(metric, reading["unit"], reading["value"], stats))
        print(
            f"  ops attempted {line['attempted']}, failed {line['failed']} "
            f"(failed_share {entry['failed_share']:.6g}); throughput "
            f"{detail['throughput']['value']:.6g} {detail['throughput']['unit']}"
        )
        for metric in PER_WORKLOAD_LAYER:
            reading = traced["line"]["metrics"][metric]
            print(_row(metric, reading["unit"], reading["value"]))
        for metric, reading in traced["line"]["metrics"].items():
            pooled.setdefault(metric, []).append(reading["value"])
        results[name] = entry
        host = detail["host"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layer_summary = {
        metric: {"unit": units[metric], **summary(values)}
        for metric, values in pooled.items()
        if metric not in PER_WORKLOAD_LAYER
    }
    print(f"\n== per-layer profile (pooled over the {len(names)} traced invocations)")
    print(header)
    for metric, stats in layer_summary.items():
        print(_row(metric, stats["unit"], stats["median"], stats))
    payload = {
        "schema": "e2e/v1",
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "host": host,
        "workloads": results,
        "per_layer": layer_summary,
    }
    path = args.out / "results.json"
    path.write_text(json.dumps(payload, indent=1))
    print(f"\nresults: {path}\ntraces and self-time tables: {args.out / 'traces'}")
    if args.record_expected:
        record_expected(payload)
    return 0


def record_expected(payload: dict) -> None:
    """Pin this run's digests (one seed at a time) in ``expected.json``."""
    path = harness.HERE / "expected.json"
    pinned = json.loads(path.read_text()) if path.exists() else {"digests": {}}
    host = payload["host"]
    pinned["host"] = {
        key: host[key]
        for key in ("cpu", "machine", "python", "numpy", "blas", "blas_threads")
    }
    for entry in payload["workloads"].values():
        for name, digest in entry["digests"].items():
            pinned["digests"].setdefault(name, {})[str(payload["seed"])] = digest
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned seed {payload['seed']} digests in {path}")


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    spec = harness.load_spec()
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload and print one JSON line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every gate on")
    parser.add_argument("--out", type=Path, default=harness.ROOT / ".bench_e2e")
    parser.add_argument(
        "--record-expected", action="store_true",
        help="suite only: pin this seed's digests in expected.json",
    )
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload is None:
        return run_suite(args)
    return harness.run_single(
        args.workload, args.seed, args.seconds, args.trace, args.smoke, args.out
    )
