"""``compare A.json B.json``: two suite results, one row per metric.

A is the base of every ratio.  A row's verdict follows the rule this
repo's performance claims are held to: with both spreads inside the
metric's bound, ``worse`` / ``better`` when B's value leaves A's by more
than the bound and ``same`` otherwise; with a spread wider than the
bound the row is ``unresolved`` — not ``same``.  Exact metrics (byte
counts, operation counts, digests) have no spread: any difference is a
verdict.  Results from different hosts are refused unless
``--normalise`` divides every timing by that host's ``host.calib_ms``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List

from . import harness

#: Fingerprint fields two results must share to be compared raw.
HOST_KEYS = ("nproc", "cpu", "machine", "python", "numpy", "blas", "blas_threads")
TIMINGS = ("setup_s", "campaign_s", "cpu_s")


def verdict(base: dict, other: dict, bound: float) -> str:
    a, b = base["value"], other["value"]
    if base["n"] <= 1 and other["n"] <= 1:
        # A single exact reading per side (bytes, peak RSS).
        if a == b:
            return "same"
        return ("worse" if b > a else "better") if abs(b - a) > bound * a else "same"
    spread = max(base["iqr"] / base["median"], other["iqr"] / other["median"])
    if spread > bound:
        return "unresolved"
    if b > a * (1 + bound):
        return "worse"
    if b < a * (1 - bound):
        return "better"
    return "same"


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("other", type=Path)
    parser.add_argument(
        "--normalise", action="store_true",
        help="divide timings by each result's host.calib_ms (different hosts)",
    )
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    other = json.loads(args.other.read_text())
    differing = [k for k in HOST_KEYS if base["host"].get(k) != other["host"].get(k)]
    if differing and not args.normalise:
        pairs = ", ".join(
            f"{k}: {base['host'].get(k)!r} vs {other['host'].get(k)!r}" for k in differing
        )
        print(
            f"refusing to compare results from different hosts ({pairs}); "
            "pass --normalise to divide timings by host.calib_ms"
        )
        return 2
    for key in ("seed", "smoke", "seconds"):
        if base[key] != other[key]:
            print(f"refusing to compare: {key} differs ({base[key]} vs {other[key]})")
            return 2
    calib = [
        result["per_layer"]["host.calib_ms"]["median"] if args.normalise else 1.0
        for result in (base, other)
    ]
    bounds = {m["name"]: m["bound"] for m in harness.load_spec()["end_to_end"]}
    unit_note = " (÷ host.calib_ms)" if args.normalise else ""
    print(
        f"{'workload':<16}{'metric':<13}{'A' + unit_note:>14}{'A iqr':>11}{'B':>14}{'B iqr':>11}"
        f"{'B/A':>9}{'bound':>7}  verdict"
    )
    worst = 0
    for name, a_entry in base["workloads"].items():
        b_entry = other["workloads"][name]
        for metric, bound in bounds.items():
            a, b = dict(a_entry["end_to_end"][metric]), dict(b_entry["end_to_end"][metric])
            if metric in TIMINGS:
                for reading, divisor in zip((a, b), calib):
                    for field in ("value", "median", "iqr"):
                        reading[field] /= divisor
            word = verdict(a, b, bound)
            worst = max(worst, word in ("worse", "unresolved"))
            print(
                f"{name:<16}{metric:<13}{a['value']:>14.6g}{a['iqr']:>11.3g}"
                f"{b['value']:>14.6g}{b['iqr']:>11.3g}{b['value'] / a['value']:>9.4f}"
                f"{bound:>7.2f}  {word}"
            )
        for exact in ("attempted", "failed", "digest"):
            same = a_entry[exact] == b_entry[exact]
            worst = max(worst, not same)
            shown = "" if exact == "digest" else f"{a_entry[exact]} vs {b_entry[exact]}"
            print(f"{name:<16}{exact:<13}{shown:>50}{'':>27}  {'same' if same else 'DIFFERENT'}")
    return int(worst)
