"""Replay the perf floors recorded in ``BENCH_perf.json``.

The perf benches (``benchmarks/bench_fleet_train.py``,
``benchmarks/bench_scale.py``, …) assert their speedup floors at
measurement time and only then merge records into the trajectory file.
This script replays those floors from the committed file so that a
regressed or hand-edited trajectory fails fast — it is wired into tier-1
via ``tests/test_perf_floors.py`` and can be run standalone:

    python scripts/check_floors.py [path/to/BENCH_perf.json]

Exit status 0 when every record holds its floor, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TRAJECTORY = REPO_ROOT / "BENCH_perf.json"
EXPECTED_SCHEMA = "perf/v1"


def load_trajectory(path: Path = DEFAULT_TRAJECTORY) -> Dict[str, object]:
    """Parse and structurally validate the trajectory file."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != EXPECTED_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {EXPECTED_SCHEMA!r}, got {data.get('schema')!r}"
        )
    results = data.get("results")
    if not isinstance(results, list) or not results:
        raise ValueError(f"{path}: no perf records found")
    return data


def _best_s(record: Dict[str, object], side: str) -> object:
    timing = record.get(side)
    if isinstance(timing, dict):
        return timing.get("best_s")
    return None


def check_floors(path: Path = DEFAULT_TRAJECTORY) -> List[str]:
    """Return one failure message per record whose floor does not hold.

    Each message carries the measured values (speedup, floor, and the
    fast/baseline best times) so a CI failure is diagnosable from the
    log alone.
    """
    data = load_trajectory(path)
    failures: List[str] = []
    for record in data["results"]:
        label = record.get("label", "<unlabeled>")
        floor = record.get("floor")
        speedup = record.get("speedup")
        if not isinstance(speedup, (int, float)):
            failures.append(f"{label}: missing/invalid speedup {speedup!r}")
            continue
        if floor is not None and speedup < floor:
            fast, base = _best_s(record, "fast"), _best_s(record, "baseline")
            timing = ""
            if isinstance(fast, (int, float)) and isinstance(base, (int, float)):
                timing = f" (fast best {fast:.4g}s vs baseline best {base:.4g}s)"
            failures.append(
                f"{label}: recorded speedup {speedup:.2f}x is below the "
                f"{floor:.2f}x floor{timing} — from bench "
                f"{record.get('bench', '<unknown>')!r}"
            )
    return failures


def summary_table(data: Dict[str, object]) -> List[str]:
    """Human-readable status table: one row per record, floors annotated."""
    rows = []
    for record in data["results"]:
        floor = record.get("floor")
        speedup = record.get("speedup")
        if not isinstance(speedup, (int, float)):
            status, speed_txt = "INVALID", repr(speedup)
        else:
            speed_txt = f"{speedup:.2f}x"
            if floor is None:
                status = "-"
            else:
                status = "ok" if speedup >= floor else "FAIL"
        rows.append(
            (
                str(record.get("label", "<unlabeled>")),
                speed_txt,
                "-" if floor is None else f"{floor:.2f}x",
                status,
            )
        )
    headers = ("record", "speedup", "floor", "status")
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(4)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows)
    return lines


def main(argv: List[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_TRAJECTORY
    try:
        data = load_trajectory(path)
        failures = check_floors(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"perf floor check errored: {exc}")
        return 1
    for line in summary_table(data):
        print(line)
    floored = [r for r in data["results"] if r.get("floor") is not None]
    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        print(f"{len(failures)} of {len(floored)} floored record(s) FAILED in {path}")
        return 1
    print(
        f"ok: {len(floored)} floored record(s) "
        f"(of {len(data['results'])}) hold in {path}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
