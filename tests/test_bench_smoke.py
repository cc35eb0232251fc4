"""Tier-1 smoke run of the ratio bench under ``benchmarks/``.

The perf bench only runs when a perf change invokes it; this test
drives it end to end in its ``--smoke`` mode (tiny shapes, no floor
assertions, ``BENCH_perf.json`` untouched) so the script cannot rot
between perf changes.  ``bench_fleet_train`` runs its imports, the
fleet/serial A/B switching, the bit-for-bit parity asserts, the
cache-blocked fused-step A/B and the record plumbing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "bench, printed, labels",
    [
        ("bench_fleet_train", "fleet_train_headers",
         {"fleet_train_headers", "fleet_importance_rounds", "fused_step_cache_blocked"}),
    ],
)
def test_smoke_mode_runs_clean(bench, printed, labels):
    # Smoke mode must never touch the committed trajectory or the full
    # run's diagnostic records.
    untouched = [REPO_ROOT / "BENCH_perf.json", REPO_ROOT / "bench_results" / f"{bench}.json"]
    before = [p.read_bytes() if p.exists() else None for p in untouched]
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / f"{bench}.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert f"{bench}_smoke" in result.stdout
    assert printed in result.stdout
    assert [p.read_bytes() if p.exists() else None for p in untouched] == before

    # The smoke payload is the full machine-readable schema.
    payload = json.loads((REPO_ROOT / "bench_results" / f"{bench}_smoke.json").read_text())
    assert payload["schema"] == "perf/v1"
    assert labels <= {r["label"] for r in payload["results"]}
    assert all(r.get("floor") is None for r in payload["results"])
