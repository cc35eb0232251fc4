"""Tier-1 smoke run of ``benchmarks/bench_process_pool.py``.

The perf benches only run when a perf PR invokes them; this test drives
the process-pool bench end to end in its ``--smoke`` mode (tiny shapes,
no floor assertions, ``BENCH_perf.json`` untouched) so the script
itself cannot rot between perf PRs — the fork-pool fan-out, the
header parameters' trip home, the serial/process bit-for-bit
parity asserts and the cache-blocked fused-step A/B all execute on
every test run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestBenchProcessPoolSmoke:
    def test_smoke_mode_runs_clean(self):
        trajectory = REPO_ROOT / "BENCH_perf.json"
        before = trajectory.read_bytes() if trajectory.exists() else None
        full_results = REPO_ROOT / "bench_results" / "bench_process_pool.json"
        full_before = full_results.read_bytes() if full_results.exists() else None
        result = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "benchmarks" / "bench_process_pool.py"),
                "--smoke",
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == 0, result.stderr
        assert "bench_process_pool_smoke" in result.stdout
        # The importance leg always runs its serial/process parity check;
        # it is a record on a >= 4-core host and a one-line note elsewhere.
        assert "process_pool_importance_rounds" in result.stdout

        # Smoke mode must never touch the committed trajectory or the
        # full run's diagnostic records.
        after = trajectory.read_bytes() if trajectory.exists() else None
        assert before == after
        full_after = full_results.read_bytes() if full_results.exists() else None
        assert full_before == full_after

        # The smoke payload is the full machine-readable schema.
        payload = json.loads(
            (REPO_ROOT / "bench_results" / "bench_process_pool_smoke.json").read_text()
        )
        assert payload["schema"] == "perf/v1"
        labels = {r["label"] for r in payload["results"]}
        assert "fused_step_cache_blocked" in labels
        assert all(r.get("floor") is None for r in payload["results"])
