"""Tier-1 smoke run of ``benchmarks/bench_scale.py``.

The full scale bench runs a 10k–100k device campaign; this test drives
the script end to end in its ``--smoke`` mode (400 devices, no floor
assertions, ``BENCH_perf.json`` untouched) so the harness cannot rot
between perf PRs — the heavy-tailed fleet build, the lazy-LRU campaign,
the straggler/churn accounting, the serving front, the tracemalloc
rerun and the record plumbing all execute on every test run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestBenchScaleSmoke:
    def test_smoke_mode_runs_clean(self):
        trajectory = REPO_ROOT / "BENCH_perf.json"
        before = trajectory.read_bytes() if trajectory.exists() else None
        full_results = REPO_ROOT / "bench_results" / "bench_scale.json"
        full_before = full_results.read_bytes() if full_results.exists() else None
        result = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "benchmarks" / "bench_scale.py"),
                "--smoke",
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == 0, result.stderr
        assert "bench_scale_smoke" in result.stdout

        # Smoke mode must never touch the committed trajectory or the
        # full run's diagnostic records.
        after = trajectory.read_bytes() if trajectory.exists() else None
        assert before == after
        full_after = full_results.read_bytes() if full_results.exists() else None
        assert full_before == full_after

        # The smoke payload is the full machine-readable schema.
        payload = json.loads(
            (REPO_ROOT / "bench_results" / "bench_scale_smoke.json").read_text()
        )
        assert payload["schema"] == "perf/v1"
        labels = {r["label"] for r in payload["results"]}
        assert {"scale_devices_per_round_s", "scale_eval_requests_s"} <= labels
        assert all(r.get("floor") is None for r in payload["results"])
        rounds = next(
            r for r in payload["results"] if r["label"] == "scale_devices_per_round_s"
        )
        assert rounds["stragglers"] > 0
        assert 0.0 < rounds["participation"] <= 1.0
        # The traced rerun prints its tracemalloc peak.
        assert "lazy peak" in result.stdout
