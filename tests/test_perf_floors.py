"""Tier-1 replay of the BENCH_perf.json speedup floors.

The perf benches assert their floors at measurement time; this test
replays them from the committed trajectory file on every test run so a
perf regression (or a hand-edited / truncated trajectory) fails tier-1,
not just the occasional bench invocation.  See scripts/check_floors.py.
"""

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_check_floors():
    spec = importlib.util.spec_from_file_location(
        "check_floors", REPO_ROOT / "scripts" / "check_floors.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPerfFloors:
    def test_trajectory_file_is_valid(self):
        module = _load_check_floors()
        data = module.load_trajectory()
        labels = [r.get("label") for r in data["results"]]
        assert len(labels) == len(set(labels)), f"duplicate perf labels: {labels}"
        # Every record names the bench that regenerates it: a record whose
        # producer is gone cannot be re-measured, only replayed.
        orphans = [
            (r.get("label"), r.get("bench"))
            for r in data["results"]
            if not (REPO_ROOT / "benchmarks" / f"{r.get('bench')}.py").is_file()
        ]
        assert not orphans, f"records without a producing bench: {orphans}"
        assert "fleet_train_headers" in labels

    def test_recorded_floors_hold(self):
        module = _load_check_floors()
        failures = module.check_floors()
        assert not failures, "\n".join(failures)

    def test_checker_cli_passes_on_committed_file(self, capsys):
        module = _load_check_floors()
        assert module.main(["check_floors.py"]) == 0
        out = capsys.readouterr().out
        assert "ok:" in out
        # The status table prints one row per record before the verdict.
        assert "record" in out and "speedup" in out and "floor" in out

    def test_checker_cli_fails_readably_on_regressed_file(self, tmp_path, capsys):
        """A regressed trajectory exits nonzero and the FAIL line carries
        the measured values, not just a boolean verdict."""
        module = _load_check_floors()
        bad = {
            "bench": "bench_example",
            "schema": "perf/v1",
            "unix_time": 0.0,
            "results": [
                {
                    "label": "regressed_kernel",
                    "bench": "bench_example",
                    "fast": {"best_s": 2.0, "mean_s": 2.0},
                    "baseline": {"best_s": 1.0, "mean_s": 1.0},
                    "speedup": 0.5,
                    "floor": 1.5,
                },
                {
                    "label": "healthy_kernel",
                    "bench": "bench_example",
                    "fast": {"best_s": 0.5, "mean_s": 0.5},
                    "baseline": {"best_s": 1.0, "mean_s": 1.0},
                    "speedup": 2.0,
                    "floor": 1.5,
                },
            ],
        }
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps(bad))
        assert module.main(["check_floors.py", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL regressed_kernel" in out
        assert "0.50x" in out and "1.50x" in out  # measured value + floor
        assert "fast best 2s vs baseline best 1s" in out
        assert "1 of 2 floored record(s) FAILED" in out
        # The healthy record still shows as ok in the table.
        assert "healthy_kernel" in out
