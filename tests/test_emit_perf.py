"""``emit_perf`` refuses to merge a trajectory it could not re-measure.

``benchmarks/_common.py`` merges each ratio bench's records into
``BENCH_perf.json``.  Before it writes, a kept record whose label the
new run also writes, or whose ``benchmarks/<bench>.py`` is gone, raises
and leaves the file as it was; so do a record below its floor and a
trajectory that does not parse.
"""

import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def common(monkeypatch, tmp_path):
    """``_common`` loaded from its file, writing diagnostics under ``tmp_path``."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # for its ``figures`` import
    spec = importlib.util.spec_from_file_location("_common", BENCHMARKS / "_common.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path / "results")
    return module


def _record(common, label, bench=None):
    timing = {"best_s": 1.0}
    record = common.perf_record(label, fast=timing, baseline=timing, floor=1.0)
    if bench is not None:
        record["bench"] = bench
    return record


def _trajectory(tmp_path, *records):
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps({"schema": "perf/v1", "results": list(records)}))
    return path


def test_merge_keeps_other_benches_and_replaces_its_own(common, tmp_path):
    path = _trajectory(
        tmp_path,
        _record(common, "kept", bench="bench_fleet_train"),
        _record(common, "stale", bench="bench_sweep"),
    )
    common.emit_perf("bench_sweep", [_record(common, "fresh")], path=path)
    labels = [r["label"] for r in json.loads(path.read_text())["results"]]
    assert labels == ["kept", "fresh"]


@pytest.mark.parametrize(
    "kept_bench, kept_label, match",
    [
        ("bench_fleet_train", "fresh", "labels already owned"),
        ("bench_retired", "orphan", "whose bench is gone"),
    ],
    ids=["label-collision", "deleted-bench"],
)
def test_refuses_before_writing(common, tmp_path, kept_bench, kept_label, match):
    path = _trajectory(tmp_path, _record(common, kept_label, bench=kept_bench))
    before = path.read_bytes()
    with pytest.raises(ValueError, match=match):
        common.emit_perf("bench_sweep", [_record(common, "fresh")], path=path)
    assert path.read_bytes() == before


def test_first_write_creates_the_trajectory(common, tmp_path):
    path = tmp_path / "BENCH_perf.json"
    common.emit_perf("bench_sweep", [_record(common, "fresh")], path=path)
    data = json.loads(path.read_text())
    assert data["schema"] == common.PERF_SCHEMA
    assert data["bench"] == "bench_sweep"
    assert [(r["label"], r["bench"]) for r in data["results"]] == [
        ("fresh", "bench_sweep")
    ]


def test_floor_regression_raises_before_the_trajectory(common, tmp_path):
    path = _trajectory(tmp_path, _record(common, "kept", bench="bench_fleet_train"))
    before = path.read_bytes()
    slow = common.perf_record(
        "regressed", fast={"best_s": 2.0}, baseline={"best_s": 1.0}, floor=1.5
    )
    with pytest.raises(AssertionError, match="regressed speedup 0.50x fell below"):
        common.emit_perf("bench_sweep", [slow], path=path)
    assert path.read_bytes() == before
    # The diagnostic copy is still written, so the failing numbers are kept.
    diagnostic = json.loads((tmp_path / "results" / "bench_sweep.json").read_text())
    assert [r["label"] for r in diagnostic["results"]] == ["regressed"]


def test_malformed_trajectory_raises_instead_of_being_overwritten(common, tmp_path):
    path = tmp_path / "BENCH_perf.json"
    path.write_text('{"schema": "perf/v1", "results": [')
    before = path.read_bytes()
    with pytest.raises(json.JSONDecodeError):
        common.emit_perf("bench_sweep", [_record(common, "fresh")], path=path)
    assert path.read_bytes() == before
