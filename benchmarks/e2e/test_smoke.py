"""Tier-1 smoke run of the benchmark at ``--smoke`` sizes, every gate on.

Three invocations of the form ``BENCHMARK.json`` declares keep the whole
harness from rotting between performance changes at ~10 s of test time:
one ``--trace 1`` (which drives the traced pass of all six workloads —
the four declared and the two layer-only ones — the probes, and, for
the named workload, the untraced repetitions beside them) and two
``--trace 0`` on the workloads with the most machinery of their own (OS
processes: the layer-only ``campaign_tcp`` run by hand; sockets).  The
emitted metric names are held to ``BENCHMARK.json``; everything written
goes under ``tmp_path``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _files(directory: Path) -> set:
    return {
        p for p in directory.rglob("*") if p.is_file() and "__pycache__" not in p.parts
    }


def _run(tmp_path, *args):
    default_out = ROOT / ".bench_e2e"
    before = (_files(HERE), _files(default_out))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (_files(HERE), _files(default_out)) == before
    return done


@pytest.mark.parametrize(
    "workload, trace",
    [("scale_rounds", 1), ("campaign_tcp", 0), ("wire_exchange", 0)],
)
def test_smoke_run_emits_exactly_the_declared_names(tmp_path, workload, trace):
    done = _run(
        tmp_path, "--workload", workload, "--smoke", "--seconds", "0.5", "--trace", str(trace)
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        # Every workload's traced pass left a loadable Chrome trace and
        # a self-time table.
        for name in (w["name"] for w in SPEC["workloads"]):
            assert NAME.fullmatch(name), name
            events = json.loads((tmp_path / "traces" / f"{name}.run0.trace.json").read_text())
            assert events["traceEvents"]
            assert "self_s" in (tmp_path / "traces" / f"{name}.run0.selftime.txt").read_text()
    else:
        assert all(reading["value"] > 0 for reading in line["metrics"].values())


def test_unknown_workload_exits_nonzero_without_metrics(tmp_path):
    done = _run(tmp_path, "--workload", "no_such_workload")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
