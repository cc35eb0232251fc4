"""The paper's figures run as plain functions under one runner.

``python benchmarks/figures.py`` regenerates all thirteen at full size
(CI runs it); this drives the six that take under a second each, on top
of the shared reference model and backbone, through the runner's own
entry point, so a broken figure, recipe or runner fails tier-1 too.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
FAST = (
    "ablation_distill",
    "ablation_pfg",
    "ablation_similarity",
    "fig10_similarity",
    "fig1_motivation",
    "fig9_matching",
)


@pytest.fixture
def figures(monkeypatch, tmp_path):
    """The runner module, writing its results under ``tmp_path``."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import figures

    monkeypatch.setattr(figures, "RESULTS_DIR", tmp_path)
    return figures


def _assert_same_shape(got, want, where):
    """Same keys and list lengths; integers and strings exactly.

    Floats (accuracies, losses, energies, wall clock) move with the BLAS
    build, so only their type is checked here.
    """
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_same_shape(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_same_shape(g, w, f"{where}[{k}]")
    elif not isinstance(want, float):
        assert got == want, where


def test_fast_figures_run_through_the_runner(figures, tmp_path):
    assert figures.main(list(reversed(FAST))) == 0
    results = json.loads((tmp_path / "figures.json").read_text())
    # Named figures run, and are written, in the runner's own order.
    assert list(results) == [name for name in figures.FIGURES if name in FAST]
    for entry in results.values():
        assert entry["payload"] and entry["seconds"] >= 0
    # The committed results have the shape and the counts these figures
    # print now.
    committed = json.loads((BENCHMARKS.parent / "bench_results" / "figures.json").read_text())
    for name, entry in results.items():
        _assert_same_shape(entry["payload"], committed[name]["payload"], name)


def test_a_later_run_keeps_the_other_figures_entries(figures, tmp_path):
    path = tmp_path / "figures.json"
    path.write_text(json.dumps({"fig12_complexity": {"seconds": 1.0, "payload": {}}}))
    assert figures.main(["ablation_similarity"]) == 0
    assert list(json.loads(path.read_text())) == ["ablation_similarity", "fig12_complexity"]


def test_an_unknown_figure_is_refused_before_anything_runs(figures, tmp_path):
    assert figures.main(["fig1_motivation", "fig99"]) == 2
    assert not (tmp_path / "figures.json").exists()


def test_figures_are_plain_functions(figures):
    """No figure module imports pytest, and none asks for a fixture."""
    for path in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "pytest" not in {alias.name for alias in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "pytest", path.name
    assert not (BENCHMARKS / "conftest.py").exists()
    for name in figures.FIGURES:
        module = importlib.import_module(f"bench_{name}")
        assert not inspect.signature(module.figure).parameters, name
