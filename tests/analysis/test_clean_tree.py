"""The tree's own lint contract: src is clean, and stays clean honestly.

``python -m repro.analysis.lint src`` exiting zero is only meaningful if
the pass cannot be faked: these tests re-lint real engine sources with
one suppression stripped or one registration bypassed and assert the
exit flips — every suppression and every registry entry in the tree is
load-bearing.  The same goes for reachability: on a copy of the tree, one
unreferenced ``def`` is a DEAD001 exit and one consumer reference undoes
it.
"""

import pathlib
import re
import shutil
import subprocess
import sys

from repro.analysis.lint import lint_paths, lint_source

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def _read(rel):
    return (SRC / rel).read_text(encoding="utf-8")


def test_src_lints_clean_via_api():
    findings = lint_paths([str(SRC)])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_src_lints_clean_via_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", str(SRC)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_stripping_a_fixed_rng_suppression_flips_the_exit():
    source = _read("repro/train/evaluate.py")
    stripped, n = re.subn(r"[ \t]*# reprolint: fixed-rng[^\n]*\n", "", source)
    assert n >= 2, "expected fixed-rng suppressions in evaluate.py"
    findings = lint_source(stripped, rel="repro/train/evaluate.py")
    assert any(f.rule == "DET002" for f in findings)


def test_stripping_a_broad_except_suppression_flips_the_exit():
    source = _read("repro/distributed/wire.py")
    stripped, n = re.subn(r"[ \t]*# reprolint: broad-except[^\n]*\n", "", source)
    assert n >= 1, "expected a broad-except suppression in wire.py"
    findings = lint_source(stripped, rel="repro/distributed/wire.py")
    assert any(f.rule == "EXC001" for f in findings)


def test_bypassing_register_lock_flips_the_exit():
    """Recreating the pre-registry hand-rolled lock is a CONC002 finding."""
    source = _read("repro/nn/optim.py")
    patched = source.replace(
        '_REGISTRY_LOCK = register_lock(\n    "optim.live-registry", module=__name__, attr="_REGISTRY_LOCK"\n)',
        "_REGISTRY_LOCK = threading.Lock()",
    )
    if patched == source:  # formatting drift guard: try the one-line form
        patched = re.sub(
            r"_REGISTRY_LOCK = register_lock\([^)]*\)",
            "_REGISTRY_LOCK = threading.Lock()",
            source,
        )
    assert patched != source
    patched = "import threading\n" + patched
    findings = lint_source(patched, rel="repro/nn/optim.py")
    assert any(f.rule == "CONC002" for f in findings)


def test_reverting_the_float32_gelu_constant_flips_the_exit():
    """GELU's ``√(2/π)`` as a bare ``np.float64`` promoted every float32
    gradient below it; putting it back is a DTYPE001 finding."""
    source = _read("repro/nn/functional.py")
    reverted, n = re.subn(
        r"c = x\.dtype\.type\((np\.sqrt\(2\.0 / np\.pi\))\)", r"c = \1", source
    )
    assert n == 2, "expected the dtype-cast constant in both GELU bodies"
    assert lint_source(source, rel="repro/nn/functional.py") == []
    findings = lint_source(reverted, rel="repro/nn/functional.py")
    assert [f.rule for f in findings] == ["DTYPE001", "DTYPE001"]


def test_deleting_a_suppression_target_is_sup003():
    """A suppression whose finding was fixed (line gone) is itself flagged."""
    source = _read("repro/distributed/messages.py")
    patched = source.replace("_SEQUENCE = itertools.count()", "_SEQUENCE = None")
    assert patched != source
    findings = lint_source(patched, rel="repro/distributed/messages.py")
    assert any(f.rule == "SUP003" for f in findings)


def test_registry_cross_check_runs_on_src():
    """CONC003 verifies live registrations by importing; a fake one fails."""
    fake = (
        "from repro.analysis.registry import register_lock\n"
        "if False:\n"
        "    _L = register_lock('x.y', module=__name__, attr='_L')\n"
    )
    target = SRC / "repro" / "analysis" / "_conc003_fixture.py"
    target.write_text(fake, encoding="utf-8")
    try:
        findings = lint_paths([str(SRC)])
        assert any(f.rule == "CONC003" for f in findings), (
            "an import-guarded register_lock call must fail the cross-check"
        )
    finally:
        target.unlink()


def _python_only(directory, names):
    return [
        n for n in names
        if n == "__pycache__"
        or not (n.endswith(".py") or (pathlib.Path(directory) / n).is_dir())
    ]


def _copy_tree_with_consumers(dest):
    """``src/`` plus every DEAD001 consumer root, ``.py`` files only."""
    for name in ("src", "benchmarks", "examples", "scripts", "tests/reference"):
        shutil.copytree(REPO_ROOT / name, dest / name, ignore=_python_only)
    for name in ("tests/helpers.py", "tests/conftest.py"):
        shutil.copy(REPO_ROOT / name, dest / name)


def test_an_unreached_def_flips_the_exit_and_a_consumer_flips_it_back(tmp_path):
    _copy_tree_with_consumers(tmp_path)
    src = str(tmp_path / "src")
    assert lint_paths([src], registry_check=False) == []

    energy = tmp_path / "src" / "repro" / "hw" / "energy.py"
    energy.write_text(
        energy.read_text(encoding="utf-8")
        + "\n\ndef joules_to_kwh(joules):\n    return joules / 3.6e6\n",
        encoding="utf-8",
    )
    # Neither a package re-export nor the symbol's own test reaches it.
    package = tmp_path / "src" / "repro" / "hw" / "__init__.py"
    package.write_text(
        package.read_text(encoding="utf-8")
        + "\nfrom repro.hw.energy import joules_to_kwh\n",
        encoding="utf-8",
    )
    own_test = tmp_path / "tests" / "hw" / "test_kwh.py"
    own_test.parent.mkdir()
    own_test.write_text(
        "from repro.hw import joules_to_kwh\n\n\n"
        "def test_kwh():\n    assert joules_to_kwh(3.6e6) == 1.0\n",
        encoding="utf-8",
    )
    findings = lint_paths([src], registry_check=False)
    assert [f.rule for f in findings] == ["DEAD001"], [f.render() for f in findings]
    assert "`joules_to_kwh`" in findings[0].message

    example = tmp_path / "examples" / "quickstart.py"
    example.write_text(
        example.read_text(encoding="utf-8")
        + "\nfrom repro.hw.energy import joules_to_kwh\n",
        encoding="utf-8",
    )
    assert lint_paths([src], registry_check=False) == []


def test_an_unset_field_flips_the_exit_and_only_a_consumer_flips_it_back(tmp_path):
    """A field nothing outside ``tests/`` sets is a KNOB001 exit; a test
    setting it is no setting, one example line is."""
    _copy_tree_with_consumers(tmp_path)
    src = str(tmp_path / "src")
    synthetic = tmp_path / "src" / "repro" / "data" / "synthetic.py"
    synthetic.write_text(
        synthetic.read_text(encoding="utf-8").replace(
            "    noise_scale: float = 0.7\n",
            "    noise_scale: float = 0.7\n    contrast_gain: float = 1.0\n",
        ),
        encoding="utf-8",
    )
    own_test = tmp_path / "tests" / "data" / "test_gain.py"
    own_test.parent.mkdir()
    own_test.write_text(
        "from repro.data.synthetic import SyntheticSpec\n\n\n"
        "def test_gain():\n"
        "    assert SyntheticSpec(4, contrast_gain=2.0).contrast_gain == 2.0\n",
        encoding="utf-8",
    )
    findings = lint_paths([src], registry_check=False)
    assert [f.rule for f in findings] == ["KNOB001"], [f.render() for f in findings]
    assert "`SyntheticSpec.contrast_gain`" in findings[0].message

    example = tmp_path / "examples" / "quickstart.py"
    example.write_text(
        example.read_text(encoding="utf-8")
        + "\nGAIN = {'contrast_gain': 1.5}\n",
        encoding="utf-8",
    )
    assert lint_paths([src], registry_check=False) == []


def test_stripping_a_knob_anchor_flips_the_exit(tmp_path):
    """λ1 / λ2 of Eq. 9 stay settable only through their anchors."""
    _copy_tree_with_consumers(tmp_path)
    distill = tmp_path / "src" / "repro" / "core" / "distill.py"
    source = distill.read_text(encoding="utf-8")
    stripped, n = re.subn(r"  # reprolint: knob[^\n]*", "", source)
    assert n == 2, "expected the two anchored λ weights in distill.py"
    distill.write_text(stripped, encoding="utf-8")
    findings = lint_paths([str(tmp_path / "src")], registry_check=False)
    assert sorted(f.message.split("`")[1] for f in findings) == [
        "DistillConfig.lambda_embed",
        "DistillConfig.lambda_logits",
    ]
