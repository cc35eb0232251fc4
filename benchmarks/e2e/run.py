"""Driver entry point: ``python3 benchmarks/e2e/run.py --workload NAME ...``.

A script, not a module, so the checkout needs no PYTHONPATH: it puts the
repository root (for ``benchmarks.e2e``) and ``src`` (for ``repro``) on
the path and hands over to :mod:`benchmarks.e2e.cli`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
