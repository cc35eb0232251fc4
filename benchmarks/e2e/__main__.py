"""``python -m benchmarks.e2e`` — same program as ``run.py``."""

import sys

from .cli import main

sys.exit(main())
