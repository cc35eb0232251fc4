"""Host fingerprint and calibration kernel, stored with every result.

Absolute seconds only compare between runs on the same host; the
fingerprint is what ``compare`` checks before it puts two numbers in one
row, and ``host.calib_ms`` is what ``--normalise`` divides by when the
hosts differ.  The harness sets no BLAS/OpenMP/thread-count variable —
the effective values are read and recorded, never written.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, List

import numpy as np

#: Thread-count variables a BLAS/OpenMP runtime reads; recorded as found.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_build() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def _blas_threads() -> int:
    """Threads the BLAS pool will use: the env override, else the cores."""
    for name in THREAD_ENV[:3]:
        value = os.environ.get(name, "")
        if value.isdigit():
            return int(value)
    return os.cpu_count() or 1


def fingerprint() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_threads": _blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def calib_samples(repeats: int = 40) -> List[float]:
    """Milliseconds per pass of a fixed matmul + sort + small-alloc kernel.

    The three legs mirror what the workloads spend their time on: BLAS
    on small matrices, numpy sorting (sliced Wasserstein), and a burst
    of small array allocations (the autograd tape).  Sized for ~15 ms a
    pass so one pass fits between two bursts of host interference.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((96, 96))
    v = rng.standard_normal(20_000)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(120):
            a @ a
        for _ in range(8):
            np.sort(v)
        for _ in range(1500):
            np.empty(64)
        samples.append((time.perf_counter() - start) * 1e3)
    return samples
