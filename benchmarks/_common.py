"""The perf/v1 half of the benchmark harness: the ratio benches'
timing, records and trajectory file.

Each ratio bench (today only ``bench_fleet_train``) times a fast
path against a real alternative and reports through
:func:`emit_perf`, which prints a table, writes
``bench_results/<name>.{txt,json}`` and merges its records into
``BENCH_perf.json``.  Absolute end-to-end numbers are
``benchmarks/e2e``'s; the paper's figures live in ``figures.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from figures import RESULTS_DIR, table

#: Version tag of the machine-readable perf payload written by
#: :func:`emit_perf`; bump when the schema changes shape.
PERF_SCHEMA = "perf/v1"
#: Where each record's ``bench`` must live as ``<bench>.py``.
BENCH_DIR = Path(__file__).resolve().parent


def timed(
    fn: Callable[[], object],
    repeats: int = 5,
    warmup: int = 1,
) -> Dict[str, object]:
    """``timeit``-style wall-clock measurement of a zero-argument callable.

    Runs ``warmup`` untimed calls, then ``repeats`` timed ones, and
    reports the **best** time (the standard low-noise estimator) plus the
    mean and raw samples.  All perf benches report through this helper so
    numbers stay comparable across PRs.
    """
    for _ in range(warmup):
        fn()
    times: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {
        "best_s": min(times),
        "mean_s": sum(times) / len(times),
        "repeats": repeats,
        "warmup": warmup,
        "times_s": times,
    }


def perf_record(
    label: str,
    fast: Dict[str, object],
    baseline: Dict[str, object],
    floor: Optional[float] = None,
    **extra,
) -> Dict[str, object]:
    """One fast-vs-baseline comparison in the :data:`PERF_SCHEMA` layout."""
    speedup = float(baseline["best_s"]) / max(float(fast["best_s"]), 1e-12)
    return {
        "label": label,
        "fast": fast,
        "baseline": baseline,
        "speedup": speedup,
        "floor": floor,
        **extra,
    }


def emit_perf(
    name: str,
    records: Sequence[Dict[str, object]],
    path: Optional[Path] = None,
) -> Dict[str, object]:
    """Persist perf records under ``bench_results/`` (and ``path`` if given).

    Also prints a human-readable table and **asserts every record's
    ``floor``** so speedup regressions fail loudly in CI-style runs.

    The trajectory file at ``path`` is updated bench by bench: this
    bench's previous records are replaced, other benches' records are
    kept — so ``BENCH_perf.json`` holds the whole perf trajectory
    regardless of which bench ran last.  Each record carries a ``bench``
    provenance field.  Before the file is written, a kept record whose
    label this run also writes, or whose ``benchmarks/<bench>.py`` no
    longer exists (it could only be replayed, never re-measured), raises
    ``ValueError``.
    """
    records = [dict(r) for r in records]
    for record in records:
        record.setdefault("bench", name)
    payload = {
        "bench": name,
        "schema": PERF_SCHEMA,
        "unix_time": time.time(),
        "results": list(records),
    }
    # The bench_results/ copy is a diagnostic record and is written even
    # for a failing run.
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(payload, indent=2, default=float))
    rows = [
        (
            r["label"],
            float(r["fast"]["best_s"]),
            float(r["baseline"]["best_s"]),
            f"{r['speedup']:.2f}x",
            "-" if r.get("floor") is None else f"{r['floor']:.1f}x",
        )
        for r in records
    ]
    text = "\n".join(
        table(["bench", "fast best (s)", "baseline best (s)", "speedup", "floor"], rows)
    )
    print(f"\n=== {name} ===\n{text}")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    for r in records:
        floor = r.get("floor")
        if floor is not None and r["speedup"] < floor:
            raise AssertionError(
                f"{name}:{r['label']} speedup {r['speedup']:.2f}x fell below "
                f"the {floor:.1f}x floor — a perf regression slipped in"
            )
    # The canonical trajectory file (e.g. BENCH_perf.json) is only
    # updated once every floor holds, so a regressed run cannot
    # overwrite the baseline it is measured against.
    if path is not None:
        path = Path(path)
        kept = []
        if path.exists():
            # Each bench owns its namespace: a run replaces ALL of its
            # own previous records (so renamed/retired labels cannot
            # linger as stale floors) and never touches records owned
            # by other benches.
            kept = [
                r for r in json.loads(path.read_text())["results"] if r.get("bench") != name
            ]
            new_labels = {r["label"] for r in records}
            collisions = [
                (r.get("label"), r.get("bench")) for r in kept if r.get("label") in new_labels
            ]
            if collisions:
                raise ValueError(
                    f"{name}: labels already owned by other benches in {path}: {collisions}"
                )
            orphans = [
                (r.get("label"), r.get("bench"))
                for r in kept
                if not (BENCH_DIR / f"{r.get('bench')}.py").is_file()
            ]
            if orphans:
                raise ValueError(f"{name}: records in {path} whose bench is gone: {orphans}")
        combined = kept + records
        benches = sorted({str(r.get("bench")) for r in combined})
        trajectory = {
            "bench": "+".join(benches),
            "schema": PERF_SCHEMA,
            "unix_time": time.time(),
            "results": combined,
        }
        path.write_text(json.dumps(trajectory, indent=2, default=float))
    return payload
