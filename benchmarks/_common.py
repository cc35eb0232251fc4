"""The perf/v1 half of the benchmark harness: the ratio benches'
timing, records and trajectory file.

Each ratio bench (``bench_chaos``, ``bench_fleet_train``,
``bench_process_pool``, ``bench_scale``, ``bench_transport``) times a
fast path against a real alternative and reports through
:func:`emit_perf`, which prints a table and writes
``bench_results/<name>.{txt,json}``.  The paper's figures live in
``figures.py``.
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
    record = {
        "label": label,
        "fast": fast,
        "baseline": baseline,
        "speedup": speedup,
        "floor": floor,
        **extra,
    }
    return record


def emit_perf(
    name: str,
    records: Sequence[Dict[str, object]],
    path: Optional[Path] = None,
    extra: Optional[Dict[str, object]] = None,
    merge: bool = True,
) -> Dict[str, object]:
    """Persist perf records under ``bench_results/`` (and ``path`` if given).

    Also prints a human-readable table and **asserts every record's
    ``floor``** so speedup regressions fail loudly in CI-style runs.

    With ``merge`` (the default) the trajectory file at ``path`` is
    updated record-by-record: records whose labels this bench rewrites
    are replaced, records from other benches are preserved — so
    ``BENCH_perf.json`` can accumulate the whole perf trajectory
    (fleet trainer, fault fabric, fleet scale, …) regardless of which
    bench ran last.  Each record carries a ``bench`` provenance field.
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
    if extra:
        payload.update(extra)
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
        combined = list(records)
        if merge and path.exists():
            try:
                existing = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                existing = None
            if isinstance(existing, dict) and isinstance(existing.get("results"), list):
                # Each bench owns its namespace: a run replaces ALL of its
                # own previous records (so renamed/retired labels cannot
                # linger as stale floors) and never touches records owned
                # by other benches.  Legacy records without a provenance
                # field are claimed by label.  Cross-bench label
                # collisions are left in place — the trajectory replay
                # test asserts label uniqueness, so they fail loudly
                # instead of silently deleting another bench's baseline.
                new_labels = {r.get("label") for r in records}
                kept = [
                    r
                    for r in existing["results"]
                    if isinstance(r, dict)
                    and r.get("bench") != name
                    and not ("bench" not in r and r.get("label") in new_labels)
                ]
                combined = kept + combined
        benches = sorted({str(r.get("bench", name)) for r in combined})
        trajectory = {
            "bench": "+".join(benches),
            "schema": PERF_SCHEMA,
            "unix_time": time.time(),
            "results": combined,
        }
        path.write_text(json.dumps(trajectory, indent=2, default=float))
    return payload
