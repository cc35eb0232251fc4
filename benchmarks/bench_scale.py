"""Fleet-scale benchmark: 10⁴–10⁵ devices through the real protocol.

Drives :func:`repro.distributed.scale.run_scale_campaign` — lazy LRU
device state, streaming aggregation, deadline stragglers, seeded churn
and drops, micro-batched serving — and records two floored throughput
figures into ``BENCH_perf.json``:

* ``scale_devices_per_round_s`` — device contributions folded per
  second across the 10k-device aggregation rounds (speedup field holds
  devices/s against a 1 s/device strawman, so the floor is an absolute
  throughput floor);
* ``scale_eval_requests_s`` — serving requests completed per second
  through the micro-batched :class:`~repro.train.serving.ServingFront`.

A traced rerun of the same campaign prints its tracemalloc peak; the
full run asserts it under an absolute 512 MiB budget.

A 100k-device single-round leg runs unfloored as a diagnostic record.

``--smoke``: 400 devices, no floors, ``BENCH_perf.json`` untouched —
wired into tier-1 via ``tests/test_bench_scale_smoke.py``.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit_perf, perf_record  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.distributed.scale import ScaleConfig, run_scale_campaign  # noqa: E402

#: The lazy 10k campaign must fit under this tracemalloc peak.
MEMORY_BUDGET_MB = 512.0

ONE_RUN = {"repeats": 1, "warmup": 0}


def campaign_config(num_devices: int, rounds: int = 3, **overrides) -> ScaleConfig:
    base = dict(
        num_devices=num_devices,
        num_clusters=8,
        rounds=rounds,
        lru_capacity=64,
        eval_requests=16,
        deadline_quantile=0.9,
        churn=0.02,
        drop=0.01,
        ledger="summary",
        seed=0,
    )
    base.update(overrides)
    return ScaleConfig(**base)


def run(smoke: bool) -> None:
    records = []
    num_devices = 400 if smoke else 10_000
    rounds = 2 if smoke else 3
    clusters = 4 if smoke else 8

    # -- throughput leg (untraced) ------------------------------------
    cfg = campaign_config(num_devices, rounds=rounds, num_clusters=clusters)
    start = time.perf_counter()
    report = run_scale_campaign(cfg)
    elapsed = time.perf_counter() - start
    assert report.contributions > 0, "campaign aggregated nothing"
    assert len(report.cluster_sizes) == clusters
    assert report.stragglers > 0, "deadline_quantile<1 must exclude someone"
    assert 0.0 < report.participation <= 1.0

    records.append(
        perf_record(
            "scale_devices_per_round_s",
            fast={
                "best_s": report.round_seconds / report.contributions,
                **ONE_RUN,
            },
            baseline={"best_s": 1.0, **ONE_RUN},
            floor=None if smoke else 300.0,
            num_devices=num_devices,
            rounds=rounds,
            contributions=report.contributions,
            participation=round(report.participation, 4),
            stragglers=report.stragglers,
            carried=report.carried,
            hydrations=report.hydrations,
            evictions=report.evictions,
            campaign_seconds=round(elapsed, 3),
            fault_counts=report.fault_counts,
        )
    )
    assert report.eval_requests_served > 0
    records.append(
        perf_record(
            "scale_eval_requests_s",
            fast={
                "best_s": report.serving_seconds / report.eval_requests_served,
                **ONE_RUN,
            },
            baseline={"best_s": 1.0, **ONE_RUN},
            floor=None if smoke else 100.0,
            requests=report.eval_requests_served,
            micro_batch=cfg.micro_batch,
        )
    )

    # -- memory leg (traced rerun under an absolute budget) -------------
    lazy = run_scale_campaign(cfg, measure_memory=True)
    print(
        f"lazy peak {lazy.peak_memory_mb:.1f} MiB, {lazy.live_headers} live "
        f"headers (budget {MEMORY_BUDGET_MB:.0f} MiB)"
    )
    if not smoke:
        assert lazy.peak_memory_mb < MEMORY_BUDGET_MB, (
            f"lazy 10k campaign peaked at {lazy.peak_memory_mb:.1f} MiB, "
            f"budget {MEMORY_BUDGET_MB} MiB"
        )

    # -- 100k protocol leg (full mode only; unfloored diagnostic) -----
    if not smoke:
        big_cfg = campaign_config(
            100_000, rounds=1, eval_requests=2, churn=0.01, drop=0.0
        )
        start = time.perf_counter()
        big = run_scale_campaign(big_cfg)
        records.append(
            perf_record(
                "scale_100k_round",
                fast={
                    "best_s": big.round_seconds / big.contributions,
                    **ONE_RUN,
                },
                baseline={"best_s": 1.0, **ONE_RUN},
                floor=None,
                num_devices=100_000,
                contributions=big.contributions,
                participation=round(big.participation, 4),
                campaign_seconds=round(time.perf_counter() - start, 3),
            )
        )

    if smoke:
        emit_perf("bench_scale_smoke", records)
    else:
        emit_perf("bench_scale", records, path=REPO_ROOT / "BENCH_perf.json")


def test_scale_bench() -> None:
    run(smoke=True)


if __name__ == "__main__":
    run(smoke="--smoke" in sys.argv)
