"""Ablation — the Pareto Front Grid's performance window γ_p.

The grid method (vs. exact Pareto enumeration) is the device-matching
mechanism (``repro/core/pareto.py``).  This ablation sweeps γ_p and reports:

* PFG size (how many candidates survive — the per-query work);
* selection quality: the grid-selected candidate's weighted trade-off
  versus the exact-Pareto-front best (oracle under the same score).

Expected: coarser windows shrink the PFG (cheaper queries) while the
selected candidate's trade-off stays close to the oracle until the window
becomes very coarse.
"""

from __future__ import annotations

import numpy as np

from figures import (
    candidates,
    dynamic_backbone,
    emit,
    evaluate_grid,
    table,
    test_data,
    weighted_tradeoff,
)
from repro.core.pareto import build_pfg, pareto_front, select_model
from repro.hw.profiles import DeviceProfile

WINDOWS = (0.05, 0.1, 0.2, 0.4, 0.8)
STORAGE = 40_000


def run_ablation(backbone_result, test_data):
    backbone = backbone_result.backbone
    config = backbone.config
    profile = DeviceProfile.synthesize(0, 5, STORAGE, np.random.default_rng(0))

    pool = candidates(evaluate_grid(backbone, test_data, max_batches=3), profile, config)
    tradeoff = weighted_tradeoff(c.objectives for c in pool)
    feasible_front = [pool[i] for i in pareto_front(pool) if pool[i].size < STORAGE]
    oracle = min(feasible_front, key=lambda c: tradeoff.score(*c.objectives))
    oracle_score = tradeoff.score(*oracle.objectives)

    rows = []
    for window in WINDOWS:
        pfg = build_pfg(pool, window)
        chosen = select_model(pfg, STORAGE)
        rows.append(
            {
                "window": window,
                "pfg_size": len(pfg.members),
                "intervals": pfg.num_intervals,
                "selected": f"(w={chosen.width}, d={chosen.depth})",
                "score": tradeoff.score(*chosen.objectives),
                "oracle_gap": tradeoff.score(*chosen.objectives) - oracle_score,
            }
        )
    return rows, oracle_score


def figure():
    rows, oracle_score = run_ablation(dynamic_backbone(), test_data())
    lines = table(
        ["γ_p", "PFG size", "K", "selected", "score↓", "gap to oracle"],
        [[r["window"], r["pfg_size"], r["intervals"], r["selected"],
          r["score"], r["oracle_gap"]] for r in rows],
    )
    lines.append(f"oracle (exact front, weighted score): {oracle_score:.4f}")
    emit("ablation_pfg", lines)

    # Moderate windows shrink the PFG below the fine-window size.  (At
    # very coarse windows cell-ties can re-inflate membership, so strict
    # monotonicity is not asserted.)
    sizes = [r["pfg_size"] for r in rows]
    assert min(sizes[1:4]) < sizes[0]
    # Fine windows track the oracle closely.
    assert rows[0]["oracle_gap"] <= 0.2
    # Every selection is feasible and within a bounded factor of oracle.
    for r in rows:
        assert r["oracle_gap"] <= 0.8
    return {"rows": rows, "oracle": oracle_score}
