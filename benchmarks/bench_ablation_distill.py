"""Ablation — the Eq. (9) distillation objective.

Distillation is the mechanism that makes every ``δ(θ0, w, d)``
sub-network usable without per-configuration retraining
(``repro/core/distill.py``).  This ablation compares the sub-network
loss across the (w, d) grid for:

* **raw** — the pretrained reference permuted by importance, each
  sub-network its prefix (``´θB`` without distillation);
* **distilled** — the same after Eq. (9) training.

Expected: distillation lowers loss across the grid, with the largest gains
on the narrowest/shallowest configurations (they deviate most from the
full model the reference was trained as).
"""

from __future__ import annotations

import numpy as np

from figures import dynamic_backbone, emit, reference_model, table, test_data
from repro.core.segmentation import clone_model
from repro.train import evaluate_model

GRID = [(0.25, 2), (0.5, 2), (0.5, 4), (0.75, 4), (1.0, 6)]


def run_ablation(reference_model, backbone_result, test_data):
    raw = clone_model(reference_model)
    raw.reorder(
        backbone_result.importance.head_orders(),
        backbone_result.importance.neuron_orders(),
    )
    distilled = backbone_result.backbone

    rows = []
    for width, depth in GRID:
        raw_probe = clone_model(raw)
        raw_probe.scale(width, depth)
        dis_probe = clone_model(distilled)
        dis_probe.scale(width, depth)
        raw_loss = evaluate_model(raw_probe, test_data)["loss"]
        dis_loss = evaluate_model(dis_probe, test_data)["loss"]
        rows.append(
            {"width": width, "depth": depth, "raw_loss": raw_loss,
             "distilled_loss": dis_loss, "gain": raw_loss - dis_loss}
        )
    return rows


def figure():
    rows = run_ablation(reference_model(), dynamic_backbone(), test_data())
    lines = table(
        ["w", "d", "raw loss", "distilled loss", "gain"],
        [[r["width"], r["depth"], r["raw_loss"], r["distilled_loss"], r["gain"]]
         for r in rows],
    )
    emit("ablation_distill", lines)

    # Distillation must help on the majority of sub-configurations and on
    # average; it may cost a little at full configuration (the student
    # shares capacity across all configurations).
    gains = [r["gain"] for r in rows]
    assert np.mean(gains) > 0
    assert sum(g > 0 for g in gains) >= len(gains) - 1
    # The smallest configurations gain the most.
    assert rows[0]["gain"] >= rows[-1]["gain"]
    return rows
