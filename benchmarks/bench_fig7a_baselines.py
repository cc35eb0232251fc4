"""Fig. 7(a) — ACME vs lightweight ViT baselines on CIFAR-100 (stand-in).

The paper deploys ACME's best model under a 25M-parameter storage
constraint and compares accuracy/size against Efficient-ViT, MobileViT,
Twins-SVT and the DeViT family.  Here the constraint is the equivalent slot
in our scaled-down geometry.  Shape target: ACME's Pareto-selected model
reaches the best accuracy at a comparable (or smaller) parameter count.
"""

from __future__ import annotations

import numpy as np

from figures import (
    candidates,
    dynamic_backbone,
    emit,
    evaluate_grid,
    nas_header,
    prune_into_slot,
    table,
    test_data,
    train_data,
)
from repro.core.pareto import build_pfg, select_model
from repro.core.segmentation import clone_model
from repro.hw.profiles import DeviceProfile
from repro.models import BASELINE_BUILDERS, build_baseline
from repro.train import TrainConfig, evaluate_header, evaluate_model, train_model

STORAGE_LIMIT = 30_000  # the scaled "25M" deployment slot


def build_acme_model(backbone_result, train_data, test_data):
    """Run ACME's per-cluster pipeline: PFG selection + NAS header."""
    backbone = backbone_result.backbone
    profile = DeviceProfile.synthesize(0, 5, STORAGE_LIMIT, np.random.default_rng(0))

    # Cloud-side candidate evaluation (loss on public data, Eq. 10).
    pool = candidates(evaluate_grid(backbone, train_data, max_batches=2), profile, backbone.config)
    # The deployment slot holds backbone + header; ACME sizes the backbone
    # against ~2/3 of it and prunes the header into the remainder
    # (Phase 2-2's importance pruning).
    backbone_budget = STORAGE_LIMIT * 0.65
    chosen = select_model(build_pfg(pool, 0.05), backbone_budget)

    deployed = clone_model(backbone)
    deployed.scale(chosen.width, chosen.depth)
    header = nas_header(deployed, train_data, unfrozen_epochs=2)
    prune_into_slot(deployed, header, train_data, STORAGE_LIMIT - chosen.size)

    metrics = evaluate_header(deployed, header, test_data)
    size = chosen.size + header.active_parameter_count()
    return {"name": "ACME (ours)", "accuracy": metrics["accuracy"], "params": size,
            "width": chosen.width, "depth": chosen.depth}


def run_fig7a(backbone_result, train_data, test_data):
    rows = [build_acme_model(backbone_result, train_data, test_data)]
    for key in sorted(BASELINE_BUILDERS):
        model = build_baseline(key, num_classes=train_data.num_classes)
        train_model(model, train_data, TrainConfig(epochs=5, seed=0))
        metrics = evaluate_model(model, test_data)
        rows.append(
            {"name": model.name, "accuracy": metrics["accuracy"],
             "params": model.num_parameters()}
        )
    return rows


def figure():
    rows = run_fig7a(dynamic_backbone(), train_data(), test_data())
    lines = table(
        ["model", "accuracy", "params"],
        [[r["name"], r["accuracy"], r["params"]] for r in rows],
    )
    acme = rows[0]
    best_baseline = max(rows[1:], key=lambda r: r["accuracy"])
    gain = acme["accuracy"] - best_baseline["accuracy"]
    lines.append(
        f"ACME vs best baseline ({best_baseline['name']}): "
        f"{gain * 100:+.2f}% accuracy (paper: ≈ +10% over baselines)"
    )
    emit("fig7a_baselines", lines)

    # Shape: ACME is at least competitive with every baseline while staying
    # inside the storage slot.
    assert acme["params"] <= STORAGE_LIMIT
    assert acme["accuracy"] >= best_baseline["accuracy"] - 0.02
    return rows
