"""Fig. 13 — auxiliary validation on the Stanford Cars stand-in.

Repeats the Fig. 7 comparisons on the fine-grained dataset:
(a) ACME under the storage constraint vs lightweight baselines;
(b) NAS headers vs fixed headers across backbone sizes — the paper reports
    the header effect is *larger* on this harder dataset (+14.43% average).
"""

from __future__ import annotations

from figures import (
    dynamic_backbone,
    emit,
    fixed_header_accuracy,
    nas_header,
    prune_into_slot,
    table,
    test_data,
    train_data,
)
from repro.core.segmentation import clone_model
from repro.models import build_baseline
from repro.train import TrainConfig, evaluate_header, evaluate_model, train_model

CLASSES = 16
BASELINES = ("efficient_vit", "mobile_vit", "decct")
STORAGE_LIMIT = 30_000


def run_fig13(result, train_data, test_data):
    # (a) ACME model under the storage slot vs baselines.
    deployed = clone_model(result.backbone)
    deployed.scale(0.75, 3)  # ζ = 18720, leaving header room in the slot
    header = nas_header(deployed, train_data, unfrozen_epochs=2)
    # Prune the header into the remaining slot budget (Eqs. 16-18), as in
    # the Fig. 7(a) bench.
    prune_into_slot(deployed, header, train_data, STORAGE_LIMIT - deployed.zeta())
    acme_acc = evaluate_header(deployed, header, test_data)["accuracy"]

    rows_a = [{
        "name": "ACME (ours)",
        "accuracy": acme_acc,
        "params": deployed.zeta() + header.active_parameter_count(),
    }]
    for key in BASELINES:
        model = build_baseline(key, num_classes=CLASSES)
        train_model(model, train_data, TrainConfig(epochs=5, seed=0))
        rows_a.append({
            "name": model.name,
            "accuracy": evaluate_model(model, test_data)["accuracy"],
            "params": model.num_parameters(),
        })

    # (b) NAS vs fixed headers on two backbone sizes.
    rows_b = []
    for depth in (3, 6):
        backbone = clone_model(result.backbone)
        backbone.scale(1.0, depth)
        fixed_accs = {
            kind: fixed_header_accuracy(backbone, kind, train_data, test_data)
            for kind in ("linear", "cnn")
        }
        nas = nas_header(backbone, train_data, unfrozen_epochs=2)
        nas_acc = evaluate_header(backbone, nas, test_data)["accuracy"]
        rows_b.append({"depth": depth, **fixed_accs, "nas": nas_acc})

    return rows_a, rows_b


def figure():
    rows_a, rows_b = run_fig13(dynamic_backbone("cars"), train_data("cars"), test_data("cars"))
    lines = ["(a) ACME vs baselines (Stanford-Cars stand-in)"]
    lines += table(
        ["model", "accuracy", "params"],
        [[r["name"], r["accuracy"], r["params"]] for r in rows_a],
    )
    lines += ["", "(b) header comparison across backbone sizes"]
    lines += table(
        ["depth", "linear", "cnn", "NAS (ours)"],
        [[r["depth"], r["linear"], r["cnn"], r["nas"]] for r in rows_b],
    )
    margins = [r["nas"] - max(r["linear"], r["cnn"]) for r in rows_b]
    lines.append(
        "NAS margin over best fixed header: "
        + ", ".join(f"d={r['depth']}: {m * 100:+.2f}%" for r, m in zip(rows_b, margins))
    )
    lines.append("paper: +3.94% avg under storage constraint; header effect +14.43% avg")
    emit("fig13_stanford_cars", lines)

    acme = rows_a[0]
    feasible = [r for r in rows_a[1:] if r["params"] < STORAGE_LIMIT * 1.2]
    if feasible:
        assert acme["accuracy"] >= max(r["accuracy"] for r in feasible) - 0.02
    # NAS headers hold up on the fine-grained data too.
    for r in rows_b:
        assert r["nas"] >= max(r["linear"], r["cnn"]) - 0.05
    return {"baselines": rows_a, "headers": rows_b}
