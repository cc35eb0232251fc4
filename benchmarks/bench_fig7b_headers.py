"""Fig. 7(b) — NAS-generated headers vs fixed header designs.

Backbone width is fixed to 1 (as in the paper); depth varies to produce
backbones of different sizes.  For each backbone, the four fixed header
designs are trained and compared against the ACME NAS header.  Shape
target: the NAS header wins everywhere, with the largest margins on small
backbones (paper: +9.02% small, ≈+3% large).
"""

from __future__ import annotations

from figures import (
    dynamic_backbone,
    emit,
    fixed_header_accuracy,
    nas_header,
    table,
    test_data,
    train_data,
)
from repro.core.segmentation import clone_model
from repro.train import evaluate_header

FIXED_KINDS = ("linear", "mlp", "pool", "cnn")
DEPTHS = (2, 4, 6)


def run_fig7b(backbone_result, train_data, test_data):
    rows = []
    for depth in DEPTHS:
        backbone = clone_model(backbone_result.backbone)
        backbone.scale(1.0, depth)
        row = {"depth": depth}
        for kind in FIXED_KINDS:
            row[kind] = fixed_header_accuracy(backbone, kind, train_data, test_data)
        header = nas_header(backbone, train_data)
        row["nas"] = evaluate_header(backbone, header, test_data)["accuracy"]
        rows.append(row)
    return rows


def figure():
    rows = run_fig7b(dynamic_backbone(), train_data(), test_data())
    lines = table(
        ["backbone depth", *FIXED_KINDS, "NAS (ours)"],
        [[r["depth"], *[r[k] for k in FIXED_KINDS], r["nas"]] for r in rows],
    )
    margins = [r["nas"] - max(r[k] for k in FIXED_KINDS) for r in rows]
    lines.append(
        "NAS margin over best fixed header per depth: "
        + ", ".join(f"d={r['depth']}: {m * 100:+.2f}%" for r, m in zip(rows, margins))
    )
    lines.append("paper: +9.02% avg on small backbones, ≈+3% on large")
    emit("fig7b_headers", lines)

    # Shape: NAS header is at least as good as the best fixed design on
    # every backbone (small tolerance for the scaled-down setting).
    for r in rows:
        assert r["nas"] >= max(r[k] for k in FIXED_KINDS) - 0.04
    return rows
