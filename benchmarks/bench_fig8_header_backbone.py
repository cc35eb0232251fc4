"""Fig. 8 — header designs across varying backbone architectures.

The paper's analysis: NAS headers track the best fixed design across the
whole (width, depth) grid; CNN headers beat Linear on *simple* backbones
(they compensate for weak feature extraction), while the gap narrows (or
flips) on complex backbones.
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

GRID = [(0.5, 2), (0.75, 3), (1.0, 4), (1.0, 6)]


def run_fig8(backbone_result, train_data, test_data):
    rows = []
    for width, depth in GRID:
        backbone = clone_model(backbone_result.backbone)
        backbone.scale(width, depth)
        acc_linear = fixed_header_accuracy(backbone, "linear", train_data, test_data)
        acc_cnn = fixed_header_accuracy(backbone, "cnn", train_data, test_data)
        nas = nas_header(backbone, train_data)
        acc_nas = evaluate_header(backbone, nas, test_data)["accuracy"]

        rows.append(
            {"width": width, "depth": depth, "linear": acc_linear,
             "cnn": acc_cnn, "nas": acc_nas}
        )
    return rows


def figure():
    rows = run_fig8(dynamic_backbone(), train_data(), test_data())
    lines = table(
        ["w", "d", "Linear", "CNN", "NAS (ours)"],
        [[r["width"], r["depth"], r["linear"], r["cnn"], r["nas"]] for r in rows],
    )
    simple, complex_ = rows[0], rows[-1]
    lines.append(
        f"CNN-vs-Linear gap: simple backbone {100 * (simple['cnn'] - simple['linear']):+.2f}%, "
        f"complex backbone {100 * (complex_['cnn'] - complex_['linear']):+.2f}% "
        "(paper: CNN helps simple backbones most)"
    )
    emit("fig8_header_backbone", lines)

    # Shape: NAS ties-or-beats both fixed designs at every grid point.
    for r in rows:
        assert r["nas"] >= max(r["linear"], r["cnn"]) - 0.04
    # CNN's advantage over Linear shrinks as the backbone grows.
    assert (simple["cnn"] - simple["linear"]) >= (
        complex_["cnn"] - complex_["linear"]
    ) - 0.05
    return rows
