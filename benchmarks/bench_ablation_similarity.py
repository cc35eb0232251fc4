"""Ablation — the similarity-softmax temperature (Eq. 20 instantiation).

One deliberate deviation from the paper: Eq. (20)'s plain exponential
normalization is applied at a sub-unit temperature, because this
reproduction's feature spreads are smaller than ViT-B's
(``regularize_similarity`` in ``repro/core/similarity.py``).  This
ablation quantifies that choice: the block contrast of the similarity
weights on the planted two-group layout of Fig. 10, across temperatures.

Expected: at temperature 1.0 (Eq. 20 verbatim) the weights are nearly
uniform; contrast rises as temperature drops; very low temperatures
saturate.  The default (0.05) sits in the high-contrast regime.
"""

from __future__ import annotations

from figures import block_contrast, emit, planted_features, table
from repro.core.similarity import (
    distance_matrix,
    regularize_similarity,
    similarity_from_distances,
)

TEMPERATURES = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02)


def run_ablation(features):
    similarity = similarity_from_distances(
        distance_matrix(features, metric="wasserstein", seed=0)
    )
    rows = []
    for temperature in TEMPERATURES:
        weights = regularize_similarity(similarity, temperature=temperature)
        rows.append({"temperature": temperature, "contrast": block_contrast(weights)})
    return rows


def figure():
    rows = run_ablation(planted_features())
    lines = table(
        ["temperature", "block contrast"],
        [[r["temperature"], r["contrast"]] for r in rows],
    )
    lines.append("default used by the aggregation path: 0.05")
    emit("ablation_similarity", lines)

    contrasts = {r["temperature"]: r["contrast"] for r in rows}
    # Contrast grows monotonically as temperature drops through the range.
    ordered = [contrasts[t] for t in TEMPERATURES]
    assert all(b >= a - 1e-6 for a, b in zip(ordered, ordered[1:]))
    # Eq. (20) verbatim is near-uniform here; the default is far sharper.
    assert contrasts[0.05] > 3 * max(contrasts[1.0], 1e-6)
    return rows
