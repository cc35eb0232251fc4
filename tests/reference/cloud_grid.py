"""The (w, d) loss grid, one cell at a time.

``scale(w, d)`` → a fresh re-seeded sample → ``evaluate_model``: what
``CloudServer.prepare_candidates`` ran per cell before it shared depth
prefixes, and what every cached loss must still equal exactly.
"""

import numpy as np

from repro.train.evaluate import evaluate_model


def cell_loss(backbone, public_dataset, width, depth, eval_samples, seed) -> float:
    """Public-set loss of δ(backbone, width, depth); restores full scale."""
    backbone.scale(width, depth)
    sample = public_dataset.sample(eval_samples, np.random.default_rng(seed))
    loss = evaluate_model(backbone, sample)["loss"]
    backbone.scale(1.0, backbone.config.depth)
    return loss


def loss_grid(backbone, public_dataset, widths, depths, eval_samples, seed) -> dict:
    return {
        (width, depth): cell_loss(
            backbone, public_dataset, width, depth, eval_samples, seed
        )
        for width in widths
        for depth in depths
    }
