"""Fig. 12 — impact of header complexity (B blocks, U repeats).

The paper's finding: on a *large* backbone (w = d = 1) simple headers
suffice and extra complexity can hurt; on a *small* backbone
(w = d = 0.25) accuracy improves as B and U grow because the header must
supply the feature-extraction capacity the backbone lacks.
"""

from __future__ import annotations

import numpy as np

from figures import dynamic_backbone, emit, table, test_data, train_data
from repro.core.segmentation import clone_model
from repro.models.blocks import BlockSpec, HeaderSpec, num_operations
from repro.models.header_dag import DAGHeader
from repro.train import TrainConfig, evaluate_header, train_header

CELLS = [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]
SPECS_PER_CELL = 2


def _random_spec(num_blocks: int, repeats: int, rng: np.random.Generator) -> HeaderSpec:
    blocks = []
    for b in range(num_blocks):
        blocks.append(
            BlockSpec(
                int(rng.integers(0, b + 2)),
                int(rng.integers(0, b + 2)),
                int(rng.integers(0, num_operations())),
                int(rng.integers(0, num_operations())),
            )
        )
    return HeaderSpec(blocks=tuple(blocks), repeats=repeats)


def _cell_accuracy(backbone, num_blocks, repeats, train_data, test_data):
    cfg = backbone.config
    accs = []
    for s in range(SPECS_PER_CELL):
        rng = np.random.default_rng(100 * num_blocks + 10 * repeats + s)
        spec = _random_spec(num_blocks, repeats, rng)
        header = DAGHeader(cfg.embed_dim, cfg.num_patches, cfg.num_classes,
                           spec, rng=rng)
        train_header(backbone, header, train_data, TrainConfig(epochs=3, seed=s))
        accs.append(evaluate_header(backbone, header, test_data)["accuracy"])
    return float(np.mean(accs))


def run_fig12(generated, easy_train, easy_test):
    results = {}
    for label, (width, depth) in {"large (w=1, d=6)": (1.0, 6),
                                  "small (w=0.25, d=2)": (0.25, 2)}.items():
        backbone = clone_model(generated.backbone)
        backbone.scale(width, depth)
        cells = {}
        for num_blocks, repeats in CELLS:
            cells[(num_blocks, repeats)] = _cell_accuracy(
                backbone, num_blocks, repeats, easy_train, easy_test
            )
        results[label] = cells
    return results


def figure():
    # Fig. 12's phenomenon needs the large backbone to *saturate* the task,
    # so it runs the whole pipeline on the easier ``fig12`` dataset.
    results = run_fig12(dynamic_backbone("fig12"), train_data("fig12"), test_data("fig12"))
    lines = []
    for label, cells in results.items():
        lines.append(label)
        lines += table(
            ["B", "U", "accuracy"],
            [[b, u, cells[(b, u)]] for (b, u) in CELLS],
        )
        lines.append("")
    emit("fig12_complexity", lines)

    large = results["large (w=1, d=6)"]
    small = results["small (w=0.25, d=2)"]

    # Shape: on the small backbone, added complexity helps — the most
    # complex cells beat the simplest.
    small_simple = small[(1, 1)]
    small_complex = np.mean([small[(3, 1)], small[(3, 2)], small[(2, 2)]])
    assert small_complex >= small_simple - 0.02

    # On the large backbone, the simplest header is already competitive:
    # complexity buys (almost) nothing.
    large_simple = large[(1, 1)]
    large_best = max(large.values())
    assert large_simple >= large_best - 0.08

    # The benefit of complexity is larger on the small backbone than on
    # the large one — the Fig. 12 contrast.
    small_gain = small_complex - small_simple
    large_gain = np.mean([large[(3, 1)], large[(3, 2)], large[(2, 2)]]) - large_simple
    assert small_gain >= large_gain - 0.02
    return {label: {f"B{b}U{u}": acc for (b, u), acc in cells.items()}
            for label, cells in results.items()}
