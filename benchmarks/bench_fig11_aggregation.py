"""Fig. 11 — accuracy improvement of four aggregation methods under four
data-distribution regimes (IID and the confusion levels C1 < C2 < C3).

Protocol (matching §III-D's premise of *limited* device data): a 5-device
cluster splits a small pool per regime; each device trains the coarse
header on its little shard and is evaluated on a held-out sample of its
own distribution.  Headers are refined by one of: Alone (local importance
only), Average (uniform), JS (Jensen-Shannon-weighted), Ours
(Wasserstein-weighted, Eqs. 19-21).  The metric is the held-out accuracy
improvement over the un-refined header, averaged over devices and three
partition seeds.

Shape targets: every method yields a positive improvement; the
distribution-aware weighting (Ours) matches or beats uniform Averaging,
with the gap widening on the non-IID regimes.  (In this scaled-down
substrate the Alone baseline is stronger than in the paper — devices'
importance estimates are less noisy than at ViT-B scale; EXPERIMENTS.md
records it as a deviation.)
"""

from __future__ import annotations

import numpy as np

from figures import dynamic_backbone, emit, generator, table
from repro.core.aggregation import (
    AGGREGATION_METHODS,
    personalized_architecture_aggregation,
)
from repro.core.header_importance import ImportanceConfig
from repro.core.segmentation import clone_model
from repro.data import ConfusionLevel, partition_confusion
from repro.models.blocks import BlockSpec, HeaderSpec
from repro.models.header_dag import DAGHeader
from repro.train import TrainConfig, evaluate_header, train_header

REGIMES = (ConfusionLevel.IID, ConfusionLevel.C1, ConfusionLevel.C2, ConfusionLevel.C3)
NUM_DEVICES = 5
SEEDS = (3, 5, 7)
SPEC = HeaderSpec(blocks=(BlockSpec(0, 1, 1, 3), BlockSpec(1, 2, 2, 5)))


def _one_cell(backbone, cfg, shards_train, shards_test, method):
    base_headers, base_accs = [], []
    for i, train_shard in enumerate(shards_train):
        header = DAGHeader(cfg.embed_dim, cfg.num_patches, cfg.num_classes,
                           SPEC, rng=np.random.default_rng(i))
        train_header(backbone, header, train_shard, TrainConfig(epochs=2, seed=i))
        base_headers.append(header)
        base_accs.append(
            evaluate_header(backbone, header, shards_test[i])["accuracy"]
        )

    headers = []
    for i, base in enumerate(base_headers):
        clone = DAGHeader(cfg.embed_dim, cfg.num_patches, cfg.num_classes,
                          SPEC, rng=np.random.default_rng(i))
        clone.load_state_dict(base.state_dict())
        headers.append(clone)
    personalized_architecture_aggregation(
        backbone, headers, shards_train, num_rounds=1, keep_fraction=0.6,
        method=method,
        importance_config=ImportanceConfig(max_batches_per_epoch=2, batch_size=8, seed=0),
        seed=0,
    )
    improvements = []
    for header, train_shard, test_shard, base_acc in zip(
        headers, shards_train, shards_test, base_accs
    ):
        train_header(backbone, header, train_shard, TrainConfig(epochs=1, seed=0))
        acc = evaluate_header(backbone, header, test_shard)["accuracy"]
        improvements.append(acc - base_acc)
    return float(np.mean(improvements))


def run_fig11(backbone_result, cifar_like):
    backbone = clone_model(backbone_result.backbone)
    backbone.scale(0.75, 4)
    cfg = backbone.config
    pool = cifar_like.generate(samples_per_class=16, seed=11, name="fig11")

    results = {}
    for regime in REGIMES:
        sums = {m: 0.0 for m in AGGREGATION_METHODS}
        for seed in SEEDS:
            shards = partition_confusion(
                pool, NUM_DEVICES, regime, np.random.default_rng(seed)
            )
            splits = [s.split(0.6, np.random.default_rng(9 + i))
                      for i, s in enumerate(shards)]
            trains = [a for a, _b in splits]
            tests = [b for _a, b in splits]
            for method in AGGREGATION_METHODS:
                sums[method] += _one_cell(backbone, cfg, trains, tests, method)
        results[regime.value] = {m: sums[m] / len(SEEDS) for m in AGGREGATION_METHODS}
    return results


def figure():
    results = run_fig11(dynamic_backbone(), generator())
    lines = table(
        ["regime", *AGGREGATION_METHODS],
        [[regime, *[results[regime][m] for m in AGGREGATION_METHODS]]
         for regime in results],
    )
    non_iid = [r.value for r in REGIMES[1:]]
    mean = {
        m: float(np.mean([results[r][m] for r in non_iid]))
        for m in AGGREGATION_METHODS
    }
    lines.append(
        "non-IID means — "
        + ", ".join(f"{m}: {mean[m]:+.4f}" for m in AGGREGATION_METHODS)
    )
    lines.append("paper: ours best across all regimes; Avg loses its edge as confusion grows")
    emit("fig11_aggregation", lines)

    # Shape assertions.
    # Every method improves on the un-refined header, on every regime.
    for regime, row in results.items():
        for method, value in row.items():
            assert value > -0.01, f"{method} must not degrade under {regime}"
    # Distribution-aware weighting at least matches uniform averaging on
    # the non-IID regimes (the paper's differential claim).
    assert mean["ours"] >= mean["average"] - 0.005
    # And the most confused regime must not favor uniform averaging.
    assert results["c3"]["ours"] >= results["c3"]["average"] - 0.01
    return results
