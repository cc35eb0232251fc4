"""The paper's evaluation: Figs. 1 and 7–13, Table I and three ablations.

Each ``bench_<name>.py`` beside this file regenerates one of them as a
plain ``figure()`` that computes, prints its table, asserts the paper's
shape and returns its JSON payload.  This module holds what they share:
the scaled-down geometry, the cached datasets and pretrained models, and
every experiment recipe more than one figure runs.  Run it::

    PYTHONPATH=src python benchmarks/figures.py [name ...]

to regenerate every figure (or only the named ones, e.g.
``fig9_matching``) in file-name order.  It writes
``bench_results/figures.json``: per figure, its payload and wall seconds
(entries of figures not run are kept).  EXPERIMENTS.md reads the paper's
claims against that file.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.distill import DistillConfig
from repro.core.header_importance import (
    ImportanceConfig,
    compute_importance_set,
    prune_by_importance,
)
from repro.core.nas import HeaderSearch, NASConfig
from repro.core.pareto import Candidate
from repro.core.segmentation import BackboneGenerationResult, clone_model, generate_backbone
from repro.core.similarity import extract_features
from repro.data import ArrayDataset, partition_two_groups
from repro.data.synthetic import SyntheticImageGenerator, SyntheticSpec
from repro.distributed.metrics import NormalizedTradeoff
from repro.hw.energy import energy
from repro.models import Header, ViTConfig, VisionTransformer, build_fixed_header
from repro.train import TrainConfig, evaluate_header, evaluate_model, train_header, train_model

RESULTS_DIR = Path(__file__).resolve().parent.parent / "bench_results"

#: Every figure, in the order the runner runs them: sorted module file
#: names, the order in which they fill the shared caches below.
FIGURES = (
    "ablation_distill",
    "ablation_pfg",
    "ablation_similarity",
    "fig10_similarity",
    "fig11_aggregation",
    "fig12_complexity",
    "fig13_stanford_cars",
    "fig1_motivation",
    "fig7a_baselines",
    "fig7b_headers",
    "fig8_header_backbone",
    "fig9_matching",
    "table1_cost_efficiency",
)

#: The shared scaled-down experiment geometry: 16×16 3-channel images,
#: patch 4 → 16 tokens, a depth-6 ViT with 4 heads.
BENCH_CLASSES = 16
BENCH_VIT = ViTConfig(
    image_size=16,
    patch_size=4,
    embed_dim=32,
    depth=6,
    num_heads=4,
    mlp_ratio=2.0,
    num_classes=BENCH_CLASSES,
)

#: The figures' datasets.  Class separation is tuned so accuracy spreads
#: across the model grid (neither floor nor ceiling), the regime the
#: paper's figures live in:
#:
#: * ``bench`` — the CIFAR-100 stand-in every figure but 12 and 13 uses;
#: * ``cars`` — the Stanford-Cars stand-in (Fig. 13): classes share coarse
#:   group structure and differ in small details;
#: * ``fig12`` — an easier task, so the large backbone *saturates* it and
#:   header complexity can only lose information (Fig. 12's phenomenon).
DATASETS = {
    "bench": SyntheticSpec(num_classes=BENCH_CLASSES, class_separation=0.55, noise_scale=0.9),
    "cars": SyntheticSpec(
        num_classes=BENCH_CLASSES, class_separation=0.5, noise_scale=0.9, fine_grained_groups=4
    ),
    "fig12": SyntheticSpec(num_classes=8, class_separation=1.0, noise_scale=0.7),
}
#: Pretraining epochs of each dataset's reference model θ0.
PRETRAIN_EPOCHS = {"bench": 6, "cars": 6, "fig12": 5}

#: The width factors of the (w, d) candidate grid; depth runs 1..L.
WIDTHS = (0.25, 0.5, 0.75, 1.0)


# -- cached artifacts ------------------------------------------------------


@functools.cache
def generator(dataset: str = "bench") -> SyntheticImageGenerator:
    return SyntheticImageGenerator(DATASETS[dataset], seed=0)


@functools.cache
def train_data(dataset: str = "bench") -> ArrayDataset:
    return generator(dataset).generate(samples_per_class=40, seed=1, name=f"{dataset}-train")


@functools.cache
def test_data(dataset: str = "bench") -> ArrayDataset:
    return generator(dataset).generate(samples_per_class=16, seed=2, name=f"{dataset}-test")


@functools.cache
def reference_model(dataset: str = "bench") -> VisionTransformer:
    """θ0 pretrained on the public dataset."""
    vit = replace(BENCH_VIT, num_classes=DATASETS[dataset].num_classes)
    model = VisionTransformer(vit, seed=0)
    train_model(model, train_data(dataset), TrainConfig(epochs=PRETRAIN_EPOCHS[dataset], seed=0))
    return model


@functools.cache
def dynamic_backbone(dataset: str = "bench") -> BackboneGenerationResult:
    """The distilled width/depth-dynamic backbone θB and its importance."""
    return generate_backbone(
        reference_model(dataset), train_data(dataset), distill_config=DistillConfig(epochs=2, seed=0)
    )


@functools.cache
def planted_features() -> Tuple[np.ndarray, ...]:
    """θ0's features of five devices in two planted groups: devices 0-2
    share one data distribution, devices 3-4 another (Fig. 10's layout)."""
    data = generator().generate(samples_per_class=30, seed=7, name="planted")
    devices = partition_two_groups(data, (3, 2), np.random.default_rng(0))
    return tuple(
        extract_features(reference_model(), d, max_samples=24, seed=i)
        for i, d in enumerate(devices)
    )


# -- recipes ---------------------------------------------------------------


def block_contrast(matrix: np.ndarray) -> float:
    """Mean within-group minus mean cross-group similarity of the planted
    layout."""
    groups = [(0, 1, 2), (3, 4)]
    same, cross = [], []
    for a in range(5):
        for b in range(5):
            if a == b:
                continue
            in_same = any(a in g and b in g for g in groups)
            (same if in_same else cross).append(matrix[a, b])
    return float(np.mean(same) - np.mean(cross))


def evaluate_grid(backbone: VisionTransformer, data: ArrayDataset, max_batches: int) -> Dict:
    """``evaluate_model`` of every (w, d) sub-network, keyed by ``(w, d)``."""
    grid = {}
    for width in WIDTHS:
        for depth in range(1, backbone.config.depth + 1):
            probe = clone_model(backbone)
            probe.scale(width, depth)
            grid[(width, depth)] = evaluate_model(probe, data, max_batches=max_batches)
    return grid


def candidates(grid: Dict, profile, config: ViTConfig) -> List[Candidate]:
    """The cloud's candidates (Eq. 10): each grid cell's loss, its energy
    for five epochs on ``profile`` and its size ζ."""
    return [
        Candidate(w, d, (metrics["loss"], energy(profile, w, d, epochs=5).energy_joules,
                         config.zeta(w, d)))
        for (w, d), metrics in grid.items()
    ]


def weighted_tradeoff(objectives: Iterable[Sequence[float]]) -> NormalizedTradeoff:
    """The Trade-off Score normalized by the worst (loss, energy, size)
    among ``objectives``, weighted (2, 0.5, 0.5): service quality first."""
    loss, joules, size = (max(column) for column in zip(*objectives))
    return NormalizedTradeoff(
        loss_scale=loss, energy_scale=joules, size_scale=size,
        loss_weight=2.0, energy_weight=0.5, size_weight=0.5,
    )


def fixed_header_accuracy(backbone, kind: str, train: ArrayDataset, test: ArrayDataset) -> float:
    """Test accuracy of fixed header ``kind`` trained 3 epochs on the
    frozen ``backbone``."""
    cfg = backbone.config
    header = build_fixed_header(
        kind, cfg.embed_dim, cfg.num_patches, cfg.num_classes, rng=np.random.default_rng(0)
    )
    train_header(backbone, header, train, TrainConfig(epochs=3, seed=0))
    return evaluate_header(backbone, header, test)["accuracy"]


def nas_header(backbone, train: ArrayDataset, unfrozen_epochs: int = 0) -> Header:
    """The ENAS-searched header for ``backbone``, trained 3 epochs on it
    frozen, then ``unfrozen_epochs`` with the backbone unfrozen (Phase 2-1
    does not freeze it, §III-C; the deployment figures finish that way)."""
    search = HeaderSearch(
        backbone,
        train.num_classes,
        NASConfig(
            num_blocks=2,
            search_epochs=2,
            children_per_epoch=3,
            shared_steps_per_child=3,
            controller_updates_per_epoch=3,
            derive_samples=4,
            train_backbone=False,
            seed=0,
        ),
    )
    header = search.materialize_header(search.search(train).spec, seed=0)
    train_header(backbone, header, train, TrainConfig(epochs=3, seed=0))
    if unfrozen_epochs:
        train_header(backbone, header, train, TrainConfig(epochs=unfrozen_epochs, seed=0),
                     freeze_backbone=False)
    return header


def prune_into_slot(backbone, header: Header, train: ArrayDataset, budget: float) -> None:
    """Prune ``header`` by importance into ``budget`` parameters
    (Eqs. 16-18, Phase 2-2), then retrain the survivors 2 epochs; a header
    that already fits is left as it is.  Pruning keeps the classifier
    whole, so the keep fraction is of the other parameters and of what
    the budget leaves them."""
    if header.parameter_count() <= budget:
        return
    importance = compute_importance_set(
        backbone, header, train,
        ImportanceConfig(max_batches_per_epoch=4, seed=0), train=False,
    )
    protected = header.classifier.num_parameters()
    keep_fraction = max(
        0.05, min(1.0, (budget - protected) / (header.parameter_count() - protected))
    )
    prune_by_importance(header, importance, keep_fraction)
    train_header(backbone, header, train, TrainConfig(epochs=2, seed=0))


# -- output ----------------------------------------------------------------


def emit(name: str, lines: Sequence[str]) -> None:
    """Print a figure's result block."""
    print(f"\n=== {name} ===")
    print("\n".join(lines))


def table(headers: Sequence[str], rows: Sequence[Sequence]) -> List[str]:
    """Plain-text table formatting."""
    headers = [str(h) for h in headers]
    str_rows = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    out = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return out


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def heatmap(matrix: np.ndarray) -> List[str]:
    """Render a small square matrix as an aligned text heatmap."""
    n = matrix.shape[0]
    lines = ["      " + "  ".join(f"{i:>6}" for i in range(n))]
    for i in range(n):
        row = "  ".join(f"{matrix[i, j]:6.3f}" for j in range(n))
        lines.append(f"{i:>5} {row}")
    return lines


# -- runner ----------------------------------------------------------------


def main(argv: Sequence[str]) -> int:
    unknown = sorted(set(argv) - set(FIGURES))
    if unknown:
        print(f"unknown figure(s) {unknown}; choose from {list(FIGURES)}", file=sys.stderr)
        return 2
    path = RESULTS_DIR / "figures.json"
    results = json.loads(path.read_text()) if path.exists() else {}
    for name in FIGURES:
        if argv and name not in argv:
            continue
        start = time.perf_counter()
        payload = importlib.import_module(f"bench_{name}").figure()
        results[name] = {"seconds": round(time.perf_counter() - start, 1), "payload": payload}
    RESULTS_DIR.mkdir(exist_ok=True)
    ordered = {name: results[name] for name in FIGURES if name in results}
    path.write_text(json.dumps(ordered, indent=2, default=float) + "\n")
    return 0


if __name__ == "__main__":
    # Run through the importable module, so the figures share its caches.
    import figures

    sys.exit(figures.main(sys.argv[1:]))
