"""System-level metrics: efficiency ratios, trade-off score, CS baselines.

These back the Fig. 9 panels and Table I:

* **Energy Efficiency Ratio** — accuracy per unit energy;
* **Size Efficiency Ratio** — accuracy per unit model size;
* **Trade-off Score** — the paper's ``L + E + ζ`` composite, computed on
  normalized terms (lower is better);
* **centralized upload volume** — what a centralized system would transfer
  (every device's raw dataset).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.data.dataset import ArrayDataset


def energy_efficiency_ratio(accuracy: float, energy_joules: float) -> float:
    """Accuracy achievable per unit of energy (Fig. 9)."""
    if energy_joules <= 0:
        raise ValueError(f"energy must be positive, got {energy_joules}")
    return accuracy / energy_joules


def size_efficiency_ratio(accuracy: float, model_size: float) -> float:
    """Accuracy achievable per unit of model size (Fig. 9)."""
    if model_size <= 0:
        raise ValueError(f"model size must be positive, got {model_size}")
    return accuracy / model_size


@dataclass(frozen=True)
class NormalizedTradeoff:
    """Trade-off Score with explicit normalizers and weights.

    The paper defines the score as ``L_n(θ, D) + E_n(θ) + ζ(θ)`` citing the
    adaptive *weighted-sum* method of Kim & de Weck for its construction.
    The three terms live on wildly different scales, so each is divided by
    a reference (typically the worst value observed across compared
    methods) before the weighted summation; the weights instantiate the
    deployment's priorities (the paper does not publish its weights — the
    benches use (2, 0.5, 0.5), prioritizing service quality, and record
    that choice).  Lower is better; the Fig. 9 bar chart plots the inverse
    so taller is better — :meth:`inverse` provides that view.
    """

    loss_scale: float
    energy_scale: float
    size_scale: float
    loss_weight: float = 1.0
    energy_weight: float = 1.0
    size_weight: float = 1.0

    def score(self, loss: float, energy: float, size: float) -> float:
        return (
            self.loss_weight * loss / self.loss_scale
            + self.energy_weight * energy / self.energy_scale
            + self.size_weight * size / self.size_scale
        )

    def inverse(self, loss: float, energy: float, size: float) -> float:
        return 1.0 / self.score(loss, energy, size)


def centralized_upload_bytes(datasets: Sequence[ArrayDataset]) -> int:
    """Upload volume of the centralized baseline: all raw local data."""
    return int(sum(d.nbytes() for d in datasets))
