"""Backbone generation (§III-B1, Algorithm 1 steps 2-4).

From the reference backbone θB_0 the cloud produces the dynamic backbone
θB in two steps:

1. **Width segmentation** — score heads and neurons with first-order Taylor
   importance on the probe set ``D_C`` (Eqs. 6-8) and permute every block
   into that order, yielding ``´θB`` whose top-w heads and neurons at any
   ``w ∈ (0, 1]`` are a prefix.
2. **Depth dynamics via distillation** — train a student copy under sampled
   (w, d) configurations with the Eq. (9) objective, yielding ``θB`` that is
   dynamic in both width W_B and depth D_B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


from repro.core.distill import DistillConfig, DistillReport, distill
from repro.core.importance import BackboneImportance, estimate_backbone_importance
from repro.data.dataset import ArrayDataset
from repro.models.vit import VisionTransformer


@dataclass
class BackboneGenerationResult:
    """Output of backbone generation.

    Attributes
    ----------
    backbone:
        The dynamic backbone θB (full configuration active).
    importance:
        The Taylor importance scores that determined the width orders.
    distill_report:
        Loss trace of the Eq. (9) distillation.
    """

    backbone: VisionTransformer
    importance: BackboneImportance
    distill_report: DistillReport


def clone_model(model: VisionTransformer) -> VisionTransformer:
    """Deep copy of a full-size ViT (weights and (w, d) scale)."""
    clone = VisionTransformer(model.config, seed=0)
    clone.load_state_dict(model.state_dict())
    clone.scale(model.width, model.depth)
    return clone


def generate_backbone(
    reference: VisionTransformer,
    probe: ArrayDataset,
    distill_config: Optional[DistillConfig] = None,
    importance_batches: int = 8,
    seed: int = 0,
) -> BackboneGenerationResult:
    """Produce the dynamic backbone θB from the reference θ0.

    Parameters
    ----------
    reference:
        The pre-trained reference model θ0 (it is not modified).
    probe:
        The small cloud dataset D_C used for importance estimation and
        distillation.
    """
    # Step 1: importance scoring → ´θB (width-adjustable teacher, permuted
    # so the kept heads and neurons at every width are a prefix).
    importance = estimate_backbone_importance(
        reference, probe, max_batches=importance_batches, seed=seed
    )
    teacher = clone_model(reference)
    teacher.reorder(importance.head_orders(), importance.neuron_orders())

    # Step 2: distill into a width+depth dynamic student θB.
    student = clone_model(teacher)
    report = distill(teacher, student, probe, config=distill_config)
    return BackboneGenerationResult(
        backbone=student, importance=importance, distill_report=report
    )
