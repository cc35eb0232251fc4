"""Knowledge distillation into a width- and depth-dynamic backbone (Eq. 9).

The teacher ``´θB`` is the importance-reordered full backbone; the student
``θB`` learns to work at *every* width/depth configuration: each training
step samples a sub-configuration (w, d), applies it to the student, and
minimizes

.. math:: L(´θ, θ) = λ_1 l(´y, y) + λ_2 l(´E, E) + l(´H, H)

matching logits, patch embeddings, and hidden states (student layer ``j``
is matched to the teacher layer at the same relative depth, the standard
depth-distillation alignment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader
from repro.models.vit import VisionTransformer
from repro.nn import functional as F
from repro.nn.optim import GRAD_CLIP, LR, Adam, clip_grad_norm
from repro.nn.tensor import Tensor, no_grad

#: The width factors ``w`` the dynamic backbone is trained and offered at.
WIDTH_CHOICES: Tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)


@dataclass
class DistillConfig:
    """Hyperparameters of the Eq. (9) distillation run: the student
    samples a width from :data:`WIDTH_CHOICES` and a depth from
    ``1..teacher depth`` per batch."""

    epochs: int = 2
    batch_size: int = 32
    lambda_logits: float = 1.0  # reprolint: knob -- λ1 of Eq. 9, the logit term's weight
    lambda_embed: float = 0.5  # reprolint: knob -- λ2 of Eq. 9, the embedding term's weight
    seed: int = 0


@dataclass
class DistillReport:
    """Losses recorded over the distillation run."""

    step_losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.step_losses[-1] if self.step_losses else float("nan")


def _forward_full(model: VisionTransformer, images: Tensor):
    """Run a ViT capturing embeddings, hidden states, and logits."""
    embedded = model._embed(images)
    out, hidden = model.encoder(embedded, collect_hidden=True)
    normed = model.norm(out)
    logits = model.head(normed[:, 0, :])
    return embedded, hidden, logits


def _align_hidden(student_hidden, teacher_hidden):
    """Pair each student layer with the teacher layer at equal relative depth."""
    d, t = len(student_hidden), len(teacher_hidden)
    pairs = []
    for j in range(d):
        teacher_idx = int(np.ceil((j + 1) * t / d)) - 1
        pairs.append((student_hidden[j], teacher_hidden[teacher_idx]))
    return pairs


def distill(
    teacher: VisionTransformer,
    student: VisionTransformer,
    dataset: ArrayDataset,
    config: Optional[DistillConfig] = None,
) -> DistillReport:
    """Train ``student`` to mimic ``teacher`` under sampled (w, d) configs.

    The teacher runs at full width and depth throughout; the student's
    masks are re-sampled per batch so every sub-network learns to stand on
    its own.  The student is restored to full configuration on return.
    """
    config = config or DistillConfig()
    rng = np.random.default_rng(config.seed)
    depth_choices = list(range(1, teacher.config.depth + 1))
    optimizer = Adam(student.parameters(), lr=LR)
    report = DistillReport()

    loader = DataLoader(
        dataset, batch_size=config.batch_size, shuffle=True, rng=rng
    )
    for _epoch in range(config.epochs):
        for images, _labels in loader:
            width = float(rng.choice(list(WIDTH_CHOICES)))
            depth = int(rng.choice(depth_choices))
            student.scale(width, depth)

            x = Tensor(images)
            # The teacher provides fixed targets (every use below is
            # detached), so its forward runs tape-free.
            with no_grad():
                t_embed, t_hidden, t_logits = _forward_full(teacher, x)
            s_embed, s_hidden, s_logits = _forward_full(student, x)

            loss = config.lambda_logits * F.mse_loss(s_logits, t_logits.detach())
            loss = loss + config.lambda_embed * F.mse_loss(s_embed, t_embed.detach())
            for s_h, t_h in _align_hidden(s_hidden, t_hidden):
                loss = loss + F.mse_loss(s_h, t_h.detach())

            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(student.parameters(), GRAD_CLIP)
            optimizer.step()
            report.step_losses.append(float(loss.data))

    student.scale(1.0, teacher.config.depth)
    return report
