"""First-order Taylor importance of attention heads and MLP neurons.

Implements Eqs. (6)-(8) of §III-B1.  The importance of head ``h`` with
output ``O_h`` is

.. math:: I_h = |F(O_h, D_C) - F(O_{h=0}, D_C)| \\approx |\\tfrac{∂F}{∂O_h} · O_h|

i.e. the loss change caused by removing the head, linearized around the
current weights.  The same estimator applies to MLP hidden neurons using
their activations.  Gradients are read from the per-head / per-neuron
tensors each encoder block's taped forward records (and its backward
fills), so a single backward pass over the probe dataset ``D_C`` scores
every head and neuron at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader
from repro.models.vit import VisionTransformer
from repro.nn import functional as F
from repro.nn.tensor import Tensor


@dataclass
class BackboneImportance:
    """Per-layer importance scores for the backbone's width structures.

    Attributes
    ----------
    head_scores:
        One array of shape ``(num_heads,)`` per encoder layer.
    neuron_scores:
        One array of shape ``(mlp_hidden,)`` per encoder layer.
    """

    head_scores: List[np.ndarray]
    neuron_scores: List[np.ndarray]

    def head_orders(self) -> List[np.ndarray]:
        """Per-layer head indices sorted most→least important."""
        return [np.argsort(-s, kind="stable") for s in self.head_scores]

    def neuron_orders(self) -> List[np.ndarray]:
        """Per-layer neuron indices sorted most→least important."""
        return [np.argsort(-s, kind="stable") for s in self.neuron_scores]


def estimate_backbone_importance(
    model: VisionTransformer,
    probe: ArrayDataset,
    batch_size: int = 32,
    max_batches: int = 8,
    seed: int = 0,
) -> BackboneImportance:
    """Score every head and neuron of ``model`` on the probe set ``D_C``.

    Runs forward + backward on up to ``max_batches`` mini-batches and
    accumulates ``|∂F/∂O_h · O_h|`` per head (Eq. 8) and the analogous
    quantity per MLP neuron, averaged over batches.
    """
    layers = model.encoder.layers
    num_layers = len(layers)
    head_acc = [np.zeros(model.config.num_heads) for _ in range(num_layers)]
    neuron_acc = [np.zeros(model.config.mlp_hidden) for _ in range(num_layers)]

    loader = DataLoader(
        probe, batch_size=batch_size, shuffle=True, rng=np.random.default_rng(seed)
    )
    batches = 0
    for images, labels in loader:
        if batches >= max_batches:
            break
        model.zero_grad()
        logits = model(Tensor(images))
        loss = F.cross_entropy(logits, labels)
        loss.backward()

        for i, layer in enumerate(layers):
            # One taped block node recorded O_h and the MLP activations
            # and its backward wrote both grads; take them and let go.
            heads, hidden = layer.attn.last_head_output, layer.mlp.last_hidden
            layer.attn.last_head_output = layer.mlp.last_hidden = None
            if not layer.active or heads is None or heads.grad is None:
                continue
            # O_h: (N, H, T, hd); sum the |grad · output| inner product over
            # batch, tokens and channels for each head.
            product = heads.grad * heads.data
            head_acc[i] += np.abs(product.sum(axis=(0, 2, 3)))
            prod = hidden.grad * hidden.data
            neuron_acc[i] += np.abs(prod.sum(axis=tuple(range(prod.ndim - 1))))
        batches += 1

    if batches == 0:
        raise ValueError("probe dataset produced no batches")
    return BackboneImportance(
        head_scores=[h / batches for h in head_acc],
        neuron_scores=[n / batches for n in neuron_acc],
    )


def header_parameter_importance(
    gradients: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Eq. (17): ``Q^(1)_r = (g_r · υ_r)²`` for header parameters.

    Stateless helper shared by the device-side importance-set computation
    (see :mod:`repro.core.header_importance`).
    """
    gradients = np.asarray(gradients, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if gradients.shape != values.shape:
        raise ValueError(
            f"gradient shape {gradients.shape} != value shape {values.shape}"
        )
    product = gradients * values
    return product * product
