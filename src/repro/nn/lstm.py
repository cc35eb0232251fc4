"""LSTM cell weights for the NAS controller.

The paper's ENAS-style controller (§III-C2) is a single-layer LSTM with
100 hidden units that consumes one-hot encoded architecture decisions and
emits logits over the next decision.  This module holds that cell's
weights; the step itself runs inside the controller's fused rollout
(:meth:`repro.core.controller.ArchitectureController.sample`), which
owns its forward and its backward through time.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.layers import Linear, Module


class LSTMCell(Module):
    """The weights of one LSTM step ``(x, (h, c)) -> (h', c')``.

    The four gates (input, forget, cell, output, in that order along the
    output axis) come from one fused affine map of ``x`` (``ih``) and one
    of ``h`` (``hh``, no bias).
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_generator()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.ih = Linear(input_size, 4 * hidden_size, rng=rng)
        self.hh = Linear(hidden_size, 4 * hidden_size, bias=False, rng=rng)
