"""LSTM cell for the NAS controller.

The paper's ENAS-style controller (§III-C2) is a single-layer LSTM with
100 hidden units that consumes one-hot encoded architecture decisions and
emits logits over the next decision.  Only the piece that controller needs
is implemented: a cell it steps itself, threading the state explicitly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import init
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor


class LSTMCell(Module):
    """A single LSTM step: ``(x, (h, c)) -> (h', c')``.

    Gates follow the standard formulation; the four gates are computed with
    one fused affine map for efficiency.
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

    def forward(
        self, x: Tensor, state: Optional[Tuple[Tensor, Tensor]] = None
    ) -> Tuple[Tensor, Tensor]:
        n = x.shape[0]
        if state is None:
            h = Tensor(np.zeros((n, self.hidden_size)))
            c = Tensor(np.zeros((n, self.hidden_size)))
        else:
            h, c = state

        gates = self.ih(x) + self.hh(h)
        hs = self.hidden_size
        i = gates[:, 0 * hs : 1 * hs].sigmoid()
        f = gates[:, 1 * hs : 2 * hs].sigmoid()
        g = gates[:, 2 * hs : 3 * hs].tanh()
        o = gates[:, 3 * hs : 4 * hs].sigmoid()

        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return h_next, c_next
