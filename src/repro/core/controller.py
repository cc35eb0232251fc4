"""LSTM controller for header architecture search (§III-C2).

The controller emits the 4B-long decision sequence defining a
:class:`~repro.models.blocks.HeaderSpec`: for each block ``b``, two input
choices (vocabulary size ``b + 2``) and two operation choices (vocabulary
size ``|Ô|``).  Per the paper it is a single-layer LSTM with 100 hidden
units; each decision is one-hot encoded, passed through an embedding, and
the hidden state is projected to logits over the step's vocabulary
(invalid entries masked).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.models.blocks import BlockSpec, HeaderSpec, num_operations
from repro.nn import functional as F
from repro.nn.layers import Linear, Module
from repro.nn.lstm import LSTMCell
from repro.nn.tensor import Tensor


@dataclass
class SampledArchitecture:
    """A controller sample with everything REINFORCE needs."""

    spec: HeaderSpec
    log_prob: Tensor  # scalar: Σ log π(decision)
    entropy: float  # Σ per-step entropies (for logging / regularization)


class ArchitectureController(Module):
    """Autoregressive LSTM policy over header architectures.

    Parameters
    ----------
    num_blocks:
        ``B`` — blocks per underlying module.
    hidden_size:
        LSTM width (paper: 100).
    embed_size:
        Decision-embedding width.
    repeats:
        ``U`` emitted with every sampled spec (``U`` does not change the
        search space — Eq. 14 — so it is a fixed hyperparameter here).
    """

    def __init__(
        self,
        num_blocks: int = 4,
        hidden_size: int = 100,
        embed_size: int = 24,
        repeats: int = 1,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.num_blocks = num_blocks
        self.repeats = repeats
        self.num_ops = num_operations()
        # The largest vocabulary any step needs.
        self.max_vocab = max(self.num_ops, num_blocks + 1)
        self.hidden_size = hidden_size
        self.embed = Linear(self.max_vocab, embed_size, bias=False, rng=rng)
        self.cell = LSTMCell(embed_size, hidden_size, rng=rng)
        self.out = Linear(hidden_size, self.max_vocab, rng=rng)

    # ------------------------------------------------------------------
    def step_vocab_sizes(self) -> List[int]:
        """Vocabulary size of each of the 4B decisions."""
        sizes: List[int] = []
        for b in range(self.num_blocks):
            input_vocab = b + 2  # backbone, penultimate, blocks 1..b
            sizes.extend([input_vocab, input_vocab, self.num_ops, self.num_ops])
        return sizes

    def _masked_logits(self, hidden: Tensor, vocab: int) -> Tensor:
        logits = self.out(hidden)  # (1, max_vocab)
        if vocab < self.max_vocab:
            mask = np.full((1, self.max_vocab), -1e9)
            mask[0, :vocab] = 0.0
            logits = logits + Tensor(mask)
        return logits

    def sample(
        self, rng: np.random.Generator, greedy: bool = False
    ) -> SampledArchitecture:
        """Draw one architecture; returns spec + differentiable log-prob."""
        state: Optional[Tuple[Tensor, Tensor]] = None
        previous = np.zeros((1, self.max_vocab))  # start token: all-zero
        log_prob: Optional[Tensor] = None
        entropy = 0.0
        decisions: List[int] = []

        for vocab in self.step_vocab_sizes():
            embedded = self.embed(Tensor(previous))
            h, c = self.cell(embedded, state)
            state = (h, c)
            logits = self._masked_logits(h, vocab)
            log_probs = F.log_softmax(logits, axis=-1)
            probs = np.exp(log_probs.data[0, :vocab])
            probs = probs / probs.sum()
            if greedy:
                choice = int(np.argmax(probs))
            else:
                choice = int(rng.choice(vocab, p=probs))
            decisions.append(choice)
            step_lp = log_probs[0, choice]
            log_prob = step_lp if log_prob is None else log_prob + step_lp
            entropy += float(-(probs * np.log(probs + 1e-12)).sum())
            previous = F.one_hot(np.array([choice]), self.max_vocab)

        assert log_prob is not None
        spec = HeaderSpec.from_sequence(decisions, repeats=self.repeats)
        return SampledArchitecture(spec=spec, log_prob=log_prob, entropy=entropy)


class MovingAverageBaseline:
    """The REINFORCE variance-reduction baseline (exponential moving average)."""

    def __init__(self, decay: float = 0.8) -> None:
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {decay}")
        self.decay = decay
        self.value: Optional[float] = None

    def update(self, reward: float) -> float:
        """Fold in a reward; returns the baseline *before* the update."""
        if self.value is None:
            self.value = reward
            return reward
        previous = self.value
        self.value = self.decay * self.value + (1.0 - self.decay) * reward
        return previous
