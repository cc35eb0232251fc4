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
from repro.nn.layers import Linear, Module
from repro.nn.lstm import LSTMCell
from repro.nn.tensor import Tensor, records


@dataclass
class SampledArchitecture:
    """A controller sample with everything REINFORCE needs."""

    spec: HeaderSpec
    log_prob: Tensor  # scalar: Σ log π(decision)


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

    def sample(
        self, rng: np.random.Generator, greedy: bool = False
    ) -> SampledArchitecture:
        """Draw one architecture; returns spec + differentiable log-prob.

        The rollout is plain numpy in the parameters' dtype.  Per decision:
        the embedding ``prev @ W_e`` of the previous one-hot decision, the
        LSTM step (gates ``(x @ W_ih + b_ih) + h @ W_hh``, sliced input /
        forget / cell / output), the output linear, a −1e9 mask past the
        step's vocabulary and a shifted log-softmax.  When the tape records
        (:func:`~repro.nn.tensor.records`), ``log_prob`` is one node over
        the six parameters whose backward runs BPTT over the saved steps
        (:func:`_rollout_backward`); otherwise nothing is saved.
        """
        params = (
            self.embed.weight,
            self.cell.ih.weight,
            self.cell.ih.bias,
            self.cell.hh.weight,
            self.out.weight,
            self.out.bias,
        )
        w_e, w_ih, b_ih, w_hh, w_o, b_o = (p.data for p in params)
        dtype = w_e.dtype
        hs, width = self.hidden_size, self.max_vocab
        taped = records(*params)
        steps: List[tuple] = []
        previous = np.zeros((1, width), dtype)  # start token: all-zero
        h = np.zeros((1, hs), dtype)
        c = np.zeros((1, hs), dtype)
        total = None
        decisions: List[int] = []

        for vocab in self.step_vocab_sizes():
            x = previous @ w_e
            gates = (x @ w_ih + b_ih) + h @ w_hh
            i = 1.0 / (1.0 + np.exp(-gates[:, :hs]))
            f = 1.0 / (1.0 + np.exp(-gates[:, hs : 2 * hs]))
            g = np.tanh(gates[:, 2 * hs : 3 * hs])
            o = 1.0 / (1.0 + np.exp(-gates[:, 3 * hs :]))
            c_next = f * c + i * g
            tc = np.tanh(c_next)
            h_next = o * tc
            logits = h_next @ w_o + b_o
            if vocab < width:
                mask = np.full((1, width), -1e9)
                mask[0, :vocab] = 0.0
                logits = logits + mask.astype(dtype)
            shifted = logits - logits.max(axis=-1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            probs = np.exp(log_probs[0, :vocab])
            probs = probs / probs.sum()
            choice = int(np.argmax(probs)) if greedy else _draw(rng, probs)
            decisions.append(choice)
            step_lp = log_probs[0, choice]
            total = step_lp if total is None else total + step_lp
            if taped:
                steps.append((previous, x, h, c, i, f, g, o, tc, h_next, log_probs, choice))
            previous = np.zeros((1, width), dtype)
            previous[0, choice] = 1.0
            h, c = h_next, c_next

        def backward(grad: np.ndarray) -> None:
            _rollout_backward(grad, params, steps)

        return SampledArchitecture(
            spec=HeaderSpec.from_sequence(decisions, repeats=self.repeats),
            log_prob=Tensor._make(np.asarray(total, dtype), params, backward),
        )


def _draw(rng: np.random.Generator, probs: np.ndarray) -> int:
    """One decision from ``probs``: the inverse-CDF draw
    ``rng.choice(len(probs), p=probs)`` makes (a float64 CDF scaled to
    end at 1, one ``rng.random()``, a right-sided search) — the same
    index and the same stream position, without ``choice``'s
    re-validation of ``p``."""
    cdf = np.cumsum(probs, dtype=np.float64)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a.T @ b`` for two row vectors, the weight gradient of a linear
    over one row: numpy's matmul sums its one product onto +0.0 (so a
    −0.0 product reads +0.0), and so does this, at a fraction of the
    cost of matmul's loop for a one-long inner axis."""
    return a.T * b + 0.0


def _rollout_backward(grad: np.ndarray, params: Tuple[Tensor, ...], steps: List[tuple]) -> None:
    """BPTT of ``Σ_t log π(decision_t)`` into the controller's parameters.

    Every term is the expression a chain of single-op nodes computes, and
    each parameter receives its per-step terms in the order that chain's
    tape delivered them — the output linear's in step order, the LSTM's
    and the embedding's in reverse — so the gradients equal the chain's
    bit for bit (``tests/reference/controller.py`` is that chain).
    """
    p_e, p_ih, p_bih, p_hh, p_o, p_bo = params
    w_ih, w_hh, w_o = p_ih.data, p_hh.data, p_o.data
    dh_out = []
    for *_, h, log_probs, choice in steps:
        picked = np.zeros_like(log_probs)
        picked[0, choice] = grad
        d_logits = picked - np.exp(log_probs) * picked.sum(axis=-1, keepdims=True)
        p_bo._accumulate(d_logits)
        p_o._accumulate(_outer(h, d_logits))
        dh_out.append(d_logits @ w_o.T)

    dh_rec = dc_rec = None  # what step t + 1 sends back to h_t, c_t
    for t in range(len(steps) - 1, -1, -1):
        previous, x, h_prev, c_prev, i, f, g, o, tc, _h, _lp, _c = steps[t]
        dh = dh_out[t] if dh_rec is None else dh_out[t] + dh_rec
        dc = (dh * o) * (1.0 - tc * tc)
        if dc_rec is not None:
            dc = dc + dc_rec
        dgates = np.concatenate(
            (
                (dc * g) * i * (1.0 - i),
                (dc * c_prev) * f * (1.0 - f),
                (dc * i) * (1.0 - g * g),
                (dh * tc) * o * (1.0 - o),
            ),
            axis=1,
        )
        p_bih._accumulate(dgates)
        p_ih._accumulate(_outer(x, dgates))
        p_hh._accumulate(_outer(h_prev, dgates))
        p_e._accumulate(_outer(previous, dgates @ w_ih.T))
        if t:
            dh_rec = dgates @ w_hh.T
            dc_rec = dc * f


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
