"""The chained controller rollout: one tape node per op.

:meth:`ArchitectureController.sample` as ``src/`` ran it before the
rollout became one fused node (:mod:`repro.core.controller`): per
decision an embedding linear, the LSTM step (two linears, an add, four
gate slices and their nonlinearities, three products, an add and a
``tanh``), the output linear, the vocabulary mask, a log-softmax, an
index and a running add — about 14 nodes a decision, each keeping its
output and its closure.  The log-softmax, the one-hot encoding and the
LSTM step are frozen here (``src/`` no longer has them), so the fused
rollout's decisions, log-probability and every gradient have an
independent right-hand side to equal bit for bit.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.core.controller import SampledArchitecture
from repro.models.blocks import HeaderSpec
from repro.nn.tensor import Tensor, get_default_dtype


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsumexp

    def backward(grad: np.ndarray) -> None:
        soft = np.exp(out_data)
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Plain numpy one-hot encoding in the engine dtype."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=get_default_dtype())
    np.put_along_axis(
        out.reshape(-1, num_classes),
        indices.reshape(-1, 1),
        1.0,
        axis=1,
    )
    return out


def lstm_cell_forward(
    cell, x: Tensor, state: Optional[Tuple[Tensor, Tensor]] = None
) -> Tuple[Tensor, Tensor]:
    """One LSTM step ``(x, (h, c)) -> (h', c')`` on ``cell``'s weights:
    the four gates come from one fused affine map of ``x`` and one of
    ``h``, sliced in the order input, forget, cell, output."""
    n = x.shape[0]
    if state is None:
        h = Tensor(np.zeros((n, cell.hidden_size)))
        c = Tensor(np.zeros((n, cell.hidden_size)))
    else:
        h, c = state

    gates = cell.ih(x) + cell.hh(h)
    hs = cell.hidden_size
    i = gates[:, 0 * hs : 1 * hs].sigmoid()
    f = gates[:, 1 * hs : 2 * hs].sigmoid()
    g = gates[:, 2 * hs : 3 * hs].tanh()
    o = gates[:, 3 * hs : 4 * hs].sigmoid()

    c_next = f * c + i * g
    h_next = o * c_next.tanh()
    return h_next, c_next


def _masked_logits(controller, hidden: Tensor, vocab: int) -> Tensor:
    logits = controller.out(hidden)  # (1, max_vocab)
    if vocab < controller.max_vocab:
        mask = np.full((1, controller.max_vocab), -1e9)
        mask[0, :vocab] = 0.0
        logits = logits + Tensor(mask)
    return logits


def chained_sample(
    controller, rng: np.random.Generator, greedy: bool = False
) -> SampledArchitecture:
    """Draw one architecture through the chain; same contract as
    :meth:`ArchitectureController.sample`."""
    state: Optional[Tuple[Tensor, Tensor]] = None
    previous = np.zeros((1, controller.max_vocab))  # start token: all-zero
    log_prob: Optional[Tensor] = None
    decisions: List[int] = []

    for vocab in controller.step_vocab_sizes():
        embedded = controller.embed(Tensor(previous))
        h, c = lstm_cell_forward(controller.cell, embedded, state)
        state = (h, c)
        logits = _masked_logits(controller, h, vocab)
        log_probs = log_softmax(logits, axis=-1)
        probs = np.exp(log_probs.data[0, :vocab])
        probs = probs / probs.sum()
        if greedy:
            choice = int(np.argmax(probs))
        else:
            choice = int(rng.choice(vocab, p=probs))
        decisions.append(choice)
        step_lp = log_probs[0, choice]
        log_prob = step_lp if log_prob is None else log_prob + step_lp
        previous = one_hot(np.array([choice]), controller.max_vocab)

    assert log_prob is not None
    spec = HeaderSpec.from_sequence(decisions, repeats=controller.repeats)
    return SampledArchitecture(spec=spec, log_prob=log_prob)
