"""Fused differentiable operations built on :mod:`repro.nn.tensor`.

These cover the numerically-sensitive compound ops (log-softmax and the
losses, layer normalization) with hand-derived backward passes where
fusing is materially faster or more stable than composing primitives.

Layer norm, linear, softmax attention and GELU each have **one
numpy body** here (``*_forward`` / ``*_backward``, arrays in and out).
The single-op tape functions below wrap them, and so does the fused
encoder block (:mod:`repro.nn.transformer`), so the two agree bit for
bit by construction.  Between two ops a body passes its result through
``_as_array`` — the down-cast a :class:`Tensor` applies to its data —
so a fused caller sees exactly the dtypes a chain of tape nodes would.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.tensor import (
    Tensor,
    _as_array,
    _pow,
    _unbroadcast,
    get_default_dtype,
)


# ----------------------------------------------------------------------
# Numpy bodies
# ----------------------------------------------------------------------
def softmax_forward(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


def softmax_backward(grad: np.ndarray, out: np.ndarray, axis: int = -1) -> np.ndarray:
    # d softmax = s * (grad - sum(grad * s))
    dot = (grad * out).sum(axis=axis, keepdims=True)
    return out * (grad - dot)


def layer_norm_forward(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(out, x_hat, inv_std)`` of layer normalization over the last axis."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mu) * inv_std
    return x_hat * gamma + beta, x_hat, inv_std


def layer_norm_backward(
    grad: np.ndarray,
    gamma: Tensor,
    beta: Tensor,
    x_hat: np.ndarray,
    inv_std: np.ndarray,
    need_input: bool = True,
) -> Optional[np.ndarray]:
    """Feed ``gamma`` and ``beta`` their gradients; return the input's."""
    axes = tuple(range(grad.ndim - 1))
    if gamma.requires_grad:
        gamma._accumulate((grad * x_hat).sum(axis=axes))
    if beta.requires_grad:
        beta._accumulate(grad.sum(axis=axes))
    if not need_input:
        return None
    g = grad * gamma.data
    return (
        g - g.mean(axis=-1, keepdims=True)
        - x_hat * (g * x_hat).mean(axis=-1, keepdims=True)
    ) * inv_std


def linear_forward(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray]
) -> np.ndarray:
    """``x @ weight + bias`` over the last axis."""
    out = _as_array(x @ weight)
    return out if bias is None else out + bias


def linear_backward(
    grad: np.ndarray,
    x: np.ndarray,
    weight: Tensor,
    bias: Optional[Tensor],
    need_input: bool = True,
) -> Optional[np.ndarray]:
    """Feed ``weight`` and ``bias`` their gradients; return the input's.

    The reductions are a broadcast matmul's and a broadcast add's: the
    weight gradient is ``xᵀ @ grad`` per leading index, then summed by
    ``_unbroadcast``; the bias gradient is summed the same way.
    """
    if bias is not None and bias.requires_grad:
        bias._accumulate(grad)
    if weight.requires_grad:
        gw = np.swapaxes(x, -1, -2) @ grad
        weight._accumulate(_unbroadcast(gw, weight.data.shape))
    if not need_input:
        return None
    return _unbroadcast(grad @ np.swapaxes(weight.data, -1, -2), x.shape)


def attention_forward(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(heads, attn)``: ``attn = softmax(q kᵀ · scale)``, ``heads = attn v``.

    ``scale`` is a 0-d array of the engine dtype (what a Python scalar
    becomes as a tape operand).
    """
    scores = _as_array(_as_array(q @ k.swapaxes(-1, -2)) * scale)
    attn = _as_array(softmax_forward(scores, axis=-1))
    return _as_array(attn @ v), attn


def attention_backward(
    grad: np.ndarray,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    attn: np.ndarray,
    scale: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(gq, gk, gv)`` for a C-contiguous upstream ``grad`` on the heads.

    Each matmul takes the forward's own operand views (``k`` serves as
    ``(kᵀ)ᵀ``: the same strides), so the BLAS path — and every rounded
    bit — is the one the chained ops took.
    """
    g_attn = grad @ np.swapaxes(v, -1, -2)
    gv = np.swapaxes(attn, -1, -2) @ grad
    g_scores = softmax_backward(g_attn, attn, axis=-1) * scale
    gq = g_scores @ k
    gk = np.swapaxes(np.swapaxes(q, -1, -2) @ g_scores, -1, -2)
    return gq, gk, gv


def gelu_forward(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(out, t)``: tanh-approximate GELU and the tanh its backward reads.

    ``c`` is a scalar of ``x``'s dtype: an ``np.float64`` constant would
    promote a float32 ``x`` — and every gradient below it — to float64.
    """
    c = x.dtype.type(np.sqrt(2.0 / np.pi))
    inner = c * (x + 0.044715 * _pow(x, 3))
    t = np.tanh(inner)
    return 0.5 * x * (1.0 + t), t


def gelu_backward(grad: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    c = x.dtype.type(np.sqrt(2.0 / np.pi))
    dinner = c * (1.0 + 3 * 0.044715 * _pow(x, 2))
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
    return grad * local


# ----------------------------------------------------------------------
# Single-op tape functions
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight + bias`` as one tape node."""
    parents = (x, weight) if bias is None else (x, weight, bias)
    out_data = linear_forward(x.data, weight.data, None if bias is None else bias.data)

    def backward(grad: np.ndarray) -> None:
        gx = linear_backward(grad, x.data, weight, bias, need_input=x.requires_grad)
        if gx is not None:
            x._accumulate(gx)

    return Tensor._make(out_data, parents, backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsumexp

    def backward(grad: np.ndarray) -> None:
        soft = np.exp(out_data)
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Cross-entropy between ``logits`` ``(N, C)`` and integer ``targets`` ``(N,)``.

    Parameters
    ----------
    logits:
        Unnormalized class scores.
    targets:
        Integer class indices (plain numpy array, no gradient).
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"expected 2-D logits, got shape {logits.shape}")
    n = logits.shape[0]
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} incompatible with logits {logits.shape}")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - logsumexp
    losses = -log_probs[np.arange(n), targets]

    if reduction == "mean":
        out_data = np.asarray(losses.mean())
        scale = 1.0 / n
    elif reduction == "sum":
        out_data = np.asarray(losses.sum())
        scale = 1.0
    elif reduction == "none":
        out_data = losses
        scale = None
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def backward(grad: np.ndarray) -> None:
        g = np.exp(log_probs)
        g[np.arange(n), targets] -= 1.0
        if scale is None:
            g = g * np.asarray(grad).reshape(n, 1)
        else:
            g = g * (np.asarray(grad) * scale)
        logits._accumulate(g)

    return Tensor._make(out_data, (logits,), backward)


def fleet_cross_entropy(logits: Tensor, targets: np.ndarray, segments):
    """Summed per-segment mean cross-entropy over one stacked tensor.

    The fleet trainer (:mod:`repro.train.fleet`) stacks many devices'
    batches row-wise into one ``(N, C)`` logits tensor; ``segments`` is
    the list of ``(lo, hi)`` row ranges (one per device) partitioning
    its rows.  Returns ``(total, losses)``: ``total`` is the *sum* of
    the per-segment mean losses as a single tensor, ``losses`` each
    segment's mean as a plain float (for per-member epoch records).
    The log-softmax runs **once** over the stacked rows
    (row-independent, so each row's value is bit-identical to computing
    its segment alone).

    Gradient contract — the per-device *block-diagonal row mask*:
    backpropagating ``total`` writes the whole gradient in one
    ``(N, C)`` pass, each segment's rows scaled by its own ``1/n_seg``
    and untouched by every other segment's loss.  Per row it is
    bit-for-bit the gradient
    ``cross_entropy(logits[lo:hi], targets[lo:hi])`` would produce with
    upstream gradient 1 — the serial per-member training step, which is
    the invariant that makes fleet training reproduce the serial
    per-device path exactly.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"expected 2-D logits, got shape {logits.shape}")
    n = logits.shape[0]
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} incompatible with logits {logits.shape}")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - logsumexp
    row_losses = -log_probs[np.arange(n), targets]

    segments = [(int(lo), int(hi)) for lo, hi in segments]
    expected = 0
    losses: list = []
    for lo, hi in segments:
        if lo != expected or not lo < hi <= n:
            raise ValueError(
                f"segments must partition [0, {n}) contiguously; got ({lo}, {hi})"
            )
        expected = hi
        losses.append(float(row_losses[lo:hi].mean()))
    if expected != n:
        raise ValueError(f"segments cover [0, {expected}) but logits have {n} rows")
    # Summed exactly like chaining ``loss_0 + loss_1 + ...`` would.
    acc = losses[0]
    for value in losses[1:]:
        acc = acc + value
    total_value = np.asarray(acc)

    def backward(grad: np.ndarray) -> None:
        g = np.exp(log_probs)
        g[np.arange(n), targets] -= 1.0
        upstream = np.asarray(grad)
        for lo, hi in segments:
            # Same scalar product as cross_entropy's ``g * (grad * scale)``.
            g[lo:hi] *= upstream * (1.0 / (hi - lo))
        logits._accumulate(g)

    return Tensor._make(total_value, (logits,), backward), losses


def mse_loss(prediction: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Mean squared error; ``target`` may be a tensor or plain array."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target
    sq = diff * diff
    if reduction == "mean":
        return sq.mean()
    if reduction == "sum":
        return sq.sum()
    if reduction == "none":
        return sq
    raise ValueError(f"unknown reduction {reduction!r}")


def layer_norm(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5
) -> Tensor:
    """Layer normalization over the last axis with affine parameters."""
    out_data, x_hat, inv_std = layer_norm_forward(x.data, gamma.data, beta.data, eps)

    def backward(grad: np.ndarray) -> None:
        gx = layer_norm_backward(
            grad, gamma, beta, x_hat, inv_std, need_input=x.requires_grad
        )
        if gx is not None:
            x._accumulate(gx)

    return Tensor._make(out_data, (x, gamma, beta), backward)


def gelu(x: Tensor) -> Tensor:
    """Gaussian Error Linear Unit (tanh approximation)."""
    out_data, t = gelu_forward(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(gelu_backward(grad, x.data, t))

    return Tensor._make(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def identity(x: Tensor) -> Tensor:
    return x


def accuracy(logits: Tensor, targets: np.ndarray) -> float:
    """Fraction of rows whose argmax matches ``targets`` (no gradient)."""
    predictions = logits.data.argmax(axis=-1)
    return float((predictions == np.asarray(targets)).mean())


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Plain numpy one-hot encoding helper for controller inputs."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=get_default_dtype())
    np.put_along_axis(
        out.reshape(-1, num_classes),
        indices.reshape(-1, 1),
        1.0,
        axis=1,
    )
    return out
