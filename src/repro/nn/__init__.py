"""From-scratch neural-network substrate (autograd, layers, optimizer).

This subpackage replaces PyTorch for the reproduction: a reverse-mode
autograd :class:`~repro.nn.tensor.Tensor`, standard layers (Linear,
LayerNorm, Conv2d, an LSTM cell, multi-head self-attention), Transformer
encoder blocks with maskable width/depth, and one fused Adam engine
(:class:`FleetOptimizer`, with :class:`Adam` as its one-member form).

Engine state (grad mode via :func:`no_grad` / :func:`set_grad_enabled`,
compute dtype via :func:`set_default_dtype` / :func:`using_dtype`) is
**context-local**, never process-global: toggling it in one thread
cannot drop another thread's autograd tape or change its precision.
The :func:`default_generator` fallback-init streams are per-thread, so
layers can be constructed and run from the thread-parallel device
loops in :mod:`repro.distributed.executor`.
"""

from repro.nn import functional
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.conv import (
    AvgPool2d,
    Conv2d,
    GlobalAvgPool2d,
    MaxPool2d,
)
from repro.nn.init import default_generator, set_seed
from repro.nn.layers import (
    Activation,
    Linear,
    LayerNorm,
    MLP,
    Module,
    Parameter,
    Sequential,
)
from repro.nn.lstm import LSTMCell
from repro.nn.optim import Adam, FleetOptimizer, clip_grad_norm
from repro.nn.serialization import json_nbytes
from repro.nn.tensor import (
    Tensor,
    concatenate,
    enable_grad,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    ones,
    set_default_dtype,
    set_grad_enabled,
    stack,
    using_dtype,
    where,
    zeros,
)
from repro.nn.transformer import TransformerEncoder, TransformerEncoderLayer

__all__ = [
    "Activation",
    "Adam",
    "AvgPool2d",
    "Conv2d",
    "GlobalAvgPool2d",
    "LSTMCell",
    "LayerNorm",
    "Linear",
    "MLP",
    "MaxPool2d",
    "Module",
    "MultiHeadSelfAttention",
    "Parameter",
    "Sequential",
    "Tensor",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "clip_grad_norm",
    "concatenate",
    "default_generator",
    "enable_grad",
    "functional",
    "get_default_dtype",
    "is_grad_enabled",
    "json_nbytes",
    "no_grad",
    "ones",
    "set_default_dtype",
    "set_grad_enabled",
    "set_seed",
    "stack",
    "using_dtype",
    "where",
    "zeros",
]
