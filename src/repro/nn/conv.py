"""Convolution and pooling layers over sliding windows.

These power the CNN-style header blocks of the NAS search space (z×z
convolutions, average/max pooling, downsampling — see Fig. 5 of the paper).
Inputs follow the ``(N, C, H, W)`` layout.

Each op is one tape node: the forward reads a zero-copy
``(N, C, out_h, out_w, kh, kw)`` window view of the zero-padded input,
and the hand-written backward scatters the window gradients back with
``kh·kw`` strided slice adds (:func:`_scatter_windows`).  The arithmetic
replays the textbook chain of single-op nodes (pad, gather, transpose,
matmul, bias add; the oracle ``tests/reference/conv.py``) bit for bit:
conv columns in ``(out_h·out_w, N)`` order, pool reductions and scatter
adds in window order, and outputs in the chain's memory layout (a later
reduction over a map sums in layout order).  :meth:`Tensor._make` leaves
the result untaped when grad mode is off or no input requires grad, so
one path serves training and inference.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import init
from repro.nn.layers import Module, Parameter
from repro.nn.tensor import Tensor, _unbroadcast, get_default_dtype


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _zero_pad(data: np.ndarray, padding: Tuple[int, int]) -> np.ndarray:
    """Spatial zero padding via slice assignment (much cheaper than np.pad)."""
    ph, pw = padding
    if not (ph or pw):
        return data
    n, c, h, w = data.shape
    out = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=data.dtype)
    out[:, :, ph : ph + h, pw : pw + w] = data
    return out


def _windows(
    data: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int]
) -> np.ndarray:
    """Zero-copy ``(N, C, out_h, out_w, kh, kw)`` sliding-window view."""
    kh, kw = kernel
    if kh > data.shape[2] or kw > data.shape[3]:
        raise ValueError(
            f"kernel {kernel} does not fit input of shape {data.shape}"
        )
    return sliding_window_view(data, (kh, kw), axis=(2, 3))[
        :, :, :: stride[0], :: stride[1]
    ]


def _offsets(kernel: Tuple[int, int]) -> List[Tuple[int, int]]:
    """Kernel offsets in row-major order: the order of the chain's column
    rows, so of its window reductions and of its gradient scatter."""
    return [(i, j) for i in range(kernel[0]) for j in range(kernel[1])]


def _scatter_windows(
    grad: np.ndarray,
    x: Tensor,
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> None:
    """Accumulate ``(N, C, out_h, out_w, kh, kw)`` window gradients into
    ``x``: one strided slice add per kernel offset, in ``(i, j)``
    row-major order onto a zeroed ``x.dtype`` buffer — the order in which
    the gather's ``np.add.at`` reached each pixel.  A wider ``grad`` adds
    in its own precision and rounds per add, as ``np.add.at`` does."""
    _n, _c, out_h, out_w, kh, kw = grad.shape
    sh, sw = stride
    ph, pw = padding
    n, c, h, w = x.shape
    full = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    for i, j in _offsets((kh, kw)):
        rows = slice(i, i + sh * (out_h - 1) + 1, sh)
        cols = slice(j, j + sw * (out_w - 1) + 1, sw)
        full[:, :, rows, cols] += grad[:, :, :, :, i, j]
    x._accumulate(full[:, :, ph : ph + h, pw : pw + w])


class Conv2d(Module):
    """2-D convolution: one GEMM over the window columns."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size,
        stride=1,
        padding=0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        # Fall back to the shared per-thread stream (NOT a fresh
        # ``default_rng(0)``): convolutions built without an explicit rng
        # must not all receive identical weights.
        rng = rng if rng is not None else init.default_generator()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        kh, kw = self.kernel_size
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kh, kw), rng)
        )
        self.bias = Parameter(init.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        view = _windows(_zero_pad(x.data, self.padding), self.kernel_size, self.stride)
        n, c, out_h, out_w, kh, kw = view.shape
        o = self.out_channels
        # A C-ordered (C·kh·kw, out_h·out_w·N) copy: rows match the weight
        # layout and columns run sample-fastest, so both GEMMs see the
        # chain's operands (a reshape alone may return a strided view).
        cols = np.ascontiguousarray(view.transpose(1, 4, 5, 2, 3, 0))
        cols = cols.reshape(c * kh * kw, -1)
        w_flat = self.weight.data.reshape(o, -1)
        out = (w_flat @ cols).reshape(o, out_h * out_w, n)
        out = out.transpose(2, 0, 1).reshape(n, o, out_h, out_w)
        bias = self.bias
        if bias is not None:
            out = out + bias.data.reshape(1, o, 1, 1)
        weight = self.weight

        def backward(grad: np.ndarray) -> None:
            if bias is not None and bias.requires_grad:
                bias._accumulate(_unbroadcast(grad, (1, o, 1, 1)).reshape(o))
            g = grad.reshape(n, o, out_h * out_w).transpose(1, 2, 0).reshape(o, -1)
            if weight.requires_grad:
                weight._accumulate((g @ cols.T).reshape(weight.shape))
            if x.requires_grad:
                dcols = (w_flat.T @ g).reshape(c, kh, kw, out_h, out_w, n)
                _scatter_windows(
                    dcols.transpose(5, 0, 3, 4, 1, 2), x, self.stride, self.padding
                )

        parents = (x, weight) if bias is None else (x, weight, bias)
        return Tensor._make(out, parents, backward)


class _Pool2d(Module):
    """Shared configuration of max and average pooling."""

    def __init__(self, kernel_size, stride=None, padding=0) -> None:
        super().__init__()
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride) if stride is not None else self.kernel_size
        self.padding = _pair(padding)

    def _windows(self, x: Tensor) -> np.ndarray:
        return _windows(_zero_pad(x.data, self.padding), self.kernel_size, self.stride)

    def _node(self, pooled: np.ndarray, x: Tensor, backward) -> Tensor:
        """The pooled map as one node, laid out position-major — the
        ``(out_h, out_w, N, C)`` memory order the chain's reshapes leave
        it in, which a later reduction over the map (the header's spatial
        mean) sums in."""
        pooled = np.ascontiguousarray(pooled.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1)
        return Tensor._make(pooled, (x,), backward)


class MaxPool2d(_Pool2d):
    def forward(self, x: Tensor) -> Tensor:
        view = self._windows(x)
        # ``np.maximum`` down the window in order, as the chain's
        # ``Tensor.max`` reduces (which of a ±0.0 tie survives is order's).
        first, *rest = _offsets(self.kernel_size)
        pooled = view[..., first[0], first[1]].copy()
        for i, j in rest:
            np.maximum(pooled, view[..., i, j], out=pooled)

        def backward(grad: np.ndarray) -> None:
            mask = view == pooled[..., None, None]
            # Split the gradient equally among ties (float64 quotients,
            # as the chain's ``Tensor.max`` computes them).
            counts = mask.sum(axis=(-2, -1), keepdims=True)
            _scatter_windows(
                grad[..., None, None] * mask / counts, x, self.stride, self.padding
            )

        return self._node(pooled, x, backward)


class AvgPool2d(_Pool2d):
    def forward(self, x: Tensor) -> Tensor:
        view = self._windows(x)
        kh, kw = self.kernel_size
        # ``Tensor.mean``'s form: a sum from +0.0 in window order, times
        # the engine-dtype reciprocal of the count.
        total = np.zeros(view.shape[:4], view.dtype)
        for i, j in _offsets(self.kernel_size):
            total += view[..., i, j]
        scale = np.asarray(1.0 / (kh * kw), dtype=get_default_dtype())

        def backward(grad: np.ndarray) -> None:
            g = np.broadcast_to((grad * scale)[..., None, None], view.shape)
            _scatter_windows(g, x, self.stride, self.padding)

        return self._node(total * scale, x, backward)


class GlobalAvgPool2d(Module):
    """Average over the full spatial extent → ``(N, C)``."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))
