"""The im2col chain: convolution and pooling as single-op tape nodes.

:class:`~repro.nn.conv.Conv2d`, :class:`~repro.nn.conv.MaxPool2d` and
:class:`~repro.nn.conv.AvgPool2d` as ``src/`` ran them under a recording
tape before each became one window node: zero-pad
(:meth:`Tensor.pad`), gather every window through fancy-index arrays
(``Tensor.__getitem__``, whose backward is an ``np.add.at`` scatter),
transpose and reshape into a ``(C·kh·kw, out_h·out_w·N)`` column matrix,
then a matmul + bias add (conv) or a max / mean over the kernel rows
(pools, each channel unfolded as its own image), and reshapes back.
Ten to twelve nodes an op, each keeping its output and its closure.  The
index construction is frozen here (``src/`` no longer has it), so the
fused ops' forwards and every gradient have an independent right-hand
side to equal bit for bit.

Install it with ``monkeypatch.setattr(Conv2d, "forward",
chained_conv_forward)`` (and likewise ``chained_max_pool_forward`` /
``chained_avg_pool_forward`` for the pools) to run a whole model on the
chain.
"""

from typing import Tuple

import numpy as np

from repro.nn.tensor import Tensor


def _indices(c: int, h: int, w: int, kernel, stride) -> Tuple[np.ndarray, ...]:
    """``(k, i, j, out_h, out_w)``: the channel, row and column of every
    column-matrix entry in the (already padded) input."""
    kh, kw = kernel
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"kernel {kernel} does not fit input (C={c}, H={h}, W={w})")
    i0 = np.tile(np.repeat(np.arange(kh), kw), c)
    i1 = sh * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = sw * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    return k, i, j, out_h, out_w


def im2col(x: Tensor, kernel, stride, padding) -> Tuple[Tensor, int, int]:
    """Unfold ``x`` into a ``(C·kh·kw, out_h·out_w·N)`` column tensor."""
    ph, pw = padding
    if ph or pw:
        x = x.pad(((0, 0), (0, 0), (ph, ph), (pw, pw)))
    _n, c, h, w = x.shape
    k, i, j, out_h, out_w = _indices(c, h, w, kernel, stride)
    cols = x[:, k, i, j]  # (N, C·kh·kw, out_h·out_w)
    cols = cols.transpose((1, 2, 0)).reshape(k.shape[0], -1)
    return cols, out_h, out_w


def chained_conv_forward(self, x: Tensor) -> Tensor:
    """:meth:`Conv2d.forward` as the im2col + matmul chain."""
    n = x.shape[0]
    cols, out_h, out_w = im2col(x, self.kernel_size, self.stride, self.padding)
    w_flat = self.weight.reshape(self.out_channels, -1)
    out = w_flat @ cols  # (out_channels, out_h·out_w·N)
    out = out.reshape(self.out_channels, out_h * out_w, n)
    out = out.transpose((2, 0, 1)).reshape(n, self.out_channels, out_h, out_w)
    if self.bias is not None:
        out = out + self.bias.reshape(1, self.out_channels, 1, 1)
    return out


def _unfold(pool, x: Tensor) -> Tuple[Tensor, int, int, int, int]:
    """Every channel as its own one-channel image: ``(kh·kw, …)`` columns."""
    n, c, h, w = x.shape
    x_flat = x.reshape(n * c, 1, h, w)
    cols, out_h, out_w = im2col(x_flat, pool.kernel_size, pool.stride, pool.padding)
    return cols, n, c, out_h, out_w


def chained_max_pool_forward(self, x: Tensor) -> Tensor:
    """:meth:`MaxPool2d.forward` as the chain (``Tensor.max`` over rows)."""
    cols, n, c, out_h, out_w = _unfold(self, x)
    pooled = cols.max(axis=0).reshape(out_h * out_w, n * c)
    return pooled.transpose((1, 0)).reshape(n, c, out_h, out_w)


def chained_avg_pool_forward(self, x: Tensor) -> Tensor:
    """:meth:`AvgPool2d.forward` as the chain (``Tensor.mean`` over rows)."""
    cols, n, c, out_h, out_w = _unfold(self, x)
    pooled = cols.mean(axis=0).reshape(out_h * out_w, n * c)
    return pooled.transpose((1, 0)).reshape(n, c, out_h, out_w)
