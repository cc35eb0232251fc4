"""Convolution and pooling layers via im2col.

These power the CNN-style header blocks of the NAS search space (z×z
convolutions, average/max pooling, downsampling — see Fig. 5 of the paper).
Inputs follow the ``(N, C, H, W)`` layout.

The im2col/col2im gather-index arrays depend only on
``(channels, height, width, kernel, stride, padding)`` — not on the batch
or the values — so they are memoized in a process-wide LRU cache shared
by :class:`Conv2d`, :class:`MaxPool2d` and :class:`AvgPool2d`.  Repeated
forwards over same-shaped activations (every training/eval loop) skip the
index construction entirely.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import init
from repro.nn.layers import Module, Parameter
from repro.nn.tensor import Tensor, is_grad_enabled


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _build_indices(
    c: int, h: int, w: int, kh: int, kw: int, sh: int, sw: int, ph: int, pw: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel {(kh, kw)} with stride {(sh, sw)}, padding {(ph, pw)} "
            f"does not fit input (C={c}, H={h}, W={w})"
        )

    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, c)
    i1 = sh * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = sw * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    # Cached arrays are shared across forwards; freeze them so an
    # accidental in-place edit cannot corrupt every future convolution.
    for arr in (k, i, j):
        arr.setflags(write=False)
    return k, i, j, out_h, out_w


# Bounded by entry count, not bytes: an entry is O(C*kh*kw*out_h*out_w)
# int64, so the cap is kept small enough that even large-shape workloads
# stay in the tens of MB.  Call clear_im2col_cache() to release.
_cached_indices = functools.lru_cache(maxsize=128)(_build_indices)

# Thread-safety audit: the cache is shared by every thread running
# conv/pool forwards (parallel device loops hit it concurrently).
# CPython's C ``lru_cache`` is internally locked — lookups, insertion,
# ``cache_clear`` and ``cache_info`` are each atomic without any
# external lock (worst case two racing misses both build the same
# arrays) — and the entries are marked read-only above so sharing them
# across threads is safe.


def clear_im2col_cache() -> None:
    _cached_indices.cache_clear()


# reprolint: unreached -- safety handle: the cache tests read hit counts through it to prove the
# index cache is shared across threads and cleared on request
def im2col_cache_info():
    """``functools.lru_cache`` statistics of the shared index cache."""
    return _cached_indices.cache_info()


def _im2col_indices(
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Index arrays mapping padded input pixels to column-matrix entries."""
    _n, c, h, w = x_shape
    return _cached_indices(c, h, w, *kernel, *stride, *padding)


def _zero_pad(data: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Spatial zero padding via slice assignment (much cheaper than np.pad)."""
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


def im2col(x: Tensor, kernel, stride=1, padding=0) -> Tuple[Tensor, int, int]:
    """Unfold ``x`` into a ``(C*kh*kw, N*out_h*out_w)`` column tensor."""
    kernel = _pair(kernel)
    stride = _pair(stride)
    padding = _pair(padding)
    ph, pw = padding
    if ph or pw:
        x = x.pad(((0, 0), (0, 0), (ph, ph), (pw, pw)))
    k, i, j, out_h, out_w = _im2col_indices(x.shape, kernel, stride, (0, 0))
    cols = x[:, k, i, j]  # (N, C*kh*kw, out_h*out_w)
    n = x.shape[0]
    cols = cols.transpose((1, 2, 0)).reshape(k.shape[0], -1)
    return cols, out_h, out_w


class Conv2d(Module):
    """2-D convolution implemented with im2col + matmul."""

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
        if not is_grad_enabled():
            return self._forward_inference(x)
        n = x.shape[0]
        cols, out_h, out_w = im2col(x, self.kernel_size, self.stride, self.padding)
        w_flat = self.weight.reshape(self.out_channels, -1)
        out = w_flat @ cols  # (out_channels, N*out_h*out_w)
        out = out.reshape(self.out_channels, out_h * out_w, n)
        out = out.transpose((2, 0, 1)).reshape(n, self.out_channels, out_h, out_w)
        if self.bias is not None:
            out = out + self.bias.reshape(1, self.out_channels, 1, 1)
        return out

    def _forward_inference(self, x: Tensor) -> Tensor:
        """Tape-free forward: strided sliding windows + a single GEMM.

        Computes the same sums of products as the taped im2col path but
        materializes the column matrix with one strided copy (no fancy
        indexing, no index arrays) and runs as a plain-numpy pipeline
        with no intermediate tensors or backward closures.
        """
        data = x.data
        n = data.shape[0]
        kh, kw = self.kernel_size
        ph, pw = self.padding
        if ph or pw:
            data = _zero_pad(data, ph, pw)
        view = _windows(data, self.kernel_size, self.stride)
        out_h, out_w = view.shape[2], view.shape[3]
        # (C, kh, kw, N, out_h, out_w) → rows match the weight layout.
        cols = view.transpose(1, 4, 5, 0, 2, 3).reshape(self.in_channels * kh * kw, -1)
        w_flat = self.weight.data.reshape(self.out_channels, -1)
        out = w_flat @ cols  # (out_channels, N*out_h*out_w)
        out = out.reshape(self.out_channels, n, out_h, out_w).transpose(1, 0, 2, 3)
        if self.bias is not None:
            out = out + self.bias.data.reshape(1, self.out_channels, 1, 1)
        return Tensor(out)


class _Pool2d(Module):
    """Shared machinery for max and average pooling."""

    def __init__(self, kernel_size, stride=None, padding=0) -> None:
        super().__init__()
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride) if stride is not None else self.kernel_size
        self.padding = _pair(padding)

    def _unfold(self, x: Tensor) -> Tuple[Tensor, int, int, int, int]:
        n, c, _h, _w = x.shape
        kh, kw = self.kernel_size
        # Pool each channel independently: reshape to (N*C, 1, H, W).
        x_flat = x.reshape(n * c, 1, x.shape[2], x.shape[3])
        cols, out_h, out_w = im2col(x_flat, self.kernel_size, self.stride, self.padding)
        # cols: (kh*kw, N*C*out_h*out_w)
        return cols, n, c, out_h, out_w

    def _windows_inference(self, x: Tensor) -> np.ndarray:
        """Tape-free ``(N, C, out_h, out_w, kh, kw)`` window view.

        Pooling reduces straight over the window axes — no column matrix
        is ever materialized.
        """
        data = x.data
        ph, pw = self.padding
        if ph or pw:
            data = _zero_pad(data, ph, pw)
        return _windows(data, self.kernel_size, self.stride)


class MaxPool2d(_Pool2d):
    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            return Tensor(self._windows_inference(x).max(axis=(-2, -1)))
        cols, n, c, out_h, out_w = self._unfold(x)
        pooled = cols.max(axis=0)
        pooled = pooled.reshape(out_h * out_w, n * c)
        return pooled.transpose((1, 0)).reshape(n, c, out_h, out_w)


class AvgPool2d(_Pool2d):
    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            return Tensor(self._windows_inference(x).mean(axis=(-2, -1)))
        cols, n, c, out_h, out_w = self._unfold(x)
        pooled = cols.mean(axis=0)
        pooled = pooled.reshape(out_h * out_w, n * c)
        return pooled.transpose((1, 0)).reshape(n, c, out_h, out_w)


class GlobalAvgPool2d(Module):
    """Average over the full spatial extent → ``(N, C)``."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))
