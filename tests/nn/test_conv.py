"""Tests for convolution and pooling layers."""

import numpy as np
import pytest

from repro.nn.conv import (
    AvgPool2d,
    Conv2d,
    GlobalAvgPool2d,
    MaxPool2d,
)
from repro.nn.tensor import Tensor, using_dtype
from tests.helpers import check_gradient

RNG = np.random.default_rng(5)


class TestConv2d:
    def test_output_shape(self):
        conv = Conv2d(3, 8, kernel_size=3, stride=1, padding=1, rng=RNG)
        out = conv(Tensor(RNG.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 8, 8, 8)

    def test_stride_and_padding_shapes(self):
        conv = Conv2d(1, 4, kernel_size=3, stride=2, padding=1, rng=RNG)
        out = conv(Tensor(RNG.normal(size=(1, 1, 9, 9))))
        assert out.shape == (1, 4, 5, 5)

    def test_matches_naive_convolution(self):
        # atol=1e-10 against an independent-order reference needs the
        # full float64 pipeline, not the float32 engine default.
        with using_dtype("float64"):
            conv = Conv2d(2, 3, kernel_size=2, stride=1, padding=0, bias=True, rng=RNG)
            x = RNG.normal(size=(1, 2, 4, 4))
            out = conv(Tensor(x)).data

        w, b = conv.weight.data, conv.bias.data
        expected = np.zeros((1, 3, 3, 3))
        for oc in range(3):
            for i in range(3):
                for j in range(3):
                    patch = x[0, :, i : i + 2, j : j + 2]
                    expected[0, oc, i, j] = (patch * w[oc]).sum() + b[oc]
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_input_gradient(self):
        conv = Conv2d(2, 3, kernel_size=3, padding=1, rng=RNG)
        x = RNG.normal(size=(1, 2, 5, 5))
        check_gradient(lambda t: (conv(t) ** 2).sum(), x, atol=1e-4)

    def test_weight_gradient(self):
        conv = Conv2d(1, 2, kernel_size=2, rng=RNG)
        x = Tensor(RNG.normal(size=(2, 1, 4, 4)))
        (conv(x) ** 2).sum().backward()
        assert conv.weight.grad.shape == (2, 1, 2, 2)
        assert conv.bias.grad.shape == (2,)

    def test_kernel_too_large_raises(self):
        conv = Conv2d(1, 1, kernel_size=5)
        with pytest.raises(ValueError):
            conv(Tensor(np.ones((1, 1, 3, 3))))

    def test_1x1_conv_is_channel_mix(self):
        with using_dtype("float64"):
            conv = Conv2d(4, 2, kernel_size=1, bias=False, rng=RNG)
            x = RNG.normal(size=(1, 4, 3, 3))
            out = conv(Tensor(x)).data
        w = conv.weight.data.reshape(2, 4)
        expected = np.einsum("oc,nchw->nohw", w, x)
        np.testing.assert_allclose(out, expected, atol=1e-10)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(Tensor(x)).data
        np.testing.assert_allclose(out, [[[[5, 7], [13, 15]]]])

    def test_avg_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = AvgPool2d(2)(Tensor(x)).data
        np.testing.assert_allclose(out, [[[[2.5, 4.5], [10.5, 12.5]]]])

    def test_max_pool_gradient(self):
        x = RNG.normal(size=(1, 2, 4, 4))
        check_gradient(lambda t: (MaxPool2d(2)(t) ** 2).sum(), x, atol=1e-4)

    def test_avg_pool_gradient(self):
        x = RNG.normal(size=(1, 2, 4, 4))
        check_gradient(lambda t: (AvgPool2d(2)(t) ** 2).sum(), x, atol=1e-4)

    def test_pool_with_stride(self):
        out = MaxPool2d(2, stride=1)(Tensor(np.zeros((1, 1, 4, 4))))
        assert out.shape == (1, 1, 3, 3)

    def test_multichannel_independence(self):
        x = np.zeros((1, 2, 2, 2))
        x[0, 0] = 1.0
        x[0, 1] = 2.0
        out = MaxPool2d(2)(Tensor(x)).data
        np.testing.assert_allclose(out[0, :, 0, 0], [1.0, 2.0])

    def test_global_avg_pool(self):
        x = Tensor(RNG.normal(size=(3, 5, 4, 4)))
        out = GlobalAvgPool2d()(x)
        assert out.shape == (3, 5)
        np.testing.assert_allclose(out.data, x.data.mean(axis=(2, 3)))

