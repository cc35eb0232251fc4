"""The window conv and pool ops against the im2col chain (the oracle).

``Conv2d``, ``MaxPool2d`` and ``AvgPool2d`` each run one window forward
and hand the tape one node with a hand-written backward.  The oracle
``tests/reference/conv.py`` is the same op as a chain of single-op tape
nodes (pad, fancy-index gather, transpose, reshape, matmul / reduction,
bias add).  At both dtypes the two must return the same forward and
every gradient, bit for bit (byte equality, signed zeros included): the
fused backward replays the chain's GEMM operands, sum order and
``np.add.at`` scatter order.
"""

import numpy as np
import pytest

from repro.models.blocks import BlockSpec, HeaderSpec
from repro.models.header_dag import DAGHeader
from repro.models.headers import BackboneFeatures
from repro.nn import functional as F
from repro.nn.conv import AvgPool2d, Conv2d, MaxPool2d
from repro.nn.tensor import Tensor, no_grad, using_dtype
from tests.reference.conv import (
    chained_avg_pool_forward,
    chained_conv_forward,
    chained_max_pool_forward,
)

DTYPES = ["float32", "float64"]
#: (kernel, stride, padding) of every conv in the code: the header's 1×1,
#: 3×3 and 5×5 ops, the baselines' strided stem and the patchify conv.
CONV_SHAPES = [(1, 1, 0), (3, 1, 1), (5, 1, 2), (3, 2, 1), (4, 4, 0)]
#: The header's shape-preserving pools, downsampling, and a strided pool.
POOL_SHAPES = [(3, 1, 1), (2, 2, 0), (3, 2, 1)]
#: (N, C, H): a header-sized map, an odd size the windows do not tile,
#: and a map the patchify kernel covers whole (a 1×1 output).
INPUTS = [(4, 6, 8), (2, 3, 7), (3, 5, 4)]
CHAINED = {MaxPool2d: chained_max_pool_forward, AvgPool2d: chained_avg_pool_forward}


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _run(forward, module, x_data, grad, params):
    """Forward + backward from ``grad``; the output, dx and each param grad."""
    for p in params:
        p.grad = None
    x = Tensor(x_data.copy(), requires_grad=True)
    out = forward(module, x)
    out.backward(grad)
    return [out.data, x.grad] + [p.grad for p in params]


def _tie_heavy(rng, shape, dtype):
    """Values on a coarse grid: most pooling windows hold a tied maximum."""
    return (np.round(rng.normal(size=shape) * 1.5) / 1.5).astype(dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n,c,h", INPUTS)
@pytest.mark.parametrize("kernel,stride,padding", CONV_SHAPES)
@pytest.mark.parametrize("bias", [True, False])
def test_conv_equals_the_chain(dtype, n, c, h, kernel, stride, padding, bias):
    if kernel > h + 2 * padding:
        pytest.skip("kernel does not fit the input")
    with using_dtype(dtype):
        rng = np.random.default_rng(kernel * 31 + h)
        conv = Conv2d(c, 7, kernel, stride=stride, padding=padding, bias=bias, rng=rng)
        params = [conv.weight] + ([conv.bias] if bias else [])
        x = rng.normal(size=(n, c, h, h)).astype(dtype)
        side = (h + 2 * padding - kernel) // stride + 1
        grad = rng.normal(size=(n, 7, side, side)).astype(dtype)
        fused = _run(Conv2d.forward, conv, x, grad, params)
        chained = _run(chained_conv_forward, conv, x, grad, params)
    for a, b in zip(fused, chained):
        assert _same_bytes(a, b)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("pool_cls", [MaxPool2d, AvgPool2d])
@pytest.mark.parametrize("n,c,h", INPUTS)
@pytest.mark.parametrize("kernel,stride,padding", POOL_SHAPES)
def test_pool_equals_the_chain(dtype, pool_cls, n, c, h, kernel, stride, padding):
    """Tie-heavy inputs: a max pool splits a tied window's gradient in
    float64 quotients that reach overlapping pixels more than once."""
    with using_dtype(dtype):
        rng = np.random.default_rng(kernel * 31 + h)
        pool = pool_cls(kernel, stride=stride, padding=padding)
        x = _tie_heavy(rng, (n, c, h, h), dtype)
        side = (h + 2 * padding - kernel) // stride + 1
        grad = rng.normal(size=(n, c, side, side)).astype(dtype)
        fused = _run(pool_cls.forward, pool, x, grad, [])
        chained = _run(CHAINED[pool_cls], pool, x, grad, [])
    for a, b in zip(fused, chained):
        assert _same_bytes(a, b)


def test_frozen_input_trains_only_weights():
    """Over an input that needs no gradient (a frozen backbone's features)
    the conv skips the scatter; the weight gradients still equal the chain's."""
    rng = np.random.default_rng(0)
    conv = Conv2d(4, 5, 3, padding=1, rng=rng)
    x = Tensor(rng.normal(size=(3, 4, 6, 6)))
    grads = []
    for forward in (Conv2d.forward, chained_conv_forward):
        conv.zero_grad()
        (forward(conv, x) ** 2).sum().backward()
        grads.append((conv.weight.grad, conv.bias.grad))
    assert x.grad is None
    for a, b in zip(*grads):
        assert _same_bytes(a, b)


class TestOneNode:
    """A taped conv or pool is one node whose parents are exactly the
    inputs that require grad."""

    def test_conv_parents(self):
        conv = Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
        x = Tensor(np.ones((1, 2, 4, 4)), requires_grad=True)
        out = conv(x)
        assert out._parents == (x, conv.weight, conv.bias)
        frozen = conv(Tensor(np.ones((1, 2, 4, 4))))
        assert frozen._parents == (conv.weight, conv.bias)
        no_bias = Conv2d(2, 3, 3, bias=False, rng=np.random.default_rng(0))
        assert no_bias(x)._parents == (x, no_bias.weight)

    @pytest.mark.parametrize("pool_cls", [MaxPool2d, AvgPool2d])
    def test_pool_parents(self, pool_cls):
        x = Tensor(np.ones((1, 2, 4, 4)), requires_grad=True)
        out = pool_cls(3, stride=1, padding=1)(x)
        assert out._parents == (x,) and out._backward is not None

    @pytest.mark.parametrize("pool_cls", [MaxPool2d, AvgPool2d])
    def test_pool_over_untaped_input_is_tape_free(self, pool_cls):
        """Pooling frozen features records nothing, grad mode on."""
        out = pool_cls(2)(Tensor(np.ones((1, 2, 4, 4))))
        assert not out.requires_grad
        assert out._backward is None and out._parents == ()

    def test_no_grad_conv_is_tape_free(self):
        conv = Conv2d(2, 3, 3, rng=np.random.default_rng(0))
        with no_grad():
            out = conv(Tensor(np.ones((1, 2, 4, 4)), requires_grad=True))
        assert not out.requires_grad and out._parents == ()


@pytest.mark.parametrize("dtype", DTYPES)
def test_dag_header_equals_the_chain(dtype, monkeypatch):
    """A header over every conv and pool op trains one step identically on
    the fused ops and on the chain: loss and every parameter gradient."""
    spec = HeaderSpec(
        blocks=(BlockSpec(0, 1, 0, 1), BlockSpec(2, 1, 2, 4), BlockSpec(3, 2, 5, 6))
    )
    embed, patches, classes = 8, 16, 5
    rng = np.random.default_rng(3)
    cls = rng.normal(size=(6, embed))
    tokens = rng.normal(size=(6, patches, embed))
    labels = rng.integers(0, classes, size=6)

    def step():
        with using_dtype(dtype):
            header = DAGHeader(embed, patches, classes, spec, rng=np.random.default_rng(4))
            features = BackboneFeatures(Tensor(cls), Tensor(tokens), Tensor(tokens))
            loss = F.cross_entropy(header(features), labels)
            loss.backward()
        return [loss.data] + [p.grad for p in header.parameters()]

    fused = step()
    monkeypatch.setattr(Conv2d, "forward", chained_conv_forward)
    monkeypatch.setattr(MaxPool2d, "forward", chained_max_pool_forward)
    monkeypatch.setattr(AvgPool2d, "forward", chained_avg_pool_forward)
    chained = step()
    assert len(fused) == len(chained)
    for a, b in zip(fused, chained):
        assert _same_bytes(a, b)
