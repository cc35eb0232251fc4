"""Tests for fused functional ops (softmax, losses, layer norm)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.tensor import Tensor, using_dtype
from tests.helpers import check_gradient, numerical_gradient
from tests.reference.controller import log_softmax, one_hot

RNG = np.random.default_rng(7)


@pytest.fixture(autouse=True)
def _float64_engine():
    # The tolerance contracts here (1e-10 .. 1e-12) are statements
    # about the float64 kernels; run the file under the pre-flip dtype.
    with using_dtype("float64"):
        yield


class TestSoftmax:
    """The softmax body the attention node runs (``softmax_forward`` /
    ``softmax_backward``)."""

    def test_rows_sum_to_one(self):
        out = F.softmax_forward(RNG.normal(size=(4, 9)))
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_invariant_to_shift(self):
        x = RNG.normal(size=(3, 5))
        a = F.softmax_forward(x)
        b = F.softmax_forward(x + 100.0)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_gradient(self):
        x = RNG.normal(size=(2, 6))
        w = RNG.normal(size=(2, 6))
        analytic = F.softmax_backward(w, F.softmax_forward(x))
        numeric = numerical_gradient(lambda a: float((F.softmax_forward(a) * w).sum()), x)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5, rtol=1e-4)

    def test_log_softmax_gradient(self):
        x = RNG.normal(size=(3, 4))
        w = Tensor(RNG.normal(size=(3, 4)))
        check_gradient(lambda t: (log_softmax(t) * w).sum(), x)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(RNG.normal(size=(5, 7)))
        np.testing.assert_allclose(
            log_softmax(x).data, np.log(F.softmax_forward(x.data)), atol=1e-10
        )


class TestCrossEntropy:
    def test_matches_manual_computation(self):
        logits = Tensor(RNG.normal(size=(6, 4)))
        targets = RNG.integers(0, 4, size=6)
        loss = F.cross_entropy(logits, targets)
        probs = F.softmax_forward(logits.data)
        manual = -np.log(probs[np.arange(6), targets]).mean()
        np.testing.assert_allclose(float(loss.data), manual, atol=1e-10)

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    def test_gradient(self, reduction):
        targets = np.array([0, 2, 1])
        x = RNG.normal(size=(3, 4))
        check_gradient(lambda t: F.cross_entropy(t, targets, reduction=reduction), x)

    def test_none_reduction_shape(self):
        logits = Tensor(RNG.normal(size=(5, 3)))
        losses = F.cross_entropy(logits, np.zeros(5, dtype=int), reduction="none")
        assert losses.shape == (5,)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.ones((2, 3, 4))), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.ones((2, 3))), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.ones((2, 3))), np.zeros(2, dtype=int), reduction="bogus")

    def test_perfect_prediction_low_loss(self):
        logits = np.full((2, 3), -20.0)
        logits[0, 1] = 20.0
        logits[1, 2] = 20.0
        loss = F.cross_entropy(Tensor(logits), np.array([1, 2]))
        assert float(loss.data) < 1e-6


class TestMSE:
    def test_value_and_gradient(self):
        x = RNG.normal(size=(4, 3))
        target = Tensor(RNG.normal(size=(4, 3)))
        check_gradient(lambda t: F.mse_loss(t, target), x)

    def test_zero_for_identical(self):
        x = Tensor(RNG.normal(size=(5,)))
        assert float(F.mse_loss(x, x.detach()).data) == 0.0


class TestLayerNorm:
    def test_normalizes_last_axis(self):
        from repro.nn.layers import LayerNorm

        ln = LayerNorm(8)
        x = Tensor(RNG.normal(size=(3, 4, 8)) * 5 + 2)
        out = ln(x)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-4)

    def test_input_gradient(self):
        gamma = Tensor(np.ones(6), requires_grad=False)
        beta = Tensor(np.zeros(6), requires_grad=False)
        x = RNG.normal(size=(2, 6))
        w = Tensor(RNG.normal(size=(2, 6)))
        check_gradient(lambda t: (F.layer_norm(t, gamma, beta) * w).sum(), x)

    def test_affine_gradients(self):
        x = Tensor(RNG.normal(size=(3, 5)))
        gamma = Tensor(RNG.normal(size=5), requires_grad=True)
        beta = Tensor(RNG.normal(size=5), requires_grad=True)
        (F.layer_norm(x, gamma, beta) ** 2).sum().backward()
        assert gamma.grad.shape == (5,)
        assert beta.grad.shape == (5,)


class TestHelpers:
    def test_accuracy(self):
        logits = Tensor(np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.7]]))
        assert F.accuracy(logits, np.array([1, 0, 0])) == pytest.approx(2 / 3)

    def test_one_hot(self):
        out = one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(out, [[1, 0, 0], [0, 0, 1]])

    def test_one_hot_2d(self):
        out = one_hot(np.array([[0], [1]]), 2)
        assert out.shape == (2, 1, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(2, 6))
def test_property_softmax_simplex(n, c):
    x = np.random.default_rng(n * 10 + c).normal(size=(n, c)) * 3
    out = F.softmax_forward(x)
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(n), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5))
def test_property_cross_entropy_nonnegative(c):
    rng = np.random.default_rng(c)
    logits = Tensor(rng.normal(size=(4, c)))
    targets = rng.integers(0, c, size=4)
    assert float(F.cross_entropy(logits, targets).data) >= 0.0
