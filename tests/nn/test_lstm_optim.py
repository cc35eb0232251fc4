"""Tests for the LSTM controller cell (through the oracle's step), Adam and
gradient clipping."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.lstm import LSTMCell
from repro.nn.optim import Adam, FleetOptimizer, clip_grad_norm
from repro.nn.tensor import Tensor
from tests.helpers import check_gradient
from tests.reference.controller import lstm_cell_forward

RNG = np.random.default_rng(17)


def _unroll(cell, x):
    """Run ``cell`` over a ``(batch, time, features)`` sequence; returns
    the last hidden and cell state."""
    state = None
    for t in range(x.shape[1]):
        state = lstm_cell_forward(cell, Tensor(x[:, t]), state)
    return state


class TestLSTMCell:
    """The chained LSTM step of the controller oracle on an ``LSTMCell``'s
    weights: the reference the fused rollout is held to."""

    def test_state_shapes(self):
        cell = LSTMCell(4, 6, rng=RNG)
        h, c = lstm_cell_forward(cell, Tensor(RNG.normal(size=(3, 4))))
        assert h.shape == (3, 6) and c.shape == (3, 6)

    def test_state_threading(self):
        cell = LSTMCell(4, 6, rng=RNG)
        x = Tensor(RNG.normal(size=(2, 4)))
        h1, c1 = lstm_cell_forward(cell, x)
        h2, c2 = lstm_cell_forward(cell, x, (h1, c1))
        assert not np.allclose(h1.data, h2.data)

    def test_gradient_through_time(self):
        cell = LSTMCell(3, 4, rng=RNG)

        def run(t):
            h, c = lstm_cell_forward(cell, t)
            h, c = lstm_cell_forward(cell, t, (h, c))
            return (h**2).sum()

        check_gradient(run, RNG.normal(size=(1, 3)), atol=1e-4)

    def test_bounded_hidden_state(self):
        cell = LSTMCell(2, 3, rng=RNG)
        h, _c = lstm_cell_forward(cell, Tensor(RNG.normal(size=(5, 2)) * 100))
        assert (np.abs(h.data) <= 1.0).all()

    def test_unrolled_sequence_shapes(self):
        cell = LSTMCell(5, 8, rng=RNG)
        h, c = _unroll(cell, RNG.normal(size=(2, 6, 5)))
        assert h.shape == (2, 8) and c.shape == (2, 8)

    def test_longer_sequences_change_state(self):
        cell = LSTMCell(3, 4, rng=RNG)
        x = RNG.normal(size=(1, 8, 3))
        h_short, _ = _unroll(cell, x[:, :2])
        h_long, _ = _unroll(cell, x)
        assert not np.allclose(h_short.data, h_long.data)

    def test_can_fit_parity_task(self):
        """An unrolled cell trained with Adam learns to classify sequences
        by the sign of their sum — backprop through time end to end."""
        rng = np.random.default_rng(1)
        cell = LSTMCell(1, 12, rng=rng)
        head = Linear(12, 2, rng=rng)
        x = rng.normal(size=(40, 5, 1))
        y = (x.sum(axis=(1, 2)) > 0).astype(int)
        opt = Adam(cell.parameters() + head.parameters(), lr=5e-3)
        for _ in range(60):
            opt.zero_grad()
            h, _ = _unroll(cell, x)
            F.cross_entropy(head(h), y).backward()
            opt.step()
        h, _ = _unroll(cell, x)
        assert F.accuracy(head(h), y) > 0.85


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert np.abs(p.data).max() < 0.05

    def test_bias_correction_first_step(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        (p * 1.0).sum().backward()  # grad = 1
        opt.step()
        # With bias correction, the first step has magnitude ≈ lr.
        np.testing.assert_allclose(p.data.item(), 1.0 - 0.1, atol=1e-6)

    def test_weight_decay(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        opt = Adam([p], lr=0.01, weight_decay=1.0)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        assert p.data.item() < 2.0

    def test_skips_parameters_without_grad(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        Adam([p], lr=0.1).step()  # no backward yet; must not raise
        np.testing.assert_allclose(p.data, [1.0])

    def test_rejects_empty_params_and_bad_lr(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
        with pytest.raises(ValueError):
            Adam([Tensor(np.ones(1), requires_grad=True)], lr=0.0)

    @pytest.mark.parametrize(
        "betas", [(0.9, 1.0), (1.0, 0.999), (-0.1, 0.999), (0.9, 1.5), (0.9, np.nan)]
    )
    @pytest.mark.parametrize("optimizer", ["adam", "fleet"])
    def test_rejects_betas_outside_unit_interval(self, optimizer, betas):
        """beta2 = 1 makes the bias correction 1 - beta2**t zero: one step
        would turn every parameter into NaN."""
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError, match="betas"):
            if optimizer == "adam":
                Adam([p], betas=betas)
            else:
                FleetOptimizer([[p]], betas=betas)

    @pytest.mark.parametrize("eps", [0.0, -1e-8, np.nan])
    @pytest.mark.parametrize("optimizer", ["adam", "fleet"])
    def test_rejects_eps_that_is_not_positive(self, optimizer, eps):
        """eps = 0 divides 0 by 0 for every parameter whose gradient is
        zero, turning it into NaN."""
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError, match="eps"):
            if optimizer == "adam":
                Adam([p], eps=eps)
            else:
                FleetOptimizer([[p]], eps=eps)

    def test_boundary_hyperparameters_are_accepted(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.1, betas=(0.0, 0.0), eps=1e-12)
        p.grad = np.array([1.0])
        opt.step()
        assert np.isfinite(p.data).all()

    def test_fleet_boundary_hyperparameters_are_accepted(self):
        members = [[Tensor(np.array([1.0]), requires_grad=True)] for _ in range(2)]
        opt = FleetOptimizer(members, lr=0.1, betas=(0.0, 0.0), eps=1e-12)
        for (p,) in members:
            p.grad = np.array([0.0])  # zero gradient: 0 / (0 + eps), not 0 / 0
        opt.step()
        for (p,) in members:
            np.testing.assert_array_equal(p.data, [1.0])


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 10.0)
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_leaves_small_gradients(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([0.1, 0.1])
        clip_grad_norm([p], max_norm=5.0)
        np.testing.assert_allclose(p.grad, [0.1, 0.1])

    @pytest.mark.parametrize("max_norm", [-1.0, 0.0, np.inf, np.nan])
    def test_rejects_a_bound_that_is_not_finite_and_positive(self, max_norm):
        """A negative bound used to flip every gradient (silent ascent) and
        a zero one to erase them all; neither may touch a gradient."""
        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = np.array([1.0, 2.0, 2.0])
        with pytest.raises(ValueError, match="max_norm"):
            clip_grad_norm([p], max_norm=max_norm)
        np.testing.assert_array_equal(p.grad, [1.0, 2.0, 2.0])

    def test_skips_parameters_without_grad(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        q = Tensor(np.zeros(2), requires_grad=True)
        q.grad = np.array([3.0, 4.0])
        norm = clip_grad_norm([p, q], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert p.grad is None
        np.testing.assert_allclose(q.grad, [0.6, 0.8])

    def test_global_norm_scales_every_parameter_alike(self):
        """The bound is on the norm over all parameters together, not on
        each one: both gradients shrink by the same factor."""
        p = Tensor(np.zeros(1), requires_grad=True)
        q = Tensor(np.zeros(1), requires_grad=True)
        p.grad, q.grad = np.array([3.0]), np.array([4.0])
        norm = clip_grad_norm([p, q], max_norm=2.5)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(p.grad, [1.5])
        np.testing.assert_allclose(q.grad, [2.0])
