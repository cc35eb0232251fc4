"""Tests for the LSTM architecture controller."""

from unittest import mock

import numpy as np
import pytest

from repro.core import controller
from repro.core.controller import (
    ArchitectureController,
    MovingAverageBaseline,
)
from repro.models.blocks import HeaderSpec, num_operations
from repro.nn.optim import Adam
from repro.nn.tensor import using_dtype


class TestController:
    def test_step_vocab_sizes(self):
        ctrl = ArchitectureController(num_blocks=3)
        sizes = ctrl.step_vocab_sizes()
        ops = num_operations()
        assert sizes == [2, 2, ops, ops, 3, 3, ops, ops, 4, 4, ops, ops]

    def test_sample_produces_valid_spec(self):
        ctrl = ArchitectureController(num_blocks=3, repeats=2, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            sample = ctrl.sample(rng)
            sample.spec.validate(num_operations())
            assert sample.spec.num_blocks == 3
            assert sample.spec.repeats == 2

    def test_log_prob_is_negative_scalar(self):
        ctrl = ArchitectureController(num_blocks=2, seed=0)
        sample = ctrl.sample(np.random.default_rng(1))
        assert sample.log_prob.size == 1
        assert float(sample.log_prob.data) < 0.0

    def test_greedy_is_deterministic(self):
        ctrl = ArchitectureController(num_blocks=2, seed=0)
        a = ctrl.sample(np.random.default_rng(0), greedy=True).spec
        b = ctrl.sample(np.random.default_rng(99), greedy=True).spec
        assert a == b

    def test_reinforce_shifts_policy_toward_rewarded_spec(self):
        """Rewarding one spec must raise its sampling probability."""
        ctrl = ArchitectureController(num_blocks=1, seed=0)
        assert _reinforce(ctrl, advantage=+1.0) > 0.0

    def test_policy_gradient_decreases_prob_on_negative_advantage(self):
        ctrl = ArchitectureController(num_blocks=1, seed=4)
        assert _reinforce(ctrl, advantage=-1.0) < 0.0


def _choice_draw(rng, probs):
    """The draw as ``Generator.choice`` makes it — what ``_draw`` inlines."""
    return int(rng.choice(len(probs), p=probs))


class TestDraw:
    """``_draw`` is ``rng.choice(vocab, p=probs)`` without the re-validation:
    the same index and the same stream position for every seed."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_draw_equals_choice(self, dtype):
        for seed in range(200):
            probs_rng = np.random.default_rng(1000 + seed)
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(50):
                probs = probs_rng.random(int(probs_rng.integers(2, 8))).astype(dtype)
                probs = probs / probs.sum()
                assert controller._draw(a, probs) == _choice_draw(b, probs)
            assert a.random() == b.random()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_sampled_specs_equal_choice(self, dtype):
        with using_dtype(dtype):
            ctrl = ArchitectureController(num_blocks=4, seed=3)
            for seed in range(20):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                fused = [ctrl.sample(a) for _ in range(5)]
                with mock.patch.object(controller, "_draw", _choice_draw):
                    chosen = [ctrl.sample(b) for _ in range(5)]
                for x, y in zip(fused, chosen):
                    assert x.spec == y.spec
                    assert x.log_prob.data.tobytes() == y.log_prob.data.tobytes()
                assert a.random() == b.random()


class _Replay:
    """A stand-in generator whose ``choice`` replays fixed decisions, so
    ``sample`` (drawing through ``choice``, see :func:`_reinforce`)
    returns the log-probability of one given spec."""

    def __init__(self, spec: HeaderSpec) -> None:
        self._decisions = iter(spec.to_sequence())

    def choice(self, vocab, p):
        return next(self._decisions)


def _reinforce(ctrl, advantage: float, steps: int = 10) -> float:
    """REINFORCE on the greedy spec through ``sample(...).log_prob`` —
    the path NAS trains through; returns how far the spec's log-prob
    moved.  The spec is held fixed by replaying its decisions: near
    uniform logits share one output layer, so a step can move the
    greedy argmax to another spec."""
    first = ctrl.sample(np.random.default_rng(0), greedy=True)
    opt = Adam(ctrl.parameters(), lr=5e-2)
    with mock.patch.object(controller, "_draw", _choice_draw):
        for _ in range(steps):
            loss = ctrl.sample(_Replay(first.spec)).log_prob * (-advantage)
            opt.zero_grad()
            loss.backward()
            opt.step()
        after = ctrl.sample(_Replay(first.spec)).log_prob
    return float(after.data) - float(first.log_prob.data)


class TestBaseline:
    def test_first_update_returns_reward(self):
        b = MovingAverageBaseline()
        assert b.update(0.7) == 0.7

    def test_moving_average(self):
        b = MovingAverageBaseline(decay=0.5)
        b.update(1.0)
        previous = b.update(0.0)
        assert previous == 1.0
        assert b.value == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            MovingAverageBaseline(decay=1.0)
