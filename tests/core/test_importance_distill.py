"""Tests for Taylor importance (Eqs. 6-8) and distillation (Eq. 9)."""

import importlib

import numpy as np
import pytest

from repro.core.distill import DistillConfig, distill
from repro.core.importance import (
    estimate_backbone_importance,
    header_parameter_importance,
)
from repro.core.segmentation import clone_model, generate_backbone
from repro.data import make_cifar100_like
from repro.models import ViTConfig, VisionTransformer
from repro.nn.tensor import Tensor
from repro.train import TrainConfig, train_model

RNG = np.random.default_rng(61)


@pytest.fixture(scope="module")
def setup():
    gen = make_cifar100_like(num_classes=5, image_size=8)
    data = gen.generate(samples_per_class=16, seed=1)
    cfg = ViTConfig(
        image_size=8, patch_size=4, embed_dim=16, depth=3, num_heads=4, num_classes=5
    )
    model = VisionTransformer(cfg, seed=0)
    train_model(model, data, TrainConfig(epochs=2, seed=0))
    return model, data


class TestBackboneImportance:
    def test_shapes(self, setup):
        model, data = setup
        imp = estimate_backbone_importance(model, data, max_batches=2)
        assert len(imp.head_scores) == 3
        assert all(s.shape == (4,) for s in imp.head_scores)
        assert all(s.shape == (16 * 2,) for s in imp.neuron_scores)

    def test_scores_nonnegative(self, setup):
        model, data = setup
        imp = estimate_backbone_importance(model, data, max_batches=2)
        assert all((s >= 0).all() for s in imp.head_scores)
        assert all((s >= 0).all() for s in imp.neuron_scores)

    def test_orders_sorted_by_score(self, setup):
        model, data = setup
        imp = estimate_backbone_importance(model, data, max_batches=2)
        for scores, order in zip(imp.head_scores, imp.head_orders()):
            assert list(scores[order]) == sorted(scores, reverse=True)

    def test_determinism(self, setup):
        model, data = setup
        a = estimate_backbone_importance(model, data, max_batches=2, seed=3)
        b = estimate_backbone_importance(model, data, max_batches=2, seed=3)
        for x, y in zip(a.head_scores, b.head_scores):
            np.testing.assert_allclose(x, y)

    def test_importance_guided_pruning_beats_anti_guided(self, setup):
        """Keeping the *most* important heads must hurt accuracy less than
        keeping the least important — the premise of §III-B1."""
        from repro.train import evaluate_model

        model, data = setup
        imp = estimate_backbone_importance(model, data, max_batches=4)

        guided = clone_model(model)
        guided.reorder(imp.head_orders(), imp.neuron_orders())
        guided.set_width(0.5)

        anti = clone_model(model)
        anti.reorder(
            [o[::-1].copy() for o in imp.head_orders()],
            [o[::-1].copy() for o in imp.neuron_orders()],
        )
        anti.set_width(0.5)

        acc_guided = evaluate_model(guided, data)["accuracy"]
        acc_anti = evaluate_model(anti, data)["accuracy"]
        assert acc_guided >= acc_anti

    def test_empty_probe_rejected(self, setup):
        model, _data = setup
        from repro.data import ArrayDataset

        empty = ArrayDataset(np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=int), 5)
        with pytest.raises(ValueError):
            estimate_backbone_importance(model, empty)


class TestHeaderParameterImportance:
    def test_eq17_formula(self):
        g = np.array([1.0, -2.0, 0.5])
        v = np.array([2.0, 1.0, -4.0])
        np.testing.assert_allclose(
            header_parameter_importance(g, v), [(1 * 2) ** 2, 4.0, 4.0]
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            header_parameter_importance(np.zeros(3), np.zeros(4))

    def test_zero_gradient_zero_importance(self):
        out = header_parameter_importance(np.zeros(5), np.ones(5))
        np.testing.assert_allclose(out, 0.0)


class TestDistillation:
    def test_loss_decreases(self, setup):
        model, data = setup
        teacher = clone_model(model)
        student = clone_model(model)
        report = distill(
            teacher, student, data, DistillConfig(epochs=2, batch_size=16, seed=0)
        )
        assert report.final_loss < report.step_losses[0]

    def test_student_restored_to_full_config(self, setup):
        model, data = setup
        student = clone_model(model)
        distill(model, student, data, DistillConfig(epochs=1, seed=0))
        assert student.width == 1.0
        assert student.depth == model.config.depth

    def test_config_validation(self, setup, monkeypatch):
        """No width to sample a sub-network at is an error, not a run."""
        distill_module = importlib.import_module("repro.core.distill")
        model, data = setup
        student = clone_model(model)
        monkeypatch.setattr(distill_module, "WIDTH_CHOICES", ())
        with pytest.raises(ValueError):
            distill(model, student, data, DistillConfig(epochs=1))

    def test_distilled_subnets_beat_undistilled(self, setup):
        """After distillation, a (0.5, 2) subnet must outperform the same
        subnet carved from the raw model — the point of Eq. (9)."""
        from repro.train import evaluate_model

        model, data = setup
        result = generate_backbone(
            model, data, distill_config=DistillConfig(epochs=3, batch_size=16, seed=0)
        )
        distilled = result.backbone
        distilled.scale(0.5, 2)
        raw = clone_model(model)
        raw.reorder(result.importance.head_orders(), result.importance.neuron_orders())
        raw.scale(0.5, 2)
        loss_distilled = evaluate_model(distilled, data)["loss"]
        loss_raw = evaluate_model(raw, data)["loss"]
        assert loss_distilled < loss_raw


class TestCloneModel:
    def test_clone_is_independent(self, setup):
        model, _data = setup
        clone = clone_model(model)
        x = Tensor(RNG.normal(size=(1, 3, 8, 8)))
        np.testing.assert_allclose(clone(x).data, model(x).data)
        clone.head.weight.data += 1.0
        assert not np.allclose(clone(x).data, model(x).data)

    def test_clone_preserves_scaling(self, setup):
        model, _data = setup
        scaled = clone_model(model)
        scaled.scale(0.5, 2)
        again = clone_model(scaled)
        assert again.width == 0.5
        assert again.depth == 2
