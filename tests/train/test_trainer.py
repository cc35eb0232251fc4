"""Tests for training and evaluation loops."""

import numpy as np
import pytest

from repro.data import make_cifar100_like
from repro.models import (
    DAGHeader,
    ViTConfig,
    VisionTransformer,
    build_fixed_header,
)
from repro.core.header_importance import ImportanceConfig, compute_importance_set
from repro.models.blocks import BlockSpec, HeaderSpec
from repro.nn.tensor import using_dtype
from repro.train import (
    TrainConfig,
    evaluate_header,
    evaluate_model,
    train_header,
    train_model,
)
from tests.helpers import header_weights
from tests.reference.train import reference_importance_set, reference_train_header


@pytest.fixture(scope="module")
def setup():
    gen = make_cifar100_like(num_classes=4, image_size=8)
    data = gen.generate(samples_per_class=16, seed=1)
    cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=16, depth=2,
                    num_heads=4, num_classes=4)
    return cfg, data


class TestTrainModel:
    def test_accuracy_improves(self, setup):
        cfg, data = setup
        model = VisionTransformer(cfg, seed=0)
        report = train_model(model, data, TrainConfig(epochs=3, seed=0))
        assert report.epoch_accuracies[-1] > report.epoch_accuracies[0]
        assert report.final_accuracy == report.epoch_accuracies[-1]

    def test_an_epoch_steps_once_per_batch(self, setup, monkeypatch):
        """A training epoch is never capped: it steps once per batch of
        the whole set."""
        from repro.nn import optim

        steps = []
        real_step = optim.FleetOptimizer.step
        monkeypatch.setattr(
            optim.FleetOptimizer,
            "step",
            lambda self, *a, **k: steps.append(1) or real_step(self, *a, **k),
        )
        cfg, data = setup
        model = VisionTransformer(cfg, seed=0)
        report = train_model(model, data, TrainConfig(epochs=1, batch_size=8))
        assert len(report.epoch_losses) == 1
        assert len(steps) == -(-len(data) // 8)

    def test_empty_report_is_nan(self):
        from repro.train.trainer import TrainReport

        report = TrainReport()
        assert np.isnan(report.final_loss)
        assert np.isnan(report.final_accuracy)


class TestTrainHeader:
    def test_frozen_backbone_unchanged(self, setup):
        cfg, data = setup
        model = VisionTransformer(cfg, seed=0)
        header = build_fixed_header("mlp", cfg.embed_dim, cfg.num_patches, 4)
        before = model.state_dict()
        train_header(model, header, data, TrainConfig(epochs=1), freeze_backbone=True)
        after = model.state_dict()
        for key in before:
            np.testing.assert_allclose(before[key], after[key])

    def test_unfrozen_backbone_changes(self, setup):
        cfg, data = setup
        model = VisionTransformer(cfg, seed=0)
        header = build_fixed_header("mlp", cfg.embed_dim, cfg.num_patches, 4)
        before = model.state_dict()
        train_header(model, header, data, TrainConfig(epochs=1), freeze_backbone=False)
        changed = any(
            not np.allclose(before[k], v) for k, v in model.state_dict().items()
        )
        assert changed

    def test_header_learns(self, setup):
        cfg, data = setup
        model = VisionTransformer(cfg, seed=0)
        train_model(model, data, TrainConfig(epochs=2, seed=0))
        header = build_fixed_header("cnn", cfg.embed_dim, cfg.num_patches, 4)
        report = train_header(model, header, data, TrainConfig(epochs=3, seed=0))
        assert report.final_accuracy > 0.5

    def test_mask_enforced_through_training(self, setup):
        cfg, data = setup
        model = VisionTransformer(cfg, seed=0)
        spec = HeaderSpec(blocks=(BlockSpec(0, 1, 1, 3),))
        header = DAGHeader(cfg.embed_dim, cfg.num_patches, 4, spec)
        count = header.parameter_count()
        keep = np.ones(count, dtype=bool)
        keep[:50] = False
        header.set_parameter_mask(keep)
        train_header(model, header, data, TrainConfig(epochs=1, seed=0))
        # Masked entries must remain exactly zero after optimizer steps.
        flat = header_weights(header)
        np.testing.assert_allclose(flat[:50], 0.0)


class TestTextbookParity:
    """One device through the round loop == the textbook per-device
    loop (``tests/reference/train.py``), bit for bit under float64."""

    @staticmethod
    def _sides(cfg):
        """Two identical (backbone, DAG header) pairs, pruned alike."""
        sides = []
        with using_dtype("float64"):
            for _ in range(2):
                model = VisionTransformer(cfg, seed=0)
                spec = HeaderSpec(blocks=(BlockSpec(0, 1, 1, 3),))
                header = DAGHeader(
                    cfg.embed_dim, cfg.num_patches, 4, spec,
                    rng=np.random.default_rng(3),
                )
                keep = np.ones(header.parameter_count(), dtype=bool)
                keep[::7] = False
                header.set_parameter_mask(keep)
                sides.append((model, header))
        return sides

    @staticmethod
    def _assert_same_state(left, right):
        (_model_a, header_a), (_model_b, header_b) = left, right
        for (name, a), (_, b) in zip(
            header_a.named_parameters(), header_b.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    @pytest.mark.parametrize("sweep", [True, False])
    def test_train_header_matches_the_textbook_loop(self, setup, sweep):
        """Swept once or forwarded per batch, the textbook loop's
        losses, accuracies and weights are the round loop's."""
        cfg, data = setup
        config = TrainConfig(epochs=2, batch_size=16, seed=4)
        ours, textbook = self._sides(cfg)
        with using_dtype("float64"):
            got = train_header(*ours, data, config)
            want = reference_train_header(*textbook, data, config, sweep=sweep)
        assert got.epoch_losses == want.epoch_losses
        assert got.epoch_accuracies == want.epoch_accuracies
        self._assert_same_state(ours, textbook)

    @pytest.mark.parametrize("train", [True, False])
    def test_importance_set_matches_the_textbook_loop(self, setup, train):
        cfg, data = setup
        config = ImportanceConfig(epochs=2, batch_size=16, seed=5, max_batches_per_epoch=3)
        ours, textbook = self._sides(cfg)
        with using_dtype("float64"):
            got = compute_importance_set(*ours, data, config, train=train)
            want = reference_importance_set(*textbook, data, config, train=train)
        np.testing.assert_array_equal(got, want)
        self._assert_same_state(ours, textbook)


class TestEvaluate:
    def test_evaluate_model_fields(self, setup):
        cfg, data = setup
        model = VisionTransformer(cfg, seed=0)
        metrics = evaluate_model(model, data)
        assert set(metrics) == {"accuracy", "loss", "samples"}
        assert metrics["samples"] == len(data)

    def test_evaluate_model_max_batches(self, setup):
        cfg, data = setup
        model = VisionTransformer(cfg, seed=0)
        metrics = evaluate_model(model, data, batch_size=8, max_batches=1)
        assert metrics["samples"] == 8

    def test_evaluate_header(self, setup):
        cfg, data = setup
        model = VisionTransformer(cfg, seed=0)
        header = build_fixed_header("linear", cfg.embed_dim, cfg.num_patches, 4)
        metrics = evaluate_header(model, header, data)
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_evaluate_empty_raises(self, setup):
        cfg, data = setup
        from repro.data import ArrayDataset

        model = VisionTransformer(cfg, seed=0)
        empty = ArrayDataset(np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=int), 4)
        with pytest.raises(ValueError):
            evaluate_model(model, empty)
