"""Tests for the synthetic CIFAR-100 / Stanford Cars stand-ins."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data import (
    SyntheticImageGenerator,
    SyntheticSpec,
    make_cifar100_like,
)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=4, fine_grained_groups=5)


class TestGenerator:
    def test_prototype_shape(self):
        gen = make_cifar100_like(num_classes=6, image_size=8)
        assert gen.prototypes.shape == (6, 3, 8, 8)

    def test_determinism(self):
        a = make_cifar100_like(num_classes=4, seed=3).generate(5, seed=1)
        b = make_cifar100_like(num_classes=4, seed=3).generate(5, seed=1)
        np.testing.assert_allclose(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = make_cifar100_like(num_classes=4, seed=1).generate(5)
        b = make_cifar100_like(num_classes=4, seed=2).generate(5)
        assert not np.allclose(a.images, b.images)

    def test_sample_counts(self):
        gen = make_cifar100_like(num_classes=5)
        data = gen.generate(samples_per_class=7)
        assert len(data) == 35
        np.testing.assert_array_equal(data.class_histogram(), np.full(5, 7))

    def test_class_subset(self):
        gen = make_cifar100_like(num_classes=6)
        data = gen.generate(4, class_subset=np.array([1, 3]))
        assert set(np.unique(data.labels)) == {1, 3}
        assert data.num_classes == 6

    def test_fresh_noise_per_seed(self):
        gen = make_cifar100_like(num_classes=4)
        a = gen.generate(5, seed=1)
        b = gen.generate(5, seed=2)
        assert not np.allclose(np.sort(a.images.ravel()), np.sort(b.images.ravel()))

    def test_samples_cluster_around_prototypes(self):
        """Samples must be closer to their own prototype than to others'."""
        gen = make_cifar100_like(num_classes=6, image_size=8)
        data = gen.generate(samples_per_class=12, seed=5)
        protos = gen.prototypes.reshape(6, -1)
        images = data.images.reshape(len(data), -1)
        dists = np.linalg.norm(images[:, None, :] - protos[None], axis=2)
        nearest = dists.argmin(axis=1)
        assert (nearest == data.labels).mean() > 0.8

    def test_learnable_by_linear_probe(self):
        """The task must be learnable — the substrate's core property."""
        from repro.nn import functional as F
        from repro.nn.layers import Linear
        from repro.nn.optim import Adam
        from repro.nn.tensor import Tensor

        gen = make_cifar100_like(num_classes=4, image_size=8)
        data = gen.generate(samples_per_class=25, seed=1)
        x = data.images.reshape(len(data), -1)
        probe = Linear(x.shape[1], 4, rng=np.random.default_rng(0))
        opt = Adam(probe.parameters(), lr=1e-2)
        for _ in range(40):
            opt.zero_grad()
            loss = F.cross_entropy(probe(Tensor(x)), data.labels)
            loss.backward()
            opt.step()
        acc = F.accuracy(probe(Tensor(x)), data.labels)
        assert acc > 0.9


def cars_like(num_classes: int, seed: int) -> SyntheticImageGenerator:
    """A Stanford-Cars-like generator: fine-grained classes in few coarse
    groups, sharing group-level structure and differing in small details."""
    spec = SyntheticSpec(
        num_classes=num_classes,
        class_separation=0.9,
        noise_scale=0.75,
        fine_grained_groups=max(2, num_classes // 4),
    )
    return SyntheticImageGenerator(spec, seed=seed)


class TestFineGrained:
    def test_stanford_cars_is_harder(self):
        """Fine-grained prototypes are more mutually similar than coarse ones."""

        def mean_pairwise_cosine(protos):
            flat = protos.reshape(protos.shape[0], -1)
            flat = flat / np.linalg.norm(flat, axis=1, keepdims=True)
            sims = flat @ flat.T
            n = len(flat)
            return (sims.sum() - n) / (n * (n - 1))

        coarse = make_cifar100_like(num_classes=12, seed=0)
        fine = cars_like(num_classes=12, seed=0)
        assert mean_pairwise_cosine(fine.prototypes) > mean_pairwise_cosine(
            coarse.prototypes
        ) + 0.1

    def test_group_structure(self):
        """Within-group prototype similarity exceeds across-group similarity."""
        gen = cars_like(num_classes=8, seed=1)
        groups = gen.spec.fine_grained_groups
        flat = gen.prototypes.reshape(8, -1)
        flat = flat / np.linalg.norm(flat, axis=1, keepdims=True)
        sims = flat @ flat.T
        within, across = [], []
        for i in range(8):
            for j in range(i + 1, 8):
                (within if i % groups == j % groups else across).append(sims[i, j])
        assert np.mean(within) > np.mean(across)


class TestImportCost:
    def test_scipy_ndimage_waits_for_the_first_blur(self):
        """``scipy.ndimage`` (half the package's import time) loads when a
        prototype is first built, not with ``import repro.distributed``."""
        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            "import sys, repro.distributed\n"
            "assert 'scipy.ndimage' not in sys.modules, 'imported with the package'\n"
            "from repro.data import make_cifar100_like\n"
            "make_cifar100_like(num_classes=2, image_size=8)\n"
            "assert 'scipy.ndimage' in sys.modules\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
