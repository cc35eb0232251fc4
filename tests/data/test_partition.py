"""Tests for non-IID partitioners, including hypothesis invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    ArrayDataset,
    ConfusionLevel,
    partition_confusion,
    partition_dirichlet,
    partition_iid,
    partition_two_groups,
)


def make_dataset(n=60, classes=6, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), n // classes)
    return ArrayDataset(
        rng.normal(size=(len(labels), 1, 4, 4)), labels, num_classes=classes
    )


def assert_partition(dataset, shards):
    """Shards are disjoint and cover the dataset exactly."""
    total = sum(len(s) for s in shards)
    assert total == len(dataset)
    seen = []
    for shard in shards:
        seen.extend(img.tobytes() for img in shard.images)
    assert len(seen) == len(set(seen)) == len(dataset)


class TestIID:
    def test_partition_properties(self):
        ds = make_dataset()
        shards = partition_iid(ds, 4, np.random.default_rng(0))
        assert_partition(ds, shards)
        assert len(shards) == 4

    def test_every_device_sees_most_classes(self):
        ds = make_dataset(120, classes=4)
        shards = partition_iid(ds, 3, np.random.default_rng(0))
        for shard in shards:
            assert len(np.unique(shard.labels)) == 4

    def test_validation(self):
        ds = make_dataset(6)
        with pytest.raises(ValueError):
            partition_iid(ds, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            partition_iid(ds, 100, np.random.default_rng(0))


class TestDirichlet:
    def test_partition_properties(self):
        ds = make_dataset(120, classes=6)
        shards = partition_dirichlet(ds, 5, alpha=0.5, rng=np.random.default_rng(0))
        assert_partition(ds, shards)

    def test_min_samples_respected(self):
        ds = make_dataset(120, classes=6)
        shards = partition_dirichlet(
            ds, 6, alpha=0.1, rng=np.random.default_rng(3), min_samples=4
        )
        assert all(len(s) >= 4 for s in shards)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            partition_dirichlet(make_dataset(), 2, alpha=0.0, rng=np.random.default_rng(0))

    def test_lower_alpha_is_more_skewed(self):
        """Smaller α concentrates classes on fewer devices (more confusion)."""
        ds = make_dataset(600, classes=6)

        def mean_entropy(alpha, seed):
            shards = partition_dirichlet(ds, 5, alpha, np.random.default_rng(seed))
            entropies = []
            for shard in shards:
                p = shard.class_distribution()
                p = p[p > 0]
                entropies.append(-(p * np.log(p)).sum())
            return np.mean(entropies)

        high = np.mean([mean_entropy(5.0, s) for s in range(3)])
        low = np.mean([mean_entropy(0.1, s) for s in range(3)])
        assert low < high


class TestConfusionLevels:
    def test_iid_level(self):
        ds = make_dataset()
        shards = partition_confusion(ds, 3, ConfusionLevel.IID, np.random.default_rng(0))
        assert_partition(ds, shards)

    @pytest.mark.parametrize("level", [ConfusionLevel.C1, ConfusionLevel.C2, ConfusionLevel.C3])
    def test_non_iid_levels(self, level):
        ds = make_dataset(120)
        shards = partition_confusion(ds, 4, level, np.random.default_rng(0))
        assert_partition(ds, shards)

    def test_alpha_ordering(self):
        """C1 → C3 must have decreasing Dirichlet concentration."""
        alphas = [
            ConfusionLevel.C1.dirichlet_alpha,
            ConfusionLevel.C2.dirichlet_alpha,
            ConfusionLevel.C3.dirichlet_alpha,
        ]
        assert alphas == sorted(alphas, reverse=True)
        assert ConfusionLevel.IID.dirichlet_alpha is None


class TestTwoGroups:
    def test_fig10_layout(self):
        """Devices 0-2 share one distribution; 3-4 share another."""
        ds = make_dataset(300, classes=6)
        devices = partition_two_groups(ds, (3, 2), np.random.default_rng(0))
        assert len(devices) == 5
        group_a = set(np.unique(np.concatenate([d.labels for d in devices[:3]])))
        group_b = set(np.unique(np.concatenate([d.labels for d in devices[3:]])))
        assert group_a.isdisjoint(group_b)

    def test_needs_two_groups(self):
        with pytest.raises(ValueError):
            partition_two_groups(make_dataset(), (5,), np.random.default_rng(0))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(12, 60))
def test_property_iid_partition_conserves(devices, n):
    n = (n // devices) * devices + devices  # ensure n >= devices
    rng = np.random.default_rng(devices * 100 + n)
    ds = ArrayDataset(
        rng.normal(size=(n, 1, 2, 2)), rng.integers(0, 3, size=n), num_classes=3
    )
    shards = partition_iid(ds, devices, rng)
    assert sum(len(s) for s in shards) == n


@settings(max_examples=15, deadline=None)
@given(st.floats(0.1, 5.0), st.integers(2, 5))
def test_property_dirichlet_partition_conserves(alpha, devices):
    rng = np.random.default_rng(int(alpha * 10) + devices)
    ds = ArrayDataset(
        rng.normal(size=(80, 1, 2, 2)),
        np.repeat(np.arange(4), 20),
        num_classes=4,
    )
    shards = partition_dirichlet(ds, devices, alpha, rng)
    assert sum(len(s) for s in shards) == 80
