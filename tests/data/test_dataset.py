"""Tests for ArrayDataset and DataLoader."""

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader, merge


def make_dataset(n=20, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    return ArrayDataset(
        rng.normal(size=(n, 3, 8, 8)),
        rng.integers(0, classes, size=n),
        num_classes=classes,
        name="test",
    )


class TestArrayDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((4, 3, 8)), np.zeros(4, dtype=int), 2)
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((4, 3, 8, 8)), np.zeros(3, dtype=int), 2)
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((4, 3, 8, 8)), np.array([0, 1, 2, 5]), 3)

    def test_len_and_getitem(self):
        ds = make_dataset(10)
        assert len(ds) == 10
        image, label = ds[3]
        assert image.shape == (3, 8, 8)
        assert np.isscalar(label) or label.shape == ()

    def test_subset_preserves_label_space(self):
        ds = make_dataset(10, classes=5)
        sub = ds.subset([0, 2, 4])
        assert len(sub) == 3
        assert sub.num_classes == 5
        np.testing.assert_allclose(sub.images[1], ds.images[2])

    def test_split_fractions(self):
        ds = make_dataset(20)
        a, b = ds.split(0.25, np.random.default_rng(0))
        assert len(a) == 5 and len(b) == 15

    def test_split_validation(self):
        ds = make_dataset(10)
        with pytest.raises(ValueError):
            ds.split(0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ds.split(1.0, np.random.default_rng(0))

    def test_split_is_a_partition(self):
        ds = make_dataset(20)
        a, b = ds.split(0.5, np.random.default_rng(1))
        combined = np.concatenate([a.images, b.images])
        assert combined.shape == ds.images.shape
        # Every original image appears exactly once.
        original = {img.tobytes() for img in ds.images}
        recombined = {img.tobytes() for img in combined}
        assert original == recombined

    def test_sample_without_replacement(self):
        ds = make_dataset(10)
        sample = ds.sample(5, np.random.default_rng(0))
        assert len(sample) == 5
        keys = [img.tobytes() for img in sample.images]
        assert len(set(keys)) == 5

    def test_sample_caps_at_length(self):
        ds = make_dataset(5)
        assert len(ds.sample(100, np.random.default_rng(0))) == 5

    def test_class_histogram_and_distribution(self):
        ds = ArrayDataset(
            np.zeros((4, 1, 2, 2)), np.array([0, 0, 1, 2]), num_classes=4
        )
        np.testing.assert_array_equal(ds.class_histogram(), [2, 1, 1, 0])
        np.testing.assert_allclose(ds.class_distribution().sum(), 1.0)

    def test_empty_distribution_is_uniform(self):
        ds = ArrayDataset(np.zeros((0, 1, 2, 2)), np.zeros(0, dtype=int), 4)
        np.testing.assert_allclose(ds.class_distribution(), 0.25)

    def test_nbytes_counts_images_and_labels(self):
        ds = make_dataset(10)
        assert ds.nbytes() == ds.images.nbytes + ds.labels.nbytes


class TestDataLoader:
    def test_batches_cover_dataset(self):
        ds = make_dataset(25)
        loader = DataLoader(ds, batch_size=8, shuffle=False)
        total = sum(images.shape[0] for images, _ in loader)
        assert total == 25
        assert len(loader) == 4

    def test_drop_last(self):
        ds = make_dataset(25)
        loader = DataLoader(ds, batch_size=8, drop_last=True, shuffle=False)
        sizes = [images.shape[0] for images, _ in loader]
        assert sizes == [8, 8, 8]
        assert len(loader) == 3

    def test_shuffle_determinism(self):
        ds = make_dataset(16)
        a = [l.copy() for _, l in DataLoader(ds, 4, rng=np.random.default_rng(7))]
        b = [l.copy() for _, l in DataLoader(ds, 4, rng=np.random.default_rng(7))]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_shuffle_actually_shuffles(self):
        ds = make_dataset(64)
        ordered = [l for _, l in DataLoader(ds, 64, shuffle=False)][0]
        shuffled = [l for _, l in DataLoader(ds, 64, rng=np.random.default_rng(0))][0]
        assert not np.array_equal(ordered, shuffled)
        np.testing.assert_array_equal(np.sort(ordered), np.sort(shuffled))

    def test_unseeded_loader_respects_set_seed(self):
        """The rng fallback draws from the shared ``repro.nn.init`` stream
        (like every unseeded module since PR 2), so ``set_seed`` makes
        unseeded shuffling loaders reproducible — they no longer all
        replay the identical ``default_rng(0)`` order."""
        from repro.nn import init

        ds = make_dataset(32)

        def order():
            return [l.copy() for _, l in DataLoader(ds, 8)]

        init.set_seed(123)
        a = order()
        init.set_seed(123)
        b = order()
        init.set_seed(321)
        c = order()
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_unseeded_loaders_differ_from_each_other(self):
        """Two unseeded loaders built back to back draw different epochs
        (previously both restarted ``default_rng(0)``)."""
        ds = make_dataset(64)
        a = [l for _, l in DataLoader(ds, 64)][0]
        b = [l for _, l in DataLoader(ds, 64)][0]
        assert not np.array_equal(a, b)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(make_dataset(), batch_size=0)


class TestMerge:
    def test_concatenates(self):
        a, b = make_dataset(5, seed=1), make_dataset(7, seed=2)
        merged = merge([a, b])
        assert len(merged) == 12

    def test_rejects_mismatched_classes(self):
        a = make_dataset(5, classes=3)
        b = make_dataset(5, classes=4)
        with pytest.raises(ValueError):
            merge([a, b])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            merge([])
