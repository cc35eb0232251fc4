"""Dataset and loader abstractions.

Datasets are plain in-memory arrays (``images`` in ``(N, C, H, W)`` layout
and integer ``labels``), which keeps the substrate fast and deterministic.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np


class ArrayDataset:
    """An in-memory labelled image dataset.

    Parameters
    ----------
    images:
        Float array of shape ``(N, C, H, W)``.
    labels:
        Integer array of shape ``(N,)``.
    num_classes:
        Total number of classes in the label space (may exceed the number of
        classes present in this particular split).
    name:
        Human-readable dataset name, used in logs and experiment records.
    """

    def __init__(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        num_classes: int,
        name: str = "dataset",
    ) -> None:
        images = np.asarray(images, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if images.ndim != 4:
            raise ValueError(f"images must be (N, C, H, W), got shape {images.shape}")
        if labels.shape != (images.shape[0],):
            raise ValueError(
                f"labels shape {labels.shape} incompatible with {images.shape[0]} images"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValueError("labels out of range for num_classes")
        self.images = images
        self.labels = labels
        self.num_classes = int(num_classes)
        self.name = name

    def __len__(self) -> int:
        return self.images.shape[0]

    def __getitem__(self, index) -> Tuple[np.ndarray, np.ndarray]:
        return self.images[index], self.labels[index]

    def subset(self, indices: Sequence[int], name: Optional[str] = None) -> "ArrayDataset":
        """New dataset restricted to ``indices`` (copies are avoided)."""
        indices = np.asarray(indices, dtype=np.int64)
        return ArrayDataset(
            self.images[indices],
            self.labels[indices],
            self.num_classes,
            name=name or f"{self.name}/subset",
        )

    def split(
        self, fraction: float, rng: np.random.Generator
    ) -> Tuple["ArrayDataset", "ArrayDataset"]:
        """Random split into ``(fraction, 1-fraction)`` parts."""
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        order = rng.permutation(len(self))
        cut = max(1, int(round(fraction * len(self))))
        return (
            self.subset(order[:cut], name=f"{self.name}/a"),
            self.subset(order[cut:], name=f"{self.name}/b"),
        )

    def sample_indices(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Row indices of a random sample of ``n`` items without replacement."""
        return rng.choice(len(self), size=min(n, len(self)), replace=False)

    def sample(self, n: int, rng: np.random.Generator) -> "ArrayDataset":
        """Random sample of ``n`` items without replacement."""
        indices = self.sample_indices(n, rng)
        return self.subset(indices, name=f"{self.name}/sample{len(indices)}")

    def class_histogram(self) -> np.ndarray:
        """Counts per class over the full label space."""
        return np.bincount(self.labels, minlength=self.num_classes)

    # reprolint: unreached -- deferred deletion (no paper anchor): goes with its 2 tests in
    # test_dataset.py; test_partition.py's entropy helper re-aims at class_histogram
    def class_distribution(self) -> np.ndarray:
        """Normalized class histogram (sums to 1; uniform if empty)."""
        hist = self.class_histogram().astype(np.float64)
        total = hist.sum()
        if total == 0:
            return np.full(self.num_classes, 1.0 / self.num_classes)
        return hist / total

    def nbytes(self) -> int:
        """Byte size of the raw data — the cost of uploading this dataset."""
        return int(self.images.nbytes + self.labels.nbytes)


class DataLoader:
    """Mini-batch iterator over an :class:`ArrayDataset`.

    Shuffling uses the provided generator, so epochs are reproducible.
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int = 32,
        shuffle: bool = True,
        rng: Optional[np.random.Generator] = None,
        drop_last: bool = False,
        yield_indices: bool = False,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if rng is None:
            # Fallback: the shared per-thread stream (see repro.nn.init),
            # so unseeded shuffling loaders respect ``set_seed`` instead
            # of all replaying the identical default_rng(0) order.
            from repro.nn import init

            rng = init.default_generator()
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng
        self.drop_last = drop_last
        # With ``yield_indices`` batches are ``(indices, labels)`` pairs —
        # no image gather-copy is materialized; the shuffle RNG stream is
        # identical either way, so flipping it never changes which
        # samples a batch contains.  Used by precomputed-feature training
        # loops that gather cached per-sample activations instead of
        # re-running a frozen model on the images.
        self.yield_indices = yield_indices

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, ...]]:
        n = len(self.dataset)
        order = self.rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            batch = order[start : start + self.batch_size]
            if self.drop_last and batch.size < self.batch_size:
                return
            if self.yield_indices:
                yield batch, self.dataset.labels[batch]
            else:
                yield self.dataset.images[batch], self.dataset.labels[batch]


def merge(datasets: Sequence[ArrayDataset], name: str = "merged") -> ArrayDataset:
    """Concatenate datasets sharing a label space."""
    if not datasets:
        raise ValueError("cannot merge an empty dataset list")
    num_classes = datasets[0].num_classes
    if any(d.num_classes != num_classes for d in datasets):
        raise ValueError("datasets must share num_classes to merge")
    return ArrayDataset(
        np.concatenate([d.images for d in datasets], axis=0),
        np.concatenate([d.labels for d in datasets], axis=0),
        num_classes,
        name=name,
    )
