"""Non-IID data partitioning across devices.

The paper assigns different class subsets to devices ("Different subsets of
the dataset (with varying classes) are used as the local data for devices,
achieving non-IID data distribution") and evaluates aggregation under four
distribution regimes: IID and C1/C2/C3 with increasing confusion.

Partitioners here return one :class:`~repro.data.dataset.ArrayDataset` per
device.  All are deterministic given their generator.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence

import numpy as np

from repro.data.dataset import ArrayDataset


class ConfusionLevel(enum.Enum):
    """Distribution regimes of Fig. 11, ordered by increasing confusion.

    ``IID`` spreads every class evenly; C1→C3 concentrate devices on
    progressively narrower, more skewed class mixtures (implemented as a
    Dirichlet prior with decreasing concentration).
    """

    IID = "iid"
    C1 = "c1"
    C2 = "c2"
    C3 = "c3"

    @property
    def dirichlet_alpha(self) -> Optional[float]:
        return {
            ConfusionLevel.IID: None,
            ConfusionLevel.C1: 2.0,
            ConfusionLevel.C2: 0.6,
            ConfusionLevel.C3: 0.2,
        }[self]


def partition_iid(
    dataset: ArrayDataset, num_devices: int, rng: np.random.Generator
) -> List[ArrayDataset]:
    """Shuffle and split evenly: every device sees every class."""
    _validate(dataset, num_devices)
    order = rng.permutation(len(dataset))
    shards = np.array_split(order, num_devices)
    return [
        dataset.subset(shard, name=f"{dataset.name}/device{i}")
        for i, shard in enumerate(shards)
    ]


def partition_dirichlet(
    dataset: ArrayDataset,
    num_devices: int,
    alpha: float,
    rng: np.random.Generator,
    min_samples: int = 2,
) -> List[ArrayDataset]:
    """Dirichlet label-skew partition (the standard federated benchmark).

    For each class, proportions over devices are drawn from
    ``Dirichlet(alpha)``; small ``alpha`` concentrates a class on few
    devices.  Devices left with fewer than ``min_samples`` items steal the
    largest shard's surplus so every device can still train.
    """
    _validate(dataset, num_devices)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")

    device_indices: List[List[int]] = [[] for _ in range(num_devices)]
    for cls in range(dataset.num_classes):
        cls_indices = np.flatnonzero(dataset.labels == cls)
        if cls_indices.size == 0:
            continue
        cls_indices = rng.permutation(cls_indices)
        proportions = rng.dirichlet(np.full(num_devices, alpha))
        cuts = (np.cumsum(proportions)[:-1] * cls_indices.size).astype(int)
        for device, chunk in enumerate(np.split(cls_indices, cuts)):
            device_indices[device].extend(chunk.tolist())

    _rebalance(device_indices, min_samples)
    return [
        dataset.subset(np.array(sorted(idx), dtype=np.int64), name=f"{dataset.name}/device{i}")
        for i, idx in enumerate(device_indices)
    ]


def partition_confusion(
    dataset: ArrayDataset,
    num_devices: int,
    level: ConfusionLevel,
    rng: np.random.Generator,
) -> List[ArrayDataset]:
    """Partition under one of the paper's four regimes (IID, C1, C2, C3)."""
    alpha = level.dirichlet_alpha
    if alpha is None:
        return partition_iid(dataset, num_devices, rng)
    return partition_dirichlet(dataset, num_devices, alpha, rng)


def partition_two_groups(
    dataset: ArrayDataset,
    group_sizes: Sequence[int],
    rng: np.random.Generator,
) -> List[ArrayDataset]:
    """The Fig. 10 layout: device groups with *identical* distributions.

    Classes are split into as many disjoint pools as there are groups; all
    devices of a group draw IID from their group's pool.  With
    ``group_sizes=(3, 2)`` this reproduces "devices 0–2 share one
    distribution, devices 3–4 share another".
    """
    num_groups = len(group_sizes)
    if num_groups < 2:
        raise ValueError("need at least two groups")
    classes = rng.permutation(dataset.num_classes)
    pools = np.array_split(classes, num_groups)

    devices: List[ArrayDataset] = []
    for group, (size, pool) in enumerate(zip(group_sizes, pools)):
        mask = np.isin(dataset.labels, pool)
        indices = rng.permutation(np.flatnonzero(mask))
        for i, shard in enumerate(np.array_split(indices, size)):
            devices.append(
                dataset.subset(shard, name=f"{dataset.name}/g{group}d{i}")
            )
    return devices


def _validate(dataset: ArrayDataset, num_devices: int) -> None:
    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")
    if len(dataset) < num_devices:
        raise ValueError(
            f"cannot split {len(dataset)} samples across {num_devices} devices"
        )


def _rebalance(device_indices: List[List[int]], min_samples: int) -> None:
    """Move samples from the largest shard to any shard below minimum."""
    for needy in device_indices:
        while len(needy) < min_samples:
            donor = max(device_indices, key=len)
            if donor is needy or len(donor) <= min_samples:
                break
            needy.append(donor.pop())
