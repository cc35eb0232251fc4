"""Synthetic dataset substrate: generators, loaders and non-IID partitioners."""

from repro.data.dataset import ArrayDataset, DataLoader, merge
from repro.data.partition import (
    ConfusionLevel,
    partition_confusion,
    partition_dirichlet,
    partition_iid,
    partition_two_groups,
)
from repro.data.synthetic import (
    SyntheticImageGenerator,
    SyntheticSpec,
    make_cifar100_like,
)

__all__ = [
    "ArrayDataset",
    "ConfusionLevel",
    "DataLoader",
    "SyntheticImageGenerator",
    "SyntheticSpec",
    "make_cifar100_like",
    "merge",
    "partition_confusion",
    "partition_dirichlet",
    "partition_iid",
    "partition_two_groups",
]
