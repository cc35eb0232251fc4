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
    make_stanford_cars_like,
)
from repro.data.synthetic_text import SyntheticTextGenerator, TextDataset, TextSpec

__all__ = [
    "ArrayDataset",
    "ConfusionLevel",
    "DataLoader",
    "SyntheticImageGenerator",
    "SyntheticSpec",
    "SyntheticTextGenerator",
    "TextDataset",
    "TextSpec",
    "make_cifar100_like",
    "make_stanford_cars_like",
    "merge",
    "partition_confusion",
    "partition_dirichlet",
    "partition_iid",
    "partition_two_groups",
]
