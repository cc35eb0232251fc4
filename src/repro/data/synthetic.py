"""Synthetic stand-ins for CIFAR-100 and Stanford Cars.

The offline environment has no dataset files, so the evaluation workloads
are generated: each class is a smooth random *prototype image* (low-frequency
Gaussian random field) and samples are noisy copies of their class prototype.
Two knobs control difficulty:

* ``class_separation`` — scale of the prototypes relative to the noise;
  smaller values → classes overlap more → the task is harder;
* ``fine_grained_groups`` — classes are organized into coarse groups whose
  members share most of their prototype, mimicking fine-grained recognition
  (Stanford Cars: many visually similar classes).

These two generators preserve the *relative* phenomena the paper's figures
rely on: accuracy grows then saturates with model capacity, fine-grained
data is harder than coarse data, and devices holding different class subsets
have measurably different feature distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset


def _smooth(field: np.ndarray, sigma: float) -> np.ndarray:
    """Low-pass filter a random field to create image-like structure."""
    # Imported at the first blur, not with the package: ``scipy.ndimage``
    # is half of ``import repro.distributed``'s wall time and only a
    # prototype build needs it (a missing scipy still fails loudly here).
    from scipy.ndimage import gaussian_filter

    return gaussian_filter(field, sigma=sigma, mode="wrap")


#: Gaussian blur (in pixels) of the random prototype fields.
SMOOTHING_SIGMA = 2.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a synthetic image classification dataset."""

    num_classes: int
    image_size: int = 16
    channels: int = 3
    class_separation: float = 1.0
    noise_scale: float = 0.7
    fine_grained_groups: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.fine_grained_groups is not None and not (
            1 <= self.fine_grained_groups <= self.num_classes
        ):
            raise ValueError("fine_grained_groups must be in [1, num_classes]")


class SyntheticImageGenerator:
    """Generates datasets from a :class:`SyntheticSpec` deterministically.

    A generator instance fixes the class prototypes once (from ``seed``);
    repeated calls to :meth:`generate` draw fresh noise but keep the same
    underlying classification problem, so train/test splits and per-device
    shards are mutually consistent.
    """

    def __init__(self, spec: SyntheticSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        #: Class prototype images, shape ``(num_classes, C, H, W)``.
        self.prototypes = self._build_prototypes(np.random.default_rng(seed))

    def _build_prototypes(self, rng: np.random.Generator) -> np.ndarray:
        spec = self.spec
        shape = (spec.channels, spec.image_size, spec.image_size)

        def random_field() -> np.ndarray:
            raw = rng.normal(size=shape)
            smooth = np.stack(
                [_smooth(raw[c], SMOOTHING_SIGMA) for c in range(spec.channels)]
            )
            # Re-standardize: smoothing shrinks variance.
            return (smooth - smooth.mean()) / (smooth.std() + 1e-12)

        if spec.fine_grained_groups is None:
            protos = np.stack([random_field() for _ in range(spec.num_classes)])
            return protos * spec.class_separation

        # Fine-grained: classes within a group share a base prototype and
        # differ only by a small detail component.
        groups = spec.fine_grained_groups
        bases = [random_field() for _ in range(groups)]
        protos = []
        for cls in range(spec.num_classes):
            base = bases[cls % groups]
            detail = random_field() * 0.35
            protos.append(base + detail)
        return np.stack(protos) * spec.class_separation

    def generate(
        self,
        samples_per_class: int,
        seed: int = 1,
        name: str = "synthetic",
        class_subset: Optional[np.ndarray] = None,
    ) -> ArrayDataset:
        """Draw a dataset with ``samples_per_class`` noisy samples per class.

        Parameters
        ----------
        class_subset:
            If given, only these class labels are generated (the dataset still
            reports the full ``num_classes`` label space).
        """
        spec = self.spec
        rng = np.random.default_rng((self.seed, seed))
        classes = (
            np.arange(spec.num_classes)
            if class_subset is None
            else np.asarray(class_subset, dtype=np.int64)
        )
        images = []
        labels = []
        for cls in classes:
            noise = rng.normal(
                scale=spec.noise_scale,
                size=(samples_per_class, spec.channels, spec.image_size, spec.image_size),
            )
            images.append(self.prototypes[cls][None] + noise)
            labels.append(np.full(samples_per_class, cls, dtype=np.int64))
        dataset = ArrayDataset(
            np.concatenate(images, axis=0),
            np.concatenate(labels, axis=0),
            num_classes=spec.num_classes,
            name=name,
        )
        # Shuffle so batches mix classes even without loader shuffling.
        order = rng.permutation(len(dataset))
        return dataset.subset(order, name=name)


def make_cifar100_like(
    num_classes: int = 20,
    image_size: int = 16,
    seed: int = 0,
) -> SyntheticImageGenerator:
    """CIFAR-100 stand-in: coarse-grained, moderately separated classes.

    The class count defaults to a scaled-down 20 (vs. the paper's 100) so CPU
    training completes quickly; pass ``num_classes=100`` for the full-width
    label space.
    """
    spec = SyntheticSpec(
        num_classes=num_classes,
        image_size=image_size,
        channels=3,
        class_separation=1.0,
        noise_scale=0.7,
        fine_grained_groups=None,
    )
    return SyntheticImageGenerator(spec, seed=seed)


def make_stanford_cars_like(
    num_classes: int = 24,
    image_size: int = 16,
    seed: int = 0,
) -> SyntheticImageGenerator:
    """Stanford-Cars stand-in: fine-grained classes in few coarse groups.

    Classes share group-level structure (cars all look like cars) and differ
    in small details, making the task harder at equal class count — matching
    the paper's observation that header quality matters more here (Fig. 13).
    """
    spec = SyntheticSpec(
        num_classes=num_classes,
        image_size=image_size,
        channels=3,
        class_separation=0.9,
        noise_scale=0.75,
        fine_grained_groups=max(2, num_classes // 4),
    )
    return SyntheticImageGenerator(spec, seed=seed)
