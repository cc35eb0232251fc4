"""Synthetic token-sequence classification workloads.

The paper notes ACME "can serve different Transformer-based models by
designing various NAS search spaces" and cites BERT-family early-exit work
(BERxiT, EE-Tuning).  This module provides the text-side workload so the
BERT-style backbone in :mod:`repro.models.text` is exercisable end-to-end:
each class is a distribution over *topic tokens*; a sequence samples most
of its tokens from its class topic and the rest from a shared background
vocabulary — the standard synthetic topic-classification construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class TextSpec:
    """Parameters of a synthetic text-classification task."""

    num_classes: int
    vocab_size: int = 64
    seq_len: int = 16
    topic_tokens_per_class: int = 6
    topic_strength: float = 0.6  # fraction of tokens drawn from the topic

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.vocab_size < self.num_classes * 2:
            raise ValueError("vocab too small for distinct topics")
        if not 0.0 < self.topic_strength <= 1.0:
            raise ValueError("topic_strength must be in (0, 1]")


class TextDataset:
    """In-memory token sequences with integer labels.

    Mirrors the :class:`~repro.data.dataset.ArrayDataset` interface where
    it matters (``__len__``, ``tokens``/``labels`` arrays, ``subset``,
    ``split``) so training loops can stay generic.
    """

    def __init__(self, tokens: np.ndarray, labels: np.ndarray, num_classes: int,
                 vocab_size: int, name: str = "text") -> None:
        tokens = np.asarray(tokens, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be (N, T), got {tokens.shape}")
        if labels.shape != (tokens.shape[0],):
            raise ValueError("one label per sequence required")
        if tokens.size and tokens.max() >= vocab_size:
            raise ValueError("token id out of vocabulary range")
        self.tokens = tokens
        self.labels = labels
        self.num_classes = int(num_classes)
        self.vocab_size = int(vocab_size)
        self.name = name

    def __len__(self) -> int:
        return self.tokens.shape[0]

    def subset(self, indices) -> "TextDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return TextDataset(self.tokens[indices], self.labels[indices],
                           self.num_classes, self.vocab_size, name=self.name)

    def split(self, fraction: float, rng: np.random.Generator
              ) -> Tuple["TextDataset", "TextDataset"]:
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        order = rng.permutation(len(self))
        cut = max(1, int(round(fraction * len(self))))
        return self.subset(order[:cut]), self.subset(order[cut:])


# reprolint: unreached -- deferred deletion (no paper anchor): the whole module goes with
# models/text.py and tests/models/test_text.py (14 tests) — the paper is image ViTs only
class SyntheticTextGenerator:
    """Deterministic generator of topic-classification datasets."""

    def __init__(self, spec: TextSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        rng = np.random.default_rng(seed)
        # Disjoint topic-token sets per class, carved from the vocabulary.
        shuffled = rng.permutation(spec.vocab_size)
        needed = spec.num_classes * spec.topic_tokens_per_class
        if needed > spec.vocab_size:
            raise ValueError("not enough vocabulary for disjoint topics")
        self.topics = shuffled[:needed].reshape(
            spec.num_classes, spec.topic_tokens_per_class
        )
        self.background = shuffled[needed:]
        if self.background.size == 0:
            self.background = shuffled  # degenerate but valid

    def generate(self, samples_per_class: int, seed: int = 1,
                 name: str = "synthetic-text") -> TextDataset:
        spec = self.spec
        rng = np.random.default_rng((self.seed, seed))
        tokens = []
        labels = []
        for cls in range(spec.num_classes):
            for _ in range(samples_per_class):
                from_topic = rng.random(spec.seq_len) < spec.topic_strength
                seq = np.where(
                    from_topic,
                    rng.choice(self.topics[cls], size=spec.seq_len),
                    rng.choice(self.background, size=spec.seq_len),
                )
                tokens.append(seq)
                labels.append(cls)
        tokens = np.stack(tokens)
        labels = np.asarray(labels, dtype=np.int64)
        order = rng.permutation(len(labels))
        return TextDataset(tokens[order], labels[order], spec.num_classes,
                           spec.vocab_size, name=name)
