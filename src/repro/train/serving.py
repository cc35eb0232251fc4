"""Batched cross-device backbone serving.

Every device in an ACME cluster borrows the *same* frozen backbone
instance from its cluster's store (one ``backbone_state`` payload, one
``(width, depth)`` scaling), so the per-device inference fan-outs —
finalize/eval, feature extraction for the similarity matrix, NAS child
scoring — run many small forwards through one model.  This module batches
those forwards: same-shape inputs from many devices are concatenated
along the batch axis into a **single** ``no_grad`` forward and the
results are split back per device.

Why this helps even alongside :func:`repro.distributed.executor.parallel_map`:
threads only overlap the GIL-releasing numpy kernels, while the Python
dispatch around each forward (tensor wrapping, layer traversal, closure
setup) serializes.  Batching amortizes that per-forward Python overhead
across devices and hands BLAS larger matmuls, so it composes with — and
on small models beats — the thread fan-out.

Numerical contract: the engine's kernels are row-independent (matmuls,
layer norm, softmax, im2col convolutions all operate per sample), so a
batched forward is **bit-for-bit identical** per sample to the separate
forwards it replaces (asserted in ``tests/train/test_serving.py``).
"""

from __future__ import annotations

import numbers
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.registry import register_lock
from repro.data.dataset import ArrayDataset, DataLoader
from repro.models.headers import BackboneFeatures, gather_features  # noqa: F401  (re-export)
from repro.nn.layers import Module
from repro.nn.tensor import Tensor, no_grad
from repro.train.evaluate import batch_metrics


def _concat_rows(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Row-concatenate, skipping the copy for a single input."""
    if len(arrays) == 1:
        return arrays[0]
    return np.concatenate(arrays, axis=0)


def split_features(
    features: BackboneFeatures, counts: Sequence[int]
) -> List[BackboneFeatures]:
    """Row-split stacked features back per caller (views — no copies)."""
    out: List[BackboneFeatures] = []
    start = 0
    for n in counts:
        end = start + n
        out.append(
            BackboneFeatures(
                Tensor(features.cls.data[start:end]),
                Tensor(features.tokens.data[start:end]),
                Tensor(features.penultimate.data[start:end]),
            )
        )
        start = end
    return out


def batched_forward_features_multi(
    backbone: Module, arrays: Sequence[np.ndarray]
) -> List[BackboneFeatures]:
    """One tape-free backbone forward over many stacked inputs.

    ``arrays`` are per-caller image batches sharing trailing dimensions;
    they are concatenated along the batch axis, pushed through
    ``backbone.forward_features_multi`` once under :func:`no_grad`, and
    the resulting CLS/token/penultimate features are split back into one
    :class:`BackboneFeatures` per input (:func:`split_features`).
    """
    arrays = [np.asarray(a) for a in arrays]
    if not arrays:
        return []
    with no_grad():
        stacked = BackboneFeatures(
            *backbone.forward_features_multi(Tensor(_concat_rows(arrays)))
        )
    return split_features(stacked, [a.shape[0] for a in arrays])


def precompute_backbone_features(
    backbone: Module, images: np.ndarray, chunk_size: int = 256
) -> BackboneFeatures:
    """Per-sample frozen-backbone features for a whole sample set.

    Runs tape-free forwards over row chunks (``chunk_size`` bounds peak
    activation memory) and concatenates the results into one
    :class:`BackboneFeatures` aligned with ``images`` row order.  Because
    the kernels are row-independent, gathering rows from this cache is
    bit-for-bit identical to running the backbone on any mini-batch of
    the same samples — which is what lets ``train_header`` compute the
    frozen backbone **once per training run** instead of once per batch
    per epoch.
    """
    images = np.asarray(images)
    cls_parts, token_parts, penult_parts = [], [], []
    with no_grad():
        for start in range(0, images.shape[0], chunk_size):
            cls, tokens, penult = backbone.forward_features_multi(
                Tensor(images[start : start + chunk_size])
            )
            cls_parts.append(cls.data)
            token_parts.append(tokens.data)
            penult_parts.append(penult.data)
    return BackboneFeatures(
        Tensor(_concat_rows(cls_parts)),
        Tensor(_concat_rows(token_parts)),
        Tensor(_concat_rows(penult_parts)),
    )


def batched_extract_features(
    model: Module,
    datasets: Sequence[ArrayDataset],
    max_samples: int = 64,
    seed: int = 0,
) -> List[np.ndarray]:
    """CLS features for many datasets through one stacked forward.

    Mirrors :func:`repro.core.similarity.extract_features` — dataset ``i``
    is sampled with ``default_rng(seed + i)`` exactly like the per-dataset
    loop — but runs the frozen model once over the concatenated samples.
    """
    samples = []
    for i, dataset in enumerate(datasets):
        rng = np.random.default_rng(seed + i)
        samples.append(dataset.sample(max_samples, rng).images)
    if not samples:
        return []
    counts = [s.shape[0] for s in samples]
    with no_grad():
        cls, _tokens = model.forward_features(Tensor(_concat_rows(samples)))
    out: List[np.ndarray] = []
    start = 0
    for n in counts:
        out.append(cls.data[start : start + n])
        start += n
    return out


def batched_evaluate_headers(
    backbone: Module,
    headers: Sequence[Module],
    datasets: Sequence[ArrayDataset],
    batch_size: int = 64,
    max_batches: Optional[int] = None,
) -> List[dict]:
    """Evaluate many (header, dataset) pairs over one shared backbone.

    Reproduces :func:`repro.train.evaluate.evaluate_header` per pair —
    same loaders, batch ops and metric accumulation — but each round's
    per-device batches share a single backbone forward.  Datasets may
    have different sizes; devices simply drop out of later rounds.
    """
    if len(headers) != len(datasets):
        raise ValueError(f"{len(headers)} headers vs {len(datasets)} datasets")

    iterators = [
        iter(
            DataLoader(
                dataset,
                batch_size=batch_size,
                shuffle=False,
                # reprolint: fixed-rng -- shuffle=False never draws from this
                # stream; the pinned rng keeps eval loaders deterministic even if
                # the set_seed fallback default ever changes
                rng=np.random.default_rng(0),
            )
        )
        for dataset in datasets
    ]
    stats = [{"correct": 0, "total": 0, "loss": 0.0} for _ in headers]
    active = list(range(len(headers)))
    batch_idx = 0
    while active and (max_batches is None or batch_idx < max_batches):
        round_batches = []
        still_active = []
        for i in active:
            batch = next(iterators[i], None)
            if batch is None:
                continue
            round_batches.append((i, batch))
            still_active.append(i)
        if not round_batches:
            break
        active = still_active
        features = batched_forward_features_multi(
            backbone, [images for _i, (images, _labels) in round_batches]
        )
        with no_grad():
            for (i, (_images, labels)), feats in zip(round_batches, features):
                logits = headers[i](feats)
                batch_loss, batch_correct = batch_metrics(logits, labels)
                stats[i]["loss"] += batch_loss
                stats[i]["correct"] += batch_correct
                stats[i]["total"] += labels.shape[0]
        batch_idx += 1

    results = []
    for s in stats:
        if s["total"] == 0:
            raise ValueError("no samples evaluated")
        results.append(
            {
                "accuracy": s["correct"] / s["total"],
                "loss": s["loss"] / s["total"],
                "samples": s["total"],
            }
        )
    return results


class ServingFront:
    """Queue + micro-batcher for concurrent eval requests on one backbone.

    The scale harness's serving story: instead of each caller running its
    own forward the moment it needs an evaluation, requests are
    :meth:`submit`-ted into a FIFO queue and drained by :meth:`flush` in
    ``micro_batch``-sized groups, each group riding one
    :func:`batched_evaluate_headers` call (one shared backbone forward
    per round).  Row-independence makes every grouping bit-identical to
    per-request :func:`~repro.train.evaluate.evaluate_header` — asserted
    in ``tests/train/test_serving.py``.

    ``submit`` is thread-safe (callers may enqueue from worker threads);
    ``flush`` runs on whichever thread drives the serving loop.  The
    queue holds the header/dataset references it was given, so a header
    that a :class:`~repro.distributed.state_store.DeviceStateLRU` later
    evicts stays alive for its pending request.
    """

    def __init__(
        self, backbone: Module, micro_batch: int = 16, batch_size: int = 64
    ) -> None:
        # A float or a bool is refused rather than truncated, as worker
        # specs are (``executor.resolve_workers``).
        for field, value in (("micro_batch", micro_batch), ("batch_size", batch_size)):
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Integral)
                or value < 1
            ):
                raise ValueError(f"{field} must be an int >= 1, got {value!r}")
        self.backbone = backbone
        self.micro_batch = int(micro_batch)
        self.batch_size = int(batch_size)
        self._lock = register_lock("serving.front")
        self._queue: List[Tuple[int, Module, ArrayDataset]] = []
        self._results: Dict[int, dict] = {}
        self._next_ticket = 0
        self.requests_served = 0
        self.flushes = 0
        self.max_queue_depth = 0

    def submit(self, header: Module, dataset: ArrayDataset) -> int:
        """Enqueue one eval request; returns its ticket."""
        with self._lock:
            ticket = self._next_ticket
            self._next_ticket += 1
            self._queue.append((ticket, header, dataset))
            self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
        return ticket

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._queue)

    def flush(self) -> List[int]:
        """Serve every queued request; returns the tickets served in order."""
        with self._lock:
            drained, self._queue = self._queue, []
        served: List[int] = []
        for start in range(0, len(drained), self.micro_batch):
            group = drained[start : start + self.micro_batch]
            outcomes = batched_evaluate_headers(
                self.backbone,
                [header for _t, header, _d in group],
                [dataset for _t, _h, dataset in group],
                batch_size=self.batch_size,
            )
            self.flushes += 1
            for (ticket, _h, _d), outcome in zip(group, outcomes):
                self._results[ticket] = outcome
                served.append(ticket)
        self.requests_served += len(served)
        return served

    def result(self, ticket: int) -> dict:
        """The outcome for a served ticket (flush first); pops the entry."""
        if ticket not in self._results:
            raise KeyError(f"ticket {ticket} not served yet — call flush()")
        return self._results.pop(ticket)


