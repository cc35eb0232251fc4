"""Frozen-backbone header training: one round loop for one device or many.

Every device in an ACME cluster trains its own personalized header
against the same frozen backbone (§III-D, Algorithm 2), so a round of
local updates is N small, structurally identical training steps.
:func:`_run_rounds` is the only frozen-header mini-batch loop in
``src/`` and runs them as **one computation graph per round**:

1. every member's frozen-backbone features come from a cache its owner
   hands in, or are swept **once** here (one chunked ``no_grad`` pass
   over all uncached members' samples, :mod:`repro.train.serving`);
2. each round, the active members' mini-batch rows are gathered from
   those caches (or, for a batch-capped schedule, forwarded in one
   stacked tape-free pass over exactly those rows);
3. each member's header forwards its own rows (weights differ per
   member, so forwards stay per-header), the logits are stacked
   row-wise into one tensor, and
   :func:`repro.nn.functional.fleet_cross_entropy` computes one mean
   loss per member from a single stacked log-softmax — gradients route
   through a per-member **block-diagonal row mask**, so a member's
   header only ever sees its own rows' gradients;
4. one ``backward()`` traverses the combined tape, and one
   :class:`repro.nn.optim.FleetOptimizer` step updates *all* members'
   parameters — flattened member-major into one per-dtype flat buffer —
   in a single fused pass.

A single device is the fleet of one:
:func:`repro.train.trainer.train_header` (frozen backbone) and
:func:`repro.core.header_importance.compute_importance_set` are
one-member calls into this module.

Numerical contract (asserted in ``tests/train/test_fleet.py`` against
the textbook per-device loops in ``tests/reference/train.py``): under
float64 every per-member loss, accuracy, importance set and final header
weight of a fleet of N is **bit-for-bit identical** to N fleets of one
and to the textbook loop.  The pieces composing that guarantee: served
frozen features are bit-identical to per-batch forwards
(row-independent kernels), each member's masked loss and gradient rows
equal per-slice cross-entropy under the upstream gradient ``1.0`` that
``loss.backward()`` would supply, and the fleet optimizer's fused pass
equals one fused pass per member (elementwise updates over a
concatenation).

Members may have different dataset sizes, epoch counts and batch caps —
each keeps its own shuffle stream, epoch schedule and Adam step counter,
simply dropping out of rounds it has no batch for.  The fleet serves
every member from **one** backbone instance — the one a cluster's
devices all borrow from their store.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.header_importance import ImportanceConfig
from repro.core.importance import header_parameter_importance
from repro.data.dataset import ArrayDataset, DataLoader
from repro.models.headers import BackboneFeatures
from repro.nn import functional as F
from repro.nn.layers import Module
from repro.nn.optim import GRAD_CLIP, LR, FleetOptimizer, clip_grad_norm
from repro.nn.tensor import concatenate
from repro.train import serving
from repro.train.trainer import TrainConfig, TrainReport


def _resolve_configs(configs, count: int, default_factory) -> List:
    if configs is None:
        return [default_factory() for _ in range(count)]
    if not isinstance(configs, (list, tuple)):
        return [configs] * count
    if len(configs) != count:
        raise ValueError(f"{len(configs)} configs for {count} members")
    # ``None`` entries mean defaults, like the per-member APIs' config=None.
    return [c if c is not None else default_factory() for c in configs]


class _Member:
    """One member's header, data, and private epoch/batch schedule."""

    def __init__(
        self,
        index: int,
        header: Module,
        dataset: ArrayDataset,
        config,
        features: Optional[BackboneFeatures],
        max_batches: Optional[int],
    ) -> None:
        #: Position in the front-end's ``headers`` — what its hook is
        #: keyed by, however the members are split into rounds.
        self.index = index
        self.header = header
        self.params = header.parameters()
        self.dataset = dataset
        #: The frozen backbone's features over ``dataset.images``: the
        #: owner's cache (a device's
        #: :meth:`~repro.distributed.device.DeviceNode.frozen_features`,
        #: which outlives the call), or :func:`_sweep_features`'s.
        self.features = features
        self.epochs = config.epochs
        #: Batches per epoch, ``None`` for the whole dataset.
        self.max_batches = max_batches
        self.loader = DataLoader(
            dataset,
            batch_size=config.batch_size,
            shuffle=True,
            rng=np.random.default_rng(config.seed),
            yield_indices=True,
        )
        self.epoch = 0
        self.batch_idx = 0
        self.batches_seen = 0
        self.done = self.epochs <= 0
        self._iter: Optional[Iterator] = None
        self.losses: List[float] = []
        self.correct = 0
        self.total = 0
        self.epoch_losses: List[float] = []
        self.epoch_accuracies: List[float] = []

    @property
    def visits_every_row(self) -> bool:
        """Whether every epoch visits the whole dataset.

        Sweeping features for rows a batch-capped epoch never visits
        costs more backbone work than it saves — such members are
        forwarded per round instead.
        """
        return self.max_batches is None or len(self.loader) <= self.max_batches

    @property
    def yields_batches(self) -> bool:
        """Whether the schedule holds at least one mini-batch."""
        return self.epochs > 0 and len(self.loader) > 0 and self.max_batches != 0

    def _finish_epoch(self) -> None:
        self.epoch_losses.append(
            float(np.mean(self.losses)) if self.losses else float("nan")
        )
        self.epoch_accuracies.append(self.correct / max(1, self.total))
        self.losses, self.correct, self.total = [], 0, 0
        self.epoch += 1
        self.batch_idx = 0
        self._iter = None
        if self.epoch >= self.epochs:
            self.done = True

    def next_batch(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The member's next ``(indices, labels)`` pair, or None when done.

        Epochs with no (remaining) batches are closed out in place:
        empty-dataset members record ``nan`` losses and zero accuracy
        for every epoch without ever stepping.
        """
        while not self.done:
            if self._iter is None:
                self._iter = iter(self.loader)
            if self.max_batches is not None and self.batch_idx >= self.max_batches:
                self._finish_epoch()
                continue
            batch = next(self._iter, None)
            if batch is None:
                self._finish_epoch()
                continue
            self.batch_idx += 1
            return batch
        return None

    def record(self, loss: float, logits: np.ndarray, labels: np.ndarray) -> None:
        self.losses.append(loss)
        self.correct += int((logits.argmax(axis=-1) == labels).sum())
        self.total += labels.shape[0]
        self.batches_seen += 1


def _members(headers, datasets, configs, default_config, features) -> List[_Member]:
    """One member per header; an :class:`ImportanceConfig` caps its
    epochs at ``max_batches_per_epoch``, a :class:`TrainConfig` does not."""
    if len(headers) != len(datasets):
        raise ValueError(f"{len(headers)} headers vs {len(datasets)} datasets")
    configs = _resolve_configs(configs, len(headers), default_config)
    if features is None:
        features = [None] * len(headers)
    capped = default_config is ImportanceConfig
    return [
        _Member(i, h, d, c, f, c.max_batches_per_epoch if capped else None)
        for i, (h, d, c, f) in enumerate(zip(headers, datasets, configs, features))
    ]


def _sweep_features(backbone: Module, members: Sequence[_Member]) -> None:
    """One chunked tape-free sweep for the members that need a cache.

    A frozen backbone is a pure per-sample feature extractor, so one
    sweep serves every epoch — unless the member's epochs are
    batch-capped (:attr:`_Member.visits_every_row`).
    """
    swept = [
        m
        for m in members
        if m.features is None and m.visits_every_row and len(m.dataset) > 0
    ]
    if not swept:
        return
    images = (
        swept[0].dataset.images
        if len(swept) == 1
        else np.concatenate([m.dataset.images for m in swept], axis=0)
    )
    parts = serving.split_features(
        serving.precompute_backbone_features(backbone, images),
        [len(m.dataset) for m in swept],
    )
    for member, part in zip(swept, parts):
        member.features = part


def _round_features(
    backbone: Module, members: Sequence[_Member], batches: Sequence[np.ndarray]
) -> List[BackboneFeatures]:
    """The round's per-member features: row gathers from the caches, and
    for cacheless members one stacked tape-free forward over exactly the
    rows a per-device loop would forward this round.  Bit-for-bit
    identical per row either way (row-independent kernels)."""
    out: List[Optional[BackboneFeatures]] = [
        None if m.features is None else serving.gather_features(m.features, batch)
        for m, batch in zip(members, batches)
    ]
    direct = [i for i, feats in enumerate(out) if feats is None]
    if direct:
        forwarded = serving.batched_forward_features_multi(
            backbone, [members[i].dataset.images[batches[i]] for i in direct]
        )
        for i, feats in zip(direct, forwarded):
            out[i] = feats
    return out  # type: ignore[return-value]


def _run_rounds(
    backbone: Module,
    members: Sequence[_Member],
    step: bool = True,
    on_step: Optional[Callable[[_Member], None]] = None,
    grad_clip: Optional[float] = None,
) -> None:
    """The round loop: gather → forward → masked loss → one step.

    ``grad_clip`` bounds each member's gradient norm after
    ``backward()``; ``on_step`` then sees each active member before the
    optimizer step; ``step=False`` leaves the weights alone (gradients
    only).
    """
    if not members:
        return
    _sweep_features(backbone, members)
    optimizer = FleetOptimizer([m.params for m in members], lr=LR)
    while True:
        active: List[int] = []
        batches: List[np.ndarray] = []
        labels: List[np.ndarray] = []
        for i, member in enumerate(members):
            batch = member.next_batch()
            if batch is None:
                continue
            active.append(i)
            batches.append(batch[0])
            labels.append(batch[1])
        if not active:
            return
        stepping = [members[i] for i in active]
        features = _round_features(backbone, stepping, batches)
        logits_list = [m.header(f) for m, f in zip(stepping, features)]
        one = len(stepping) == 1  # no stacking copies for a fleet of one
        stacked = logits_list[0] if one else concatenate(logits_list, axis=0)
        bounds = [0, *itertools.accumulate(len(b) for b in batches)]
        segments = list(zip(bounds, bounds[1:]))
        total, losses = F.fleet_cross_entropy(
            stacked, labels[0] if one else np.concatenate(labels), segments
        )
        optimizer.zero_grad(active)
        total.backward()
        for member in stepping:
            if grad_clip is not None:
                clip_grad_norm(member.params, grad_clip)
            if on_step is not None:
                on_step(member)
        if step:
            optimizer.step(active)
        for member, loss, (lo, hi), y in zip(stepping, losses, segments, labels):
            if step and hasattr(member.header, "reapply_mask"):
                member.header.reapply_mask()
            member.record(loss, stacked.data[lo:hi], y)


def train_headers_fleet(
    backbone: Module,
    headers: Sequence[Module],
    datasets: Sequence[ArrayDataset],
    configs=None,
    features: Optional[Sequence[Optional[BackboneFeatures]]] = None,
) -> List[TrainReport]:
    """Train headers over one shared frozen backbone (the Phase 2-2 setting).

    Each member follows its own :class:`TrainConfig` schedule (shuffle
    stream, epochs, batch size); gradients are clipped at
    :data:`~repro.nn.optim.GRAD_CLIP`; each round
    runs as one stacked graph with a single fused optimizer step.
    ``features`` aligns with ``headers``: member ``i``'s precomputed
    features over ``datasets[i].images`` (or ``None``) — a cache the
    caller owns across calls; every mini-batch is then a row gather,
    bit-identical to the forward it replaces.
    """
    members = _members(headers, datasets, configs, TrainConfig, features)
    _run_rounds(backbone, members, grad_clip=GRAD_CLIP)
    return [
        TrainReport(epoch_losses=m.epoch_losses, epoch_accuracies=m.epoch_accuracies)
        for m in members
    ]


def fleet_importance_rounds(
    backbone: Module,
    headers: Sequence[Module],
    datasets: Sequence[ArrayDataset],
    configs=None,
    features: Optional[Sequence[Optional[BackboneFeatures]]] = None,
    train: bool = True,
) -> List[np.ndarray]:
    """Local importance rounds (Algorithm 2's device phase, Eqs. 16-18).

    Trains every header for its :class:`ImportanceConfig` schedule in
    stacked rounds and accumulates each device's first-order Taylor
    importance set from its own gradients **before** each optimizer
    step; returns one flat set per header, aligned with the header's
    ``parameters()`` raveled and concatenated in order.  ``train=False`` skips the updates
    and only accumulates (re-scoring an already-trained header).
    ``features`` aligns with ``headers``, as for
    :func:`train_headers_fleet`.  A member whose schedule holds no batch
    is an error raised before any header is touched.
    """
    members = _members(headers, datasets, configs, ImportanceConfig, features)
    if not all(m.yields_batches for m in members):
        raise ValueError("dataset produced no batches for importance estimation")
    accumulated = [np.zeros(h.parameter_count()) for h in headers]

    def accumulate_importance(member: _Member) -> None:
        # Eq. (17)-(18): per-parameter (g · υ)², accumulated per batch.
        grads = np.concatenate(
            [
                (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
                for p in member.params
            ]
        )
        values = np.concatenate([p.data.reshape(-1) for p in member.params])
        accumulated[member.index] += header_parameter_importance(grads, values)

    _run_rounds(backbone, members, step=train, on_step=accumulate_importance)
    return [acc / m.batches_seen for acc, m in zip(accumulated, members)]
