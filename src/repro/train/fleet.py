"""Batched cross-device **training**: many headers, one graph, one step.

PR 3 batched the frozen-backbone *serving* fan-outs (evaluation, feature
extraction) across the devices of a cluster; this module batches the
*training* loops the same way.  Every device in an ACME cluster trains
its own personalized header against the same frozen backbone, so a
round of local updates is N small, structurally identical training
steps.  The fleet trainer runs them as **one computation graph per
round**:

1. every member's frozen-backbone features are precomputed **once**
   into a single concatenated cache (one chunked ``no_grad`` sweep over
   all members' samples, reusing :mod:`repro.train.serving`);
2. each round, the active members' mini-batch rows are gathered from
   that cache with one fancy-index row gather and split into contiguous
   per-member views;
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

Numerical contract (the PR 2-4 invariant, asserted in
``tests/train/test_fleet.py``): under float64 every per-member loss,
accuracy, and final header weight is **bit-for-bit identical** to
running the serial per-device path (:func:`repro.train.trainer.train_header`
/ :func:`repro.core.header_importance.compute_importance_set`) member by
member.  The pieces composing that guarantee: served frozen features are
bit-identical to per-batch forwards (row-independent kernels, PR 3),
each member's masked loss and gradient rows equal per-slice
cross-entropy under the upstream gradient ``1.0`` that
``loss.backward()`` would supply (row-independent log-softmax +
block-diagonal gradient routing), and the fleet optimizer's fused pass
equals one fused Adam per member (elementwise updates over a
concatenation).

Members may have different dataset sizes, epoch counts and batch caps —
each keeps its own shuffle stream, epoch schedule and Adam step counter,
simply dropping out of rounds it has no batch for.  Stochastic models
(training-mode dropout) fall back to the serial loop: one concatenated
graph would consume module-local RNG in a different order than N
separate loops (see :func:`repro.nn.layers.has_active_stochastic_modules`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.header_importance import ImportanceConfig, compute_importance_set
from repro.core.importance import header_parameter_importance
from repro.data.dataset import ArrayDataset, DataLoader
from repro.models.headers import BackboneFeatures
from repro.nn import functional as F
from repro.nn.layers import Module, has_active_stochastic_modules
from repro.nn.optim import FleetOptimizer, clip_grad_norm
from repro.nn.tensor import Tensor, concatenate, no_grad
from repro.train import serving
from repro.train.trainer import TrainConfig, TrainReport, train_header


def fleet_supported(backbone: Module, headers: Sequence[Module]) -> bool:
    """Whether one stacked graph reproduces the per-member loops exactly.

    False when any forward would consume module-local RNG
    (training-mode dropout): a fleet round draws a different stream than
    N separate loops, so such fleets must train serially.  Callers with
    per-device backbones must additionally check
    :func:`repro.train.serving.backbones_equivalent` — the fleet serves
    every member from **one** backbone instance.
    """
    if has_active_stochastic_modules(backbone):
        return False
    return not any(has_active_stochastic_modules(h) for h in headers)


def _resolve_configs(configs, count: int, default_factory) -> List:
    if configs is None:
        return [default_factory() for _ in range(count)]
    if not isinstance(configs, (list, tuple)):
        return [configs] * count
    if len(configs) != count:
        raise ValueError(f"{len(configs)} configs for {count} members")
    # ``None`` entries mean defaults, like the per-member APIs' config=None.
    return [c if c is not None else default_factory() for c in configs]


class _FleetFeatureServer:
    """Frozen-backbone features for every member's mini-batches.

    Two serving modes per member.  A member with a feature cache —
    handed in by its owner (a device's
    :meth:`~repro.distributed.device.DeviceNode.frozen_features`, which
    outlives the call), or swept here in one chunked pass over every
    uncached member whose epochs visit its whole dataset (no binding
    ``max_batches_per_epoch`` cap) — is row-gathered per round.  A
    batch-capped member without one would waste a per-call sweep on rows
    it never visits, so its rows are forwarded **per round** — all such
    members' batch images stacked into one ``no_grad`` forward (exactly
    the rows the serial loop forwards, batched across devices).  Both
    modes are bit-for-bit identical per row (row-independent kernels,
    the PR 3 invariant).
    """

    def __init__(
        self,
        backbone: Module,
        datasets: Sequence[ArrayDataset],
        sweep_member: Sequence[bool],
        features: Sequence[Optional[BackboneFeatures]],
    ) -> None:
        self.backbone = backbone
        self.datasets = list(datasets)
        self.features: List[Optional[BackboneFeatures]] = list(features)
        swept = [
            m
            for m, dataset in enumerate(self.datasets)
            if self.features[m] is None and sweep_member[m] and len(dataset) > 0
        ]
        if swept:
            sweep = serving.precompute_backbone_features(
                backbone, np.concatenate([self.datasets[m].images for m in swept], axis=0)
            )
            parts = self._split(sweep, [len(self.datasets[m]) for m in swept])
            for m, part in zip(swept, parts):
                self.features[m] = part

    @staticmethod
    def _split(features: BackboneFeatures, sizes: Sequence[int]) -> List[BackboneFeatures]:
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        return [
            BackboneFeatures(
                Tensor(features.cls.data[lo:hi]),
                Tensor(features.tokens.data[lo:hi]),
                Tensor(features.penultimate.data[lo:hi]),
            )
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

    def gather(
        self, active: Sequence[int], batches: Sequence[np.ndarray]
    ) -> List[BackboneFeatures]:
        """The round's per-member features, in ``active`` order."""
        out: List[Optional[BackboneFeatures]] = [
            None
            if self.features[m] is None
            else serving.gather_features(self.features[m], batches[i])
            for i, m in enumerate(active)
        ]
        direct_pairs = [(i, m) for i, m in enumerate(active) if out[i] is None]
        if direct_pairs:
            # One stacked tape-free forward over exactly the rows the
            # serial loops would forward this round.
            images = np.concatenate(
                [self.datasets[m].images[np.asarray(batches[i])] for i, m in direct_pairs]
            )
            with no_grad():
                cls, tokens, penult = self.backbone.forward_features_multi(Tensor(images))
            split = self._split(
                BackboneFeatures(cls, tokens, penult),
                [len(batches[i]) for i, _m in direct_pairs],
            )
            for (i, _m), feats in zip(direct_pairs, split):
                out[i] = feats
        return out  # type: ignore[return-value]


@dataclass
class _MemberSchedule:
    """One member's private epoch/batch schedule (serial-path semantics)."""

    header: Module
    dataset: ArrayDataset
    epochs: int
    max_batches: Optional[int]
    loader: DataLoader
    epoch: int = 0
    batch_idx: int = 0
    done: bool = False
    _iter: Optional[Iterator] = None

    def __post_init__(self) -> None:
        self.losses: List[float] = []
        self.correct = 0
        self.total = 0
        self.epoch_losses: List[float] = []
        self.epoch_accuracies: List[float] = []
        if self.epochs <= 0:
            self.done = True

    def _finish_epoch(self) -> None:
        # Exactly the serial loop's epoch bookkeeping.
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

        Epochs with no (remaining) batches are closed out exactly like
        the serial loop: empty-dataset members record ``nan`` losses and
        zero accuracy for every epoch without ever stepping.
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


def _cache_worthwhile(dataset: ArrayDataset, batch_size: int, max_batches) -> bool:
    """Whether a member visits its whole dataset every epoch.

    Mirrors ``train_header``'s cache guard: precomputing features for
    rows a batch-capped epoch never visits costs more backbone sweeps
    than it saves — those members are served per round instead.
    """
    if max_batches is None:
        return True
    batches_per_epoch = -(-len(dataset) // batch_size)
    return batches_per_epoch <= max_batches


def _run_rounds(
    members: List[_MemberSchedule],
    cache: _FleetFeatureServer,
    optimizer: FleetOptimizer,
    grad_clips: Sequence[Optional[float]],
    on_step,
) -> None:
    """The shared round loop: gather → forward → masked loss → one step."""
    while True:
        active: List[int] = []
        batches: List[np.ndarray] = []
        labels: List[np.ndarray] = []
        for m, member in enumerate(members):
            batch = member.next_batch()
            if batch is None:
                continue
            active.append(m)
            batches.append(np.asarray(batch[0]))
            labels.append(batch[1])
        if not active:
            return
        features = cache.gather(active, batches)
        logits_list = [members[m].header(f) for m, f in zip(active, features)]
        stacked = (
            concatenate(logits_list, axis=0) if len(logits_list) > 1 else logits_list[0]
        )
        sizes = [b.shape[0] for b in batches]
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        segments = list(zip(bounds[:-1], bounds[1:]))
        total, losses = F.fleet_cross_entropy(stacked, np.concatenate(labels), segments)
        optimizer.zero_grad(active)
        total.backward()
        for m in active:
            if grad_clips[m] is not None:
                clip_grad_norm(optimizer.member_parameters(m), grad_clips[m])
        if on_step is not None:
            on_step(active)
        optimizer.step(active)
        for m, loss, (lo, hi), y in zip(active, losses, segments, labels):
            member = members[m]
            if hasattr(member.header, "reapply_mask"):
                member.header.reapply_mask()
            member.record(loss, stacked.data[lo:hi], y)


def train_headers_fleet(
    backbone: Module,
    headers: Sequence[Module],
    datasets: Sequence[ArrayDataset],
    configs=None,
    features: Optional[Sequence[Optional[BackboneFeatures]]] = None,
) -> List[TrainReport]:
    """Train many headers over one shared frozen backbone, fleet-batched.

    Drop-in replacement for calling
    ``train_header(backbone, header, dataset, config, freeze_backbone=True)``
    per member — per-member float64 traces (epoch losses, accuracies,
    final weights) are bit-for-bit identical — but each round runs as
    one stacked graph with a single fused fleet-optimizer step.  Falls
    back to the serial per-member loop for stochastic models.
    ``features`` aligns with ``headers``: member ``i``'s precomputed
    features over ``datasets[i].images`` (or ``None``), as for
    :func:`train_header`.
    """
    if not (len(headers) == len(datasets)):
        raise ValueError(f"{len(headers)} headers vs {len(datasets)} datasets")
    configs = _resolve_configs(configs, len(headers), TrainConfig)
    if not headers:
        return []
    if features is None:
        features = [None] * len(headers)
    if not fleet_supported(backbone, headers):
        return [
            train_header(backbone, h, d, config=c, freeze_backbone=True, features=f)
            for h, d, c, f in zip(headers, datasets, configs, features)
        ]

    cache = _FleetFeatureServer(
        backbone,
        datasets,
        [
            _cache_worthwhile(d, c.batch_size, c.max_batches_per_epoch)
            for d, c in zip(datasets, configs)
        ],
        features,
    )
    members = []
    for header, dataset, config in zip(headers, datasets, configs):
        header.train()
        members.append(
            _MemberSchedule(
                header=header,
                dataset=dataset,
                epochs=config.epochs,
                max_batches=config.max_batches_per_epoch,
                loader=DataLoader(
                    dataset,
                    batch_size=config.batch_size,
                    shuffle=True,
                    rng=np.random.default_rng(config.seed),
                    yield_indices=True,
                ),
            )
        )
    optimizer = FleetOptimizer(
        [h.parameters() for h in headers], lr=[c.lr for c in configs]
    )
    _run_rounds(
        members, cache, optimizer, [c.grad_clip for c in configs], on_step=None
    )
    reports = []
    for member in members:
        member.header.eval()
        reports.append(
            TrainReport(
                epoch_losses=member.epoch_losses,
                epoch_accuracies=member.epoch_accuracies,
            )
        )
    return reports


def fleet_importance_rounds(
    backbone: Module,
    headers: Sequence[Module],
    datasets: Sequence[ArrayDataset],
    configs=None,
    features: Optional[Sequence[Optional[BackboneFeatures]]] = None,
) -> List[np.ndarray]:
    """Fleet-batched local importance rounds (Algorithm 2's device phase).

    Drop-in replacement for calling
    :func:`repro.core.header_importance.compute_importance_set` per
    device: trains every header for its configured schedule in stacked
    rounds and accumulates each device's first-order Taylor importance
    set from the per-member gradient slices **before** each fused fleet
    step, exactly as the serial loop reads them.  Float64 importance
    sets are bit-for-bit identical to the serial path.  ``features``
    aligns with ``headers``, as for :func:`train_headers_fleet`.
    """
    if not (len(headers) == len(datasets)):
        raise ValueError(f"{len(headers)} headers vs {len(datasets)} datasets")
    configs = _resolve_configs(configs, len(headers), ImportanceConfig)
    if not headers:
        return []
    if features is None:
        features = [None] * len(headers)
    if not fleet_supported(backbone, headers):
        return [
            compute_importance_set(backbone, h, d, config=c, features=f)
            for h, d, c, f in zip(headers, datasets, configs, features)
        ]

    cache = _FleetFeatureServer(
        backbone,
        datasets,
        [
            _cache_worthwhile(d, c.batch_size, c.max_batches_per_epoch)
            for d, c in zip(datasets, configs)
        ],
        features,
    )
    members = []
    for header, dataset, config in zip(headers, datasets, configs):
        members.append(
            _MemberSchedule(
                header=header,
                dataset=dataset,
                epochs=config.epochs,
                max_batches=config.max_batches_per_epoch,
                loader=DataLoader(
                    dataset,
                    batch_size=config.batch_size,
                    shuffle=True,
                    rng=np.random.default_rng(config.seed),
                    yield_indices=True,
                ),
            )
        )
    member_params = [h.parameters() for h in headers]
    optimizer = FleetOptimizer(member_params, lr=[c.lr for c in configs])
    accumulated = [np.zeros(h.parameter_count()) for h in headers]
    batches_seen = [0] * len(headers)

    def accumulate_importance(active: Sequence[int]) -> None:
        # Eq. (17)-(18), read between backward and the optimizer step —
        # the same point in the batch the serial loop samples.
        for m in active:
            params = member_params[m]
            grads = np.concatenate(
                [
                    (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
                    for p in params
                ]
            )
            values = np.concatenate([p.data.reshape(-1) for p in params])
            accumulated[m] += header_parameter_importance(grads, values)
            batches_seen[m] += 1

    _run_rounds(
        members,
        cache,
        optimizer,
        [None] * len(headers),
        on_step=accumulate_importance,
    )
    if any(n == 0 for n in batches_seen):
        raise ValueError("dataset produced no batches for importance estimation")
    return [acc / n for acc, n in zip(accumulated, batches_seen)]
