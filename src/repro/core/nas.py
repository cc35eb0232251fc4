"""First-stage header customization: ENAS-style search (§III-C).

The edge server searches for a coarse header matching its backbone:

* a **shared-parameter pool** holds one instance of every candidate
  operation per (block, slot) position; all sampled child headers reuse
  these weights (Pham et al.'s parameter sharing, Eq. 15's ω_s);
* the **controller** (:mod:`repro.core.controller`) samples architectures;
* the search alternates between optimizing ω_s on the shared dataset with
  sampled children (Monte-Carlo estimate of Eq. 15) and updating the
  controller with REINFORCE using validation accuracy as reward and a
  moving-average baseline.

Per the paper the backbone is *not* frozen at this stage; freezing it is
available as a fast path (its features over the search's train split and
the scored validation prefix are then swept once per search).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.controller import (
    ArchitectureController,
    MovingAverageBaseline,
    SampledArchitecture,
)
from repro.data.dataset import ArrayDataset, DataLoader
from repro.models.blocks import OPERATION_NAMES, build_operation, num_operations
from repro.models.header_dag import DAGHeader
from repro.models.headers import BackboneFeatures, frozen_batch_features
from repro.models.vit import VisionTransformer
from repro.nn import functional as F
from repro.nn.layers import Activation, Linear, Module, Sequential
from repro.nn.optim import GRAD_CLIP, Adam, clip_grad_norm
from repro.nn.tensor import Tensor, no_grad

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributed.executor import ExecutionPlan

#: Repeats ``U`` of the searched cell in a derived header.
REPEATS = 1
#: Mini-batch rows of the ω_s steps and of child scoring.
BATCH_SIZE = 16
#: Adam learning rates of the shared pool ω_s and of the controller.
SHARED_LR = 2e-3
CONTROLLER_LR = 5e-3
#: The share of the edge's shared set held out to score children on.
VAL_FRACTION = 0.3


class SharedOpPool:
    """One lazily-built operation instance per (block, slot, op) position.

    Children constructed through :meth:`factory` share these modules, so
    training any child trains the pool — the ω_s of Eq. (15).
    """

    def __init__(self, channels: int, seed: int = 0) -> None:
        self.channels = channels
        self._rng = np.random.default_rng(seed)
        self._ops: Dict[Tuple[int, int, int], Module] = {}

    def factory(self, block: int, slot: int, op_index: int) -> Module:
        key = (block, slot, op_index)
        if key not in self._ops:
            self._ops[key] = build_operation(
                OPERATION_NAMES[op_index], self.channels, self._rng
            )
        return self._ops[key]

    def parameters(self):
        seen = set()
        params = []
        for op in self._ops.values():
            for p in op.parameters():
                if id(p) not in seen:
                    seen.add(id(p))
                    params.append(p)
        return params


@dataclass
class NASConfig:
    """Hyperparameters of the first-stage search."""

    num_blocks: int = 3  # B
    search_epochs: int = 3
    children_per_epoch: int = 4  # M in the Monte-Carlo gradient (Eq. 15)
    shared_steps_per_child: int = 2
    controller_updates_per_epoch: int = 4
    derive_samples: int = 8
    train_backbone: bool = True  # paper: backbone NOT frozen in stage 2-1
    seed: int = 0


@dataclass
class SearchResult:
    """Everything the search produces."""

    spec: "HeaderSpec"
    reward_history: List[float] = field(default_factory=list)
    best_reward: float = 0.0


from repro.models.blocks import HeaderSpec  # noqa: E402  (dataclass forward ref)


class HeaderSearch:
    """Runs Phase 2-1 for one edge server."""

    def __init__(
        self,
        backbone: VisionTransformer,
        num_classes: int,
        config: Optional[NASConfig] = None,
        plan: Optional[ExecutionPlan] = None,
    ) -> None:
        self.backbone = backbone
        self.num_classes = num_classes
        self.config = config or NASConfig()
        #: Where child scoring fans out (``None`` = serial).
        self.plan = plan
        cfg = self.config
        self.rng = np.random.default_rng(cfg.seed)
        embed_dim = backbone.config.embed_dim
        self.pool = SharedOpPool(embed_dim, seed=cfg.seed)
        self.controller = ArchitectureController(
            num_blocks=cfg.num_blocks, repeats=REPEATS, seed=cfg.seed
        )
        # Shared classifier: part of ω_s, reused by every child.
        rng = np.random.default_rng(cfg.seed + 1)
        self.classifier = Sequential(
            Linear(2 * embed_dim, embed_dim, rng=rng),
            Activation("gelu"),
            Linear(embed_dim, num_classes, rng=rng),
        )
        self._controller_opt = Adam(self.controller.parameters(), lr=CONTROLLER_LR)
        self._baseline = MovingAverageBaseline()

    # ------------------------------------------------------------------
    def build_child(self, spec: HeaderSpec) -> DAGHeader:
        """Instantiate a child header wired to the shared pool."""
        return DAGHeader(
            self.backbone.config.embed_dim,
            self.backbone.config.num_patches,
            self.num_classes,
            spec,
            op_factory=self.pool.factory,
            classifier=self.classifier,
        )

    def _features(
        self, batch: np.ndarray, features: Optional[BackboneFeatures] = None
    ) -> BackboneFeatures:
        """One batch's backbone features: rows of ``features`` (a
        :meth:`_sweep`; ``batch`` is then row indices), else a forward
        over the images — taped only while the backbone trains."""
        if features is None and self.config.train_backbone:
            return BackboneFeatures(*self.backbone.forward_features_multi(Tensor(batch)))
        return frozen_batch_features(self.backbone, batch, features)

    def _sweep(self, images: np.ndarray) -> Optional[BackboneFeatures]:
        """Tape-free features of ``images``, row-aligned, to gather batches from.

        Valid only while the backbone's weights stand still: a frozen
        search sweeps once in :meth:`search`, a ``train_backbone`` one
        only inside a scoring call.  ``None`` (per-batch forwards stay)
        when there is no row.
        """
        from repro.train.serving import precompute_backbone_features  # lazy: cycle

        if len(images) == 0:
            return None
        return precompute_backbone_features(self.backbone, images)

    def _shared_parameters(self, child: DAGHeader):
        params = self.pool.parameters() + self.classifier.parameters()
        if self.config.train_backbone:
            params = params + self.backbone.parameters()
        # Child-local params are exactly pool+classifier here, but dedupe
        # defensively in case specs ever add private modules.
        seen = {id(p) for p in params}
        for p in child.parameters():
            if id(p) not in seen:
                params.append(p)
                seen.add(id(p))
        return params

    def _train_shared(
        self,
        child: DAGHeader,
        loader: DataLoader,
        features: Optional[BackboneFeatures] = None,
    ) -> None:
        """A few ω_s steps on ``child``; with ``features`` (a sweep of
        the loader's dataset) the loader yields row indices to gather."""
        cfg = self.config
        optimizer = Adam(self._shared_parameters(child), lr=SHARED_LR)
        steps = 0
        for batch, labels in loader:
            if steps >= cfg.shared_steps_per_child:
                break
            logits = child(self._features(batch, features))
            loss = F.cross_entropy(logits, labels)
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(optimizer.params, GRAD_CLIP)
            optimizer.step()
            steps += 1

    def _evaluate_child(
        self,
        child: DAGHeader,
        dataset: ArrayDataset,
        max_batches: int = 4,
        features: Optional[BackboneFeatures] = None,
    ) -> float:
        """Score an already-built child — the parallelizable inner task.

        Pure inference over shared (frozen-for-scoring) weights: safe to
        run concurrently for many children.  ``features`` (a
        :meth:`_sweep` of the scored prefix of ``dataset``) turns each
        batch into a row gather so scoring skips the backbone entirely;
        without it every batch is a tape-free forward.
        """
        loader = DataLoader(
            dataset,
            batch_size=BATCH_SIZE,
            shuffle=False,
            # reprolint: fixed-rng -- shuffle=False never draws from this
            # stream; the pinned rng keeps eval loaders deterministic even if
            # the set_seed fallback default ever changes
            rng=np.random.default_rng(0),
            yield_indices=features is not None,
        )
        correct, total = 0, 0
        # Reward scoring is pure inference (REINFORCE differentiates the
        # controller's log-probs, never the child): run it tape-free.
        with no_grad():
            for batch_idx, (batch, labels) in enumerate(loader):
                if batch_idx >= max_batches:
                    break
                logits = child(self._features(batch, features))
                correct += int((logits.data.argmax(axis=-1) == labels).sum())
                total += labels.shape[0]
        return correct / max(1, total)

    def _score_specs(
        self,
        specs: List[HeaderSpec],
        dataset: ArrayDataset,
        max_batches: int = 4,
        features: Optional[BackboneFeatures] = None,
    ) -> List[float]:
        """Validation rewards for many specs, fanned out over the plan.

        Children are built serially first (lazy shared-pool operations
        must be created in the deterministic sample order), then scored
        on the plan's inner tier with rewards returned in spec order — so
        any width and either backend reproduces the serial loop exactly
        (scoring reads shared state and writes none that outlives the
        task, so forked workers send nothing home but the reward).

        Every child visits the same first ``max_batches`` validation
        batches, so they are served from one sweep: the caller's
        ``features`` when the backbone is frozen for the whole search,
        otherwise one made here (nothing trains during a scoring call).
        """
        from repro.distributed.executor import ExecutionPlan  # lazy: avoids import cycle

        children = [self.build_child(spec) for spec in specs]
        if features is None:
            features = self._sweep(self._scored_prefix(dataset, max_batches))
        return (self.plan or ExecutionPlan()).map_devices(
            lambda child: self._evaluate_child(
                child, dataset, max_batches, features=features
            ),
            children,
        )

    def _scored_prefix(self, dataset: ArrayDataset, max_batches: int = 4) -> np.ndarray:
        """The rows :meth:`_evaluate_child`'s unshuffled loader visits."""
        return dataset.images[: max_batches * BATCH_SIZE]

    def _update_controller(
        self, val_set: ArrayDataset, features: Optional[BackboneFeatures] = None
    ) -> float:
        """One REINFORCE update; returns the mean reward of its samples.

        Architecture sampling stays serial (it threads the controller's
        RNG stream), child scoring fans out, and the moving-average
        baseline is then updated in sample order — numerically identical
        to the fully serial loop.
        """
        cfg = self.config
        samples = [
            self.controller.sample(self.rng)
            for _ in range(cfg.controller_updates_per_epoch)
        ]
        rewards = self._score_specs([s.spec for s in samples], val_set, features=features)
        losses = None
        for sample, reward in zip(samples, rewards):
            baseline = self._baseline.update(reward)
            advantage = reward - baseline
            term = sample.log_prob * (-advantage)
            losses = term if losses is None else losses + term
        assert losses is not None
        self._controller_opt.zero_grad()
        losses.backward()
        clip_grad_norm(self.controller.parameters(), GRAD_CLIP)
        self._controller_opt.step()
        return float(np.mean(rewards))

    def search(self, dataset: ArrayDataset) -> SearchResult:
        """Run the alternating ENAS loop and derive the best header spec."""
        cfg = self.config
        train_set, val_set = dataset.split(1.0 - VAL_FRACTION, self.rng)
        result = SearchResult(spec=HeaderSpec.from_sequence([0, 0, 0, 0]))
        # A frozen backbone's features are a pure function of the rows:
        # sweep them once per search instead of once per shuffled batch.
        train_features = val_features = None
        if not cfg.train_backbone:
            train_features = self._sweep(train_set.images)
            val_features = self._sweep(self._scored_prefix(val_set))

        for _epoch in range(cfg.search_epochs):
            # Step 1: optimize shared parameters ω_s with sampled children.
            for _ in range(cfg.children_per_epoch):
                sample = self.controller.sample(self.rng)
                child = self.build_child(sample.spec)
                loader = DataLoader(
                    train_set,
                    batch_size=BATCH_SIZE,
                    shuffle=True,
                    rng=self.rng,
                    yield_indices=train_features is not None,
                )
                self._train_shared(child, loader, train_features)
            # Step 2: update the controller policy θ_LSTM.
            mean_reward = self._update_controller(val_set, val_features)
            result.reward_history.append(mean_reward)

        # Derivation: sample candidates (serial, RNG-ordered), score them
        # across workers, keep the best on validation.  The greedy spec is
        # scored with the batch; the tie-breaking order (first best wins,
        # greedy only on strict improvement) matches the serial loop.
        derive_specs = [
            self.controller.sample(self.rng).spec for _ in range(cfg.derive_samples)
        ]
        greedy = self.controller.sample(self.rng, greedy=True)
        rewards = self._score_specs(
            derive_specs + [greedy.spec], val_set, features=val_features
        )
        best_spec, best_reward = None, -1.0
        for spec, reward in zip(derive_specs, rewards[: len(derive_specs)]):
            if reward > best_reward:
                best_spec, best_reward = spec, reward
        if rewards[-1] > best_reward:
            best_spec, best_reward = greedy.spec, rewards[-1]

        assert best_spec is not None
        result.spec = best_spec
        result.best_reward = best_reward
        return result

    def materialize_header(self, spec: HeaderSpec, seed: int = 0) -> DAGHeader:
        """Fresh (non-shared) header with weights copied from the pool.

        This is the coarse header θH_s distributed to devices: a standalone
        module whose operations start from the shared-pool weights.
        """
        header = DAGHeader(
            self.backbone.config.embed_dim,
            self.backbone.config.num_patches,
            self.num_classes,
            spec,
            rng=np.random.default_rng(seed),
        )
        # Copy shared weights where architecture positions match.
        for module in header.modules_list:
            for b, block in enumerate(module.blocks):
                for slot, op in ((0, block.op1), (1, block.op2)):
                    op_idx = block.spec.op1 if slot == 0 else block.spec.op2
                    key = (b, slot, op_idx)
                    if key in self.pool._ops:
                        op.load_state_dict(self.pool._ops[key].state_dict())
        header.classifier.load_state_dict(self.classifier.state_dict())
        return header
