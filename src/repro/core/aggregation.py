"""Personalized architecture aggregation (Eqs. 19-21, Algorithm 2).

The edge-device single loop of Phase 2-2: every round, each device
computes its importance set ``Q_n`` on local data; the edge server forms
each device's personalized set as the similarity-weighted convex
combination

.. math:: Q'_n = \\sum_{i∈N_s} ŵ_{n,i} Q_i

and devices prune their headers by ``Q'_n``.  Four aggregation variants
reproduce the Fig. 11 comparison:

* ``alone``  — no collaboration: ``Q'_n = Q_n``;
* ``average``— uniform weights (FedAvg-style);
* ``js``     — weights from Jensen-Shannon similarity;
* ``ours``   — weights from Wasserstein similarity (ACME).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.header_importance import (
    ImportanceConfig,
    compute_importance_set,
    prune_by_importance,
)
from repro.core.similarity import build_similarity_matrix
from repro.data.dataset import ArrayDataset
from repro.models.header_dag import DAGHeader
from repro.models.vit import VisionTransformer

AGGREGATION_METHODS = ("alone", "average", "js", "ours")


def aggregation_weights(
    method: str,
    num_devices: int,
    backbone: Optional[VisionTransformer] = None,
    datasets: Optional[Sequence[ArrayDataset]] = None,
    seed: int = 0,
) -> np.ndarray:
    """Row-stochastic weight matrix Ŵ for one aggregation method."""
    if method not in AGGREGATION_METHODS:
        raise ValueError(f"unknown method {method!r}; options: {AGGREGATION_METHODS}")
    if method == "alone":
        return np.eye(num_devices)
    if method == "average":
        return np.full((num_devices, num_devices), 1.0 / num_devices)
    if backbone is None or datasets is None:
        raise ValueError(f"method {method!r} needs a backbone and device datasets")
    metric = "wasserstein" if method == "ours" else "js"
    return build_similarity_matrix(backbone, list(datasets), metric=metric, seed=seed)


def aggregate_importance_sets(
    importance_sets: Sequence[np.ndarray], weights: np.ndarray
) -> List[np.ndarray]:
    """Eq. (21): personalized sets ``Q'_n = Σ_i ŵ_{n,i} Q_i``.

    The validated whole-cluster form of :class:`StreamingAggregator`:
    every member present, one output row per member.
    """
    sets = list(importance_sets)
    n = len(sets)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n, n):
        raise ValueError(f"weights shape {weights.shape} != ({n}, {n})")
    aggregator = StreamingAggregator(weights)
    for i, q in enumerate(sets):
        aggregator.consume(i, q)
    return aggregator.finalize()


def _masked_row(row: np.ndarray, col_index: np.ndarray) -> np.ndarray:
    """One weight row masked to the present columns and renormalized.

    Every ``Q'_n`` stays a convex combination — of whoever showed up.  A
    row with no weight on any present member falls back to uniform
    weights over them.
    """
    w = row[col_index]
    total = w.sum()
    if total <= 0.0:
        return np.full(len(col_index), 1.0 / len(col_index))
    return w / total


class StreamingAggregator:
    """Eq. (21) as a running sum — the one aggregation kernel.

    Consumes importance sets one at a time into an accumulator of shape
    ``(rows, R)``, so the edge holds one personalized-set accumulator
    (plus one weight row per requested output) regardless of how many
    members report; the ``(n, R)`` stack never exists.

    Each :meth:`consume` is one elementwise ``acc += w[:, j] · q``.  The
    per-cell arithmetic is an independent scalar chain in a fixed ``j``
    order, so the result's bits depend only on the arrival order — not
    on how many rows are produced at once.  A BLAS ``w @ stacked``
    product would not give that guarantee (dgemv's blocked accumulation
    order differs from the running sum), which is why every aggregation
    in the repo goes through here.  ``tests/core/
    test_aggregation_streaming.py`` holds it to an independent float64
    oracle written straight from the equation.

    Parameters
    ----------
    weights:
        Either the full square ``(n, n)`` row-stochastic matrix or a
        pre-sliced ``(len(rows), n)`` block of its rows — the O(rows · n)
        form a million-device edge passes so the square matrix never
        exists.  Row sums are validated either way.
    rows:
        Full-matrix row indices to produce personalized sets for, in
        output order.  Required when ``weights`` is square and a subset is
        wanted; must be ``None`` when ``weights`` is pre-sliced.
    cols:
        The full-cluster indices whose sets will arrive — **in arrival
        order** — or ``None`` for "all ``n`` members, in index order"
        (the fault-free path: the weight rows are used as given, no
        renormalization).  With an explicit subset each weight row is
        masked and renormalized up front, so the stream can be consumed
        without waiting for the round to end.
    """

    def __init__(
        self,
        weights: np.ndarray,
        rows: Optional[Sequence[int]] = None,
        cols: Optional[Sequence[int]] = None,
    ) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        self.num_members = int(weights.shape[1])
        if not np.allclose(weights.sum(axis=1), 1.0, atol=1e-6):
            raise ValueError("weight rows must sum to 1 (convex combination)")
        if rows is not None:
            if weights.shape[0] != self.num_members:
                raise ValueError(
                    "rows indices only apply to a square weight matrix; "
                    f"got shape {weights.shape} with rows={list(rows)}"
                )
            weight_rows = weights[np.asarray(rows, dtype=int)]
        else:
            weight_rows = weights
        if cols is None:
            self._cols = np.arange(self.num_members)
            self._weight_rows = weight_rows
        else:
            self._cols = np.asarray(cols, dtype=int)
            if len(self._cols) == 0:
                raise ValueError(
                    "cannot aggregate an empty round: no member present"
                )
            self._weight_rows = np.stack(
                [_masked_row(row, self._cols) for row in weight_rows]
            )
        self._acc: Optional[np.ndarray] = None
        self._consumed = 0

    def consume(self, col: int, importance: np.ndarray) -> None:
        """Fold one member's importance set into the running sums.

        ``col`` is the member's full-cluster index; sets must arrive in
        the constructor's ``cols`` order (the determinism contract — the
        running sum's accumulation order defines the result's bits).
        """
        if self._consumed >= len(self._cols):
            raise ValueError(
                f"round already complete: {self._consumed} sets consumed"
            )
        expected_col = int(self._cols[self._consumed])
        if int(col) != expected_col:
            raise ValueError(
                f"out-of-order set: got member {col}, expected member "
                f"{expected_col} (arrival position {self._consumed}); "
                f"streaming aggregation is order-deterministic"
            )
        q = np.asarray(importance, dtype=np.float64).reshape(-1)
        if self._acc is None:
            self._acc = np.zeros(
                (self._weight_rows.shape[0], q.size), dtype=np.float64
            )
        elif q.size != self._acc.shape[1]:
            raise ValueError(
                f"importance set length {q.size} != {self._acc.shape[1]}"
            )
        j = self._consumed
        self._acc += self._weight_rows[:, j : j + 1] * q[np.newaxis, :]
        self._consumed += 1

    def finalize(self) -> List[np.ndarray]:
        """The personalized sets, one per requested row, in row order."""
        if self._consumed != len(self._cols):
            raise ValueError(
                f"round incomplete: {self._consumed} of {len(self._cols)} "
                f"sets consumed"
            )
        assert self._acc is not None
        return [self._acc[k] for k in range(self._acc.shape[0])]


@dataclass
class AggregationRoundRecord:
    """Telemetry of one Algorithm 2 round."""

    round_index: int
    uploaded_bytes: int
    downloaded_bytes: int
    active_fractions: List[float] = field(default_factory=list)


@dataclass
class AggregationResult:
    """Output of the Algorithm 2 loop."""

    headers: List[DAGHeader]
    weights: np.ndarray
    rounds: List[AggregationRoundRecord] = field(default_factory=list)


def personalized_architecture_aggregation(
    backbone: VisionTransformer,
    headers: Sequence[DAGHeader],
    datasets: Sequence[ArrayDataset],
    num_rounds: int = 2,
    keep_fraction: float = 0.7,
    method: str = "ours",
    importance_config: Optional[ImportanceConfig] = None,
    seed: int = 0,
) -> AggregationResult:
    """Algorithm 2: generate fine headers for one device cluster.

    Parameters
    ----------
    backbone:
        The cluster's customized backbone (used frozen on devices).
    headers:
        One coarse header per device (modified in place).
    datasets:
        Each device's local private dataset.
    num_rounds:
        ``T`` — single-loop iterations between edge and devices.
    keep_fraction:
        Fraction of prunable header parameters each round keeps.  Fractions
        compose across rounds through re-masking from the pristine copy, so
        the mask can both shrink and recover as importance estimates evolve.
    method:
        One of :data:`AGGREGATION_METHODS`.
    """
    if len(headers) != len(datasets):
        raise ValueError("need exactly one dataset per header")
    if num_rounds < 1:
        raise ValueError(f"num_rounds must be >= 1, got {num_rounds}")

    n = len(headers)
    # Algorithm 2 line 2: the similarity matrix is computed once, up front.
    weights = aggregation_weights(method, n, backbone, datasets, seed=seed)
    result = AggregationResult(headers=list(headers), weights=weights)

    for t in range(num_rounds):
        config = importance_config or ImportanceConfig(seed=seed + t)
        importance_sets = [
            compute_importance_set(backbone, header, dataset, config=config)
            for header, dataset in zip(headers, datasets)
        ]
        upload = sum(q.nbytes for q in importance_sets)  # devices upload Q_n (line 6)

        personalized = aggregate_importance_sets(importance_sets, weights)
        download = sum(q.nbytes for q in personalized)  # edge sends Q'_n (line 9)

        fractions = []
        for header, q_prime in zip(headers, personalized):
            prune_by_importance(header, q_prime, keep_fraction)
            fractions.append(
                header.active_parameter_count() / header.parameter_count()
            )
        result.rounds.append(
            AggregationRoundRecord(
                round_index=t,
                uploaded_bytes=upload,
                downloaded_bytes=download,
                active_fractions=fractions,
            )
        )
    return result
