"""Backbone↔device matching policies (Fig. 9 comparison).

Given the evaluated candidate grid, four policies pick a model per device
cluster:

* **PFG (ours)** — Algorithm 1: build the Pareto Front Grid of the query's
  candidates, then answer the cluster's query with Eq. (13).
* **Greedy-Accuracy** — scan all feasible candidates for minimum loss.
* **Greedy-Size** — scan all feasible candidates for maximum size.
* **Random** — any feasible candidate.

Selection latency is modeled by the number of candidate *evaluation visits*
each query performs (the measured quantity behind Fig. 9's latency panel),
in addition to wall-clock timing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.core.pareto import Candidate, build_pfg, select_model


@dataclass
class MatchResult:
    """Outcome of one policy's selection for one cluster."""

    policy: str
    candidate: Candidate
    visits: int  # candidate evaluations performed for this query
    wall_seconds: float


class MatchingPolicy:
    """Base class: ``select`` answers one cluster's query."""

    name = "base"

    def select(self, candidates: Sequence[Candidate], storage_limit: float) -> MatchResult:
        raise NotImplementedError


class PFGMatcher(MatchingPolicy):
    """Ours: Pareto-Front-Grid lookup (Alg. 1 + Eq. 13)."""

    name = "ours"

    def __init__(self, performance_window: float = 0.05) -> None:
        self.performance_window = performance_window

    def select(self, candidates: Sequence[Candidate], storage_limit: float) -> MatchResult:
        """Answer from the grid built from this query's ``candidates``."""
        start = time.perf_counter()
        pfg = build_pfg(candidates, self.performance_window)
        chosen = select_model(pfg, storage_limit)
        elapsed = time.perf_counter() - start
        # Only PFG members are visited at query time.
        return MatchResult(self.name, chosen, visits=len(pfg.members), wall_seconds=elapsed)


class GreedyAccuracyMatcher(MatchingPolicy):
    """Pick the feasible candidate with the lowest loss (highest accuracy)."""

    name = "greedy-accuracy"

    def select(self, candidates: Sequence[Candidate], storage_limit: float) -> MatchResult:
        start = time.perf_counter()
        feasible = [c for c in candidates if c.size < storage_limit]
        if not feasible:
            raise ValueError("no candidate satisfies the storage limit")
        chosen = min(feasible, key=lambda c: c.loss)
        elapsed = time.perf_counter() - start
        return MatchResult(self.name, chosen, visits=len(candidates), wall_seconds=elapsed)


class GreedySizeMatcher(MatchingPolicy):
    """Pick the largest feasible candidate (deploy the biggest model)."""

    name = "greedy-size"

    def select(self, candidates: Sequence[Candidate], storage_limit: float) -> MatchResult:
        start = time.perf_counter()
        feasible = [c for c in candidates if c.size < storage_limit]
        if not feasible:
            raise ValueError("no candidate satisfies the storage limit")
        chosen = max(feasible, key=lambda c: c.size)
        elapsed = time.perf_counter() - start
        return MatchResult(self.name, chosen, visits=len(candidates), wall_seconds=elapsed)


class RandomMatcher(MatchingPolicy):
    """Pick any feasible candidate uniformly at random."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def select(self, candidates: Sequence[Candidate], storage_limit: float) -> MatchResult:
        start = time.perf_counter()
        feasible = [c for c in candidates if c.size < storage_limit]
        if not feasible:
            raise ValueError("no candidate satisfies the storage limit")
        chosen = feasible[self._rng.integers(len(feasible))]
        elapsed = time.perf_counter() - start
        return MatchResult(self.name, chosen, visits=1, wall_seconds=elapsed)


def make_policies(performance_window: float = 0.05, seed: int = 0) -> Dict[str, MatchingPolicy]:
    """The four policies of Fig. 9, keyed by display name."""
    return {
        "ours": PFGMatcher(performance_window),
        "greedy-accuracy": GreedyAccuracyMatcher(),
        "greedy-size": GreedySizeMatcher(),
        "random": RandomMatcher(seed),
    }


# reprolint: unreached -- Fig. 9: the paper's raw Trade-off Score L + E + ζ (NormalizedTradeoff
# is the weighted form the bench plots); the matching tests rank the four policies by it
def trade_off_score(
    loss: float, energy: float, size: float, scales: Optional[Sequence[float]] = None
) -> float:
    """The Fig. 9 Trade-off Score: L + E + ζ (lower is better).

    ``scales`` normalizes heterogeneous units before summation; the paper's
    definition sums raw terms, which only makes sense after normalization,
    so callers typically pass the per-objective worst-case values.
    """
    if scales is None:
        scales = (1.0, 1.0, 1.0)
    terms = [v / s if s else v for v, s in zip((loss, energy, size), scales)]
    return float(sum(terms))
