"""Pareto Front Grid construction and model selection (Eqs. 10-13, Alg. 1).

Phase 1's backbone customization evaluates every (w, d) candidate on three
objectives — loss on the public cloud dataset, worst-case cluster energy,
and model size ζ — then:

1. partitions the objective space into ``K = |f¹(θ*) - f¹(θ⁻)| / γ_p``
   intervals derived from the performance window γ_p (Eq. 11);
2. maps every candidate to grid coordinates Ψ_l (Eq. 11);
3. keeps, per objective and interval, the candidates with the best grid
   coordinate — their union is the Pareto Front Grid (Eq. 12);
4. truncates the PFG by the storage constraint, finds the best-performing
   surviving cell, and inside it picks the candidate closest (in grid
   space) to the ideal point θ* (Eq. 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

NUM_OBJECTIVES = 3  # (loss, energy, size) — l ∈ {1, 2, 3} in the paper


@dataclass(frozen=True)
class Candidate:
    """One evaluated backbone configuration ˜θ_s = δ(θ0, w, d).

    ``objectives`` is the vector f(˜θ) = (loss, energy, ζ); lower is better
    for every component.
    """

    width: float
    depth: int
    objectives: Tuple[float, float, float]

    @property
    def loss(self) -> float:
        return self.objectives[0]

    @property
    def energy(self) -> float:
        return self.objectives[1]

    @property
    def size(self) -> float:
        return self.objectives[2]


@dataclass
class ParetoFrontGrid:
    """The constructed PFG with everything needed for selection."""

    candidates: List[Candidate]
    grid_coords: np.ndarray  # (n_candidates, 3) integer Ψ values
    ideal: np.ndarray  # f(θ*): per-objective minima
    worst: np.ndarray  # f(θ⁻): per-objective maxima
    num_intervals: int  # K
    members: List[int] = field(default_factory=list)  # indices in the PFG


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True if objective vector ``a`` Pareto-dominates ``b`` (minimization)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return bool((a <= b).all() and (a < b).any())


def pareto_front(candidates: Sequence[Candidate]) -> List[int]:
    """Indices of non-dominated candidates (exact, O(n²) reference)."""
    indices = []
    for i, c in enumerate(candidates):
        if not any(
            dominates(other.objectives, c.objectives)
            for j, other in enumerate(candidates)
            if j != i
        ):
            indices.append(i)
    return indices


def grid_coordinates(
    values: np.ndarray,
    ideal: np.ndarray,
    worst: np.ndarray,
    num_intervals: int,
    sigma: float = 1e-9,
) -> np.ndarray:
    """Eq. (11): Ψ_l(θ) = ⌈(f_l(θ) - f_l(θ*) + σ) / r_l⌉ per objective."""
    if num_intervals < 1:
        raise ValueError(f"num_intervals must be >= 1, got {num_intervals}")
    spans = (worst - ideal + 2 * sigma) / num_intervals  # r_l
    coords = np.ceil((values - ideal + sigma) / spans).astype(int)
    return np.clip(coords, 1, num_intervals)


def build_pfg(
    candidates: Sequence[Candidate],
    performance_window: float,
    sigma: float = 1e-9,
) -> ParetoFrontGrid:
    """Construct the Pareto Front Grid from evaluated candidates.

    ``performance_window`` is γ_p: the acceptable trade-off granularity on
    the performance (loss) objective; it determines the interval count
    ``K = |f¹(θ*) - f¹(θ⁻)| / γ_p`` applied uniformly to all objectives.
    """
    if not candidates:
        raise ValueError("cannot build a PFG from zero candidates")
    if performance_window <= 0:
        raise ValueError(f"performance_window must be positive, got {performance_window}")

    values = np.array([c.objectives for c in candidates], dtype=float)
    ideal = values.min(axis=0)
    worst = values.max(axis=0)
    perf_span = abs(worst[0] - ideal[0])
    num_intervals = max(1, int(np.ceil(perf_span / performance_window)))

    coords = grid_coordinates(values, ideal, worst, num_intervals, sigma)

    # Eq. (12): keep, per objective interval, the solutions with optimal
    # grid coordinates.  Operationally this is grid (ε-)dominance: a
    # candidate joins the PFG iff no other candidate weakly improves its
    # grid coordinates on every objective while strictly improving one.
    # Candidates sharing one grid cell are all kept (Eq. 13 breaks ties).
    members: List[int] = []
    n = len(candidates)
    for i in range(n):
        ci = coords[i]
        grid_dominated = False
        for j in range(n):
            if j == i:
                continue
            cj = coords[j]
            if (cj <= ci).all() and (cj < ci).any():
                grid_dominated = True
                break
        if not grid_dominated:
            members.append(i)

    return ParetoFrontGrid(
        candidates=list(candidates),
        grid_coords=coords,
        ideal=ideal,
        worst=worst,
        num_intervals=num_intervals,
        members=members,
    )


def select_model(
    pfg: ParetoFrontGrid,
    storage_limit: float,
) -> Candidate:
    """Eq. (13): pick the final model under the storage constraint.

    Truncate the PFG by ζ(θ) < storage_limit, locate the best-performing
    surviving cell, and within the candidates sharing that cell choose the
    one minimizing the Euclidean distance (in grid coordinates) to the
    ideal point — whose grid coordinate is 1 on every objective.

    Ties break on the candidate's (width, depth) — a total order over
    the grid — so the selection is a pure function of the candidate
    *set*, independent of list order or of the order concurrent cluster
    requests reach the cloud.
    """
    feasible = [
        i for i in pfg.members if pfg.candidates[i].size < storage_limit
    ]
    if not feasible:
        raise ValueError(
            f"no PFG member satisfies storage limit {storage_limit}; "
            f"smallest member size is "
            f"{min(pfg.candidates[i].size for i in pfg.members):.1f}"
        )

    def _tie_break(i: int) -> Tuple[float, int]:
        return (pfg.candidates[i].width, pfg.candidates[i].depth)

    # Highest-performing feasible model → its grid cell is the search space.
    best_idx = min(feasible, key=lambda i: (pfg.candidates[i].loss, _tie_break(i)))
    best_cell = pfg.grid_coords[best_idx, 0]
    cell_members = [i for i in feasible if pfg.grid_coords[i, 0] == best_cell]

    ideal_coords = np.ones(NUM_OBJECTIVES)
    chosen = min(
        cell_members,
        key=lambda i: (
            float(((pfg.grid_coords[i] - ideal_coords) ** 2).sum()),
            _tie_break(i),
        ),
    )
    return pfg.candidates[chosen]
