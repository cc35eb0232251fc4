"""Data-distribution similarity between devices (Eqs. 19-20, Fig. 10).

The edge server compares devices by the distributions of *features* a
pre-trained model extracts from small samples of their local data:

* **Wasserstein** (ours) — the p-Wasserstein distance with an L1 ground
  metric, estimated by the sliced method: average the exact 1-D Wasserstein
  distance over random projections.  (For 1-D inputs this is exact.)
* **Jensen-Shannon** (baseline) — JS divergence between per-dimension
  feature histograms.

From raw pairwise distances ``w̃_ij`` the similarity matrix is built as
``w_ij = 1 / (1 + w̃_ij)`` (Eq. 19), then regularized by symmetrization
``W̄ = sqrt(W·Wᵀ)`` (elementwise) and row-softmax normalization (Eq. 20).

Performance: both metrics run fully vectorized.  Sliced Wasserstein
batches all projections into a single ``(n, dims) @ (dims, P)`` matmul and
sorts each feature set's projections **once**, reusing them across all
O(n²) pairs in :func:`distance_matrix`; JS bins every dimension in one
``bincount``.  The textbook per-projection (scipy) / per-dimension
(``np.histogram``) formulas live in ``tests/reference/similarity.py`` as
the oracles the equivalence tests compare against.
"""

from __future__ import annotations

from typing import Dict, Final, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.registry import register_lock
from repro.data.dataset import ArrayDataset
from repro.models.headers import BackboneFeatures
from repro.models.vit import VisionTransformer
from repro.nn.tensor import Tensor, no_grad

# Projection directions depend only on (dims, num_projections, seed) and
# are deterministic, so repeated aggregation rounds / edge clusters reuse
# them instead of re-sampling.  The cache is shared across the executor's
# worker threads — the lock keeps insertion atomic, and cached arrays are
# frozen read-only so concurrent readers cannot corrupt them.
_PROJECTION_CACHE: Final[Dict[Tuple[int, int, int], np.ndarray]] = {}
_PROJECTION_CACHE_LOCK = register_lock(
    "similarity.projection-cache", module=__name__, attr="_PROJECTION_CACHE_LOCK"
)
_PROJECTION_CACHE_MAX = 64


def clear_projection_cache() -> None:
    """Drop all memoized projection-direction matrices."""
    with _PROJECTION_CACHE_LOCK:
        _PROJECTION_CACHE.clear()


def _cached_projections(dims: int, num_projections: int, seed: int) -> np.ndarray:
    key = (int(dims), int(num_projections), int(seed))
    with _PROJECTION_CACHE_LOCK:
        cached = _PROJECTION_CACHE.get(key)
        if cached is not None:
            return cached
    directions = _sample_projections(dims, num_projections, np.random.default_rng(seed))
    directions.setflags(write=False)
    with _PROJECTION_CACHE_LOCK:
        if len(_PROJECTION_CACHE) >= _PROJECTION_CACHE_MAX:
            _PROJECTION_CACHE.clear()
        _PROJECTION_CACHE[key] = directions
    return directions


def extract_features(
    model: VisionTransformer,
    dataset: ArrayDataset,
    max_samples: int = 64,
    seed: int = 0,
    features: Optional[BackboneFeatures] = None,
) -> np.ndarray:
    """CLS-token features of a small random sample (the P(D̃) of Eq. 19).

    ``features`` — ``model``'s precomputed features over
    ``dataset.images``, row-aligned — turns the forward into a row
    gather at the same seeded sample's indices (bit-identical: the
    kernels are row-independent).
    """
    rng = np.random.default_rng(seed)
    if features is not None:
        return features.cls.data[dataset.sample_indices(max_samples, rng)]
    sample = dataset.sample(max_samples, rng)
    with no_grad():
        cls, _tokens = model.forward_features(Tensor(sample.images))
    return cls.data


# ----------------------------------------------------------------------
# Sliced Wasserstein
# ----------------------------------------------------------------------
def _sample_projections(
    dims: int, num_projections: int, rng: np.random.Generator
) -> np.ndarray:
    """``(dims, P)`` unit directions, drawn like one
    ``rng.normal(size=dims)`` per projection, in order."""
    directions = rng.normal(size=(num_projections, dims))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    return (directions / (norms + 1e-12)).T


def _wasserstein_1d_sorted(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Per-projection W1 between equal-sized samples sorted along axis 0.

    With equal sample counts the 1-D optimal transport plan pairs order
    statistics, so W1 reduces to the mean absolute difference of sorted
    projections — O(n) per pair once each set is sorted.
    """
    return np.abs(pa - pb).mean(axis=0)


def _wasserstein_1d_general(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Per-projection W1 for arbitrary sample counts, batched over columns.

    Implements the CDF-difference formulation (the same algorithm scipy's
    ``wasserstein_distance`` uses) simultaneously for all projections:
    merge both samples, and integrate ``|F_a - F_b|`` between consecutive
    merged values.
    """
    na, p = pa.shape
    nb = pb.shape[0]
    all_vals = np.concatenate([pa, pb], axis=0).T  # (P, na+nb)
    order = np.argsort(all_vals, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(all_vals, order, axis=1)
    deltas = np.diff(sorted_vals, axis=1)
    from_a = order < na
    cdf_a = np.cumsum(from_a, axis=1)[:, :-1] / na
    cdf_b = np.cumsum(~from_a, axis=1)[:, :-1] / nb
    return (np.abs(cdf_a - cdf_b) * deltas).sum(axis=1)


def _validate_pair(a: np.ndarray, b: np.ndarray, p: int):
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"feature dims differ: {a.shape[1]} vs {b.shape[1]}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return a, b


# reprolint: unreached -- Eq. 19: one pair's w̃_ij for general p and explicit projections; the
# handle the metric-property tests and the textbook-loop parity tests check the kernel through
def sliced_wasserstein(
    a: np.ndarray,
    b: np.ndarray,
    num_projections: int = 32,
    p: int = 1,
    seed: int = 0,
    projections: Optional[np.ndarray] = None,
) -> float:
    """Sliced p-Wasserstein distance between feature clouds ``a`` and ``b``.

    Projects both clouds onto shared random unit directions and averages the
    exact 1-D Wasserstein distance; the L1 ground metric of the paper
    corresponds to ``p=1``.  Pass ``projections`` (a ``(dims, P)`` matrix,
    e.g. from :func:`distance_matrix`) to share directions across many
    pairs instead of re-sampling them from ``seed``.
    """
    a, b = _validate_pair(a, b, p)
    if projections is None:
        projections = _cached_projections(a.shape[1], num_projections, seed)
    pa = a @ projections  # (na, P)
    pb = b @ projections  # (nb, P)
    if p == 1:
        if pa.shape[0] == pb.shape[0]:
            dists = _wasserstein_1d_sorted(np.sort(pa, axis=0), np.sort(pb, axis=0))
        else:
            dists = _wasserstein_1d_general(pa, pb)
        return float(dists.mean())
    # General p: quantile-function formulation of 1-D OT, batched.
    qs = np.linspace(0.0, 1.0, 101)
    qa = np.quantile(pa, qs, axis=0)  # (101, P)
    qb = np.quantile(pb, qs, axis=0)
    dists = np.mean(np.abs(qa - qb) ** p, axis=0) ** (1.0 / p)
    return float(dists.mean())


# ----------------------------------------------------------------------
# Jensen-Shannon
# ----------------------------------------------------------------------
def js_divergence(a: np.ndarray, b: np.ndarray, bins: int = 16) -> float:
    """Jensen-Shannon divergence between per-dimension feature histograms."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"feature dims differ: {a.shape[1]} vs {b.shape[1]}")
    n_dims = a.shape[1]
    lo = np.minimum(a.min(axis=0), b.min(axis=0))
    hi = np.maximum(a.max(axis=0), b.max(axis=0))
    valid = hi > lo
    if not valid.any():
        return 0.0
    width = np.where(valid, hi - lo, 1.0)
    offsets = np.arange(n_dims) * bins

    def histograms(x: np.ndarray) -> np.ndarray:
        idx = ((x - lo) / width * bins).astype(np.int64)
        np.clip(idx, 0, bins - 1, out=idx)
        counts = np.bincount((idx + offsets).ravel(), minlength=n_dims * bins)
        return counts.reshape(n_dims, bins).astype(np.float64)

    ca = histograms(a)
    cb = histograms(b)
    pa = ca / np.maximum(1, ca.sum(axis=1, keepdims=True)) + 1e-12
    pb = cb / np.maximum(1, cb.sum(axis=1, keepdims=True)) + 1e-12
    m = 0.5 * (pa + pb)
    per_dim = 0.5 * (
        (pa * np.log(pa / m)).sum(axis=1) + (pb * np.log(pb / m)).sum(axis=1)
    )
    return float(per_dim[valid].sum() / n_dims)


# ----------------------------------------------------------------------
# Pairwise matrices
# ----------------------------------------------------------------------
def distance_matrix(
    feature_sets: Sequence[np.ndarray],
    metric: str = "wasserstein",
    seed: int = 0,
    num_projections: int = 32,
) -> np.ndarray:
    """Pairwise distances ``w̃_ij`` under the chosen metric.

    For the Wasserstein metric, random projection directions are sampled
    **once** here and shared by every pair (they were already identical
    per pair before, since each pair re-seeded the same generator), and
    each feature set is projected and sorted exactly once — the O(n²)
    pair loop then only touches pre-sorted 1-D samples.
    """
    n = len(feature_sets)
    if n < 2:
        raise ValueError("need at least two devices to compare")
    out = np.zeros((n, n))
    if metric == "wasserstein":
        arrays = [np.atleast_2d(np.asarray(f, dtype=np.float64)) for f in feature_sets]
        dims = arrays[0].shape[1]
        for f in arrays[1:]:
            if f.shape[1] != dims:
                raise ValueError(f"feature dims differ: {dims} vs {f.shape[1]}")
        projections = _cached_projections(dims, num_projections, seed)
        projected = [np.sort(f @ projections, axis=0) for f in arrays]
        for i in range(n):
            for j in range(i + 1, n):
                pa, pb = projected[i], projected[j]
                if pa.shape[0] == pb.shape[0]:
                    d = float(_wasserstein_1d_sorted(pa, pb).mean())
                else:
                    d = float(_wasserstein_1d_general(pa, pb).mean())
                out[i, j] = out[j, i] = d
        return out
    if metric == "js":
        for i in range(n):
            for j in range(i + 1, n):
                d = js_divergence(feature_sets[i], feature_sets[j])
                out[i, j] = out[j, i] = d
        return out
    raise ValueError(f"unknown metric {metric!r}")


def similarity_from_distances(distances: np.ndarray) -> np.ndarray:
    """Eq. (19): ``w_ij = 1 / (1 + w̃_ij)``; diagonal similarity is 1."""
    distances = np.asarray(distances, dtype=np.float64)
    if (distances < 0).any():
        raise ValueError("distances must be non-negative")
    return 1.0 / (1.0 + distances)


def regularize_similarity(similarity: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Eq. (20): symmetrize by ``sqrt(W·Wᵀ)`` then row-softmax normalize.

    ``temperature`` scales the logits before the softmax.  At 1.0 this is
    Eq. (20) verbatim; smaller values sharpen the weights.  The paper's
    feature spreads are O(1) so the plain exponential discriminates well;
    this reproduction's scaled-down features have smaller spreads, so the
    aggregation path uses a sub-unit temperature to recover the same
    contrast (documented in DESIGN.md).
    """
    w = np.asarray(similarity, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"similarity must be square, got shape {w.shape}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    symmetric = np.sqrt(np.maximum(w @ w.T, 0.0)) / temperature
    exp = np.exp(symmetric - symmetric.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


def build_similarity_matrix(
    model: VisionTransformer,
    datasets: Sequence[ArrayDataset],
    metric: str = "wasserstein",
    max_samples: int = 64,
    seed: int = 0,
    temperature: float = 0.05,
) -> np.ndarray:
    """End-to-end Eq. (19)+(20): Ŵ_s from device datasets.

    Returns the row-stochastic matrix used as aggregation weights in
    Eq. (21).  See :func:`regularize_similarity` for the temperature.

    All datasets' feature samples are served through **one** stacked
    tape-free forward of the shared model
    (:func:`repro.train.serving.batched_extract_features`) — per-sample
    results, and hence the matrix, are identical to per-dataset
    forwards.
    """
    from repro.train.serving import batched_extract_features  # lazy: cycle

    features = batched_extract_features(
        model, list(datasets), max_samples=max_samples, seed=seed
    )
    distances = distance_matrix(features, metric=metric, seed=seed)
    return regularize_similarity(
        similarity_from_distances(distances), temperature=temperature
    )
