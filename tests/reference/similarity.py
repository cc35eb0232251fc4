"""Per-projection sliced Wasserstein (scipy) and per-dimension JS loops.

One projection / one feature dimension at a time — what the batched
kernels of :mod:`repro.core.similarity` must agree with.
"""

import numpy as np
from scipy.stats import wasserstein_distance


def sliced_wasserstein_loop(a, b, num_projections=32, p=1, seed=0) -> float:
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    rng = np.random.default_rng(seed)
    dims = a.shape[1]
    total = 0.0
    for _ in range(num_projections):
        direction = rng.normal(size=dims)
        direction /= np.linalg.norm(direction) + 1e-12
        pa = a @ direction
        pb = b @ direction
        if p == 1:
            total += wasserstein_distance(pa, pb)
        else:
            qs = np.linspace(0.0, 1.0, 101)
            qa = np.quantile(pa, qs)
            qb = np.quantile(pb, qs)
            total += float(np.mean(np.abs(qa - qb) ** p) ** (1.0 / p))
    return total / num_projections


def js_divergence_loop(a, b, bins=16) -> float:
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    total = 0.0
    for dim in range(a.shape[1]):
        lo = min(a[:, dim].min(), b[:, dim].min())
        hi = max(a[:, dim].max(), b[:, dim].max())
        if hi <= lo:
            continue
        edges = np.linspace(lo, hi, bins + 1)
        pa, _ = np.histogram(a[:, dim], bins=edges)
        pb, _ = np.histogram(b[:, dim], bins=edges)
        pa = pa / max(1, pa.sum()) + 1e-12
        pb = pb / max(1, pb.sum()) + 1e-12
        m = 0.5 * (pa + pb)
        total += 0.5 * float((pa * np.log(pa / m)).sum() + (pb * np.log(pb / m)).sum())
    return total / a.shape[1]


def distance_matrix_loop(feature_sets, metric="wasserstein", seed=0, num_projections=32):
    """Pairwise matrix, every pair from scratch (re-seeding its projections)."""
    n = len(feature_sets)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = feature_sets[i], feature_sets[j]
            if metric == "wasserstein":
                d = sliced_wasserstein_loop(
                    a, b, num_projections=num_projections, seed=seed
                )
            else:
                d = js_divergence_loop(a, b)
            out[i, j] = out[j, i] = d
    return out
