"""Equivalence tests: vectorized similarity kernels vs the loop oracles
(``tests/reference/similarity.py``: scipy per projection, ``np.histogram``
per dimension)."""

import numpy as np
import pytest

from repro.core.similarity import (
    _sample_projections,
    distance_matrix,
    js_divergence,
    sliced_wasserstein,
)
from tests.reference.similarity import (
    distance_matrix_loop,
    js_divergence_loop,
    sliced_wasserstein_loop,
)

RNG = np.random.default_rng(42)


class TestSlicedWassersteinEquivalence:
    @pytest.mark.parametrize("shape_b", [(60, 5), (41, 5)])
    def test_matches_loop_p1(self, shape_b):
        a = RNG.normal(size=(60, 5))
        b = RNG.normal(size=shape_b) + 0.8
        fast = sliced_wasserstein(a, b, seed=3)
        loop = sliced_wasserstein_loop(a, b, seed=3)
        assert fast == pytest.approx(loop, rel=1e-9)

    def test_matches_loop_p2(self):
        a = RNG.normal(size=(30, 4))
        b = RNG.normal(size=(30, 4)) * 2.0
        fast = sliced_wasserstein(a, b, p=2, seed=5)
        loop = sliced_wasserstein_loop(a, b, p=2, seed=5)
        assert fast == pytest.approx(loop, rel=1e-9)

    def test_shared_projections_equal_seeded_sampling(self):
        a = RNG.normal(size=(25, 6))
        b = RNG.normal(size=(25, 6)) + 1.0
        projections = _sample_projections(6, 32, np.random.default_rng(7))
        via_seed = sliced_wasserstein(a, b, seed=7)
        via_projections = sliced_wasserstein(a, b, projections=projections)
        assert via_seed == pytest.approx(via_projections, rel=1e-12)


class TestJSDivergenceEquivalence:
    def test_matches_loop(self):
        a = RNG.normal(size=(50, 7))
        b = RNG.normal(size=(50, 7)) + 0.4
        assert js_divergence(a, b) == pytest.approx(js_divergence_loop(a, b), rel=1e-9)

    def test_matches_loop_constant_dim(self):
        """A zero-spread dimension is skipped by both implementations."""
        a = RNG.normal(size=(30, 3))
        b = RNG.normal(size=(30, 3))
        a[:, 1] = 2.0
        b[:, 1] = 2.0
        assert js_divergence(a, b) == pytest.approx(js_divergence_loop(a, b), rel=1e-9)

    def test_matches_loop_other_bins(self):
        a = RNG.normal(size=(40, 4))
        b = RNG.normal(size=(40, 4)) * 1.5
        assert js_divergence(a, b, bins=8) == pytest.approx(
            js_divergence_loop(a, b, bins=8), rel=1e-9
        )


class TestDistanceMatrixEquivalence:
    def test_hoisted_projections_match_per_pair_loop(self):
        """The shared-projection vectorized matrix equals the seed behavior
        (every pair re-seeding the same generator)."""
        feats = [RNG.normal(size=(24, 5)) + 0.5 * i for i in range(5)]
        fast = distance_matrix(feats, metric="wasserstein", seed=9)
        loop = distance_matrix_loop(feats, metric="wasserstein", seed=9)
        np.testing.assert_allclose(fast, loop, rtol=1e-9, atol=1e-12)

    def test_mixed_sample_counts(self):
        feats = [
            RNG.normal(size=(20, 4)),
            RNG.normal(size=(33, 4)) + 1.0,
            RNG.normal(size=(27, 4)) - 0.5,
        ]
        fast = distance_matrix(feats, seed=2)
        loop = distance_matrix_loop(feats, seed=2)
        np.testing.assert_allclose(fast, loop, rtol=1e-9, atol=1e-12)

    def test_js_metric_matches(self):
        feats = [RNG.normal(size=(30, 3)) + i for i in range(4)]
        fast = distance_matrix(feats, metric="js")
        loop = distance_matrix_loop(feats, metric="js")
        np.testing.assert_allclose(fast, loop, rtol=1e-9, atol=1e-12)

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            distance_matrix([np.zeros((5, 2)), np.zeros((5, 3))])

    def test_float32_inputs_accepted(self):
        """Wire-format float32 feature samples work and match float64."""
        feats64 = [RNG.normal(size=(16, 4)) + i for i in range(3)]
        feats32 = [f.astype(np.float32) for f in feats64]
        d64 = distance_matrix(feats64, seed=0)
        d32 = distance_matrix(feats32, seed=0)
        np.testing.assert_allclose(d64, d32, atol=1e-5)
