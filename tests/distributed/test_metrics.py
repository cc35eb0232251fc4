"""Tests for system-level metrics."""

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.distributed import (
    NormalizedTradeoff,
    centralized_upload_bytes,
    energy_efficiency_ratio,
    size_efficiency_ratio,
)


def dataset(n=10):
    return ArrayDataset(np.zeros((n, 1, 2, 2)), np.zeros(n, dtype=int), 2)


class TestRatios:
    def test_energy_efficiency(self):
        assert energy_efficiency_ratio(0.8, 2.0) == pytest.approx(0.4)

    def test_size_efficiency(self):
        assert size_efficiency_ratio(0.9, 3.0) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            energy_efficiency_ratio(0.5, 0.0)
        with pytest.raises(ValueError):
            size_efficiency_ratio(0.5, -1.0)


class TestTradeoff:
    def test_score_normalizes(self):
        t = NormalizedTradeoff(loss_scale=2.0, energy_scale=4.0, size_scale=8.0)
        assert t.score(2.0, 4.0, 8.0) == pytest.approx(3.0)

    def test_inverse(self):
        t = NormalizedTradeoff(1.0, 1.0, 1.0)
        assert t.inverse(1.0, 1.0, 2.0) == pytest.approx(0.25)

    def test_lower_is_better(self):
        t = NormalizedTradeoff(1.0, 1.0, 1.0)
        good = t.score(0.5, 0.5, 0.5)
        bad = t.score(1.0, 1.0, 1.0)
        assert good < bad


class TestUploadAccounting:
    def test_centralized_sums_datasets(self):
        sets = [dataset(5), dataset(10)]
        expected = sets[0].nbytes() + sets[1].nbytes()
        assert centralized_upload_bytes(sets) == expected
