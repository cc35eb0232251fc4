"""Tests for device profiles and the Eq. (1)-(2) energy model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import (
    DeviceProfile,
    cluster_statistics,
    energy,
    gpu_batch_energy,
    latency,
    make_fleet,
    power,
)


def profile(vcpus=4, seed=0):
    return DeviceProfile.synthesize(
        0, vcpus, storage_limit=100_000, rng=np.random.default_rng(seed)
    )


class TestProfiles:
    def test_synthesize_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile.synthesize(0, 0, 100, np.random.default_rng(0))

    def test_proportionality_constraints(self):
        """Eq. (2): ΔG ∝ G and ΔL ∝ L."""
        p = profile()
        assert p.power_per_layer == pytest.approx(0.15 * p.base_power)
        assert p.latency_per_layer == pytest.approx(0.25 * p.base_latency)

    def test_more_vcpus_more_power_less_latency(self):
        slow = profile(vcpus=3, seed=1)
        fast = profile(vcpus=7, seed=1)
        assert fast.base_power > slow.base_power
        assert fast.base_latency < slow.base_latency

    def test_fleet_layout(self):
        fleet = make_fleet(num_clusters=10, devices_per_cluster=5)
        assert len(fleet) == 10
        assert all(len(c) == 5 for c in fleet)
        ids = [d.device_id for c in fleet for d in c]
        assert ids == list(range(50))

    def test_fleet_clusters_are_homogeneous_in_vcpus(self):
        fleet = make_fleet(num_clusters=5, devices_per_cluster=4)
        for cluster in fleet:
            caps = {d.gpu_capacity for d in cluster}
            assert len(caps) == 1

    def test_fleet_storage_levels(self):
        levels = (100, 200, 300)
        fleet = make_fleet(num_clusters=2, devices_per_cluster=3, storage_levels=levels)
        for cluster in fleet:
            assert [d.storage_limit for d in cluster] == [100, 200, 300]

    def test_cluster_statistics(self):
        fleet = make_fleet(num_clusters=1, devices_per_cluster=5)
        stats = cluster_statistics(fleet[0])
        assert stats["num_devices"] == 5
        assert stats["min_storage"] <= stats["mean_storage"]
        assert stats["max_base_power"] >= max(0.0, stats["max_power_per_layer"])

    def test_cluster_statistics_rejects_empty(self):
        with pytest.raises(ValueError):
            cluster_statistics([])


class TestEnergyModel:
    def test_power_monotone_in_layers(self):
        p = profile()
        assert power(p, 1.0, 4) > power(p, 1.0, 2)
        assert power(p, 1.0, 4) > power(p, 0.5, 4)

    def test_latency_monotone(self):
        p = profile()
        assert latency(p, 1.0, 6) > latency(p, 0.25, 1)

    def test_energy_composition(self):
        """Eq. (1): E = k · P · T."""
        p = profile()
        report = energy(p, 0.5, 3, epochs=4)
        assert report.energy_joules == pytest.approx(
            4 * power(p, 0.5, 3) * latency(p, 0.5, 3)
        )

    def test_gpu_batch_energy_proportional_to_capacity(self):
        a, b = profile(vcpus=3), profile(vcpus=6)
        assert gpu_batch_energy(b) == pytest.approx(2 * gpu_batch_energy(a))

    def test_validation(self):
        p = profile()
        with pytest.raises(ValueError):
            power(p, 0.0, 3)
        with pytest.raises(ValueError):
            power(p, 1.5, 3)
        with pytest.raises(ValueError):
            latency(p, 0.5, 0)
        with pytest.raises(ValueError):
            energy(p, 0.5, 1, epochs=0)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(0.1, 1.0),
    st.integers(1, 12),
    st.floats(0.1, 1.0),
    st.integers(1, 12),
)
def test_property_energy_monotone_in_effective_layers(w1, d1, w2, d2):
    """More effective layers (w·d) never costs less energy."""
    p = profile()
    if w1 * d1 <= w2 * d2:
        assert (
            energy(p, w1, d1).energy_joules <= energy(p, w2, d2).energy_joules + 1e-9
        )
