"""Simulated device hardware: profiles and the parametric energy model."""

from repro.hw.energy import (
    EnergyReport,
    energy,
    gpu_batch_energy,
    latency,
    power,
)
from repro.hw.profiles import DeviceProfile, cluster_statistics, make_fleet

__all__ = [
    "DeviceProfile",
    "EnergyReport",
    "cluster_statistics",
    "energy",
    "gpu_batch_energy",
    "latency",
    "make_fleet",
    "power",
]
