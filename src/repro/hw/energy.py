"""The paper's parametric energy model (§II-B, Eqs. 1-2).

For device ``n`` running a backbone with width factor ``w`` and depth ``d``
for ``k`` epochs:

.. math::

    E_n = k \\cdot P_n(w, d) \\cdot T_n(w, d)

    P_n(w, d) = (G_n + \\Delta G_n \\cdot w d) + p_n G^{\\beta}_n

    T_n(w, d) = L_n + \\Delta L_n \\cdot w d

with :math:`\\Delta G_n, G^{\\beta}_n \\propto G_n` and
:math:`\\Delta L_n \\propto L_n` — both enforced when profiles are
synthesized (see :mod:`repro.hw.profiles`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.checks import check_count, check_width
from repro.hw.profiles import DeviceProfile

# G^β_n = _GPU_BATCH_COEFF · G_n · β, the per-patch GPU energy estimate for
# batch size β.  The coefficient folds the paper's unspecified constant.
_GPU_BATCH_COEFF = 0.002


@dataclass(frozen=True)
class EnergyReport:
    """Breakdown of one energy evaluation."""

    power_watts: float
    latency_seconds: float
    epochs: int

    @property
    def energy_joules(self) -> float:
        return self.power_watts * self.latency_seconds * self.epochs


def gpu_batch_energy(profile: DeviceProfile) -> float:
    """``G^β_n`` — per-batch GPU energy term, proportional to ``G_n``."""
    return _GPU_BATCH_COEFF * profile.gpu_capacity * profile.batch_size


def power(profile: DeviceProfile, width: float, depth: int) -> float:
    """``P_n(w, d)`` of Eq. (2), in watts."""
    _check(width, depth)
    effective_layers = width * depth
    return (
        profile.base_power
        + profile.power_per_layer * effective_layers
        + profile.num_patches * gpu_batch_energy(profile)
    )


def latency(profile: DeviceProfile, width: float, depth: int) -> float:
    """``T_n(w, d)`` of Eq. (2): average seconds per epoch."""
    _check(width, depth)
    return profile.base_latency + profile.latency_per_layer * (width * depth)


def energy(
    profile: DeviceProfile, width: float, depth: int, epochs: int = 1
) -> EnergyReport:
    """``E_n(θ_n)`` of Eq. (1) for ``epochs`` training epochs."""
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    return EnergyReport(
        power_watts=power(profile, width, depth),
        latency_seconds=latency(profile, width, depth),
        epochs=epochs,
    )


def _check(width: float, depth: int) -> None:
    check_width(width, "width factor")
    check_count("depth", depth, 1)
