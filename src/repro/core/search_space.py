"""Search-space accounting (Eq. 14 and Table I).

Eq. (14) gives the number of possible header architectures for B blocks:

.. math:: |\\hat B_{1:B}| = \\prod_{b=1}^{B} (b+1)^2 · |\\hat O|^2

Table I compares the total search space a *centralized system* must cover
against ACME's.  A centralized system customizes each device's full model
in the cloud: for every device it jointly searches the backbone grid
(W × D) and the header space.  ACME searches the backbone grid once per
cluster with the (cheap, non-NAS) PFG method and runs header NAS once per
edge server, so its NAS search space is ``S · |B_{1:B}|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.models.blocks import num_operations


def header_search_space_size(num_blocks: int, num_ops: Optional[int] = None) -> int:
    """Eq. (14): cardinality of the header search space for ``B`` blocks."""
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
    num_ops = num_ops if num_ops is not None else num_operations()
    if num_ops < 1:
        raise ValueError(f"num_ops must be >= 1, got {num_ops}")
    total = 1
    for b in range(1, num_blocks + 1):
        total *= (b + 1) ** 2 * num_ops**2
    return total


@dataclass(frozen=True)
class SearchSpaceAccounting:
    """Inputs of a Table I row."""

    num_devices: int
    devices_per_cluster: int = 5
    num_blocks: int = 3  # B in both systems' header spaces
    num_ops: Optional[int] = None
    backbone_widths: int = 4  # |W_B|
    backbone_depths: int = 6  # |D_B|

    def __post_init__(self) -> None:
        for name in ("num_devices", "devices_per_cluster"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def num_clusters(self) -> int:
        return max(1, -(-self.num_devices // self.devices_per_cluster))

    def centralized_size(self) -> int:
        """CS: per-device joint backbone × header search."""
        header = header_search_space_size(self.num_blocks, self.num_ops)
        backbone_grid = self.backbone_widths * self.backbone_depths
        return self.num_devices * backbone_grid * header

    def acme_size(self) -> int:
        """ACME: header NAS once per edge server (backbone uses PFG, not NAS)."""
        header = header_search_space_size(self.num_blocks, self.num_ops)
        return self.num_clusters * header

    def reduction_ratio(self) -> float:
        """ACME's share of the centralized search space (paper: ≈1%)."""
        return self.acme_size() / self.centralized_size()


def table1_search_space_row(
    num_devices: int, **kwargs
) -> dict:
    """One Table I row (search-space columns), in units of 10³ architectures."""
    acct = SearchSpaceAccounting(num_devices=num_devices, **kwargs)
    return {
        "N": num_devices,
        "cs_thousands": acct.centralized_size() / 1e3,
        "ours_thousands": acct.acme_size() / 1e3,
        "ratio": acct.reduction_ratio(),
    }
