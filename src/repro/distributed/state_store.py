"""Lazy per-device state with LRU eviction — the fleet-scale memory model.

An always-live :class:`~repro.distributed.device.DeviceNode` holds a
full :class:`~repro.models.vit.VisionTransformer` and a
:class:`~repro.models.header_dag.DAGHeader` from the moment the model
distribution arrives; at 10⁴–10⁶ registered devices that is the memory
bill that makes fleet-scale simulation impossible.  This module keeps a
bounded working set instead:

* :class:`DeviceStateLRU` — a capacity-bounded LRU of *live* devices.
  Touching a cold device hydrates it (building its header on first
  touch, or restoring an evicted snapshot); exceeding the capacity
  evicts the least-recently-used device down to its snapshot — the
  :func:`snapshot_header` arrays themselves, no byte format
  (:mod:`repro.nn.serialization` has the explicit spill-to-disk /
  checkpoint form of the same dict).
* One **shared backbone per model payload**: every device in an ACME
  cluster receives the same frozen ``backbone_state``, so the store
  materializes a single :class:`VisionTransformer` per distribution
  payload and lends it to whichever devices are live.  Backbones are
  read-only during the single loop, and the engine's kernels are
  deterministic per input, so sharing is bit-for-bit equivalent to the
  per-device instances of the always-live path.

Snapshot contents cover everything mutable on a device: header
parameters (masked values), the prune mask and its pristine copies, and
the cached frozen-feature sample.  Parity is asserted bit-for-bit in
``tests/distributed/test_state_store.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.models.vit import VisionTransformer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.models.header_dag import DAGHeader

__all__ = [
    "DeviceStateLRU",
    "backbone_from_payload",
    "snapshot_header",
    "restore_header",
]

_PARAM = "param."
_MASK = "mask."
_PRISTINE = "pristine."


def backbone_from_payload(payload: Dict) -> VisionTransformer:
    """Build the backbone a distribution/assignment payload describes.

    The one materializer behind the edge's assignment, a live device's
    model install and the store's shared instance: same construction
    seed, state dict, importance orders and (width, depth) scaling, so
    forwards through any of them are bit-identical.
    """
    backbone = VisionTransformer(payload["vit_config"], seed=0)
    backbone.load_state_dict(payload["backbone_state"])
    backbone.set_importance_orders(
        head_orders=payload["head_orders"],
        neuron_orders=payload["neuron_orders"],
    )
    return backbone.scale(float(payload["width"]), int(payload["depth"]))


def snapshot_header(header: "DAGHeader") -> Dict[str, np.ndarray]:
    """Everything mutable on a header, as a flat array dict.

    Captures the current (possibly masked) parameter values plus the
    prune-mask state :meth:`DAGHeader.set_parameter_mask` maintains —
    the boolean masks *and* the pristine pre-mask copies, which later
    re-masks compose from.  Restoring all three reproduces the header's
    observable behavior bit-for-bit, including future ``reapply_mask``
    and re-prune calls.
    """
    state = {_PARAM + name: value for name, value in header.state_dict().items()}
    if header._parameter_mask is not None:
        for name, mask in header._parameter_mask.items():
            state[_MASK + name] = mask
    if header._pristine is not None:
        for name, pristine in header._pristine.items():
            state[_PRISTINE + name] = pristine
    return state


def restore_header(header: "DAGHeader", state: Dict[str, np.ndarray]) -> None:
    """Load a :func:`snapshot_header` dict into a freshly built header."""
    params = {
        key[len(_PARAM):]: value
        for key, value in state.items()
        if key.startswith(_PARAM)
    }
    header.load_state_dict(params)
    masks = {
        key[len(_MASK):]: value.astype(bool)
        for key, value in state.items()
        if key.startswith(_MASK)
    }
    pristine = {
        key[len(_PRISTINE):]: value
        for key, value in state.items()
        if key.startswith(_PRISTINE)
    }
    header._parameter_mask = masks or None
    header._pristine = pristine or None


class DeviceStateLRU:
    """Capacity-bounded working set of live devices for one cluster.

    Owners implement the hydration protocol — ``_hydrate()`` (build or
    restore live state) and ``_evict()`` (keep a cold snapshot and drop
    live references) — and call :meth:`touch` before using their
    model state.  The store is deliberately single-threaded: lazy
    clusters run their device fan-outs serially (the edge enforces it),
    because a concurrent hydration could evict a peer mid-use.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._live: "OrderedDict[str, object]" = OrderedDict()
        #: One shared backbone per distribution payload, keyed by the
        #: identity of the payload's ``backbone_state`` dict (kept
        #: strongly referenced alongside, so the id cannot be recycled).
        self._backbones: Dict[int, tuple] = {}
        self.hydrations = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def touch(self, owner) -> None:
        """Mark ``owner`` most-recently-used, hydrating it if cold.

        Hydration beyond capacity evicts the least-recently-used live
        device first-in-first-out until the bound holds again.
        """
        key = owner.name
        if key in self._live:
            self._live.move_to_end(key)
            return
        owner._hydrate()
        self.hydrations += 1
        self._live[key] = owner
        while len(self._live) > self.capacity:
            _, cold = self._live.popitem(last=False)
            cold._evict()
            self.evictions += 1

    def drop(self, owner) -> None:
        """Forget a live entry without snapshotting (state superseded)."""
        self._live.pop(owner.name, None)

    # reprolint: unreached -- safety handle: the residency tests assert through it which devices
    # are live and which sit as cold snapshots
    def is_live(self, owner) -> bool:
        return owner.name in self._live

    # ------------------------------------------------------------------
    def shared_backbone(self, payload: Dict) -> VisionTransformer:
        """The single backbone instance for a distribution payload."""
        backbone_state = payload["backbone_state"]
        key = id(backbone_state)
        cached = self._backbones.get(key)
        if cached is not None:
            return cached[0]
        backbone = backbone_from_payload(payload)
        self._backbones[key] = (backbone, backbone_state)
        return backbone
