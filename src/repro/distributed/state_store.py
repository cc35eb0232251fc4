"""Per-cluster device state: one install path, residency as a capacity.

Every :class:`~repro.distributed.device.DeviceNode` installs its model
through a :class:`DeviceStateLRU`.  A live device holds a
:class:`~repro.models.header_dag.DAGHeader` and borrows the store's one
frozen :class:`~repro.models.vit.VisionTransformer`; at 10⁴–10⁶
registered devices keeping every header live is the memory bill that
makes fleet-scale simulation impossible, so how many stay live is the
store's capacity:

* :class:`DeviceStateLRU` — the working set of *live* devices.
  Unbounded (``capacity=None``), every device hydrates once, at model
  distribution, and stays live.  Bounded, touching a cold device
  hydrates it (building its header on first touch, or restoring an
  evicted snapshot) and exceeding the capacity evicts the
  least-recently-used device down to its snapshot — the
  :func:`snapshot_header` arrays themselves, no byte format
  (:mod:`repro.nn.serialization` has the explicit spill-to-disk /
  checkpoint form of the same dict).
* One **shared backbone per cluster**: the edge distributes one frozen
  ``backbone_state`` to its whole cluster, so the store materializes a
  single :class:`VisionTransformer` for the current payload
  and lends it to whichever devices are live.  Backbones are read-only
  during the single loop and the engine's kernels are deterministic per
  input, so "same frozen backbone" is instance identity.

Ownership runs one way: each device owns its store (``state_store``)
and the store only *indexes* its live devices, by weak reference.
With the fabric holding node handlers weakly too
(:meth:`~repro.distributed.network.Network.register`), a deployment's
object graph is a tree — system → network, cloud, edges; edge →
devices → store → shared backbone — so dropping the last reference to
a finished run frees its models, datasets and payloads by refcount,
without waiting for the cyclic collector and with no teardown call.

Snapshot contents cover everything mutable on a device: header
parameters (masked values), the prune mask and its pristine copies, and
the cached frozen-feature sample.  Parity is asserted bit-for-bit in
``tests/distributed/test_state_store.py``.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.distributed.faults import check_count
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

    The one materializer behind the edge's assignment and the store's
    shared instance: same construction seed, state dict, importance
    orders and (width, depth) scaling, so forwards through either are
    bit-identical.
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


def snapshot_params(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """The header parameters of a :func:`snapshot_header` dict, by name."""
    return {
        key[len(_PARAM):]: value
        for key, value in state.items()
        if key.startswith(_PARAM)
    }


def restore_header(header: "DAGHeader", state: Dict[str, np.ndarray]) -> None:
    """Load a :func:`snapshot_header` dict into a freshly built header."""
    header.load_state_dict(snapshot_params(state))
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
    """Working set of live devices for one cluster.

    Owners implement the hydration protocol — ``_hydrate()`` (build or
    restore live state) and ``_evict()`` (keep a cold snapshot and drop
    live references) — and call :meth:`touch` before using their
    model state.  ``capacity=None`` never evicts: owners hydrate at
    install and a later :meth:`touch` is a pure read, safe under any
    fan-out.  A bounded store is single-threaded: only the edge's walk
    touches it ahead of a fan-out — in the parent, chunk by chunk, a
    chunk being at most ``capacity`` devices — so no worker ever
    hydrates, and no peer is evicted while a group still uses it.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None:  # it sizes the edge's chunks
            check_count("capacity", capacity, 1)
        self.capacity = None if capacity is None else int(capacity)
        #: Name → ``weakref.ref(owner)``: an index of the live owners,
        #: not an owner of them (see the module text).
        self._live: "OrderedDict[str, weakref.ref]" = OrderedDict()
        #: The current payload's ``(backbone_state, backbone)``; a new
        #: payload replaces the pair, releasing the previous backbone.
        self._backbone: tuple = (None, None)
        self.hydrations = 0
        self.evictions = 0

    @property
    def bounded(self) -> bool:
        """Whether live state can ever be evicted."""
        return self.capacity is not None

    # ------------------------------------------------------------------
    def touch(self, owner) -> None:
        """Hydrate ``owner`` if cold; when bounded, mark it most recent.

        Hydration beyond capacity evicts the least-recently-used live
        device first-in-first-out until the bound holds again.  An
        unbounded store keeps no recency order, so touching a live
        owner mutates nothing.
        """
        key = owner.name
        if key in self._live:
            if self.bounded:
                self._live.move_to_end(key)
            return
        owner._hydrate()
        self.hydrations += 1
        self._live[key] = weakref.ref(owner)
        while self.bounded and len(self._live) > self.capacity:
            _, ref = self._live.popitem(last=False)
            cold = ref()
            if cold is not None:  # a collected owner has nothing to evict
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
        """The cluster's one frozen backbone, built for ``payload``.

        Installed in ``eval()`` mode — a frozen feature extractor.  A
        payload other than the current one (a re-distribution, or a
        device whose newer distribution was lost hydrating from the one
        it holds) rebuilds from that payload: correct, never stale.
        """
        backbone_state, backbone = self._backbone
        if backbone_state is not payload["backbone_state"]:
            backbone = backbone_from_payload(payload)
            self._backbone = (payload["backbone_state"], backbone)
        return backbone
