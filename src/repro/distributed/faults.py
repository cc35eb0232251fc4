"""Deterministic fault injection for the in-process network fabric.

The :class:`~repro.distributed.network.Network` delivers every message
instantly and exactly once — a perfect fabric.  This module is the
controlled way to break it: a seeded :class:`FaultPolicy` that the
fabric consults before each delivery and that can

* **drop** the message (bytes leave the sender, the handler never runs),
* **corrupt** the payload (the receiver's checksum verification fails
  and the sender sees a retryable loss),
* **duplicate** the delivery (the handler runs twice, both transfers
  are accounted), or
* **delay** it straggler-style (the bytes are accounted immediately but
  the handler runs only after N further deliveries on the same ledger).

Every decision is a pure function of ``(seed, kind, sender, receiver,
per-link attempt index)``, so a chaos run is **replayable**: the same
seed reproduces the identical fault log, traffic ledger and results —
regardless of cross-edge thread interleavings, because each
(sender, receiver, kind) link is only ever used serially by one edge
pipeline.  Injected faults are recorded in :class:`FaultRecord` entries
on the fabric's ledger (sharded and merged exactly like traffic, see
``Network.merge_shards``).

The policy also owns the **churn schedule**: :meth:`FaultPolicy.device_active`
answers, per (device, round), whether a device participates — again a
pure seeded function, so join/leave patterns replay exactly.  Devices in
``FaultConfig.dead_devices`` are permanently inactive, the hard-failure
case the degraded-mode protocol must survive.

With no policy installed the fabric takes none of these paths and a run
is bit-for-bit identical to the fault-free fabric (asserted in
``tests/distributed/test_chaos.py``).  See ROBUSTNESS.md for the full
semantics and the determinism contract.
"""

from __future__ import annotations

import math
import numbers
import zlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.registry import register_lock
from repro.checks import check_count, check_unit_interval


class ProtocolError(RuntimeError):
    """A protocol invariant was violated and no degraded path applies.

    Raised with a descriptive message naming the node/device and round —
    the loud alternative to the latent ``KeyError`` the aggregation loop
    used to hit on a missing reply, and the hard-failure report when a
    cluster cannot make progress at all (every device dead).
    """


class DeliveryError(RuntimeError):
    """``send_reliable`` exhausted its retries without a clean delivery."""


class TransportFailure(RuntimeError):
    """One delivery attempt failed at the transport layer (retryable).

    Raised by a wire transport's remote-delivery stub when a send hits a
    real failure — a request timeout, a dropped connection, a peer that
    went away mid-exchange.  The fabric catches it around the handler
    invocation, records a :class:`FaultRecord` under :attr:`fault` and
    turns the attempt into the same retryable loss an injected drop
    produces, so ``send_reliable``'s retry/backoff and the degraded-mode
    protocol handle genuine network failures and simulated ones through
    one path.  The in-process loopback fabric never raises it.
    """

    def __init__(self, fault: str, message: str) -> None:
        super().__init__(message)
        #: Fault-ledger class for this failure (``"timeout"``/``"crash"``).
        self.fault = fault


#: Stream-domain separators so the fault draws, churn draws and any
#: future stream never collide for equal integer inputs.
_FAULT_STREAM = 0xFA017
_CHURN_STREAM = 0xC4021


def _h(text: str) -> int:
    """Stable 32-bit hash of a node name (process-independent)."""
    return zlib.crc32(text.encode("utf-8"))


@dataclass(frozen=True)
class FaultConfig:
    """Knobs of a seeded chaos campaign.

    All probabilities are per delivery *attempt*; a retried message is a
    fresh attempt with a fresh (deterministic) draw.
    """

    seed: int = 0
    #: Global per-attempt probabilities.
    drop: float = 0.0
    corrupt: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    #: A delayed message's handler runs after this many further
    #: deliveries on the same ledger (the straggler model).
    delay_deliveries: int = 3
    #: ``send_reliable`` defaults: extra attempts after the first, and
    #: the base backoff in seconds (scaled linearly per retry; keep 0.0
    #: in tests — the fabric is instant, backoff only models pacing).
    retries: int = 3
    backoff: float = 0.0
    #: Per-(device, round) probability that a device sits the round out.
    churn: float = 0.0
    #: Devices that are permanently inactive for the whole run.
    dead_devices: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # Checked here, so a bad value fails where it is written rather
        # than reading later as a network failure or being clamped away.
        for name in ("drop", "corrupt", "duplicate", "delay", "churn"):
            check_unit_interval(name, getattr(self, name))
        check_count("retries", self.retries, 0)
        check_count("delay_deliveries", self.delay_deliveries, 1)
        if (
            isinstance(self.backoff, bool)
            or not isinstance(self.backoff, numbers.Real)
            or not math.isfinite(self.backoff)
            or self.backoff < 0
        ):
            raise ValueError(
                f"backoff must be a finite number >= 0, got {self.backoff!r}"
            )
        for device in self.dead_devices:
            check_count("dead_devices entry", device, 0)

    @classmethod
    def parse(cls, spec: str) -> "FaultConfig":
        """Build a config from the CLI's ``k=v,k=v`` spec string.

        Example: ``seed=7,drop=0.15,churn=0.05,dead=2|5``.  Dead-device
        ids are ``|``-separated so the whole spec stays one comma list.
        """
        floats = {"drop", "corrupt", "duplicate", "delay", "churn", "backoff"}
        ints = {"seed", "retries", "delay_deliveries"}
        kwargs: Dict[str, object] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"fault spec entry {part!r} is not key=value")
            if key in floats:
                kwargs[key] = float(value)
            elif key in ints:
                kwargs[key] = int(value)
            elif key == "dead":
                kwargs["dead_devices"] = tuple(
                    int(x) for x in value.split("|") if x.strip()
                )
            else:
                raise ValueError(
                    f"unknown fault spec key {key!r}; known: "
                    f"{sorted(floats | ints | {'dead'})}"
                )
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultDecision:
    """What the policy injects into one delivery attempt (at most one)."""

    drop: bool = False
    corrupt: bool = False
    duplicate: bool = False
    delay_deliveries: int = 0


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault, recorded on the (sharded) fault ledger.

    Equality is the determinism contract: two runs with the same seed
    produce element-wise equal fault logs.  ``attempt`` is the
    per-message delivery attempt (1 = first try), which is deterministic
    per link even when edges run concurrently — unlike global sequence
    numbers, which interleave.
    """

    fault: str  # "drop" | "corrupt" | "duplicate" | "delay" | "lost" | "expired"
    kind: str
    sender: str
    receiver: str
    attempt: int
    detail: int = 0  # e.g. delay length in deliveries


class FaultPolicy:
    """Seeded fault decisions, one per delivery attempt.

    Each (kind, sender, receiver) link keeps an attempt counter; the
    decision for attempt ``n`` on a link is drawn from a generator
    seeded by ``(seed, kind, sender, receiver, n)`` — no shared stream,
    so concurrent edges cannot perturb each other's draws and a chaos
    run replays exactly.  The counter table is the only mutable state
    (lock-protected; each link is used serially, so its sub-sequence of
    draws is deterministic).
    """

    def __init__(self, config: Optional[FaultConfig] = None) -> None:
        self.config = config or FaultConfig()
        self._link_attempts: Dict[Tuple[str, str, str], int] = defaultdict(int)
        self._lock = register_lock("faults.policy")

    # -- delivery faults ------------------------------------------------
    def decide(self, kind: str, sender: str, receiver: str) -> Optional[FaultDecision]:
        """The fault (if any) injected into this link's next attempt."""
        key = (kind, sender, receiver)
        with self._lock:
            n = self._link_attempts[key]
            self._link_attempts[key] = n + 1
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [
                    self.config.seed & 0xFFFFFFFF,
                    _FAULT_STREAM,
                    _h(kind),
                    _h(sender),
                    _h(receiver),
                    n,
                ]
            )
        )
        # One uniform per fault class, evaluated in severity order so at
        # most one fault fires per attempt.
        u = rng.random(4)
        if u[0] < self.config.drop:
            return FaultDecision(drop=True)
        if u[1] < self.config.corrupt:
            return FaultDecision(corrupt=True)
        if u[2] < self.config.duplicate:
            return FaultDecision(duplicate=True)
        if u[3] < self.config.delay:
            return FaultDecision(delay_deliveries=self.config.delay_deliveries)
        return None

    # -- churn ----------------------------------------------------------
    def is_dead(self, device_id: int) -> bool:
        return device_id in self.config.dead_devices

    def device_active(self, device_id: int, round_index: int) -> bool:
        """The seeded churn schedule: does the device attend this round?

        Dead devices never attend; otherwise each (device, round) pair
        independently leaves with probability ``churn``.  A device that
        left rejoins automatically on its next active round (the edge
        re-registers it lazily on the fabric).
        """
        if self.is_dead(device_id):
            return False
        if self.config.churn <= 0.0:
            return True
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [
                    self.config.seed & 0xFFFFFFFF,
                    _CHURN_STREAM,
                    int(device_id) & 0xFFFFFFFF,
                    int(round_index) & 0xFFFFFFFF,
                ]
            )
        )
        return bool(rng.random() >= self.config.churn)
