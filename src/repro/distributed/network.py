"""Simulated network with full traffic accounting — sharded for parallelism.

The :class:`Network` delivers messages between named nodes instantly (this
is a protocol/cost simulation, not a latency simulation) and records every
transfer: per message kind, per direction, and per (sender, receiver) pair.
Table I's "Upload Data" column is read directly from these counters.
The handler table is a directory, not an owner: a node's bound
``handle`` is held weakly, so a deployment nobody references any more
is freed by refcount (:meth:`Network.register`).

One ledger.  :class:`Ledger` is the single representation of what a
conversation cost: traffic counters (``stats``), the message ``log`` and
exact per-kind ``kind_counts``, the ``fault_log`` with its running
counter, the attempt / retry / failed-delivery counters and the queue of
still-delayed messages.  ``record`` / ``record_fault`` / the three
``count_*`` write it, ``clear`` empties it, and ``absorb(other)`` folds
another ledger in (its still-delayed messages become ``"expired"``
faults) and clears it.  The root :class:`Network` and every
:class:`NetworkShard` *are* ledgers; an edge process ships a detached
one home over its pipe and the supervisor folds it with the same
``absorb``.

Concurrency model.  The fabric is a two-level ledger:

* the root :class:`Network` owns the handler table and the *global*
  ledger, every mutation of which takes the ``network.ledger`` lock;
* a :class:`NetworkShard` (one per edge cluster, created with
  :meth:`Network.shard`) records traffic into its own *local* ledger
  while delivering through the root's handler table.  Shards touch no
  root ledger state, so any number of edges can send concurrently;
  :meth:`Network.merge_shards` then absorbs the local ledgers into the
  global one **in the deterministic order the caller passes** (edge
  index order in :class:`~repro.distributed.system.ACMESystem`), which
  makes the merged log — and therefore ``kind_sequence()`` and the
  Table-I byte counters — bit-identical to a serial edge-by-edge run.

While a shard is delivering (or inside :meth:`NetworkShard.activate`),
it is installed as the *ambient route* in a :mod:`contextvars` variable:
nested sends issued through the root ``Network`` — e.g. the cloud
handler's ``BACKBONE_ASSIGNMENT`` reply, written against the root it was
constructed with — are transparently recorded on the shard that carried
the request, keeping each edge's conversation on that edge's ledger.
``contextvars`` (not a plain thread-local) so
:func:`repro.distributed.executor.parallel_map`, which runs tasks in a
copy of the caller's context, propagates an edge's active shard into
any nested per-device fan-out.

Fault injection.  :meth:`Network.install_fault_policy` arms a seeded
:class:`~repro.distributed.faults.FaultPolicy` that every delivery
attempt consults: the fabric then drops, corrupts, duplicates or delays
messages and records each injected fault in a ``fault_log`` ledger
parallel to the traffic log (sharded and merged the same way).  A
dropped or corrupted attempt still *records its bytes* — the transfer
left the sender; the wire ate it — but the handler never runs.
:meth:`send` stays datagram-like (a lost message returns ``None``);
:meth:`send_reliable` adds timeout-style retries with linear backoff and
raises :class:`~repro.distributed.faults.DeliveryError` when exhausted.
With no policy installed none of these paths is taken and the fabric is
bit-for-bit the pre-fault fabric.  See ROBUSTNESS.md.

``Message.sequence`` numbers are stamped from a **per-network** counter
on first dispatch, so two identical runs construct identical sequences
in one process — still a debugging aid; ledger order is defined by the
(merged) ``log``.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import re
import time
import types
import weakref
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.registry import register_lock
from repro.distributed.faults import (
    DeliveryError,
    FaultPolicy,
    FaultRecord,
    TransportFailure,
)
from repro.distributed.messages import Message

#: The shard currently carrying a delivery (None = record on the root).
_ACTIVE_SHARD: contextvars.ContextVar[Optional["NetworkShard"]] = contextvars.ContextVar(
    "repro_active_network_shard", default=None
)

#: XOR mask applied to a corrupted message's wire checksum, so the
#: receiver's verification genuinely fails rather than being faked.
_CORRUPT_MASK = 0x5EED

#: Messages kept (most recent first to fall out) by a summary-mode
#: ledger's bounded log — enough tail for debugging a scale run without
#: the O(messages) growth of the full ledger.
_SUMMARY_TAIL = 256

_TRAILING_DIGITS = re.compile(r"\d+$")


def _role(name: str) -> str:
    """Collapse a node name to its role: ``device123`` → ``device*``.

    Summary-mode per-pair byte counters key on roles instead of
    individual nodes; a million-device run then keeps a handful of
    (role, role) rows instead of one per device.
    """
    collapsed = _TRAILING_DIGITS.sub("*", name)
    return collapsed


@dataclass
class TrafficStats:
    """Aggregated transfer counters."""

    total_bytes: int = 0
    upload_bytes: int = 0
    download_bytes: int = 0
    message_count: int = 0
    by_kind: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    by_pair: Dict[Tuple[str, str], int] = field(default_factory=lambda: defaultdict(int))
    #: Summary-ledger mode: key ``by_pair`` on collapsed roles
    #: (``device*``/``edge*``) instead of individual node names, keeping
    #: the table O(roles²) regardless of fleet size.  All scalar and
    #: per-kind counters stay exact.
    collapse_pairs: bool = False

    def record(self, message: Message) -> None:
        self.total_bytes += message.nbytes
        self.message_count += 1
        if message.kind.is_upload:
            self.upload_bytes += message.nbytes
        else:
            self.download_bytes += message.nbytes
        self.by_kind[message.kind.value] += message.nbytes
        pair = (message.sender, message.receiver)
        if self.collapse_pairs:
            pair = (_role(pair[0]), _role(pair[1]))
        self.by_pair[pair] += message.nbytes

    def merge_from(self, other: "TrafficStats") -> None:
        """Fold another ledger's counters into this one (shard merge)."""
        self.total_bytes += other.total_bytes
        self.upload_bytes += other.upload_bytes
        self.download_bytes += other.download_bytes
        self.message_count += other.message_count
        for kind, nbytes in other.by_kind.items():
            self.by_kind[kind] += nbytes
        for pair, nbytes in other.by_pair.items():
            if self.collapse_pairs:
                pair = (_role(pair[0]), _role(pair[1]))
            self.by_pair[pair] += nbytes

    def upload_megabytes(self) -> float:
        return self.upload_bytes / 1e6

    def total_megabytes(self) -> float:
        return self.total_bytes / 1e6


class Ledger:
    """What one conversation cost: traffic, faults, attempts, stragglers.

    ``ledger`` is the mode.  ``"full"`` (default): every delivered
    message object is kept on :attr:`log` — O(messages) memory, the mode
    Table-I counters and the conformance/parity tests rely on.
    ``"summary"``: :attr:`log`/:attr:`fault_log` keep only a bounded tail
    (:data:`_SUMMARY_TAIL`) and per-pair byte counters collapse to roles,
    bounding ledger memory for fleet-scale runs; exact per-kind message
    counts stay available as :attr:`kind_counts`.

    Not thread-safe by itself: a :class:`NetworkShard` is written by its
    owner only, and the root :class:`Network` wraps every mutation in
    its ``network.ledger`` lock.
    """

    def __init__(self, ledger: str = "full") -> None:
        if ledger not in ("full", "summary"):
            raise ValueError(
                f"ledger must be 'full' or 'summary', got {ledger!r}"
            )
        self.ledger = ledger
        #: Re-entrancy guard of the delayed queue (:func:`_drain_delayed`).
        self._draining = False
        self.clear()

    def clear(self) -> None:
        """Reset every ledger field to its freshly built value."""
        summary = self.ledger == "summary"
        self.stats = TrafficStats(collapse_pairs=summary)
        self.log = deque(maxlen=_SUMMARY_TAIL) if summary else []
        #: Exact count of delivered (recorded) messages per kind, in both
        #: ledger modes — the summary-mode replacement for deriving
        #: counts from the full log.
        self.kind_counts: Counter = Counter()
        self.fault_log = deque(maxlen=_SUMMARY_TAIL) if summary else []
        self._fault_counter: Counter = Counter()
        self.delivery_attempts = 0
        self.retry_count = 0
        self.failed_deliveries = 0
        #: ``[message, countdown]`` entries still in flight.
        self._delayed: List[List] = []

    def record(self, message: Message) -> None:
        self.stats.record(message)
        self.log.append(message)
        self.kind_counts[message.kind.value] += 1

    def record_fault(self, record: FaultRecord) -> None:
        self.fault_log.append(record)
        self._fault_counter[record.fault] += 1

    def count_attempt(self) -> None:
        self.delivery_attempts += 1

    def count_retry(self) -> None:
        self.retry_count += 1

    def count_failure(self) -> None:
        self.failed_deliveries += 1

    def fault_counts(self) -> Dict[str, int]:
        """Injected faults by class (``drop``/``corrupt``/... → count).

        Maintained as a running counter, so it is exact in both ledger
        modes — including summary mode, whose ``fault_log`` keeps only a
        bounded tail.
        """
        return dict(self._fault_counter)

    def kind_sequence(self) -> List[str]:
        """The ordered kinds of all delivered messages (for conformance tests)."""
        if self.ledger == "summary":
            raise RuntimeError(
                f"kind_sequence() is unavailable on a summary-mode ledger: "
                f"the bounded log keeps only the last {_SUMMARY_TAIL} "
                f"messages — use kind_counts for exact per-kind totals, or "
                f"build the Network with ledger='full'"
            )
        return [m.kind.value for m in self.log]

    def absorb(self, other: "Ledger") -> None:
        """Fold ``other`` into this ledger, then clear it.

        Clearing is what makes double-counting impossible.  ``other``'s
        still-delayed messages will never be handled once its
        conversation is over; they are recorded as ``"expired"`` faults
        rather than silently vanishing.
        """
        self.stats.merge_from(other.stats)
        self.log.extend(other.log)
        self.kind_counts.update(other.kind_counts)
        self.fault_log.extend(other.fault_log)
        self._fault_counter.update(other._fault_counter)
        for message, _ in other._delayed:
            # Unlocked form: the root's ``absorb`` already holds its lock.
            Ledger.record_fault(self, _fault(message, "expired"))
        self.delivery_attempts += other.delivery_attempts
        self.retry_count += other.retry_count
        self.failed_deliveries += other.failed_deliveries
        other.clear()


def _attempt(route: "_Route", message: Message) -> Tuple[Optional[Message], Optional[str]]:
    """One delivery attempt on a route (root network or shard).

    Returns ``(reply, failure)``.  ``failure`` is ``None`` when the
    handler ran, else the injected fault that stopped it: ``"drop"``,
    ``"corrupt"`` (checksum verification failed at the receiver) or
    ``"delay"`` (the message is queued and will be handled after further
    ledger activity — in flight, not lost, but the sender sees no reply,
    which ``send_reliable`` treats as a timeout).

    The attempt's bytes are recorded on the route's traffic ledger in
    every case except an unknown receiver: faults happen on the wire,
    after the sender has paid for the transfer.
    """
    root = route.root
    shard = route if isinstance(route, NetworkShard) else None
    handler = root._resolve(message.receiver, shard=shard)
    if message.attempts == 0:
        message.sequence = root._next_sequence()
    message.attempts += 1
    route.count_attempt()
    route.record(message)
    policy = root.fault_policy
    decision = (
        policy.decide(message.kind.value, message.sender, message.receiver)
        if policy is not None
        else None
    )
    if decision is not None and decision.drop:
        route.record_fault(_fault(message, "drop"))
        _drain_delayed(route)
        return None, "drop"
    wire_checksum = message.checksum
    if decision is not None and decision.corrupt:
        wire_checksum ^= _CORRUPT_MASK
    if policy is not None and wire_checksum != message.compute_checksum():
        route.record_fault(_fault(message, "corrupt"))
        _drain_delayed(route)
        return None, "corrupt"
    if decision is not None and decision.delay_deliveries > 0:
        route.record_fault(
            _fault(message, "delay", detail=decision.delay_deliveries)
        )
        route._delayed.append([message, decision.delay_deliveries])
        return None, "delay"
    try:
        reply = route._invoke(handler, message)
    except TransportFailure as exc:
        # A real wire failure (timeout, dropped connection, dead peer)
        # behaves exactly like an injected drop: the bytes left the
        # sender and were recorded above, the fault lands on the ledger,
        # and the caller sees a retryable loss.  Loopback handlers never
        # raise this.
        route.record_fault(_fault(message, exc.fault))
        _drain_delayed(route)
        return None, exc.fault
    if decision is not None and decision.duplicate:
        route.record_fault(_fault(message, "duplicate"))
        route.record(message)  # the duplicate transfer costs bytes too
        try:
            route._invoke(handler, message)
        except TransportFailure as exc:
            route.record_fault(_fault(message, exc.fault))
    _drain_delayed(route)
    return reply, None


def _fault(message: Message, name: str, detail: int = 0) -> FaultRecord:
    return FaultRecord(
        fault=name,
        kind=message.kind.value,
        sender=message.sender,
        receiver=message.receiver,
        attempt=message.attempts,
        detail=detail,
    )


def _drain_delayed(route: "_Route") -> None:
    """Advance straggler countdowns after a fresh dispatch; deliver ripe ones.

    Each queued message's countdown drops by one per fresh dispatch on
    this ledger; at zero its handler finally runs (no further fault
    draws — the message already passed its attempt's draw).  A receiver
    that churned off the fabric in the meantime turns the delivery into
    a ``"lost"`` fault record instead of an exception.  Nested sends
    issued *during* a drain do not re-enter it (``_draining`` guard), so
    the countdown bookkeeping stays deterministic.
    """
    if not route._delayed or route._draining:
        return
    route._draining = True
    try:
        ripe: List[List] = []
        for entry in route._delayed:
            entry[1] -= 1
            if entry[1] <= 0:
                ripe.append(entry)
        for entry in ripe:
            route._delayed.remove(entry)
        for message, _ in ripe:
            try:
                handler = route.root._resolve(message.receiver)
            except KeyError:
                route.record_fault(_fault(message, "lost"))
                continue
            try:
                route._invoke(handler, message)
            except TransportFailure as exc:
                route.record_fault(_fault(message, exc.fault))
    finally:
        route._draining = False


def _send_reliable(
    route: "_Route",
    message: Message,
    retries: Optional[int],
    backoff: Optional[float],
) -> Optional[Message]:
    """Retry loop shared by ``Network.send_reliable`` and the shard's.

    A lost attempt (drop / corrupt) and a delayed one (no reply = the
    sender's timeout fired) are retried up to ``retries`` extra times
    with ``backoff * attempt`` seconds between attempts, re-sending the
    *same* message object — receivers' handlers are idempotent, so a
    retry racing a delayed original is safe.  Exhaustion raises
    :class:`DeliveryError` naming the message and its last failure.
    """
    policy = route.root.fault_policy
    if retries is None:
        retries = policy.config.retries if policy is not None else 0
    if backoff is None:
        backoff = policy.config.backoff if policy is not None else 0.0
    failure: Optional[str] = None
    for attempt in range(retries + 1):
        if attempt:
            route.count_retry()
            if backoff > 0.0:
                time.sleep(backoff * attempt)
        reply, failure = _attempt(route, message)
        if failure is None:
            return reply
    route.count_failure()
    raise DeliveryError(
        f"{message.kind.value} {message.sender}->{message.receiver} "
        f"not delivered after {retries + 1} attempt(s); last failure: {failure}"
    )


def _live(entry):
    """The handler a registry entry holds; ``None`` if absent or collected."""
    if isinstance(entry, weakref.WeakMethod):
        return entry()
    return entry


def _locked(method):
    """``method`` run under the root fabric's ``network.ledger`` lock."""

    @functools.wraps(method)
    def locked(self, *args):
        with self._ledger_lock:
            return method(self, *args)

    return locked


class Network(Ledger):
    """In-process message fabric connecting cloud, edges and devices.

    The root fabric: owns the (lock-protected) handler table, the global
    ledger, the optional fault policy and the per-network sequence
    counter.  Direct :meth:`send` calls record globally unless an
    ambient :class:`NetworkShard` is active — see the module docstring.
    """

    def __init__(self, ledger: str = "full") -> None:
        #: Name → handler, or a :class:`weakref.WeakMethod` of a bound
        #: one (see :meth:`register`); read through :func:`_live`.
        self._handlers: Dict[str, object] = {}
        self._registry_lock = register_lock("network.handler-registry")
        self._ledger_lock = register_lock("network.ledger")
        super().__init__(ledger)
        self.fault_policy: Optional[FaultPolicy] = None
        self._sequence = itertools.count()
        self._sequence_lock = register_lock("network.sequence")

    # The global ledger is shared by every thread that sends on the root.
    record = _locked(Ledger.record)
    record_fault = _locked(Ledger.record_fault)
    count_attempt = _locked(Ledger.count_attempt)
    count_retry = _locked(Ledger.count_retry)
    count_failure = _locked(Ledger.count_failure)
    fault_counts = _locked(Ledger.fault_counts)
    absorb = _locked(Ledger.absorb)
    clear = reset_stats = _locked(Ledger.clear)

    @property
    def root(self) -> "Network":
        """Uniform route interface: a network is its own root."""
        return self

    def _next_sequence(self) -> int:
        with self._sequence_lock:
            return next(self._sequence)

    # -- fault policy ---------------------------------------------------
    def install_fault_policy(self, policy: Optional[FaultPolicy]) -> None:
        """Arm (or with ``None`` disarm) fault injection on this fabric.

        Install before any traffic flows: the policy's per-link attempt
        counters start at zero, so a mid-run install would shift every
        subsequent draw and break seed replayability.
        """
        self.fault_policy = policy

    # -- registry -------------------------------------------------------
    def register(
        self,
        name: str,
        handler: Callable[[Message], Optional[Message]],
        shard: Optional["NetworkShard"] = None,
    ) -> None:
        """Register a node's message handler under its unique name.

        The registry is a directory, not an owner: a bound-method
        handler (``node.handle``) is kept as a :class:`weakref.WeakMethod`,
        so the fabric never keeps a node alive and a deployment whose
        last reference is dropped is freed by refcount at once — the
        node owns the fabric (``node.network``), never the other way
        round.  Whoever builds a node owns it (``ACMESystem`` its cloud
        and edges, an edge its devices).  Any other callable — a lambda,
        a plain function, a callable object — is kept strongly, as
        nothing else owns it.  A node collected without
        :meth:`unregister` leaves a dead entry: delivering to it raises
        a :class:`KeyError` that says so, and its name is free again.

        Names are fabric-global: registering through a shard and through
        the root address the same table, and a collision with a live
        node raises immediately instead of silently overwriting the
        existing node's handler — stale registrations from a torn-down
        system that is still alive must be removed with
        :meth:`unregister` first.

        Re-registering the *same* handler under its existing name is an
        idempotent no-op (``==`` against the live handler, so a re-taken
        bound method of the same object counts as the same handler).  A
        reconnecting transport replays its registrations without knowing
        whether the previous ones survived; only a genuinely different
        owner collides.
        """
        entry = (
            weakref.WeakMethod(handler)
            if isinstance(handler, types.MethodType)
            else handler
        )
        with self._registry_lock:
            current = _live(self._handlers.get(name))
            if current is not None:
                if current == handler:
                    return
                via = f" (via shard {shard.owner!r})" if shard is not None else ""
                raise ValueError(
                    f"node name {name!r} is already registered on this fabric"
                    f"{via}; names are global across shards — unregister() the "
                    f"existing node (tearing down a previous system?) or pick "
                    f"a unique name"
                )
            self._handlers[name] = entry

    def unregister(self, name: str) -> None:
        """Remove a node, freeing its name for a rebuilt system.

        Raises :class:`KeyError` for unknown names so a teardown that
        drifted out of sync with the registry fails loudly.  A collected
        node's dead entry is removed like a live one.
        """
        with self._registry_lock:
            if name not in self._handlers:
                raise KeyError(
                    f"cannot unregister unknown node {name!r}; "
                    f"registered nodes: {self._live_names()}"
                )
            del self._handlers[name]

    def is_registered(self, name: str) -> bool:
        """True if a live node currently owns this name (churn-aware checks)."""
        with self._registry_lock:
            return _live(self._handlers.get(name)) is not None

    def nodes(self) -> List[str]:
        """The names of the live registered nodes, sorted."""
        with self._registry_lock:
            return self._live_names()

    def _live_names(self) -> List[str]:
        return sorted(
            name for name, entry in self._handlers.items()
            if _live(entry) is not None
        )

    def _resolve(self, receiver: str, shard: Optional["NetworkShard"] = None):
        with self._registry_lock:
            entry = self._handlers.get(receiver)
            handler = _live(entry)
        if handler is None:
            via = f" (via shard {shard.owner!r})" if shard is not None else ""
            why = (
                " was garbage-collected without unregister()"
                if entry is not None
                else ""
            )
            raise KeyError(
                f"unknown receiver {receiver!r}{via}{why}; "
                f"registered nodes: {self.nodes()}"
            )
        return handler

    def _invoke(self, handler, message: Message) -> Optional[Message]:
        return handler(message)

    # -- delivery -------------------------------------------------------
    def send(self, message: Message) -> Optional[Message]:
        """Deliver a message; returns the receiver's (unrecorded) reply.

        Replies returned by handlers are control-flow conveniences for the
        simulation; protocols that need the reply *transmitted* must send it
        as an explicit message so its bytes are accounted.

        When an ambient shard of this fabric is active (the send happens
        inside a delivery or an :meth:`NetworkShard.activate` scope), the
        transfer is recorded on that shard's local ledger instead of the
        global one.

        Datagram semantics under faults: a dropped, corrupted or delayed
        message returns ``None`` — the bytes are recorded, the fault is
        logged, nothing raises.  Use :meth:`send_reliable` when the
        caller needs delivery confirmation.
        """
        shard = _ACTIVE_SHARD.get()
        if shard is not None and shard.root is self:
            return shard.send(message)
        reply, _ = _attempt(self, message)
        return reply

    def send_reliable(
        self,
        message: Message,
        retries: Optional[int] = None,
        backoff: Optional[float] = None,
    ) -> Optional[Message]:
        """Deliver with retries/backoff; :class:`DeliveryError` when exhausted.

        ``retries``/``backoff`` default to the installed policy's config
        (0 extra attempts on a fault-free fabric, where this is exactly
        :meth:`send` plus attempt accounting).  Routes through the
        ambient shard like :meth:`send`.
        """
        shard = _ACTIVE_SHARD.get()
        if shard is not None and shard.root is self:
            return shard.send_reliable(message, retries=retries, backoff=backoff)
        return _send_reliable(self, message, retries, backoff)

    # -- sharding -------------------------------------------------------
    def shard(self, owner: str) -> "NetworkShard":
        """A local ledger view for one edge's conversation."""
        return NetworkShard(self, owner)

    def merge_shards(self, shards: Sequence["NetworkShard"]) -> None:
        """Absorb shard ledgers into the global one, in the given order.

        The order is the determinism contract: merging in edge index
        order reproduces the serial edge-by-edge log exactly — for the
        traffic ledger *and* the fault log, which merges the same way.
        """
        for shard in shards:
            if shard.root is not self:
                raise ValueError(
                    f"shard {shard.owner!r} belongs to a different fabric"
                )
            self.absorb(shard)


class NetworkShard(Ledger):
    """One edge's ledger view of the fabric.

    Shares the root's handler table and fault policy (delivery semantics
    are identical) but records traffic, faults, stragglers and
    retry/attempt counters into its own ledger that only this shard's
    owner writes — the thread-safety unit of the fabric.  Fold into the
    global ledger with :meth:`Network.merge_shards`.
    """

    def __init__(self, root: Network, owner: str) -> None:
        # Shard ledgers inherit the root's mode, so a summary-mode
        # fabric stays bounded during the (pre-merge) edge pipelines too.
        super().__init__(root.ledger)
        self.root = root
        self.owner = owner

    def register(self, name: str, handler: Callable[[Message], Optional[Message]]) -> None:
        """Register on the *root* registry (names are fabric-global)."""
        self.root.register(name, handler, shard=self)

    def _invoke(self, handler, message: Message) -> Optional[Message]:
        token = _ACTIVE_SHARD.set(self)
        try:
            return handler(message)
        finally:
            _ACTIVE_SHARD.reset(token)

    # -- delivery -------------------------------------------------------
    def send(self, message: Message) -> Optional[Message]:
        """Deliver through the root's handler table, record locally.

        The shard is installed as the ambient route for the duration of
        the delivery, so a handler's nested sends through the root land
        on this ledger too.  Datagram semantics under faults, exactly as
        :meth:`Network.send`.
        """
        reply, _ = _attempt(self, message)
        return reply

    def send_reliable(
        self,
        message: Message,
        retries: Optional[int] = None,
        backoff: Optional[float] = None,
    ) -> Optional[Message]:
        """Shard-recorded :meth:`Network.send_reliable`."""
        return _send_reliable(self, message, retries, backoff)

    @contextlib.contextmanager
    def activate(self):
        """Scope in which root sends are routed to this shard's ledger."""
        token = _ACTIVE_SHARD.set(self)
        try:
            yield self
        finally:
            _ACTIVE_SHARD.reset(token)


#: A delivery route: the root network or one of its shards.
_Route = Union[Network, NetworkShard]
