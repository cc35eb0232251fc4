"""The TCP transport: the same protocol between real processes.

The protocol classes take a :class:`~repro.distributed.network.Network`;
in one process that is the plain fabric, and this module adds nothing
to that path.  :class:`TcpTransport` carries it over asyncio TCP
streams: a :class:`WireFabric` (a ``Network`` subclass) resolves
non-local receivers to a remote stub, so the fabric's delivery
machinery — ledger recording, sequence stamping, fault draws,
retry/backoff — runs unchanged over the wire.

Wire endpoints.  The cloud process runs a :class:`WireHub` (server);
each edge process runs a :class:`WireLink` (client).  Frames are the
:mod:`repro.distributed.wire` format; every frame body is one encoded
dict tagged ``hello`` / ``hello_ack`` / ``req`` / ``resp`` / ``hb`` /
``hb_ack``.  Requests are multiplexed by id, so a link serves inbound
requests (the cloud's nested ``BACKBONE_ASSIGNMENT``) while its own
request is in flight.

Liveness and recovery — the robustness contract:

* **Heartbeats**: a link sends a heartbeat every
  ``TransportConfig.heartbeat_interval`` seconds; both sides declare a
  peer dead after ``heartbeat_misses`` intervals with no inbound frame
  and close the connection.
* **Crash detection**: a closed/stalled/timed-out exchange raises
  :class:`~repro.distributed.faults.TransportFailure`, which the fabric
  converts into a recorded fault and a retryable loss — exactly an
  injected drop.  ``send_reliable`` retries it and raises the existing
  :class:`~repro.distributed.faults.DeliveryError` when exhausted; the
  PR 6 quorum/carry-forward machinery then degrades the round instead
  of hanging.
* **Reconnect**: a link re-dials with capped exponential backoff
  (``reconnect_backoff * 2**k``, capped at ``reconnect_backoff_cap``,
  at most ``reconnect_attempts`` dials) and replays its ``hello``
  registration; the hub treats a repeated hello from the same peer as
  idempotent re-registration and swaps the stale channel out.
* **Timeouts**: every request is bounded by ``request_timeout``; every
  dial by ``connect_timeout``.  Nothing on this path blocks forever.

Ledger parity over TCP.  The edge fabric records its *whole*
conversation: outbound sends on the normal ``_attempt`` path, and
inbound cloud-originated sends through :meth:`WireFabric.deliver_wire`,
which routes them through ``_attempt`` against the local handler — the
same position in program order where the loopback shard recorded them.
The cloud fabric runs with ``record_wire=False`` and records nothing for
relayed traffic, mirroring loopback where the cloud's nested send lands
on the requesting edge's shard.  Merging the per-edge ledgers in edge
index order therefore reproduces the loopback ``kind_sequence()``
bit-for-bit (asserted in ``tests/distributed/test_transport.py``).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import contextvars
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.registry import register_lock
from repro.distributed import wire
from repro.distributed.faults import ProtocolError, TransportFailure
from repro.distributed.messages import Message
from repro.distributed.network import Network, _attempt

__all__ = [
    "TransportConfig",
    "TcpTransport",
    "WireFabric",
    "WireHub",
    "WireLink",
]


@dataclass
class TransportConfig:
    """Knobs of the TCP transport's liveness/recovery protocol."""

    host: str = "127.0.0.1"
    #: 0 = let the OS pick (the hub reports the bound port).
    port: int = 0
    #: Seconds between a link's heartbeat frames.
    heartbeat_interval: float = 0.25
    #: Intervals without any inbound frame before a peer is declared dead.
    heartbeat_misses: int = 8
    #: Per-request ceiling; an overrun surfaces as a retryable timeout.
    request_timeout: float = 120.0
    #: Per-dial (connect + hello exchange) ceiling.
    connect_timeout: float = 10.0
    #: First re-dial delay; doubles per attempt up to the cap.
    reconnect_backoff: float = 0.05
    reconnect_backoff_cap: float = 2.0
    #: Dial attempts per reconnect before the failure is surfaced.
    reconnect_attempts: int = 8
    #: Frame-body ceiling forwarded to the wire layer.
    max_frame: int = wire.MAX_FRAME


def _now() -> float:
    return time.monotonic()


# ---------------------------------------------------------------------------
# Event-loop host
# ---------------------------------------------------------------------------
class _LoopThread:
    """A private asyncio loop on a daemon thread, driven synchronously.

    The loop thread runs inside a snapshot of the *creating* thread's
    ``contextvars`` context.  Fresh threads otherwise start from the
    engine's contextvar defaults — float32 since the PR 9 dtype flip —
    so a cloud process that configured ``using_dtype("float64")`` would
    silently serve its request handlers in float32 and diverge from the
    loopback transport at the 8th digit.  Capturing the context here
    matches the executor's submit-time capture semantics and keeps the
    TCP tier bit-for-bit with loopback.
    """

    def __init__(self, name: str) -> None:
        self.loop = asyncio.new_event_loop()
        context = contextvars.copy_context()
        self._thread = threading.Thread(
            target=lambda: context.run(self._run), name=name, daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def run(self, coro, timeout: Optional[float] = None):
        """Run a coroutine on the loop; block the caller for the result."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise TransportFailure("timeout", "transport operation timed out")

    def call_soon(self, fn: Callable[[], None]) -> None:
        self.loop.call_soon_threadsafe(fn)

    def stop(self) -> None:
        if not self.loop.is_closed():
            self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5.0)
        if not self.loop.is_closed():
            with contextlib.suppress(Exception):
                self.loop.close()


# ---------------------------------------------------------------------------
# One framed, multiplexed connection
# ---------------------------------------------------------------------------
class _Channel:
    """A live connection: framed I/O, request multiplexing, liveness."""

    def __init__(self, owner: "_Endpoint", reader, writer) -> None:
        self.owner = owner
        self.config = owner.config
        self.reader = reader
        self.writer = writer
        self.peer_name: Optional[str] = None
        self.remote_nodes: FrozenSet[str] = frozenset()
        self.closed = False
        self.last_rx = _now()
        self._ids = itertools.count()
        self._pending: Dict[int, concurrent.futures.Future] = {}
        self._tasks: List[asyncio.Task] = []

    # -- framing (loop thread) ------------------------------------------
    async def read_frame(self) -> Any:
        header = await self.reader.readexactly(wire.HEADER_SIZE)
        length, crc = wire.frame_header(header, self.config.max_frame)
        body = await self.reader.readexactly(length)
        return wire.decode_value(wire.check_body(body, length, crc))

    async def write_frame(self, value: Any) -> None:
        # ``write`` appends the whole frame to the stream buffer in one
        # synchronous call, so concurrent drains cannot interleave frames.
        self.writer.write(wire.frame(wire.encode_value(value)))
        await self.writer.drain()

    # -- lifecycle (loop thread) ----------------------------------------
    def start(self, heartbeats: bool) -> None:
        loop = asyncio.get_running_loop()
        self._tasks.append(loop.create_task(self._read_loop()))
        self._tasks.append(loop.create_task(self._liveness_loop(heartbeats)))

    async def _read_loop(self) -> None:
        try:
            while not self.closed:
                value = await self.read_frame()
                self.last_rx = _now()
                tag = value.get("t") if isinstance(value, dict) else None
                if tag == "req":
                    asyncio.get_running_loop().create_task(self._serve(value))
                elif tag == "resp":
                    future = self._pending.pop(value.get("id"), None)
                    if future is not None and not future.done():
                        future.set_result(value)
                elif tag == "hb":
                    await self.write_frame({"t": "hb_ack", "n": value.get("n")})
                elif tag == "hb_ack":
                    pass
                elif tag == "bye":
                    break
                else:
                    raise wire.WireError(f"unexpected frame {tag!r}")
        except (
            wire.WireError,
            asyncio.IncompleteReadError,
            ConnectionError,
            OSError,
        ):
            pass
        finally:
            await self.close()

    async def _liveness_loop(self, heartbeats: bool) -> None:
        """Send heartbeats (links) and police staleness (both sides)."""
        interval = self.config.heartbeat_interval
        deadline = interval * self.config.heartbeat_misses
        beat = itertools.count()
        while not self.closed:
            await asyncio.sleep(interval)
            if _now() - self.last_rx > deadline:
                break  # peer presumed crashed/partitioned
            if heartbeats:
                with contextlib.suppress(Exception):
                    await self.write_frame({"t": "hb", "n": next(beat)})
        await self.close()

    async def _serve(self, value: Dict[str, Any]) -> None:
        """Run one inbound request through the owner's fabric and reply."""
        rid = value.get("id")
        loop = asyncio.get_running_loop()
        try:
            failure, reply = await loop.run_in_executor(
                self.owner.handler_pool, self.owner.deliver, value["msg"]
            )
            response = {
                "t": "resp",
                "id": rid,
                "failure": failure,
                "reply": reply,
                "error": None,
                "error_type": None,
            }
        # reprolint: broad-except -- RPC surface: handler failures of any type are
        # shipped back to the sender as typed error frames, never swallowed
        except Exception as exc:  # surfaced to the sender, not swallowed
            response = {
                "t": "resp",
                "id": rid,
                "failure": None,
                "reply": None,
                "error": str(exc),
                "error_type": type(exc).__name__,
            }
        if not self.closed:
            with contextlib.suppress(Exception):
                await self.write_frame(response)

    async def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for future in list(self._pending.values()):
            if not future.done():
                future.set_exception(
                    TransportFailure(
                        "crash", f"connection to {self.peer_name!r} closed"
                    )
                )
        self._pending.clear()
        current = asyncio.current_task()
        for task in self._tasks:
            if task is not current:
                task.cancel()
        with contextlib.suppress(Exception):
            self.writer.close()
        self.owner.on_channel_closed(self)

    # -- requests (any thread) ------------------------------------------
    def request(self, message: Message, timeout: float) -> Dict[str, Any]:
        """Send one request frame; block for its response."""
        future: concurrent.futures.Future = concurrent.futures.Future()

        def _submit() -> None:
            if self.closed:
                if not future.done():
                    future.set_exception(
                        TransportFailure(
                            "crash", f"connection to {self.peer_name!r} closed"
                        )
                    )
                return
            rid = next(self._ids)
            self._pending[rid] = future
            task = self.owner.loop_thread.loop.create_task(
                self.write_frame({"t": "req", "id": rid, "msg": message})
            )

            def _on_write(t: asyncio.Task) -> None:
                exc = t.exception() if not t.cancelled() else None
                if exc is not None and not future.done():
                    self._pending.pop(rid, None)
                    future.set_exception(
                        TransportFailure("crash", f"send failed: {exc}")
                    )

            task.add_done_callback(_on_write)

        self.owner.loop_thread.call_soon(_submit)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            raise TransportFailure(
                "timeout",
                f"no response from {self.peer_name!r} within {timeout}s "
                f"for {message.kind.value}",
            ) from None


def _interpret(response: Any) -> Tuple[Optional[str], Optional[Message]]:
    """Map a response frame to ``(failure, reply)`` or a raised error."""
    if not isinstance(response, dict) or response.get("t") != "resp":
        raise TransportFailure("crash", "malformed response frame")
    error = response.get("error")
    if error is not None:
        if response.get("error_type") == "KeyError":
            raise KeyError(error)
        raise ProtocolError(
            f"remote handler failed: {response.get('error_type')}: {error}"
        )
    return response.get("failure"), response.get("reply")


# ---------------------------------------------------------------------------
# Endpoints
# ---------------------------------------------------------------------------
class _Endpoint:
    """Shared endpoint plumbing: loop thread + serialized handler pool."""

    def __init__(self, name: str, fabric: "WireFabric", config: TransportConfig):
        self.name = name
        self.fabric = fabric
        self.config = config
        self.loop_thread = _LoopThread(f"wire-{name}")
        # One worker: inbound handlers run serially, so the receiving
        # fabric's ledger order is deterministic.  The worker is seeded
        # with the creating thread's contextvars (fresh threads start
        # from the engine defaults — float32 — which would silently
        # drop a ``using_dtype("float64")`` scope the endpoint was built
        # under); it keeps its own live context afterwards, so handler
        # mutations persist across requests like any thread's would.
        context = contextvars.copy_context()

        def _seed_worker_context() -> None:
            for var, value in context.items():
                var.set(value)

        self.handler_pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix=f"wire-{name}-handler",
            initializer=_seed_worker_context,
        )
        self._closed = False

    def deliver(self, message: Message) -> Tuple[Optional[str], Optional[Message]]:
        return self.fabric.deliver_wire(message)

    def on_channel_closed(self, channel: _Channel) -> None:  # pragma: no cover
        pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.handler_pool.shutdown(wait=False, cancel_futures=True)
        self.loop_thread.stop()


class WireHub(_Endpoint):
    """The server endpoint (cloud side): accepts links, routes by name."""

    def __init__(self, name: str, fabric: "WireFabric", config: TransportConfig):
        super().__init__(name, fabric, config)
        self._server: Optional[asyncio.base_events.Server] = None
        self.port: Optional[int] = None
        self._route_lock = register_lock("transport.routes")
        self._channels: Dict[str, _Channel] = {}
        self._routes: Dict[str, _Channel] = {}

    def start(self) -> None:
        self.loop_thread.run(self._start(), timeout=self.config.connect_timeout)

    async def _start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _on_connection(self, reader, writer) -> None:
        channel = _Channel(self, reader, writer)
        try:
            hello = await asyncio.wait_for(
                channel.read_frame(), self.config.connect_timeout
            )
        # reprolint: broad-except -- inbound-connection boundary: a bad hello
        # (timeout, codec garbage, reset) drops that one connection, not the hub
        except Exception:
            await channel.close()
            return
        if not isinstance(hello, dict) or hello.get("t") != "hello":
            await channel.close()
            return
        peer = str(hello.get("peer"))
        nodes = [str(n) for n in hello.get("nodes", [])]
        channel.peer_name = peer
        channel.remote_nodes = frozenset(nodes)
        with self._route_lock:
            stale = self._channels.pop(peer, None)
            self._channels[peer] = channel
            for node in nodes:
                self._routes[node] = channel
        if stale is not None:
            # Idempotent re-registration: the reconnecting peer replaces
            # its stale channel; routes above already point at the new one.
            await stale.close()
        await channel.write_frame(
            {"t": "hello_ack", "peer": self.name, "nodes": self.fabric.nodes()}
        )
        channel.start(heartbeats=False)

    def on_channel_closed(self, channel: _Channel) -> None:
        with self._route_lock:
            if self._channels.get(channel.peer_name) is channel:
                del self._channels[channel.peer_name]
            for node in [n for n, ch in self._routes.items() if ch is channel]:
                del self._routes[node]

    def routes(self, name: str) -> bool:
        with self._route_lock:
            return name in self._routes

    def request(self, message: Message) -> Tuple[Optional[str], Optional[Message]]:
        with self._route_lock:
            channel = self._routes.get(message.receiver)
        if channel is None or channel.closed:
            raise TransportFailure(
                "crash", f"no live route to {message.receiver!r}"
            )
        return _interpret(channel.request(message, self.config.request_timeout))

    def close(self) -> None:
        if self._closed:
            return
        with contextlib.suppress(Exception):
            self.loop_thread.run(self._shutdown(), timeout=5.0)
        super().close()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
        with self._route_lock:
            channels = list(self._channels.values())
        for channel in channels:
            await channel.close()


class WireLink(_Endpoint):
    """The client endpoint (edge side): dials the hub, reconnects on loss."""

    def __init__(
        self,
        name: str,
        fabric: "WireFabric",
        config: TransportConfig,
        host: str,
        port: int,
        nodes_fn: Optional[Callable[[], Sequence[str]]] = None,
    ) -> None:
        super().__init__(name, fabric, config)
        self.host = host
        self.port = port
        #: Called at every (re)connect, so the hello always carries the
        #: fabric's *current* registrations — reconnect after churn
        #: re-registers exactly the live nodes.
        self._nodes_fn = nodes_fn if nodes_fn is not None else fabric.nodes
        self._remote_nodes: FrozenSet[str] = frozenset()
        self._channel: Optional[_Channel] = None
        self._dial_lock = register_lock("transport.dial")

    def start(self) -> None:
        """Initial dial (with the same bounded retry as reconnects)."""
        with self._dial_lock:
            self._ensure_channel_locked()

    def routes(self, name: str) -> bool:
        return name in self._remote_nodes

    def request(self, message: Message) -> Tuple[Optional[str], Optional[Message]]:
        with self._dial_lock:
            channel = self._ensure_channel_locked()
        return _interpret(channel.request(message, self.config.request_timeout))

    def _ensure_channel_locked(self) -> _Channel:
        if self._channel is not None and not self._channel.closed:
            return self._channel
        if self._closed:
            raise TransportFailure("crash", f"link {self.name!r} is closed")
        last: Optional[Exception] = None
        for attempt in range(max(1, self.config.reconnect_attempts)):
            if attempt:
                delay = min(
                    self.config.reconnect_backoff_cap,
                    self.config.reconnect_backoff * (2 ** (attempt - 1)),
                )
                time.sleep(delay)
            try:
                self._channel = self.loop_thread.run(
                    self._dial(), timeout=self.config.connect_timeout * 2 + 5
                )
                return self._channel
            except TransportFailure as exc:
                last = exc
            # reprolint: broad-except -- dial boundary: every connect failure mode
            # (refused, timeout, DNS, loop teardown) becomes one TransportFailure
            except Exception as exc:
                last = exc
        raise TransportFailure(
            "crash",
            f"{self.name}: could not reach {self.host}:{self.port} after "
            f"{max(1, self.config.reconnect_attempts)} attempt(s): {last}",
        )

    async def _dial(self) -> _Channel:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port),
            self.config.connect_timeout,
        )
        channel = _Channel(self, reader, writer)
        await channel.write_frame(
            {"t": "hello", "peer": self.name, "nodes": list(self._nodes_fn())}
        )
        ack = await asyncio.wait_for(
            channel.read_frame(), self.config.connect_timeout
        )
        if not isinstance(ack, dict) or ack.get("t") != "hello_ack":
            await channel.close()
            raise TransportFailure("crash", "hub rejected the hello exchange")
        channel.peer_name = str(ack.get("peer"))
        channel.remote_nodes = frozenset(str(n) for n in ack.get("nodes", []))
        self._remote_nodes = channel.remote_nodes
        channel.start(heartbeats=True)
        return channel

    def close(self) -> None:
        if self._closed:
            return
        channel = self._channel
        if channel is not None:
            with contextlib.suppress(Exception):
                self.loop_thread.run(channel.close(), timeout=5.0)
        super().close()


# ---------------------------------------------------------------------------
# The fabric over a wire endpoint
# ---------------------------------------------------------------------------
class WireFabric(Network):
    """A :class:`Network` whose unknown receivers live across a socket.

    Local traffic (edge ↔ its co-located devices) is delivered exactly
    like the plain fabric.  A receiver that is not registered locally
    but is routed by the attached endpoint resolves to a remote stub, so
    ``_attempt`` records bytes, draws faults and stamps sequences for
    remote sends in the same program order as loopback.

    ``record_wire=False`` is the hub (cloud) mode: outbound relayed
    sends bypass the ledger and fault draws entirely, and inbound
    deliveries invoke the handler transparently — the requesting edge's
    fabric owns that conversation's ledger, mirroring how loopback
    records the cloud's nested sends on the requesting edge's shard.
    """

    def __init__(
        self,
        ledger: str = "full",
        endpoint: Optional[_Endpoint] = None,
        record_wire: bool = True,
    ) -> None:
        super().__init__(ledger)
        self._endpoint = endpoint
        self._record_wire = record_wire

    def attach_endpoint(self, endpoint: _Endpoint) -> None:
        self._endpoint = endpoint

    # -- resolution -----------------------------------------------------
    def _resolve(self, receiver: str, shard=None):
        try:
            return super()._resolve(receiver, shard=shard)
        except KeyError:
            endpoint = self._endpoint
            if endpoint is not None and endpoint.routes(receiver):
                return _RemoteStub(endpoint, receiver)
            raise

    # -- transparent relay (hub mode) -----------------------------------
    def _relays(self, receiver: str) -> bool:
        return (
            not self._record_wire
            and self._endpoint is not None
            and not self.is_registered(receiver)
        )

    def send(self, message: Message) -> Optional[Message]:
        if self._relays(message.receiver):
            try:
                failure, reply = self._endpoint.request(message)
            except TransportFailure:
                return None  # datagram semantics: the wire ate it
            return reply if failure is None else None
        return super().send(message)

    def send_reliable(
        self,
        message: Message,
        retries: Optional[int] = None,
        backoff: Optional[float] = None,
    ) -> Optional[Message]:
        if self._relays(message.receiver):
            from repro.distributed.faults import DeliveryError

            extra = retries if retries is not None else 0
            failure: Optional[str] = None
            for attempt in range(extra + 1):
                if attempt and backoff:
                    time.sleep(backoff * attempt)
                try:
                    failure, reply = self._endpoint.request(message)
                except TransportFailure as exc:
                    failure = exc.fault
                    continue
                if failure is None:
                    return reply
            raise DeliveryError(
                f"{message.kind.value} {message.sender}->{message.receiver} "
                f"not delivered after {extra + 1} attempt(s); "
                f"last failure: {failure}"
            )
        return super().send_reliable(message, retries=retries, backoff=backoff)

    # -- inbound wire deliveries ----------------------------------------
    def deliver_wire(
        self, message: Message
    ) -> Tuple[Optional[str], Optional[Message]]:
        """Deliver an inbound wire message; return ``(failure, reply)``.

        Recording mode runs the full ``_attempt`` path — ledger bytes,
        fault draws, sequence stamping — against the locally registered
        handler; hub mode invokes the handler transparently.  An unknown
        local receiver raises ``KeyError``, which travels back to the
        sender as the same error loopback raises.
        """
        if not self._record_wire:
            handler = Network._resolve(self, message.receiver)
            return None, handler(message)
        reply, failure = _attempt(self, message)
        return failure, reply


class _RemoteStub:
    """A handler-shaped callable that forwards one receiver over the wire."""

    __slots__ = ("endpoint", "receiver")

    def __init__(self, endpoint: _Endpoint, receiver: str) -> None:
        self.endpoint = endpoint
        self.receiver = receiver

    def __call__(self, message: Message) -> Optional[Message]:
        failure, reply = self.endpoint.request(message)
        if failure is not None:
            # The receiver's fabric injected a fault on delivery; to the
            # sending fabric that is a transport-level loss of this
            # attempt.  (Unused in the cloud/edge topology: the hub side
            # is transparent and never returns a verdict.)
            raise TransportFailure(
                failure,
                f"receiver-side {failure} verdict for {message.kind.value}",
            )
        return reply


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------
class TcpTransport:
    """One process's end of the TCP fabric (a hub or a link).

    Owns a :class:`WireFabric` — ``network``, the full fabric surface
    protocol nodes register on and send through — and its lifecycle.
    """

    def __init__(self, fabric: WireFabric, endpoint: _Endpoint) -> None:
        self._fabric = fabric
        self._endpoint = endpoint

    @property
    def network(self) -> WireFabric:
        return self._fabric

    @property
    def endpoint(self) -> _Endpoint:
        return self._endpoint

    @classmethod
    def serve(
        cls,
        name: str,
        config: Optional[TransportConfig] = None,
        ledger: str = "full",
    ) -> "TcpTransport":
        """The server (cloud) end: bind, listen, route by peer hellos."""
        config = config if config is not None else TransportConfig()
        fabric = WireFabric(ledger, record_wire=False)
        hub = WireHub(name, fabric, config)
        fabric.attach_endpoint(hub)
        transport = cls(fabric, hub)
        hub.start()
        return transport

    @classmethod
    def connect(
        cls,
        name: str,
        host: str,
        port: int,
        config: Optional[TransportConfig] = None,
        ledger: str = "full",
    ) -> "TcpTransport":
        """The client (edge) end.  Register local nodes, then ``start()``.

        The dial is deferred to :meth:`start` so the hello announces the
        nodes the caller has registered on :attr:`network` by then.
        """
        config = config if config is not None else TransportConfig()
        fabric = WireFabric(ledger, record_wire=True)
        link = WireLink(name, fabric, config, host, port)
        fabric.attach_endpoint(link)
        return cls(fabric, link)

    @property
    def port(self) -> Optional[int]:
        return getattr(self._endpoint, "port", None)

    def start(self) -> None:
        if isinstance(self._endpoint, WireLink):
            self._endpoint.start()

    def close(self) -> None:
        self._endpoint.close()
