"""In-process transport.

Connects clients and servers living in one Python process — the
configuration all the reproduction experiments use.  Although no socket is
involved, every request and reply is a fully serialized byte string
(channels refuse anything else), so measured bandwidth is exactly what a
socket would have carried.  It also supports server push, which the
adaptive polling/notification protocol uses.

An optional :class:`NetworkModel` + virtual clock pair simulates link
latency/bandwidth by advancing simulated time per message.

Pipelining: in-process dispatch is synchronous (the dispatcher runs in
the requesting thread), so the inherited :meth:`Channel.submit` — which
completes its future before returning — is already the right semantics;
there is no wire to keep busy.  Concurrency comes from calling threads,
exactly as with a real socket.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.errors import TransportError
from repro.transport.base import (
    Channel,
    Dispatcher,
    NetworkModel,
    NotificationSink,
    request_payload,
)
from repro.util.clock import Clock


class InProcChannel(Channel):
    """A client's connection to an in-process server."""

    can_push = True

    def __init__(self, hub: "InProcHub", server_name: str, client_id: str):
        super().__init__()
        self._hub = hub
        self._server_name = server_name
        self._client_id = client_id
        self._notification_handler: Optional[Callable[[bytes], None]] = None
        self._closed = False

    def request(self, data: bytes) -> bytes:
        if self._closed:
            raise TransportError("channel is closed")
        data = request_payload(data)
        started = time.perf_counter()
        reply = self._hub.deliver(self._server_name, self._client_id, data)
        self._record_request(len(data), len(reply),
                             time.perf_counter() - started)
        return reply

    def set_notification_handler(self, handler: Callable[[bytes], None]) -> None:
        self._notification_handler = handler

    def _push(self, data: bytes) -> bool:
        if self._closed or self._notification_handler is None:
            return False
        self._record_push(len(data))
        self._notification_handler(data)
        return True

    def close(self) -> None:
        self._closed = True
        self._hub._drop_channel(self._client_id)


class InProcHub(NotificationSink):
    """A registry wiring client channels to named in-process servers.

    Also the servers' :class:`NotificationSink`: pushes are routed to the
    originating client's channel and run its notification handler inline.
    """

    def __init__(self, clock: Optional[Clock] = None,
                 network: Optional[NetworkModel] = None):
        self._servers: Dict[str, Dispatcher] = {}
        self._channels: Dict[str, InProcChannel] = {}
        self._clock = clock
        self._network = network

    # -- server side -------------------------------------------------------------

    def register_server(self, name: str, dispatcher: Dispatcher) -> None:
        if name in self._servers:
            raise TransportError(f"server {name!r} already registered")
        self._servers[name] = dispatcher

    def push(self, client_id: str, data: bytes) -> bool:
        channel = self._channels.get(client_id)
        if channel is None:
            return False
        self._charge(len(data))
        return channel._push(data)

    # -- client side ---------------------------------------------------------------

    def connect(self, server_name: str, client_id: str) -> InProcChannel:
        if server_name not in self._servers:
            raise TransportError(f"no server named {server_name!r}")
        channel = InProcChannel(self, server_name, client_id)
        self._channels[client_id] = channel
        return channel

    # -- internals -------------------------------------------------------------------

    def deliver(self, server_name: str, client_id: str, data: bytes) -> bytes:
        # runs in the requesting client's thread: there is no server loop
        # in between, so the Dispatcher contract (thread-safe, never
        # raises) is what keeps concurrent in-process clients correct
        dispatcher = self._servers.get(server_name)
        if dispatcher is None:
            raise TransportError(f"no server named {server_name!r}")
        self._charge(len(data))
        reply = dispatcher.dispatch(client_id, data)
        if not isinstance(reply, (bytes, bytearray)):
            raise TransportError("dispatcher must return bytes")
        self._charge(len(reply))
        return bytes(reply)

    def _charge(self, nbytes: int) -> None:
        if self._network is not None and self._clock is not None:
            advance = getattr(self._clock, "advance", None)
            if advance is not None:
                advance(self._network.transfer_time(nbytes))

    def _drop_channel(self, client_id: str) -> None:
        self._channels.pop(client_id, None)
