"""TCP transport: length-prefixed frames over real sockets.

The wire protocol is trivially framed: every message (request or reply)
is a 4-byte big-endian length followed by that many payload bytes.  A
request frame carries a header — client id, a random per-channel session
nonce, and a per-channel sequence number — ahead of the message payload
(so the server can attribute lock state and deduplicate retries without
confusing two channels that reuse a client id).  A reply frame echoes
the request's nonce and sequence number in a 16-byte header ahead of the
message, so replies can be matched to requests by sequence number rather
than by arrival order: many requests may be in flight on one socket and
replies may return out of order (see ``MultiplexingChannel`` in
``repro.transport.mux``).  The reserved pair ``(0, 0)`` marks a reply to
a frame whose header could not be parsed and is therefore unattributable.

The server runs every connection on one asyncio event loop through
``asyncio.BufferedProtocol`` callbacks, hands each decoded frame to a
shared dispatch pool, and writes each reply from a loop callback as soon
as its dispatch finishes, so a slow dispatch never blocks faster replies
on the same socket.  Large replies go out in slices under the transport's flow
control, and a peer that stops reading is dropped after a stall timeout.
Push notifications are not supported over this transport
(``can_push = False``); clients fall back to polling, exactly the
degraded mode the paper's adaptive protocol anticipates.

Fault tolerance (see ``docs/ROBUSTNESS.md``):

- a :class:`TCPChannel` given a :class:`~repro.transport.RetryPolicy`
  reconnects and re-sends after timeouts and disconnections, reusing the
  request's sequence number;
- the server answers malformed frames and dispatcher failures with an
  encoded ``ErrorReply`` and keeps the connection alive;
- a :class:`~repro.transport.ReplyCache` makes re-sent requests
  idempotent: a sequence number the server already processed is answered
  from the cache without re-dispatching, and a duplicate racing its
  original dispatch waits and shares the reply.
"""

from __future__ import annotations

import asyncio
import logging
import os
import queue
import socket
import struct
import threading
import time
from collections import deque
from typing import Iterable, List, Optional, Tuple

from repro.errors import (
    RetryExhausted,
    TransportDisconnected,
    TransportError,
    TransportTimeout,
)
from repro.obs.metrics import get_registry
from repro.transport.base import Channel, Dispatcher, ReplyCache, request_payload
from repro.transport.gateway import JSONGateway
from repro.transport.retry import RetryPolicy
from repro.wire.messages import ErrorReply, encode_message

_log = logging.getLogger("repro.transport.tcp")

_LEN = struct.Struct(">I")
_SEQ = struct.Struct(">Q")
_MAX_FRAME = 1 << 30
#: a reply payload leads with the echoed (nonce, seq) pair
_REPLY_HEADER = 2 * _SEQ.size
#: length word plus echoed (nonce, seq): everything ahead of a reply
_REPLY_PREFIX = struct.Struct(">IQQ")
#: replies up to this size leave in one write; larger ones in slices of
#: it, so the socket transport never buffers more than about one slice
_REPLY_SLICE = 256 * 1024
#: size of the receive buffer the server's connections share
_RECV_SIZE = 256 * 1024
#: how often the loop-lag probe samples its own scheduling delay
_LAG_INTERVAL = 0.1

_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")


def _sendmsg_all(sock: socket.socket, buffers: Iterable[bytes]) -> None:
    """Send every buffer completely, without concatenating them first.

    ``sendmsg`` gathers the buffers into one syscall (and usually one
    TCP segment for small frames); a partial send resumes from the
    offset reached.  Falls back to per-buffer ``sendall`` where
    ``sendmsg`` is unavailable.
    """
    if not _HAS_SENDMSG:
        for buf in buffers:
            sock.sendall(buf)
        return
    views: List[memoryview] = [memoryview(b) for b in buffers if len(b)]
    while views:
        sent = sock.sendmsg(views)
        while views and sent >= len(views[0]):
            sent -= len(views[0])
            views.pop(0)
        if sent:
            views[0] = views[0][sent:]


def _recv_exact(sock: socket.socket, size: int) -> Optional[bytes]:
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> Optional[bytes]:
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > _MAX_FRAME:
        raise TransportError(f"frame of {length} bytes exceeds limit")
    return _recv_exact(sock, length)


def split_reply_frame(frame: bytes) -> Tuple[int, int, bytes]:
    """Split a reply frame into ``(nonce, seq, message)``.

    Raises :class:`TransportError` if the frame is too short to carry
    the 16-byte reply header.
    """
    if len(frame) < _REPLY_HEADER:
        raise TransportError(
            f"reply frame of {len(frame)} bytes is shorter than its "
            f"{_REPLY_HEADER}-byte header")
    (nonce,) = _SEQ.unpack_from(frame, 0)
    (seq,) = _SEQ.unpack_from(frame, _SEQ.size)
    return nonce, seq, frame[_REPLY_HEADER:]


def request_frame_buffers(client_id: bytes, nonce: int, seq: int,
                          data: bytes) -> Tuple[bytes, bytes, bytes]:
    """Build the three wire buffers of a request frame.

    Returned as separate buffers (length prefix, header, payload) so the
    payload — often a large diff — is never copied into a joined frame;
    send with :func:`_sendmsg_all`.
    """
    header = (_LEN.pack(len(client_id)) + client_id
              + _SEQ.pack(nonce) + _SEQ.pack(seq))
    return _LEN.pack(len(header) + len(data)), header, data


class TCPChannel(Channel):
    """A client connection to a TCP server, one request at a time.

    With a :class:`RetryPolicy`, transient faults (timeouts, resets, a
    restarting server) trigger reconnection and an idempotent re-send;
    without one, they surface as typed transport errors and the broken
    connection is re-established lazily on the next request (never
    reused, since a timed-out exchange may leave a stale reply in
    flight).  For pipelined requests over one socket, see
    :class:`repro.transport.MultiplexingChannel`.
    """

    can_push = False

    def __init__(self, host: str, port: int, client_id: str, timeout: float = 10.0,
                 retry: Optional[RetryPolicy] = None):
        super().__init__()
        self._host = host
        self._port = port
        self._client_id = client_id.encode("utf-8")
        self._timeout = timeout
        self._retry = retry
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._ever_connected = False
        self._closed = False
        self._close_event = threading.Event()
        # random session nonce: keys the server's reply-cache session, so
        # a fresh channel reusing a client id never collides with the
        # previous channel's sequence space
        self._nonce = int.from_bytes(os.urandom(8), "big")
        self._next_seq = 0
        self.reconnects = 0
        self.retries = 0
        self.last_error: Optional[str] = None
        metrics = get_registry()
        self._m_retries = metrics.counter(
            "transport.retries", "requests retried after a transient fault")
        self._m_reconnects = metrics.counter(
            "transport.reconnects", "channel connections re-established")
        self._m_reconnect_seconds = metrics.histogram(
            "transport.reconnect_seconds",
            help="time spent re-establishing lost connections")
        self._connect()

    # -- connection management ------------------------------------------------

    def _connect(self) -> socket.socket:
        """(Re)establish the socket; raises typed, retryable errors."""
        started = time.perf_counter()
        try:
            sock = socket.create_connection((self._host, self._port),
                                            timeout=self._timeout)
        except socket.timeout as exc:
            raise TransportTimeout(
                f"connect to {self._host}:{self._port} timed out after "
                f"{self._timeout:g}s") from exc
        except OSError as exc:
            raise TransportDisconnected(
                f"connect to {self._host}:{self._port} failed: {exc}") from exc
        sock.settimeout(self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        if self._ever_connected:
            self.reconnects += 1
            self._m_reconnects.inc()
            self._m_reconnect_seconds.observe(time.perf_counter() - started)
            if self.reconnect_listener is not None:
                self.reconnect_listener()
        self._ever_connected = True
        return sock

    def _break(self) -> None:
        """Abandon the connection: a failed exchange may have left an
        unread reply in flight, so the socket must never be reused.

        Deliberately lock-free (``request()`` holds ``self._lock`` for
        its whole retry loop): closing the socket out from under a
        blocked send/recv makes it fail with ``OSError``, which the
        retry loop turns into a typed error.
        """
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def break_connection(self) -> None:
        """Drop the connection (fault-injection hook); the channel
        reconnects on its next request.  Can sever an in-flight
        request from another thread."""
        self._break()

    # -- requests -------------------------------------------------------------

    def _match_reply(self, frame: bytes, seq: int) -> bytes:
        """Validate a reply frame's echoed (nonce, seq) header.

        With one request outstanding, the reply must carry this exact
        exchange's identity — or ``(0, 0)``, the server's marker for an
        answer to an unparseable frame.  Anything else means the stream
        is desynchronized (a stale reply from a previous exchange leaked
        through), which is unrecoverable on this socket.
        """
        nonce, r_seq, message = split_reply_frame(frame)
        if (nonce, r_seq) != (self._nonce, seq) and (nonce, r_seq) != (0, 0):
            raise TransportError(
                f"reply for (nonce={nonce:#x}, seq={r_seq}) arrived while "
                f"waiting for seq {seq}: reply stream desynchronized")
        return message

    def request(self, data: bytes) -> bytes:
        data = request_payload(data)
        with self._lock:
            if self._closed:
                raise TransportError("channel is closed")
            self._next_seq += 1
            seq = self._next_seq
            buffers = request_frame_buffers(
                self._client_id, self._nonce, seq, data)
            sent_bytes = sum(len(b) for b in buffers) - _LEN.size
            failures = 0
            while True:
                if self._closed:
                    raise TransportError("channel is closed")
                started = time.perf_counter()
                try:
                    sock = self._sock
                    if sock is None:
                        sock = self._connect()
                    _sendmsg_all(sock, buffers)
                    reply_frame = _recv_frame(sock)
                    if reply_frame is None:
                        raise TransportDisconnected("server closed the connection")
                    reply = self._match_reply(reply_frame, seq)
                except socket.timeout as exc:
                    error = TransportTimeout(
                        f"TCP request timed out after {self._timeout:g}s")
                    error.__cause__ = exc
                except (TransportTimeout, TransportDisconnected) as exc:
                    error = exc
                except OSError as exc:
                    error = TransportDisconnected(f"TCP request failed: {exc}")
                    error.__cause__ = exc
                except TransportError:
                    # protocol corruption (oversized frame, desynchronized
                    # reply stream): the stream is unrecoverable and a
                    # retry would re-read the same bytes
                    self._break()
                    raise
                else:
                    self._record_request(sent_bytes, len(reply_frame),
                                         time.perf_counter() - started)
                    return reply
                self._break()
                self.last_error = str(error)
                if self._closed:
                    raise TransportError("channel is closed") from error
                delay = self._retry.delay_for(failures) if self._retry else None
                if delay is None:
                    if self._retry is not None and failures:
                        raise RetryExhausted(
                            f"request to {self._host}:{self._port} failed after "
                            f"{failures + 1} attempts: {error}") from error
                    raise error
                failures += 1
                self.retries += 1
                self._m_retries.inc()
                # waiting on the close event (not time.sleep) lets a
                # concurrent close() abort the backoff immediately
                if delay > 0 and self._close_event.wait(delay):
                    raise TransportError("channel is closed") from error

    def health(self) -> dict:
        state = super().health()
        state.update({
            "endpoint": f"{self._host}:{self._port}",
            "connected": self._sock is not None,
            "reconnects": self.reconnects,
            "retries": self.retries,
            "last_error": self.last_error,
            "session_nonce": self._nonce,
            "next_seq": self._next_seq,
        })
        return state

    def close(self) -> None:
        # lock-free on purpose: request() holds self._lock across its
        # whole retry loop (backoff sleeps included), so close() must
        # interrupt from outside — the event aborts a pending backoff
        # and breaking the socket fails a blocked send/recv
        self._closed = True
        self._close_event.set()
        self._break()


def _bind(host: str, port: int) -> socket.socket:
    """A listening socket with a deep backlog (a reconnect storm after a
    failover arrives faster than the loop accepts)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        sock.bind((host, port))
        sock.listen(512)
    except OSError:
        sock.close()
        raise
    return sock


class _DispatchPool:
    """A fixed pool of daemon worker threads with FIFO start order.

    FIFO matters for correctness, not just fairness: the reply cache's
    duplicate-coalescing waits on the original dispatch, and its
    no-deadlock argument requires that a duplicate never *starts* before
    its original has (see ``ReplyCache.execute``).  A plain FIFO queue
    drained by identical workers guarantees exactly that.

    Workers are daemon threads and ``close()`` does not join them: a
    dispatch wedged in a hung handler must not block server shutdown or
    interpreter exit.
    """

    def __init__(self, workers: int):
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._threads = []
        for index in range(workers):
            thread = threading.Thread(
                target=self._worker, name=f"repro-dispatch-{index}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def submit(self, task) -> None:
        self._queue.put(task)

    def _worker(self) -> None:
        while True:
            task = self._queue.get()
            if task is None:
                return
            try:
                task()
            except Exception:  # noqa: BLE001 — a task bug must not kill the worker
                _log.exception("dispatch task failed")

    def close(self) -> None:
        for _ in self._threads:
            self._queue.put(None)


class _Connection(asyncio.BufferedProtocol):
    """One client connection, driven by event-loop callbacks.

    Receive: the loop reads into the server's shared receive buffer and
    ``buffer_updated`` copies each complete frame out of it as immutable
    ``bytes``, so decoders may keep views into a frame.  A frame split
    across reads is received straight into buffers of its own, allocated
    as its bytes arrive (never from the length word alone), and joined
    into ``bytes`` once, when it is complete.  Each frame goes to the
    dispatch pool; at ``max_inflight`` frames without a written reply,
    parsing stops and reading pauses until a reply goes out.

    Reply: a reply of up to :data:`_REPLY_SLICE` bytes leaves in one
    ``write`` together with its header.  A larger one is written in
    slices of that size, the next slice only while the socket transport
    accepts more (``pause_writing``/``resume_writing``), so at most one
    slice is ever copied into the transport's buffer.  A peer that keeps
    writing paused for ``write_stall_timeout`` is dropped.
    """

    def __init__(self, server: "TCPServerTransport"):
        self._server = server
        self.transport: Optional[asyncio.Transport] = None
        #: the start of a length word split across reads
        self._head = b""
        #: the pieces of a frame split across reads (the last one is being
        #: filled: ``_have`` bytes so far), and the frame bytes still due
        self._parts: List[bytearray] = []
        self._have = 0
        self._left = 0
        #: received bytes left unparsed while at the in-flight cap
        self._backlog: Optional[bytes] = None
        #: frames dispatched whose reply has not been written yet
        self._inflight = 0
        self._reading = True
        self._writable = True
        #: reply buffers waiting for the transport; ``None`` ends a frame
        self._pending: "deque" = deque()
        self._stall: Optional[asyncio.TimerHandle] = None
        self.closed = False

    # -- asyncio.Protocol callbacks -----------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                # accepted sockets must carry SO_REUSEADDR themselves, or
                # their TIME_WAIT remnants block a restarted transport
                # from rebinding the port while old clients are attached
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            except OSError:
                pass
        self._server._attach(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.closed = True
        if self._stall is not None:
            self._stall.cancel()
            self._stall = None
        self._pending.clear()
        self._parts = []
        self._backlog = None
        self._server._detach(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._parts:
            return memoryview(self._parts[-1])[self._have:]
        return self._server._recv_buf

    def buffer_updated(self, nbytes: int) -> None:
        if not self._parts:
            self._feed(self._server._recv_buf[:nbytes])
            return
        self._have += nbytes
        self._left -= nbytes
        if not self._left:
            frame = b"".join(self._parts)
            self._parts = []
            self._dispatch(frame)
        elif self._have == len(self._parts[-1]):
            self._parts.append(bytearray(min(self._left, _RECV_SIZE)))
            self._have = 0

    def pause_writing(self) -> None:
        self._writable = False
        self._stall = self._server._loop.call_later(
            self._server._write_stall_timeout, self._drop_slow)

    def resume_writing(self) -> None:
        self._writable = True
        if self._stall is not None:
            self._stall.cancel()
            self._stall = None
        self._flush()

    # -- receive path -------------------------------------------------------

    def _feed(self, data: memoryview) -> None:
        """Dispatch the complete frames in ``data``; keep a split tail."""
        offset, end = 0, len(data)
        while offset < end and not self.closed:
            if self._inflight >= self._server._max_inflight:
                self._backlog = data[offset:].tobytes()
                if self._reading:
                    self._reading = False
                    self.transport.pause_reading()
                return
            if self._head or end - offset < _LEN.size:
                taken = data[offset:offset + _LEN.size - len(self._head)]
                self._head += taken.tobytes()
                offset += len(taken)
                if len(self._head) < _LEN.size:
                    return
                (length,) = _LEN.unpack(self._head)
                self._head = b""
            else:
                (length,) = _LEN.unpack_from(data, offset)
                offset += _LEN.size
            if length > _MAX_FRAME:
                self.abort()  # framing is lost: drop the link
                return
            if end - offset >= length:
                self._dispatch(data[offset:offset + length].tobytes())
                offset += length
            else:
                self._left = length - (end - offset)
                self._parts = [bytearray(data[offset:]),
                               bytearray(min(self._left, _RECV_SIZE))]
                self._have = 0
                return

    def _dispatch(self, frame: bytes) -> None:
        self._inflight += 1
        self._server._submit(self, frame)

    def _release_slot(self) -> None:
        """A reply went out: parse what waited on the cap, resume reading."""
        self._inflight -= 1
        if self._backlog is not None:
            backlog, self._backlog = self._backlog, None
            self._feed(memoryview(backlog))
        if self._backlog is None and not self._reading and not self.closed:
            self._reading = True
            self.transport.resume_reading()

    # -- reply path ---------------------------------------------------------

    def send_reply(self, nonce: int, seq: int, reply: bytes) -> None:
        """Loop callback: frame one reply and hand it to the transport."""
        if self.closed:
            return  # the client is gone; the reply stays in the cache
        head = _REPLY_PREFIX.pack(_REPLY_HEADER + len(reply), nonce, seq)
        if self._writable and not self._pending and len(reply) <= _REPLY_SLICE:
            self.transport.write(head + reply)
            self._release_slot()
            return
        self._pending.extend((head, memoryview(reply), None))
        self._flush()

    def _flush(self) -> None:
        pending = self._pending
        while pending and self._writable and not self.closed:
            buf = pending.popleft()
            if buf is None:
                self._release_slot()
            elif len(buf) > _REPLY_SLICE:
                pending.appendleft(buf[_REPLY_SLICE:])
                self.transport.write(buf[:_REPLY_SLICE])
            else:
                self.transport.write(buf)

    def _drop_slow(self) -> None:
        self._stall = None
        if not self.closed:
            self._server._m_slow_drops.inc()
            self.abort()

    def abort(self) -> None:
        """Drop the connection now, discarding unsent replies; replies
        that finish later are not written."""
        self.closed = True
        self.transport.abort()


class TCPServerTransport:
    """Accepts connections and feeds requests to a :class:`Dispatcher`.

    One asyncio event loop, in a daemon thread, serves every connection
    through :class:`_Connection` callbacks; dispatches run on a shared
    FIFO pool of worker threads (the Dispatcher contract permits
    concurrent dispatch), and each reply is marshalled back onto the
    loop with ``call_soon_threadsafe``.  Retried sequence numbers stay
    idempotent through the :class:`ReplyCache`, which also makes a
    duplicate racing its original dispatch wait and share the reply.

    The constructor binds the listening socket synchronously, so
    ``host``/``port`` are known at once (``port=0`` picks a free one).
    ``close()`` releases the port before it returns and waits a bounded
    time for in-flight dispatches to finish.  ``gateway_port`` (``None``
    = disabled, ``0`` = ephemeral) also mounts the HTTP/1.1 JSON gateway
    (:mod:`repro.transport.gateway`) on the same loop.

    A shared :class:`ReplyCache` may be passed in so a restarted
    transport keeps deduplicating retries that straddle the restart;
    by default each transport owns a fresh cache.
    """

    def __init__(self, dispatcher: Dispatcher, host: str = "127.0.0.1",
                 port: int = 0, reply_cache: Optional[ReplyCache] = None,
                 dispatch_workers: int = 8, max_inflight: int = 64,
                 write_stall_timeout: float = 5.0,
                 gateway_port: Optional[int] = None):
        self._dispatcher = dispatcher
        self.reply_cache = reply_cache if reply_cache is not None else ReplyCache()
        self._max_inflight = max_inflight
        self._write_stall_timeout = write_stall_timeout
        self._init_frame_metrics()
        metrics = get_registry()
        self._m_conn_gauge = metrics.gauge(
            "server.connections",
            "connections currently attached to the server's event loop")
        self._m_loop_lag = metrics.histogram(
            "server.loop_lag_seconds",
            help="event-loop scheduling delay sampled by a periodic probe")
        self._m_slow_drops = metrics.counter(
            "transport.server.slow_reader_drops",
            "connections dropped because the peer stopped reading replies")
        self._pool = _DispatchPool(dispatch_workers)
        #: every connection reads into this one buffer: the loop thread
        #: copies each frame out before it reads the next socket
        self._recv_buf = memoryview(bytearray(_RECV_SIZE))
        #: dispatches submitted and not yet finished; close() waits on it
        self._dispatching = 0
        self._dispatch_done = threading.Condition()
        self._listen_sock = _bind(host, port)
        self.host, self.port = self._listen_sock.getsockname()
        self.gateway_host: Optional[str] = None
        self.gateway_port: Optional[int] = None
        self._gw_sock: Optional[socket.socket] = None
        self._gateway: Optional[JSONGateway] = None
        if gateway_port is not None:
            self._gw_sock = _bind(host, gateway_port)
            self.gateway_host, self.gateway_port = self._gw_sock.getsockname()
            self._gateway = JSONGateway(dispatcher, self._run_on_pool,
                                        write_stall_timeout)
        self._running = True
        self._conns: "set[_Connection]" = set()
        self._servers: List[asyncio.AbstractServer] = []
        self._lag_task: Optional[asyncio.Task] = None
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-server-loop", daemon=True)
        self._thread.start()
        try:
            asyncio.run_coroutine_threadsafe(
                self._start(), self._loop).result(timeout=10.0)
        except Exception:
            self.close()
            raise

    def _init_frame_metrics(self) -> None:
        metrics = get_registry()
        self._m_connections = metrics.counter(
            "transport.server.connections", "TCP connections accepted")
        self._m_open = metrics.gauge(
            "transport.server.open_connections", "TCP connections currently open")
        self._m_requests = metrics.counter(
            "transport.server.requests", "frames dispatched by the TCP server")
        self._m_bytes_received = metrics.counter(
            "transport.server.bytes_received", "request frame bytes received")
        self._m_bytes_sent = metrics.counter(
            "transport.server.bytes_sent", "reply frame bytes sent")
        self._m_frame_errors = metrics.counter(
            "transport.server.frame_errors",
            "malformed frames answered with ErrorReply")
        self._m_dispatch_errors = metrics.counter(
            "transport.server.dispatch_errors",
            "dispatcher exceptions answered with ErrorReply")

    # -- event loop lifecycle -------------------------------------------------

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            try:
                tasks = asyncio.all_tasks(self._loop)
                for task in tasks:
                    task.cancel()
                if tasks:
                    self._loop.run_until_complete(
                        asyncio.gather(*tasks, return_exceptions=True))
                self._loop.run_until_complete(self._loop.shutdown_asyncgens())
            finally:
                self._loop.close()

    async def _start(self) -> None:
        self._servers.append(await self._loop.create_server(
            lambda: _Connection(self), sock=self._listen_sock))
        if self._gateway is not None:
            self._servers.append(await asyncio.start_server(
                self._gateway.serve, sock=self._gw_sock))
        self._lag_task = self._loop.create_task(self._lag_monitor())

    async def _lag_monitor(self) -> None:
        """Sample how late the loop wakes from a fixed-interval sleep.

        The delay beyond the requested interval is exactly the time the
        loop spent unable to schedule new work — the single number that
        tells an operator the loop (not the dispatch pool) is the
        bottleneck.
        """
        while self._running:
            target = self._loop.time() + _LAG_INTERVAL
            await asyncio.sleep(_LAG_INTERVAL)
            self._m_loop_lag.observe(max(0.0, self._loop.time() - target))

    # -- connections and dispatch (loop thread unless noted) ------------------

    def _attach(self, conn: _Connection) -> None:
        if not self._running:
            conn.abort()
            return
        self._conns.add(conn)
        self._m_connections.inc()
        self._count_connections()

    def _detach(self, conn: _Connection) -> None:
        self._conns.discard(conn)
        self._count_connections()

    def _count_connections(self) -> None:
        self._m_open.set(len(self._conns))
        self._m_conn_gauge.set(len(self._conns))

    def _submit(self, conn: _Connection, frame: bytes) -> None:
        with self._dispatch_done:
            self._dispatching += 1
        self._pool.submit(lambda: self._dispatch(conn, frame))

    def _dispatch(self, conn: _Connection, frame: bytes) -> None:
        """Pool task (dispatch thread): handle one frame, marshal the
        reply back onto the event loop."""
        try:
            nonce, seq, reply = self._handle_frame(frame)
            try:
                self._loop.call_soon_threadsafe(conn.send_reply, nonce, seq, reply)
            except RuntimeError:
                pass  # loop already closed; the reply is in the cache
        finally:
            with self._dispatch_done:
                self._dispatching -= 1
                if not self._dispatching:
                    self._dispatch_done.notify_all()

    def _handle_frame(self, frame: bytes) -> Tuple[int, int, bytes]:
        """Decode one request frame, dispatch it, return (nonce, seq, reply).

        The dispatcher gets the request body as a read-only
        ``memoryview`` over the frame, not a copy.  A malformed header
        (short client-id prefix, bad UTF-8, missing nonce or sequence
        number) or a dispatcher exception must not kill the connection:
        both are answered with an encoded ErrorReply so the client sees a
        typed failure and the connection survives.  A reply to an
        unparseable header carries the reserved ``(0, 0)`` identity,
        since the request's own could not be read.
        """
        try:
            (id_length,) = _LEN.unpack_from(frame, 0)
            header_end = _LEN.size + id_length + 2 * _SEQ.size
            if header_end > len(frame):
                raise TransportError(
                    f"request header claims {id_length} id bytes but the "
                    f"frame holds {len(frame)}")
            client_id = frame[_LEN.size:_LEN.size + id_length].decode("utf-8")
            (nonce,) = _SEQ.unpack_from(frame, _LEN.size + id_length)
            (seq,) = _SEQ.unpack_from(frame, _LEN.size + id_length + _SEQ.size)
            payload = memoryview(frame)[header_end:]
        except (struct.error, UnicodeDecodeError, TransportError) as exc:
            self._m_frame_errors.inc()
            return 0, 0, encode_message(ErrorReply(f"malformed request frame: {exc}"))
        self._m_requests.inc()
        self._m_bytes_received.inc(len(frame))
        try:
            reply = self.reply_cache.execute(
                client_id, seq,
                lambda: self._dispatcher.dispatch(client_id, payload),
                nonce=nonce)
        except Exception as exc:  # noqa: BLE001 — any dispatcher bug
            self._m_dispatch_errors.inc()
            reply = encode_message(ErrorReply(f"request failed: {exc}"))
        self._m_bytes_sent.inc(len(reply))
        return nonce, seq, reply

    async def _run_on_pool(self, func):
        """Run blocking work on the dispatch pool, await the result.

        The pool's daemon FIFO workers are reused instead of a
        ``ThreadPoolExecutor`` so a wedged handler can never block
        interpreter exit (executor threads are joined at shutdown)."""
        future = self._loop.create_future()

        def resolve(result, error) -> None:
            if future.done():
                return
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)

        def task():
            try:
                result = func()
            except BaseException as exc:  # noqa: BLE001 — marshal, don't lose
                self._loop.call_soon_threadsafe(resolve, None, exc)
            else:
                self._loop.call_soon_threadsafe(resolve, result, None)

        self._pool.submit(task)
        return await future

    # -- introspection (tests, stats) -----------------------------------------

    def connection_count(self) -> int:
        """Connections currently attached (binary protocol only)."""
        return len(self._conns)

    def task_count(self) -> int:
        """Tasks alive on the loop (lag probe, gateway connections)."""
        if not self._loop.is_running():
            return 0
        future = asyncio.run_coroutine_threadsafe(self._count_tasks(), self._loop)
        return future.result(timeout=5.0)

    async def _count_tasks(self) -> int:
        return len(asyncio.all_tasks(self._loop))

    # -- shutdown -------------------------------------------------------------

    async def _shutdown(self) -> None:
        for server in self._servers:
            server.close()
        if self._lag_task is not None:
            self._lag_task.cancel()
        # force connections closed rather than waiting for replies to
        # clients that will never be answered
        for conn in list(self._conns):
            conn.abort()
        if self._gateway is not None:
            self._gateway.abort_all()
        await asyncio.sleep(0)  # let the aborted transports close their sockets
        for server in self._servers:
            try:
                await asyncio.wait_for(server.wait_closed(), timeout=1.0)
            except asyncio.TimeoutError:
                pass

    def close(self) -> None:
        self._running = False
        if self._loop.is_running():
            try:
                asyncio.run_coroutine_threadsafe(
                    self._shutdown(), self._loop).result(timeout=10.0)
            except Exception:
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
        # drain in-flight dispatches, bounded: a handler wedged past the
        # timeout must not block shutdown or interpreter exit
        with self._dispatch_done:
            self._dispatch_done.wait_for(lambda: not self._dispatching,
                                         timeout=1.0)
        self._thread.join(timeout=5.0)
        # if the loop wedged before closing its servers, closing the raw
        # sockets here still releases the ports synchronously
        # (socket.close() is idempotent)
        for sock in (self._listen_sock, self._gw_sock):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._conns.clear()
        self._count_connections()
        self._pool.close()
