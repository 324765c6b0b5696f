"""The thread-per-connection server core, kept as a baseline.

Before the event-loop core in :mod:`repro.transport.tcp`, the server ran
one *reader* thread per connection, handed each frame to the shared
dispatch pool, and funnelled replies through a per-connection *writer*
thread that coalesced queued replies into one ``sendmsg``.  Two OS
threads per connection price it out at a few thousand connections.

``benchmarks/bench_connscale.py`` measures the event-loop core against
this one (the >= 2x gate at 5k connections), the way
``benchmarks/legacy_dataplane.py`` serves ``bench_datasize``.  It speaks
the identical wire protocol: frame decoding, reply-cache dedup and
error answers are the core's own ``_handle_frame``, so the two cannot
drift, and the transport test suites run against both.
"""

from __future__ import annotations

import queue
import socket
import threading
from typing import Optional

from repro.errors import TransportError
from repro.transport.base import Dispatcher, ReplyCache
from repro.transport.tcp import (
    _LEN,
    _REPLY_HEADER,
    _SEQ,
    TCPServerTransport,
    _DispatchPool,
    _recv_frame,
    _sendmsg_all,
)

#: cap on reply frames coalesced into one sendmsg (keeps the iovec and
#: the latency of any single batch bounded; well under IOV_MAX)
_MAX_REPLY_BATCH = 32


class ThreadedTCPServerTransport:
    """Accepts connections and feeds requests to a :class:`Dispatcher`
    with a reader and a writer thread per connection.

    Same constructor surface and ``close()`` contract as
    :class:`~repro.transport.TCPServerTransport` (minus the gateway).
    """

    _init_frame_metrics = TCPServerTransport._init_frame_metrics
    _handle_frame = TCPServerTransport._handle_frame

    def __init__(self, dispatcher: Dispatcher, host: str = "127.0.0.1",
                 port: int = 0, reply_cache: Optional[ReplyCache] = None,
                 dispatch_workers: int = 8, max_inflight: int = 64):
        self._dispatcher = dispatcher
        self.reply_cache = reply_cache if reply_cache is not None else ReplyCache()
        self._max_inflight = max_inflight
        self._init_frame_metrics()
        self._pool = _DispatchPool(dispatch_workers)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        # deep backlog: a reconnect storm after a failover (or the
        # connection-scale bench) arrives faster than threads spawn
        self._listener.listen(512)
        self.host, self.port = self._listener.getsockname()
        self._running = True
        self._threads = []
        self._conn_lock = threading.Lock()
        self._conns = set()
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            with self._conn_lock:
                if not self._running:
                    try:
                        conn.close()
                    except OSError:
                        pass
                    return
                self._conns.add(conn)
                self._m_open.set(len(self._conns))
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            with self._conn_lock:
                self._threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # accepted sockets must carry SO_REUSEADDR themselves, or
            # their FIN_WAIT/TIME_WAIT remnants block a restarted
            # transport from rebinding the port while old clients are
            # still attached
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        except OSError:
            pass  # close() got here first; the read below fails and cleans up
        self._m_connections.inc()
        out_queue: "queue.Queue" = queue.Queue()
        writer = threading.Thread(
            target=self._write_loop, args=(conn, out_queue), daemon=True)
        writer.start()
        # bounds dispatches in flight for this connection: a client that
        # floods frames faster than the dispatcher drains them stalls in
        # the kernel send buffer instead of growing the queue unboundedly
        inflight = threading.BoundedSemaphore(self._max_inflight)
        try:
            while self._running:
                try:
                    frame = _recv_frame(conn)
                except TransportError:
                    return  # oversized frame: framing is lost, drop the link
                if frame is None:
                    return
                while not inflight.acquire(timeout=0.1):
                    if not self._running:
                        return
                self._pool.submit(
                    lambda f=frame: self._dispatch_to_queue(f, out_queue, inflight))
        except OSError:
            return
        finally:
            # replies still in flight when the reader exits are for a
            # client that is gone (or a transport shutting down): the
            # sentinel lets the writer drain what is already queued,
            # then closing the socket unblocks it if the peer stalled
            out_queue.put(None)
            writer.join(timeout=5.0)
            with self._conn_lock:
                self._conns.discard(conn)
                self._m_open.set(len(self._conns))
                # reap this connection's thread record as the connection
                # closes: a burst-then-idle workload must not pin the
                # peak thread-object list until the next accept
                try:
                    self._threads.remove(threading.current_thread())
                except ValueError:
                    pass  # already reaped by close()
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch_to_queue(self, frame: bytes, out_queue: "queue.Queue",
                           inflight: threading.BoundedSemaphore) -> None:
        """Pool task: dispatch one frame and queue its reply."""
        try:
            out_queue.put(self._handle_frame(frame))
        finally:
            inflight.release()

    def _write_loop(self, conn: socket.socket, out_queue: "queue.Queue") -> None:
        """Per-connection writer: drain replies, batching opportunistically.

        Blocks for the first reply, then drains whatever else queued up
        (bounded by ``_MAX_REPLY_BATCH``) into one gathered ``sendmsg``.
        The "flush window" is thus the duration of the previous send: a
        lone reply goes out immediately with no added latency, while a
        backlog amortizes syscalls and wakeups.  Exits on the ``None``
        sentinel (after flushing replies queued ahead of it) or on a
        dead socket.
        """
        while True:
            item = out_queue.get()
            if item is None:
                return
            batch = [item]
            finished = False
            while len(batch) < _MAX_REPLY_BATCH:
                try:
                    nxt = out_queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is None:
                    finished = True
                    break
                batch.append(nxt)
            buffers = []
            for nonce, seq, reply in batch:
                buffers.append(_LEN.pack(_REPLY_HEADER + len(reply)))
                buffers.append(_SEQ.pack(nonce))
                buffers.append(_SEQ.pack(seq))
                buffers.append(reply)
            try:
                _sendmsg_all(conn, buffers)
            except OSError:
                return
            if finished:
                return

    def close(self) -> None:
        self._running = False
        # shutdown() wakes the thread blocked in accept(); close() alone
        # leaves the in-flight syscall holding the listening socket open,
        # which keeps the port bound after this method returns
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._conn_lock:
            conns = list(self._conns)
            self._conns.clear()
            self._m_open.set(0)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=1.0)
        with self._conn_lock:
            threads, self._threads = self._threads, []
        for thread in threads:
            thread.join(timeout=1.0)
        self._pool.close()
