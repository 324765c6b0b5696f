"""Server core: connection churn at scale, the per-connection in-flight
bound, the frame limit, slow-reader isolation, and the HTTP/1.1 JSON
gateway.

The reconnect/dedup/fault matrix runs against this core through the
parametrized suites (``test_transport.py``, ``test_pipelining.py``,
``test_robustness.py``); this file covers what only the event-loop core
has — resource hygiene under churn, flow control on both directions of
a connection, and the gateway mounted on the same loop.
"""

import json
import os
import socket
import threading
import time
import urllib.request

import pytest

from repro import InterWeaveClient, InterWeaveServer
from repro.arch import X86_64
from repro.client import ClientOptions
from repro.errors import TransportError
from repro.transport import Dispatcher, TCPChannel, TCPServerTransport
from repro.transport.tcp import _LEN, _MAX_FRAME, request_frame_buffers
from repro.types import INT, ArrayDescriptor, StringDescriptor


class EchoServer(Dispatcher):
    def dispatch(self, client_id, data):
        return b"echo:" + data


def _fd_count():
    return len(os.listdir("/proc/self/fd"))


def _wait_until(predicate, timeout=10.0, message="condition never held"):
    deadline = time.time() + timeout
    while not predicate():
        assert time.time() < deadline, message
        time.sleep(0.02)


# ---------------------------------------------------------------------------
# connection churn at scale
# ---------------------------------------------------------------------------

class TestConnectionChurn:
    def test_2k_open_close_soak_returns_to_baseline(self):
        """2000 connections opened and closed must leave no fd, task, or
        connection-record residue — reap-on-close, not reap-on-accept."""
        transport = TCPServerTransport(EchoServer())
        try:
            # settle, then take baselines with the server idle
            probe = TCPChannel("127.0.0.1", transport.port, "probe")
            probe.request(b"warm")
            probe.close()
            _wait_until(lambda: transport.connection_count() == 0)
            fd_base = _fd_count()
            task_base = transport.task_count()

            for batch in range(20):  # 20 x 100 = 2000 connections
                socks = []
                for i in range(100):
                    sock = socket.create_connection(
                        ("127.0.0.1", transport.port), timeout=5.0)
                    socks.append(sock)
                # every other batch talks before closing, so the soak
                # covers both used and idle (accept-then-drop) churn
                if batch % 2 == 0:
                    for i, sock in enumerate(socks):
                        sock.sendall(b"".join(request_frame_buffers(
                            b"churn", 7, i + 1, b"ping")))
                    for sock in socks:
                        sock.recv(4)  # first reply bytes = server answered
                for sock in socks:
                    sock.close()

            _wait_until(lambda: transport.connection_count() == 0,
                        message="connection records leaked after churn")
            _wait_until(lambda: _fd_count() <= fd_base,
                        message=f"fds leaked: {_fd_count()} > {fd_base}")
            _wait_until(lambda: transport.task_count() <= task_base,
                        message=f"tasks leaked: {transport.task_count()} "
                                f"> {task_base}")
        finally:
            transport.close()


# ---------------------------------------------------------------------------
# receive path: in-flight bound, framing and the frame limit
# ---------------------------------------------------------------------------

def _recv_exact(sock, size):
    chunks = []
    while size:
        chunk = sock.recv(min(size, 1 << 20))
        assert chunk, "server closed mid-frame"
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _read_reply(sock):
    """Read one reply frame; return its (seq, message)."""
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    frame = _recv_exact(sock, length)
    return int.from_bytes(frame[8:16], "big"), frame[16:]


class TestInflightBound:
    def test_pipelined_frames_stop_at_max_inflight(self):
        """3 x max_inflight frames pipelined on one connection at a
        blocked dispatcher: exactly max_inflight dispatch at once, and
        every reply arrives once the dispatcher is released."""
        max_inflight = 4
        gate = threading.Event()
        lock = threading.Lock()
        state = {"running": 0, "peak": 0}

        class Blocking(Dispatcher):
            def dispatch(self, client_id, data):
                with lock:
                    state["running"] += 1
                    state["peak"] = max(state["peak"], state["running"])
                gate.wait(timeout=10.0)
                with lock:
                    state["running"] -= 1
                return b"ok:" + data

        transport = TCPServerTransport(
            Blocking(), max_inflight=max_inflight,
            dispatch_workers=3 * max_inflight)
        sock = socket.create_connection(("127.0.0.1", transport.port),
                                        timeout=10.0)
        try:
            count = 3 * max_inflight
            sock.sendall(b"".join(
                b"".join(request_frame_buffers(b"c", 5, seq, b"%d" % seq))
                for seq in range(1, count + 1)))
            _wait_until(lambda: state["running"] == max_inflight,
                        message="the in-flight window never filled")
            time.sleep(0.3)  # room for any frame past the cap to start
            assert state["peak"] == max_inflight
            gate.set()
            replies = dict(_read_reply(sock) for _ in range(count))
            assert replies == {seq: b"ok:%d" % seq
                               for seq in range(1, count + 1)}
            assert state["peak"] == max_inflight
        finally:
            gate.set()
            sock.close()
            transport.close()


class TestFraming:
    def test_frame_dribbled_byte_by_byte_is_reassembled(self):
        """Length word and body split across many reads still make one
        frame, and the next frame on the socket parses normally."""
        transport = TCPServerTransport(EchoServer())
        sock = socket.create_connection(("127.0.0.1", transport.port),
                                        timeout=5.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            frame = b"".join(request_frame_buffers(b"c", 4, 1, b"dribble"))
            for index in range(len(frame)):
                sock.sendall(frame[index:index + 1])
                time.sleep(0.002)
            sock.sendall(b"".join(request_frame_buffers(b"c", 4, 2, b"next")))
            # replies may overtake each other (concurrent dispatch)
            assert dict(_read_reply(sock) for _ in range(2)) == {
                1: b"echo:dribble", 2: b"echo:next"}
        finally:
            sock.close()
            transport.close()


class TestFrameLimit:
    def test_oversized_length_drops_only_that_connection(self):
        transport = TCPServerTransport(EchoServer())
        healthy = TCPChannel("127.0.0.1", transport.port, "healthy")
        bad = socket.create_connection(("127.0.0.1", transport.port),
                                       timeout=5.0)
        try:
            assert healthy.request(b"before") == b"echo:before"
            requests = transport._m_requests.value
            bad.sendall(_LEN.pack(_MAX_FRAME + 1) + b"x" * 64)
            try:
                assert bad.recv(1) == b""
            except ConnectionResetError:
                pass  # dropped with unread bytes queued: a reset, not a FIN
            assert transport._m_requests.value == requests
            _wait_until(lambda: transport.connection_count() == 1,
                        message="dropped connection record lingered")
            assert healthy.request(b"after") == b"echo:after"
        finally:
            bad.close()
            healthy.close()
            transport.close()

    def test_peer_closing_mid_frame_is_reaped(self):
        transport = TCPServerTransport(EchoServer())
        try:
            base = transport.connection_count()
            requests = transport._m_requests.value
            sock = socket.create_connection(("127.0.0.1", transport.port),
                                            timeout=5.0)
            _wait_until(lambda: transport.connection_count() == base + 1)
            sock.sendall(_LEN.pack(1000) + b"y" * 10)
            sock.close()
            _wait_until(lambda: transport.connection_count() == base,
                        message="half-received frame pinned its connection")
            assert transport._m_requests.value == requests
        finally:
            transport.close()


# ---------------------------------------------------------------------------
# reply-side flow control: large replies go out in slices
# ---------------------------------------------------------------------------

class TestSlicedReplies:
    def test_large_reply_to_a_slow_reader_buffers_about_one_slice(self):
        """While a peer is not reading, a 16 MiB reply waits in the
        connection's slice queue, not in the socket transport's buffer;
        it still arrives whole once the peer reads."""
        from repro.transport.tcp import _REPLY_SLICE

        reply = bytes(range(256)) * (64 * 1024)

        class Big(Dispatcher):
            def dispatch(self, client_id, data):
                return reply

        transport = TCPServerTransport(Big(), write_stall_timeout=30.0)
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        sock.settimeout(10.0)
        sock.connect(("127.0.0.1", transport.port))
        try:
            sock.sendall(b"".join(request_frame_buffers(b"c", 3, 1, b"go")))
            _wait_until(lambda: transport.connection_count() == 1)
            conn = next(iter(transport._conns))
            _wait_until(lambda: not conn._writable,
                        message="the transport never paused writing")
            time.sleep(0.2)
            assert conn.transport.get_write_buffer_size() <= 2 * _REPLY_SLICE
            assert _read_reply(sock) == (1, reply)
        finally:
            sock.close()
            transport.close()


# ---------------------------------------------------------------------------
# slow readers cannot block the loop
# ---------------------------------------------------------------------------

class TestSlowReader:
    def test_stalled_downstream_is_dropped_not_the_server(self):
        """A client that sends requests but never reads replies fills its
        socket and the transport's write buffer; the server must drop that
        one connection (write-stall timeout) while the loop keeps serving
        everyone else at full speed."""
        transport = TCPServerTransport(
            EchoServer(), max_inflight=16, write_stall_timeout=0.3)
        stalled = socket.create_connection(("127.0.0.1", transport.port),
                                           timeout=5.0)
        healthy = TCPChannel("127.0.0.1", transport.port, "healthy")
        try:
            # big replies fill the kernel socket buffers fast, then the
            # transport pauses writing and the stall timer fires
            payload = b"x" * (256 * 1024)
            seq = 0
            dropped = False
            deadline = time.time() + 15.0
            stalled.settimeout(0.5)
            while time.time() < deadline and not dropped:
                try:
                    for _ in range(8):
                        seq += 1
                        stalled.sendall(b"".join(request_frame_buffers(
                            b"stall", 9, seq, payload)))
                except (BrokenPipeError, ConnectionResetError,
                        socket.timeout, OSError):
                    dropped = True
            # ...and while the stalled link was being wedged, a healthy
            # client on the same loop stays responsive
            started = time.perf_counter()
            assert healthy.request(b"hi") == b"echo:hi"
            assert time.perf_counter() - started < 2.0
            assert dropped, "server never dropped the stalled connection"
            _wait_until(
                lambda: transport._m_slow_drops.value >= 1,
                message="slow-reader drop was not counted")
            _wait_until(lambda: transport.connection_count() == 1,
                        message="dropped connection record lingered")
            assert healthy.request(b"still") == b"echo:still"
        finally:
            stalled.close()
            healthy.close()
            transport.close()


# ---------------------------------------------------------------------------
# the HTTP/1.1 JSON gateway
# ---------------------------------------------------------------------------

def _http_get(port, path, timeout=5.0):
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class TestGateway:
    @pytest.fixture
    def server(self):
        dispatcher = InterWeaveServer("s")
        transport = TCPServerTransport(dispatcher, gateway_port=0)
        yield transport, dispatcher
        transport.close()

    def _publish(self, transport):
        client = InterWeaveClient(
            "pub", X86_64,
            lambda name, client_id: TCPChannel("127.0.0.1", transport.port,
                                               client_id),
            options=ClientOptions(enable_notifications=False))
        try:
            seg = client.open_segment("s/gw")
            client.wl_acquire(seg)
            values = client.malloc(seg, ArrayDescriptor(INT, 3), name="ints")
            for i in range(3):
                values.element_accessor(i).set(10 * (i + 1))
            client.malloc(seg, StringDescriptor(32), name="label").set("hi")
            client.wl_release(seg)
        finally:
            client.close()

    def test_get_segment_returns_decoded_contents_and_version(self, server):
        transport, _dispatcher = server
        self._publish(transport)
        status, body = _http_get(transport.gateway_port, "/segments/s/gw")
        assert status == 200
        doc = json.loads(body)
        assert doc["segment"] == "s/gw"
        assert doc["version"] == 1
        blocks = {block["name"]: block for block in doc["blocks"]}
        assert blocks["ints"]["values"] == [10, 20, 30]
        assert blocks["label"]["values"] == ["hi"]

    def test_get_unknown_segment_is_404(self, server):
        transport, _dispatcher = server
        status, body = _http_get(transport.gateway_port, "/segments/s/nope")
        assert status == 404
        assert "error" in json.loads(body)

    def test_get_stats_mirrors_getstats(self, server):
        transport, dispatcher = server
        self._publish(transport)
        status, body = _http_get(transport.gateway_port, "/stats")
        assert status == 200
        doc = json.loads(body)
        assert doc["server"]["name"] == "s"
        assert (dispatcher.stats_snapshot()["server"]["segments"]
                == doc["server"]["segments"])

    def test_unknown_path_is_404_and_post_is_405(self, server):
        transport, _dispatcher = server
        assert _http_get(transport.gateway_port, "/nope")[0] == 404
        request = urllib.request.Request(
            f"http://127.0.0.1:{transport.gateway_port}/stats",
            data=b"{}", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5.0)
        assert excinfo.value.code == 405

    def test_segments_route_is_501_without_segment_access(self):
        """Relays and directories answer /stats but have no segment
        table; the gateway says so instead of crashing."""
        transport = TCPServerTransport(EchoServer(), gateway_port=0)
        try:
            status, body = _http_get(transport.gateway_port, "/segments/x")
            assert status == 501
        finally:
            transport.close()

    def test_keep_alive_serves_sequential_requests_on_one_socket(self, server):
        transport, _dispatcher = server
        sock = socket.create_connection(
            ("127.0.0.1", transport.gateway_port), timeout=5.0)
        try:
            for _ in range(3):
                sock.sendall(b"GET /stats HTTP/1.1\r\n"
                             b"Host: x\r\n\r\n")
                head = b""
                while b"\r\n\r\n" not in head:
                    head += sock.recv(1)
                headers = head.decode("latin-1").lower()
                assert " 200 " in headers.splitlines()[0]
                length = int(headers.split("content-length:")[1]
                             .split("\r\n")[0])
                body = b""
                while len(body) < length:
                    body += sock.recv(length - len(body))
                json.loads(body)
        finally:
            sock.close()


class TestCloseContract:
    def test_close_drains_inflight_dispatches(self):
        """close() must not return while dispatcher threads are still
        running request handlers (the drain half of the contract)."""
        release = threading.Event()
        inside = threading.Event()

        class Stalling(Dispatcher):
            def dispatch(self, client_id, data):
                inside.set()
                release.wait(timeout=5.0)
                return data

        transport = TCPServerTransport(Stalling())
        channel = TCPChannel("127.0.0.1", transport.port, "c", timeout=0.3)
        try:
            with pytest.raises(TransportError):
                channel.request(b"wedge")  # times out; dispatch keeps going
            inside.wait(timeout=5.0)
            closer = threading.Thread(target=transport.close)
            closer.start()
            time.sleep(0.2)
            assert closer.is_alive(), "close() returned mid-dispatch"
            release.set()
            closer.join(timeout=10.0)
            assert not closer.is_alive()
        finally:
            release.set()
            channel.close()
            transport.close()
