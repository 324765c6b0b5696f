"""Tests for transports: in-process hub and real TCP sockets."""

import socket
import struct
import threading
import time

import pytest

from tests._support import SERVER_BACKENDS, make_server_transport

from repro.errors import TransportError, TransportTimeout
from repro.transport import (
    Dispatcher,
    InProcHub,
    NetworkModel,
    TCPChannel,
)
from repro.util.clock import VirtualClock
from repro.wire.messages import ErrorReply, decode_message


class EchoServer(Dispatcher):
    def __init__(self):
        self.seen = []

    def dispatch(self, client_id, data):
        self.seen.append((client_id, bytes(data)))
        return b"echo:" + data


class TestInProc:
    def test_request_reply(self):
        hub = InProcHub()
        server = EchoServer()
        hub.register_server("s", server)
        channel = hub.connect("s", "c1")
        assert channel.request(b"hello") == b"echo:hello"
        assert server.seen == [("c1", b"hello")]

    def test_byte_accounting(self):
        hub = InProcHub()
        hub.register_server("s", EchoServer())
        channel = hub.connect("s", "c1")
        channel.request(b"12345")
        assert channel.stats.bytes_sent == 5
        assert channel.stats.bytes_received == 10  # "echo:12345"
        assert channel.stats.requests == 1

    def test_rejects_non_bytes(self):
        hub = InProcHub()
        hub.register_server("s", EchoServer())
        channel = hub.connect("s", "c1")
        with pytest.raises(TransportError):
            channel.request("not bytes")

    def test_unknown_server(self):
        hub = InProcHub()
        with pytest.raises(TransportError):
            hub.connect("nope", "c1")

    def test_duplicate_server_rejected(self):
        hub = InProcHub()
        hub.register_server("s", EchoServer())
        with pytest.raises(TransportError):
            hub.register_server("s", EchoServer())

    def test_push_notifications(self):
        hub = InProcHub()
        hub.register_server("s", EchoServer())
        channel = hub.connect("s", "c1")
        received = []
        channel.set_notification_handler(received.append)
        assert hub.push("c1", b"wake up")
        assert received == [b"wake up"]
        assert channel.stats.notifications == 1

    def test_push_to_unknown_client(self):
        hub = InProcHub()
        assert not hub.push("ghost", b"x")

    def test_push_without_handler(self):
        hub = InProcHub()
        hub.register_server("s", EchoServer())
        hub.connect("s", "c1")
        assert not hub.push("c1", b"x")

    def test_closed_channel_rejects(self):
        hub = InProcHub()
        hub.register_server("s", EchoServer())
        channel = hub.connect("s", "c1")
        channel.close()
        with pytest.raises(TransportError):
            channel.request(b"x")
        assert not hub.push("c1", b"x")

    def test_network_model_advances_virtual_clock(self):
        clock = VirtualClock()
        hub = InProcHub(clock=clock, network=NetworkModel(latency=0.01,
                                                          bandwidth=1000))
        hub.register_server("s", EchoServer())
        channel = hub.connect("s", "c1")
        channel.request(b"x" * 100)  # 100 bytes out, 105 back
        # 2 messages of latency + 205 bytes / 1000 B/s
        assert clock.now() == pytest.approx(0.02 + 0.205)


class TestNetworkModel:
    def test_latency_only(self):
        assert NetworkModel(latency=0.5).transfer_time(10**6) == 0.5

    def test_bandwidth(self):
        model = NetworkModel(latency=0.1, bandwidth=100.0)
        assert model.transfer_time(50) == pytest.approx(0.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(latency=-1)
        with pytest.raises(ValueError):
            NetworkModel(bandwidth=0)


class TestTCP:
    @pytest.fixture(params=SERVER_BACKENDS)
    def server(self, request):
        dispatcher = EchoServer()
        transport = make_server_transport(request.param, dispatcher)
        yield transport, dispatcher
        transport.close()

    def test_request_reply(self, server):
        transport, dispatcher = server
        channel = TCPChannel("127.0.0.1", transport.port, "tcp-client")
        try:
            assert channel.request(b"ping") == b"echo:ping"
            assert dispatcher.seen == [("tcp-client", b"ping")]
        finally:
            channel.close()

    def test_large_payload(self, server):
        transport, _ = server
        channel = TCPChannel("127.0.0.1", transport.port, "c")
        try:
            payload = bytes(range(256)) * 4096  # 1 MiB
            assert channel.request(payload) == b"echo:" + payload
        finally:
            channel.close()

    def test_multiple_clients(self, server):
        transport, dispatcher = server
        channels = [TCPChannel("127.0.0.1", transport.port, f"c{i}")
                    for i in range(4)]
        try:
            results = {}

            def work(index):
                results[index] = channels[index].request(f"m{index}".encode())

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert results == {i: f"echo:m{i}".encode() for i in range(4)}
        finally:
            for channel in channels:
                channel.close()

    def test_sequential_requests_on_one_connection(self, server):
        transport, _ = server
        channel = TCPChannel("127.0.0.1", transport.port, "c")
        try:
            for i in range(20):
                assert channel.request(f"n{i}".encode()) == f"echo:n{i}".encode()
        finally:
            channel.close()

    def test_cannot_push(self, server):
        transport, _ = server
        channel = TCPChannel("127.0.0.1", transport.port, "c")
        try:
            assert not channel.can_push
            with pytest.raises(NotImplementedError):
                channel.set_notification_handler(lambda data: None)
        finally:
            channel.close()

    @pytest.mark.parametrize("backend", SERVER_BACKENDS)
    def test_slow_reply_raises_typed_timeout(self, backend):
        class StalledServer(Dispatcher):
            def dispatch(self, client_id, data):
                time.sleep(2.0)
                return data

        transport = make_server_transport(backend, StalledServer())
        try:
            channel = TCPChannel("127.0.0.1", transport.port, "c", timeout=0.2)
            try:
                with pytest.raises(TransportTimeout) as info:
                    channel.request(b"ping")
                # the typed subclass still satisfies generic handlers
                assert isinstance(info.value, TransportError)
            finally:
                channel.close()
        finally:
            transport.close()

    def test_connect_refused_raises_transport_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(TransportError):
            TCPChannel("127.0.0.1", port, "c", timeout=0.5)


_LEN = struct.Struct(">I")
_SEQ = struct.Struct(">Q")


def _raw_exchange(sock, frame, expect=None):
    """Send one pre-built frame and read back the reply message.

    Replies lead with a 16-byte (nonce, seq) echo header; ``expect``
    asserts its value — ``(0, 0)`` marks an unattributable reply to a
    frame whose header could not be parsed.
    """
    sock.sendall(_LEN.pack(len(frame)) + frame)
    (length,) = _LEN.unpack(sock.recv(4, socket.MSG_WAITALL))
    reply = sock.recv(length, socket.MSG_WAITALL)
    assert len(reply) >= 16
    if expect is not None:
        assert (_SEQ.unpack_from(reply, 0)[0],
                _SEQ.unpack_from(reply, 8)[0]) == expect
    return reply[16:]


class TestTCPFaultPaths:
    """The server must answer bad input with ErrorReply, not die."""

    @pytest.fixture(params=SERVER_BACKENDS)
    def server(self, request):
        dispatcher = EchoServer()
        transport = make_server_transport(request.param, dispatcher)
        yield transport, dispatcher
        transport.close()

    def test_malformed_frame_answered_and_connection_survives(self, server):
        transport, dispatcher = server
        sock = socket.create_connection(("127.0.0.1", transport.port),
                                        timeout=2.0)
        try:
            # header claims a 100-byte client id but the frame is 9 bytes:
            # before the fix this struct/bounds error killed the thread
            reply = decode_message(
                _raw_exchange(sock, _LEN.pack(100) + b"short", expect=(0, 0)))
            assert isinstance(reply, ErrorReply)
            assert "malformed" in reply.message
            # same connection, now a valid frame: the link must still work
            good = _LEN.pack(1) + b"c" + _SEQ.pack(7) + _SEQ.pack(1) + b"ping"
            assert _raw_exchange(sock, good, expect=(7, 1)) == b"echo:ping"
            assert dispatcher.seen == [("c", b"ping")]
        finally:
            sock.close()

    def test_bad_utf8_client_id_answered(self, server):
        transport, dispatcher = server
        sock = socket.create_connection(("127.0.0.1", transport.port),
                                        timeout=2.0)
        try:
            frame = _LEN.pack(2) + b"\xff\xfe" + _SEQ.pack(7) + _SEQ.pack(1) + b"x"
            reply = decode_message(_raw_exchange(sock, frame))
            assert isinstance(reply, ErrorReply)
            assert dispatcher.seen == []
        finally:
            sock.close()

    @pytest.mark.parametrize("backend", SERVER_BACKENDS)
    def test_dispatcher_exception_answered_and_connection_survives(self, backend):
        class Flaky(Dispatcher):
            def __init__(self):
                self.calls = 0

            def dispatch(self, client_id, data):
                self.calls += 1
                if data == b"boom":
                    raise ValueError("dispatcher bug")
                return b"ok:" + data

        dispatcher = Flaky()
        transport = make_server_transport(backend, dispatcher)
        channel = TCPChannel("127.0.0.1", transport.port, "c")
        try:
            reply = decode_message(channel.request(b"boom"))
            assert isinstance(reply, ErrorReply)
            assert "dispatcher bug" in reply.message
            # the connection thread survived the exception
            assert channel.request(b"fine") == b"ok:fine"
            assert dispatcher.calls == 2
        finally:
            channel.close()
            transport.close()

    @pytest.mark.parametrize("backend", SERVER_BACKENDS)
    def test_timed_out_socket_is_never_reused(self, backend):
        """After a timeout the reply is still in flight; reusing the
        socket would hand request N's reply to request N+1."""

        class SlowFirst(Dispatcher):
            def __init__(self):
                self.calls = 0

            def dispatch(self, client_id, data):
                self.calls += 1
                if self.calls == 1:
                    time.sleep(1.0)
                return b"echo:" + data

        transport = make_server_transport(backend, SlowFirst())
        # the timeout must outlast the remainder of the first dispatch:
        # the server serializes one client's requests (reply-cache session
        # lock), so request "b" queues behind the sleeping dispatch of "a"
        channel = TCPChannel("127.0.0.1", transport.port, "c", timeout=0.6)
        try:
            with pytest.raises(TransportTimeout):
                channel.request(b"a")
            assert not channel.health()["connected"]
            # the retry reconnects; the stale "echo:a" died with the socket
            assert channel.request(b"b") == b"echo:b"
        finally:
            channel.close()
            transport.close()

    @pytest.mark.parametrize("backend", SERVER_BACKENDS)
    def test_close_reaps_threads_and_closes_connections(self, backend):
        dispatcher = EchoServer()
        transport = make_server_transport(backend, dispatcher)
        channels = [TCPChannel("127.0.0.1", transport.port, f"c{i}")
                    for i in range(4)]
        try:
            for i, channel in enumerate(channels):
                channel.request(f"m{i}".encode())
            transport.close()
            if backend == "threads":
                assert transport._threads == []
                assert transport._conns == set()
            else:
                assert transport.connection_count() == 0
            # live clients see a typed disconnect, not a hang
            with pytest.raises(TransportError):
                channels[0].request(b"after")
        finally:
            for channel in channels:
                channel.close()

    def test_connection_close_reaps_serve_thread(self):
        """A burst of connections that then close must not pin the
        threaded baseline's thread records until the next accept
        (reap-on-close, not on-accept)."""
        transport = make_server_transport("threads", EchoServer())
        try:
            channels = [TCPChannel("127.0.0.1", transport.port, f"c{i}")
                        for i in range(8)]
            for i, channel in enumerate(channels):
                channel.request(f"m{i}".encode())
            for channel in channels:
                channel.close()
            deadline = time.time() + 5.0
            while transport._threads:
                assert time.time() < deadline, (
                    f"{len(transport._threads)} serve-thread records "
                    "still pinned after every connection closed")
                time.sleep(0.01)
        finally:
            transport.close()

    @pytest.mark.parametrize("backend", SERVER_BACKENDS)
    @pytest.mark.parametrize("restart_backend", SERVER_BACKENDS)
    def test_port_is_released_synchronously_on_close(self, backend,
                                                     restart_backend):
        dispatcher = EchoServer()
        first = make_server_transport(backend, dispatcher)
        port = first.port
        channel = TCPChannel("127.0.0.1", port, "c")
        channel.request(b"x")
        first.close()
        # a restarted server must be able to rebind at once, even with
        # the old client's half-closed socket still lingering (and the
        # backends must be interchangeable across the restart)
        second = make_server_transport(restart_backend, dispatcher, port=port,
                                       reply_cache=first.reply_cache)
        try:
            channel.break_connection()
            assert channel.request(b"y") == b"echo:y"
        finally:
            channel.close()
            second.close()
