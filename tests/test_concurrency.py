"""Concurrency tests: contending writers over real TCP sockets.

The write lock serializes writers at the server; under contention every
read-modify-write increment must still land exactly once (lost updates
would show up as a low final count).
"""

import json
import threading

import pytest

from repro import ClientOptions, InProcHub, InterWeaveClient, InterWeaveServer
from repro.arch import ALPHA, SPARC_V9, X86_32
from repro.errors import ServerError
from repro.transport import TCPChannel, TCPServerTransport
from repro.types import INT, ArrayDescriptor
from repro.wire import BlockDiff, RunColumns, SegmentDiff
from repro.wire.messages import (
    LOCK_WRITE,
    ErrorReply,
    GetStatsReply,
    GetStatsRequest,
    LockAcquireRequest,
    LockReleaseRequest,
    NotifyInvalidate,
    OpenSegmentRequest,
    SubscribeRequest,
    decode_message,
    encode_message,
)


@pytest.fixture
def tcp_world():
    server = InterWeaveServer("host")
    transport = TCPServerTransport(server)
    yield server, transport
    transport.close()


def make_client(transport, name, arch=X86_32):
    def connector(server_name, client_id):
        return TCPChannel("127.0.0.1", transport.port, client_id)

    return InterWeaveClient(
        name, arch, connector,
        options=ClientOptions(lock_retry_interval=0.002))


class TestContendingWriters:
    def test_increments_never_lost(self, tcp_world):
        server, transport = tcp_world
        setup = make_client(transport, "setup")
        seg = setup.open_segment("host/counter")
        setup.wl_acquire(seg)
        counter = setup.malloc(seg, INT, name="n")
        counter.set(0)
        setup.wl_release(seg)

        WRITERS, ROUNDS = 4, 25
        errors = []

        def work(index, arch):
            try:
                client = make_client(transport, f"w{index}", arch)
                segment = client.open_segment("host/counter")
                for _ in range(ROUNDS):
                    client.wl_acquire(segment)
                    value = client.accessor_for(segment, "n")
                    value.set(value.get() + 1)
                    client.wl_release(segment)
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        arches = [X86_32, SPARC_V9, ALPHA, X86_32]
        threads = [threading.Thread(target=work, args=(i, arches[i]))
                   for i in range(WRITERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors

        reader = make_client(transport, "reader")
        seg_r = reader.open_segment("host/counter")
        reader.rl_acquire(seg_r)
        final = reader.accessor_for(seg_r, "n").get()
        reader.rl_release(seg_r)
        assert final == WRITERS * ROUNDS
        assert server.segments["host/counter"].state.version == WRITERS * ROUNDS + 1

    def test_disjoint_block_writers(self, tcp_world):
        """Writers touching different blocks still serialize correctly and
        every write survives."""
        server, transport = tcp_world
        setup = make_client(transport, "setup")
        seg = setup.open_segment("host/slots")
        setup.wl_acquire(seg)
        for index in range(3):
            slot = setup.malloc(seg, ArrayDescriptor(INT, 8), name=f"slot{index}")
            slot.write_values([0] * 8)
        setup.wl_release(seg)

        errors = []

        def work(index):
            try:
                client = make_client(transport, f"w{index}")
                segment = client.open_segment("host/slots")
                for round_number in range(10):
                    client.wl_acquire(segment)
                    slot = client.accessor_for(segment, f"slot{index}")
                    slot[round_number % 8] = index * 100 + round_number
                    client.wl_release(segment)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(index,))
                   for index in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors

        reader = make_client(transport, "r")
        seg_r = reader.open_segment("host/slots")
        reader.rl_acquire(seg_r)
        for index in range(3):
            values = list(reader.accessor_for(seg_r, f"slot{index}").read_values())
            assert values[1] == index * 100 + 9  # the last write to lane 1
        reader.rl_release(seg_r)

    def test_readers_concurrent_with_writer(self, tcp_world):
        server, transport = tcp_world
        setup = make_client(transport, "setup")
        seg = setup.open_segment("host/feed")
        setup.wl_acquire(seg)
        value = setup.malloc(seg, INT, name="v")
        value.set(0)
        setup.wl_release(seg)

        stop = threading.Event()
        observed = []
        errors = []

        def read_loop():
            try:
                client = make_client(transport, "obs")
                segment = client.open_segment("host/feed")
                while not stop.is_set():
                    client.rl_acquire(segment)
                    observed.append(client.accessor_for(segment, "v").get())
                    client.rl_release(segment)
            except Exception as exc:
                errors.append(exc)

        reader_thread = threading.Thread(target=read_loop)
        reader_thread.start()
        writer = make_client(transport, "w")
        seg_w = writer.open_segment("host/feed")
        for step in range(1, 21):
            writer.wl_acquire(seg_w)
            writer.accessor_for(seg_w, "v").set(step)
            writer.wl_release(seg_w)
        stop.set()
        reader_thread.join(timeout=30)
        assert not errors, errors
        # full coherence: the sequence of observed values never goes backwards
        assert observed == sorted(observed)
        assert observed[-1] <= 20


# ---------------------------------------------------------------------------
# sharded per-segment dispatch locking
# ---------------------------------------------------------------------------

class InProcWorld:
    """One in-process server; clients share the hub but run in any thread."""

    def __init__(self, **server_options):
        self.hub = InProcHub()
        self.server = InterWeaveServer("s", sink=self.hub, **server_options)
        self.hub.register_server("s", self.server)

    def client(self, name, **options):
        opts = ClientOptions(**options) if options else None
        return InterWeaveClient(name, X86_32, self.hub.connect, options=opts)


class TestShardedDispatchSoak:
    def test_threaded_soak_loses_nothing(self):
        """Distinct-segment writers, contending shared-segment writers,
        polling readers, and a stats poller all at once: every diff must
        land (exact counters), versions must be monotone, and stats must
        stay parseable throughout."""
        world = InProcWorld()
        ROUNDS = 40

        # three writers on segments of their own
        private = []
        for index in range(3):
            client = world.client(f"p{index}")
            seg = client.open_segment(f"s/private{index}")
            client.wl_acquire(seg)
            client.malloc(seg, INT, name="n").set(0)
            client.wl_release(seg)
            private.append((client, seg))

        # two writers contending on one shared counter
        setup = world.client("setup")
        shared_seg = setup.open_segment("s/shared")
        setup.wl_acquire(shared_seg)
        setup.malloc(shared_seg, INT, name="n").set(0)
        setup.wl_release(shared_seg)
        shared = [(world.client(f"w{index}"), None) for index in range(2)]
        shared = [(client, client.open_segment("s/shared"))
                  for client, _ in shared]

        # two readers polling the shared segment, plus a stats poller
        readers = [(world.client(f"r{index}", enable_notifications=False), None)
                   for index in range(2)]
        readers = [(client, client.open_segment("s/shared"))
                   for client, _ in readers]
        stats_channel = world.hub.connect("s", "statsbot")

        stop = threading.Event()
        errors = []
        observed = [[] for _ in readers]
        stats_rounds = [0]

        def private_writer(client, seg):
            try:
                for _ in range(ROUNDS):
                    client.wl_acquire(seg)
                    counter = client.accessor_for(seg, "n")
                    counter.set(counter.get() + 1)
                    client.wl_release(seg)
            except Exception as exc:
                errors.append(exc)

        def shared_writer(client, seg):
            try:
                for _ in range(ROUNDS):
                    client.wl_acquire(seg)
                    counter = client.accessor_for(seg, "n")
                    counter.set(counter.get() + 1)
                    client.wl_release(seg)
            except Exception as exc:
                errors.append(exc)

        def reader_loop(index, client, seg):
            try:
                while not stop.is_set():
                    client.rl_acquire(seg)
                    observed[index].append(seg.version)
                    client.rl_release(seg)
            except Exception as exc:
                errors.append(exc)

        def stats_loop():
            try:
                while not stop.is_set():
                    reply = decode_message(stats_channel.request(
                        encode_message(GetStatsRequest())))
                    assert isinstance(reply, GetStatsReply)
                    snapshot = json.loads(reply.payload)
                    assert "s/shared" in snapshot["server"]["segments"]
                    stats_rounds[0] += 1
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=private_writer, args=pair)
                   for pair in private]
        threads += [threading.Thread(target=shared_writer, args=pair)
                    for pair in shared]
        threads += [threading.Thread(target=reader_loop, args=(k, c, s))
                    for k, (c, s) in enumerate(readers)]
        threads.append(threading.Thread(target=stats_loop))
        for thread in threads:
            thread.start()
        for thread in threads[:5]:  # the writers have bounded work
            thread.join(timeout=120)
        stop.set()
        for thread in threads[5:]:
            thread.join(timeout=30)
        assert not errors, errors

        # no lost diffs anywhere
        checker = world.client("checker")
        for index in range(3):
            seg = checker.open_segment(f"s/private{index}")
            checker.rl_acquire(seg)
            assert checker.accessor_for(seg, "n").get() == ROUNDS
            checker.rl_release(seg)
        seg = checker.open_segment("s/shared")
        checker.rl_acquire(seg)
        assert checker.accessor_for(seg, "n").get() == 2 * ROUNDS
        checker.rl_release(seg)
        assert world.server.segments["s/shared"].state.version == 2 * ROUNDS + 1
        assert world.server.stats.diffs_applied == 5 * ROUNDS + 4

        # full coherence: each reader saw versions move forward only
        for versions in observed:
            assert versions == sorted(versions)
        assert stats_rounds[0] > 0

    def test_concurrent_readers_genuinely_overlap(self):
        """The per-segment lock is shared on the read side: a fetch
        completes while the test pins the read lock, the reader high-water
        mark proves two simultaneous holders, and a writer cannot get in."""
        world = InProcWorld()
        client = world.client("c", enable_notifications=False)
        seg = client.open_segment("s/x")
        client.wl_acquire(seg)
        client.malloc(seg, INT, name="n").set(7)
        client.wl_release(seg)

        entry = world.server.segments["s/x"]
        entry.lock.acquire_read()
        try:
            client.rl_acquire(seg)  # validation proceeds under the held read lock
            assert client.accessor_for(seg, "n").get() == 7
            client.rl_release(seg)
            assert entry.lock.max_readers >= 2
            assert entry.lock.acquire_write(timeout=0.05) is False
        finally:
            entry.lock.release_read()
        # the timed-out write attempt must not have poisoned the lock
        client.rl_acquire(seg)
        client.rl_release(seg)

    def test_invalidation_encoded_once_for_all_subscribers(self, monkeypatch):
        """One commit, three stale subscribers: the NotifyInvalidate body
        is encoded exactly once, not once per subscriber."""
        import repro.server.server as server_module

        world = InProcWorld()
        writer = world.client("w")
        seg = writer.open_segment("s/x")
        writer.wl_acquire(seg)
        counter = writer.malloc(seg, INT, name="n")
        counter.set(0)
        writer.wl_release(seg)
        for index in range(3):
            sub = world.client(f"sub{index}")
            sub_seg = sub.open_segment("s/x")
            sub.rl_acquire(sub_seg)
            sub.rl_release(sub_seg)
            sub._rpc(sub_seg.channel,
                     SubscribeRequest("s/x", sub.client_id, True))

        encoded = []
        real_encode = server_module.encode_message

        def counting_encode(message):
            if isinstance(message, NotifyInvalidate):
                encoded.append(message)
            return real_encode(message)

        monkeypatch.setattr(server_module, "encode_message", counting_encode)
        writer.wl_acquire(seg)
        writer.accessor_for(seg, "n").set(1)
        writer.wl_release(seg)
        assert len(encoded) == 1
        assert world.server.stats.notifications_pushed == 3


class TestDispatchErrorPaths:
    def test_truncated_payload_gets_error_reply_inproc(self):
        """A payload cut mid-message must come back as a typed ErrorReply,
        not a raw exception out of the channel's request()."""
        world = InProcWorld()
        channel = world.hub.connect("s", "c")
        valid = encode_message(OpenSegmentRequest("s/x", True, "c"))
        for cut in (1, len(valid) // 2, len(valid) - 1):
            reply = decode_message(channel.request(valid[:cut]))
            assert isinstance(reply, ErrorReply)
        # the server survived and still serves well-formed requests
        assert not isinstance(decode_message(channel.request(valid)), ErrorReply)

    def test_truncated_payload_gets_error_reply_tcp(self, tcp_world):
        server, transport = tcp_world
        channel = TCPChannel("127.0.0.1", transport.port, "c")
        try:
            valid = encode_message(OpenSegmentRequest("host/x", True, "c"))
            reply = decode_message(channel.request(valid[:len(valid) - 1]))
            assert isinstance(reply, ErrorReply)
            assert not isinstance(decode_message(channel.request(valid)),
                                  ErrorReply)
        finally:
            channel.close()

    def test_handler_exception_answered_typed_and_counted(self, monkeypatch):
        """A raw exception inside a handler (a server bug) is converted to
        an ErrorReply and tallied, instead of unwinding into the transport."""
        world = InProcWorld()
        channel = world.hub.connect("s", "c")
        before_errors = world.server._m_errors.value
        before_internal = world.server._m_internal_errors.value

        def boom(client_id, request):
            raise ValueError("kaboom")

        monkeypatch.setattr(world.server, "_handle", boom)
        reply = decode_message(channel.request(
            encode_message(GetStatsRequest())))
        assert isinstance(reply, ErrorReply)
        assert "internal server error" in reply.message
        assert "kaboom" in reply.message
        assert world.server._m_errors.value == before_errors + 1
        assert world.server._m_internal_errors.value == before_internal + 1
        monkeypatch.undo()
        assert isinstance(decode_message(channel.request(
            encode_message(GetStatsRequest()))), GetStatsReply)

    def test_handler_exception_answered_typed_over_tcp(self, tcp_world,
                                                       monkeypatch):
        server, transport = tcp_world

        def boom(client_id, request):
            raise ValueError("kaboom")

        monkeypatch.setattr(server, "_handle", boom)
        channel = TCPChannel("127.0.0.1", transport.port, "c")
        try:
            reply = decode_message(channel.request(
                encode_message(GetStatsRequest())))
            assert isinstance(reply, ErrorReply)
            assert "internal server error" in reply.message
            monkeypatch.undo()
            # same connection: the dispatch failure did not kill it
            assert isinstance(decode_message(channel.request(
                encode_message(GetStatsRequest()))), GetStatsReply)
        finally:
            channel.close()

    def test_rejected_diff_does_not_wedge_the_segment(self):
        """Seed bug: a release whose diff failed server-side validation
        left a dangling version marker, so every later release crashed the
        dispatch with a raw ValueError and the segment was dead for good."""
        world = InProcWorld()
        writer = world.client("w")
        seg = writer.open_segment("s/x")
        writer.wl_acquire(seg)
        counter = writer.malloc(seg, INT, name="n")
        counter.set(0)
        writer.wl_release(seg)

        bad = SegmentDiff("s/x", seg.version, 0, [
            BlockDiff(serial=99, columns=RunColumns.from_runs(
                [(0, 1, b"\x00\x00\x00\x01")]))])
        writer._rpc(seg.channel, LockAcquireRequest(
            "s/x", LOCK_WRITE, writer.client_id, seg.version))
        with pytest.raises(ServerError):
            writer._rpc(seg.channel, LockReleaseRequest(
                "s/x", LOCK_WRITE, writer.client_id, bad))

        # the segment keeps working: the same client commits a real change
        writer.wl_acquire(seg)
        writer.accessor_for(seg, "n").set(41)
        writer.wl_release(seg)
        reader = world.client("r")
        seg_r = reader.open_segment("s/x")
        reader.rl_acquire(seg_r)
        assert reader.accessor_for(seg_r, "n").get() == 41
        reader.rl_release(seg_r)
