"""Tests for the caching relay tier (``repro.proxy.CachingProxy``).

Topology used by most tests: one :class:`InProcHub` co-hosts the origin
(registered as ``h-origin``) and the proxy (registered as ``h``, the name
clients address).  Clients connect to the proxy exactly as they would to
a server; the proxy's upstream connector reaches the origin through the
same hub.  The origin gets a private metrics registry so its
``server.requests`` counter isolates exactly the traffic the relay let
through.
"""

import os
import struct
import threading

import pytest

from repro import (
    ClientOptions,
    InProcHub,
    InterWeaveClient,
    InterWeaveServer,
    MetricsRegistry,
    MuxConnectionPool,
    RetryPolicy,
    VirtualClock,
    delta,
    temporal,
)
from repro.arch import X86_32
from repro.proxy import CachingProxy
from repro.transport import (
    FaultInjectingChannel,
    FaultPlan,
    RetryingChannel,
    TCPChannel,
    TCPServerTransport,
)
from repro.types import INT, ArrayDescriptor
from repro.wire import BlockDiff, RunColumns, SegmentDiff, encode_segment_diff
from repro.wire.messages import (
    COHERENCE_DELTA,
    COHERENCE_DIFF,
    COHERENCE_TEMPORAL,
    LOCK_READ,
    ErrorReply,
    GetStatsReply,
    GetStatsRequest,
    LockAcquireReply,
    LockAcquireRequest,
    OpenSegmentReply,
    OpenSegmentRequest,
    decode_message,
    encode_message,
)

SEED = int(os.environ.get("REPRO_FAULT_SEED", "2003"))


class ProxyWorld:
    """Origin + proxy on one in-process hub; clients address the proxy."""

    def __init__(self, max_staleness=60.0, **proxy_kwargs):
        self.clock = VirtualClock()
        self.hub = InProcHub(clock=self.clock)
        self.origin_metrics = MetricsRegistry()
        self.origin = InterWeaveServer("h", sink=self.hub, clock=self.clock,
                                       metrics=self.origin_metrics)
        self.hub.register_server("h-origin", self.origin)
        self.proxy_metrics = MetricsRegistry()
        self.proxy = CachingProxy("h", connector=self.hub.connect,
                                  origin="h-origin", sink=self.hub,
                                  clock=self.clock,
                                  metrics=self.proxy_metrics,
                                  max_staleness=max_staleness,
                                  **proxy_kwargs)
        self.hub.register_server("h", self.proxy)

    def client(self, name, **options):
        opts = ClientOptions(**options) if options else None
        return InterWeaveClient(name, X86_32, self.hub.connect,
                                clock=self.clock, options=opts)

    def origin_client(self, name, **options):
        """A client wired straight to the origin, bypassing the proxy."""
        opts = ClientOptions(**options) if options else None
        return InterWeaveClient(
            name, X86_32,
            lambda server, cid: self.hub.connect("h-origin", cid),
            clock=self.clock, options=opts)

    def origin_requests(self):
        return self.origin_metrics.snapshot()["counters"].get(
            "server.requests", 0)

    def seed(self, name="h/s", value=0):
        writer = self.client("w")
        seg = writer.open_segment(name)
        writer.wl_acquire(seg)
        writer.malloc(seg, INT, name="v").set(value)
        writer.wl_release(seg)
        return writer, seg


def read_value(client, segment, name="v"):
    client.rl_acquire(segment)
    value = client.accessor_for(segment, name).get()
    client.rl_release(segment)
    return value


def write_value(client, segment, value, name="v"):
    client.wl_acquire(segment)
    client.accessor_for(segment, name).set(value)
    client.wl_release(segment)


def rpc(dispatcher, client_id, message):
    return decode_message(dispatcher.dispatch(client_id,
                                              encode_message(message)))


# ---------------------------------------------------------------------------
# basic correctness through the relay
# ---------------------------------------------------------------------------

class TestBasics:
    def test_write_then_read_through_proxy(self):
        world = ProxyWorld()
        writer, seg = world.seed(value=7)
        reader = world.client("r", enable_notifications=False)
        seg_r = reader.open_segment("h/s")
        assert read_value(reader, seg_r) == 7
        write_value(writer, seg, 8)
        assert read_value(reader, seg_r) == 8
        # the reader's full transfer and its catch-up both came from the
        # writer's diffs cached at the relay, never from an origin rebuild
        assert world.origin.stats.updates_built == 0
        assert world.proxy.stats.hits > 0

    def test_fanout_adds_no_origin_traffic(self):
        world = ProxyWorld()
        world.seed(value=3)
        readers = []
        for k in range(4):
            client = world.client(f"r{k}", enable_notifications=False)
            readers.append((client, client.open_segment("h/s")))
        before = world.origin_requests()
        for _ in range(5):
            for client, seg in readers:
                assert read_value(client, seg) == 3
        # 4 readers x 5 validated read sections: zero origin round trips
        assert world.origin_requests() == before
        assert world.proxy.stats.hits >= 4 * 5

    def test_read_release_answered_locally(self):
        world = ProxyWorld()
        world.seed()
        reader = world.client("r", enable_notifications=False)
        seg_r = reader.open_segment("h/s")
        read_value(reader, seg_r)
        before = world.proxy.stats.forwards
        reader.rl_acquire(seg_r)
        reader.rl_release(seg_r)
        assert world.proxy.stats.forwards == before

    def test_stats_through_proxy(self):
        world = ProxyWorld()
        world.seed()
        reader = world.client("r", enable_notifications=False)
        seg_r = reader.open_segment("h/s")
        read_value(reader, seg_r)
        stats = reader.server_stats("h")
        assert stats["server"]["name"] == "h"
        assert "h/s" in stats["server"]["segments"]
        proxy_section = stats["proxy"]
        assert proxy_section["origin"] == "h-origin"
        assert proxy_section["hits"] >= 1
        assert 0.0 <= proxy_section["hit_rate"] <= 1.0

    def test_delete_through_proxy_drops_relay_entry(self):
        world = ProxyWorld()
        writer, _ = world.seed()
        assert world.proxy._lookup("h/s") is not None
        assert writer.delete_segment("h/s")
        assert world.proxy._lookup("h/s") is None
        assert world.proxy.diff_cache.get("h/s", 0, 1) is None

    def test_write_lock_denial_propagates(self):
        world = ProxyWorld()
        writer, seg = world.seed()
        writer.wl_acquire(seg)
        rival = world.client("rival", lock_max_retries=2,
                             lock_retry_interval=0.0)
        seg2 = rival.open_segment("h/s")
        with pytest.raises(Exception):
            rival.wl_acquire(seg2)
        writer.wl_release(seg)
        rival2 = world.client("rival2")
        seg3 = rival2.open_segment("h/s")
        rival2.wl_acquire(seg3)  # now free end to end
        rival2.wl_release(seg3)


# ---------------------------------------------------------------------------
# invalidation propagation through the relay
# ---------------------------------------------------------------------------

def subscribe_reader(world, name="r", segment="h/s"):
    """Poll a reader into an adaptive subscription at the proxy."""
    reader = world.client(name)
    seg = reader.open_segment(segment)
    for _ in range(6):
        reader.rl_acquire(seg)
        reader.rl_release(seg)
    assert seg.poller.subscribed
    return reader, seg


class TestInvalidation:
    def test_write_through_proxy_repushes_to_subscribers(self):
        world = ProxyWorld()
        writer, seg = world.seed(value=0)
        reader, seg_r = subscribe_reader(world)
        entry = world.proxy._lookup("h/s")
        assert entry.coherence.subscriber_count() == 1
        before = world.origin_requests()
        write_value(writer, seg, 41)
        # the forwarded release taught the proxy the new version and the
        # proxy re-pushed the invalidation to its local subscriber
        assert world.proxy.stats.notifications_pushed >= 1
        assert seg_r.poller.must_contact_server()
        assert read_value(reader, seg_r) == 41
        # the reader's catch-up validation stayed local: only the write
        # forward (acquire + release) and at most one relay refresh hit
        # the origin
        assert world.origin_requests() - before <= 4

    def test_origin_direct_write_reaches_proxied_subscribers(self):
        """A write that never touches the proxy must still invalidate
        proxied readers: origin push -> one relay refresh -> local re-push."""
        world = ProxyWorld()
        world.seed(value=0)
        reader, seg_r = subscribe_reader(world)
        entry = world.proxy._lookup("h/s")
        assert entry.upstream_subscribed
        writer0 = world.origin_client("w0")
        seg0 = writer0.open_segment("h/s")
        before = world.origin_requests()
        pushed_before = world.proxy.stats.notifications_pushed
        write_value(writer0, seg0, 99)
        assert world.proxy.stats.notifications_pushed > pushed_before
        assert seg_r.poller.must_contact_server()
        assert read_value(reader, seg_r) == 99
        # writer0's open+acquire+release plus ONE relay refresh — the
        # reader's revalidation was served from the refreshed cache
        assert world.origin_requests() - before <= 4
        assert world.proxy.stats.refreshes >= 1

    def test_second_push_not_suppressed(self):
        """The relay's refresh must reset the origin's notified flag, or
        the second origin-direct write would never be pushed."""
        world = ProxyWorld()
        world.seed(value=0)
        reader, seg_r = subscribe_reader(world)
        writer0 = world.origin_client("w0")
        seg0 = writer0.open_segment("h/s")
        for value in (1, 2, 3):
            write_value(writer0, seg0, value)
            assert read_value(reader, seg_r) == value


# ---------------------------------------------------------------------------
# coherence policy bounds evaluated at the relay
# ---------------------------------------------------------------------------

class TestPolicyBounds:
    def seeded_world(self):
        world = ProxyWorld()
        writer, seg = world.seed(value=0)  # version 1
        return world, writer, seg

    def validate(self, world, client_version, kind, param=0.0,
                 client_id="probe"):
        return rpc(world.proxy, client_id, LockAcquireRequest(
            "h/s", LOCK_READ, client_id, client_version, kind, param))

    def test_delta_bound_local_decision(self):
        world, writer, seg = self.seeded_world()
        # prime the probe's view at version 1
        first = self.validate(world, 0, COHERENCE_DELTA, 3.0)
        assert first.granted and first.diff is not None
        for value in (1, 2):  # versions 2 and 3: probe is 2 behind, bound 3
            write_value(writer, seg, value)
            before = world.proxy.stats.forwards
            reply = self.validate(world, 1, COHERENCE_DELTA, 3.0)
            assert reply.granted and reply.diff is None  # within bound
            assert world.proxy.stats.forwards == before
        write_value(writer, seg, 3)  # version 4: 3 behind, bound broken
        before = world.proxy.stats.forwards
        reply = self.validate(world, 1, COHERENCE_DELTA, 3.0)
        assert reply.diff is not None
        assert (reply.diff.from_version, reply.diff.to_version) == (1, 4)
        assert world.proxy.stats.forwards == before  # composed from cache

    def test_temporal_bound_local_decision(self):
        world, writer, seg = self.seeded_world()
        first = self.validate(world, 0, COHERENCE_TEMPORAL, 10.0)
        assert first.granted and first.diff is not None
        write_value(writer, seg, 1)  # version 2, learned at t=0
        world.clock.advance(5.0)  # superseded 5s ago, bound 10
        reply = self.validate(world, 1, COHERENCE_TEMPORAL, 10.0)
        assert reply.diff is None
        world.clock.advance(6.0)  # superseded 11s ago: bound broken
        reply = self.validate(world, 1, COHERENCE_TEMPORAL, 10.0)
        assert reply.diff is not None

    def test_diff_bound_always_forwarded(self):
        """The Diff bound is defined against the origin's modified-units
        accounting; the relay must not guess."""
        world, writer, seg = self.seeded_world()
        before = world.proxy.stats.forwards
        reply = self.validate(world, 0, COHERENCE_DIFF, 25.0)
        assert isinstance(reply, LockAcquireReply) and reply.granted
        assert world.proxy.stats.forwards == before + 1

    def test_delta_reader_end_to_end(self):
        """The same Delta bound through a real client: mid-bound reads
        keep the old value without origin traffic."""
        world, writer, seg = self.seeded_world()
        reader = world.client("r", enable_notifications=False)
        seg_r = reader.open_segment("h/s")
        assert read_value(reader, seg_r) == 0
        reader.set_coherence(seg_r, delta(3))
        write_value(writer, seg, 1)
        write_value(writer, seg, 2)
        before = world.origin_requests()
        assert read_value(reader, seg_r) == 0  # 2 behind, bound 3: served stale
        assert world.origin_requests() == before
        write_value(writer, seg, 3)
        assert read_value(reader, seg_r) == 3  # bound broken: caught up
        assert world.origin_requests() == before + 2  # the write, not the read

    def test_temporal_reader_end_to_end(self):
        world, writer, seg = self.seeded_world()
        reader = world.client("r", enable_notifications=False)
        seg_r = reader.open_segment("h/s")
        assert read_value(reader, seg_r) == 0
        reader.set_coherence(seg_r, temporal(10.0))
        write_value(writer, seg, 5)
        world.clock.advance(11.0)  # past the bound AND the client's skip window
        before = world.origin_requests()
        assert read_value(reader, seg_r) == 5
        assert world.origin_requests() == before  # update composed at the relay


# ---------------------------------------------------------------------------
# freshness windows and cache fallbacks
# ---------------------------------------------------------------------------

class TestFreshness:
    def test_stale_window_triggers_single_refresh(self):
        world = ProxyWorld(max_staleness=1.0)
        world.seed(value=4)
        reader = world.client("r", enable_notifications=False)
        seg_r = reader.open_segment("h/s")
        assert read_value(reader, seg_r) == 4
        world.clock.advance(5.0)  # relay knowledge expires
        refreshes = world.proxy.stats.refreshes
        assert read_value(reader, seg_r) == 4
        assert world.proxy.stats.refreshes == refreshes + 1
        # within the window again: no further upstream contact
        assert read_value(reader, seg_r) == 4
        assert world.proxy.stats.refreshes == refreshes + 1

    def test_zero_staleness_forwards_decisions(self):
        world = ProxyWorld(max_staleness=0.0)
        world.seed(value=4)
        world.clock.advance(1.0)
        reader = world.client("r", enable_notifications=False)
        seg_r = reader.open_segment("h/s")
        refreshes = world.proxy.stats.refreshes
        assert read_value(reader, seg_r) == 4
        assert world.proxy.stats.refreshes >= refreshes  # refreshed or forwarded

    def test_recreated_serial_range_is_not_composed(self):
        """A freed-then-recreated serial inside the range defeats cached
        composition; the relay must return None and forward instead."""
        world = ProxyWorld()
        entry = world.proxy._ensure_entry("h/s")
        world.proxy.diff_cache.put("h/s", 1, 2, encode_segment_diff(
            SegmentDiff("h/s", 1, 2, [BlockDiff(serial=3, freed=True)])))
        world.proxy.diff_cache.put("h/s", 2, 3, encode_segment_diff(
            SegmentDiff("h/s", 2, 3, [BlockDiff(
                serial=3, is_new=True, type_serial=1,
                columns=RunColumns.from_runs([(0, 1, b"\0\0\0\1")]))])))
        assert world.proxy._cached_update(entry, 1, 3) is None

    def test_error_replies_pass_through(self):
        world = ProxyWorld()
        reply = rpc(world.proxy, "c", OpenSegmentRequest(
            "h/missing", create=False, client_id="c"))
        assert isinstance(reply, ErrorReply)

    def test_get_stats_is_answered_by_the_relay(self):
        world = ProxyWorld()
        before = world.proxy.stats.forwards
        reply = rpc(world.proxy, "c", GetStatsRequest(client_id="c"))
        assert isinstance(reply, GetStatsReply)
        assert world.proxy.stats.forwards == before


# ---------------------------------------------------------------------------
# retries and dedup survive the extra hop
# ---------------------------------------------------------------------------

class TestClusterRedirects:
    def test_proxy_chases_a_migrated_segment(self):
        from repro import ClusterCoordinator, SegmentDirectory

        world = ProxyWorld()
        # a second origin and a directory turn the topology into a
        # cluster fronted by the same relay
        other = InterWeaveServer("h-other", sink=world.hub,
                                 clock=world.clock,
                                 metrics=MetricsRegistry())
        world.hub.register_server("h-other", other)
        directory = SegmentDirectory(origins=["h-origin", "h-other"],
                                     metrics=MetricsRegistry())
        world.hub.register_server("directory", directory)
        coordinator = ClusterCoordinator(directory, world.hub.connect,
                                         clock=world.clock)
        directory.bind("h/s", "h-origin", pinned=False)

        writer, seg = world.seed(value=1)
        coordinator.migrate("h/s", "h-other")

        # the write goes through the proxy, which follows the redirect
        # to the new origin; the downstream client never sees it
        write_value(writer, seg, 2)
        assert read_value(writer, seg) == 2
        assert writer.stats.redirects_followed == 0
        assert world.proxy.stats.redirects_followed >= 1
        snapshot = world.proxy.stats_snapshot()["proxy"]
        assert snapshot["bindings"]["h/s"]["origin"] == "h-other"
        assert other.segments["h/s"].state.version >= 2
        writer.close()
        coordinator.close()
        world.proxy.close()


class TestRetryDedup:
    def test_resent_sequence_replayed_not_reforwarded(self):
        """A downstream retry after a lost reply must be answered from
        the proxy transport's reply cache — the origin never sees it."""
        world = ProxyWorld()
        transport = TCPServerTransport(world.proxy)
        try:
            channel = TCPChannel("127.0.0.1", transport.port, "c",
                                 timeout=5.0)
            try:
                frame = encode_message(OpenSegmentRequest(
                    "h/x", create=True, client_id="c"))
                first = decode_message(channel.request(frame))
                assert isinstance(first, OpenSegmentReply)
                forwards = world.proxy.stats.forwards
                origin_before = world.origin_requests()
                channel.break_connection()
                channel._next_seq -= 1  # re-send the exact same frame
                second = decode_message(channel.request(frame))
                assert isinstance(second, OpenSegmentReply)
                assert second.version == first.version
                assert world.proxy.stats.forwards == forwards
                assert world.origin_requests() == origin_before
            finally:
                channel.close()
        finally:
            transport.close()

    def test_client_work_survives_request_faults(self):
        """Dropped requests between client and proxy are retried; the
        increments land exactly once end to end."""
        world = ProxyWorld()
        world.seed(value=0)
        plan = FaultPlan(seed=SEED, drop_request=0.3)
        policy = RetryPolicy(max_attempts=50, base_delay=0.0, jitter=0.0)
        client = InterWeaveClient(
            "c", X86_32,
            lambda server, cid: RetryingChannel(
                lambda: FaultInjectingChannel(
                    world.hub.connect(server, cid), plan), policy),
            clock=world.clock,
            options=ClientOptions(enable_notifications=False))
        seg = client.open_segment("h/s")
        for _ in range(10):
            client.wl_acquire(seg)
            value = client.accessor_for(seg, "v")
            value.set(value.get() + 1)
            client.wl_release(seg)
        checker = world.client("check", enable_notifications=False)
        seg_c = checker.open_segment("h/s")
        assert read_value(checker, seg_c) == 10


# ---------------------------------------------------------------------------
# full TCP topology: client -> TCP -> proxy -> mux pool -> TCP -> origin
# ---------------------------------------------------------------------------

class TestTCPTopology:
    def test_end_to_end_over_sockets(self):
        origin = InterWeaveServer("h", metrics=MetricsRegistry())
        origin_transport = TCPServerTransport(origin)
        pool = MuxConnectionPool({"h": ("127.0.0.1", origin_transport.port)},
                                 timeout=10.0, retry=RetryPolicy())
        proxy = CachingProxy("h", connector=pool.connect,
                             metrics=MetricsRegistry())
        proxy_transport = TCPServerTransport(proxy)

        def connector(server_name, client_id):
            return TCPChannel("127.0.0.1", proxy_transport.port, client_id,
                              timeout=10.0)

        writer = InterWeaveClient(
            "w", X86_32, connector,
            options=ClientOptions(enable_notifications=False))
        reader = InterWeaveClient(
            "r", X86_32, connector,
            options=ClientOptions(enable_notifications=False))
        try:
            seg = writer.open_segment("h/data")
            writer.wl_acquire(seg)
            array = writer.malloc(seg, ArrayDescriptor(INT, 64), name="a")
            array.write_values(list(range(64)))
            writer.wl_release(seg)

            seg_r = reader.open_segment("h/data")
            reader.rl_acquire(seg_r)
            assert list(reader.accessor_for(seg_r, "a").read_values()) == \
                list(range(64))
            reader.rl_release(seg_r)

            writer.wl_acquire(seg)
            writer.accessor_for(seg, "a")[5] = 500
            writer.wl_release(seg)
            reader.rl_acquire(seg_r)
            assert reader.accessor_for(seg_r, "a")[5] == 500
            reader.rl_release(seg_r)
            assert proxy.stats.hits > 0
        finally:
            writer.close()
            reader.close()
            proxy_transport.close()
            proxy.close()
            pool.close()
            origin_transport.close()
