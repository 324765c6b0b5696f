"""Fault-tolerance tests: retry policy, fault injection, leases, sessions.

The fault schedules are seeded (``REPRO_FAULT_SEED``, default 2003) so CI
runs are reproducible; changing the seed explores new interleavings.
"""

import os
import threading
import time

import pytest

from tests._support import SERVER_BACKENDS, make_server_transport

from repro import (
    ClientOptions,
    InProcHub,
    InterWeaveClient,
    InterWeaveServer,
    VirtualClock,
)
from repro.arch import X86_32
from repro.errors import (
    RetryExhausted,
    ServerError,
    TransportDisconnected,
    TransportError,
    TransportTimeout,
    WireFormatError,
)
from repro.transport import (
    Dispatcher,
    FaultInjectingChannel,
    FaultPlan,
    ReplyCache,
    RetryingChannel,
    RetryPolicy,
    TCPChannel,
    is_retryable,
)
from repro.obs.metrics import get_registry
from repro.types import INT, ArrayDescriptor
from repro.wire.messages import FetchRequest

SEED = int(os.environ.get("REPRO_FAULT_SEED", "2003"))


class EchoServer(Dispatcher):
    def __init__(self):
        self.dispatched = 0

    def dispatch(self, client_id, data):
        self.dispatched += 1
        return b"echo:" + data


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_classification(self):
        assert is_retryable(TransportTimeout("t"))
        assert is_retryable(TransportDisconnected("d"))
        assert not is_retryable(TransportError("protocol corruption"))
        assert not is_retryable(ServerError("rejected"))
        assert not is_retryable(WireFormatError("bad bytes"))

    def test_exponential_backoff(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=10.0,
                             multiplier=2.0, jitter=0.0)
        assert policy.delay_for(0) == pytest.approx(0.1)
        assert policy.delay_for(1) == pytest.approx(0.2)
        assert policy.delay_for(2) == pytest.approx(0.4)
        assert policy.delay_for(3) == pytest.approx(0.8)  # before the 5th try
        assert policy.delay_for(4) is None  # a 6th attempt would exceed budget

    def test_max_delay_caps_growth(self):
        policy = RetryPolicy(max_attempts=20, base_delay=1.0, max_delay=3.0,
                             multiplier=4.0, jitter=0.0)
        assert policy.delay_for(10) == pytest.approx(3.0)

    def test_jitter_is_seeded_and_bounded(self):
        one = RetryPolicy(max_attempts=10, base_delay=1.0, jitter=0.5, seed=SEED)
        two = RetryPolicy(max_attempts=10, base_delay=1.0, jitter=0.5, seed=SEED)
        delays_one = [one.delay_for(i) for i in range(8)]
        delays_two = [two.delay_for(i) for i in range(8)]
        assert delays_one == delays_two  # same seed, same schedule
        for failures, delay in enumerate(delays_one):
            ideal = min(2.0, 1.0 * 2.0 ** failures)
            assert 0.5 * ideal <= delay <= 1.5 * ideal

    def test_single_attempt_never_delays(self):
        assert RetryPolicy(max_attempts=1).delay_for(0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------

class TestFaultInjection:
    def _channel(self, plan):
        hub = InProcHub()
        server = EchoServer()
        hub.register_server("s", server)
        return FaultInjectingChannel(hub.connect("s", "c1"), plan), server

    def test_no_faults_passes_through(self):
        channel, server = self._channel(FaultPlan(seed=SEED))
        assert channel.request(b"hi") == b"echo:hi"
        assert server.dispatched == 1

    def test_drop_request_never_reaches_server(self):
        channel, server = self._channel(FaultPlan(seed=SEED, drop_request=1.0))
        with pytest.raises(TransportTimeout):
            channel.request(b"hi")
        assert server.dispatched == 0

    def test_drop_reply_reaches_server(self):
        channel, server = self._channel(FaultPlan(seed=SEED, drop_reply=1.0))
        with pytest.raises(TransportTimeout):
            channel.request(b"hi")
        assert server.dispatched == 1  # the server DID process it

    def test_truncated_reply_is_garbled_prefix(self):
        channel, _ = self._channel(FaultPlan(seed=SEED, truncate_reply=1.0))
        reply = channel.request(b"payload")
        full = b"echo:payload"
        assert reply != full
        assert full.startswith(reply) and len(reply) >= 1

    def test_disconnect_raises_retryable(self):
        channel, _ = self._channel(FaultPlan(seed=SEED, disconnect=1.0))
        with pytest.raises(TransportDisconnected) as info:
            channel.request(b"hi")
        assert is_retryable(info.value)

    def test_same_seed_same_schedule(self):
        def run(plan):
            channel, _ = self._channel(plan)
            outcomes = []
            for i in range(40):
                try:
                    channel.request(b"x%d" % i)
                    outcomes.append("ok")
                except TransportError as exc:
                    outcomes.append(type(exc).__name__)
            return outcomes

        plan = dict(drop_request=0.3, drop_reply=0.1, disconnect=0.1)
        assert run(FaultPlan(seed=SEED, **plan)) == run(FaultPlan(seed=SEED, **plan))

    @pytest.mark.parametrize("backend", SERVER_BACKENDS)
    def test_reconnect_listener_reaches_inner_channel(self, backend):
        """The client installs its poller-reset callback on the outermost
        wrapper; the inner TCP channel is what actually reconnects, so
        the wrapper must delegate the listener, not shadow it."""
        transport = make_server_transport(backend, EchoServer())
        inner = TCPChannel("127.0.0.1", transport.port, "c", timeout=2.0)
        channel = FaultInjectingChannel(inner, FaultPlan(seed=SEED))
        fired = []
        channel.reconnect_listener = lambda: fired.append(1)
        try:
            assert inner.reconnect_listener is not None
            channel.request(b"a")
            inner.break_connection()
            channel.request(b"b")  # the inner channel reconnects internally
            assert fired == [1]
        finally:
            channel.close()
            transport.close()

    def test_delay_advances_virtual_clock(self):
        clock = VirtualClock()
        hub = InProcHub()
        hub.register_server("s", EchoServer())
        channel = FaultInjectingChannel(
            hub.connect("s", "c1"),
            FaultPlan(seed=SEED, delay_probability=1.0, delay=0.5), clock=clock)
        channel.request(b"hi")
        assert clock.now() == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# retrying channel + fault injector: retry until success
# ---------------------------------------------------------------------------

class TestRetryingChannel:
    def _wrapped(self, plan, policy):
        hub = InProcHub()
        server = EchoServer()
        hub.register_server("s", server)
        channel = RetryingChannel(
            lambda: FaultInjectingChannel(hub.connect("s", "c1"), plan), policy)
        return channel, server

    def test_retries_until_success_under_faults(self):
        plan = FaultPlan(seed=SEED, drop_request=0.4, disconnect=0.2)
        policy = RetryPolicy(max_attempts=50, base_delay=0.0, jitter=0.0)
        channel, server = self._wrapped(plan, policy)
        for i in range(50):
            assert channel.request(b"m%d" % i) == b"echo:m%d" % i
        assert channel.retries > 0  # the schedule really injected faults

    def test_exhausted_budget_raises_retry_exhausted(self):
        plan = FaultPlan(seed=SEED, drop_request=1.0)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        channel, server = self._wrapped(plan, policy)
        with pytest.raises(RetryExhausted) as info:
            channel.request(b"hi")
        assert isinstance(info.value.__cause__, TransportTimeout)
        assert server.dispatched == 0
        assert channel.retries == 2  # 3 attempts = 2 retries

    def test_fatal_errors_are_not_retried(self):
        class Rejecting(Dispatcher):
            def __init__(self):
                self.dispatched = 0

            def dispatch(self, client_id, data):
                self.dispatched += 1
                raise_error()

        def raise_error():
            raise TransportError("not transient")

        hub = InProcHub()
        server = Rejecting()
        hub.register_server("s", server)
        channel = RetryingChannel(
            lambda: hub.connect("s", "c1"),
            RetryPolicy(max_attempts=5, base_delay=0.0))
        with pytest.raises(TransportError):
            channel.request(b"hi")
        assert server.dispatched == 1

    def test_reconnect_listener_fires(self):
        plan = FaultPlan(seed=SEED, disconnect=0.5)
        policy = RetryPolicy(max_attempts=100, base_delay=0.0, jitter=0.0)
        channel, _ = self._wrapped(plan, policy)
        fired = []
        channel.reconnect_listener = lambda: fired.append(1)
        for i in range(30):
            channel.request(b"x")
        assert len(fired) == channel.reconnects > 0

    @pytest.mark.parametrize("backend", SERVER_BACKENDS)
    def test_reopen_connect_failure_is_retried(self, backend):
        """While the server is down, the factory's own connect fails too;
        each refusal must consume a retry and back off — the restart is
        ridden out inside request(), not surfaced to the caller."""
        dispatcher = EchoServer()
        transport = make_server_transport(backend, dispatcher)
        port = transport.port
        policy = RetryPolicy(max_attempts=30, base_delay=0.05, max_delay=0.1,
                             jitter=0.0)
        channel = RetryingChannel(
            lambda: TCPChannel("127.0.0.1", port, "c", timeout=1.0), policy)
        restarted = []
        try:
            assert channel.request(b"one") == b"echo:one"
            cache = transport.reply_cache
            transport.close()

            def restart():
                time.sleep(0.3)
                restarted.append(make_server_transport(
                    backend, dispatcher, port=port, reply_cache=cache))

            thread = threading.Thread(target=restart)
            thread.start()
            assert channel.request(b"two") == b"echo:two"
            thread.join()
            assert channel.reconnects >= 1
        finally:
            channel.close()
            for late in restarted:
                late.close()


# ---------------------------------------------------------------------------
# reply cache (sequence-number deduplication)
# ---------------------------------------------------------------------------

class TestReplyCache:
    def test_replays_cached_reply(self):
        cache = ReplyCache()
        calls = []

        def dispatch():
            calls.append(1)
            return b"r1"

        assert cache.execute("c", 1, dispatch) == b"r1"
        assert cache.execute("c", 1, dispatch) == b"r1"  # replay, no dispatch
        assert len(calls) == 1

    def test_new_sequence_dispatches(self):
        cache = ReplyCache()
        assert cache.execute("c", 1, lambda: b"r1") == b"r1"
        assert cache.execute("c", 2, lambda: b"r2") == b"r2"

    def test_out_of_order_in_window_dispatches(self):
        # pipelined channels may complete sequence numbers out of order;
        # any unseen seq inside the retention window must dispatch
        cache = ReplyCache()
        assert cache.execute("c", 5, lambda: b"r5") == b"r5"
        assert cache.execute("c", 4, lambda: b"r4") == b"r4"
        assert cache.execute("c", 4, lambda: b"boom") == b"r4"  # replay

    def test_stale_sequence_rejected(self):
        # a seq evicted past the retention horizon cannot be replayed
        # *or* re-dispatched: it is answered with a typed error
        cache = ReplyCache(window=4)
        for seq in range(1, 10):
            cache.execute("c", seq, lambda s=seq: b"r%d" % s)
        # seqs 1..5 were evicted (window holds 6..9); 5 is the horizon
        with pytest.raises(WireFormatError):
            cache.execute("c", 3, lambda: b"r3")
        # in-window seqs still replay from cache
        assert cache.execute("c", 7, lambda: b"boom") == b"r7"

    def test_byte_bound_evicts_oldest_keeps_newest(self, monkeypatch):
        from repro.transport import base

        monkeypatch.setattr(base, "REPLY_WINDOW_BYTES", 100)
        cache = ReplyCache()
        for seq in range(1, 4):
            cache.execute("c", seq, lambda s=seq: bytes([s]) * 40)
        # 120 bytes exceed the bound: seq 1 went, 2 and 3 replay
        with pytest.raises(WireFormatError):
            cache.execute("c", 1, lambda: b"boom")
        assert cache.execute("c", 2, lambda: b"boom") == bytes([2]) * 40
        # a reply larger than the bound is still kept, alone
        cache.execute("c", 4, lambda: b"x" * 500)
        assert cache.execute("c", 4, lambda: b"boom") == b"x" * 500
        with pytest.raises(WireFormatError):
            cache.execute("c", 3, lambda: b"boom")

    def test_sequence_zero_opts_out(self):
        cache = ReplyCache()
        calls = []
        for _ in range(3):
            cache.execute("c", 0, lambda: calls.append(1) or b"r")
        assert len(calls) == 3

    def test_clients_are_independent(self):
        cache = ReplyCache()
        cache.execute("a", 1, lambda: b"ra")
        assert cache.execute("b", 1, lambda: b"rb") == b"rb"

    def test_eviction_caps_sessions(self):
        cache = ReplyCache(max_clients=4)
        for i in range(10):
            cache.execute(f"c{i}", 1, lambda: b"r")
        assert len(cache) == 4

    def test_nonce_separates_sessions(self):
        cache = ReplyCache()
        assert cache.execute("c", 1, lambda: b"old", nonce=1) == b"old"
        # a fresh channel reusing the client id restarts at seq 1: with
        # its own nonce that is a new session, not a replay
        assert cache.execute("c", 1, lambda: b"new", nonce=2) == b"new"
        # and the original session still deduplicates its own retries
        assert cache.execute("c", 1, lambda: b"boom", nonce=1) == b"old"

    def test_eviction_is_observable(self):
        evictions = get_registry().counter("transport.server.dedup_evictions")
        before = evictions.value
        cache = ReplyCache(max_clients=2)
        for i in range(5):
            cache.execute(f"c{i}", 1, lambda: b"r")
        assert len(cache) == 2
        assert evictions.value - before == 3

    def test_busy_session_is_not_evicted(self):
        cache = ReplyCache(max_clients=1)

        def dispatch():
            # while this runs, the "busy" session's lock is held; filling
            # the cache from another client must evict the newcomer, not
            # the session that is mid-dispatch
            cache.execute("other", 1, lambda: b"x")
            return b"r"

        assert cache.execute("busy", 1, dispatch) == b"r"
        # the busy session survived eviction: its retry still replays
        assert cache.execute("busy", 1, lambda: b"boom") == b"r"

    def test_dispatch_error_is_not_cached(self):
        cache = ReplyCache()

        def failing():
            raise ServerError("transient server bug")

        with pytest.raises(ServerError):
            cache.execute("c", 1, failing)
        assert cache.execute("c", 1, lambda: b"ok") == b"ok"


# ---------------------------------------------------------------------------
# TCP: idempotent retry end to end
# ---------------------------------------------------------------------------

class TestTCPRetry:
    @pytest.mark.parametrize("backend", SERVER_BACKENDS)
    def test_channel_reconnects_after_server_restart(self, backend):
        dispatcher = EchoServer()
        transport = make_server_transport(backend, dispatcher)
        port = transport.port
        policy = RetryPolicy(max_attempts=10, base_delay=0.02, max_delay=0.1,
                             jitter=0.0)
        channel = TCPChannel("127.0.0.1", port, "c", timeout=2.0, retry=policy)
        try:
            assert channel.request(b"one") == b"echo:one"
            transport.close()
            transport = make_server_transport(
                backend, dispatcher, port=port,
                reply_cache=transport.reply_cache)
            assert channel.request(b"two") == b"echo:two"
            assert channel.reconnects >= 1
            assert channel.health()["reconnects"] >= 1
        finally:
            channel.close()
            transport.close()

    @pytest.mark.parametrize("backend", SERVER_BACKENDS)
    def test_resent_sequence_is_dispatched_once(self, backend):
        dispatcher = EchoServer()
        transport = make_server_transport(backend, dispatcher)
        try:
            channel = TCPChannel("127.0.0.1", transport.port, "c", timeout=2.0)
            try:
                assert channel.request(b"ping") == b"echo:ping"
                # simulate a lost reply: drop the connection and re-send the
                # exact same frame (same sequence number) over a new one
                channel.break_connection()
                channel._next_seq -= 1
                assert channel.request(b"ping") == b"echo:ping"
                assert dispatcher.dispatched == 1  # replayed from the cache
            finally:
                channel.close()
        finally:
            transport.close()

    @pytest.mark.parametrize("backend", SERVER_BACKENDS)
    def test_fresh_channel_reusing_client_id_is_not_replayed(self, backend):
        """repro-stats hardcodes client_id='stats-cli': a second run must
        get its own reply, not the first run's cached one — the random
        session nonce keeps the two channels' sequence spaces apart."""
        dispatcher = EchoServer()
        transport = make_server_transport(backend, dispatcher)
        try:
            first = TCPChannel("127.0.0.1", transport.port, "stats-cli",
                               timeout=2.0)
            assert first.request(b"one") == b"echo:one"
            first.close()
            second = TCPChannel("127.0.0.1", transport.port, "stats-cli",
                                timeout=2.0)
            try:
                assert second.request(b"two") == b"echo:two"
                assert dispatcher.dispatched == 2
            finally:
                second.close()
        finally:
            transport.close()

    @pytest.mark.parametrize("backend", SERVER_BACKENDS)
    def test_close_interrupts_retry_backoff(self, backend):
        """close() must abort a pending backoff at once, not wait out the
        schedule (request() holds the channel lock the whole time)."""
        transport = make_server_transport(backend, EchoServer())
        policy = RetryPolicy(max_attempts=50, base_delay=30.0, jitter=0.0)
        channel = TCPChannel("127.0.0.1", transport.port, "c", timeout=0.5,
                             retry=policy)
        errors = []
        try:
            assert channel.request(b"one") == b"echo:one"
            transport.close()

            def worker():
                try:
                    channel.request(b"two")
                except TransportError as exc:
                    errors.append(exc)

            thread = threading.Thread(target=worker)
            thread.start()
            time.sleep(0.3)  # let the attempt fail and enter the 30 s backoff
            started = time.perf_counter()
            channel.close()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert time.perf_counter() - started < 5.0
            assert errors and "closed" in str(errors[0])
        finally:
            channel.close()
            transport.close()

    @pytest.mark.parametrize("backend", SERVER_BACKENDS)
    def test_break_connection_recovers_without_policy(self, backend):
        transport = make_server_transport(backend, EchoServer())
        try:
            channel = TCPChannel("127.0.0.1", transport.port, "c", timeout=2.0)
            try:
                channel.request(b"a")
                channel.break_connection()
                # no retry policy: the next request reconnects lazily
                assert channel.request(b"b") == b"echo:b"
                assert channel.reconnects == 1
            finally:
                channel.close()
        finally:
            transport.close()


# ---------------------------------------------------------------------------
# write-lock leases
# ---------------------------------------------------------------------------

class LeaseHarness:
    def __init__(self, lease_duration=5.0):
        self.clock = VirtualClock()
        self.hub = InProcHub(clock=self.clock)
        self.server = InterWeaveServer("s", sink=self.hub, clock=self.clock,
                                       lease_duration=lease_duration)
        self.hub.register_server("s", self.server)

    def client(self, name, **options):
        opts = ClientOptions(**options) if options else None
        return InterWeaveClient(name, X86_32, self.hub.connect,
                                clock=self.clock, options=opts)


class TestLeases:
    def test_dead_writer_lock_reclaimed_by_lease_expiry(self):
        harness = LeaseHarness(lease_duration=5.0)
        dead = harness.client("dead")
        seg_dead = dead.open_segment("s/x")
        dead.wl_acquire(seg_dead)
        dead.wl_release(seg_dead)
        dead.wl_acquire(seg_dead)  # ...and the client dies here

        writer = harness.client("writer", lock_retry_interval=1.0)
        seg = writer.open_segment("s/x")
        writer.wl_acquire(seg)  # blocks until the lease lapses, then reclaims
        arr = writer.malloc(seg, ArrayDescriptor(INT, 4), name="a")
        arr.write_values([1, 2, 3, 4])
        writer.wl_release(seg)
        assert harness.server.stats.lease_expiries == 1
        assert writer.stats.lock_denials_seen >= 4  # denied until expiry

        # the dead client's zombie release must be rejected: its changes
        # could conflict with the successor's
        with pytest.raises(ServerError):
            dead.wl_release(seg_dead)

    def test_writer_requests_renew_the_lease(self):
        harness = LeaseHarness(lease_duration=5.0)
        writer = harness.client("w")
        seg = writer.open_segment("s/x")
        writer.wl_acquire(seg)
        entry = harness.server.segments["s/x"]
        for _ in range(3):
            harness.clock.advance(4.0)  # inside the lease each time
            # any request from the writer naming the segment piggybacks a
            # renewal — a metadata fetch stands in for mid-section traffic
            writer._rpc(seg.channel, FetchRequest(
                seg.name, writer.client_id, seg.version, meta_only=True))
        assert entry.writer == "w"
        assert entry.writer_expires == pytest.approx(harness.clock.now() + 5.0)
        writer.wl_release(seg)
        assert harness.server.stats.lease_expiries == 0

    def test_release_after_lapse_without_reclaim_is_lenient(self):
        harness = LeaseHarness(lease_duration=5.0)
        writer = harness.client("w")
        seg = writer.open_segment("s/x")
        writer.wl_acquire(seg)
        harness.clock.advance(60.0)  # lapsed, but nobody contested the lock
        writer.wl_release(seg)  # still the writer of record: accepted
        assert harness.server.stats.lease_expiries == 0

    def test_read_validation_triggers_reclaim(self):
        harness = LeaseHarness(lease_duration=5.0)
        dead = harness.client("dead")
        seg_dead = dead.open_segment("s/x")
        dead.wl_acquire(seg_dead)
        harness.clock.advance(6.0)
        reader = harness.client("r")
        seg = reader.open_segment("s/x")
        reader.rl_acquire(seg)  # the validation reclaims the stale lock
        reader.rl_release(seg)
        assert harness.server.stats.lease_expiries == 1
        assert harness.server.segments["s/x"].writer is None

    def test_lease_surfaces_in_stats_snapshot(self):
        harness = LeaseHarness(lease_duration=5.0)
        writer = harness.client("w")
        seg = writer.open_segment("s/x")
        snapshot = harness.server.stats_snapshot()
        assert snapshot["server"]["segments"]["s/x"]["lease_expires"] is None
        writer.wl_acquire(seg)
        snapshot = harness.server.stats_snapshot()
        assert snapshot["server"]["segments"]["s/x"]["lease_expires"] == (
            pytest.approx(harness.clock.now() + 5.0))
        writer.wl_release(seg)


    def test_lapsed_lease_reported_expired_in_stats_snapshot(self):
        """Expiry is lazy, but introspection must not show a dead writer
        as live: a lapsed lease reads as writer=None with the expired
        marker set, matching what _lease_touch would decide."""
        harness = LeaseHarness(lease_duration=5.0)
        writer = harness.client("w")
        seg = writer.open_segment("s/x")
        writer.wl_acquire(seg)
        info = harness.server.stats_snapshot()["server"]["segments"]["s/x"]
        assert info["writer"] == "w"
        assert info["lease_expired"] is False
        harness.clock.advance(6.0)  # lease lapses; nobody has contacted yet
        assert harness.server.segments["s/x"].writer == "w"  # still lazy
        info = harness.server.stats_snapshot()["server"]["segments"]["s/x"]
        assert info["writer"] is None
        assert info["lease_expires"] is None
        assert info["lease_expired"] is True


# ---------------------------------------------------------------------------
# client session introspection
# ---------------------------------------------------------------------------

class TestSessionState:
    def test_session_state_reports_channels_and_segments(self):
        harness = LeaseHarness(lease_duration=5.0)
        client = harness.client("c")
        seg = client.open_segment("s/x")
        state = client.session_state()
        assert state["client_id"] == "c"
        assert state["channels"]["s"]["transport"] == "InProcChannel"
        assert state["channels"]["s"]["requests"] >= 1
        assert state["segments"]["s/x"]["lock_mode"] is None
        assert state["segments"]["s/x"]["lease_remaining"] is None

        client.wl_acquire(seg)
        state = client.session_state()
        assert state["segments"]["s/x"]["lock_mode"] == 1
        assert state["segments"]["s/x"]["lease_remaining"] == pytest.approx(5.0)
        harness.clock.advance(2.0)
        remaining = client.session_state()["segments"]["s/x"]["lease_remaining"]
        assert remaining == pytest.approx(3.0)
        client.wl_release(seg)
        assert client.session_state()["segments"]["s/x"]["lease_remaining"] is None

    def test_poller_resets_after_reconnect(self):
        harness = LeaseHarness()
        client = harness.client("c")
        seg = client.open_segment("s/x")
        seg.poller.subscribed = True
        seg.poller.invalidated = False
        channel = client._channels["s"]
        channel.reconnect_listener()  # what a transport fires on reconnect
        assert not seg.poller.subscribed
        assert seg.poller.invalidated


# ---------------------------------------------------------------------------
# truncated replies surface as typed decode errors through the client
# ---------------------------------------------------------------------------

def test_truncated_reply_is_a_typed_client_error():
    harness = LeaseHarness()
    plan = FaultPlan(seed=SEED, truncate_reply=1.0)
    client = InterWeaveClient(
        "c", X86_32,
        lambda server, cid: FaultInjectingChannel(
            harness.hub.connect(server, cid), plan),
        clock=harness.clock)
    with pytest.raises(WireFormatError):
        client.open_segment("s/x")


# ---------------------------------------------------------------------------
# hostile per-unit payloads are typed wire errors, not server bugs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("unit, payload", [
    (0, b"\x00\x00"),                    # string length header cut short
    (1, b"\x00\x00\x00\x02\xff\xfe"),    # MIP text that is not UTF-8
], ids=["short-length-header", "non-utf8-mip"])
def test_hostile_per_unit_payload_is_a_wire_error(unit, payload):
    """A release whose string/pointer payload is malformed is refused
    with a WireFormatError: the segment stays at its version and the
    server does not count an internal error."""
    from repro.types import (Field, PointerDescriptor, RecordDescriptor,
                             StringDescriptor, TypeRegistry)
    from repro.wire import BlockDiff, RunColumns, SegmentDiff
    from repro.wire.messages import (LOCK_WRITE, ErrorReply,
                                     LockAcquireRequest, LockReleaseRequest,
                                     OpenSegmentRequest, decode_message,
                                     encode_message)

    server = InterWeaveServer("h")
    registry = TypeRegistry()
    type_serial = registry.register(RecordDescriptor("hostile", [
        Field("name", StringDescriptor(8)),
        Field("next", PointerDescriptor(INT, "int"))]))

    def rpc(message):
        return decode_message(server.dispatch("w", encode_message(message)))

    def release(version, block_diff, types=()):
        rpc(LockAcquireRequest("h/s", LOCK_WRITE, "w", version))
        return rpc(LockReleaseRequest("h/s", LOCK_WRITE, "w", SegmentDiff(
            "h/s", version, version + 1, [block_diff], list(types))))

    rpc(OpenSegmentRequest("h/s", create=True, client_id="w"))
    valid = b"\x00\x00\x00\x02hi" + b"\x00\x00\x00\x00"  # "hi", NULL
    release(0, BlockDiff(serial=1, is_new=True, type_serial=type_serial,
                         columns=RunColumns.from_runs([(0, 2, valid)])),
            types=[(type_serial, registry.encoded(type_serial))])
    state = server._entry("h/s").state
    assert state.version == 1
    hostile = BlockDiff(serial=1,
                        columns=RunColumns.from_runs([(unit, 1, payload)]))

    with pytest.raises(WireFormatError):
        state.apply_client_diff(SegmentDiff("h/s", 1, 2, [hostile]))
    internal_before = server._m_internal_errors.value
    reply = release(1, hostile)
    assert isinstance(reply, ErrorReply)
    assert "internal server error" not in reply.message
    assert server._m_internal_errors.value == internal_before
    assert state.version == 1
