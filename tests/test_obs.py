"""Tests for repro.obs: metrics registry, tracing, and introspection."""

import json

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
    get_registry,
    render_table,
    set_registry,
    snapshot_to_json,
    write_sidecar,
)
from repro.util.clock import VirtualClock


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_rejects_negative(self):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 0

    def test_reset(self):
        counter = Counter("c")
        counter.inc(7)
        counter.reset()
        assert counter.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == pytest.approx(11.5)


class TestHistogram:
    def test_bucket_placement(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        hist.observe(0.5)   # <= 1.0
        hist.observe(2.0)   # == bound lands in that bucket
        hist.observe(3.0)   # <= 4.0
        hist.observe(99.0)  # +inf overflow
        assert hist.bucket_counts == (1, 1, 1, 1)
        assert hist.count == 4
        assert hist.sum == pytest.approx(104.5)

    def test_rejects_non_increasing_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_reset(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(0.5)
        hist.reset()
        assert hist.count == 0
        assert hist.bucket_counts == (0, 0)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert len(registry) == 3

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_snapshot_is_deterministic_under_virtual_clock(self):
        def build():
            registry = MetricsRegistry(clock=VirtualClock())
            registry.counter("z.last").inc(3)
            registry.counter("a.first").inc()
            registry.gauge("depth").set(2)
            registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)
            registry.clock.advance(7.0)
            return registry.snapshot()

        first, second = build(), build()
        assert first == second
        assert snapshot_to_json(first) == snapshot_to_json(second)
        assert first["captured_at"] == 7.0
        assert list(first["counters"]) == ["a.first", "z.last"]

    def test_snapshot_shape(self):
        registry = MetricsRegistry(clock=VirtualClock())
        registry.histogram("h", buckets=(1.0,)).observe(5.0)
        snap = registry.snapshot()
        assert snap["histograms"]["h"] == {
            "count": 1, "sum": 5.0, "buckets": [[1.0, 0], ["+inf", 1]]}
        # JSON-ready end to end
        json.loads(snapshot_to_json(snap))

    def test_reset_zeroes_but_keeps_instruments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(5)
        registry.reset()
        assert counter.value == 0
        assert registry.counter("c") is counter

    def test_empty_registry_is_truthy(self):
        # components default with ``metrics or get_registry()``; a fresh
        # (empty, len 0) registry must still win that expression
        registry = MetricsRegistry()
        assert len(registry) == 0
        assert bool(registry)

    def test_default_registry_swap(self):
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestTracer:
    def test_deterministic_spans_under_virtual_clock(self):
        def build():
            clock = VirtualClock()
            tracer = Tracer(clock=clock)
            with tracer.span("outer", segment="s") as outer:
                clock.advance(1.0)
                with tracer.span("inner"):
                    clock.advance(0.5)
                outer.set_attr("done", True)
            return tracer.export()

        first, second = build(), build()
        assert first == second
        inner, outer = first["spans"]  # finish order: inner first
        assert (inner["name"], outer["name"]) == ("inner", "outer")
        assert inner["parent_id"] == outer["span_id"]
        assert outer["start"] == 0.0 and outer["end"] == 1.5
        assert inner["end"] - inner["start"] == pytest.approx(0.5)
        assert outer["attrs"] == {"segment": "s", "done": True}

    def test_events_attach_to_current_span(self):
        tracer = Tracer(clock=VirtualClock())
        with tracer.span("work") as span:
            tracer.event("milestone", step=1)
        tracer.event("orphan")
        events = tracer.export()["events"]
        assert events[0]["span_id"] == span.span_id
        assert events[1]["span_id"] is None

    def test_capacity_bounds_memory(self):
        tracer = Tracer(clock=VirtualClock(), capacity=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        spans = tracer.export()["spans"]
        assert len(spans) == 4
        assert spans[-1]["name"] == "s9"

    def test_disabled_tracer_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("invisible") as span:
            span.set_attr("k", "v")  # absorbed
        tracer.event("also invisible")
        assert tracer.export() == {"spans": [], "events": []}


class TestExport:
    def test_write_sidecar(self, tmp_path):
        registry = MetricsRegistry(clock=VirtualClock())
        registry.counter("n").inc(3)
        path = write_sidecar(str(tmp_path / "m.json"), registry.snapshot())
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["counters"] == {"n": 3}

    def test_render_table_bare_snapshot(self):
        registry = MetricsRegistry(clock=VirtualClock())
        registry.counter("hits").inc(3)
        registry.gauge("depth").set(1.5)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        table = render_table(registry.snapshot())
        assert "hits" in table and "3" in table
        assert "depth" in table and "1.5" in table
        assert "lat: n=1" in table


def _exercise_world(hub_clock=None):
    """One write/read exchange through the in-proc stack; returns actors."""
    from repro import InProcHub, InterWeaveClient, InterWeaveServer
    from repro.arch import X86_32
    from repro.types import INT

    hub = InProcHub(clock=hub_clock)
    server = InterWeaveServer("h", sink=hub)
    hub.register_server("h", server)
    writer = InterWeaveClient("w", X86_32, hub.connect)
    reader = InterWeaveClient("r", X86_32, hub.connect)
    seg = writer.open_segment("h/s")
    writer.wl_acquire(seg)
    value = writer.malloc(seg, INT, name="v")
    value.set(1)
    writer.wl_release(seg)
    writer.wl_acquire(seg)
    value.set(2)
    writer.wl_release(seg)
    seg_r = reader.open_segment("h/s")
    reader.rl_acquire(seg_r)
    assert reader.accessor_for(seg_r, "v").get() == 2
    reader.rl_release(seg_r)
    return server, writer, reader


class TestInstrumentationEndToEnd:
    def test_protocol_events_land_in_one_registry(self):
        registry = MetricsRegistry(clock=VirtualClock())
        previous = set_registry(registry)
        try:
            _exercise_world()
        finally:
            set_registry(previous)
        counters = registry.snapshot()["counters"]
        # every layer reported in: MMU, collection, wire codec, transport,
        # server, poller
        assert counters["mmu.write_faults"] > 0
        assert counters["client.twins_created"] > 0
        assert counters["client.collect.runs"] > 0
        assert counters["client.collect.rle_bytes"] > 0
        assert counters["client.updates_applied"] > 0
        assert counters["wire.diff.encoded_bytes"] > 0
        assert counters["transport.bytes_sent"] > 0
        assert counters["transport.requests"] > 0
        assert counters["server.requests"] > 0
        assert counters["server.diffs_applied"] == 2
        assert registry.snapshot()["gauges"]["server.segments"] == 1.0

    def test_client_traces_cover_lock_protocol(self):
        registry = MetricsRegistry(clock=VirtualClock())
        previous = set_registry(registry)
        try:
            _, writer, reader = _exercise_world()
        finally:
            set_registry(previous)
        names = [span["name"] for span in writer.tracer.export()["spans"]]
        assert names.count("client.wl_acquire") == 2
        assert names.count("client.wl_release") == 2
        reader_names = [span["name"]
                        for span in reader.tracer.export()["spans"]]
        assert "client.apply_update" in reader_names


class TestGetStats:
    def test_server_stats_round_trip_in_proc(self):
        registry = MetricsRegistry(clock=VirtualClock())
        previous = set_registry(registry)
        try:
            _, writer, _ = _exercise_world()
            stats = writer.server_stats("h")
        finally:
            set_registry(previous)
        assert stats["server"]["name"] == "h"
        seg_info = stats["server"]["segments"]["h/s"]
        assert seg_info["version"] == 2
        assert seg_info["blocks"] == 1
        assert stats["metrics"]["counters"]["server.diffs_applied"] == 2
        # memory traffic of both sides' address spaces is visible too
        assert stats["metrics"]["counters"]["mmu.bytes_loaded"] > 0
        assert stats["metrics"]["counters"]["mmu.bytes_stored"] > 0

    def test_get_stats_message_codec(self):
        from repro.wire.messages import (GetStatsReply, GetStatsRequest,
                                         decode_message, encode_message)

        request = decode_message(encode_message(GetStatsRequest("c9")))
        assert request == GetStatsRequest("c9")
        payload = json.dumps({"metrics": {"counters": {"n": 1}}})
        reply = decode_message(encode_message(GetStatsReply(payload)))
        assert reply.to_dict() == {"metrics": {"counters": {"n": 1}}}


class TestStatsCLI:
    def test_cli_against_live_tcp_server(self, capsys):
        """The ISSUE acceptance path: lock/modify/release against a TCP
        server, then ``stats_main`` prints nonzero fault/diff/byte
        metrics (server and client share the process-wide registry)."""
        from repro import InterWeaveClient, InterWeaveServer
        from repro.arch import X86_32
        from repro.tools import stats_main
        from repro.transport import TCPChannel, TCPServerTransport
        from repro.types import INT

        registry = MetricsRegistry(clock=VirtualClock())
        previous = set_registry(registry)
        try:
            server = InterWeaveServer("tcphost")
            transport = TCPServerTransport(server)
            try:
                def connector(server_name, client_id):
                    return TCPChannel("127.0.0.1", transport.port, client_id)

                client = InterWeaveClient("w", X86_32, connector)
                seg = client.open_segment("tcphost/t")
                client.wl_acquire(seg)
                client.malloc(seg, INT, name="v").set(7)
                client.wl_release(seg)
                # modify existing data: this session write-faults and twins
                client.wl_acquire(seg)
                client.accessor_for(seg, "v").set(8)
                client.wl_release(seg)

                code = stats_main.main(["--port", str(transport.port)])
                assert code == 0
                table = capsys.readouterr().out
                assert "tcphost" in table
                for line in ("mmu.write_faults", "client.collect.runs",
                             "transport.server.bytes_received"):
                    assert line in table

                code = stats_main.main(
                    ["--port", str(transport.port), "--json"])
                assert code == 0
                snapshot = json.loads(capsys.readouterr().out)
                counters = snapshot["metrics"]["counters"]
                assert counters["mmu.write_faults"] > 0
                assert counters["client.collect.runs"] > 0
                assert counters["transport.server.bytes_received"] > 0
                client.close()
            finally:
                transport.close()
        finally:
            set_registry(previous)

    def test_cli_reports_connection_failure(self, capsys):
        from repro.tools import stats_main

        # a port nothing listens on: bind-then-close to reserve one
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = stats_main.main(["--port", str(port), "--timeout", "0.5"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
