"""Tests for the command-line tools."""

import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import urllib.request

import pytest

from repro import InterWeaveClient, InterWeaveServer
from repro.arch import SPARC_V9, X86_32
from repro.server import write_checkpoint
from repro.transport import TCPChannel
from repro.types import ArrayDescriptor, INT


class TestServerTool:
    def test_serve_restore_and_share(self, tmp_path):
        from repro.tools.server_main import build_parser, serve

        # seed a checkpoint to restore
        from tests.test_server_segment import make_segment_with_array

        state, _ = make_segment_with_array(16)
        state.name = "tool/data"
        write_checkpoint(state, str(tmp_path))

        args = build_parser().parse_args([
            "--name", "tool", "--port", "0",
            "--checkpoint-dir", str(tmp_path), "--restore"])
        ready = threading.Event()
        stop = threading.Event()
        thread = threading.Thread(target=serve, args=(args, ready, stop),
                                  daemon=True)
        thread.start()
        assert ready.wait(5)
        port = ready.ready_port
        try:
            def connector(server_name, client_id):
                return TCPChannel("127.0.0.1", port, client_id)

            client = InterWeaveClient("c", SPARC_V9, connector)
            seg = client.open_segment("tool/data", create=False)
            client.rl_acquire(seg)
            values = list(client.accessor_for(seg, 1).read_values())
            client.rl_release(seg)
            assert values == list(range(16))
        finally:
            stop.set()
            thread.join(timeout=5)

    def test_parser_defaults(self):
        from repro.tools.server_main import build_parser

        args = build_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.checkpoint_every == 16


def _run_tool(*args, **kwargs):
    """Start ``python -m repro.tools.<tool>`` in a subprocess."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen([sys.executable, "-m", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, **kwargs)


class TestServerProcess:
    """The server entry point as an operator runs it: a subprocess."""

    def test_gateway_and_binary_protocol_on_one_server(self):
        from repro.wire.messages import (
            GetStatsReply,
            GetStatsRequest,
            decode_message,
            encode_message,
        )

        proc = _run_tool("repro.tools.server_main", "--name", "cli",
                         "--port", "0", "--gateway-port", "0")
        try:
            banner = proc.stdout.readline()
            match = re.search(r"listening on [^:]+:(\d+) .*gateway at "
                              r"http://[^:]+:(\d+)", banner)
            assert match, banner
            port, gateway_port = int(match.group(1)), int(match.group(2))
            channel = TCPChannel("127.0.0.1", port, "cli-test")
            try:
                reply = decode_message(channel.request(
                    encode_message(GetStatsRequest("cli-test"))))
            finally:
                channel.close()
            assert isinstance(reply, GetStatsReply)
            assert json.loads(reply.payload)["server"]["name"] == "cli"
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{gateway_port}/stats",
                    timeout=10.0) as response:
                assert response.status == 200
                assert json.loads(response.read())["server"]["name"] == "cli"
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        assert proc.returncode == 0

    def test_removed_io_flag_is_refused(self):
        proc = _run_tool("repro.tools.server_main", "--port", "0",
                         "--io", "threads")
        try:
            _out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 2
        assert err.startswith("usage:")
        assert "unrecognized arguments: --io" in err


class TestProxyTool:
    def test_serve_relays_an_origin(self):
        from repro.tools import proxy_main, server_main

        origin_args = server_main.build_parser().parse_args(
            ["--name", "tool", "--port", "0"])
        origin_ready, origin_stop = threading.Event(), threading.Event()
        origin_thread = threading.Thread(
            target=server_main.serve,
            args=(origin_args, origin_ready, origin_stop), daemon=True)
        origin_thread.start()
        assert origin_ready.wait(5)

        proxy_args = proxy_main.build_parser().parse_args([
            "--name", "tool", "--port", "0",
            "--origin-host", "127.0.0.1",
            "--origin-port", str(origin_ready.ready_port)])
        proxy_ready, proxy_stop = threading.Event(), threading.Event()
        proxy_thread = threading.Thread(
            target=proxy_main.serve,
            args=(proxy_args, proxy_ready, proxy_stop), daemon=True)
        proxy_thread.start()
        assert proxy_ready.wait(5)
        try:
            def connector(server_name, client_id):
                return TCPChannel("127.0.0.1", proxy_ready.ready_port,
                                  client_id)

            writer = InterWeaveClient("w", X86_32, connector)
            seg = writer.open_segment("tool/data")
            writer.wl_acquire(seg)
            writer.malloc(seg, INT, name="v").set(42)
            writer.wl_release(seg)

            reader = InterWeaveClient("r", SPARC_V9, connector)
            seg_r = reader.open_segment("tool/data", create=False)
            reader.rl_acquire(seg_r)
            assert reader.accessor_for(seg_r, "v").get() == 42
            reader.rl_release(seg_r)
            # the stats RPC is answered by the relay itself
            stats = reader.server_stats("tool")
            assert stats["proxy"]["origin"] == "tool"
            assert stats["proxy"]["hits"] >= 1
        finally:
            proxy_stop.set()
            proxy_thread.join(timeout=5)
            origin_stop.set()
            origin_thread.join(timeout=5)

    def test_parser_defaults(self):
        from repro.tools.proxy_main import build_parser

        args = build_parser().parse_args(
            ["--origin-host", "127.0.0.1", "--origin-port", "9"])
        assert args.name == "server"
        assert args.max_staleness == pytest.approx(0.05)
        assert args.diff_cache_mb == 16


class TestClusterTool:
    def test_serve_shard_and_migrate(self):
        from repro import DirectoryResolver, MuxConnectionPool
        from repro.wire.messages import (
            DIR_MIGRATE,
            DirectoryUpdateReply,
            DirectoryUpdateRequest,
            decode_message,
            encode_message,
        )
        from repro.tools import cluster_main

        args = cluster_main.build_parser().parse_args(["--origins", "2"])
        ready, stop = threading.Event(), threading.Event()
        thread = threading.Thread(target=cluster_main.serve,
                                  args=(args, ready, stop), daemon=True)
        thread.start()
        assert ready.wait(10)
        ports = ready.ready_ports
        assert set(ports["origins"]) == {"origin-0", "origin-1"}
        addresses = {"directory": ("127.0.0.1", ports["directory"])}
        for name, port in ports["origins"].items():
            addresses[name] = ("127.0.0.1", port)
        pool = MuxConnectionPool(addresses)
        try:
            client = InterWeaveClient(
                "c", X86_32, pool.connect,
                resolver=DirectoryResolver(pool.connect, client_id="c"))
            seg = client.open_segment("app/data")
            client.wl_acquire(seg)
            client.malloc(seg, INT, name="v").set(7)
            client.wl_release(seg)

            # drive a migration through the directory's wire protocol
            home = client.resolver.resolve("app/data")
            target = next(n for n in ports["origins"] if n != home)
            channel = pool.connect("directory", "admin")
            reply = decode_message(channel.request(encode_message(
                DirectoryUpdateRequest(DIR_MIGRATE, origin=target,
                                       segment="app/data",
                                       client_id="admin"))))
            channel.close()
            assert isinstance(reply, DirectoryUpdateReply) and reply.ok

            client.rl_acquire(seg)
            assert client.accessor_for(seg, "v").get() == 7
            client.rl_release(seg)
            assert client.stats.redirects_followed >= 1
            client.close()
        finally:
            pool.close()
            stop.set()
            thread.join(timeout=5)

    def test_parser_defaults(self):
        from repro.tools.cluster_main import build_parser

        args = build_parser().parse_args([])
        assert args.origins == 2
        assert args.host == "127.0.0.1"
        assert args.ring_replicas == 64


class TestInspectTool:
    def test_describe_checkpoint(self, tmp_path, capsys):
        from repro.tools.inspect_main import main
        from tests.test_server_segment import make_segment_with_array

        state, _ = make_segment_with_array(64)
        path = write_checkpoint(state, str(tmp_path))
        assert main([path, "--blocks", "--types"]) == 0
        out = capsys.readouterr().out
        assert "version      : 1" in out
        assert "blocks       : 1" in out
        assert "Array(Prim(int) x 64)" in out

    def test_missing_file(self, tmp_path):
        from repro.errors import CheckpointError
        from repro.tools.inspect_main import main

        with pytest.raises(CheckpointError):
            main([str(tmp_path / "nope.iwck")])


class TestIdlcTool:
    IDL = """
    const N = 3;
    struct node { int key; node *next; double weights[N]; };
    """

    def test_emit_header(self, tmp_path, capsys):
        from repro.tools.idlc_main import main

        source = tmp_path / "types.idl"
        source.write_text(self.IDL)
        assert main([str(source)]) == 0
        out = capsys.readouterr().out
        assert "#ifndef IW_TYPES_H" in out
        assert "struct node {" in out
        assert "double weights[3];" in out

    def test_output_file_and_guard(self, tmp_path):
        from repro.tools.idlc_main import main

        source = tmp_path / "types.idl"
        source.write_text(self.IDL)
        header = tmp_path / "types.h"
        assert main([str(source), "-o", str(header), "--guard", "MY_H"]) == 0
        text = header.read_text()
        assert text.startswith("#ifndef MY_H")

    def test_layout_report(self, tmp_path, capsys):
        from repro.tools.idlc_main import main

        source = tmp_path / "types.idl"
        source.write_text(self.IDL)
        assert main([str(source), "--layout", "sparc-v9"]) == 0
        out = capsys.readouterr().out
        assert "layouts on sparc-v9" in out
        assert "translation program" in out

    def test_bad_idl_reports_error(self, tmp_path, capsys):
        from repro.tools.idlc_main import main

        source = tmp_path / "bad.idl"
        source.write_text("struct { int x; };")
        assert main([str(source)]) == 1
        assert "repro-idlc" in capsys.readouterr().err

    def test_missing_source(self, tmp_path):
        from repro.tools.idlc_main import main

        assert main([str(tmp_path / "missing.idl")]) == 2
