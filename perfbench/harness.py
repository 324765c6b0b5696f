"""Server process, set-up and the closed-loop measured phase.

One process, one thread: a writer client on ``X86_32`` and a reader
client on ``SPARC_V9``, each with its own ``TCPChannel``, take turns
against one ``repro.tools.server_main`` subprocess (default ``--io``,
WAL in a scratch directory with ``--no-wal-fsync``).  A write section is
``wl_acquire`` + modifications + ``wl_release``; a read section is
``rl_acquire`` + reading the changed items + ``rl_release``.  The next
section starts only when the previous one has finished.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional

from repro import InterWeaveClient, TCPChannel
from repro.arch import SPARC_V9, X86_32
from repro.errors import InterWeaveError

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SERVER = "server"
SEGMENT = f"{SERVER}/perf"


class ServerProcess:
    """``repro.tools.server_main`` in a subprocess, or the span launcher
    around it when ``spans_out`` is given."""

    def __init__(self, spans_out: Optional[str] = None):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.wal_dir = tempfile.mkdtemp(prefix="wal-", dir=OUT_DIR)
        server_args = ["--name", SERVER, "--port", "0",
                       "--wal-dir", self.wal_dir, "--no-wal-fsync"]
        if spans_out is None:
            command = [sys.executable, "-m", "repro.tools.server_main"]
        else:
            command = [sys.executable, os.path.join(HERE, "launcher.py"),
                       "--spans-out", spans_out, "--"]
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.proc = subprocess.Popen(command + server_args, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE, text=True)
        banner = self.proc.stdout.readline()
        match = re.search(r"listening on [^:]+:(\d+) ", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(match.group(1))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGINT (the server's own shutdown path), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)


@dataclass
class World:
    server: ServerProcess
    writer: InterWeaveClient
    reader: InterWeaveClient
    segment: object
    reader_segment: object
    channels: List[TCPChannel]
    setup_s: float

    def close(self) -> None:
        try:
            self.writer.close()
            self.reader.close()
        finally:
            self.server.stop()


def set_up(workload, spans_out: Optional[str] = None) -> World:
    """Server start, segment creation, initial fill, first release and the
    reader's first fetch; ``setup_s`` times all of it."""
    started = time.perf_counter()
    server = ServerProcess(spans_out)
    channels: List[TCPChannel] = []

    def connect(_server: str, client_id: str) -> TCPChannel:
        channel = TCPChannel("127.0.0.1", server.port, client_id)
        channels.append(channel)
        return channel

    try:
        writer = InterWeaveClient("writer", X86_32, connect)
        reader = InterWeaveClient("reader", SPARC_V9, connect)
        segment = writer.open_segment(SEGMENT)
        writer.wl_acquire(segment)
        workload.fill(writer, segment)
        writer.wl_release(segment)
        reader_segment = reader.open_segment(SEGMENT)
        reader.rl_acquire(reader_segment)
        reader.rl_release(reader_segment)
    except BaseException:
        server.stop()
        raise
    setup_s = time.perf_counter() - started
    workload.attach(writer, reader, reader_segment)
    return World(server, writer, reader, segment, reader_segment, channels,
                 setup_s)


def _counter(stats: dict, name: str) -> int:
    return stats["metrics"]["counters"].get(name, 0)


def _histogram_sum(stats: dict, name: str) -> float:
    return stats["metrics"]["histograms"].get(name, {}).get("sum", 0.0)


@dataclass
class Phase:
    """What one measured phase did and saw."""

    seconds: float = 0.0
    writes: int = 0
    reads: int = 0
    failed: int = 0
    write_ms: List[float] = field(default_factory=list)
    read_ms: List[float] = field(default_factory=list)
    changed_bytes: int = 0
    client_bytes: int = 0
    client_requests: int = 0
    server_requests: int = 0
    server_version: int = 0
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def sections(self) -> int:
        return self.writes + self.reads

    def server_delta(self, name: str) -> int:
        return _counter(self.stats_after, name) - _counter(self.stats_before, name)

    def server_histogram_delta(self, name: str) -> float:
        return (_histogram_sum(self.stats_after, name)
                - _histogram_sum(self.stats_before, name))


def _channel_totals(channels) -> tuple:
    return (sum(ch.stats.requests for ch in channels),
            sum(ch.stats.total_bytes for ch in channels))


@contextmanager
def _section(recorder, name: str):
    """A root span around one section when tracing."""
    span = recorder.begin(name, "bench") if recorder is not None else None
    try:
        yield
    finally:
        if span is not None:
            recorder.end(span)


def measure(world: World, workload, seconds: float, recorder=None) -> Phase:
    """Run whole cycles (``reads_every`` writes, then one read) until
    ``seconds`` have passed; check every read against the model."""
    phase = Phase()
    writer, reader = world.writer, world.reader
    phase.stats_before = writer.server_stats(SERVER)
    requests_before, bytes_before = _channel_totals(world.channels)
    started = time.perf_counter()
    deadline = started + seconds
    try:
        while time.perf_counter() < deadline:
            pending = []
            for _ in range(workload.reads_every):
                inp = workload.write_input(phase.writes)
                with _section(recorder, "section.write"):
                    t0 = time.perf_counter()
                    writer.wl_acquire(world.segment)
                    workload.write(inp)
                    writer.wl_release(world.segment)
                    phase.write_ms.append((time.perf_counter() - t0) * 1e3)
                workload.commit(inp)
                phase.writes += 1
                phase.changed_bytes += workload.changed_bytes(inp)
                pending.append(inp)
            with _section(recorder, "section.read"):
                t0 = time.perf_counter()
                reader.rl_acquire(world.reader_segment)
                observed = workload.read(pending)
                reader.rl_release(world.reader_segment)
                phase.read_ms.append((time.perf_counter() - t0) * 1e3)
            phase.reads += 1
            expected_version = 1 + phase.writes
            if world.reader_segment.version != expected_version:
                phase.failed += 1
                phase.errors.append(
                    f"read {phase.reads} saw version "
                    f"{world.reader_segment.version}, expected {expected_version}")
            elif not workload.check(observed):
                phase.failed += 1
                phase.errors.append(f"read {phase.reads} returned values "
                                    f"that differ from the model")
    except InterWeaveError as exc:
        # the section that raised never completed: count it and stop, the
        # lock state of a half-done section is unknown
        phase.failed += 1
        phase.errors.append(f"section raised {type(exc).__name__}: {exc}")
    phase.seconds = time.perf_counter() - started
    requests_after, bytes_after = _channel_totals(world.channels)
    phase.client_requests = requests_after - requests_before
    phase.client_bytes = bytes_after - bytes_before
    phase.stats_after = writer.server_stats(SERVER)
    # the "after" snapshot counts itself; the "before" one is not in the delta
    phase.server_requests = phase.server_delta("server.requests") - 1
    phase.server_version = (phase.stats_after["server"]["segments"]
                            [SEGMENT]["version"])
    _final_check(world, workload, phase)
    return phase


def _final_check(world: World, workload, phase: Phase) -> None:
    """The server holds the setup write plus every measured write, and the
    reader, brought up to date outside any section, matches the model."""
    expected = 1 + phase.writes
    if phase.server_version != expected:
        phase.errors.append(f"server is at version {phase.server_version}, "
                            f"expected {expected}")
    if phase.server_requests != phase.client_requests:
        phase.errors.append(
            f"server counted {phase.server_requests} requests, the "
            f"benchmark's channels sent {phase.client_requests}")
    if phase.errors:
        return
    reader = world.reader
    reader.rl_acquire(world.reader_segment)
    try:
        if not workload.check_all():
            phase.errors.append("reader's final copy differs from the model")
    finally:
        reader.rl_release(world.reader_segment)
