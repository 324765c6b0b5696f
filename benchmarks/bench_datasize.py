#!/usr/bin/env python3
"""Data-size benchmark: the diff data plane at the paper's MB scale.

The paper's evaluation (figures 4 and 6) translates 1 MB working sets;
its diff-vs-RPC story is a *bandwidth* story — when a modest fraction of
a segment changes, wire diffs ship a fraction of the bytes an RPC-style
full transfer (XDR deep copy) must marshal, and that margin is what
makes shared state practical over real links.  This benchmark prices
that story at production data sizes — 1, 8, and 32 MB integer arrays
with 10% scattered writes (every 10th word, so run splicing cannot merge
anything) — against three yardsticks:

- **XDR full transfer** (``repro.rpc.xdr``): marshal + unmarshal of the
  whole array, the RPC baseline of figure 4, measured at every size;
- **the pre-change data plane** (the reference codec in
  ``benchmarks/legacy_dataplane.py``, installed for the baseline run
  only): the interleaved per-run encode/decode that walks and copies
  every run's payload on its own, measured at the 8 MB point (it is
  quadratically painful beyond that);
- **copy amplification**: every byte the release path copies —
  ``wire.bytes_copied`` (payload materializations) plus
  ``mmu.bytes_loaded`` and ``mmu.bytes_stored`` (bytes moved in and out
  of client and server memory) — over the bytes actually shipped, so a
  whole-block image load or store cannot hide from it.

The measured operation is the full write-release path: client word
diffing + columnar collect + single-buffer encode, server decode +
vectorized scatter-apply + subblock stamping + re-encode into the diff
cache and WAL (the WAL tier is enabled, ``fsync`` off).

A second, sparse series releases :data:`SPARSE_WORDS` scattered words at
1 MB and 32 MB: the diff is the same size at both points, so its release
time must not follow the block size (the paper's Figure 5 claim that
server collect/apply stay flat in the data size).

Acceptance (see the tests below):

- the zero-copy data plane releases >= 2x faster than the legacy
  codec at 8 MB / 10% scattered writes;
- copy amplification on the release path stays <= 3x the shipped bytes;
- an 8-word release at 32 MB takes <= 2x the time of one at 1 MB;
- the 10%-scattered release scales linearly: at the largest size it
  takes at most 1.5x the data-size ratio times the release at the next
  size (32 MB vs 8 MB: <= 6x, where a quadratic path reads ~16x);
- the diff wins the paper's margin at every size: <= 60% of XDR's wire
  bytes, and faster end-to-end under the modeled LAN bandwidth
  (``REPRO_BENCH_DATASIZE_MBPS``, default 100 Mbit/s — the paper era's
  fast Ethernet);
- a cProfile gate: no per-word or per-page Python loop
  (``_collect_per_unit``, ``_apply_per_unit``, ``iter_units``, or any
  function called at least once per page of the block) may appear in the
  hot profile of an 8 MB release.

Results land in ``BENCH_datasize.json`` at the repo root plus a metrics
sidecar in ``benchmarks/out/``.  Every phase is deadline-guarded
(``REPRO_BENCH_DATASIZE_DEADLINE`` seconds) so a regression that turns
the 32 MB point quadratic fails loudly instead of hanging CI.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_datasize.py

or as a test::

    PYTHONPATH=src python -m pytest benchmarks/bench_datasize.py -q
"""

from __future__ import annotations

import cProfile
import contextlib
import json
import os
import pstats
import random
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np

import legacy_dataplane
from common import World, build_workload

from repro import InProcHub, InterWeaveClient, InterWeaveServer, VirtualClock
from repro.arch import X86_32, PrimKind
from repro.memory import PAGE_SIZE
from repro.obs import get_registry, write_sidecar
from repro.rpc import XDRTranslator
from repro.types import INT, ArrayDescriptor, encode_descriptor
from repro.wire import RunColumns, decode_segment_diff, encode_segment_diff
from repro.wire.diff import BlockDiff, SegmentDiff

#: working-set sizes in MiB (the paper ran at 1; 8 and 32 are the
#: "production data sizes" this data plane is built for)
POINTS_MB = [int(point) for point in os.environ.get(
    "REPRO_BENCH_DATASIZE_POINTS", "1,8,32").split(",")]
#: every RATIO-th word is changed: 10% of the data, scattered so the
#: 2-word splice window cannot merge runs (the worst case for run count)
RATIO = 10
ROUNDS = int(os.environ.get("REPRO_BENCH_DATASIZE_ROUNDS", "3"))
#: modeled link bandwidth for the end-to-end comparison, Mbit/s
MODEL_MBPS = float(os.environ.get("REPRO_BENCH_DATASIZE_MBPS", "100"))
#: per-phase hang guard, like REPRO_BENCH_CONNSCALE_DEADLINE
DEADLINE_SECONDS = float(os.environ.get("REPRO_BENCH_DATASIZE_DEADLINE",
                                        "300"))
#: the legacy data plane is only priced at its survivable size
LEGACY_MB = 8
#: scattered words changed by each release of the sparse series
SPARSE_WORDS = 8
#: block sizes (MiB) of the sparse series: smallest and largest
SPARSE_POINTS_MB = (1, 32)
#: the sparse release at the largest size may take at most this many
#: times the smallest one
SPARSE_SCALING_BOUND = 2.0
#: slack over the data-size ratio allowed between the 10%-scattered
#: releases at the two largest sizes (linear scaling plus 50%)
LINEAR_SCALING_SLACK = 1.5
#: functions that are, by construction, per-word Python loops — none may
#: show up in the hot profile of an MB-scale release
BANNED_HOT_FUNCTIONS = {"_collect_per_unit", "_apply_per_unit",
                        "iter_units"}
PROFILE_TOP_N = 25

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(REPO_ROOT, "BENCH_datasize.json")


class _Deadline:
    """Per-phase watchdog: raises instead of letting a phase hang."""

    def __init__(self, label: str, seconds: float = DEADLINE_SECONDS):
        self.label = label
        self.expires = time.monotonic() + seconds
        self.seconds = seconds

    def check(self, phase: str) -> None:
        if time.monotonic() > self.expires:
            raise RuntimeError(
                f"{self.label}: {phase} missed the {self.seconds:.0f}s "
                f"deadline (REPRO_BENCH_DATASIZE_DEADLINE)")


def _make_world(wal_dir: str) -> World:
    """A bench world with the durability tier on (WAL, fsync off) so the
    release path includes the append the server really pays."""
    clock = VirtualClock()
    hub = InProcHub(clock=clock)
    server = InterWeaveServer("bench", sink=hub, clock=clock,
                              wal_dir=wal_dir, wal_fsync=False)
    hub.register_server("bench", server)
    client = InterWeaveClient("writer", X86_32, hub.connect, clock=clock)
    return World(clock, hub, server, client)


def _modify_scattered(workload, salt: int) -> None:
    """Read-modify-write every RATIO-th word of the array."""
    client = workload.world.client
    address = workload.block.address
    dtype = client.arch.numpy_dtype(PrimKind.INT)
    raw = bytearray(client.memory.load(address, workload.block.size))
    words = np.frombuffer(raw, dtype=dtype)
    updated = words.copy()
    updated[::RATIO] = (updated[::RATIO] + salt + 1) % 100000
    client.memory.store(address, updated.tobytes())


#: every byte the release path copies: payload materializations plus
#: bytes moved in and out of client and server memory
_COPY_COUNTERS = {"bytes_copied": "wire.bytes_copied",
                  "mmu_bytes_loaded": "mmu.bytes_loaded",
                  "mmu_bytes_stored": "mmu.bytes_stored"}


def _copy_counters(registry) -> dict:
    return {key: registry.counter(name).value
            for key, name in _COPY_COUNTERS.items()}


def _measure_release(data_bytes: int, legacy: bool,
                     deadline: _Deadline, rounds: int = ROUNDS) -> dict:
    """Best-of-N wall time of the full release path, plus the byte
    accounting (shipped diff size, copies) of one representative round."""
    registry = get_registry()
    codec = (legacy_dataplane.installed() if legacy
             else contextlib.nullcontext())
    with codec, tempfile.TemporaryDirectory(prefix="bench-datasize-") as tmp:
        world = _make_world(tmp)
        workload = build_workload("int_array", world,
                                  data_bytes=data_bytes)
        client = world.client
        times, accounting = [], None
        for salt in range(rounds):
            deadline.check(f"release round {salt}")
            client.wl_acquire(workload.segment)
            _modify_scattered(workload, salt)
            before = _copy_counters(registry)
            started = time.perf_counter()
            client.wl_release(workload.segment)
            times.append(time.perf_counter() - started)
            if accounting is None:
                after = _copy_counters(registry)
                version = workload.segment.version
                encoded = world.server.diff_cache.get(
                    workload.segment.name, version - 1, version)
                accounting = {
                    "diff_wire_bytes": len(encoded) if encoded else 0,
                    **{key: after[key] - before[key] for key in after},
                }
        wire_bytes = max(accounting["diff_wire_bytes"], 1)
        copied = sum(accounting[key] for key in _COPY_COUNTERS)
        return {
            "release_s": min(times),
            "release_rounds_s": times,
            "copy_amplification": copied / wire_bytes,
            **accounting,
        }


def _measure_sparse_release(data_bytes: int, deadline: _Deadline,
                            rounds: int = ROUNDS) -> dict:
    """Best-of-N release time of :data:`SPARSE_WORDS` scattered words."""
    with tempfile.TemporaryDirectory(prefix="bench-datasize-") as tmp:
        world = _make_world(tmp)
        workload = build_workload("int_array", world, data_bytes=data_bytes)
        client = world.client
        address = workload.block.address
        words = np.linspace(0, workload.block.size // 4 - 1, SPARSE_WORDS,
                            dtype=np.int64).tolist()
        times = []
        for salt in range(rounds):
            deadline.check(f"sparse release round {salt}")
            client.wl_acquire(workload.segment)
            for word in words:
                client.memory.store(address + 4 * word,
                                    (salt + 1 + word).to_bytes(4, "little"))
            started = time.perf_counter()
            client.wl_release(workload.segment)
            times.append(time.perf_counter() - started)
    return {"mb": data_bytes >> 20, "words": SPARSE_WORDS,
            "release_s": min(times), "release_rounds_s": times}


def _measure_xdr(data_bytes: int, deadline: _Deadline,
                 rounds: int = ROUNDS) -> dict:
    """Full-transfer baseline: XDR deep-copy marshal + unmarshal."""
    clock = VirtualClock()
    hub = InProcHub(clock=clock)
    server = InterWeaveServer("bench", sink=hub, clock=clock)
    hub.register_server("bench", server)
    client = InterWeaveClient("writer", X86_32, hub.connect, clock=clock)
    world = World(clock, hub, server, client)
    workload = build_workload("int_array", world, data_bytes=data_bytes)
    translator = XDRTranslator(workload.descriptor, world.client.arch)
    memory, address = world.client.memory, workload.block.address
    marshal_times, unmarshal_times = [], []
    wire = b""
    for _ in range(rounds):
        deadline.check("xdr round")
        started = time.perf_counter()
        wire = translator.marshal(memory, address)
        marshal_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        translator.unmarshal(memory, address, wire)
        unmarshal_times.append(time.perf_counter() - started)
    return {
        "xdr_marshal_s": min(marshal_times),
        "xdr_unmarshal_s": min(unmarshal_times),
        "xdr_wire_bytes": len(wire),
    }


def _modeled_e2e(cpu_seconds: float, wire_bytes: int) -> float:
    """End-to-end seconds under the modeled link: CPU + transfer."""
    return cpu_seconds + wire_bytes / (MODEL_MBPS * 125_000.0)


def _profile_release(data_bytes: int, deadline: _Deadline) -> dict:
    """cProfile one release; return the top-N tottime functions and any
    banned per-word or per-page loops among them."""
    with tempfile.TemporaryDirectory(prefix="bench-datasize-") as tmp:
        world = _make_world(tmp)
        workload = build_workload("int_array", world, data_bytes=data_bytes)
        client = world.client
        client.wl_acquire(workload.segment)
        _modify_scattered(workload, salt=99)
        deadline.check("profiled release")
        profiler = cProfile.Profile()
        profiler.enable()
        client.wl_release(workload.segment)
        profiler.disable()
    stats = pstats.Stats(profiler)
    entries = sorted(stats.stats.items(),
                     key=lambda item: item[1][2], reverse=True)
    words = data_bytes // 4
    pages = data_bytes // PAGE_SIZE
    top, offenders = [], []
    for (filename, lineno, name), (cc, ncalls, tottime, _, _) in \
            entries[:PROFILE_TOP_N]:
        row = {"function": name, "file": os.path.basename(filename),
               "calls": ncalls, "tottime_s": round(tottime, 6)}
        top.append(row)
        if name in BANNED_HOT_FUNCTIONS:
            offenders.append(row)
        elif ncalls >= pages:  # looping once per page (or per word)
            offenders.append(row)
    return {"top": top, "offenders": offenders,
            "top_n": PROFILE_TOP_N, "words": words, "pages": pages}


def run_all() -> dict:
    registry = get_registry()
    registry.reset()
    points = []
    for size_mb in POINTS_MB:
        deadline = _Deadline(f"datasize-{size_mb}MB")
        data_bytes = size_mb << 20
        release = _measure_release(data_bytes, legacy=False,
                                   deadline=deadline)
        xdr = _measure_xdr(data_bytes, deadline=deadline)
        diff_e2e = _modeled_e2e(release["release_s"],
                                release["diff_wire_bytes"])
        xdr_e2e = _modeled_e2e(xdr["xdr_marshal_s"] + xdr["xdr_unmarshal_s"],
                               xdr["xdr_wire_bytes"])
        points.append({
            "mb": size_mb,
            "data_bytes": data_bytes,
            "change_ratio": RATIO,
            **release,
            **xdr,
            "wire_ratio": release["diff_wire_bytes"] / xdr["xdr_wire_bytes"],
            "diff_e2e_modeled_s": diff_e2e,
            "xdr_e2e_modeled_s": xdr_e2e,
            "modeled_speedup": xdr_e2e / diff_e2e,
        })

    sparse = []
    for size_mb in SPARSE_POINTS_MB:
        deadline = _Deadline(f"datasize-sparse-{size_mb}MB")
        sparse.append(_measure_sparse_release(size_mb << 20, deadline))
    sparse_scaling = {
        "points": sparse,
        "ratio": sparse[-1]["release_s"] / sparse[0]["release_s"],
        "bound": SPARSE_SCALING_BOUND,
    }

    smaller, larger = sorted(points, key=lambda point: point["mb"])[-2:]
    linear_scaling = {
        "mb": [smaller["mb"], larger["mb"]],
        "ratio": larger["release_s"] / smaller["release_s"],
        "bound": LINEAR_SCALING_SLACK * larger["mb"] / smaller["mb"],
    }

    legacy_mb = max((mb for mb in POINTS_MB if mb <= LEGACY_MB),
                    default=min(POINTS_MB))
    deadline = _Deadline(f"datasize-legacy-{legacy_mb}MB")
    legacy = _measure_release(legacy_mb << 20, legacy=True,
                              deadline=deadline,
                              rounds=max(2, ROUNDS - 1))
    new_point = next(p for p in points if p["mb"] == legacy_mb)
    legacy_baseline = {
        "mb": legacy_mb,
        **legacy,
        "speedup": legacy["release_s"] / new_point["release_s"],
    }

    profile_mb = legacy_mb  # the 8 MB point unless POINTS_MB says otherwise
    deadline = _Deadline(f"datasize-profile-{profile_mb}MB")
    profile = _profile_release(profile_mb << 20, deadline=deadline)

    results = {
        "points": points,
        "sparse_scaling": sparse_scaling,
        "linear_scaling": linear_scaling,
        "legacy_baseline": legacy_baseline,
        "profile_gate": profile,
        "config": {
            "points_mb": POINTS_MB,
            "change_ratio": RATIO,
            "rounds": ROUNDS,
            "model_mbps": MODEL_MBPS,
            "workload": "int_array, every 10th word rewritten "
                        "(10% scattered; no run splicing possible)",
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(RESULTS_PATH, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    write_sidecar(os.path.join(OUT_DIR, "bench_datasize.metrics.json"),
                  registry.snapshot())
    return results


_cache: dict = {}


def _results() -> dict:
    if "results" not in _cache:
        _cache["results"] = run_all()
    return _cache["results"]


def test_release_beats_legacy_dataplane_2x():
    """At 8 MB / 10% scattered writes the zero-copy data plane must
    release >= 2x faster than the pre-change (legacy codec) plane."""
    results = _results()
    baseline = results["legacy_baseline"]
    assert baseline["speedup"] >= 2.0, baseline


def test_copy_amplification_bounded():
    """Bytes materialized on the release path stay <= 3x the bytes
    actually shipped, at every size."""
    results = _results()
    for point in results["points"]:
        assert point["copy_amplification"] <= 3.0, point


def test_sparse_release_flat_in_block_size():
    """An 8-word release at 32 MB costs <= 2x one at 1 MB: the release
    path follows the diff, not the block."""
    scaling = _results()["sparse_scaling"]
    assert scaling["ratio"] <= scaling["bound"], scaling


def test_scattered_release_scales_linearly():
    """The 10%-scattered release at the largest size costs at most 1.5x
    the data-size ratio times the release at the next size: the path is
    linear in the diff, not quadratic."""
    scaling = _results()["linear_scaling"]
    assert scaling["ratio"] <= scaling["bound"], scaling


def test_diff_beats_xdr_margin():
    """The paper's story at every size: the diff ships well under the
    full-transfer bytes and wins end-to-end on the modeled link."""
    results = _results()
    for point in results["points"]:
        assert point["wire_ratio"] <= 0.6, point
        assert point["modeled_speedup"] >= 1.2, point


def test_no_per_word_python_loop_in_profile():
    """No per-word or per-page Python loop may appear in the hot profile
    of an MB-scale release (the zero-copy plane is columnar end to end)."""
    results = _results()
    gate = results["profile_gate"]
    assert not gate["offenders"], gate["offenders"]


def _random_segment_diff(rng: random.Random) -> SegmentDiff:
    """A structurally valid diff exercising every block-diff shape."""
    block_diffs = []
    for serial in range(1, rng.randint(2, 6)):
        kind = rng.choice(["plain", "named_new", "freed", "empty"])
        runs, cursor = [], 0
        for _ in range(rng.randint(0, 8) if kind != "freed" else 0):
            cursor += rng.randint(0, 20)
            count = rng.randint(1, 16)
            runs.append((cursor, count, rng.randbytes(count * 4)))
            cursor += count
        columns = RunColumns.from_runs(runs)
        if kind == "named_new":
            block_diffs.append(BlockDiff(
                serial=serial, columns=columns, is_new=True, type_serial=7,
                name=f"block-{serial}", version=rng.randint(0, 9)))
        elif kind == "freed":
            block_diffs.append(BlockDiff(serial=serial, freed=True))
        else:
            block_diffs.append(BlockDiff(serial=serial, columns=columns,
                                         version=rng.randint(0, 9)))
    new_types = []
    if rng.random() < 0.5:
        new_types.append((7, encode_descriptor(ArrayDescriptor(INT, 4))))
    return SegmentDiff("host/seg", rng.randint(1, 5), 6, block_diffs,
                       new_types=new_types)


def test_legacy_codec_roundtrips():
    """The baseline codec round-trips any diff to an equal object, so
    the release it prices does the same work as the columnar one."""
    for seed in range(60):
        diff = _random_segment_diff(random.Random(seed))
        with legacy_dataplane.installed():
            assert decode_segment_diff(encode_segment_diff(diff)) == diff


def test_legacy_and_columnar_bodies_same_size():
    """The columnar body reorders the legacy body's interleaved headers
    and never adds bytes, so every size figure is codec-independent."""
    for seed in range(60):
        diff = _random_segment_diff(random.Random(seed))
        columnar = encode_segment_diff(diff)
        with legacy_dataplane.installed():
            legacy = encode_segment_diff(diff)
        assert len(legacy) == len(columnar)
        assert decode_segment_diff(columnar) == diff


def test_results_file_written():
    _results()
    with open(RESULTS_PATH) as handle:
        doc = json.load(handle)
    assert doc["points"] and doc["legacy_baseline"]["speedup"] > 0


def main() -> None:
    results = _results()
    config = results["config"]
    print(f"data-size scaling (10% scattered writes, modeled link "
          f"{config['model_mbps']:.0f} Mbit/s, best of {config['rounds']})")
    print(f"{'size':>5s} {'release':>9s} {'diff MB':>8s} {'amp':>5s} "
          f"{'xdr cpu':>9s} {'xdr MB':>7s} {'e2e diff':>9s} "
          f"{'e2e xdr':>8s} {'win':>6s}")
    for point in results["points"]:
        xdr_cpu = point["xdr_marshal_s"] + point["xdr_unmarshal_s"]
        print(f"{point['mb']:4d}M {point['release_s'] * 1e3:8.1f}m "
              f"{point['diff_wire_bytes'] / 1e6:8.2f} "
              f"{point['copy_amplification']:5.2f} "
              f"{xdr_cpu * 1e3:8.1f}m {point['xdr_wire_bytes'] / 1e6:7.2f} "
              f"{point['diff_e2e_modeled_s'] * 1e3:8.1f}m "
              f"{point['xdr_e2e_modeled_s'] * 1e3:7.1f}m "
              f"{point['modeled_speedup']:5.2f}x")
    scaling = results["sparse_scaling"]
    print(f"{SPARSE_WORDS}-word release: " + ", ".join(
        f"{point['mb']}MB {point['release_s'] * 1e3:.2f}m"
        for point in scaling["points"])
        + f" (ratio {scaling['ratio']:.2f}x, bound {scaling['bound']:.1f}x)")
    linear = results["linear_scaling"]
    print(f"10%-scattered release {linear['mb'][0]}MB -> "
          f"{linear['mb'][1]}MB: {linear['ratio']:.2f}x "
          f"(bound {linear['bound']:.1f}x)")
    baseline = results["legacy_baseline"]
    print(f"legacy data plane @ {baseline['mb']}MB: "
          f"{baseline['release_s'] * 1e3:.1f} ms/release "
          f"(amp {baseline['copy_amplification']:.2f}x) -> zero-copy wins "
          f"{baseline['speedup']:.2f}x")
    gate = results["profile_gate"]
    print(f"profile gate: top-{gate['top_n']} clean"
          if not gate["offenders"] else
          f"profile gate: OFFENDERS {gate['offenders']}")
    print(f"[results -> {os.path.relpath(RESULTS_PATH)}]")


if __name__ == "__main__":
    main()
