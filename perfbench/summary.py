"""Turn measured phases and spans into the reported metrics."""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

from layers import LAYERS
from spans import AMOUNT, END, LAYER, NAME, PARENT, START, root_of, self_times

#: samples a tail percentile must leave above it
TAIL_BEYOND = 10
#: samples per window when a run has enough for several windows
TAIL_WINDOW = 300


def tail(samples: List[float]) -> Tuple[float, float, int]:
    """``(value, percentile, windows)``: the tail of ``samples`` in order.

    Within a window the tail is the highest order statistic with at least
    ten samples above it: with ``n`` samples the ``n - 10``-th smallest,
    the ``100 * (n - 10) / n`` percentile.  A run with fewer than two
    windows' worth of samples is one window.  Otherwise the samples are
    cut, in the order taken, into windows of ``TAIL_WINDOW`` (the last one
    takes the remainder) and the median of the windows' tails is reported.
    A pooled p99.9 over thousands of short sections rests on ten samples,
    which a few stalls of a shared machine move by a third from run to
    run; the median over windows does not move with them.  With ten or
    fewer samples no value qualifies; the largest is returned, as
    percentile 100.
    """
    if not samples:
        raise ValueError("no samples")
    count = max(1, len(samples) // TAIL_WINDOW)
    size = len(samples) // count
    windows = [samples[k * size:(k + 1) * size if k < count - 1 else None]
               for k in range(count)]
    tails = sorted(_window_tail(window) for window in windows)
    middle = tails[(len(tails) - 1) // 2]
    return middle[0], middle[1], count


def _window_tail(samples: List[float]) -> Tuple[float, float]:
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def client_peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(phase, setup_runs: List[float], server_rss_mb: float) -> Tuple[dict, List[str]]:
    """The end-to-end metrics of an untraced phase, and notes stating each
    tail's percentile and sample count."""
    write_tail, write_pct, write_windows = tail(phase.write_ms)
    read_tail, read_pct, read_windows = tail(phase.read_ms)
    metrics = {
        "write_p50_ms": (statistics.median(phase.write_ms), "ms"),
        "write_tail_ms": (write_tail, "ms"),
        "read_p50_ms": (statistics.median(phase.read_ms), "ms"),
        "read_tail_ms": (read_tail, "ms"),
        "sections_per_s": (phase.sections / phase.seconds, "1/s"),
        "wire_bytes_per_section": (phase.client_bytes / phase.sections, "bytes"),
        "setup_s": (statistics.median(setup_runs), "s"),
        "server_peak_rss_mb": (server_rss_mb, "MB"),
        "client_peak_rss_mb": (client_peak_rss_mb(), "MB"),
    }
    notes = [
        f"write_tail_ms is p{write_pct:.1f}, median of {write_windows} "
        f"window(s), of {len(phase.write_ms)} write sections",
        f"read_tail_ms is p{read_pct:.1f}, median of {read_windows} "
        f"window(s), of {len(phase.read_ms)} read sections",
        f"setup_s is the median of {len(setup_runs)} set-ups: "
        + ", ".join(f"{s:.3f}" for s in setup_runs),
        f"ops_failed_ratio = {phase.failed / max(1, phase.sections):.6f} "
        f"({phase.failed} of {phase.sections} sections)",
        f"transport bytes: clients {phase.client_bytes} "
        f"(both directions, both channels); server received "
        f"{phase.server_delta('transport.server.bytes_received')}, "
        f"sent {phase.server_delta('transport.server.bytes_sent')}",
        f"requests: channels sent {phase.client_requests}, server counted "
        f"{phase.server_requests} (server.requests delta minus the stats "
        f"request), transport.server.requests delta "
        f"{phase.server_delta('transport.server.requests') - 1}",
    ]
    return metrics, notes


def _in_section(span: list):
    root = root_of(span)
    name = root[NAME]
    if name == "section.write":
        return "write"
    if name == "section.read":
        return "read"
    return None


def _has_ancestor_layer(span: list, layer: str) -> bool:
    parent = span[PARENT]
    while parent is not None:
        if parent[LAYER] == layer:
            return True
        parent = parent[PARENT]
    return False


def per_layer(phase, client_spans: List[list], server_spans: List[list],
              untraced_sections_per_s: float) -> Tuple[dict, List[str]]:
    """The per-layer metrics of a traced phase (spans already joined)."""
    spans = client_spans + server_spans
    own = self_times(spans)
    server_ids = {id(span) for span in server_spans}

    layer_ns: Dict[str, int] = defaultdict(int)
    name_ns: Dict[Tuple[str, str], int] = defaultdict(int)
    section_ns = 0
    requests = dispatches = 0
    twins = 0
    load_bytes = server_load_bytes = 0
    reencode_ns = 0
    for span in spans:
        kind = _in_section(span)
        if kind is None:
            continue
        name, layer = span[NAME], span[LAYER]
        if layer == "bench":
            section_ns += span[END] - span[START]
            continue
        ns = own[id(span)]
        layer_ns[layer] += ns
        name_ns[(kind, name)] += ns
        on_server = id(span) in server_ids
        if name == "channel.request":
            requests += 1
        elif name == "server.dispatch":
            dispatches += 1
        elif name == "encode_segment_diff" and span[PARENT][NAME] == "server.release":
            reencode_ns += ns
        elif kind == "write" and name == "mmu.snapshot_page" and not on_server:
            twins += 1
        elif kind == "write" and name == "mmu.load":
            if on_server:
                server_load_bytes += span[AMOUNT]
            elif _has_ancestor_layer(span, "client"):
                # loads the client library makes, not the application's own
                load_bytes += span[AMOUNT]

    writes, reads = max(1, phase.writes), max(1, phase.reads)
    sections = max(1, phase.sections)
    changed = max(1, phase.changed_bytes)
    ms = 1e-6
    hits = phase.server_delta("diff_cache.hits")
    misses = phase.server_delta("diff_cache.misses")
    lock_wait_s = sum(phase.server_histogram_delta(f"server.lock.{kind}_seconds")
                      for kind in ("table_wait", "read_wait", "write_wait"))
    traced_sps = phase.sections / phase.seconds
    budget = {layer: layer_ns.get(layer, 0) * ms / sections for layer in LAYERS}
    section_ms = section_ns * ms / sections
    metrics = {
        "client.collect.ms_per_write": (
            name_ns[("write", "collect_write_diff")] * ms / writes, "ms"),
        "client.apply.ms_per_read": (
            name_ns[("read", "apply_update")] * ms / reads, "ms"),
        "memory.mmu.load_bytes_per_write": (load_bytes / writes, "bytes"),
        "memory.mmu.server_load_bytes_per_write": (
            server_load_bytes / writes, "bytes"),
        "memory.mmu.twins_per_write": (twins / writes, "count"),
        "transport.wire_ms_per_request": (
            layer_ns.get("transport", 0) * ms / max(1, requests), "ms"),
        "transport.requests_per_section": (requests / sections, "count"),
        "server.dispatch_self_ms_per_request": (
            layer_ns.get("server", 0) * ms / max(1, dispatches), "ms"),
        "server.lock_wait_ms_per_request": (
            lock_wait_s * 1e3 / max(1, phase.server_requests), "ms"),
        "server.segment_state.apply_ms_per_write": (
            name_ns[("write", "apply_client_diff")] * ms / writes, "ms"),
        "server.reencode_ms_per_write": (reencode_ns * ms / writes, "ms"),
        "server.compose.ms_per_read": (
            name_ns[("read", "compose_from_cache")] * ms / reads, "ms"),
        "server.segment_state.build_update_ms_per_read": (
            name_ns[("read", "build_update")] * ms / reads, "ms"),
        "server.diff_cache.hit_ratio": (hits / max(1, hits + misses), "ratio"),
        "server.diff_cache.lookups": (hits + misses, "count"),
        "server.diff_cache.evictions": (
            phase.server_delta("diff_cache.evictions"), "count"),
        "server.wal.append_ms_per_write": (
            name_ns[("write", "wal.append")] * ms / writes, "ms"),
        "server.wal.bytes_per_changed_byte": (
            phase.server_delta("server.wal_bytes") / changed, "ratio"),
        "wire.bytes_copied_per_changed_byte": (
            phase.server_delta("wire.bytes_copied") / changed, "ratio"),
        "unattributed_ms_per_section": (
            section_ms - sum(budget.values()), "ms"),
        "trace.overhead_ratio": (
            untraced_sections_per_s / traced_sps if traced_sps else 0.0, "ratio"),
    }
    for layer in LAYERS:
        metrics[f"budget.{layer}.self_ms_per_section"] = (budget[layer], "ms")
    notes = [
        f"traced phase: {phase.writes} writes, {phase.reads} reads in "
        f"{phase.seconds:.2f} s; mean section {section_ms:.3f} ms",
        f"server.diff_cache.hit_ratio base: {hits} hits of {hits + misses} lookups",
        f"changed bytes (writer's local format): {phase.changed_bytes}",
        "layer self ms per section: " + ", ".join(
            f"{layer}={value:.3f}" for layer, value in budget.items()),
    ]
    return metrics, notes
