"""Which functions the traced run wraps, and the layer each belongs to.

Layers are named after the repo's modules.  Every target is the name the
caller looks up at call time, so the wrapper sees every call: a function
imported into the calling module is wrapped there, a method on its class.
"""

from __future__ import annotations

from spans import SpanRecorder


def _channel_client_id(args) -> str:
    return args[0]._client_id.decode("utf-8")


def _dispatch_client_id(args) -> str:
    return args[1]


def _load_size(args) -> int:
    return args[2]


#: shared by both processes: the MMU and the diff wire format
_COMMON = [
    ("repro.memory.mmu:AddressSpace.load", "mmu.load", "memory.mmu",
     {"amount_of": _load_size}),
    ("repro.memory.mmu:AddressSpace.store", "mmu.store", "memory.mmu", {}),
    ("repro.memory.mmu:AddressSpace.snapshot_page", "mmu.snapshot_page",
     "memory.mmu", {}),
    ("repro.memory.mmu:AddressSpace.protect_range", "mmu.protect_range",
     "memory.mmu", {}),
    ("repro.memory.mmu:AddressSpace.unprotect_range", "mmu.unprotect_range",
     "memory.mmu", {}),
    ("repro.wire.messages:encode_segment_diff_into", "diff.encode_into",
     "wire.diff", {}),
    ("repro.wire.messages:decode_segment_diff_from", "diff.decode_from",
     "wire.diff", {}),
]

CLIENT_TARGETS = [
    ("repro.client.client:InterWeaveClient.wl_acquire", "client.wl_acquire",
     "client", {}),
    ("repro.client.client:InterWeaveClient.wl_release", "client.wl_release",
     "client", {}),
    ("repro.client.client:InterWeaveClient.rl_acquire", "client.rl_acquire",
     "client", {}),
    ("repro.client.client:InterWeaveClient.rl_release", "client.rl_release",
     "client", {}),
    ("repro.client.client:collect_write_diff", "collect_write_diff",
     "client.collect", {}),
    ("repro.client.client:apply_update", "apply_update", "client.apply", {}),
    ("repro.client.client:encode_message", "encode_message", "wire.messages",
     {}),
    ("repro.client.client:decode_message", "decode_message", "wire.messages",
     {}),
    ("repro.transport.tcp:TCPChannel.request", "channel.request", "transport",
     {"request_of": _channel_client_id}),
] + _COMMON

SERVER_TARGETS = [
    ("repro.server.server:InterWeaveServer.dispatch", "server.dispatch",
     "server", {"request_of": _dispatch_client_id}),
    ("repro.server.server:InterWeaveServer._acquire", "server.acquire",
     "server", {}),
    ("repro.server.server:InterWeaveServer._release", "server.release",
     "server", {}),
    ("repro.server.server:InterWeaveServer._update_for", "server.update_for",
     "server", {}),
    ("repro.server.server:decode_message", "decode_message", "wire.messages",
     {}),
    ("repro.server.server:encode_message", "encode_message", "wire.messages",
     {}),
    ("repro.server.server:encode_segment_diff", "encode_segment_diff",
     "wire.diff", {}),
    # looked up at call time by ``from repro.wire import ...`` in the server
    ("repro.wire:decode_segment_diff", "decode_segment_diff", "wire.diff", {}),
    ("repro.server.compose:decode_segment_diff", "decode_segment_diff",
     "wire.diff", {}),
    ("repro.server.compose:compose_from_cache", "compose_from_cache",
     "server.compose", {}),
    ("repro.server.segment_state:ServerSegment.apply_client_diff",
     "apply_client_diff", "server.segment_state", {}),
    ("repro.server.segment_state:ServerSegment.build_update", "build_update",
     "server.segment_state", {}),
    ("repro.server.diff_cache:DiffCache.get", "diff_cache.get",
     "server.diff_cache", {}),
    ("repro.server.diff_cache:DiffCache.put", "diff_cache.put",
     "server.diff_cache", {}),
    ("repro.server.wal:WriteAheadLog.append", "wal.append", "server.wal", {}),
] + _COMMON

#: every layer a section's time is split over, in report order
LAYERS = ["client", "client.collect", "client.apply", "memory.mmu",
          "wire.messages", "wire.diff", "transport", "server",
          "server.segment_state", "server.compose", "server.diff_cache",
          "server.wal"]


def install(recorder: SpanRecorder, targets) -> None:
    for target, name, layer, options in targets:
        recorder.install(target, name, layer, **options)
