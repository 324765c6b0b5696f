"""Transports: byte-accounting in-process channels and real TCP sockets,
plus the fault-tolerance toolkit (retry policies, reply deduplication,
and deterministic fault injection) and connection multiplexing (many
pipelined requests sharing one socket)."""

from repro.transport.base import (
    Channel,
    Dispatcher,
    NetworkModel,
    NotificationSink,
    NullSink,
    ReplyCache,
    ReplyFuture,
    TransportStats,
)
from repro.transport.fault import FaultInjectingChannel, FaultPlan
from repro.transport.inproc import InProcChannel, InProcHub
from repro.transport.mux import MultiplexingChannel, MuxConnectionPool
from repro.transport.retry import RetryingChannel, RetryPolicy, is_retryable
from repro.transport.tcp import TCPChannel, TCPServerTransport

__all__ = [
    "Channel",
    "Dispatcher",
    "FaultInjectingChannel",
    "FaultPlan",
    "InProcChannel",
    "InProcHub",
    "MultiplexingChannel",
    "MuxConnectionPool",
    "NetworkModel",
    "NotificationSink",
    "NullSink",
    "ReplyCache",
    "ReplyFuture",
    "RetryingChannel",
    "RetryPolicy",
    "TCPChannel",
    "TCPServerTransport",
    "TransportStats",
    "is_retryable",
]
