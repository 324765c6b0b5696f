"""A read-only HTTP/1.1 JSON gateway mounted on the server's event loop.

Hand-rolled parsing, stdlib only: ``GET /stats`` answers with the
dispatcher's GetStats snapshot and ``GET /segments/{name}`` with a
decoded segment image (origin servers only).  The gateway is not on the
hot path, so it keeps the simple stream API
(``asyncio.start_server``) rather than the protocol callbacks of the
binary core.  See ``docs/GATEWAY.md``.
"""

from __future__ import annotations

import asyncio
import json
from typing import Awaitable, Callable
from urllib.parse import unquote

from repro.obs.metrics import get_registry
from repro.transport.base import Dispatcher
from repro.wire.messages import (
    GetStatsReply,
    GetStatsRequest,
    decode_message,
    encode_message,
)

#: largest HTTP request head (request line + headers) the gateway accepts
_HEAD_LIMIT = 16 * 1024

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 431: "Request Header Fields Too Large",
            500: "Internal Server Error", 501: "Not Implemented",
            502: "Bad Gateway"}


class JSONGateway:
    """Serves gateway connections for one dispatcher.

    ``run_blocking`` runs a blocking callable off the loop and awaits
    its result (the server transport hands over its dispatch pool), so
    a slow GetStats never stalls the loop.
    """

    def __init__(self, dispatcher: Dispatcher,
                 run_blocking: Callable[[Callable], Awaitable],
                 write_timeout: float):
        self._dispatcher = dispatcher
        self._run_blocking = run_blocking
        self._write_timeout = write_timeout
        self._writers: "set[asyncio.StreamWriter]" = set()
        self._m_requests = get_registry().counter(
            "gateway.requests", "HTTP requests answered by the JSON gateway")

    async def serve(self, reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter) -> None:
        """``asyncio.start_server`` callback: one keep-alive connection."""
        self._writers.add(writer)
        try:
            while True:
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), timeout=30.0)
                except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                        ConnectionError, OSError):
                    return
                except asyncio.LimitOverrunError:
                    head = None
                if head is None or len(head) > _HEAD_LIMIT:
                    await self._respond(
                        writer, 431, {"error": "request head too large"})
                    return
                if not await self._handle(writer, head):
                    return
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except (ConnectionError, OSError, RuntimeError):
                pass

    def abort_all(self) -> None:
        """Drop every open gateway connection (server shutdown)."""
        for writer in list(self._writers):
            if writer.transport is not None:
                writer.transport.abort()

    async def _handle(self, writer: asyncio.StreamWriter, head: bytes) -> bool:
        """Parse one request head, route it, write the response.

        Returns whether the connection should stay open (HTTP/1.1
        keep-alive unless the client asked to close).  Requests with
        bodies are rejected — the gateway is read-only, so nothing ever
        needs to consume an entity body.
        """
        self._m_requests.inc()
        try:
            request_line, *header_lines = head.decode("latin-1").split("\r\n")
            method, target, version = request_line.split(" ", 2)
        except ValueError:
            await self._respond(
                writer, 400, {"error": "malformed request line"}, close=True)
            return False
        headers = {}
        for line in header_lines:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        keep_alive = (version.upper() != "HTTP/1.0"
                      and headers.get("connection", "").lower() != "close")
        has_body = (headers.get("content-length", "0") not in ("", "0")
                    or "chunked" in headers.get("transfer-encoding", "").lower())
        if method.upper() != "GET":
            # answer 405 before the body complaint — but a body we will
            # not read means the connection cannot be reused
            await self._respond(
                writer, 405, {"error": f"method {method} not allowed"},
                close=not keep_alive or has_body)
            return keep_alive and not has_body
        if has_body:
            await self._respond(
                writer, 400, {"error": "request bodies are not accepted"},
                close=True)
            return False
        path = target.split("?", 1)[0]
        try:
            if path == "/stats":
                status, body = await self._stats()
            elif path.startswith("/segments/") and len(path) > len("/segments/"):
                status, body = await self._segment(
                    unquote(path[len("/segments/"):]))
            else:
                status, body = 404, {"error": f"no route for {path}"}
        except Exception as exc:  # noqa: BLE001 — a handler bug must answer
            status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
        await self._respond(writer, status, body, close=not keep_alive)
        return keep_alive

    async def _stats(self):
        """Mirror GetStats by dispatching the real request: every role
        (server, proxy, directory) answers it, so the gateway works
        wherever the transport is mounted."""
        payload = encode_message(GetStatsRequest("gateway"))
        reply = decode_message(await self._run_blocking(
            lambda: self._dispatcher.dispatch("gateway", payload)))
        if isinstance(reply, GetStatsReply):
            return 200, reply.payload
        return 502, {"error": getattr(reply, "message", str(reply))}

    async def _segment(self, name: str):
        read_segment = getattr(self._dispatcher, "read_segment_json", None)
        if read_segment is None:
            return 501, {"error": "segment reads require an origin server "
                                  "(this endpoint serves stats only)"}
        from repro.errors import ServerError

        try:
            snapshot = await self._run_blocking(lambda: read_segment(name))
        except ServerError as exc:
            return 404, {"error": str(exc)}
        return 200, snapshot

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       body, close: bool = False) -> None:
        if isinstance(body, str):  # GetStats carries ready-made JSON
            payload = body.encode("utf-8")
        else:
            payload = json.dumps(body, sort_keys=True).encode("utf-8")
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n")
        try:
            writer.write(head.encode("latin-1") + payload)
            await asyncio.wait_for(writer.drain(), timeout=self._write_timeout)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
