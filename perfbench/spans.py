"""In-memory spans recorded by wrapping a layer's functions from outside.

A :class:`SpanRecorder` replaces a module or class attribute with a
wrapper that records one span per call: name, layer, start, end, the
enclosing span and, for request boundaries, a request id.  Nothing in the
program under test changes; the wrapper is installed on the attribute the
caller looks up (``repro.client.client.collect_write_diff``, not
``repro.client.collect.collect_write_diff``), and removed again by
:meth:`SpanRecorder.uninstall`.

Timestamps come from ``time.perf_counter_ns`` (``CLOCK_MONOTONIC`` on
Linux), which every process on the machine shares, so spans recorded in
the server process can be placed inside the client's request spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: a span: [name, layer, start_ns, end_ns, parent span or None,
#: request id or None, amount (bytes, for loads) or None]
NAME, LAYER, START, END, PARENT, REQUEST, AMOUNT = range(7)


class SpanRecorder:
    """Collects spans from wrapped functions; thread-safe for appends."""

    def __init__(self):
        self.spans: List[list] = []
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []
        self._request_counts: Dict[str, int] = {}
        self._count_lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str, request: Optional[str] = None,
              amount: Optional[int] = None) -> list:
        stack = self._stack()
        span = [name, layer, time.perf_counter_ns(), 0,
                stack[-1] if stack else None, request, amount]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack().pop()

    def next_request_id(self, client_id: str) -> str:
        """``client_id:n`` for the n-th request of ``client_id`` (from 1).

        Client and server number the same requests in the same order in a
        single-threaded closed loop, so equal ids name the same request.
        """
        with self._count_lock:
            count = self._request_counts.get(client_id, 0) + 1
            self._request_counts[client_id] = count
        return f"{client_id}:{count}"

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn: Callable, name: str, layer: str,
             request_of: Optional[Callable] = None,
             amount_of: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record a span per call.

        ``request_of(args)`` returns the client id whose request this call
        carries; ``amount_of(args)`` a byte count to keep with the span.
        """
        begin, end, next_request_id = self.begin, self.end, self.next_request_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request = next_request_id(request_of(args)) if request_of else None
            amount = amount_of(args) if amount_of else None
            span = begin(name, layer, request, amount)
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)

        return wrapper

    def install(self, target: str, name: str, layer: str, **options) -> None:
        """Wrap the attribute named by ``target`` ("module:Owner.attr" or
        "module:attr") in place; :meth:`uninstall` restores it."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, layer, **options))
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def dump(self, path: str, process: str) -> None:
        write_spans(path, {process: self.spans})


#: the fields of one line of a spans file, after its header line
FIELDS = ["id", "process", "name", "layer", "start_ns", "end_ns", "parent",
          "request", "amount"]


def write_spans(path: str, groups: Dict[str, List[list]]) -> None:
    """Write spans, grouped by the process that recorded them, as gzipped
    JSON lines: a ``{"fields": [...]}`` header, then one array per span
    whose ``parent`` is the id of another line (or null)."""
    ordered = [(process, span) for process, spans in groups.items()
               for span in spans]
    ids = {id(span): index for index, (_, span) in enumerate(ordered)}
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        out.write(json.dumps({"fields": FIELDS}) + "\n")
        for index, (process, span) in enumerate(ordered):
            parent = span[PARENT]
            out.write(json.dumps([
                index, process, span[NAME], span[LAYER], span[START],
                span[END], None if parent is None else ids.get(id(parent)),
                span[REQUEST], span[AMOUNT]]) + "\n")


def read_spans(path: str) -> List[list]:
    """Spans written by :func:`write_spans`, parents re-linked."""
    with gzip.open(path, "rt", encoding="utf-8") as src:
        src.readline()
        rows = [json.loads(line) for line in src]
    spans = [[row[2], row[3], row[4], row[5], None, row[7], row[8]]
             for row in rows]
    for span, row in zip(spans, rows):
        if row[6] is not None:
            span[PARENT] = spans[row[6]]
    return spans


def join_requests(client_spans: List[list], server_spans: List[list]) -> int:
    """Parent each server root span under the client span with its request
    id; returns how many server roots found no client request."""
    by_request = {span[REQUEST]: span for span in client_spans
                  if span[REQUEST] is not None}
    unmatched = 0
    for span in server_spans:
        if span[PARENT] is None and span[REQUEST] is not None:
            client = by_request.get(span[REQUEST])
            if client is None:
                unmatched += 1
            else:
                span[PARENT] = client
    return unmatched


def self_times(spans: List[list]) -> Dict[int, int]:
    """Self time (ns) of every span, keyed by ``id(span)``.

    A span's self time is its duration minus the part of its interval
    that its children cover.  Children may overlap each other or stick
    out of the parent (clocks of two processes, threads); only the union
    of their intervals, clipped to the parent, is subtracted.
    """
    children: Dict[int, List[list]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(id(span[PARENT]), []).append(span)
    result = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for child in sorted(children.get(id(span), ()), key=lambda c: c[START]):
            lo, hi = max(child[START], cursor), min(child[END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[id(span)] = (end - start) - covered
    return result


def root_of(span: list) -> list:
    while span[PARENT] is not None:
        span = span[PARENT]
    return span
