"""Span recording around the layers' public entry points.

The benchmark never edits the program: it replaces selected functions
with wrappers that record ``(name, start, end, span id, parent id,
request id, note)`` and call the original.  Parents come from a
per-thread stack; a span inherits the wire request id of the request
its thread is serving (server side) or waiting for (client side).
Spans stay in memory until :meth:`Recorder.write`.

A layer's self time is the time its spans cover minus the part their
child spans cover; the layer is the span name's prefix (``avl.insert``
belongs to ``avl``).
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[str, int, int, int, int, Optional[int], Any]


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._installed: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str, *,
             rid: Optional[Callable[[tuple], Optional[int]]] = None,
             note: Optional[Callable[[Any, tuple], Any]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.  *rid*
        extracts a request id from the call's arguments; *note* derives
        a small value from (result, arguments) to keep on the span."""
        raw = inspect.getattr_static(owner, attr)
        static = isinstance(raw, staticmethod)
        original = raw.__func__ if static else getattr(owner, attr)
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent, request = stack[-1] if stack else (0, None)
            if rid is not None:
                request = rid(args) or request
            sid = next(ids)
            stack.append((sid, request))
            start = clock()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((name, start, end, sid, parent, request,
                              None if note is None else note(result, args)))

        wrapper.__wrapped__ = original
        self._installed.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(list(self.spans), handle, separators=(",", ":"))


def _request_id(args: tuple) -> Optional[int]:
    request = args[1] if len(args) > 1 else None
    return request.get("id") if isinstance(request, dict) else None


def _length(result: Any, _args: tuple) -> Optional[int]:
    return len(result) if result is not None else None


def install_server_spans(recorder: Recorder) -> None:
    """Wrap the Journal Server's layers (call before ``serve``)."""
    from repro.core import avl, durability, journal, server, wire

    dispatcher = server.JournalDispatcher
    recorder.wrap(dispatcher, "dispatch", "server.dispatch", rid=_request_id)
    recorder.wrap(dispatcher, "dispatch_inline", "server.dispatch_inline", rid=_request_id)
    recorder.wrap(journal.Journal, "observe_interface", "journal.observe_interface")
    recorder.wrap(journal.Journal, "submit", "journal.submit")
    recorder.wrap(journal.Journal, "query", "query.execute", note=_length)
    recorder.wrap(journal.Journal, "publish", "feed.publish")
    recorder.wrap(avl.AvlTree, "insert", "avl.insert")
    recorder.wrap(avl.AvlTree, "remove", "avl.remove")
    store = durability.JournalStore
    recorder.wrap(store, "_append", "durability.append")
    recorder.wrap(store, "sync", "durability.sync")
    recorder.wrap(store, "checkpoint", "durability.checkpoint")
    recorder.wrap(store, "recover", "durability.recover")
    install_topology_spans(recorder)
    recorder.wrap(wire, "encode_message", "wire.encode", note=_length)
    recorder.wrap(wire, "decode_message", "wire.decode")


def install_topology_spans(recorder: Recorder) -> None:
    from repro.core.topology import TopologyStore as store

    recorder.wrap(store, "refresh", "topology.refresh", note=lambda result, _a: result)
    recorder.wrap(store, "path", "topology.path")
    recorder.wrap(store, "impact", "topology.impact")


def install_client_spans(recorder: Recorder) -> None:
    """Wrap the client-side layers in the benchmark's own process."""
    from repro.core import client, replicate, shard, sink, wire

    recorder.wrap(sink.BatchingSink, "flush", "sink.flush")
    recorder.wrap(sink.BatchingSink, "settle", "sink.settle")
    recorder.wrap(client.RemoteClient, "_wait", "client.wait",
                  rid=lambda args: args[1] if len(args) > 1 else None)
    for read in ("interfaces_by_ip", "query", "path", "impact"):
        recorder.wrap(shard.ShardedClient, read, f"shard.{read}")
    recorder.wrap(shard.ShardedClient, "_merge_records", "shard.merge")
    recorder.wrap(replicate.FederatedView, "refresh", "replicate.federated_refresh")
    install_topology_spans(recorder)
    recorder.wrap(wire, "encode_message", "wire.encode", note=_length)
    recorder.wrap(wire, "decode_message", "wire.decode")


class SpanTable:
    """Per-name and per-layer aggregates over one or more span lists."""

    def __init__(self, span_lists: Iterable[List[Span]]) -> None:
        self.count: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.notes: Dict[str, List[Any]] = {}
        self.spans = 0
        for spans in span_lists:
            covered: Dict[int, int] = {}
            for _name, start, end, _sid, parent, _rid, _note in spans:
                if parent:
                    covered[parent] = covered.get(parent, 0) + (end - start)
            for name, start, end, sid, _parent, _rid, note in spans:
                duration = end - start
                self.spans += 1
                self.count[name] = self.count.get(name, 0) + 1
                self.total_ns[name] = self.total_ns.get(name, 0) + duration
                self.self_ns[name] = self.self_ns.get(name, 0) + duration - covered.get(sid, 0)
                if note is not None:
                    self.notes.setdefault(name, []).append(note)

    def calls(self, *names: str) -> int:
        return sum(self.count.get(name, 0) for name in names)

    def total_ms(self, *names: str) -> float:
        return sum(self.total_ns.get(name, 0) for name in names) / 1e6

    def self_ms(self, *names: str) -> float:
        return sum(self.self_ns.get(name, 0) for name in names) / 1e6

    def mean_ms(self, name: str, *, own: bool = False) -> float:
        calls = self.calls(name)
        if not calls:
            return 0.0
        return (self.self_ms(name) if own else self.total_ms(name)) / calls

    def layer_self_ms(self, layer: str) -> float:
        prefix = layer + "."
        return sum(ns for name, ns in self.self_ns.items() if name.startswith(prefix)) / 1e6
