"""Telemetry: the system's visibility into itself.

Fremont's whole point is *visibility* — the Journal's triple timestamps
exist so an operator can ask "when did discovery last verify this?".
This module gives the reproduction the same visibility into its own
machinery: a thread-safe :class:`MetricsRegistry` of monotonic
counters, gauges, and fixed-bucket latency histograms (with percentile
estimates), plus a lightweight :func:`MetricsRegistry.trace` span API
that records nested timed spans into a bounded ring buffer.

One registry per Journal (``journal.telemetry``): every component that
touches the Journal — the server, the Discovery Manager, the batching
sink, the durability store, the correlator, the analysis programs —
registers its metrics there, so one snapshot describes the whole
deployment.  The registry is exposed three ways:

* the ``metrics`` wire op (a JSON-safe :meth:`MetricsRegistry.snapshot`),
* Prometheus text exposition (:meth:`MetricsRegistry.render_prometheus`,
  served over HTTP by :class:`MetricsExporter` / ``serve
  --metrics-port``),
* the ``fremont stats [--watch]`` CLI view (:func:`render_stats`).

Counter updates take a per-metric lock, so increments from the Journal
Server's loop, its worker pool and any other thread can never tear or
lose an update — the registry is the fix for the status-op/poll-thread
counter race.

Overhead budget: a counter increment is one uncontended lock acquire
(~100ns); a histogram observation adds a bisect.  The ingest hot path
pays two counter increments per observation.  The telemetry benchmark
(``benchmarks/bench_perf_telemetry.py``) holds histograms and spans
below 5% of ingest throughput; it does not measure the counters.  Its
"off" baseline is ``MetricsRegistry(enabled=False)``, which turns
histograms and spans into no-ops while counters still count
(accounting is part of the Journal contract), so counter cost lands in
both arms.  Against a baseline with ``Counter.inc`` stubbed too, ten
``--quick`` runs put all instrumentation at a median of +10.5% of
ingest throughput (2-CPU co-tenanted VM).
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEPTH_BUCKETS",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsExporter",
    "Span",
    "parse_prometheus",
    "render_fleet_stats",
    "render_stats",
    "snapshot_to_prometheus",
    "telemetry_of",
]

#: default fixed buckets for latency histograms (seconds).  Spanning
#: 100µs..10s covers everything from a WAL fsync to a full checkpoint.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, float("inf"),
)

#: default buckets for size-ish histograms (batch sizes, counts)
SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, float("inf"),
)

#: buckets for concurrency-depth histograms (requests in flight on a
#: connection, pipelined batches).  Finer than SIZE_BUCKETS at the low
#: end — the difference between depth 0 (strict request/response) and
#: depth 2-3 (mild pipelining) is exactly what the fan-in work tunes.
DEPTH_BUCKETS: Tuple[float, ...] = (
    0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, float("inf"),
)

_VALID_KINDS = ("counter", "gauge", "histogram")


def _validate_name(name: str) -> None:
    import re

    if not re.match(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$", name):
        raise ValueError(f"invalid metric name: {name!r}")


# ----------------------------------------------------------------------
# Samples
# ----------------------------------------------------------------------


class Counter:
    """A monotonically increasing counter.  ``inc`` is atomic (one lock
    per metric), so concurrent writers — server ops, the checkpoint poll
    thread, sink flushes — never lose an update."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset_to(self, value: float) -> None:
        """Restore hook for the wire codec: a recovered Journal resumes
        its lifetime accounting.  Not part of the monotone public API."""
        with self._lock:
            self._value = float(value)


class Gauge:
    """A value that goes up and down (or is computed on read via a
    callback — used for structure sizes like ``len(interfaces)``)."""

    __slots__ = ("_lock", "_value", "callback")

    def __init__(self, callback: Optional[Callable[[], float]] = None) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self.callback = callback

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self.callback is not None:
            return float(self.callback())
        return self._value


def _bucket_percentile(bounds: Sequence[float], counts: Sequence[int], q: float) -> float:
    """Estimated q-th percentile (q in [0, 100]) of a fixed-bucket
    histogram: *counts* per bucket under the upper *bounds*, linearly
    interpolated inside the winning bucket (the open top bucket answers
    its lower bound)."""
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = (q / 100.0) * total
    running = 0
    lower = 0.0
    for bound, count in zip(bounds, counts):
        if count:
            if running + count >= rank:
                if bound == float("inf"):
                    return lower
                fraction = (rank - running) / count
                return lower + (bound - lower) * max(0.0, min(1.0, fraction))
            running += count
        if bound != float("inf"):
            lower = bound
    return lower


class Histogram:
    """Fixed-bucket histogram with percentile estimates.

    Buckets are upper bounds (``le``), cumulative in exposition like
    Prometheus.  Percentiles are estimated by linear interpolation
    inside the winning bucket — exact enough for dashboards, O(buckets)
    cheap.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count", "_enabled_ref")

    def __init__(
        self,
        buckets: Iterable[float] = LATENCY_BUCKETS,
        enabled_ref: Optional[Callable[[], bool]] = None,
    ) -> None:
        bounds = sorted(float(b) for b in buckets)
        if not bounds or bounds[-1] != float("inf"):
            bounds.append(float("inf"))
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self._lock = threading.Lock()
        self._counts = [0] * len(self.bounds)
        self._sum = 0.0
        self._count = 0
        self._enabled_ref = enabled_ref

    def observe(self, value: float) -> None:
        if self._enabled_ref is not None and not self._enabled_ref():
            return
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @contextmanager
    def time(self):
        """Observe the wall-clock duration of a ``with`` block."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.observe(time.perf_counter() - started)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def cumulative(self) -> List[Tuple[float, int]]:
        """(upper bound, cumulative count) pairs, Prometheus-style."""
        out: List[Tuple[float, int]] = []
        with self._lock:
            running = 0
            for bound, count in zip(self.bounds, self._counts):
                running += count
                out.append((bound, running))
        return out

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (q in [0, 100])."""
        with self._lock:
            return _bucket_percentile(self.bounds, self._counts, q)


_SAMPLE_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


# ----------------------------------------------------------------------
# Families
# ----------------------------------------------------------------------


class MetricFamily:
    """One named metric, possibly labelled.

    Without label names the family proxies the sample API directly
    (``family.inc()``); with label names, :meth:`labels` returns the
    per-label-value child sample, created on demand.
    """

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        kind: str,
        help_text: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Iterable[float]] = None,
        callback: Optional[Callable[[], float]] = None,
    ) -> None:
        _validate_name(name)
        if kind not in _VALID_KINDS:
            raise ValueError(f"unknown metric kind: {kind!r}")
        if callback is not None and (kind != "gauge" or label_names):
            raise ValueError("callback only applies to unlabelled gauges")
        self._registry = registry
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = tuple(label_names)
        self._buckets = tuple(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}
        if not self.label_names:
            self._children[()] = self._make_sample(callback)

    def _make_sample(self, callback: Optional[Callable[[], float]] = None):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge(callback)
        return Histogram(
            self._buckets or LATENCY_BUCKETS,
            enabled_ref=lambda: self._registry.enabled,
        )

    def labels(self, **label_values: str):
        """The child sample for one label-value combination."""
        if tuple(sorted(label_values)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        key = tuple(str(label_values[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_sample())
        return child

    def samples(self) -> List[Tuple[Dict[str, str], Any]]:
        """(labels dict, sample) pairs, label-sorted for stable output."""
        with self._lock:
            items = sorted(self._children.items())
        return [
            (dict(zip(self.label_names, key)), sample) for key, sample in items
        ]

    # -- unlabelled proxy ------------------------------------------------

    def _sole(self):
        if self.label_names:
            raise ValueError(f"{self.name} is labelled; use .labels(...)")
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._sole().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._sole().dec(amount)

    def set(self, value: float) -> None:
        self._sole().set(value)

    def reset_to(self, value: float) -> None:
        self._sole().reset_to(value)

    def observe(self, value: float) -> None:
        self._sole().observe(value)

    def time(self):
        return self._sole().time()

    @property
    def value(self) -> float:
        return self._sole().value

    @property
    def count(self) -> int:
        return self._sole().count

    def percentile(self, q: float) -> float:
        return self._sole().percentile(q)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


@dataclass
class Span:
    """One recorded timed operation, nestable.

    ``parent_id`` links a span to the operation it ran inside (a WAL
    sync inside a sink flush inside a module run); ``trace_id`` is the
    id of the root span of that nesting."""

    span_id: int
    parent_id: Optional[int]
    trace_id: int
    name: str
    started_at: float
    tags: Dict[str, str] = field(default_factory=dict)
    duration: float = 0.0
    status: str = "ok"
    error: Optional[str] = None

    def set_tag(self, key: str, value: Any) -> None:
        self.tags[key] = str(value)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "name": self.name,
            "started_at": self.started_at,
            "duration": self.duration,
            "status": self.status,
            "error": self.error,
            "tags": dict(self.tags),
        }


class _NullSpan:
    """Shared no-op span handed out when tracing is disabled."""

    __slots__ = ()

    def set_tag(self, key: str, value: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class MetricsRegistry:
    """Thread-safe home for every metric and span of one deployment."""

    def __init__(self, *, enabled: bool = True, span_capacity: int = 2048) -> None:
        if span_capacity < 1:
            raise ValueError("span_capacity must be at least 1")
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}
        # -- span ring ---------------------------------------------------
        self.span_capacity = span_capacity
        self._span_ring: deque = deque(maxlen=span_capacity)
        self._span_lock = threading.Lock()
        self._span_stack = threading.local()
        self._next_span_id = 1
        self.spans_recorded = 0
        self.spans_dropped = 0

    # -- registration ----------------------------------------------------

    def _register(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Tuple[str, ...],
        buckets: Optional[Iterable[float]] = None,
        callback: Optional[Callable[[], float]] = None,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind}"
                    )
                if callback is not None:
                    family._children[()].callback = callback
                return family
            family = MetricFamily(
                self, name, kind, help_text, labels, buckets, callback
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", *, labels: Tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._register(name, "counter", help_text, tuple(labels))

    def gauge(
        self,
        name: str,
        help_text: str = "",
        *,
        labels: Tuple[str, ...] = (),
        callback: Optional[Callable[[], float]] = None,
    ) -> MetricFamily:
        return self._register(name, "gauge", help_text, tuple(labels), callback=callback)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        *,
        labels: Tuple[str, ...] = (),
        buckets: Iterable[float] = LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._register(name, "histogram", help_text, tuple(labels), buckets=buckets)

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def value(self, name: str, **label_values: str) -> float:
        """Convenience read of one counter/gauge sample."""
        family = self.get(name)
        if family is None:
            raise KeyError(name)
        sample = family.labels(**label_values) if label_values else family._sole()
        return sample.value

    # -- tracing ---------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._span_stack, "frames", None)
        if stack is None:
            stack = []
            self._span_stack.frames = stack
        return stack

    @contextmanager
    def trace(self, name: str, **tags: Any):
        """Record a nested timed span around a ``with`` block.

        The span inherits its parent from the innermost ``trace`` block
        open on this thread; an exception marks it ``status="error"``
        (and propagates).  Completed spans land in a bounded ring
        buffer — the newest ``span_capacity`` survive."""
        if not self.enabled:
            yield _NULL_SPAN
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._span_lock:
            span_id = self._next_span_id
            self._next_span_id += 1
        span = Span(
            span_id=span_id,
            parent_id=parent.span_id if parent else None,
            trace_id=parent.trace_id if parent else span_id,
            name=name,
            started_at=time.time(),
            tags={key: str(value) for key, value in tags.items()},
        )
        started = time.perf_counter()
        stack.append(span)
        try:
            yield span
        except BaseException as error:
            span.status = "error"
            span.error = f"{type(error).__name__}: {error}"
            raise
        finally:
            stack.pop()
            span.duration = time.perf_counter() - started
            with self._span_lock:
                if len(self._span_ring) == self.span_capacity:
                    self.spans_dropped += 1
                self._span_ring.append(span)
                self.spans_recorded += 1

    def spans(self, limit: Optional[int] = None) -> List[Span]:
        """Recorded spans, oldest first (up to the newest *limit*)."""
        with self._span_lock:
            recorded = list(self._span_ring)
        return recorded[-limit:] if limit else recorded

    # -- exposition ------------------------------------------------------

    def snapshot(self, *, spans: int = 50) -> Dict[str, Any]:
        """A structured, JSON-safe snapshot of every metric (the
        ``metrics`` wire op payload).  Bucket bounds use the Prometheus
        "+Inf" convention so the document survives json round-trips.
        It carries the newest *spans* spans; 0 carries none."""
        metrics: List[Dict[str, Any]] = []
        for family in self.families():
            samples: List[Dict[str, Any]] = []
            for labels, sample in family.samples():
                if family.kind == "histogram":
                    samples.append(
                        {
                            "labels": labels,
                            "count": sample.count,
                            "sum": sample.sum,
                            "buckets": [
                                ["+Inf" if bound == float("inf") else bound, total]
                                for bound, total in sample.cumulative()
                            ],
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": sample.value})
            metrics.append(
                {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "samples": samples,
                }
            )
        recent = self.spans(limit=spans) if spans > 0 else []
        return {
            "metrics": metrics,
            "spans": {
                "capacity": self.span_capacity,
                "recorded": self.spans_recorded,
                "dropped": self.spans_dropped,
                "recent": [span.to_dict() for span in recent],
            },
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4 (the snapshot,
        rendered by :func:`snapshot_to_prometheus`)."""
        return snapshot_to_prometheus(self.snapshot(spans=0))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# ----------------------------------------------------------------------
# Exposition parsing (round-trip property tests, scrape verification)
# ----------------------------------------------------------------------


def parse_prometheus(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse Prometheus text exposition back into a sample map keyed by
    ``(sample name, sorted label items)``.  Inverse of
    :meth:`MetricsRegistry.render_prometheus` for everything it emits —
    the round-trip property test leans on this."""
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    # Split on "\n" only: str.splitlines() also breaks on control
    # characters (\x1c-\x1e, \x85,  ...) that are legal *raw* inside
    # quoted label values — the exposition format's terminator is \n.
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, labels, value = _parse_sample_line(line)
        samples[(name, tuple(sorted(labels.items())))] = value
    return samples


def _parse_sample_line(line: str) -> Tuple[str, Dict[str, str], float]:
    labels: Dict[str, str] = {}
    if "{" in line:
        name, rest = line.split("{", 1)
        body, tail = rest.rsplit("}", 1)
        labels = _parse_labels(body)
        value_text = tail.strip()
    else:
        name, value_text = line.split(None, 1)
    _validate_name(name.strip())
    text = value_text.strip()
    if text == "+Inf":
        value = float("inf")
    elif text == "-Inf":
        value = float("-inf")
    else:
        value = float(text)
    return name.strip(), labels, value


def _parse_labels(body: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    index = 0
    while index < len(body):
        equals = body.index("=", index)
        name = body[index:equals].strip().lstrip(",").strip()
        if body[equals + 1] != '"':
            raise ValueError(f"unquoted label value in {body!r}")
        cursor = equals + 2
        value_chars: List[str] = []
        while True:
            char = body[cursor]
            if char == "\\":
                escaped = body[cursor + 1]
                value_chars.append(
                    {"n": "\n", '"': '"', "\\": "\\"}.get(escaped, escaped)
                )
                cursor += 2
                continue
            if char == '"':
                break
            value_chars.append(char)
            cursor += 1
        labels[name] = "".join(value_chars)
        index = cursor + 1
    return labels


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------


def telemetry_of(client: Any) -> MetricsRegistry:
    """The registry a component should record into, given whatever
    journal-ish object it holds: a Journal or any journal client
    (``.telemetry`` — a local client's is its journal's), or something
    opaque, which gets (or lazily grows) its own registry."""
    registry = getattr(client, "telemetry", None)
    if isinstance(registry, MetricsRegistry):
        return registry
    registry = MetricsRegistry()
    try:
        client.telemetry = registry
    except (AttributeError, TypeError):
        pass
    return registry


# ----------------------------------------------------------------------
# HTTP exposition (serve --metrics-port)
# ----------------------------------------------------------------------


class MetricsExporter:
    """A tiny HTTP endpoint serving ``GET /metrics`` in Prometheus text
    format — enough for a scrape config, nothing more."""

    def __init__(
        self, registry: MetricsRegistry, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        exporter_registry = registry

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_error(404)
                    return
                body = exporter_registry.render_prometheus().encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes are not operator-facing log events

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> "MetricsExporter":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="fremont-metrics-exporter",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Human rendering (fremont stats)
# ----------------------------------------------------------------------


def _format_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.0f}µs"


def render_stats(snapshot: Dict[str, Any], *, spans: int = 12) -> str:
    """The ``fremont stats`` view of a :meth:`MetricsRegistry.snapshot`:
    counters and gauges in columns, histograms with count/mean/p50/p95/
    p99, and the tail of the span ring."""
    lines: List[str] = []
    counters: List[Tuple[str, str, float]] = []
    gauges: List[Tuple[str, str, float]] = []
    histograms: List[Tuple[str, Dict[str, str], Dict[str, Any]]] = []
    for metric in snapshot.get("metrics", []):
        for sample in metric.get("samples", []):
            label_text = ",".join(
                f"{k}={v}" for k, v in sorted(sample.get("labels", {}).items())
            )
            if metric["type"] == "histogram":
                histograms.append((metric["name"], sample.get("labels", {}), sample))
            elif metric["type"] == "counter":
                counters.append((metric["name"], label_text, sample["value"]))
            else:
                gauges.append((metric["name"], label_text, sample["value"]))

    def name_of(name: str, label_text: str) -> str:
        return f"{name}{{{label_text}}}" if label_text else name

    lines.append("== counters ==")
    for name, label_text, value in counters:
        lines.append(f"  {name_of(name, label_text):<58} {value:>14.0f}")
    lines.append("")
    lines.append("== gauges ==")
    for name, label_text, value in gauges:
        lines.append(f"  {name_of(name, label_text):<58} {value:>14.0f}")
    lines.append("")
    lines.append("== histograms (count / mean / p50 / p95 / p99) ==")
    for name, labels, sample in histograms:
        label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        count = sample.get("count", 0)
        mean = (sample.get("sum", 0.0) / count) if count else 0.0
        bounds, counts, running = [], [], 0
        for bound, total in sample.get("buckets", []):
            bounds.append(float(bound))  # float("+Inf") is the open top bucket
            counts.append(total - running)
            running = total
        quantiles = "".join(
            f" {_format_seconds(_bucket_percentile(bounds, counts, q)):>10}"
            for q in (50, 95, 99)
        )
        lines.append(
            f"  {name_of(name, label_text):<58} {count:>8} "
            f"{_format_seconds(mean):>10}{quantiles}"
        )
    span_info = snapshot.get("spans", {})
    recent = span_info.get("recent", [])[-spans:]
    lines.append("")
    lines.append(
        f"== spans (recorded {span_info.get('recorded', 0)}, "
        f"dropped {span_info.get('dropped', 0)}, showing {len(recent)}) =="
    )
    for span in recent:
        tag_text = ",".join(f"{k}={v}" for k, v in sorted(span.get("tags", {}).items()))
        status = "" if span.get("status") == "ok" else f"  [{span.get('status')}]"
        parent = span.get("parent_id")
        nested = "  └ " if parent else "  "
        lines.append(
            f"{nested}{span.get('name'):<24} {_format_seconds(span.get('duration', 0)):>10}"
            f"  {tag_text}{status}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Fleet rendering (fremont stats over several shards)
# ----------------------------------------------------------------------


def snapshot_to_prometheus(snapshot: Dict[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` document into
    Prometheus text exposition — the one renderer:
    :meth:`MetricsRegistry.render_prometheus` renders its own snapshot
    here, each family led by its ``# HELP`` and ``# TYPE`` lines.

    The remote ``metrics`` wire op ships the structured snapshot, not
    the text form; turning it back into text lets every consumer —
    notably the multi-target ``fremont stats`` table — funnel through
    the one battle-tested :func:`parse_prometheus` sample model instead
    of growing a second snapshot walker.
    """
    lines: List[str] = []
    for metric in snapshot.get("metrics", []):
        name = metric.get("name", "")
        if "help" in metric:
            lines.append(f"# HELP {name} {_escape_help(metric['help'])}")
        if "type" in metric:
            lines.append(f"# TYPE {name} {metric['type']}")
        for sample in metric.get("samples", []):
            labels = dict(sample.get("labels", {}))
            if metric.get("type") == "histogram":
                for bound, total in sample.get("buckets", []):
                    le = "+Inf" if bound == "+Inf" else _format_value(float(bound))
                    lines.append(
                        f"{name}_bucket{_render_labels({**labels, 'le': le})} "
                        f"{total}"
                    )
                lines.append(
                    f"{name}_sum{_render_labels(labels)} "
                    f"{_format_value(float(sample.get('sum', 0.0)))}"
                )
                lines.append(
                    f"{name}_count{_render_labels(labels)} {sample.get('count', 0)}"
                )
            else:
                lines.append(
                    f"{name}{_render_labels(labels)} "
                    f"{_format_value(float(sample.get('value', 0.0)))}"
                )
    return "\n".join(lines) + "\n"


def render_fleet_stats(
    snapshots: List[Dict[str, Any]],
    names: Optional[List[str]] = None,
    *,
    down: Optional[Dict[int, int]] = None,
) -> str:
    """One merged table over several servers' metric snapshots: a row
    per sample, a column per shard, and a totals column.

    Each snapshot goes through :func:`snapshot_to_prometheus` and back
    through :func:`parse_prometheus`, so the merge works on the same
    ``(name, labels) -> value`` sample map the round-trip tests pin
    down.  A sample absent on some shard renders as ``-`` and counts as
    zero in the total; histogram percentiles are deliberately not
    summed (only ``_sum``/``_count``/``_bucket`` series aggregate
    meaningfully).

    *down* maps column indexes of unreachable shards to their last
    known fencing epoch: those columns get an explicit ``DOWN (epoch
    N)`` status cell (rather than silently vanishing from the table)
    and their samples render as ``-``.
    """
    names = names or [f"shard{i}" for i in range(len(snapshots))]
    down = down or {}
    parsed = [parse_prometheus(snapshot_to_prometheus(s)) for s in snapshots]
    keys: List[Tuple[str, Tuple[Tuple[str, str], ...]]] = []
    seen = set()
    for samples in parsed:
        for key in samples:
            if key not in seen:
                seen.add(key)
                keys.append(key)
    keys.sort()

    def cell(value: Optional[float]) -> str:
        if value is None:
            return "-"
        return _format_value(value)

    rows: List[List[str]] = []
    for name, labels in keys:
        label_text = ",".join(f"{k}={v}" for k, v in labels)
        display = f"{name}{{{label_text}}}" if label_text else name
        values = [samples.get((name, labels)) for samples in parsed]
        total = sum(v for v in values if v is not None)
        rows.append([display] + [cell(v) for v in values] + [cell(total)])

    if down:
        rows.insert(
            0,
            ["status"]
            + [
                f"DOWN (epoch {down[i]})" if i in down else "up"
                for i in range(len(snapshots))
            ]
            + [f"{len(down)} down"],
        )

    header = ["sample"] + list(names) + ["total"]
    widths = [
        max(len(header[col]), *(len(row[col]) for row in rows)) if rows
        else len(header[col])
        for col in range(len(header))
    ]

    def fmt(cells: List[str]) -> str:
        first = cells[0].ljust(widths[0])
        rest = [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        return "  ".join([first] + rest)

    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
