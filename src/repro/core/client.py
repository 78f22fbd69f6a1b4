"""Journal access for Explorer Modules and analysis programs.

Two interchangeable clients implement the access-and-data-transfer
library the paper describes ("supported through a common library of
access and data transfer routines that the Explorer Modules, Discovery
Manager, and data analysis and presentation programs use"):

* :class:`LocalClient` — a thin in-process pass-through (the common
  case for a single-site deployment and for the benchmark harness);
* :class:`RemoteClient` — a socket client for a
  :class:`~repro.core.server.JournalServer`, enabling the paper's
  distributed placement ("there are no restrictions about the physical
  location of individual modules").

Both expose the same duck-typed surface, so explorers never know which
they hold.  Callers normally obtain one through :func:`connect`, which
picks the client class from the target and optionally stacks a
:class:`~repro.core.sink.BatchingSink` on top.

The remote client speaks the pipelined wire protocol (DESIGN.md §10):
every request carries an ``"id"`` and :meth:`RemoteClient.begin` sends
one without waiting, returning a :class:`PendingReply`.  Several
requests can thus share one connection's round-trip budget; responses
are matched by id, so they may return out of order.  The synchronous
methods (``counts()``, ``observe_interface()``, …) are a facade over
the same machinery — existing callers see no difference beyond the
per-request read timeout.
"""

from __future__ import annotations

import inspect
import random
import socket
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import query as query_module
from . import wire
from .journal import Journal, JournalChanges
from .records import InterfaceRecord, Observation
from .sink import BatchingSink, DirectSinkMixin, ObservationSink
from .telemetry import DEPTH_BUCKETS, MetricsRegistry

__all__ = [
    "LocalClient",
    "RemoteClient",
    "RemoteChangeFeed",
    "QueryCache",
    "PendingReply",
    "ReplyTimeout",
    "begin_call",
    "connect",
    "parse_targets",
    "parse_replica_targets",
    "format_targets",
    "format_replica_targets",
    "scatter",
]


class ReplyTimeout(TimeoutError):
    """A pipelined request missed its per-reply read deadline.

    Subclasses :class:`TimeoutError`, so existing ``except
    TimeoutError`` callers keep working; failover-aware callers treat
    it (alongside :class:`ConnectionError`) as a health signal against
    the server that went quiet."""


def _raise_server_error(response: Dict[str, Any]) -> None:
    """Turn an ``ok: false`` response into the right exception: a
    :class:`~repro.core.wire.FencedError` when the server rejected the
    request through epoch fencing, a plain RuntimeError otherwise."""
    message = f"journal server error: {response.get('error')}"
    if response.get("fenced"):
        raise wire.FencedError(
            message,
            epoch=response.get("epoch", 0),
            role=response.get("role", ""),
        )
    raise RuntimeError(message)


class LocalClient(query_module.NamedReads, DirectSinkMixin):
    """In-process client: delegates straight to a :class:`Journal`."""

    def __init__(self, journal: Journal) -> None:
        self.journal = journal

    @property
    def telemetry(self) -> MetricsRegistry:
        """The journal's registry — local clients add no layer of their own."""
        return self.journal.telemetry

    def metrics(self, *, spans: int = 50) -> Dict[str, Any]:
        """Registry snapshot, mirroring the server ``metrics`` op."""
        return self.journal.telemetry.snapshot(spans=spans)

    def __enter__(self) -> "LocalClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- updates ---------------------------------------------------------

    def observe_interface(self, observation: Observation) -> Tuple[InterfaceRecord, bool]:
        return self.journal.observe_interface(observation)

    # -- sink protocol ---------------------------------------------------

    def submit(self, observation: Observation) -> Tuple[InterfaceRecord, bool]:
        return self.journal.submit(observation)

    def resolve(self, observation: Observation) -> Tuple[InterfaceRecord, bool]:
        return self.journal.resolve(observation)

    def flush(self):
        return self.journal.flush()

    def observe_batch(
        self, observations: Sequence[Observation], *, coalesced: int = 0
    ) -> List[bool]:
        """Apply a pre-coalesced batch — the local mirror of the server's
        ``batch`` op, so batched-local and batched-remote ingest keep
        identical pipeline accounting."""
        flags = [self.journal.submit(observation)[1] for observation in observations]
        self.journal.note_ingest(
            submitted=coalesced, coalesced=coalesced, batches=1 if observations else 0
        )
        self.journal.publish()
        return flags

    def note_ingest(self, **counters: int) -> None:
        self.journal.note_ingest(**counters)

    def publish(self) -> int:
        return self.journal.publish()

    # -- change feed -----------------------------------------------------

    def subscribe(self, callback: Optional[Callable] = None, *, since: int = 0):
        return self.journal.subscribe(callback, since=since)

    def revision(self) -> int:
        """The journal's current change-tracking revision."""
        return self.journal.revision

    # -- bulk -------------------------------------------------------------

    def snapshot(self) -> Journal:
        """A detached copy of the journal for offline analysis."""
        return Journal.from_dict(self.journal.to_dict())

    def close(self) -> None:
        """Nothing to release: the in-process client owns no resource
        (the topology store belongs to the journal)."""


#: every Journal call's codec, derived as this module loads
_JOURNAL_CALLS = wire.journal_calls()


def _provisional_record(observation: Observation) -> InterfaceRecord:
    """A detached stand-in for an observation accepted while the Journal
    Server is unreachable.  It carries the observation's fields but no
    server-canonical id (``record_id`` is -1): good enough for callers
    that only count observations, useless for id-based follow-ups."""
    record = InterfaceRecord()
    record.record_id = -1
    for name, value in observation.fields().items():
        record.set(name, value, 0.0, observation.source, observation.quality)
    return record


class PendingReply:
    """Handle for a pipelined request sent with
    :meth:`RemoteClient.begin`.  :meth:`wait` blocks for the matching
    response (by id); :attr:`done` peeks without blocking.  A reply may
    be waited on exactly once."""

    __slots__ = ("_client", "_rid", "_timeout")

    def __init__(self, client: "RemoteClient", rid: int, timeout: Optional[float]) -> None:
        self._client = client
        self._rid = rid
        self._timeout = timeout

    @property
    def request_id(self) -> int:
        return self._rid

    @property
    def done(self) -> bool:
        """The response has arrived (buffered, not yet consumed)."""
        self._client._absorb_buffered_frames()
        return self._rid in self._client._results

    def wait(self, timeout: Optional[float] = -1.0) -> Dict[str, Any]:
        """The response body.  Raises :class:`TimeoutError` if it does
        not arrive within the deadline, :class:`ConnectionError` if the
        server is unreachable, and :class:`RuntimeError` if the server
        answered with an error."""
        effective = self._timeout if timeout == -1.0 else timeout
        response = self._client._wait(self._rid, effective)
        if not response.get("ok"):
            _raise_server_error(response)
        return response


class _BatchReply:
    """The reply handle of :meth:`RemoteClient.observe_batch_nowait`:
    sends the batch, and parks its observe requests for replay when the
    server is unreachable — whether the send or the wait finds it gone.
    A parked batch answers with provisional flags (every observation
    changed)."""

    __slots__ = ("_client", "_requests", "_coalesced", "_reply")

    def __init__(
        self, client: "RemoteClient", requests: List[Dict[str, Any]], coalesced: int
    ) -> None:
        self._client, self._requests, self._coalesced = client, requests, coalesced
        #: the PendingReply, or the provisional response once parked
        self._reply: Union[PendingReply, Dict[str, Any]]
        try:
            self._reply = client.begin(wire.batch_request(requests, coalesced=coalesced))
        except ConnectionError:
            self._reply = self._park()

    def _park(self) -> Dict[str, Any]:
        # Batches must not nest, so the envelope is rebuilt at replay.
        client = self._client
        if len(client._pending) + len(self._requests) > client._buffer_limit:
            raise client._unreachable()
        client._pending.extend(self._requests)
        client._coalesced_owed += self._coalesced
        return {
            "ok": True,
            "responses": [{"ok": True, "changed": True} for _ in self._requests],
        }

    def wait(self, timeout: Optional[float] = -1.0) -> Dict[str, Any]:
        if isinstance(self._reply, dict):
            return self._reply
        try:
            return self._reply.wait(timeout)
        except ConnectionError:
            self._reply = self._park()
            return self._reply


class RemoteClient(query_module.NamedReads):
    """Socket client for a running :class:`JournalServer`.

    Query methods return record objects reconstructed from the wire
    form; their ``record_id`` values are the server's canonical ids and
    may be passed back into gateway/subnet operations.

    Every request is tagged with a client-chosen ``id`` and matched to
    its response by that id, so requests may be *pipelined*:
    :meth:`begin` sends without waiting and returns a
    :class:`PendingReply`; the synchronous methods are ``begin`` +
    ``wait`` in one step.  Reads block no longer than
    ``request_timeout`` seconds per reply (default: the connect
    *timeout*); a deadline miss raises :class:`TimeoutError` and drops
    the connection, since a late reply can no longer be trusted to
    match.

    The client tolerates a dead or restarting Journal Server.  A failed
    send or wait triggers a bounded reconnect loop with exponential
    backoff; once reconnected, buffered requests flush first and every
    still-unanswered in-flight request is resent with its original id
    (the Journal's merge semantics are idempotent for observations, so
    a request applied just before the server died is safe to send
    again).  If the server stays unreachable, interface observations
    (and negative-cache entries) are parked in a small replay buffer
    and flushed — as one batched request — on the next successful
    reconnect, so fieldwork done during an outage is delayed rather
    than lost.  Queries and id-returning operations cannot be faked
    locally, so they raise :class:`ConnectionError` instead; the
    Discovery Manager's crash isolation absorbs those.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
        request_timeout: Optional[float] = None,
        reconnect_attempts: int = 5,
        reconnect_backoff: float = 0.1,
        reconnect_backoff_cap: float = 2.0,
        buffer_limit: int = 256,
        fence_epoch: Optional[int] = None,
    ) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        #: when set, every write request is stamped with this fencing
        #: epoch and the server rejects it unless the epochs agree —
        #: see DESIGN.md §13.  Failover-aware callers keep it current;
        #: plain clients leave it None and are never fenced by stamp.
        self.fence_epoch = fence_epoch
        #: per-client jitter source for reconnect backoff (thundering
        #: herd: a restarted shard must not see every client's retry
        #: land on the same tick)
        self._rng = random.Random()
        #: per-reply read deadline (seconds; None disables)
        self._request_timeout = timeout if request_timeout is None else request_timeout
        self._reconnect_attempts = reconnect_attempts
        self._reconnect_backoff = reconnect_backoff
        self._reconnect_backoff_cap = reconnect_backoff_cap
        self._buffer_limit = buffer_limit
        #: requests parked while the server was unreachable
        self._pending: List[Dict[str, Any]] = []
        #: coalesced-sighting counts owed to the server from batches that
        #: had to be parked as individual observes (reported on replay)
        self._coalesced_owed = 0
        #: monotonically increasing request id (per connection object)
        self._next_id = 1
        #: id -> tagged request, in send order, awaiting a response;
        #: this doubles as the replay set after a reconnect
        self._inflight: "OrderedDict[int, Dict[str, Any]]" = OrderedDict()
        #: id -> response that arrived before its waiter asked
        self._results: Dict[int, Dict[str, Any]] = {}
        #: id -> send timestamp, for round-trip latency accounting
        self._sent_at: Dict[int, float] = {}
        #: client-side registry: round-trip latency and reconnect churn
        #: happen on this side of the socket, invisible to the server
        self.telemetry = MetricsRegistry()
        self._h_roundtrip = self.telemetry.histogram(
            "fremont_client_roundtrip_seconds",
            "Request/response round-trip latency as seen by the client",
        )
        self._h_pipeline = self.telemetry.histogram(
            "fremont_client_pipeline_depth",
            "Requests in flight on this connection at send time",
            buckets=DEPTH_BUCKETS,
        )
        self._c_reconnects = self.telemetry.counter(
            "fremont_client_reconnects_total", "Successful reconnects to the server"
        )
        self._c_replayed = self.telemetry.counter(
            "fremont_client_replayed_total", "Buffered requests replayed after an outage"
        )
        self._c_timeouts = self.telemetry.counter(
            "fremont_client_timeouts_total",
            "Requests abandoned after missing the per-request read deadline",
        )
        self._connect()

    # successful reconnects (the Discovery Manager ledgers these) and
    # buffered requests replayed so far, read from the client registry
    @property
    def reconnects(self) -> int:
        return int(self._c_reconnects.value)

    @property
    def replayed(self) -> int:
        return int(self._c_replayed.value)

    # -- plumbing ----------------------------------------------------------

    def _connect(self) -> None:
        self._socket = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        # Nagle would hold every pipelined request after the first until
        # the previous one is ACKed — the exact round-trip serialisation
        # pipelining exists to avoid.
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # FrameReader enforces deadlines with select(); the socket
        # itself must block so a frame is never torn mid-read.
        self._socket.settimeout(None)
        self._frames = wire.FrameReader(self._socket)

    def _disconnect(self) -> None:
        try:
            self._socket.close()
        except OSError:
            pass

    def _reconnect(self) -> bool:
        """Bounded reconnect with exponential backoff.  True on success.

        Each sleep is scaled by a uniform [0.5, 1.5) jitter factor drawn
        from a per-client RNG: when a shard restarts, its clients'
        deterministic schedules would otherwise converge into one
        thundering herd of simultaneous SYNs (and, once the server is
        up, simultaneous replay bursts)."""
        self._disconnect()
        delay = self._reconnect_backoff
        for attempt in range(self._reconnect_attempts):
            if attempt:
                time.sleep(
                    min(delay, self._reconnect_backoff_cap)
                    * (0.5 + self._rng.random())
                )
                delay *= 2.0
            try:
                self._connect()
            except OSError:
                continue
            self._c_reconnects.inc()
            return True
        return False

    def _unreachable(self) -> ConnectionError:
        return ConnectionError(
            f"journal server at {self._host}:{self._port} unreachable "
            f"after {self._reconnect_attempts} reconnect attempt(s)"
        )

    def _recover(self) -> bool:
        """Reconnect and resend every still-unanswered request with its
        original id.  The new connection has no memory of the old one,
        so the whole in-flight window replays; responses land by id as
        usual.  True on success."""
        if not self._reconnect():
            return False
        try:
            self._replay_inflight()
        except OSError:
            return False
        return True

    def _replay_inflight(self) -> None:
        now = time.monotonic()
        for rid, tagged in self._inflight.items():
            self._socket.sendall(wire.encode_message(tagged))
            self._sent_at[rid] = now

    def _send_tagged(self, request: Dict[str, Any]) -> int:
        """Tag *request* with a fresh id and put it on the wire.  No
        recovery — callers own the retry policy."""
        return self._send_tagged_many([request])[0]

    def _send_tagged_many(self, requests: List[Dict[str, Any]]) -> List[int]:
        """Tag each request and put the whole burst on the wire in a
        single write.  No recovery — callers own the retry policy."""
        rids: List[int] = []
        tagged_requests: List[Dict[str, Any]] = []
        parts: List[bytes] = []
        stamp = self.fence_epoch
        for request in requests:
            rid = self._next_id
            self._next_id += 1
            tagged = dict(request)
            tagged["id"] = rid
            if (
                stamp is not None
                and "epoch" not in tagged
                and tagged.get("op") in wire.WRITE_OPS
            ):
                tagged["epoch"] = int(stamp)
            rids.append(rid)
            tagged_requests.append(tagged)
            parts.append(wire.encode_message(tagged))
        self._socket.sendall(b"".join(parts))
        now = time.monotonic()
        for rid, tagged in zip(rids, tagged_requests):
            self._inflight[rid] = tagged
            self._sent_at[rid] = now
        self._h_pipeline.observe(len(self._inflight))
        return rids

    def _absorb_frame(self, frame: Dict[str, Any]) -> None:
        """File one incoming frame by request id."""
        if "event" in frame:
            return  # push frames never arrive on a request socket
        rid = frame.get("id")
        if rid is None or (rid not in self._inflight and rid not in self._results):
            return  # stale reply from before a timeout-triggered drop
        self._inflight.pop(rid, None)
        sent = self._sent_at.pop(rid, None)
        if sent is not None:
            self._h_roundtrip.observe(time.monotonic() - sent)
        self._results[rid] = frame

    def _absorb_buffered_frames(self) -> None:
        """Drain already-buffered frames without blocking."""
        while self._frames.pending():
            frame = self._frames.read(0)
            if frame is None:
                break
            self._absorb_frame(frame)

    def _forget(self, rid: int) -> None:
        self._inflight.pop(rid, None)
        self._results.pop(rid, None)
        self._sent_at.pop(rid, None)

    def _wait(self, rid: int, timeout: Optional[float]) -> Dict[str, Any]:
        """Block until the response for *rid* arrives, reconnecting
        (once per wait) on a dead connection.  A deadline miss raises
        :class:`TimeoutError` after dropping the connection — a reply
        that late may belong to a request we have given up on."""
        for attempt in (0, 1):
            deadline = None if timeout is None else time.monotonic() + timeout
            try:
                while rid not in self._results:
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        frame = None
                    else:
                        frame = self._frames.read(remaining)
                    if frame is None:
                        op = self._inflight.get(rid, {}).get("op")
                        self._c_timeouts.inc()
                        self._forget(rid)
                        self._disconnect()
                        raise ReplyTimeout(
                            f"no reply from journal server within {timeout}s"
                            f" (op {op!r})"
                        )
                    self._absorb_frame(frame)
                return self._results.pop(rid)
            except TimeoutError:
                # A deadline miss is not a dead connection (TimeoutError
                # subclasses OSError): no reconnect, no resend.
                raise
            except (ConnectionError, OSError):
                # rid stays in _inflight, so _recover() resends it.
                if attempt or not self._recover():
                    self._forget(rid)
                    raise self._unreachable() from None
        raise AssertionError("unreachable")  # pragma: no cover

    def begin(
        self, request: Dict[str, Any], *, timeout: float = -1.0
    ) -> PendingReply:
        """Send *request* without waiting for its response.  Parked
        requests flush first (preserving observation order); a dead
        connection triggers one recovery cycle.  The returned
        :class:`PendingReply` resolves the response later — possibly
        after responses to requests sent more recently."""
        for attempt in (0, 1):
            try:
                self._flush_pending()
                rid = self._send_tagged(request)
                break
            except (ConnectionError, OSError):
                if attempt or not self._recover():
                    raise self._unreachable() from None
        effective = self._request_timeout if timeout == -1.0 else timeout
        return PendingReply(self, rid, effective)

    def begin_many(
        self, requests: List[Dict[str, Any]], *, timeout: float = -1.0
    ) -> List[PendingReply]:
        """Pipeline a burst of requests in one socket write.

        Semantically ``[begin(r) for r in requests]``, but the whole
        burst is framed and sent with a single ``sendall`` — at depth
        *n* that is one syscall (and, with ``TCP_NODELAY``, one packet)
        instead of *n*, which is where most of a pipelined burst's
        round trip goes."""
        if not requests:
            return []
        for attempt in (0, 1):
            try:
                self._flush_pending()
                rids = self._send_tagged_many(requests)
                break
            except (ConnectionError, OSError):
                if attempt or not self._recover():
                    raise self._unreachable() from None
        effective = self._request_timeout if timeout == -1.0 else timeout
        return [PendingReply(self, rid, effective) for rid in rids]

    def _flush_pending(self) -> None:
        """Replay buffered requests in one batch.  Raises on failure,
        leaving the buffer intact for the next attempt."""
        if not self._pending:
            return
        batch = list(self._pending)
        owed = self._coalesced_owed
        rid = self._send_tagged(wire.batch_request(batch, coalesced=owed))
        try:
            response = self._wait(rid, self._request_timeout)
        except BaseException:
            # Do not leave the batch in the replay window: the buffer
            # still holds it, and replaying both would double-send.
            self._forget(rid)
            raise
        if not response.get("ok"):
            _raise_server_error(response)
        self._c_replayed.inc(len(batch))
        # Only drop what was sent: a concurrent buffering caller may
        # have appended while the batch was in flight.
        del self._pending[: len(batch)]
        self._coalesced_owed -= owed

    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response: ``begin`` + ``wait``.  Responses to
        other in-flight requests arriving first are filed, not lost."""
        return self.begin(request).wait()

    def _call_or_buffer(self, request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Like :meth:`_call`, but on an unreachable server park the
        request for replay and return None instead of raising."""
        try:
            return self._call(request)
        except ConnectionError:
            if len(self._pending) >= self._buffer_limit:
                raise
            self._pending.append(request)
            return None

    @property
    def pending_replay(self) -> int:
        """Requests currently parked for replay."""
        return len(self._pending)

    @property
    def inflight(self) -> int:
        """Pipelined requests awaiting a response."""
        return len(self._inflight)

    def flush(self) -> int:
        """Force-flush the replay buffer (reconnecting if necessary).
        Returns the number of requests replayed."""
        before = self.replayed
        if self._pending:
            self._call(wire.batch_request([]))  # rides the _call flush path
        return self.replayed - before

    def handoff(self) -> Tuple[List[Dict[str, Any]], int]:
        """Surrender every unacknowledged write for replay elsewhere.

        Returns ``(requests, coalesced_owed)``: parked requests plus
        in-flight *writes* still awaiting a response, in send order,
        with ``id``/``epoch`` stamps stripped so another connection can
        re-send them under its own ids and fencing epoch.  In-flight
        reads are dropped (nothing is lost by not re-asking) and their
        waiters — like any waiter on this client — will fail; callers
        performing a failover own that trade.  The client is left
        disconnected with empty buffers, so a subsequent :meth:`close`
        will not stall trying to reach the dead server."""
        requests: List[Dict[str, Any]] = []
        for tagged in self._inflight.values():
            if tagged.get("op") not in wire.WRITE_OPS:
                continue
            requests.append(
                {k: v for k, v in tagged.items() if k not in ("id", "epoch")}
            )
        requests.extend(
            {k: v for k, v in parked.items() if k not in ("id", "epoch")}
            for parked in self._pending
        )
        owed = self._coalesced_owed
        self._inflight.clear()
        self._pending.clear()
        self._results.clear()
        self._sent_at.clear()
        self._coalesced_owed = 0
        self._disconnect()
        return requests, owed

    def adopt(self, requests: List[Dict[str, Any]], *, coalesced: int = 0) -> None:
        """Park requests harvested from another client's :meth:`handoff`
        ahead of this client's own buffer; they replay (as one batch,
        stamped with this client's fencing epoch) before the next
        request goes out.  Safe because every write op is an idempotent
        merge: a request the dead server already applied re-applies as
        a no-op."""
        self._pending[:0] = requests
        self._coalesced_owed += coalesced

    def settle(self, timeout: Optional[float] = -1.0) -> int:
        """Wait for every pipelined request still in flight (responses
        are filed for their :class:`PendingReply` waiters).  Returns the
        number of requests settled."""
        effective = self._request_timeout if timeout == -1.0 else timeout
        deadline = None if effective is None else time.monotonic() + effective
        settled = 0
        while self._inflight:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                break
            frame = self._frames.read(remaining)
            if frame is None:
                break
            before = len(self._inflight)
            self._absorb_frame(frame)
            settled += before - len(self._inflight)
        return settled

    def close(self) -> None:
        if self._pending:
            # Best effort: reconnect if needed to hand over buffered
            # observations before going away.
            try:
                self._call(wire.batch_request([]))
            except (ConnectionError, RuntimeError, TimeoutError):
                pass
        if self._inflight:
            # Pipelined writes are already on the wire; wait briefly so
            # their responses (and thus server application) are seen.
            try:
                self.settle()
            except (ConnectionError, OSError, wire.WireError):
                pass
        self._disconnect()

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- updates ------------------------------------------------------------

    def observe_interface(self, observation: Observation) -> Tuple[InterfaceRecord, bool]:
        request = {"op": "observe", "observation": wire.observation_to_dict(observation)}
        response = self._call_or_buffer(request)
        if response is None:
            # Server unreachable: the observation is parked for replay.
            # Stand in with a provisional record (record_id -1 marks it
            # as never having been assigned a server-canonical id).
            return _provisional_record(observation), True
        return wire.interface_from_dict(response["record"]), response["changed"]

    # -- sink protocol ---------------------------------------------------

    def submit(self, observation: Observation) -> Tuple[InterfaceRecord, bool]:
        return self.observe_interface(observation)

    def resolve(self, observation: Observation) -> Tuple[InterfaceRecord, bool]:
        return self.observe_interface(observation)

    def observe_batch(
        self, observations: Sequence[Observation], *, coalesced: int = 0
    ) -> List[bool]:
        """Apply a batch of observations in one round trip (the server
        ``observe_batch`` op) — the :class:`~repro.core.sink.BatchingSink`
        flush path.  Returns per-observation changed flags; see
        :meth:`observe_batch_nowait` for the outage behaviour."""
        response = self.observe_batch_nowait(observations, coalesced=coalesced).wait()
        return [bool(item.get("changed")) for item in response["responses"]]

    def observe_batch_nowait(
        self, observations: Sequence[Observation], *, coalesced: int = 0
    ) -> "_BatchReply":
        """Pipelined :meth:`observe_batch`: put the batch on the wire and
        return a reply handle instead of blocking — the sink's pipelined
        flush path, which keeps several batches in flight to hide the
        round trip.  If the server is unreachable, before the send or
        while the reply is awaited, the observe requests are parked for
        replay and every flag reports True provisionally."""
        sub_requests = [
            {"op": "observe", "observation": wire.observation_to_dict(observation)}
            for observation in observations
        ]
        return _BatchReply(self, sub_requests, coalesced)

    # -- change feed -----------------------------------------------------

    def subscribe(self, *, since: int = 0) -> "RemoteChangeFeed":
        """Open a dedicated streaming connection that receives a pushed
        delta frame whenever a write lands on the server."""
        return RemoteChangeFeed(
            self._host, self._port, since=since, timeout=self._timeout
        )

    # -- queries --------------------------------------------------------------

    def metrics(self, *, spans: int = 50) -> Dict[str, Any]:
        """The server registry's snapshot (the ``metrics`` wire op):
        metric families with values/buckets plus recent spans.  This is
        the server-side view; the client's own round-trip latency and
        reconnect counters live in :attr:`telemetry`."""
        return self._call({"op": "metrics", "spans": int(spans)})["metrics"]

    def revision(self) -> int:
        """The server journal's change-tracking revision (cheap poll:
        a replica or dashboard can skip a sync when it hasn't moved)."""
        return self._call({"op": "counts"})["counts"]["revision"]

    def shard_info(self) -> Optional[Dict[str, Any]]:
        """Federation handshake (the ``shard_info`` op): the server's
        shard identity, or None when it is not part of a sharded
        fleet.  :class:`~repro.core.shard.ShardedClient` calls this to
        refuse a mis-assembled fleet."""
        return wire.shard_info_from_dict(self._call({"op": "shard_info"}).get("shard"))

    def replica_info(self) -> Optional[Dict[str, Any]]:
        """The server's failover coordinates from the ``shard_info``
        handshake: ``{"role", "epoch", "revision"}``.  None only when
        talking to a peer that predates the failover protocol."""
        return wire.replica_info_from_dict(
            self._call({"op": "shard_info"}).get("replica")
        )

    def promote(self, epoch: Optional[int] = None) -> int:
        """Seat this server as its shard's primary (the ``promote``
        op).  *epoch* must move strictly forward; None asks the server
        to bump its own epoch by one.  Returns the new epoch.  Raises
        :class:`~repro.core.wire.FencedError` when the promotion loses
        an epoch race."""
        request: Dict[str, Any] = {"op": "promote"}
        if epoch is not None:
            request["epoch"] = int(epoch)
        return int(self._call(request)["epoch"])

    def fence(self, epoch: int) -> int:
        """Demote a stale ex-primary (the ``fence`` op): after this the
        server rejects every write — stamped or not — so clients that
        missed the failover get hard errors instead of acknowledgements
        into a journal nobody replicates.  Returns the server's
        (updated) epoch."""
        return int(self._call({"op": "fence", "epoch": int(epoch)})["epoch"])

    # -- bulk ----------------------------------------------------------------------

    def snapshot(self) -> Journal:
        """Fetch the full journal for offline analysis/presentation."""
        response = self._call({"op": "dump"})
        return Journal.from_dict(response["journal"])


# RemoteClient speaks the sink protocol by duck typing (its flush
# drains the replay buffer, not a local queue); registering it lets
# isinstance-based plumbing (connect, tooling) treat it uniformly.
ObservationSink.register(RemoteClient)


# ---------------------------------------------------------------------------
# methods derived from wire.OPS
# ---------------------------------------------------------------------------


def install_op_methods(cls, build: Callable[[str, str], Optional[Callable]]) -> None:
    """Give *cls* a method for every client method name that
    :data:`wire.OPS` declares and *cls* does not define itself:
    ``build(op, name)`` makes it, or returns None to leave the name
    alone.  The one mechanism behind every derived client method — the
    plain Journal calls of :class:`LocalClient` and :class:`RemoteClient`
    below, and :class:`~repro.core.failover.FailoverClient`'s proxies."""
    own = set(vars(cls))
    for op, spec in wire.OPS.items():
        for name in spec.methods:
            if name in own:
                continue
            method = build(op, name)
            if method is not None:
                method.__qualname__ = f"{cls.__name__}.{name}"
                setattr(cls, name, method)


def _plain_call(make: Callable[[str], Callable]):
    """A ``build`` for :func:`install_op_methods`: the method named like
    a plain-Journal-call op, made by ``make(op)`` and dressed as the
    Journal method (name, signature and docstring)."""

    def build(op: str, name: str) -> Optional[Callable]:
        if name != op or wire.OPS[op].reply is None:
            return None
        method, journal_method = make(op), getattr(Journal, op)
        method.__name__, method.__doc__ = op, journal_method.__doc__
        method.__signature__ = inspect.signature(journal_method)
        return method

    return build


def _local_method(op: str) -> Callable:
    def method(self, *args, **kwargs):
        return getattr(self.journal, op)(*args, **kwargs)

    return method


def _remote_method(op: str) -> Callable:
    call = _JOURNAL_CALLS[op]
    parks = call.spec.parks

    def method(self, *args, **kwargs):
        request = call.request(args, kwargs)
        response = self._call_or_buffer(request) if parks else self._call(request)
        # A parked request has no reply yet, and a parking op returns None.
        return None if response is None else call.result(response)

    return method


install_op_methods(LocalClient, _plain_call(_local_method))
install_op_methods(RemoteClient, _plain_call(_remote_method))


# ---------------------------------------------------------------------------
# fan-out: one call started on many clients
# ---------------------------------------------------------------------------


class _Started:
    """A call :func:`begin_call` started: ``wait()`` gives its result."""

    __slots__ = ("wait",)

    def __init__(self, wait: Callable[[], Any]) -> None:
        self.wait = wait


def begin_call(client, name: str, /, *args: Any, **kwargs: Any) -> _Started:
    """Start ``client.<name>(*args, **kwargs)``.  On a
    :class:`RemoteClient` a plain Journal call is only sent here (its
    handle's ``wait()`` decodes the reply and raises like
    :meth:`PendingReply.wait`), so a caller can start it on several
    servers before it waits on any; any other client or method answers
    before this returns."""
    call = _JOURNAL_CALLS.get(name)
    if isinstance(client, RemoteClient) and call is not None and call.spec.reply is not None:
        reply = client.begin(call.request(args, kwargs))
        return _Started(lambda: call.result(reply.wait()))
    answer = getattr(client, name)(*args, **kwargs)
    return _Started(lambda: answer)


def scatter(starters: Sequence[Callable[[], Any]]) -> Tuple[List[Any], List[int], Any]:
    """Start every call (each starter returns a :func:`begin_call`
    handle), then wait on every one that started, so a failure never
    leaves an unread reply on a connection.

    Returns ``(answers, missing, failure)``: the results by starter
    index (None where none arrived), the sorted indexes whose client was
    unreachable, and the first other error (a server error reply or a
    payload the codec rejected), for the caller to raise."""
    started = []
    missing: List[int] = []
    failure: Optional[Exception] = None
    for index, start in enumerate(starters):
        try:
            started.append((index, start()))
        except (ConnectionError, TimeoutError):
            missing.append(index)
        except (RuntimeError, ValueError) as error:
            failure = failure or error
    answers: List[Any] = [None] * len(starters)
    for index, pending in started:
        try:
            answers[index] = pending.wait()
        except (ConnectionError, TimeoutError):
            missing.append(index)
        except (RuntimeError, ValueError) as error:
            failure = failure or error
    return answers, sorted(missing), failure


class RemoteChangeFeed:
    """Client side of the streaming ``subscribe`` op.

    Holds its own socket: after the subscribe handshake the server pushes
    a ``{"event": "changes"}`` frame per completed write, so the
    connection cannot be shared with request/response traffic.  Frames
    are drained with :meth:`poll`; each one is a
    :class:`~repro.core.journal.JournalChanges` delta whose ``since``
    matches the previous frame's ``revision`` (the server keeps a
    per-subscriber cursor).

    A consumer that falls too far behind is demoted by the server: a
    ``{"event": "feed_lagged"}`` frame marks the cutover, after which no
    more pushes arrive and the feed transparently switches
    :attr:`mode` from ``"push"`` to ``"polling"`` — each subsequent
    :meth:`poll` issues a ``changes_since`` request on the same socket.
    Deltas stay correct either way (revision bookkeeping is identical);
    only the latency model changes.

    A *dropped* stream is survived rather than surfaced: the feed
    reconnects (bounded, jittered backoff) and re-subscribes from
    :attr:`revision` — the cursor of the last delta actually delivered
    — so the server replays everything past it as the new backlog.  A
    flapping link therefore delays deltas but never duplicates or
    skips one; each delta's ``since`` still equals the previous
    delta's ``revision``.  Only when every resume attempt fails does
    :meth:`poll` raise :class:`ConnectionError`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        since: int = 0,
        timeout: float = 10.0,
        reconnect_attempts: int = 5,
        reconnect_backoff: float = 0.1,
        reconnect_backoff_cap: float = 2.0,
    ) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._reconnect_attempts = reconnect_attempts
        self._reconnect_backoff = reconnect_backoff
        self._reconnect_backoff_cap = reconnect_backoff_cap
        self._rng = random.Random()
        self._closed = False
        self.frames_received = 0
        #: reconnect-and-resubscribe cycles survived so far
        self.resumes = 0
        #: "push" until the server demotes us, then "polling"
        self.mode = "push"
        #: delivery cursor: every server change up to this revision has
        #: been handed to the consumer (or predates the subscription).
        #: Doubles as the resume point after a dropped stream.
        self.revision = int(since)
        #: server revision reported by the last subscribe handshake
        self.server_revision = 0
        self._subscribe()

    def _subscribe(self) -> None:
        """Open the stream socket and perform the subscribe handshake
        from the current delivery cursor."""
        self._socket = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # poll() manages its own deadlines via select(); the socket
        # itself must block so a frame is never torn mid-read.
        self._socket.settimeout(None)
        self._frames = wire.FrameReader(self._socket)
        self._socket.sendall(
            wire.encode_message({"op": "subscribe", "since": int(self.revision)})
        )
        try:
            ack = self._frames.read(self._timeout)
        except ConnectionError:
            ack = None
        if ack is None:
            self._close_socket()
            raise ConnectionError("subscribe handshake timed out")
        if not ack.get("ok"):
            self._close_socket()
            raise ConnectionError(f"subscribe rejected: {ack.get('error')}")
        self.server_revision = int(ack.get("revision", 0))

    def _resume(self) -> None:
        """The stream died mid-subscription: reconnect with bounded,
        jittered backoff and re-subscribe from the delivery cursor."""
        if self._closed:
            raise ConnectionError("subscribe stream closed")
        self._close_socket()
        delay = self._reconnect_backoff
        error: Optional[Exception] = None
        for attempt in range(self._reconnect_attempts):
            if attempt:
                time.sleep(
                    min(delay, self._reconnect_backoff_cap)
                    * (0.5 + self._rng.random())
                )
                delay *= 2.0
            try:
                self._subscribe()
            except (ConnectionError, OSError) as exc:
                error = exc
                continue
            # The fresh subscription pushes again even if the old one
            # had been demoted to polling.
            self.mode = "push"
            self.resumes += 1
            return
        raise ConnectionError(
            f"subscribe stream to {self._host}:{self._port} lost and "
            f"resume failed after {self._reconnect_attempts} attempt(s)"
        ) from error

    def _read_frame(self, timeout: Optional[float]) -> Optional[Dict[str, Any]]:
        try:
            return self._frames.read(timeout)
        except ConnectionError:
            self._resume()
            return self._frames.read(timeout)

    def poll(self, timeout: Optional[float] = 0.5) -> Optional[JournalChanges]:
        """The next delta, or None if nothing arrives within *timeout*
        seconds (None blocks indefinitely).  In polling mode this is a
        ``changes_since`` round trip instead of a passive read."""
        if self.mode == "polling":
            return self._poll_changes()
        frame = self._read_frame(timeout)
        if frame is None:
            return None
        event = frame.get("event")
        if event == "feed_lagged":
            # The server dropped our subscription — we were not keeping
            # up.  The frame's revision marker is where pushes STOPPED
            # (the first delta that failed to enqueue, which we never
            # received), so resuming from it would silently skip that
            # delta.  Poll forward from the revision actually delivered.
            self.mode = "polling"
            return self._poll_changes()
        if event != "changes":
            return None
        changes = wire.changes_from_dict(frame["changes"])
        self.revision = changes.revision
        self.frames_received += 1
        return changes

    def _poll_changes(self) -> Optional[JournalChanges]:
        """One ``changes_since`` round trip from the current revision.
        Straggler push frames (queued server-side before the demotion
        landed) are skipped — their changes are covered by the poll
        response's wider delta."""
        try:
            self._socket.sendall(
                wire.encode_message(
                    {"op": "changes_since", "since": int(self.revision)}
                )
            )
        except OSError:
            # Resume re-subscribes in push mode; the replayed backlog
            # covers the poll this send was asking for.
            self._resume()
            return self.poll(0.0)
        deadline = time.monotonic() + self._timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            frame = self._read_frame(remaining)
            if frame is None:
                return None
            if "event" in frame:
                continue
            if not frame.get("ok"):
                raise ConnectionError(
                    f"changes_since failed: {frame.get('error')}"
                )
            changes = wire.changes_from_dict(frame["changes"])
            self.revision = max(self.revision, changes.revision)
            return None if changes.empty() else changes

    def drain(self, timeout: Optional[float] = 0.5) -> Optional[JournalChanges]:
        """Collapse every frame currently pending (waiting up to
        *timeout* for the first) into one merged delta, or None."""
        merged = self.poll(timeout)
        if merged is None:
            return None
        while True:
            extra = self.poll(0.0)
            if extra is None:
                return merged
            merged.merge(extra)

    def _close_socket(self) -> None:
        try:
            self._socket.close()
        except OSError:
            pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._close_socket()

    def __enter__(self) -> "RemoteChangeFeed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _CacheEntry:
    """One cached query result and the feed watch that guards it."""

    __slots__ = ("kind", "records", "watch")

    def __init__(self, kind: str, records: List, watch) -> None:
        self.kind = kind
        self.records = records
        self.watch = watch


class QueryCache:
    """Client-side query result cache, invalidated by the change feed.

    Wraps any journal client (:class:`LocalClient` or
    :class:`RemoteClient`).  Repeated queries for the same ``(kind,
    predicate)`` are served from memory — for a remote client that is a
    cache hit with **zero wire round trips**, because invalidation rides
    the server's existing push feed: the cache holds a
    :class:`RemoteChangeFeed` (push mode) and, before every lookup,
    drains only the frames the kernel has already buffered.  Each
    feed delta carries the index keys it touched
    (:attr:`~repro.core.journal.JournalChanges.keys`); an entry is
    evicted when a delta touches its kind *and* its predicate's key
    watch matches — a subnet-scoped query survives unrelated writes.

    Coherence contract: over revision-changing mutations, the cache
    never serves a result an uncached query would not also have
    produced at some point since the previous access (drain-then-serve:
    any write whose feed frame has reached this host is applied before
    a hit).  Verify-only refreshes (re-observing a known value) advance
    ``last_modified`` without a feed delta, which is why predicates
    over freshness — ``ModifiedSince``, ``VerifiedBefore``, ``Stale``,
    ``Confidence`` — are *uncacheable*: they pass straight through to
    the client on every call (counted as misses, never stored).  For
    cacheable predicates the same mechanism bounds what a hit promises:
    *membership* is always current, but the ``(last_modified,
    record_id)`` ordering of a cached result can lag a verify-only
    refresh, since last_modified is exactly the freshness the feed
    does not report.

    After writing through the same underlying client, call
    :meth:`sync` for read-your-writes: it blocks until the feed cursor
    reaches the server revision, applying every eviction in between.

    Counters (on ``client.telemetry``): ``fremont_query_cache_hits/``
    ``misses/evictions_total``.
    """

    def __init__(self, client, *, max_entries: int = 128) -> None:
        if getattr(client, "is_sharded", False):
            raise TypeError(
                "QueryCache cannot wrap a ShardedClient: sync() compares "
                "a scalar feed cursor against the fleet's summed revision, "
                "which can report 'caught up' while one shard's feed still "
                "lags (another shard's deliveries cover the sum).  Cache "
                "per shard, or query an aggregate FederatedView instead."
            )
        self.client = client
        self.max_entries = max_entries
        #: (kind, canonical predicate key) -> _CacheEntry, LRU-ordered
        self._entries: "OrderedDict[Tuple[str, str], _CacheEntry]" = OrderedDict()
        journal = getattr(client, "journal", None)
        self._feed: Optional[RemoteChangeFeed] = None
        self._subscription = None
        if journal is not None:
            # In-process: a pull subscription drained synchronously
            # before each lookup — coherent without any publish step.
            self._subscription = journal.subscribe(since=journal.revision)
        else:
            # Remote: subscribing *from the current server revision*
            # means the backlog delta (pushed under the same write lock
            # as registration) covers any write racing the handshake.
            self._feed = client.subscribe(since=client.revision())
        registry = client.telemetry
        self._c_hits = registry.counter(
            "fremont_query_cache_hits_total",
            "Queries served from the client cache (no wire round trip)",
        )
        self._c_misses = registry.counter(
            "fremont_query_cache_misses_total",
            "Queries forwarded to the journal (uncached or uncacheable)",
        )
        self._c_evictions = registry.counter(
            "fremont_query_cache_evictions_total",
            "Cache entries dropped by feed invalidation or capacity",
        )

    # convenience views for tests and dashboards
    @property
    def hits(self) -> int:
        return int(self._c_hits.value)

    @property
    def misses(self) -> int:
        return int(self._c_misses.value)

    @property
    def evictions(self) -> int:
        return int(self._c_evictions.value)

    def __len__(self) -> int:
        return len(self._entries)

    def query(self, kind: str, where=None) -> List:
        """Like ``client.query``, but hits are served locally."""
        kind = query_module.normalize_kind(kind)
        self._drain()
        if not query_module.cacheable(where):
            self._c_misses.inc()
            return self.client.query(kind, where)
        key = (kind, query_module.cache_key(where))
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._c_hits.inc()
            return list(entry.records)
        self._c_misses.inc()
        records = self.client.query(kind, where)
        self._entries[key] = _CacheEntry(
            kind, list(records), query_module.watch_for(where, kind)
        )
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._c_evictions.inc()
        return records

    def invalidate(self) -> None:
        """Drop everything (manual escape hatch)."""
        if self._entries:
            self._c_evictions.inc(len(self._entries))
            self._entries.clear()

    def sync(self, timeout: float = 5.0) -> None:
        """Read-your-writes barrier: block until every write the server
        has committed so far is reflected in the cache's eviction state.
        Costs one ``counts`` round trip (plus feed reads); local caches
        are synchronously coherent, so it only drains."""
        if self._feed is None:
            self._drain()
            return
        target = self.client.revision()
        deadline = time.monotonic() + timeout
        while self._feed.revision < target:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"change feed did not reach revision {target} "
                    f"within {timeout}s (at {self._feed.revision})"
                )
            self._apply(self._feed.poll(remaining))
        self._drain()

    def _drain(self) -> None:
        """Apply every pending feed delta without blocking (and, for
        the remote feed in push mode, without any wire round trip)."""
        if self._subscription is not None:
            if self._subscription.pending:
                self._apply(self._subscription.poll())
        elif self._feed is not None:
            self._apply(self._feed.drain(0.0))

    def _apply(self, changes: Optional[JournalChanges]) -> None:
        if changes is None or not self._entries:
            return
        if not changes.complete:
            # The window was pruned out from under us (polling-mode
            # fallback after a lag demotion): trust nothing.
            self.invalidate()
            return
        touched = {
            "interfaces": bool(changes.interfaces or changes.deleted_interfaces),
            "gateways": bool(changes.gateways or changes.deleted_gateways),
            "subnets": bool(changes.subnets or changes.deleted_subnets),
        }
        if not any(touched.values()):
            return
        doomed = [
            key
            for key, entry in self._entries.items()
            if touched[entry.kind] and entry.watch.triggered(changes.keys)
        ]
        for key in doomed:
            del self._entries[key]
        if doomed:
            self._c_evictions.inc(len(doomed))

    def close(self) -> None:
        if self._subscription is not None:
            self._subscription.close()
            self._subscription = None
        if self._feed is not None:
            self._feed.close()
            self._feed = None

    def __enter__(self) -> "QueryCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# the front door
# ---------------------------------------------------------------------------


def _parse_address(target: str) -> Tuple[str, int]:
    host, separator, port = target.rpartition(":")
    if not separator or not port.isdigit():
        raise ValueError(f"expected 'host:port', got {target!r}")
    return host or "127.0.0.1", int(port)


def parse_targets(spec: str) -> List[Tuple[str, int]]:
    """Parse a (possibly multi-address) remote target string into a
    flat address list.

    Accepted forms: ``"host:port"``, ``"h1:p1,h2:p2,..."``, the
    explicit ``"shard://h1:p1,h2:p2"`` scheme, and the replicated form
    ``"shard://h1:p1|r1:q1,h2:p2|r2:q2"`` (``|`` separates a shard's
    replicas).  Returns every addressed server in shard order,
    primaries and replicas alike — the right view for fleet-wide
    tooling like ``fremont stats``; routing keeps the grouping via
    :func:`parse_replica_targets`.  An empty host normalises to
    ``127.0.0.1``.
    """
    return [
        address for group in parse_replica_targets(spec) for address in group
    ]


def parse_replica_targets(spec: str) -> List[List[Tuple[str, int]]]:
    """Parse a remote target string keeping the replica structure: one
    address group per shard, the group's first address being the
    preferred primary.  Inverse of :func:`format_replica_targets`."""
    body = spec[len("shard://"):] if spec.startswith("shard://") else spec
    parts = [part.strip() for part in body.split(",")]
    if not body or any(not part for part in parts):
        raise ValueError(f"malformed multi-address target: {spec!r}")
    groups: List[List[Tuple[str, int]]] = []
    for part in parts:
        members = [member.strip() for member in part.split("|")]
        if any(not member for member in members):
            raise ValueError(f"malformed replica list: {part!r} in {spec!r}")
        groups.append([_parse_address(member) for member in members])
    return groups


def format_targets(addresses: Sequence[Tuple[str, int]]) -> str:
    """Render ``(host, port)`` pairs as a connect() target string:
    ``"host:port"`` for one address, ``"shard://h1:p1,h2:p2"`` for a
    fleet.  ``parse_targets(format_targets(a)) == list(a)`` for any
    normalised address list."""
    if not addresses:
        raise ValueError("no addresses to format")
    rendered = ",".join(f"{host}:{int(port)}" for host, port in addresses)
    return f"shard://{rendered}" if len(addresses) > 1 else rendered


def format_replica_targets(groups: Sequence[Sequence[Tuple[str, int]]]) -> str:
    """Render per-shard replica groups as a connect() target string —
    ``shard://h1:p1|r1:q1,h2:p2|r2:q2``.  A single unreplicated group
    renders as a bare ``host:port``."""
    if not groups or any(not group for group in groups):
        raise ValueError("no addresses to format")
    rendered = ",".join(
        "|".join(f"{host}:{int(port)}" for host, port in group)
        for group in groups
    )
    if len(groups) > 1 or any(len(group) > 1 for group in groups):
        return f"shard://{rendered}"
    return rendered


def _is_remote_target(target) -> bool:
    if isinstance(target, str):
        return True
    if isinstance(target, tuple) and len(target) == 2:
        return True
    # A replica group: a list of (host, port) addresses for one shard.
    return (
        isinstance(target, list)
        and bool(target)
        and all(
            isinstance(member, tuple) and len(member) == 2 for member in target
        )
    )


def _build_replicated_client(group, *, retry):
    """One shard's client from its address group: a plain RemoteClient
    for a single address, a FailoverClient over the replica set
    otherwise."""
    if len(group) == 1:
        host, port = group[0]
        return RemoteClient(host, int(port), **(retry or {}))
    from .failover import FailoverClient

    return FailoverClient(group, retry=retry)


def _connect_sharded(targets, *, retry, telemetry, clock):
    """Build a ShardedClient from a list of per-shard targets.  All
    targets must be remote (str / (host, port) / RemoteClient) or all
    local (None / Journal / LocalClient) — a mixed fleet has no
    coherent durability or failure story, so it is rejected outright."""
    from .shard import ShardedClient

    targets = list(targets)
    if not targets:
        raise ValueError("a sharded connect() needs at least one target")
    from .failover import FailoverClient

    remote_flags = [
        _is_remote_target(target)
        or isinstance(target, (RemoteClient, FailoverClient))
        for target in targets
    ]
    local_flags = [
        target is None or isinstance(target, (Journal, LocalClient))
        for target in targets
    ]
    if any(remote_flags) and any(local_flags):
        raise ValueError(
            "cannot mix local and remote targets in one sharded "
            f"connect(): {targets!r} — every shard must be either an "
            "address or a Journal/None, not a blend"
        )
    clients: List[Any] = []
    if all(remote_flags):
        for target in targets:
            if isinstance(target, (RemoteClient, FailoverClient)):
                clients.append(target)
            elif isinstance(target, str):
                (group,) = parse_replica_targets(target)
                clients.append(_build_replicated_client(group, retry=retry))
            elif isinstance(target, list):
                group = [(host, int(port)) for host, port in target]
                clients.append(_build_replicated_client(group, retry=retry))
            else:
                host, port = target[0], int(target[1])
                clients.append(RemoteClient(host, port, **(retry or {})))
    elif all(local_flags):
        if retry:
            raise ValueError("retry options only apply to remote targets")
        for target in targets:
            if isinstance(target, LocalClient):
                clients.append(target)
                continue
            journal = (
                target
                if isinstance(target, Journal)
                else Journal(clock=clock, telemetry=telemetry)
            )
            clients.append(LocalClient(journal))
    else:
        raise TypeError(f"cannot shard across {targets!r}")
    return ShardedClient(clients)


def connect(
    target: Union[Journal, ObservationSink, str, Tuple[str, int], None] = None,
    *,
    batching: Union[bool, int, Dict[str, Any], None] = None,
    retry: Optional[Dict[str, Any]] = None,
    telemetry: Optional[MetricsRegistry] = None,
    clock: Optional[Callable[[], float]] = None,
) -> ObservationSink:
    """Build a journal client stack in one call.

    *target* selects the base client:

    * ``None`` — a fresh in-process :class:`Journal` wrapped in a
      :class:`LocalClient` (*telemetry*/*clock* seed the new journal);
    * a :class:`Journal` — wrapped in a :class:`LocalClient`;
    * ``"host:port"`` or ``(host, port)`` — a :class:`RemoteClient`;
      *retry* keywords (``timeout``, ``request_timeout``,
      ``reconnect_attempts``, ``reconnect_backoff``,
      ``reconnect_backoff_cap``, ``buffer_limit``) pass through to its
      constructor;
    * ``"shard://h1:p1,h2:p2"`` (or a bare comma-joined address list) —
      a :class:`~repro.core.shard.ShardedClient` routing across the
      addressed shard servers, in the given order;
    * a **list** of targets — one shard per element: all addresses, or
      all local (``None``/:class:`Journal`).  Mixing local and remote
      shards raises :class:`ValueError`;
    * any existing :class:`ObservationSink` — used as-is.

    *batching* optionally stacks a :class:`~repro.core.sink.BatchingSink`
    on top: ``True`` for the defaults, an int for ``max_batch``, or a
    dict of BatchingSink keywords (``max_batch``, ``max_age``,
    ``pipeline_depth``, ``clock`` — *clock* fills in the sink clock when
    the dict omits it).

    Replaces the hand-assembled ``BatchingSink(RemoteClient(...))``
    stacks: every layer still exists, ``connect`` just wires it.
    """
    if isinstance(target, str):
        if target.startswith("shard://") or "," in target:
            client: ObservationSink = _connect_sharded(
                [list(group) for group in parse_replica_targets(target)],
                retry=retry, telemetry=telemetry, clock=clock,
            )
        elif "|" in target:
            (group,) = parse_replica_targets(target)
            client = _build_replicated_client(group, retry=retry)
        else:
            host, port = _parse_address(target)
            client = RemoteClient(host, port, **(retry or {}))
    elif isinstance(target, list):
        client = _connect_sharded(
            target, retry=retry, telemetry=telemetry, clock=clock
        )
    elif isinstance(target, tuple):
        host, port = target
        client = RemoteClient(host, int(port), **(retry or {}))
    else:
        if retry:
            raise ValueError("retry options only apply to remote targets")
        if target is None:
            client = LocalClient(Journal(clock=clock, telemetry=telemetry))
        elif isinstance(target, Journal):
            client = LocalClient(target)
        elif isinstance(target, ObservationSink):
            client = target
        else:
            raise TypeError(f"cannot connect to {type(target).__name__!r}")
    if batching is None or batching is False:
        return client
    if batching is True:
        options: Dict[str, Any] = {}
    elif isinstance(batching, int):
        options = {"max_batch": batching}
    elif isinstance(batching, dict):
        options = dict(batching)
    else:
        raise TypeError("batching must be True, an int, or a dict of options")
    if clock is not None:
        options.setdefault("clock", clock)
    return BatchingSink(client, **options)
