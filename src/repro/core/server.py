"""The Journal Server.

"This Journal is managed by the Journal Server, which serializes
updates, time-stamps and records the data, and answers queries from
programs that wish to interrogate the Journal."

:class:`JournalServer` runs a single ``asyncio`` event loop
multiplexing thousands of sockets.  Requests carrying an ``"id"`` are
*pipelined*: several may be in flight per connection, handlers run
concurrently (reads share the RW lock), and responses return as they
complete — out of order, but never torn, because one sender task per
connection owns the socket.  Write ops still execute in per-connection
submission order, so a pipelined BatchingSink cannot reorder the
observation stream.  Ops are routed by what they cost: cheap reads,
point lookups and cheap writes (whose WAL append is a buffered write
plus a flush to the OS) take a non-blocking inline fast path on the
loop thread when the lock is free; work that can block — lock waits,
fsync, checkpoints, big dumps — runs on a small bounded worker pool.
The streaming ``subscribe`` feed is a native async push — no thread per
feed — and a subscriber that cannot keep up is cut over to the
``changes_since`` polling fallback (a ``feed_lagged`` frame) instead of
stalling the loop.

:class:`JournalDispatcher` is the op layer under the transport: the
write-preferring RW lock, one handler per op declared in
:data:`wire.OPS` (a hand-written ``_op_*`` method, or the handler every
plain Journal call shares), per-op telemetry, epoch fencing, and the
checkpoint policy hooks: every write op on the worker pool checks the
ops/bytes thresholds while still holding the write lock; a background
watchdog thread covers the age threshold and the ``interval`` fsync;
``stop()`` takes a final checkpoint ("periodically and at
termination").
"""

from __future__ import annotations

import asyncio
import functools
import logging
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import wire
from .journal import Journal
from .locks import ReadWriteLock
from .sink import DEFAULT_MAX_BATCH
from .telemetry import DEPTH_BUCKETS, SIZE_BUCKETS
from .wire import CONTROL_OPS, INLINE_OPS, INLINE_WRITES, READ_OPS

__all__ = ["JournalDispatcher", "JournalServer"]

logger = logging.getLogger(__name__)

#: close sentinel for per-connection outbound queues
_CLOSE = object()

#: transport write-buffer level above which responses go through the
#: bounded outbox (and its drain-based backpressure) instead of being
#: written directly
_DIRECT_WRITE_LIMIT = 64 * 1024

#: every Journal call's codec, derived as this module loads
_JOURNAL_CALLS = wire.journal_calls()


def _log_detached_failure(future) -> None:
    if not future.cancelled() and future.exception() is not None:
        logger.error("detached server task failed", exc_info=future.exception())


class JournalDispatcher:
    """The op layer of the Journal Server.

    Owns the RW lock discipline, the op handler table
    (:meth:`handler_for`), per-op telemetry, and the write-path
    checkpoint check.  The server tries :meth:`dispatch_inline` on the
    event loop first and hands what it declines to :meth:`dispatch` on
    a worker thread.
    """

    def __init__(self, journal: Journal) -> None:
        self.journal = journal
        self.rwlock = ReadWriteLock()
        #: transport hook: when set, completed write ops call this
        #: (write lock held) instead of journal.publish() — the async
        #: server coalesces a burst of pipelined writes into one feed
        #: flush per loop tick instead of one delivery per write.
        self.publish_soon: Optional[Callable[[], None]] = None
        #: transport hook: runs :meth:`durability_tick` off the event
        #: loop — how a checkpoint an inline write made due leaves it.
        #: Unset, the watchdog takes it on its next tick.
        self.checkpoint_soon: Optional[Callable[[], None]] = None
        #: failover coordinates.  Every server is a primary at epoch 0
        #: until a standby tails it (role stays "primary") or it is
        #: promoted/fenced.  Both fields are read and written only with
        #: the write lock held (promote/fence are write ops).
        self.role: str = "primary"
        self.epoch: int = 0
        #: hook called (write lock held) after a successful promote op:
        #: ``on_promote(epoch, previous_role)`` — a StandbyReplica stops
        #: its tail loop and persists the epoch here.
        self.on_promote: Optional[Callable[[int, str], None]] = None
        #: hook called (write lock held) after this server is fenced —
        #: by an explicit ``fence`` op or by a write stamped with a
        #: newer epoch: ``on_fence(epoch, previous_role)``.
        self.on_fence: Optional[Callable[[int, str], None]] = None
        self.telemetry = journal.telemetry
        self._g_epoch = self.telemetry.gauge(
            "fremont_failover_epoch",
            "Fencing epoch this server last accepted (0 = never promoted/fenced)",
        )
        self._c_fenced = self.telemetry.counter(
            "fremont_server_fenced_writes_total",
            "Writes rejected by epoch fencing (stale stamp, standby, or fenced role)",
        )
        self._c_requests = self.telemetry.counter(
            "fremont_server_requests_total", "Requests dispatched by the Journal Server"
        )
        self._h_op = self.telemetry.histogram(
            "fremont_server_op_seconds",
            "Journal Server op latency (lock wait + handler)",
            labels=("op",),
        )
        self._h_lock_wait = self.telemetry.histogram(
            "fremont_server_lock_wait_seconds",
            "Time spent waiting for the Journal RW lock",
            labels=("mode",),
        )
        self._h_batch_size = self.telemetry.histogram(
            "fremont_server_batch_requests",
            "Sub-requests per observe_batch op",
            buckets=SIZE_BUCKETS,
        )
        #: single-slot memo for feed push frames: (since, revision, frame)
        self._changes_frame_cache: Tuple[int, int, bytes] = (-1, -1, b"")
        #: per-op latency samples resolved once (label lookup is ~10%
        #: of a cheap op's cost on the inline path)
        self._op_samples: Dict[str, Any] = {}
        #: resolved op -> bound handler, filled on first use
        self._handlers: Dict[str, Callable] = {}

    @property
    def requests_served(self) -> int:
        return int(self._c_requests.value)

    def handler_for(self, op: Any) -> Optional[Callable]:
        try:
            return self._handlers[op]
        except (KeyError, TypeError):
            pass
        if op in wire.WIRE_OPS:
            handler = getattr(self, f"_op_{op}", None)
            if handler is None and op in _JOURNAL_CALLS:
                handler = functools.partial(self._call_journal, _JOURNAL_CALLS[op])
            if handler is not None:
                self._handlers[op] = handler
            return handler
        return None

    def is_write(self, op: Any) -> bool:
        return op not in READ_OPS

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Resolve, lock, and run one request.  Blocks on the RW lock;
        call from a worker thread, never the event loop."""
        op = request.get("op")
        handler = self.handler_for(op)
        if handler is None:
            raise wire.WireError(f"unknown op: {op!r}")
        with self.telemetry.trace("server_op", op=op):
            with self._h_op.labels(op=op).time():
                return self._dispatch_locked(op, handler, request)

    def _dispatch_locked(self, op, handler, request: Dict[str, Any]) -> Dict[str, Any]:
        if op in READ_OPS:
            waited_from = time.perf_counter()
            with self.rwlock.read_locked():
                self._h_lock_wait.labels(mode="read").observe(
                    time.perf_counter() - waited_from
                )
                self._c_requests.inc()
                return handler(request)
        waited_from = time.perf_counter()
        with self.rwlock.write_locked():
            self._h_lock_wait.labels(mode="write").observe(
                time.perf_counter() - waited_from
            )
            self._c_requests.inc()
            rejection = self._fence_reject(op, request)
            if rejection is not None:
                return rejection
            response = handler(request)
            self._after_write(op)
            return response

    def _after_write(self, op, *, inline: bool = False) -> None:
        """Runs with the write lock held, after a completed write op:
        the change feed publishes while state is consistent, and the
        ops/bytes checkpoint thresholds are checked.  The event loop
        never checkpoints: after an *inline* write a due checkpoint is
        handed to :attr:`checkpoint_soon` (and until it runs,
        :meth:`dispatch_inline` sends writes to the pool)."""
        if op not in READ_OPS:
            if self.publish_soon is not None:
                self.publish_soon()
            else:
                self.journal.publish()
            store = self.journal.durability
            if store is not None and store.due():
                if not inline:
                    store.checkpoint()
                elif self.checkpoint_soon is not None:
                    self.checkpoint_soon()

    def _fence_reject(self, op, request) -> Optional[Dict[str, Any]]:
        """Epoch-fencing gate, run with the write lock held before any
        write handler.  Returns the rejection response, or None to let
        the write proceed.

        Three ways a write dies here: the server is a standby (read-only
        follower), the server has been fenced (demoted ex-primary — even
        unstamped writes are refused, so a zombie's clients cannot lose
        acknowledged data into a journal nobody tails), or the request
        carries an epoch stamp that disagrees with ours.  A stamp *newer*
        than our epoch means the fleet moved on without us: step down
        before rejecting, so the very first post-partition write from a
        current client permanently fences this zombie."""
        if op in CONTROL_OPS:
            return None
        if self.role == "standby":
            self._c_fenced.inc()
            return self._fenced_response(
                f"standby follower (epoch {self.epoch}) is read-only"
            )
        if self.role == "fenced":
            self._c_fenced.inc()
            return self._fenced_response(
                f"fenced ex-primary (epoch {self.epoch}) rejects writes"
            )
        stamp = request.get("epoch")
        if stamp is None:
            return None
        try:
            stamp = int(stamp)
        except (TypeError, ValueError):
            raise wire.WireError(f"malformed epoch stamp: {stamp!r}") from None
        if stamp == self.epoch:
            return None
        self._c_fenced.inc()
        if stamp < self.epoch:
            return self._fenced_response(
                f"request epoch {stamp} behind server epoch {self.epoch}"
            )
        self._step_down(stamp)
        return self._fenced_response(
            f"server epoch behind request epoch {stamp}; stepping down"
        )

    def _fenced_response(self, message: str) -> Dict[str, Any]:
        return {
            "ok": False,
            "fenced": True,
            "epoch": self.epoch,
            "role": self.role,
            "error": f"fenced: {message}",
        }

    def _step_down(self, epoch: int) -> None:
        """Demote to the fenced role (write lock held).  *epoch* is the
        fleet epoch that superseded us; recording it lets operators see
        `DOWN (epoch N)` with the epoch that did the fencing."""
        previous = self.role
        self.epoch = max(self.epoch, int(epoch))
        self.role = "fenced"
        self._g_epoch.set(self.epoch)
        if self.on_fence is not None:
            self.on_fence(self.epoch, previous)

    def runs_inline(self, op: Any, request: Dict[str, Any]) -> bool:
        """Is *request* cheap enough for the event loop thread?  Decided
        by the op's cost alone; :meth:`dispatch_inline` adds the lock and
        durability conditions."""
        if op in INLINE_OPS:
            return True
        if op == "query":
            # A predicate is mostly an index probe (an unindexable one
            # still only reads, on a free lock); a bare query encodes a
            # whole table.
            return request.get("where") is not None
        if op == "pull":
            # A delta reads the change log, O(changes); a full pull
            # reads every table.
            since = request.get("since")
            return isinstance(since, int) and since > 0
        if op == "observe_batch":
            requests = request.get("requests")
            return (
                isinstance(requests, list)
                and len(requests) <= DEFAULT_MAX_BATCH
                and all(
                    isinstance(sub, dict) and sub.get("op") in INLINE_WRITES
                    for sub in requests
                )
            )
        return False

    def _write_inline_safe(self, request: Dict[str, Any]) -> bool:
        """May a cheap write run on the loop thread right now?  Not
        while its WAL append could fsync (``fsync="always"``, or an
        ``interval`` store whose sync no watchdog owns), not while a
        checkpoint is due (the pool runs it), and not when its epoch
        stamp differs from ours (stepping down persists the new epoch
        with an fsync)."""
        store = self.journal.durability
        if store is not None and (store.fsyncs_on_append or store.due()):
            return False
        stamp = request.get("epoch")
        return stamp is None or stamp == self.epoch

    def dispatch_inline(self, request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Non-blocking fast path for the event loop thread: run the
        request only if it is cheap (:meth:`runs_inline`), cannot fsync
        or checkpoint, and the lock is free *right now*.  Returns None
        when the request must go to the worker pool instead.

        Telemetry is deliberately lean here: the op-latency histogram
        and request counters are recorded, but no trace span is opened
        and no lock-wait sample is taken — the lock was acquired
        without waiting (that is the fast path's precondition), and a
        span per sub-100µs op would cost more than the op.  Worker-pool
        dispatch keeps full tracing."""
        op = request.get("op")
        if not self.runs_inline(op, request):
            return None
        read = op in READ_OPS
        if not read and not self._write_inline_safe(request):
            return None
        handler = self.handler_for(op)
        if handler is None:
            return None
        if read:
            if not self.rwlock.try_acquire_read():
                return None
        elif not self.rwlock.try_acquire_write():
            return None
        try:
            sample = self._op_samples.get(op)
            if sample is None:
                sample = self._op_samples[op] = self._h_op.labels(op=op)
            started = time.perf_counter()
            self._c_requests.inc()
            if not read:
                rejection = self._fence_reject(op, request)
                if rejection is not None:
                    return rejection
            response = handler(request)
            if not read:
                self._after_write(op, inline=True)
            sample.observe(time.perf_counter() - started)
            return response
        finally:
            if read:
                self.rwlock.release_read()
            else:
                self.rwlock.release_write()

    # ------------------------------------------------------------------
    # Feed subscriptions (lock-holding helpers for the server)
    # ------------------------------------------------------------------

    def subscribe(
        self,
        push: Callable,
        *,
        since: int,
        on_registered: Optional[Callable[[int], None]] = None,
    ):
        """Register a streaming feed subscriber under the write lock.
        *on_registered* (if given) runs with the lock still held, after
        registration but before the backlog delivers — the server
        enqueues the acknowledgement frame there so no concurrent write
        can push a delta ahead of it."""
        with self.rwlock.write_locked():
            self._c_requests.inc()
            subscription = self.journal.subscribe(push, since=since)
            if on_registered is not None:
                on_registered(self.journal.revision)
            # Deliver the backlog before any new write publishes, so
            # the subscriber starts from a delta it can actually apply.
            subscription.deliver()
        return subscription

    def unsubscribe(self, subscription) -> None:
        with self.rwlock.write_locked():
            subscription.close()

    def encoded_changes_frame(self, changes) -> bytes:
        """Wire frame for a change-feed push, memoized per delta.

        Feed pushes run under the write lock, so when every caught-up
        subscriber shares the same ``(since, revision)`` cursor the
        delta is serialized and encoded once, not once per subscriber.
        """
        since, revision, frame = self._changes_frame_cache
        if since == changes.since and revision == changes.revision:
            return frame
        frame = wire.encode_message(
            {
                "ok": True,
                "event": "changes",
                "changes": wire.changes_to_dict(changes),
            }
        )
        self._changes_frame_cache = (changes.since, changes.revision, frame)
        return frame

    def durability_tick(self) -> None:
        """Off the event loop (the watchdog, or a worker handed a due
        checkpoint by an inline write): take the write lock to
        checkpoint once a threshold has tripped, or to run the
        ``interval`` fsync once it is due."""
        store = self.journal.durability
        if store is None or not (store.due() or store.sync_wait() == 0.0):
            return
        with self.rwlock.write_locked():
            if self.journal.durability is not store:
                return
            if store.due():
                store.checkpoint()  # fsyncs everything it covers
            else:
                store.sync_if_due()

    # ------------------------------------------------------------------
    # Op handlers
    # ------------------------------------------------------------------

    def _call_journal(self, call: wire.JournalCall, request: Dict[str, Any]) -> Dict[str, Any]:
        """The handler of every plain Journal call (an ``OPS`` row with
        ``reply``): decode the arguments, call the Journal method named
        like the op, encode what it returns."""
        return call.reply(getattr(self.journal, call.op)(**call.arguments(request)))

    def _op_observe_batch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Apply several requests in one round trip — the BatchingSink's
        flush path, and the replay path a reconnecting client uses to
        drain observations buffered during an outage.  Per-item failures
        are reported in place; the batch itself still succeeds, so one
        malformed entry cannot wedge the client's buffer forever.

        An ``observe`` item is acknowledged as ``{"ok", "changed"}``
        only: batch callers use the changed flag, and shipping every
        sighting's full record back would cost more than applying it.
        Other items answer exactly as their standalone op would."""
        responses: List[Dict[str, Any]] = []
        requests = request.get("requests", [])
        self._h_batch_size.observe(len(requests))
        for sub_request in requests:
            op = sub_request.get("op") if isinstance(sub_request, dict) else None
            if op == "observe":
                handler = self._apply_observe
            else:
                handler = None if op == "observe_batch" else self.handler_for(op)
            if handler is None:
                responses.append({"ok": False, "error": f"unknown op: {op!r}"})
                continue
            try:
                responses.append(handler(sub_request))
            except wire.WireError as error:
                responses.append({"ok": False, "error": str(error)})
            except Exception as error:  # defensive: isolate the item
                responses.append(
                    {"ok": False, "error": f"{type(error).__name__}: {error}"}
                )
        coalesced = int(request.get("coalesced", 0))
        # Coalesced sightings were submitted client-side but never sent;
        # count them so the pipeline counters reflect true ingest volume.
        self.journal.note_ingest(
            submitted=coalesced, coalesced=coalesced, batches=1 if requests else 0
        )
        return {"ok": True, "responses": responses}

    def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "ok": True,
            "counts": self.journal.counts(),
            "revision": self.journal.revision,
        }

    def _op_observe(self, request: Dict[str, Any]) -> Dict[str, Any]:
        observation = wire.observation_from_dict(request.get("observation", {}))
        record, changed = self.journal.submit(observation)
        return {
            "ok": True,
            "changed": changed,
            "record": wire.interface_to_dict(record),
        }

    def _apply_observe(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """An ``observe`` item of a batch: applied like the standalone
        op, acknowledged without the record."""
        observation = wire.observation_from_dict(request.get("observation", {}))
        _record, changed = self.journal.submit(observation)
        return {"ok": True, "changed": changed}

    def _op_metrics(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Structured registry snapshot: every metric family plus the
        tail of the span ring.  Runs under the read lock; the registry's
        atomic counters make that safe against the checkpoint poll
        thread (and any write op) bumping them concurrently."""
        spans = int(request.get("spans", 50))
        return {"ok": True, "metrics": self.telemetry.snapshot(spans=spans)}

    def _op_shard_info(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Federation handshake: which shard of which map this server's
        Journal is, or ``shard: None`` when it is not part of a fleet.
        A ``seat`` identity is taken first if the Journal can take it
        (:meth:`~repro.core.journal.Journal.seat`)."""
        seat = wire.shard_info_from_dict(request.get("seat"))
        identity = self.journal.shard if seat is None else self.journal.seat(seat)
        return {
            "ok": True,
            "shard": wire.shard_info_to_dict(identity),
            "replica": wire.replica_info_to_dict(
                self.role, self.epoch, self.journal.revision
            ),
        }

    def _op_promote(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Seat this server as the shard's primary at a new epoch.

        Promotion must move the epoch strictly forward: a promote at or
        behind the current epoch is itself fenced (two routers racing to
        promote different standbys cannot both win — the loser's stamp
        is stale the moment it arrives).  Re-promoting the sitting
        primary at its own epoch is an idempotent no-op."""
        stamp = request.get("epoch")
        epoch = self.epoch + 1 if stamp is None else int(stamp)
        if epoch == self.epoch and self.role == "primary":
            return {"ok": True, "epoch": self.epoch, "role": "primary",
                    "previous_role": "primary"}
        if epoch <= self.epoch:
            self._c_fenced.inc()
            return self._fenced_response(
                f"promote to epoch {epoch} not beyond current epoch {self.epoch}"
            )
        previous = self.role
        self.epoch = epoch
        self.role = "primary"
        self._g_epoch.set(epoch)
        if self.on_promote is not None:
            self.on_promote(epoch, previous)
        return {"ok": True, "epoch": epoch, "role": "primary",
                "previous_role": previous}

    def _op_fence(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Demote a stale ex-primary (or standby) out of the write path.

        Routers fence the loser after a promotion so that clients which
        never saw the failover get hard rejections instead of silently
        acknowledged writes into a journal nobody replicates.  Fencing
        the rightful primary requires a strictly newer epoch."""
        epoch = int(request.get("epoch", 0))
        if self.role == "primary" and epoch <= self.epoch:
            return {
                "ok": False,
                "epoch": self.epoch,
                "role": self.role,
                "error": (
                    f"fence epoch {epoch} not beyond sitting primary "
                    f"epoch {self.epoch}"
                ),
            }
        previous = self.role
        self._step_down(epoch)
        return {"ok": True, "epoch": self.epoch, "role": "fenced",
                "previous_role": previous}

    def _op_dump(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"ok": True, "journal": self.journal.to_dict()}


class _AsyncConnection:
    """One multiplexed client connection on the async server.

    The reader coroutine parses frames and spawns request tasks;
    responses funnel through a bounded outbound queue drained by a
    single sender task (per-connection write ordering, backpressure).
    Write ops chain on ``_write_tail`` so they execute in submission
    order even when pipelined; reads may overtake.
    """

    def __init__(self, server: "JournalServer", writer: asyncio.StreamWriter) -> None:
        self._server = server
        self._writer = writer
        self._outbox: asyncio.Queue = asyncio.Queue(maxsize=server.queue_limit)
        self._sender_task: Optional[asyncio.Task] = None
        self._inflight: set = set()
        self._write_tail: Optional[asyncio.Task] = None
        self._subscription = None
        self._detach_pending = False
        self._lagged_revision: Optional[int] = None
        self._draining = False
        self._closing = False

    # -- outbound --------------------------------------------------------

    async def send(self, response: Dict[str, Any]) -> None:
        if self._closing:
            return
        frame = wire.encode_message(response)
        if not self._send_direct(frame):
            await self._outbox.put(frame)

    def _send_direct(self, frame: bytes) -> bool:
        """Write *frame* straight to the transport when the sender is
        idle and the kernel is keeping up — skips a queue put plus a
        sender task wakeup.  Same loop thread as the sender's writes,
        and the empty outbox means none are pending, so ordering holds;
        a backed-up transport returns False and the caller falls back
        to the bounded queue, which is where backpressure lives."""
        transport = self._writer.transport
        if (
            self._outbox.empty()
            and not transport.is_closing()
            and transport.get_write_buffer_size() < _DIRECT_WRITE_LIMIT
        ):
            self._writer.write(frame)
            return True
        return False

    def _feed_frame(self, frame: bytes, revision: int) -> None:
        """Loop-thread delivery point for pushed change-feed frames.
        A full queue means this subscriber cannot keep up: rather than
        stall the loop (or the publishing writer), cut it over to the
        polling fallback."""
        if self._closing:
            return
        try:
            self._outbox.put_nowait(frame)
        except asyncio.QueueFull:
            self._server._c_feed_fallbacks.inc()
            self._lagged_revision = revision
            self._detach_subscription()

    def _detach_subscription(self) -> None:
        subscription = self._subscription
        self._subscription = None
        if subscription is None:
            # subscribe handshake still in flight; detach once it lands
            self._detach_pending = True
            return
        self._server._run_blocking_detached(
            self._server.dispatcher.unsubscribe, subscription
        )

    async def _sender(self) -> None:
        writer = self._writer
        outbox = self._outbox
        broken = False
        closing = False
        while not closing:
            frame = await outbox.get()
            if frame is _CLOSE:
                break
            # Coalesce everything already queued into a single
            # write+drain — one syscall for a whole pipelined burst.
            parts = [frame]
            while True:
                try:
                    extra = outbox.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is _CLOSE:
                    closing = True
                    break
                parts.append(extra)
            if broken:
                continue  # drain without writing: unblock producers
            try:
                writer.write(b"".join(parts) if len(parts) > 1 else frame)
                await writer.drain()
                if self._lagged_revision is not None and self._outbox.empty():
                    revision = self._lagged_revision
                    self._lagged_revision = None
                    writer.write(
                        wire.encode_message(
                            {
                                "ok": True,
                                "event": "feed_lagged",
                                "revision": revision,
                                "reason": "slow consumer; poll changes_since",
                            }
                        )
                    )
                    await writer.drain()
            except (ConnectionError, OSError):
                broken = True

    # -- inbound ---------------------------------------------------------

    async def run(self, reader: asyncio.StreamReader) -> None:
        self._sender_task = asyncio.ensure_future(self._sender())
        try:
            await self._read_loop(reader)
        except asyncio.CancelledError:
            if not self._draining:
                raise

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        loop = asyncio.get_event_loop()
        while True:
            try:
                line = await reader.readline()
            except (ConnectionError, OSError, ValueError):
                break
            if not line:
                break
            if not line.strip():
                continue
            try:
                request = wire.decode_message(line)
            except wire.WireError as error:
                await self.send({"ok": False, "error": str(error)})
                continue
            rid = request.get("id")
            op = request.get("op")
            dispatcher = self._server.dispatcher
            is_write = op != "subscribe" and dispatcher.is_write(op)
            if op != "subscribe" and (
                not is_write
                or self._write_tail is None
                or self._write_tail.done()
            ):
                # Fast path: cheap ops answered right here on the loop
                # thread — no task, no executor hop.  Writes only take it
                # when no earlier write is still in flight (per-connection
                # write ordering); reads may overtake regardless.
                try:
                    response = dispatcher.dispatch_inline(request)
                except Exception as error:
                    response = {
                        "ok": False,
                        "error": f"{type(error).__name__}: {error}",
                    }
                if response is not None:
                    if rid is not None:
                        response = dict(response)
                        response["id"] = rid
                    if not self._closing:
                        frame = wire.encode_message(response)
                        if not self._send_direct(frame):
                            await self._outbox.put(frame)
                    continue
            after = None
            if op == "subscribe" or is_write:
                after = self._write_tail
            task = loop.create_task(self._run_request(rid, request, after))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
            if is_write or op == "subscribe":
                # Writes chain in submission order; a subscribe also joins
                # the chain so later writes cannot publish before the
                # subscription is registered.
                self._write_tail = task
            if rid is None:
                # Legacy strict request/response lane: answer before
                # reading the next frame.  Shielded so a graceful drain
                # can cancel *reading* without killing the op.
                try:
                    await asyncio.shield(task)
                except asyncio.CancelledError:
                    if not self._draining:
                        task.cancel()
                        raise
                    break
                except Exception:
                    break
            else:
                self._server._h_pipeline_depth.observe(len(self._inflight))

    async def _run_request(
        self, rid, request: Dict[str, Any], after: Optional[asyncio.Task]
    ) -> None:
        if after is not None:
            # Per-connection write ordering: wait out the previous
            # write op (ignoring its outcome) before dispatching.
            await asyncio.wait({after})
        if request.get("op") == "subscribe":
            await self._handle_subscribe(rid, request)
            return
        response = await self._server._dispatch_async(request)
        if rid is not None:
            response = dict(response)
            response["id"] = rid
        await self.send(response)

    async def _handle_subscribe(self, rid, request: Dict[str, Any]) -> None:
        if self._subscription is not None:
            response: Dict[str, Any] = {"ok": False, "error": "already subscribed"}
            if rid is not None:
                response["id"] = rid
            await self.send(response)
            return
        loop = asyncio.get_event_loop()
        since = int(request.get("since", 0))

        def push(changes) -> None:
            frame = self._server.dispatcher.encoded_changes_frame(changes)
            try:
                asyncio.get_running_loop()
            except RuntimeError:
                pass  # publishing from a worker thread: hop to the loop
            else:
                # Already on the loop thread (the coalesced publish
                # flush) — deliver directly, no self-pipe wakeup.
                self._feed_frame(frame, changes.revision)
                return
            try:
                loop.call_soon_threadsafe(self._feed_frame, frame, changes.revision)
            except RuntimeError:
                pass  # loop shutting down; connection is going away too

        def acknowledge(revision: int) -> None:
            # Runs with the write lock held: the ack frame is queued
            # before the backlog (and before any concurrent write can
            # publish), so the client always sees ack first.
            ack: Dict[str, Any] = {"ok": True, "revision": revision}
            if rid is not None:
                ack["id"] = rid
            frame = wire.encode_message(ack)
            loop.call_soon_threadsafe(self._feed_frame, frame, revision)

        subscription = await self._server._run_blocking(
            lambda: self._server.dispatcher.subscribe(
                push, since=since, on_registered=acknowledge
            )
        )
        self._subscription = subscription
        if self._detach_pending:
            self._detach_pending = False
            self._detach_subscription()

    # -- teardown --------------------------------------------------------

    def begin_drain(self, handler_task: asyncio.Task) -> None:
        """Stop reading new requests but keep in-flight ones running —
        the graceful half of stop()."""
        self._draining = True
        handler_task.cancel()

    async def aclose(self) -> None:
        drain = self._server.drain_timeout
        try:
            if self._inflight:
                await asyncio.wait(set(self._inflight), timeout=drain)
            if self._subscription is not None:
                subscription = self._subscription
                self._subscription = None
                try:
                    await self._server._run_blocking(
                        lambda: self._server.dispatcher.unsubscribe(subscription)
                    )
                except RuntimeError:
                    pass  # executor already shut down
            self._closing = True
            if self._sender_task is not None:
                try:
                    self._outbox.put_nowait(_CLOSE)
                except asyncio.QueueFull:
                    self._sender_task.cancel()
                try:
                    await asyncio.wait_for(self._sender_task, timeout=drain)
                except (asyncio.TimeoutError, asyncio.CancelledError):
                    pass
        except asyncio.CancelledError:
            # stop() gave up on the graceful path; fall through to the
            # unconditional transport close below.
            self._closing = True
            if self._sender_task is not None:
                self._sender_task.cancel()
        finally:
            try:
                self._writer.close()
            except (ConnectionError, OSError):
                pass
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass


class JournalServer:
    """Asyncio front-end guarding concurrent access to a
    :class:`Journal` — one event loop, thousands of sockets, pipelined
    requests.  The loop runs on a dedicated thread so the public
    ``start()``/``stop()`` surface stays synchronous."""

    def __init__(
        self,
        journal: Journal,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_poll: float = 1.0,
        max_workers: int = 4,
        queue_limit: int = 256,
        drain_timeout: float = 5.0,
    ) -> None:
        if checkpoint_poll <= 0:
            raise ValueError("checkpoint_poll must be positive")
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if queue_limit < 2:
            raise ValueError("queue_limit must be at least 2")
        self.journal = journal
        self.dispatcher = JournalDispatcher(journal)
        #: how often the background thread re-evaluates the age threshold
        self.checkpoint_poll = checkpoint_poll
        #: server metrics live in the Journal's registry, so one
        #: snapshot covers storage and front-end alike.
        self.telemetry = journal.telemetry
        self._listener = socket.create_server((host, port))
        self._checkpoint_thread: Optional[threading.Thread] = None
        self._checkpoint_stop = threading.Event()
        #: persist here on stop() when set
        self.persist_path: Optional[str] = None
        #: bounded pool for lock-waiting/fsyncing/serialising work
        self.max_workers = max_workers
        #: per-connection outbound queue bound (frames)
        self.queue_limit = queue_limit
        #: grace period for in-flight requests at stop()
        self.drain_timeout = drain_timeout
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_requested: Optional[asyncio.Event] = None
        #: open connections; loop-thread mutated, len() read anywhere
        self._connections: Dict[_AsyncConnection, asyncio.Task] = {}
        self._g_connections = self.telemetry.gauge(
            "fremont_server_connections", "Open Journal Server connections"
        )
        self._h_pipeline_depth = self.telemetry.histogram(
            "fremont_server_pipeline_depth",
            "Pipelined requests in flight per connection at arrival",
            buckets=DEPTH_BUCKETS,
        )
        self._c_feed_fallbacks = self.telemetry.counter(
            "fremont_server_feed_fallbacks_total",
            "Slow feed subscribers demoted to changes_since polling",
        )
        #: a feed flush is already queued on the loop (guarded by the
        #: write lock, which every mutator of this flag holds)
        self._publish_pending = False
        #: thread ident of the event loop thread while it runs
        self._loop_thread_id: Optional[int] = None
        self.dispatcher.publish_soon = self._schedule_publish
        self.dispatcher.checkpoint_soon = lambda: self._run_blocking_detached(
            self.dispatcher.durability_tick
        )

    @property
    def requests_served(self) -> int:
        """Compatibility view of ``fremont_server_requests_total``."""
        return self.dispatcher.requests_served

    @property
    def address(self) -> Tuple[str, int]:
        return self._listener.getsockname()

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Direct (in-process) dispatch — test and tooling hook."""
        return self.dispatcher.dispatch(request)

    @property
    def live_connections(self) -> int:
        """Currently open client connections."""
        return len(self._connections)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "JournalServer":
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="journal-worker"
        )
        started = threading.Event()
        self._thread = threading.Thread(
            target=self._loop_main, args=(started,),
            name="journal-server-loop", daemon=True,
        )
        self._thread.start()
        started.wait(timeout=5.0)
        self._start_checkpoint_thread()
        return self

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            try:
                loop.call_soon_threadsafe(self._request_stop)
            except RuntimeError:
                pass  # loop already closed
            thread.join(timeout=self.drain_timeout + 10.0)
        self._thread = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        try:
            self._listener.close()
        except OSError:
            pass
        # The watchdog keeps syncing while in-flight requests drain; it
        # stops only once nothing can run inline any more.
        self._stop_checkpoint_thread()
        self._finalize_stop()

    def _request_stop(self) -> None:
        if self._stop_requested is not None:
            self._stop_requested.set()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- checkpoint watchdog ---------------------------------------------

    def _start_checkpoint_thread(self) -> None:
        store = self.journal.durability
        if store is None:
            return
        # The watchdog owns the interval fsync from here on, so no
        # write's WAL append syncs (and cheap writes may run inline).
        store.background_sync = True
        self._checkpoint_stop.clear()
        self._checkpoint_thread = threading.Thread(
            target=self._checkpoint_loop,
            name="journal-server-checkpoint",
            daemon=True,
        )
        self._checkpoint_thread.start()

    def _stop_checkpoint_thread(self) -> None:
        self._checkpoint_stop.set()
        if self._checkpoint_thread is not None:
            self._checkpoint_thread.join(timeout=5.0)
            self._checkpoint_thread = None
        store = self.journal.durability
        if store is not None:
            store.background_sync = False

    def _checkpoint_loop(self) -> None:
        """Durability watchdog.  A server receiving no writes would
        otherwise never trip the per-op ops/bytes checks (an unbounded
        WAL replay window) nor sync the tail of its WAL (an unbounded
        power-loss window under ``interval``).  Sleeps at most until the
        interval fsync could come due, so no acknowledged record stays
        unsynced much past ``fsync_interval``."""
        while True:
            store = self.journal.durability
            if store is None:
                break
            wait = store.sync_wait()
            if wait is None or wait > self.checkpoint_poll:
                wait = self.checkpoint_poll
            if self._checkpoint_stop.wait(wait):
                break
            self.dispatcher.durability_tick()

    def _finalize_stop(self) -> None:
        with self.dispatcher.rwlock.write_locked():
            if self.journal.durability is not None:
                # Termination checkpoint: everything the WAL holds is
                # folded into a snapshot before the process exits.
                self.journal.durability.checkpoint()
            if self.persist_path is not None:
                self.journal.save(self.persist_path)

    # -- coalesced feed publish ----------------------------------------

    def _schedule_publish(self) -> None:
        """Dispatcher hook, called with the write lock held after each
        completed write op.  Queues one feed flush on the event loop —
        a pipelined burst of writes lands as a single combined delta
        per subscriber instead of one delivery per write."""
        if self._publish_pending:
            return
        if not self.journal.feed_subscribers:
            return  # nobody listening: skip the loop wakeup entirely
        loop = self._loop
        if loop is None:
            self.journal.publish()
            return
        self._publish_pending = True
        try:
            if threading.get_ident() == self._loop_thread_id:
                # An inline write: already on the loop, so skip the
                # self-pipe write and wakeup call_soon_threadsafe costs.
                loop.call_soon(self._publish_flush)
            else:
                loop.call_soon_threadsafe(self._publish_flush)
        except RuntimeError:
            # Loop shutting down: deliver synchronously rather than
            # dropping the delta on the floor.
            self._publish_pending = False
            self.journal.publish()

    def _publish_flush(self) -> None:
        # Loop thread.  Publishing needs the write lock; never block
        # the loop waiting for a worker-thread writer — retry next tick.
        if not self.dispatcher.rwlock.try_acquire_write():
            loop = self._loop
            if loop is not None:
                loop.call_later(0.0005, self._publish_flush)
            return
        try:
            self._publish_pending = False
            self.journal.publish()
        finally:
            self.dispatcher.rwlock.release_write()

    def _loop_main(self, started: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._loop_thread_id = threading.get_ident()
        try:
            loop.run_until_complete(self._serve_forever(started))
        finally:
            started.set()  # never leave start() hanging on a crash
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            asyncio.set_event_loop(None)
            loop.close()
            self._loop = None

    async def _serve_forever(self, started: threading.Event) -> None:
        loop = asyncio.get_event_loop()
        self._stop_requested = asyncio.Event()
        self._listener.setblocking(False)
        accept_task = loop.create_task(self._accept_loop(loop))
        started.set()
        try:
            await self._stop_requested.wait()
        finally:
            accept_task.cancel()
            try:
                await accept_task
            except (asyncio.CancelledError, OSError):
                pass
            # Flush the kernel accept queue: a connection that finished
            # its handshake but was never accepted would otherwise hang
            # half-open until the client's request timeout.
            while True:
                try:
                    straggler, _peer = self._listener.accept()
                except (BlockingIOError, OSError):
                    break
                straggler.close()
            # Let connections accepted just before the stop signal reach
            # their handler's first line and register themselves — a
            # transport whose handler task is cancelled before it ever
            # runs would otherwise never be closed.
            for _ in range(2):
                await asyncio.sleep(0)
            await self._drain_connections()

    async def _accept_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Accept sockets and wrap each in a stream pair feeding
        :meth:`_on_connection`.  Hand-rolled (rather than
        ``asyncio.start_server``) so stop() keeps control of the
        listening socket and can flush its backlog."""
        while True:
            try:
                conn, _peer = await loop.sock_accept(self._listener)
            except OSError:
                break
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass  # e.g. AF_UNIX in tests
            reader = asyncio.StreamReader(limit=1 << 24, loop=loop)
            protocol = asyncio.StreamReaderProtocol(
                reader, self._on_connection, loop=loop
            )
            try:
                await loop.connect_accepted_socket(lambda: protocol, conn)
            except OSError:
                conn.close()

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _AsyncConnection(self, writer)
        self._connections[connection] = asyncio.current_task()
        self._g_connections.set(len(self._connections))
        try:
            await connection.run(reader)
        finally:
            try:
                await connection.aclose()
            finally:
                self._connections.pop(connection, None)
                self._g_connections.set(len(self._connections))

    async def _drain_connections(self) -> None:
        """Graceful half of stop(): stop reading, let in-flight requests
        complete and their responses flush, then close the sockets."""
        handlers = []
        for connection, handler in list(self._connections.items()):
            connection.begin_drain(handler)
            handlers.append(handler)
        if handlers:
            await asyncio.wait(handlers, timeout=self.drain_timeout + 1.0)

    # ------------------------------------------------------------------
    # Dispatch plumbing
    # ------------------------------------------------------------------

    async def _dispatch_async(self, request: Dict[str, Any]) -> Dict[str, Any]:
        try:
            response = self.dispatcher.dispatch_inline(request)
            if response is not None:
                return response
            executor = self._executor
            if executor is None:
                return {"ok": False, "error": "server is stopping"}
            return await asyncio.get_event_loop().run_in_executor(
                executor, self.dispatcher.dispatch, request
            )
        except wire.WireError as error:
            return {"ok": False, "error": str(error)}
        except asyncio.CancelledError:
            raise
        except Exception as error:  # defensive: report, keep serving
            return {"ok": False, "error": f"{type(error).__name__}: {error}"}

    async def _run_blocking(self, func: Callable):
        executor = self._executor
        if executor is None:
            raise RuntimeError("server is stopping")
        return await asyncio.get_event_loop().run_in_executor(executor, func)

    def _run_blocking_detached(self, func: Callable, *args) -> None:
        """Fire-and-forget lock-holding work from the loop thread (e.g.
        detaching a lagging subscriber, a checkpoint an inline write
        made due).  Nobody awaits the result, so a failure is logged."""
        executor = self._executor
        if executor is None:
            return
        try:
            future = executor.submit(func, *args)
        except RuntimeError:  # pragma: no cover - shutdown race
            return
        future.add_done_callback(_log_detached_failure)
