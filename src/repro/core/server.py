"""The Journal Server.

"This Journal is managed by the Journal Server, which serializes
updates, time-stamps and records the data, and answers queries from
programs that wish to interrogate the Journal."

:class:`JournalServer` runs a single ``asyncio`` event loop
multiplexing thousands of sockets, and the loop's thread is the one
thread that touches the Journal while the server runs: it applies
every op, in the order requests are read, so updates serialize with
no lock.  Requests carrying an ``"id"`` are *pipelined*: several may
be in flight per connection, and responses return as they complete —
out of order, but never torn, because one sender task per connection
owns the socket.  A request is answered as it is read, except a
whole-table read (a ``query`` without ``where``, a full ``pull``, a
``dump``), which runs on a later loop turn so that cheap requests
already read answer first.  A small worker pool does only blocking
file work — WAL fsyncs and checkpoint files, one job at a time — and
under ``fsync="always"`` a write's reply and its feed delta wait for
an fsync that began after its append.  Other threads (a standby's
tail, the durability watchdog, in-process callers) hand their work to
the loop through :meth:`JournalServer.call` and wait for it.  The
streaming ``subscribe`` feed is a native async push — no thread per
feed — and a subscriber that cannot keep up is cut over to the
``changes_since`` polling fallback (a ``feed_lagged`` frame) instead
of stalling the loop.

:class:`JournalDispatcher` is the op layer under the transport: one
handler per op declared in :data:`wire.OPS` (a hand-written ``_op_*``
method, or the handler every plain Journal call shares), per-op
telemetry, epoch fencing, and the after-write hook through which the
server flushes the feed and hands a checkpoint the store's ops/bytes
thresholds made due to its pool; a watchdog thread covers the age
threshold and the ``interval`` fsync; ``stop()`` takes a final
checkpoint ("periodically and at termination").
"""

from __future__ import annotations

import asyncio
import functools
import logging
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import wire
from .journal import Journal
from .telemetry import DEPTH_BUCKETS, SIZE_BUCKETS
from .wire import CONTROL_OPS, READ_OPS

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


def _whole_table(request: Dict[str, Any]) -> bool:
    """Does *request* read a whole table: a ``query`` without a
    ``where``, a full ``pull`` or a ``dump``?"""
    op = request.get("op")
    if op == "query":
        return request.get("where") is None
    if op == "pull":
        since = request.get("since")
        return not (isinstance(since, int) and since > 0)
    return op == "dump"


def _run_into(done: Future, func: Callable, args) -> None:
    """Run ``func(*args)`` and settle *done* with its outcome."""
    try:
        done.set_result(func(*args))
    except BaseException as error:  # the caller re-raises it
        done.set_exception(error)


class JournalDispatcher:
    """The op layer of the Journal Server.

    Owns the op handler table (:meth:`handler_for`), per-op telemetry,
    epoch fencing and the after-write hook.  :meth:`dispatch_inline`
    runs an op on the thread that owns the Journal (the server's event
    loop); :meth:`dispatch` is how any other thread asks that thread
    to run one.
    """

    def __init__(self, journal: Journal) -> None:
        self.journal = journal
        #: transport hook: ``call_owner(func, *args)`` runs *func* on the
        #: thread that owns the Journal and returns its result (the
        #: server's :meth:`JournalServer.call`).  Unset, the caller owns it.
        self.call_owner: Optional[Callable[..., Any]] = None
        #: transport hook: runs after every completed write op in place
        #: of :meth:`after_write`'s own publish and checkpoint — the
        #: server flushes the feed once per loop turn and hands file work
        #: to its pool.
        self.on_write: Optional[Callable[[], None]] = None
        #: failover coordinates.  Every server is a primary at epoch 0
        #: until a standby tails it (role stays "primary") or it is
        #: promoted/fenced.  Both change only on the owner thread.
        self.role: str = "primary"
        self.epoch: int = 0
        #: hook called (owner thread) after a successful promote op:
        #: ``on_promote(epoch, previous_role)`` — a StandbyReplica stops
        #: its tail loop and persists the epoch here.
        self.on_promote: Optional[Callable[[int, str], None]] = None
        #: hook called (owner thread) after this server is fenced — by
        #: an explicit ``fence`` op or by a write stamped with a newer
        #: epoch: ``on_fence(epoch, previous_role)``.
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
            "Journal Server op latency (fencing + handler)",
            labels=("op",),
        )
        self._h_batch_size = self.telemetry.histogram(
            "fremont_server_batch_requests",
            "Sub-requests per observe_batch op",
            buckets=SIZE_BUCKETS,
        )
        #: single-slot memo for feed push frames: (since, revision, frame)
        self._changes_frame_cache: Tuple[int, int, bytes] = (-1, -1, b"")
        #: per-op latency samples resolved once (label lookup is ~10%
        #: of a cheap op's cost)
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

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Run one request from any thread: on the thread that owns the
        Journal (:attr:`call_owner`), waiting for its reply."""
        if self.call_owner is None:
            return self.dispatch_inline(request)
        return self.call_owner(self.dispatch_inline, request)

    def dispatch_inline(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Run one request on the thread that owns the Journal.  Raises
        :class:`~repro.core.wire.WireError` for an unknown op.

        Telemetry is deliberately lean: the op-latency histogram and the
        request counter are recorded, but no trace span is opened — a
        span per sub-100µs op would cost more than the op."""
        op = request.get("op")
        handler = self.handler_for(op)
        if handler is None:
            raise wire.WireError(f"unknown op: {op!r}")
        sample = self._op_samples.get(op)
        if sample is None:
            sample = self._op_samples[op] = self._h_op.labels(op=op)
        started = time.perf_counter()
        self._c_requests.inc()
        read = op in READ_OPS
        if not read:
            rejection = self._fence_reject(op, request)
            if rejection is not None:
                return rejection
        response = handler(request)
        if not read:
            self.after_write()
        sample.observe(time.perf_counter() - started)
        return response

    def after_write(self) -> None:
        """Run on the owner thread after a completed write: hand the
        change to the transport (:attr:`on_write`), or, with none,
        publish the feed and take a checkpoint the store made due."""
        if self.on_write is not None:
            self.on_write()
            return
        self.journal.publish()
        store = self.journal.durability
        if store is not None and store.due():
            store.checkpoint()

    def _fence_reject(self, op, request) -> Optional[Dict[str, Any]]:
        """Epoch-fencing gate, run before any write handler.  Returns
        the rejection response, or None to let the write proceed.

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
        """Demote to the fenced role (owner thread).  *epoch* is the
        fleet epoch that superseded us; recording it lets operators see
        `DOWN (epoch N)` with the epoch that did the fencing."""
        previous = self.role
        self.epoch = max(self.epoch, int(epoch))
        self.role = "fenced"
        self._g_epoch.set(self.epoch)
        if self.on_fence is not None:
            self.on_fence(self.epoch, previous)

    # ------------------------------------------------------------------
    # Feed subscriptions
    # ------------------------------------------------------------------

    def subscribe(self, push: Callable, *, since: int):
        """Register a streaming feed subscriber (owner thread)."""
        self._c_requests.inc()
        return self.journal.subscribe(push, since=since)

    def encoded_changes_frame(self, changes) -> bytes:
        """Wire frame for a change-feed push, memoized per delta.

        Feed pushes run on the owner thread at one publish point, so when
        every caught-up subscriber shares the same ``(since, revision)``
        cursor the delta is serialized and encoded once, not once per
        subscriber.
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
        tail of the span ring.  The registry's atomic counters make that
        safe against a worker timing an fsync into them concurrently."""
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

    The reader coroutine parses frames and answers each as it is read
    (:meth:`JournalServer._answer`), so ops apply in arrival order; a
    whole-table read, or a reply waiting on an fsync, becomes a task.
    Responses funnel through a bounded outbound queue drained by a
    single sender task (per-connection write ordering, backpressure).
    """

    def __init__(self, server: "JournalServer", writer: asyncio.StreamWriter) -> None:
        self._server = server
        self._writer = writer
        self._outbox: asyncio.Queue = asyncio.Queue(maxsize=server.queue_limit)
        self._sender_task: Optional[asyncio.Task] = None
        self._inflight: set = set()
        self._subscription = None
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
        subscription, self._subscription = self._subscription, None
        if subscription is not None:
            subscription.close()

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
        server = self._server
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
            if request.get("op") == "subscribe":
                await self._subscribe(rid, request)
                continue
            if _whole_table(request):
                work = self._answer_later(rid, request)
            else:
                response, synced = server._answer(request)
                if synced is None:
                    await self._reply(rid, response)
                    continue
                work = self._reply_when_synced(rid, response, synced)
            task = loop.create_task(work)
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
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
                server._h_pipeline_depth.observe(len(self._inflight))

    async def _reply(self, rid, response: Dict[str, Any]) -> None:
        if rid is not None:
            response = dict(response)
            response["id"] = rid
        await self.send(response)

    async def _answer_later(self, rid, request: Dict[str, Any]) -> None:
        # A read: its reply never waits on an fsync.
        await self._reply(rid, self._server._answer(request)[0])

    async def _reply_when_synced(self, rid, response, synced: asyncio.Future) -> None:
        error = await synced
        if error is not None:
            response = {"ok": False, "error": error}
        await self._reply(rid, response)

    async def _subscribe(self, rid, request: Dict[str, Any]) -> None:
        """Register this connection's feed.  All on the loop, in one
        turn: the ack is queued before the backlog, and the backlog
        before any later write can publish."""
        if self._subscription is not None:
            await self._reply(rid, {"ok": False, "error": "already subscribed"})
            return
        server = self._server

        def push(changes) -> None:
            frame = server.dispatcher.encoded_changes_frame(changes)
            self._feed_frame(frame, changes.revision)

        self._subscription = subscription = server.dispatcher.subscribe(
            push, since=int(request.get("since", 0))
        )
        revision = server.journal.revision
        ack: Dict[str, Any] = {"ok": True, "revision": revision}
        if rid is not None:
            ack["id"] = rid
        self._feed_frame(wire.encode_message(ack), revision)
        # Deliver the backlog before any new write publishes, so the
        # subscriber starts from a delta it can actually apply.
        subscription.deliver(server._reportable_revision())

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
            self._detach_subscription()
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
    """Asyncio front-end serving one :class:`Journal` — one event loop,
    thousands of sockets, pipelined requests.  The loop runs on a
    dedicated thread, the only one that touches the Journal while the
    server runs, so the public ``start()``/``stop()`` surface stays
    synchronous."""

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
        #: worker threads for blocking file work (WAL fsyncs and
        #: checkpoint files); the server starts one such job at a time
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
        #: a feed flush is already queued on the loop
        self._publish_pending = False
        #: thread ident of the event loop thread while it runs
        self._loop_thread_id: Optional[int] = None
        #: the file job running on the pool, if any
        self._file_job: Optional[asyncio.Task] = None
        #: set once the loop has finished serving: :meth:`call` refuses
        #: and no file job starts.  Set and tested under ``_call_lock``,
        #: so every call the loop accepted runs before it closes.
        self._closed = False
        self._call_lock = threading.Lock()
        #: replies waiting on an ``fsync="always"`` sync: (target, future)
        self._sync_waiters: List[Tuple[int, asyncio.Future]] = []
        #: revision through which every write is synced (see
        #: :meth:`_reportable_revision`)
        self._synced_revision = 0
        self.dispatcher.call_owner = self.call
        self.dispatcher.on_write = self._wrote

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
        store = self.journal.durability
        if store is not None:
            # From here on no append fsyncs: the loop hands that to the
            # pool (_kick).
            store.background_sync = True
        self._synced_revision = self.journal.revision
        self._closed = False
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
        # The watchdog hands its ticks to the loop, so it stops first.
        self._stop_checkpoint_thread()
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
        self._finalize_stop()
        # Stopped, the server's Journal belongs to its caller again.
        self._closed = False

    def _request_stop(self) -> None:
        if self._stop_requested is not None:
            self._stop_requested.set()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- checkpoint watchdog ---------------------------------------------

    def _start_checkpoint_thread(self) -> None:
        if self.journal.durability is None:
            return
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

    def _checkpoint_loop(self) -> None:
        """Durability watchdog.  A server receiving no writes would
        otherwise never trip the per-op ops/bytes checks (an unbounded
        WAL replay window) nor sync the tail of its WAL (an unbounded
        power-loss window under ``interval``).  Sleeps at most until the
        interval fsync could come due, so no acknowledged record stays
        unsynced much past ``fsync_interval``, then hands a tick
        (:meth:`_kick`) to the loop."""
        while True:
            store = self.journal.durability
            if store is None:
                break
            wait = store.sync_wait()
            if wait is None or wait > self.checkpoint_poll:
                wait = self.checkpoint_poll
            if self._checkpoint_stop.wait(wait):
                break
            try:
                self.call(self._kick)
            except RuntimeError:
                break  # the loop has stopped serving

    def _finalize_stop(self) -> None:
        """Once the loop has stopped the stopping thread owns the
        Journal: the termination checkpoint folds everything the WAL
        holds into a snapshot before the process exits."""
        store = self.journal.durability
        if store is not None:
            store.background_sync = False
            store.checkpoint()
        if self.persist_path is not None:
            self.journal.save(self.persist_path)

    # -- the owner thread's helper ---------------------------------------

    def call(self, func: Callable, *args):
        """Run ``func(*args)`` on the thread that owns the Journal and
        return its result (or raise its error): the one way another
        thread (a standby's tail, the watchdog, an in-process caller)
        touches the Journal of a running server.  On the loop thread, or
        with no loop running, it runs *func* at once; once the loop has
        finished serving it raises :class:`RuntimeError`."""
        if threading.get_ident() == self._loop_thread_id:
            return func(*args)
        done: Future = Future()
        with self._call_lock:
            if self._closed:
                raise RuntimeError("the Journal Server has stopped serving")
            loop = self._loop
            if loop is not None:
                loop.call_soon_threadsafe(_run_into, done, func, args)
        if loop is None:
            return func(*args)
        return done.result()

    # -- answering, and what a write owes --------------------------------

    def _answer(self, request: Dict[str, Any]) -> Tuple[Dict[str, Any], Optional[asyncio.Future]]:
        """Run *request* on the loop.  Returns its reply and, for a
        write while an ``fsync="always"`` store holds unsynced records,
        the future an fsync begun after them resolves — to None, or to
        the error the reply must carry instead."""
        try:
            response = self.dispatcher.dispatch_inline(request)
        except wire.WireError as error:
            return {"ok": False, "error": str(error)}, None
        except Exception as error:  # defensive: report, keep serving
            return {"ok": False, "error": f"{type(error).__name__}: {error}"}, None
        store = self.journal.durability
        if store is None or request.get("op") in READ_OPS:
            return response, None
        target = store.sync_target()
        if target is None:
            return response, None
        synced = self._loop.create_future()
        self._sync_waiters.append((target, synced))
        return response, synced

    def _wrote(self) -> None:
        """Dispatcher hook, after each completed write on the loop:
        queue one feed flush for this loop turn, and start any file work
        the write made due."""
        self._schedule_publish()
        self._kick()

    def _kick(self, *, checkpoint: bool = True) -> None:
        """Start the store's next owed file job on the pool: a due
        checkpoint first, else an fsync — under ``always`` whenever an
        append is unsynced, under ``interval`` once it is due.  One job
        runs at a time."""
        store = self.journal.durability
        if store is None or self._file_job is not None or self._closed or self._loop is None:
            return
        if checkpoint and store.due():
            work, finish = store.checkpoint_job()
        elif store.sync_target() is not None or store.sync_wait() == 0.0:
            work, finish = store.sync_job()
        else:
            return
        self._file_job = self._loop.create_task(
            self._run_job(store, work, finish, self.journal.revision)
        )

    async def _run_job(self, store, work: Callable, finish: Callable, revision: int) -> None:
        """Run one file job's *work* on the pool, then its *finish* here
        on the loop; a job that succeeds has synced every write through
        *revision*."""
        error = None
        try:
            await asyncio.get_running_loop().run_in_executor(self._executor, work)
        except Exception as failure:
            error = failure
            logger.exception("Journal file work failed")
        finally:
            self._file_job = None
        finish(error)
        if error is None:
            self._synced_revision = revision
        self._settle(store)
        # A failed checkpoint is retried by the next write or watchdog
        # tick, not at once.
        self._kick(checkpoint=error is None)

    def _settle(self, store) -> None:
        """Answer the replies whose fsync has returned; if one failed,
        every waiting reply carries the store's fault instead.  Then let
        the feed report what is now synced."""
        waiting = []
        for target, synced in self._sync_waiters:
            if synced.done():
                continue
            if store.synced_through(target):
                synced.set_result(None)
            elif store.fault is not None:
                synced.set_result(f"WAL record not synced: {store.fault}")
            else:
                waiting.append((target, synced))
        self._sync_waiters = waiting
        self._schedule_publish()

    # -- coalesced feed publish ----------------------------------------

    def _reportable_revision(self) -> Optional[int]:
        """How far the feed may report: every applied write (None),
        unless an ``fsync="always"`` store holds unsynced records — then
        only what the last fsync covered."""
        store = self.journal.durability
        if store is None or store.sync_target() is None:
            return None
        return self._synced_revision

    def _schedule_publish(self) -> None:
        """Queue one feed flush on the loop, so a pipelined burst of
        writes lands as a single combined delta per subscriber instead
        of one delivery per write."""
        if self._publish_pending or not self.journal.feed_subscribers:
            return
        if self._loop is None:
            self.journal.publish()
            return
        self._publish_pending = True
        self._loop.call_soon(self._publish_flush)

    def _publish_flush(self) -> None:
        self._publish_pending = False
        self.journal.publish(self._reportable_revision())

    def _loop_main(self, started: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._loop_thread_id = threading.get_ident()
        try:
            loop.run_until_complete(self._serve_forever(started))
        finally:
            started.set()  # never leave start() hanging on a crash
            self._close_calls()
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            # Also runs the calls accepted before the close.
            loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
            asyncio.set_event_loop(None)
            loop.close()
            self._loop = None
            self._loop_thread_id = None

    def _close_calls(self) -> None:
        with self._call_lock:
            self._closed = True

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
            # Refuse further calls, let the file job in flight finish,
            # and start no other.
            self._close_calls()
            while self._file_job is not None:
                await asyncio.wait({self._file_job})

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
