"""Per-shard replica failover: hot standbys, epoch fencing, promotion.

PR 8 federated the Journal across shards, but a dead shard still meant
lost availability until an operator restarted it — the router merely
reported ``missing_shards``.  The paper's premise is a monitor that
keeps discovering *through* network problems; this module makes each
shard survive them:

* :class:`StandbyReplica` — a second :class:`~repro.core.server.
  JournalServer` that *tails* its primary: the existing change feed
  (``subscribe``) provides the wakeup signal and the existing
  revision-cursor replication (:class:`~repro.core.replicate.
  JournalReplicator`, one ``pull`` per pass) moves the deltas into
  the standby's own journal — and, with ``--durable``, its own
  WAL/checkpoint directory.  The tail thread only talks to the
  primary: everything it does to the standby's journal runs on that
  server's event loop (:meth:`~repro.core.server.JournalServer.call`).
  The standby serves reads as a follower; its dispatcher rejects
  client writes (role ``"standby"``).

* :class:`FailoverClient` — the client side: holds a shard's replica
  address list, health-checks the primary (missed heartbeats and
  :class:`~repro.core.client.ReplyTimeout`/:class:`ConnectionError`
  signals), hedges slow reads to a follower, and on primary failure
  promotes the **freshest** reachable standby (highest ``(epoch,
  revision)``) at a strictly larger epoch, fencing any stale
  ex-primary it can still reach.

Failover contracts (DESIGN.md §13)
----------------------------------

**Epoch fencing.**  Every shard has a monotonically-increasing fencing
epoch, exchanged in the ``shard_info`` handshake and stamped onto every
write a failover-aware client sends.  A server rejects writes whose
stamp disagrees with its own epoch; a stamp *newer* than the server's
makes it step down on the spot.  A zombie ex-primary therefore takes no
acknowledged writes past the moment anyone who saw the promotion talks
to it — late writes die at the wire layer with
:class:`~repro.core.wire.FencedError`.

**Freshness rule.**  Promotion picks the reachable candidate with the
highest ``(epoch, revision)``, standbys before fenced ex-primaries, at
epoch ``max(all observed epochs) + 1``.  A racing promotion loses: the
``promote`` op itself is fenced unless its epoch moves strictly
forward.

**Acknowledged-write guarantee.**  An acknowledged write of any op is in
the primary's WAL or replicated (to a standby's WAL, like any write).
On failover the client replays its unacknowledged in-flight window
(idempotent merges make the overlap safe), so nothing in transit is
lost; acknowledged writes the standby had not yet pulled survive in
the dead primary's WAL and *hand back* when it is resurrected as a
standby of the new primary: :meth:`StandbyReplica.start` detects a
non-empty local journal and pushes it (one idempotent full sync, the
reverse direction, stamped with the current epoch) before it starts
tailing.  The chaos campaign in ``tests/integration/test_failover.py``
enforces both ends: zero acknowledged-write loss and an end state
``identity_state()``-equal to a fault-free run.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import wire
from .client import (
    JournalClient,
    LocalClient,
    RemoteChangeFeed,
    RemoteClient,
    ReplyTimeout,
    install_op_methods,
)
from .journal import Journal
from .replicate import JournalReplicator
from .server import JournalServer
from .telemetry import MetricsRegistry

__all__ = ["StandbyReplica", "FailoverClient"]


def _parse_primary(primary) -> Tuple[str, int]:
    if isinstance(primary, str):
        host, separator, port = primary.rpartition(":")
        if not separator or not port.isdigit():
            raise ValueError(f"expected 'host:port', got {primary!r}")
        return host or "127.0.0.1", int(port)
    host, port = primary
    return host, int(port)


class StandbyReplica:
    """A hot-standby Journal Server tailing a primary.

    Owns its own :class:`~repro.core.journal.Journal` (recovered from
    *store* when given — the standby keeps separate WAL/checkpoint
    dirs) and a :class:`~repro.core.server.JournalServer` in the
    ``"standby"`` role: reads are served as a follower, client writes
    are fenced.  A daemon thread tails the primary — change-feed frames
    (or a periodic revision poll) wake it, one ``pull`` per pass
    moves the delta, which the server's loop absorbs — and doubles as
    the heartbeat: :attr:`lag` and :attr:`last_heartbeat` are its
    health view.

    Promotion arrives over the wire (the ``promote`` op, sent by a
    :class:`FailoverClient` or ``fremont promote``): the dispatcher
    flips to the primary role, and the :meth:`_promoted` hook persists
    the epoch and stops the tail loop.  :meth:`promote` does the same
    locally for tooling.

    If the local journal is non-empty at start (a resurrected
    ex-primary rejoining the shard as a standby), its contents are
    *handed back* — pushed to the current primary with one idempotent
    full sync, stamped with the current epoch — before tailing begins,
    so acknowledged writes that died with the old primary re-enter the
    shard.  See the module docstring for the acknowledged-write
    guarantee this completes.
    """

    def __init__(
        self,
        primary,
        *,
        journal: Optional[Journal] = None,
        store=None,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval: float = 0.2,
        retry: Optional[Dict[str, Any]] = None,
        clock: Optional[Callable[[], float]] = None,
        server_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.primary_address = _parse_primary(primary)
        self.poll_interval = poll_interval
        self._retry = dict(retry or {})
        self._store = store
        if journal is None:
            journal = (
                store.recover(clock=clock)
                if store is not None
                else Journal(clock=clock)
            )
        self.journal = journal
        self.server = JournalServer(
            journal, host=host, port=port, **(server_options or {})
        )
        dispatcher = self.server.dispatcher
        dispatcher.role = "standby"
        if store is not None:
            dispatcher.epoch = store.read_epoch()
        dispatcher.on_promote = self._promoted
        dispatcher.on_fence = self._fenced
        self._stop = threading.Event()
        #: set when tailing must end (promotion, fencing, or shutdown)
        self._tail_stop = threading.Event()
        self._tail_thread: Optional[threading.Thread] = None
        self._handback_done = False
        #: monotonic time of the last successful primary contact
        self.last_heartbeat = 0.0
        #: primary revision as last observed (feed frame or poll)
        self.primary_revision = 0
        #: primary revision through which the local journal is caught up
        self.replicated_revision = 0
        #: rejoin handbacks performed (0 or 1 per replica lifetime)
        self.handbacks = 0
        telemetry = journal.telemetry
        self._g_lag = telemetry.gauge(
            "fremont_standby_lag",
            "Primary revisions not yet replicated to this standby",
        )
        self._c_syncs = telemetry.counter(
            "fremont_standby_syncs_total",
            "Tail sync passes absorbed from the primary",
        )
        self._c_handback = telemetry.counter(
            "fremont_standby_handback_records_total",
            "Records pushed back to the shard on rejoin",
        )

    # -- state views -----------------------------------------------------

    @property
    def role(self) -> str:
        return self.server.dispatcher.role

    @property
    def epoch(self) -> int:
        return self.server.dispatcher.epoch

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    @property
    def lag(self) -> int:
        """Primary revisions not yet absorbed locally (0 = caught up)."""
        return max(0, self.primary_revision - self.replicated_revision)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "StandbyReplica":
        self.server.start()
        self._tail_thread = threading.Thread(
            target=self._tail_loop, name="standby-tail", daemon=True
        )
        self._tail_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._tail_stop.set()
        if self._tail_thread is not None:
            self._tail_thread.join(timeout=10.0)
            self._tail_thread = None
        self.server.stop()

    def __enter__(self) -> "StandbyReplica":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- promotion hooks -------------------------------------------------

    def promote(self, epoch: Optional[int] = None) -> int:
        """Promote locally (tooling/tests): same state transition the
        wire op performs, through the same dispatcher (on the server's
        loop) so the fencing rules hold."""
        response = self.server.dispatcher.dispatch(
            {"op": "promote", **({} if epoch is None else {"epoch": epoch})}
        )
        if not response.get("ok"):
            raise wire.FencedError(
                f"local promote rejected: {response.get('error')}",
                epoch=response.get("epoch", 0),
                role=response.get("role", ""),
            )
        return int(response["epoch"])

    def _promoted(self, epoch: int, previous_role: str) -> None:
        """Dispatcher hook (on the loop): persist the epoch before
        any write is acknowledged under it, and stop tailing — the
        journal is now the shard's line of record, not a copy."""
        self._persist_epoch(epoch)
        self._tail_stop.set()

    def _fenced(self, epoch: int, previous_role: str) -> None:
        self._persist_epoch(epoch)
        self._tail_stop.set()

    def _persist_epoch(self, epoch: int) -> None:
        if self._store is not None:
            self._store.write_epoch(epoch)

    # -- the tail loop ---------------------------------------------------

    def _tail_loop(self) -> None:
        backoff = 0.1
        rng = random.Random()
        while not self._tail_stop.is_set() and self.role == "standby":
            try:
                client = RemoteClient(*self.primary_address, **self._retry)
            except OSError:
                self._tail_stop.wait(
                    min(backoff, 2.0) * (0.5 + rng.random())
                )
                backoff *= 2.0
                continue
            backoff = 0.1
            feed: Optional[RemoteChangeFeed] = None
            try:
                self._adopt_primary(client)
                self._handback(client)
                replicator = JournalReplicator(client, LocalClient(self.journal))
                replicator.last_revision = self.replicated_revision
                feed = client.subscribe(since=self.replicated_revision)
                while not self._tail_stop.is_set() and self.role == "standby":
                    delta = feed.poll(self.poll_interval)
                    if delta is not None:
                        self.primary_revision = max(
                            self.primary_revision, delta.revision
                        )
                    else:
                        # Idle tick doubles as the heartbeat: a cheap
                        # revision poll notices writes whose push frames
                        # were lost to a feed demotion or flap.
                        self.primary_revision = max(
                            self.primary_revision, client.revision()
                        )
                    self.last_heartbeat = time.monotonic()
                    if self.primary_revision > replicator.last_revision:
                        # A primary seated after we connected (by a
                        # router's handshake) is seated before the
                        # first record it sends us.
                        self._adopt_identity(client)
                        pulled = replicator.begin_sync().wait()
                        self.server.call(self._absorb, replicator, pulled)
                        self.replicated_revision = replicator.last_revision
                        self._c_syncs.inc()
                    self._g_lag.set(self.lag)
            except (ConnectionError, TimeoutError, OSError, RuntimeError,
                    wire.WireError):
                # Primary unreachable or mid-restart: reconnect with
                # backoff and resume from the replication cursor.
                self._tail_stop.wait(min(backoff, 2.0) * (0.5 + rng.random()))
                backoff *= 2.0
            finally:
                if feed is not None:
                    feed.close()
                try:
                    client.close()
                except (ConnectionError, OSError):
                    pass

    def _absorb(self, replicator: JournalReplicator, pulled) -> None:
        """On the loop: apply one pull, then publish and log it as a
        dispatched write would be (followers may have feed subscribers
        of their own)."""
        replicator.absorb(pulled)
        self.server.dispatcher.after_write()

    def _adopt_primary(self, client: RemoteClient) -> None:
        """Inherit the primary's epoch (never regressing ours): the
        promotion rule "strictly beyond every observed epoch" then
        holds even when only this standby is reachable at failover.
        And its shard identity (:meth:`_adopt_identity`)."""
        info = client.replica_info() or {}
        epoch = int(info.get("epoch", 0))
        self.primary_revision = max(
            self.primary_revision, int(info.get("revision", 0))
        )
        self.last_heartbeat = time.monotonic()
        if epoch > self.epoch:
            self.server.call(self._adopt_epoch, epoch)
        self._adopt_identity(client)

    def _adopt_epoch(self, epoch: int) -> None:
        dispatcher = self.server.dispatcher
        if epoch > dispatcher.epoch:
            dispatcher.epoch = epoch
            self._persist_epoch(epoch)

    def _adopt_identity(self, client: RemoteClient) -> None:
        """Seat the local journal as the primary's shard while it can
        still be seated (it holds no identity and has issued no id), so
        that once promoted it issues ids that route to this shard."""
        if not self.journal.seatable:
            return
        identity = client.shard_info()
        if identity is not None:
            self.server.call(self.journal.seat, identity)

    def _handback(self, client: RemoteClient) -> None:
        """Rejoin reconciliation: push a non-empty local journal up to
        the primary before tailing it.

        A resurrected ex-primary recovers acknowledged writes from its
        WAL that the shard lost at failover; one idempotent full sync
        (timestamp-preserving merges) returns them.  The absorbs are
        stamped with the *current* epoch learned from the handshake —
        this is operator-sanctioned reconciliation under the new
        regime, exactly what a zombie still writing under its old
        epoch is fenced for."""
        if self._handback_done:
            return
        self._handback_done = True
        if self.journal.revision <= 0:
            return
        info = client.replica_info() or {}
        client.fence_epoch = int(info.get("epoch", 0)) or None
        try:
            reverse = JournalReplicator(LocalClient(self.journal), client)
            pulled = self.server.call(lambda: reverse.begin_sync(full=True).wait())
            stats = reverse.absorb(pulled)
            self.handbacks += 1
            self._c_handback.inc(stats.records_sent)
        finally:
            client.fence_epoch = None


class FailoverClient(JournalClient):
    """Replica-set client for one shard: routes to the primary, hedges
    reads to followers, and promotes on failure.

    Duck-types the :class:`~repro.core.client.RemoteClient` surface
    (reads, writes, batches, subscribe, flush), so a
    :class:`~repro.core.shard.ShardedClient` can hold one per shard —
    ``connect("shard://h1:p1|r1:q1,h2:p2|r2:q2")`` builds exactly that.
    The named reads (:class:`~repro.core.query.NamedReads`) are
    queries, so they hedge through the ``query`` proxy like any read.

    Health signals: a :class:`ConnectionError` (the active client
    exhausted its own reconnect budget) or a
    :class:`~repro.core.client.ReplyTimeout` from any op, or
    *heartbeat_misses* consecutive failed background pings when
    *heartbeat_interval* is set.  Reads are then hedged to a follower
    (standbys serve reads) for the answer while the fleet re-discovers;
    writes re-discover first and retry once.

    Discovery prefers a sitting primary at ``epoch >= ours``; absent
    one it promotes the freshest candidate (highest ``(epoch,
    revision)``, standbys before fenced servers) at ``max(observed
    epochs) + 1`` and best-effort fences every stale primary it can
    reach.  All subsequent writes carry the adopted epoch stamp.
    """

    def __init__(
        self,
        addresses: Sequence[Tuple[str, int]],
        *,
        retry: Optional[Dict[str, Any]] = None,
        probe_timeout: float = 1.0,
        heartbeat_interval: Optional[float] = None,
        heartbeat_misses: int = 3,
    ) -> None:
        addresses = [(host, int(port)) for host, port in addresses]
        if not addresses:
            raise ValueError("a FailoverClient needs at least one address")
        self.addresses = addresses
        self._retry = dict(retry or {})
        self._probe_timeout = probe_timeout
        self._lock = threading.RLock()
        self._client: Optional[RemoteClient] = None
        self._active_index: Optional[int] = None
        self._followers: Dict[int, RemoteClient] = {}
        #: highest fencing epoch observed/installed by this client
        self.epoch = 0
        #: set by the heartbeat thread; the next op re-discovers first
        self._suspect = False
        self.telemetry = MetricsRegistry()
        self._c_failovers = self.telemetry.counter(
            "fremont_failover_failovers_total",
            "Times the active primary was abandoned for a replacement",
        )
        self._c_promotions = self.telemetry.counter(
            "fremont_failover_promotions_total",
            "Standbys this client promoted to primary",
        )
        self._c_hedged = self.telemetry.counter(
            "fremont_failover_hedged_reads_total",
            "Reads answered by a follower after the primary went quiet",
        )
        self._c_fenced = self.telemetry.counter(
            "fremont_failover_fenced_total",
            "FencedError rejections that forced a re-discovery",
        )
        self._g_epoch = self.telemetry.gauge(
            "fremont_failover_epoch",
            "Fencing epoch this client currently writes under",
        )
        self._discover()
        self._hb_stop = threading.Event()
        self._hb_thread: Optional[threading.Thread] = None
        self._hb_misses = 0
        self._heartbeat_misses = max(1, int(heartbeat_misses))
        if heartbeat_interval is not None:
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop,
                args=(float(heartbeat_interval),),
                name="failover-heartbeat",
                daemon=True,
            )
            self._hb_thread.start()

    # -- introspection ---------------------------------------------------

    @property
    def active_address(self) -> Tuple[str, int]:
        """The address currently treated as the shard's primary."""
        with self._lock:
            if self._active_index is None:
                raise ConnectionError("no active primary")
            return self.addresses[self._active_index]

    # -- discovery and promotion ----------------------------------------

    def _probe_client(self, index: int) -> RemoteClient:
        """A client to member *index* that tries once, within the probe
        timeout (for discovery probes and followers)."""
        timeout = self._probe_timeout
        return RemoteClient(
            *self.addresses[index],
            **dict(self._retry, timeout=timeout, request_timeout=timeout, reconnect_attempts=1),
        )

    def _probe(self, index: int) -> Tuple[RemoteClient, Dict[str, Any]]:
        client = self._probe_client(index)
        try:
            info = client.replica_info()
        except BaseException:
            client.close()
            raise
        if info is None:
            info = {"role": "primary", "epoch": 0, "revision": 0}
        return client, info

    def _discover(self) -> None:
        """Probe the whole replica set and (re)seat the primary,
        promoting and fencing as the freshness rule dictates.  Caller
        holds the lock (or is the constructor).  Raises
        :class:`ConnectionError` when no replica answers."""
        candidates: Dict[int, Tuple[RemoteClient, Dict[str, Any]]] = {}
        try:
            for index in range(len(self.addresses)):
                try:
                    candidates[index] = self._probe(index)
                except (OSError, ConnectionError, TimeoutError,
                        RuntimeError, wire.WireError):
                    continue
            if not candidates:
                raise ConnectionError(
                    "no replica reachable among "
                    + ", ".join(f"{h}:{p}" for h, p in self.addresses)
                )
            chosen, epoch = self._choose(candidates)
            # Fence every stale primary still answering: its clients
            # must get hard errors, not acknowledgements into a journal
            # nobody replicates.
            for index, (client, info) in candidates.items():
                if (
                    index != chosen
                    and info["role"] == "primary"
                    and info["epoch"] < epoch
                ):
                    try:
                        client.fence(epoch)
                    except (OSError, ConnectionError, TimeoutError,
                            RuntimeError):
                        pass
            self._seat(chosen, epoch)
        finally:
            for client, _info in candidates.values():
                client.close()

    def _choose(
        self, candidates: Dict[int, Tuple[RemoteClient, Dict[str, Any]]]
    ) -> Tuple[int, int]:
        """Apply the freshness rule to the probe results.  Returns
        ``(index, epoch)`` of the (possibly just-promoted) primary."""
        primaries = [
            (info["epoch"], -index, index)
            for index, (_client, info) in candidates.items()
            if info["role"] == "primary"
        ]
        if primaries:
            best_epoch, _tiebreak, best_index = max(primaries)
            if best_epoch >= self.epoch:
                return best_index, best_epoch
        # No acceptable primary: promote the freshest candidate.
        ranked = max(
            (
                info["role"] == "standby",  # standbys before fenced/stale
                info["epoch"],
                info["revision"],
                -index,
                index,
            )
            for index, (_client, info) in candidates.items()
        )
        target = ranked[-1]
        observed = max(info["epoch"] for _c, info in candidates.values())
        new_epoch = max(self.epoch, observed) + 1
        client, _info = candidates[target]
        client.promote(new_epoch)  # FencedError here = lost the race
        self._c_promotions.inc()
        return target, new_epoch

    def _seat(self, index: int, epoch: int) -> None:
        """Install *index* as the active primary at *epoch*.

        The old connection's unacknowledged writes (parked replay
        buffer plus in-flight writes without a response) are harvested
        and re-parked on the new connection — that window is exactly
        the writes a caller has issued but never had acknowledged, and
        re-sending it through the new primary (idempotent merges) is
        what closes the in-transit half of the acknowledged-write
        guarantee."""
        carried: List[Dict[str, Any]] = []
        owed = 0
        if self._client is not None:
            carried, owed = self._client.handoff()
            try:
                self._client.close()
            except (ConnectionError, OSError):
                pass
        for follower in self._followers.values():
            try:
                follower.close()
            except (ConnectionError, OSError):
                pass
        self._followers.clear()
        host, port = self.addresses[index]
        self.epoch = max(self.epoch, int(epoch))
        # Parking disabled (buffer_limit=0): a plain RemoteClient
        # absorbs an outage by buffering observations locally, which
        # would hide the exact signal failover exists to act on.  Here
        # an unreachable primary must surface as ConnectionError so the
        # shard promotes a standby instead of quietly queueing.
        options = dict(self._retry)
        options.setdefault("buffer_limit", 0)
        # Fail fast, too: the plain client's full jittered backoff
        # schedule is for a caller with nowhere else to go.  This layer
        # has somewhere else to go — one quick in-client retry absorbs a
        # transient blip, then _retry_op's failover loop owns the rest,
        # which keeps the promotion window well under the 2 s budget.
        options.setdefault("reconnect_attempts", 2)
        self._client = RemoteClient(
            host, port, fence_epoch=self.epoch or None, **options
        )
        if carried:
            self._client.adopt(carried, coalesced=owed)
            self._client.flush()
        self._active_index = index
        self._g_epoch.set(self.epoch)
        self._suspect = False
        self._hb_misses = 0

    def _failover(self) -> None:
        self._c_failovers.inc()
        self._discover()

    # -- health ----------------------------------------------------------

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._hb_stop.wait(interval):
            try:
                with self._lock:
                    if self._active_index is None:
                        continue
                    address = self.addresses[self._active_index]
                # Probe outside the lock on a throwaway connection: the
                # active client is not thread-safe against in-flight ops.
                client, _info = self._probe(
                    self.addresses.index(address)
                )
                client.close()
            except (OSError, ConnectionError, TimeoutError, RuntimeError,
                    wire.WireError):
                self._hb_misses += 1
                if self._hb_misses >= self._heartbeat_misses:
                    self._suspect = True
            else:
                self._hb_misses = 0

    def check_health(self) -> bool:
        """Re-discover now if the heartbeat marked the primary suspect.
        Returns True when the primary is (again) considered healthy."""
        with self._lock:
            if self._suspect:
                self._failover()
            return not self._suspect

    # -- op runners ------------------------------------------------------

    def _preflight(self) -> None:
        if self._suspect:
            self._failover()

    def _run_write(self, fn):
        with self._lock:
            self._preflight()
            try:
                return fn(self._client)
            except (wire.FencedError, ConnectionError, ReplyTimeout) as error:
                return self._recover(fn, error)

    def _recover(self, fn, error):
        """Re-run the write *fn* after it failed with *error*.  Caller
        holds the lock."""
        if isinstance(error, wire.FencedError):
            # Our epoch view (or the server's role) is stale:
            # re-discover, then retry under the adopted epoch.
            self._c_fenced.inc()
            self._discover()
            return fn(self._client)
        return self._retry_op(fn, error)

    def _run_read(self, fn):
        with self._lock:
            self._preflight()
            try:
                return fn(self._client)
            except (ConnectionError, ReplyTimeout) as error:
                # Hedge: any follower can answer a read while the
                # primary is quiet; re-discovery happens best-effort so
                # the *next* op starts healthy.
                result, answered = self._hedge(fn)
                if answered:
                    try:
                        self._failover()
                    except (ConnectionError, ReplyTimeout):
                        pass
                    return result
                return self._retry_op(fn, error)

    def _retry_op(self, fn, error):
        """Bounded failover-and-retry: on a flapping link a kill can
        land mid-discovery just as easily as mid-request, so one retry
        is not enough for bounded unavailability — but the budget stays
        small so a truly dead fleet still errors out quickly.  Caller
        holds the lock."""
        for attempt in range(3):
            try:
                self._failover()
            except (ConnectionError, ReplyTimeout) as exc:
                error = exc
                time.sleep(0.2 * (attempt + 1))
                continue
            try:
                return fn(self._client)
            except wire.FencedError:
                self._c_fenced.inc()
                self._discover()
                return fn(self._client)
            except (ConnectionError, ReplyTimeout) as exc:
                error = exc
        raise error

    def _hedge(self, fn) -> Tuple[Any, bool]:
        for index in range(len(self.addresses)):
            if index == self._active_index:
                continue
            follower = self._follower(index)
            if follower is None:
                continue
            try:
                result = fn(follower)
            except (OSError, ConnectionError, TimeoutError, RuntimeError,
                    wire.WireError):
                continue
            self._c_hedged.inc()
            return result, True
        return None, False

    def _follower(self, index: int) -> Optional[RemoteClient]:
        follower = self._followers.get(index)
        if follower is not None:
            return follower
        try:
            follower = self._probe_client(index)
        except OSError:
            return None
        self._followers[index] = follower
        return follower

    # -- direct surface --------------------------------------------------

    def subscribe(self, *, since: int = 0) -> RemoteChangeFeed:
        """A change feed against the current primary, with this client's
        *retry* settings (the feed resumes flaps on its own; a permanent
        primary death surfaces as :class:`ConnectionError` once its
        resume budget is spent)."""
        host, port = self.active_address
        return RemoteChangeFeed(host, port, since=since, **self._retry)

    def observe_batch_nowait(self, observations, *, coalesced: int = 0):
        """Pipelined batch via the active primary.  Failover covers the
        wait as well as the send: a reply that times out, is fenced or
        loses its connection re-sends the batch through the write
        runner, as the synchronous ``observe_batch`` would."""

        def send(client):
            return client.observe_batch_nowait(observations, coalesced=coalesced)

        return _FailoverBatchReply(self, send, self._run_write(send))

    def settle(self, timeout: Optional[float] = -1.0) -> int:
        with self._lock:
            if self._client is None:
                return 0
            return self._client.settle(timeout)

    @property
    def pending_replay(self) -> int:
        with self._lock:
            return 0 if self._client is None else self._client.pending_replay

    @property
    def inflight(self) -> int:
        with self._lock:
            return 0 if self._client is None else self._client.inflight

    def close(self) -> None:
        self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=5.0)
            self._hb_thread = None
        with self._lock:
            if self._client is not None:
                try:
                    self._client.close()
                except (ConnectionError, OSError):
                    pass
                self._client = None
            for follower in self._followers.values():
                try:
                    follower.close()
                except (ConnectionError, OSError):
                    pass
            self._followers.clear()


class _FailoverBatchReply:
    """The reply handle of :meth:`FailoverClient.observe_batch_nowait`."""

    __slots__ = ("_owner", "_send", "_reply")

    def __init__(self, owner: FailoverClient, send, reply) -> None:
        self._owner, self._send, self._reply = owner, send, reply

    def wait(self, timeout: Optional[float] = -1.0) -> Dict[str, Any]:
        try:
            return self._reply.wait(timeout)
        except (wire.FencedError, ConnectionError, ReplyTimeout) as error:
            with self._owner._lock:
                return self._owner._recover(
                    lambda client: self._send(client).wait(timeout), error
                )


def _proxy(op: str, name: str):
    """FailoverClient's method for a RemoteClient method declared in
    :data:`wire.OPS`: reads hedge to followers, writes and control ops
    fail over and retry once."""
    runner_name = "_run_read" if wire.OPS[op].kind == "read" else "_run_write"

    def method(self, *args, **kwargs):
        runner = getattr(self, runner_name)
        return runner(lambda client: getattr(client, name)(*args, **kwargs))

    method.__name__ = name
    method.__doc__ = (
        f"``RemoteClient.{name}`` against the active primary, with "
        f"{'follower hedging' if runner_name == '_run_read' else 'failover-and-retry'}."
    )
    return method


install_op_methods(FailoverClient, _proxy)
