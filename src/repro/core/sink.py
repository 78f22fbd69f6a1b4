"""The observation ingest layer.

Explorer Modules used to call ``Journal.observe_interface`` directly,
one sighting at a time — which over a socket means one round trip per
observation.  This module defines the sink half of the three-layer
observation pipeline (ingest -> storage -> change feed):

* :class:`ObservationSink` — the protocol every journal client speaks:
  ``submit`` (fire-and-forget), ``resolve`` (synchronous, returns the
  merged record), ``flush``, and ``close``.  The ``Journal`` and every
  :class:`~repro.core.client.JournalClient` implement it, so a sink can
  be dropped anywhere a journal client was expected.
* :class:`BatchingSink` — wraps a journal client and buffers
  submissions, coalescing *consecutive* duplicate (mac, ip, source)
  sightings and flushing on size/age thresholds.  A flush is one
  ``observe_batch_nowait`` call — against a remote client a single
  server ``observe_batch`` round trip.

Flush is also the pipeline's *durability point*: the terminal
``Journal.flush`` publishes the change feed and, when a
:class:`~repro.core.durability.JournalStore` is attached, fsyncs the
write-ahead log — so once a BatchingSink flush returns, that batch is
as durable as the configured fsync policy guarantees.  Intermediate
sinks only need to propagate ``flush`` downstream (they already do, via
``target.flush()``) to inherit the contract.

Coalescing deliberately merges only **adjacent** duplicates, never
reordering the stream.  The Journal's record matching is stateful (an
observation can claim, split, or refresh different records depending on
what arrived before it), so moving an observation earlier or later can
change which record absorbs it.  Merging a run of same-key sightings is
provably equivalent to applying them back-to-back — the merged fields
equal the sequential outcome and the key pins the match — which is what
the batched-vs-unbatched property test
(``tests/integration/test_ingest_equivalence.py``) exercises.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from .records import InterfaceRecord, Observation
from .telemetry import SIZE_BUCKETS, telemetry_of

__all__ = ["ObservationSink", "BatchingSink", "FlushStats"]

#: BatchingSink's default batch size (the Journal Server runs an
#: ``observe_batch`` this small on its event loop thread)
DEFAULT_MAX_BATCH = 64


@dataclass
class FlushStats:
    """What one :meth:`ObservationSink.flush` actually moved."""

    #: observations handed to the underlying journal by this flush
    applied: int = 0
    #: submissions merged away (never individually applied)
    coalesced: int = 0
    #: applied observations that changed the Journal
    changed: int = 0
    #: round trips / batch applications performed (0 or 1 per flush)
    batches: int = 0

    def __bool__(self) -> bool:  # "did this flush do anything"
        return bool(self.applied or self.coalesced)


class ObservationSink(abc.ABC):
    """Where Explorer Modules put interface sightings.

    The contract mirrors a buffered writer: ``submit`` may defer work,
    ``resolve`` forces the observation through synchronously (flushing
    anything queued ahead of it, preserving order), ``flush`` drains the
    buffer, ``close`` flushes and releases resources.
    """

    @abc.abstractmethod
    def submit(self, observation: Observation) -> Optional[Tuple[InterfaceRecord, bool]]:
        """Accept one observation.  Direct sinks apply it immediately
        and return ``(record, changed)``; buffering sinks return None
        and settle the outcome at flush time."""

    @abc.abstractmethod
    def resolve(self, observation: Observation) -> Tuple[InterfaceRecord, bool]:
        """Apply one observation synchronously and return the merged
        record — for explorers that need the record id (e.g. to build a
        gateway from it)."""

    @abc.abstractmethod
    def flush(self) -> FlushStats:
        """Drain any buffered observations to the journal."""

    def close(self) -> None:
        """Flush and release; the default is just a flush."""
        self.flush()


#: observation fields that can be refreshed in place when coalescing
_MERGE_FIELDS = (
    "ip",
    "mac",
    "dns_name",
    "subnet_mask",
    "vendor",
    "rip_source",
    "promiscuous_rip",
)


class BatchingSink(ObservationSink):
    """Buffered, coalescing front-end over a journal client (a bare
    :class:`~repro.core.journal.Journal` is wrapped in a
    :class:`~repro.core.client.LocalClient` once, at construction).

    Observations accumulate (in order) until ``max_batch`` entries are
    queued or the oldest entry is ``max_age`` clock units old, then the
    whole buffer flushes at once.  A submission whose coalescing key —
    (mac, ip, source, quality), extended with the DNS name when both
    addresses are absent — matches the *tail* of the buffer is merged
    into it instead of appended.  Observations carrying no identity at
    all are never coalesced (each one creates its own Journal record,
    so dropping one would change the outcome).

    Every flush is one ``observe_batch_nowait`` call on the target;
    ``pipeline_depth`` sets how many of their replies may stay open.
    At the default 1 a flush settles its own reply before it returns
    (an in-process client's reply is settled already).  Above 1, up to
    ``pipeline_depth`` flushed batches stay on the wire, hiding the
    round trip, and their changed-flag accounting settles when the
    responses return — :meth:`take_changes` and
    :meth:`FlushStats.changed` therefore lag by up to
    ``pipeline_depth`` batches until :meth:`settle` (or ``close``)
    drains them.  Batches still *apply* in submission order; the
    server guarantees per-connection write ordering.

    The sink does not own its target: ``close`` flushes (and settles)
    but leaves the underlying client open.
    """

    def __init__(
        self,
        target,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_age: Optional[float] = None,
        pipeline_depth: int = 1,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be at least 1")
        # Imported here: the journal and client modules import this one.
        from .client import LocalClient
        from .journal import Journal

        if isinstance(target, Journal):
            target = LocalClient(target)
        self.target = target
        self.max_batch = max_batch
        self.max_age = max_age
        self.pipeline_depth = pipeline_depth
        #: flush replies a flush may leave open: none at depth 1
        self._window = pipeline_depth if pipeline_depth > 1 else 0
        self._clock = clock
        #: shared with the target journal's registry when reachable
        self.telemetry = telemetry_of(target)
        self._h_batch_size = self.telemetry.histogram(
            "fremont_sink_batch_size",
            "Observations in a BatchingSink buffer at flush",
            buckets=SIZE_BUCKETS,
        )
        self._h_batch_age = self.telemetry.histogram(
            "fremont_sink_batch_age_seconds",
            "Age of the oldest buffered observation at flush (clock units)",
        )
        self._c_flushes = self.telemetry.counter(
            "fremont_sink_flushes_total", "Non-empty BatchingSink flushes"
        )
        self._entries: List[Observation] = []
        self._oldest_at: Optional[float] = None
        # cumulative accounting
        self.submitted = 0
        self.coalesced = 0
        self.flushes = 0
        self.applied = 0
        #: coalesced count not yet reported downstream by a flush
        self._coalesced_pending = 0
        #: journal changes observed by flushes since the last take_changes()
        self._unclaimed_changes = 0
        #: flush replies not yet settled, oldest first
        self._inflight_flushes: List[Any] = []

    # -- buffering -------------------------------------------------------

    @staticmethod
    def _key(observation: Observation):
        """Coalescing key; None marks an uncoalescible observation."""
        if observation.mac is None and observation.ip is None:
            if observation.dns_name is None:
                return None  # no identity: must apply individually
            return (None, None, observation.dns_name,
                    observation.source, observation.quality)
        return (observation.mac, observation.ip, None,
                observation.source, observation.quality)

    def submit(self, observation: Observation) -> None:
        self.submitted += 1
        key = self._key(observation)
        tail = self._entries[-1] if self._entries else None
        if key is not None and tail is not None and self._key(tail) == key:
            # A consecutive duplicate: refresh the queued sighting with
            # any newer non-empty fields instead of queueing it again.
            for name in _MERGE_FIELDS:
                value = getattr(observation, name)
                if value is not None:
                    setattr(tail, name, value)
            self.coalesced += 1
            self._coalesced_pending += 1
        else:
            self._entries.append(dataclasses.replace(observation))
            if self._oldest_at is None and self._clock is not None:
                self._oldest_at = self._clock()
        if len(self._entries) >= self.max_batch or self._overdue():
            self.flush()
        return None

    def _overdue(self) -> bool:
        if self.max_age is None or self._clock is None or self._oldest_at is None:
            return False
        return self._clock() - self._oldest_at >= self.max_age

    def resolve(self, observation: Observation) -> Tuple[InterfaceRecord, bool]:
        """Flush the queue (preserving order), then apply synchronously.
        The returned ``changed`` flag is the caller's to account for —
        only flush-settled outcomes accrue to :meth:`take_changes`."""
        self.flush()
        record, changed = self.target.resolve(observation)
        self.submitted += 1
        self.applied += 1
        return record, changed

    @property
    def pending(self) -> int:
        """Observations currently buffered."""
        return len(self._entries)

    # -- flushing --------------------------------------------------------

    def flush(self) -> FlushStats:
        if not self._entries:
            # Propagate so stacked sinks / feed publication still happen.
            # An unreachable RemoteClient raises here while trying to
            # drain its replay buffer; its observations stay parked for
            # the next attempt, so swallow and move on.
            try:
                self.target.flush()
            except ConnectionError:
                pass
            return FlushStats(coalesced=0)
        batch = self._entries
        self._entries = []
        oldest_at = self._oldest_at
        self._oldest_at = None
        coalesced = self._coalesced_pending
        self._coalesced_pending = 0
        self._h_batch_size.observe(len(batch))
        if oldest_at is not None and self._clock is not None:
            self._h_batch_age.observe(max(0.0, self._clock() - oldest_at))
        with self.telemetry.trace(
            "sink_flush", size=len(batch), coalesced=coalesced
        ):
            # Put the batch on the wire (one ``observe_batch`` round trip
            # against a server) and settle the oldest replies only once
            # the window is full, so up to pipeline_depth round trips
            # overlap.
            self._inflight_flushes.append(
                self.target.observe_batch_nowait(batch, coalesced=coalesced)
            )
            changed = 0
            while len(self._inflight_flushes) > self._window:
                changed += self._settle_one()
            # Flushing downstream is what makes a batch boundary a real
            # durability point: the terminal Journal.flush publishes the
            # change feed and fsyncs an attached WAL.  An unreachable
            # RemoteClient keeps its replay buffer parked (same
            # contract as the empty-buffer path above).
            try:
                self.target.flush()
            except ConnectionError:
                pass
        self._c_flushes.inc()
        self.flushes += 1
        self.applied += len(batch)
        self._unclaimed_changes += changed
        return FlushStats(
            applied=len(batch), coalesced=coalesced, changed=changed, batches=1
        )

    def _settle_one(self) -> int:
        """Wait for the oldest open flush reply; returns how many of its
        observations changed the Journal."""
        response = self._inflight_flushes.pop(0).wait()
        return sum(
            1 for item in response.get("responses", []) if item.get("changed")
        )

    def settle(self) -> int:
        """Drain every flush reply still open, folding the
        changed counts into :meth:`take_changes` accounting.  Returns
        the number of changes settled."""
        changed = 0
        while self._inflight_flushes:
            changed += self._settle_one()
        self._unclaimed_changes += changed
        return changed

    @property
    def pending_settle(self) -> int:
        """Pipelined flushes awaiting their server response."""
        return len(self._inflight_flushes)

    def take_changes(self) -> int:
        """Journal changes produced by flushes since the last call —
        how a module's RunResult claims the fruitfulness of sightings it
        submitted but only the flush applied."""
        taken = self._unclaimed_changes
        self._unclaimed_changes = 0
        return taken

    def close(self) -> None:
        self.flush()
        self.settle()
