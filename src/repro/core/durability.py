"""Durable storage for the Journal: write-ahead log + atomic checkpoints.

The paper's Journal Server "writes to disk periodically and at
termination".  A plain periodic dump has two failure modes a
weeks-long campaign cannot afford: a crash mid-dump tears the file,
and everything observed since the previous dump is simply gone.  This
module closes both holes with the classic WAL-plus-snapshot recipe:

* **Write-ahead log** — every Journal write is appended to the current
  WAL segment once applied, before it is acknowledged, framed as
  ``[length:4][crc32:4][payload]``; the compact-JSON payload is the
  write's ``wire.OPS`` request plus ``at``, the instant it ran.  The
  fsync policy is configurable: ``always`` (fsync per append — nothing
  acknowledged is ever lost), ``interval`` (fsync once ``fsync_interval``
  has passed since the last sync and something is unsynced — bounded
  loss window), or ``never`` (leave it to the OS — fastest, loses
  whatever the kernel had not written back).  An unserved store
  fsyncs inside the append (``always``, or ``interval`` once the
  interval has elapsed).  A served store's appends never fsync
  (:attr:`JournalStore.background_sync`): the Journal Server runs
  :meth:`JournalStore.sync_job` on its worker pool — under ``always``
  whenever an append is unsynced (the appends made while one fsync
  runs share the next), under ``interval`` once the interval is due,
  even when no further write arrives.

* **Atomic checkpoints** — a full journal snapshot is written to a
  temp file in the same directory, fsynced, and moved into place with
  ``os.replace``; the previous checkpoint stays valid until the atomic
  rename, so no crash at any instant can leave a torn snapshot.  The
  file carries a one-line header (format version, CRC32 of the body,
  journal revision, first WAL segment not covered) ahead of the body.
  After a checkpoint the WAL rotates to a fresh segment and the
  segments the snapshot superseded are deleted.  A checkpoint is a
  file job (:meth:`JournalStore.checkpoint_job`): the snapshot, its
  header and the rotation are taken by the Journal's owner thread,
  and the file writes are one blocking step a worker can run.

* **Recovery** — :meth:`JournalStore.recover` loads the newest valid
  checkpoint (a corrupt one is quarantined to ``*.corrupt`` and
  recovery restarts from empty, replaying whatever WAL survives),
  replays the WAL segments after it in order, tolerates a torn final
  record on any segment (the crash interrupted that append; it was
  never acknowledged as synced), quarantines a segment whose *interior*
  fails its CRC or holds a record that will not replay — along with
  every later segment, since replaying past a gap would reorder
  history — and verifies that entry sequence numbers increase
  monotonically across the whole replay.

Durability contract: every write is durable up to the last synced WAL
record.  Replay runs each record through its op's
:class:`~repro.core.wire.JournalCall` with the clock pinned to ``at``,
so it recreates the live record ids and timestamps.  Older ``kind:
observe`` and ``kind: negative`` records still replay.  A failed
append refuses writes until a checkpoint covers the unlogged one.

Checkpoint policy: :meth:`JournalStore.due` trips on any of three
thresholds — WAL appends since the last checkpoint
(``checkpoint_ops``), WAL bytes since (``checkpoint_bytes``), or
wall-clock age of a dirty store (``checkpoint_age``).  The Journal
Server checks it after every write op and on its watchdog's ticks, so
checkpoints are no longer stop-only, and its event loop never writes
the checkpoint file.
"""

from __future__ import annotations

import functools
import json
import os
import re
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import wire
from .journal import Journal

__all__ = [
    "FSYNC_POLICIES",
    "JournalStore",
    "RecoveryReport",
    "SegmentScan",
    "atomic_write_json",
    "encode_frame",
    "scan_segment",
    "shard_store_path",
]

#: accepted fsync policies, strongest first
FSYNC_POLICIES = ("always", "interval", "never")

#: every WAL segment starts with this 8-byte magic (format version 1)
SEGMENT_MAGIC = b"FWAL0001"

#: frame header: payload length + CRC32 of the payload, big-endian
_FRAME_HEADER = struct.Struct(">II")

#: a declared payload length beyond this is treated as corruption, not
#: as an instruction to allocate gigabytes for a garbage length field
MAX_RECORD_BYTES = 16 * 2**20

#: the checkpoint format written; format 1 (object-form attributes in
#: the body) is still recovered
_CHECKPOINT_FORMAT = "fremont-checkpoint-2"
_CHECKPOINT_FORMATS = frozenset({"fremont-checkpoint-1", _CHECKPOINT_FORMAT})
_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")

#: a file job: ``(work, finish)`` — the blocking file part, which may run
#: on any thread, and ``finish(error)``, run on the owner thread after it
FileJob = Tuple[Callable[[], None], Callable[[Optional[BaseException]], None]]


def shard_store_path(base_dir: str, index: int) -> str:
    """The WAL/checkpoint directory for shard *index* of a fleet
    sharing *base_dir*: each shard owns ``<base_dir>/shard-<K>`` so its
    segments, checkpoints, and recovery are fully independent of its
    siblings (``serve --shard K/N --durable DIR`` uses this)."""
    if index < 0:
        raise ValueError(f"shard index must be >= 0, got {index}")
    return os.path.join(base_dir, f"shard-{index}")


# ----------------------------------------------------------------------
# Atomic file replacement (shared by checkpoints, Journal.save, and the
# Discovery Manager's startup/history file)
# ----------------------------------------------------------------------


def _fsync_directory(directory: str) -> None:
    """Flush a directory entry so a rename survives power loss.  Best
    effort: not every platform/filesystem lets you open a directory."""
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, *parts: bytes, fsync: bool = True) -> None:
    """Write *parts*, one after another, to *path* via temp file +
    ``os.replace`` so readers (and crash recovery) only ever see the old
    content or the new — never a truncated hybrid.  Parts are written
    as they are, never joined into one more copy."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            for part in parts:
                handle.write(part)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    if fsync:
        _fsync_directory(directory)


def atomic_write_json(path: str, document: Any, *, fsync: bool = False) -> None:
    """Atomically write a JSON document in the repo's on-disk style
    (indent=1, sorted keys) — the torn-write-proof replacement for the
    old open/``json.dump`` in ``Journal.save`` and
    ``DiscoveryManager.save_state``."""
    atomic_write_bytes(path, wire.encode_document(document), fsync=fsync)


# ----------------------------------------------------------------------
# WAL framing
# ----------------------------------------------------------------------


def encode_frame(entry: Dict[str, Any]) -> bytes:
    """One length-prefixed, CRC32-framed WAL record."""
    payload = wire.encode_json(entry, sort_keys=True)
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class SegmentScan:
    """What one pass over a WAL segment found."""

    #: decoded entries, in append order, up to the first defect
    entries: List[Dict[str, Any]] = field(default_factory=list)
    #: end offset of each intact frame (``valid_bytes`` is the last)
    end_offsets: List[int] = field(default_factory=list)
    #: byte length of the intact prefix (magic + whole frames)
    valid_bytes: int = len(SEGMENT_MAGIC)
    #: an incomplete final frame was found (crash mid-append)
    torn_tail: bool = False
    #: an interior defect was found (CRC mismatch, garbage length,
    #: unparseable payload, bad magic) — the segment cannot be trusted
    corrupt: bool = False
    #: human-readable description of the defect, if any
    error: Optional[str] = None


def scan_segment(path: str) -> SegmentScan:
    """Decode a WAL segment, stopping at the first torn or corrupt
    frame.  A torn tail (file ends inside a frame) is the expected
    signature of a crash mid-append; anything else wrong is corruption.
    """
    scan = SegmentScan()
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) == 0:
        # A segment created but never written (crash between open and
        # first append): empty, not damaged.
        scan.valid_bytes = 0
        return scan
    if len(data) < len(SEGMENT_MAGIC):
        scan.valid_bytes = 0
        scan.torn_tail = True
        scan.error = "segment shorter than its magic header"
        return scan
    if data[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
        scan.valid_bytes = 0
        scan.corrupt = True
        scan.error = "bad segment magic"
        return scan
    offset = len(SEGMENT_MAGIC)
    while offset < len(data):
        remaining = len(data) - offset
        if remaining < _FRAME_HEADER.size:
            scan.torn_tail = True
            scan.error = "truncated frame header at end of segment"
            break
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            scan.corrupt = True
            scan.error = f"implausible record length {length} at offset {offset}"
            break
        if remaining - _FRAME_HEADER.size < length:
            scan.torn_tail = True
            scan.error = f"truncated record payload at offset {offset}"
            break
        start = offset + _FRAME_HEADER.size
        payload = data[start : start + length]
        if zlib.crc32(payload) != crc:
            scan.corrupt = True
            scan.error = f"CRC mismatch at offset {offset}"
            break
        try:
            entry = wire.decode_json(payload)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            scan.corrupt = True
            scan.error = f"unparseable record at offset {offset}: {error}"
            break
        if not isinstance(entry, dict):
            scan.corrupt = True
            scan.error = f"non-object record at offset {offset}"
            break
        offset = start + length
        scan.entries.append(entry)
        scan.end_offsets.append(offset)
        scan.valid_bytes = offset
    return scan


# ----------------------------------------------------------------------
# Recovery report
# ----------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What :meth:`JournalStore.recover` found and did."""

    #: a checkpoint file existed and passed its CRC
    checkpoint_loaded: bool = False
    #: journal revision recorded in the checkpoint header
    checkpoint_revision: int = 0
    #: WAL entries replayed into the journal
    recovered_records: int = 0
    #: incomplete final records dropped (crash mid-append)
    torn_tail_dropped: int = 0
    #: files renamed to ``*.corrupt`` (segments and/or the checkpoint)
    quarantined: List[str] = field(default_factory=list)
    #: entries skipped because their op is unknown (forward compat)
    skipped_unknown: int = 0
    #: defects encountered, in the order they were found
    errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when recovery found no damage at all."""
        return not self.errors and not self.quarantined


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


class JournalStore:
    """One durability directory: ``checkpoint.json`` plus numbered WAL
    segments (``wal-00000042.log``).

    Usage::

        store = JournalStore("/var/lib/fremont", fsync="interval")
        journal = store.recover()          # snapshot + WAL tail replay
        ...                                 # journal mutations WAL-log
        if store.due():
            store.checkpoint()              # snapshot + rotate + prune
        store.close()                       # final checkpoint

    Thread discipline matches the Journal's: ``recover``, the logging
    hooks (called from inside Journal mutations), the jobs,
    ``checkpoint`` and ``close`` run on the thread that owns the
    Journal.  A job's blocking ``work`` (an fsync, the checkpoint file)
    may run on another thread; the owner starts one job at a time and
    runs its ``finish`` once the work returns.
    """

    CHECKPOINT_NAME = "checkpoint.json"
    EPOCH_NAME = "epoch.json"
    SHARD_NAME = "shard.json"

    def __init__(
        self,
        directory: str,
        *,
        fsync: str = "interval",
        fsync_interval: float = 1.0,
        checkpoint_ops: Optional[int] = 10_000,
        checkpoint_bytes: Optional[int] = 8 * 2**20,
        checkpoint_age: Optional[float] = 300.0,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        if fsync_interval <= 0:
            raise ValueError("fsync_interval must be positive")
        self.directory = directory
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self.checkpoint_ops = checkpoint_ops
        self.checkpoint_bytes = checkpoint_bytes
        self.checkpoint_age = checkpoint_age
        os.makedirs(directory, exist_ok=True)
        self._clean_stale_tmp()
        self.journal = None
        self.last_recovery: Optional[RecoveryReport] = None
        #: sequence number the next WAL append will carry
        self._next_seq = 0
        self._segment_seq = 0
        self._handle = None
        self._last_sync = time.monotonic()
        #: every record before this sequence number is synced
        self._synced_seq = 0
        #: set by the Journal Server while it serves the store: appends
        #: never fsync, and the server runs :meth:`sync_job` off its loop
        self.background_sync = False
        self._ops_since_checkpoint = 0
        self._bytes_since_checkpoint = 0
        self._last_checkpoint_at = time.monotonic()
        #: why an append or an fsync failed, until a checkpoint covers
        #: the Journal's state
        self.fault: Optional[str] = None
        #: telemetry bound at recover() time (the registry belongs to
        #: the recovered Journal); None until then
        self._h_fsync = None
        self._h_checkpoint = None

    # -- paths -----------------------------------------------------------

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.directory, self.CHECKPOINT_NAME)

    @property
    def epoch_path(self) -> str:
        return os.path.join(self.directory, self.EPOCH_NAME)

    # -- fencing epoch ---------------------------------------------------

    def read_epoch(self) -> int:
        """The persisted fencing epoch (0 when never promoted/fenced).

        Stored beside the checkpoint rather than inside it: the epoch
        must survive a SIGKILL that races a checkpoint, and a resurrected
        ex-primary must come back remembering how far the fleet had
        moved when it last looked, so it cannot accept a stale client's
        writes as if nothing happened."""
        try:
            with open(self.epoch_path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            return max(0, int(document["epoch"]))
        except (OSError, ValueError, TypeError, KeyError):
            return 0

    def write_epoch(self, epoch: int) -> None:
        """Durably record the fencing epoch (atomic replace + fsync:
        an epoch acknowledged to the fleet must never roll back)."""
        atomic_write_json(self.epoch_path, {"epoch": int(epoch)}, fsync=True)

    # -- shard identity --------------------------------------------------

    @property
    def shard_path(self) -> str:
        return os.path.join(self.directory, self.SHARD_NAME)

    def read_shard(self) -> Optional[Dict[str, int]]:
        """The shard identity the store's Journal was seated with
        (:meth:`~repro.core.journal.Journal.seat`), or None when it never
        was.  Kept beside the checkpoint, as the epoch is, and read
        before any WAL record replays: the ids those records name were
        issued on the identity's stride."""
        try:
            with open(self.shard_path, "rb") as handle:
                return wire.shard_info_from_dict(wire.decode_json(handle.read()))
        except FileNotFoundError:
            return None

    def write_shard(self, identity: Dict[str, int]) -> None:
        """Durably record the shard identity (atomic replace + fsync: a
        WAL record naming an id issued on its stride may follow at once)."""
        atomic_write_json(self.shard_path, wire.shard_info_to_dict(identity), fsync=True)

    def _segment_path(self, seq: int) -> str:
        return os.path.join(self.directory, f"wal-{seq:08d}.log")

    def _list_segments(self) -> List[Tuple[int, str]]:
        """(seq, path) for every WAL segment present, ascending."""
        found = []
        for name in os.listdir(self.directory):
            match = _SEGMENT_RE.match(name)
            if match:
                found.append((int(match.group(1)), os.path.join(self.directory, name)))
        return sorted(found)

    def _clean_stale_tmp(self) -> None:
        """Remove checkpoint temp files abandoned by a crash mid-write
        (the atomic-replace protocol makes them garbage by definition)."""
        for name in os.listdir(self.directory):
            if ".tmp." in name:
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    pass

    def _quarantine(self, path: str, report: RecoveryReport) -> None:
        """Move a damaged file aside as evidence instead of deleting it."""
        target = path + ".corrupt"
        suffix = 0
        while os.path.exists(target):
            suffix += 1
            target = f"{path}.corrupt.{suffix}"
        try:
            os.replace(path, target)
        except OSError:
            target = path  # could not move; still report it
        report.quarantined.append(target)

    # -- recovery --------------------------------------------------------

    def recover(self, clock=None):
        """Load the latest valid snapshot, replay the WAL tail, attach
        to the recovered Journal, and open a fresh segment for appends.
        Returns the Journal; details land in :attr:`last_recovery`."""
        report = RecoveryReport()
        journal: Optional[Journal] = None
        wal_start = 0
        if os.path.exists(self.checkpoint_path):
            try:
                journal, header = self._load_checkpoint(self.checkpoint_path, clock)
            except ValueError as error:
                report.errors.append(f"checkpoint: {error}")
                self._quarantine(self.checkpoint_path, report)
            else:
                report.checkpoint_loaded = True
                report.checkpoint_revision = int(header.get("revision", 0))
                wal_start = int(header.get("wal_seg", 0))
                self._next_seq = int(header.get("next_seq", 0))
        if journal is None:
            journal = Journal(clock=clock)
        identity = self.read_shard()
        if identity is not None and journal.seat(identity) != identity:
            raise ValueError(
                f"{self.shard_path} names shard {identity['index']}/{identity['shards']}, "
                f"but the checkpoint's Journal is seated as {journal.shard}"
            )
        self._replay_segments(journal, wal_start, report)
        # Continue appending on a segment none of the replayed or
        # quarantined ones (``wal-00000007.log.corrupt``) shares a name with.
        names = [name[:16] for name in os.listdir(self.directory)]
        seqs = [int(match.group(1)) for match in map(_SEGMENT_RE.match, names) if match]
        self._segment_seq = max([wal_start, *seqs]) + 1
        self._open_segment(self._segment_seq)
        self.journal = journal
        journal.durability = self
        journal.count(
            wal_recovered_records=report.recovered_records,
            wal_torn_tails=report.torn_tail_dropped,
        )
        self._h_fsync = journal.telemetry.histogram(
            "fremont_wal_fsync_seconds", "WAL fsync latency"
        )
        self._h_checkpoint = journal.telemetry.histogram(
            "fremont_checkpoint_seconds", "Atomic checkpoint duration"
        )
        self._ops_since_checkpoint = report.recovered_records
        self._bytes_since_checkpoint = 0
        self._last_checkpoint_at = time.monotonic()
        self._synced_seq = self._next_seq
        self.last_recovery = report
        if report.quarantined:
            # What replayed from a quarantined file is in no file now; a
            # snapshot keeps it, and the record ids later records name.
            self.checkpoint()
        return journal

    def _load_checkpoint(self, path: str, clock):
        """Parse and verify one checkpoint file.  Raises ValueError on
        any damage (missing header, CRC mismatch, unknown format)."""
        with open(path, "rb") as handle:
            header_line = handle.readline()
            body = handle.read()
        try:
            header = wire.decode_json(header_line)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"unreadable header: {error}") from None
        if not isinstance(header, dict) or header.get("format") not in _CHECKPOINT_FORMATS:
            raise ValueError(f"unknown checkpoint format: {header!r:.80}")
        if zlib.crc32(body) != int(header.get("crc32", -1)):
            raise ValueError("body CRC mismatch (torn or bit-rotted snapshot)")
        try:
            data = wire.decode_json(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"unparseable body: {error}") from None
        try:
            journal = Journal.from_dict(data, clock=clock)
        except wire.WireError as error:
            raise ValueError(f"invalid journal payload: {error}") from None
        return journal, header

    def _replay_segments(self, journal, wal_start: int, report: RecoveryReport) -> None:
        last_seq = self._next_seq - 1
        poisoned = False
        for seq, path in self._list_segments():
            if seq < wal_start:
                # Superseded by the checkpoint; a crash between the
                # snapshot rename and segment pruning leaves these.
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            if poisoned:
                # Everything after a corrupt segment would replay with
                # a gap in history; quarantine rather than misapply.
                self._quarantine(path, report)
                continue
            scan = scan_segment(path)
            for entry in scan.entries:
                seq_no = entry.get("seq")
                if not isinstance(seq_no, int) or seq_no <= last_seq:
                    # Sequence went backwards (or vanished): the frame
                    # decoded but its content cannot be trusted.
                    scan.corrupt = True
                    scan.error = (
                        f"non-monotonic sequence {seq_no!r} after {last_seq}"
                    )
                    break
                try:
                    self._apply_entry(journal, entry, report)
                except (wire.WireError, TypeError, KeyError, ValueError) as error:
                    # Valid frame, unreplayable write: later records
                    # may name what it would have made, so stop here.
                    scan.corrupt = True
                    scan.error = f"seq {seq_no}: cannot replay {entry.get('op')!r}: {error!r}"
                    break
                last_seq = seq_no
            if scan.corrupt:
                report.errors.append(f"{os.path.basename(path)}: {scan.error}")
                self._quarantine(path, report)
                poisoned = True
                continue
            if scan.torn_tail:
                report.torn_tail_dropped += 1
                report.errors.append(f"{os.path.basename(path)}: {scan.error}")
                # Trim the dangling bytes so the next recovery does not
                # re-count the same torn append.
                try:
                    with open(path, "rb+") as handle:
                        handle.truncate(scan.valid_bytes)
                except OSError:
                    pass
        self._next_seq = last_seq + 1

    def _apply_entry(self, journal, entry: Dict[str, Any], report: RecoveryReport) -> None:
        if "op" not in entry:
            # Logged before writes were requests: an observe entry has its
            # request's fields, a negative one an expiry (a put at 0).
            entry["op"] = entry.pop("kind", None)
            if entry["op"] == "negative":
                entry = {"op": "negative_put", "at": 0.0, "kind": entry["neg"],
                         "key": entry["key"], "ttl": entry["expiry"]}
        call = wire.journal_calls().get(entry["op"])
        if call is None or call.spec.kind != "write":
            # Skipped, not fatal: a newer writer may log ops we predate.
            report.skipped_unknown += 1
            return
        at = entry.pop("at", None)
        entry.pop("seq", None)
        journal.replay(call.spec.methods[0], call.arguments(entry), at)
        # A replayed sighting counts as submitted, so the accounting
        # identity submitted == applied + coalesced survives.
        journal.count(observations_submitted=int(call.op == "observe"))
        report.recovered_records += 1

    # -- appending -------------------------------------------------------

    def _open_segment(self, seq: int) -> None:
        handle = open(self._segment_path(seq), "ab")
        if handle.tell() == 0:
            handle.write(SEGMENT_MAGIC)
            handle.flush()
            if self.fsync == "always" and not self.background_sync:
                os.fsync(handle.fileno())
        self._handle = handle

    def _fsync(self, handle, close: bool = False) -> None:
        """fsync *handle* (unless the policy is ``never``), timing it
        into the telemetry histogram (fsync is the durability layer's
        dominant cost; its latency distribution is the first thing to
        look at when ingest throughput drops); then close it if asked.
        Part of a job's blocking work: touches the file only."""
        if self.fsync != "never":
            started = time.perf_counter()
            os.fsync(handle.fileno())
            if self._h_fsync is not None:
                self._h_fsync.observe(time.perf_counter() - started)
        if close:
            handle.close()

    def _synced(self, seq: int) -> None:
        self._synced_seq = max(self._synced_seq, seq)
        self._last_sync = time.monotonic()

    def _fsync_wal(self) -> None:
        self._fsync(self._handle)
        self._synced(self._next_seq)

    def writable(self) -> None:
        """Refuse a write while a failed append or fsync leaves the
        Journal ahead of the WAL (later records would replay against ids
        an unlogged write took); :meth:`due` holds until a checkpoint
        covers it."""
        if self.fault is not None:
            raise RuntimeError(f"WAL append failed ({self.fault}); writes wait for a checkpoint")

    def _append(self, entry: Dict[str, Any]) -> None:
        if self._handle is None:
            raise RuntimeError("JournalStore is closed (or recover() never ran)")
        entry["seq"] = self._next_seq
        self._next_seq += 1
        frame = encode_frame(entry)
        try:
            self._handle.write(frame)
            # Always push to the OS so a *process* crash loses nothing
            # under every policy; fsync (surviving an OS/power crash) is
            # the policy-controlled part.
            self._handle.flush()
            if self.fsync == "always" and not self.background_sync:
                self._fsync_wal()
        except (OSError, ValueError) as error:  # ValueError: a closed handle
            self.fault = repr(error)
            raise
        if self.fsync == "interval" and not self.background_sync:
            self.sync_if_due()
        self._ops_since_checkpoint += 1
        self._bytes_since_checkpoint += len(frame)
        if self.journal is not None:
            self.journal.count(wal_appends=1, wal_bytes=len(frame))

    def log(self, request: Dict[str, Any], at: float) -> None:
        """WAL one applied write, before it is acknowledged: its op's
        request plus the instant *at* it ran (the Journal calls this)."""
        request["at"] = at
        self._append(request)

    def sync(self) -> None:
        """Force the WAL to disk now (a batch flush is a natural
        durability point regardless of policy — except ``never``, which
        callers chose precisely to skip fsyncs)."""
        if self._handle is not None and self.fsync != "never":
            self._handle.flush()
            self._fsync_wal()

    def sync_job(self) -> FileJob:
        """A served fsync, split for a worker: ``work`` (the blocking
        fsync, touching the file only) syncs every record appended
        before the job was taken; ``finish(error)``, back on the owner
        thread, records the sync, or the fault if *error* is set."""
        target = self._next_seq

        def finish(error: Optional[BaseException]) -> None:
            if error is None:
                self._synced(target)
            else:
                self.fault = f"fsync failed: {error!r}"

        return functools.partial(self._fsync, self._handle), finish

    def sync_target(self) -> Optional[int]:
        """Under ``always``: how far an fsync must reach to cover every
        append so far, or None when every append is synced.  A served
        write's reply waits until :meth:`synced_through` that point."""
        if self.fsync != "always" or self._next_seq <= self._synced_seq:
            return None
        return self._next_seq

    def synced_through(self, target: int) -> bool:
        return self._synced_seq >= target

    def sync_if_due(self) -> None:
        """Interval policy: fsync if records are unsynced and
        ``fsync_interval`` has passed since the last sync.  Same thread
        rule as the logging hooks."""
        if (
            self._next_seq > self._synced_seq
            and self._handle is not None
            and time.monotonic() - self._last_sync >= self.fsync_interval
        ):
            self._fsync_wal()

    def sync_wait(self) -> Optional[float]:
        """How long a watchdog may sleep before :meth:`sync_if_due`
        could owe an fsync: the time left when records wait unsynced,
        else a full ``fsync_interval`` (a record appended meanwhile may
        be due at once).  None unless the policy is ``interval``.
        Lock-free counter reads, like :meth:`due`."""
        if self.fsync != "interval":
            return None
        if self._next_seq <= self._synced_seq:
            return self.fsync_interval
        return max(0.0, self._last_sync + self.fsync_interval - time.monotonic())

    # -- checkpoints -----------------------------------------------------

    def due(self) -> bool:
        """Has any checkpoint threshold tripped?  Cheap counter reads —
        safe to call without the journal lock."""
        if self.fault is not None:
            return True
        if self._ops_since_checkpoint <= 0:
            return False
        if (
            self.checkpoint_ops is not None
            and self._ops_since_checkpoint >= self.checkpoint_ops
        ):
            return True
        if (
            self.checkpoint_bytes is not None
            and self._bytes_since_checkpoint >= self.checkpoint_bytes
        ):
            return True
        if (
            self.checkpoint_age is not None
            and time.monotonic() - self._last_checkpoint_at >= self.checkpoint_age
        ):
            return True
        return False

    def checkpoint(self) -> str:
        """Write an atomic snapshot, rotate the WAL, and prune the
        segments the snapshot supersedes.  Returns the checkpoint path."""
        work, finish = self.checkpoint_job()
        try:
            work()
        except Exception as error:
            finish(error)
            raise
        finish(None)
        return self.checkpoint_path

    def checkpoint_job(self) -> FileJob:
        """:meth:`checkpoint`, split like :meth:`sync_job`.  The snapshot,
        its header and the WAL rotation are taken now, on the owner
        thread.  ``work`` closes the retired segment (after an fsync, if
        it holds unsynced records), writes the checkpoint file and then
        prunes the superseded segments; ``finish(error)`` does the
        owner's bookkeeping."""
        if self.journal is None:
            raise RuntimeError("no journal attached; call recover() first")
        journal = self.journal
        started = time.perf_counter()
        with journal.telemetry.trace("checkpoint", revision=journal.revision):
            # Count the checkpoint before serialising so the snapshot's
            # own counters include it.
            journal.count(wal_checkpoints=1)
            body = wire.encode_json(journal.to_dict(), sort_keys=True)
        retired, retired_seq, covered = self._handle, self._segment_seq, self._next_seq
        header = {
            "format": _CHECKPOINT_FORMAT,
            "crc32": zlib.crc32(body),
            "revision": journal.revision,
            "wal_seg": retired_seq + 1,
            "next_seq": covered,
        }
        ops, size, fault = self._ops_since_checkpoint, self._bytes_since_checkpoint, self.fault
        unsynced = covered > self._synced_seq
        self._segment_seq = retired_seq + 1
        self._open_segment(self._segment_seq)
        fsynced = False  # set once ``work`` has fsynced the retired segment

        def work() -> None:
            nonlocal fsynced
            if unsynced:
                self._fsync(retired)
                fsynced = True
            retired.close()
            self._write_checkpoint(header, body, retired_seq)

        def finish(error: Optional[BaseException]) -> None:
            if fsynced:
                self._synced(covered)
            elif unsynced and error is not None:
                self.fault = f"fsync failed: {error!r}"
            if error is not None:
                return
            self._ops_since_checkpoint -= ops
            self._bytes_since_checkpoint -= size
            self._last_checkpoint_at = time.monotonic()
            if fault is not None:
                # Writes were refused since the snapshot: it covers them all.
                self.fault = None
            if self._h_checkpoint is not None:
                self._h_checkpoint.observe(time.perf_counter() - started)

        return work, finish

    def _write_checkpoint(self, header: Dict[str, Any], body: bytes, retired_seq: int) -> None:
        atomic_write_bytes(
            self.checkpoint_path,
            wire.encode_json(header, sort_keys=True, newline=True),
            body,
            fsync=True,
        )
        for seq, path in self._list_segments():
            if seq <= retired_seq:
                try:
                    os.unlink(path)
                except OSError:
                    pass

    # -- lifecycle -------------------------------------------------------

    def close(self, *, checkpoint: bool = True) -> None:
        """Flush and close the WAL; by default take a final checkpoint
        first ("periodically *and at termination*")."""
        if self._handle is None:
            return
        if checkpoint and self.journal is not None and (
            self._ops_since_checkpoint > 0
            or not os.path.exists(self.checkpoint_path)
        ):
            self.checkpoint()
        self.sync()
        self._handle.close()
        self._handle = None
        if self.journal is not None:
            self.journal.durability = None
            self.journal = None

    def __enter__(self) -> "JournalStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
