"""Durable storage for the Journal: write-ahead log + atomic checkpoints.

The paper's Journal Server "writes to disk periodically and at
termination".  A plain periodic dump has two failure modes a
weeks-long campaign cannot afford: a crash mid-dump tears the file,
and everything observed since the previous dump is simply gone.  This
module closes both holes with the classic WAL-plus-snapshot recipe:

* **Write-ahead log** — every observation and negative-cache put is
  appended to the current WAL segment *as it is applied*, framed as
  ``[length:4][crc32:4][payload]`` with a compact-JSON payload.  The
  fsync policy is configurable: ``always`` (fsync per append — nothing
  acknowledged is ever lost), ``interval`` (fsync once ``fsync_interval``
  has passed since the last sync and something is unsynced — bounded
  loss window), or ``never`` (leave it to the OS — fastest, loses
  whatever the kernel had not written back).  Under ``interval`` an
  unserved store syncs inside the append that finds the interval
  elapsed; a served store hands that duty to the Journal Server's
  watchdog thread (:attr:`JournalStore.background_sync`), which syncs
  a dirty WAL even when no further write arrives — so the append path
  never fsyncs and an idle server still honours the window.

* **Atomic checkpoints** — a full journal snapshot is written to a
  temp file in the same directory, fsynced, and moved into place with
  ``os.replace``; the previous checkpoint stays valid until the atomic
  rename, so no crash at any instant can leave a torn snapshot.  The
  file carries a one-line header (format version, CRC32 of the body,
  journal revision, first WAL segment not covered) ahead of the body.
  After a checkpoint the WAL rotates to a fresh segment and the
  segments the snapshot superseded are deleted.

* **Recovery** — :meth:`JournalStore.recover` loads the newest valid
  checkpoint (a corrupt one is quarantined to ``*.corrupt`` and
  recovery restarts from empty, replaying whatever WAL survives),
  replays the WAL segments after it in order, tolerates a torn final
  record on any segment (the crash interrupted that append; it was
  never acknowledged as synced), quarantines a segment whose *interior*
  fails its CRC — along with every later segment, since replaying past
  a gap would reorder history — and verifies that entry sequence
  numbers increase monotonically across the whole replay.

Durability contract: observations and negative-cache entries are
durable up to the last synced WAL record; derived state (gateways,
subnets, correlation products) is durable up to the last checkpoint and
is re-derived by the Correlator from replayed observations.  WAL
entries carry the timestamp at which they were originally applied, so
replay reproduces the exact record timestamps, not the recovery
clock's.

Checkpoint policy: :meth:`JournalStore.due` trips on any of three
thresholds — WAL appends since the last checkpoint
(``checkpoint_ops``), WAL bytes since (``checkpoint_bytes``), or
wall-clock age of a dirty store (``checkpoint_age``).  The Journal
Server checks it after every write op that runs on its worker pool and
from its watchdog thread, so checkpoints are no longer stop-only and
never run on its event loop.
"""

from __future__ import annotations

import json
import os
import re
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from . import wire

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


def atomic_write_bytes(path: str, data: bytes, *, fsync: bool = True) -> None:
    """Write *data* to *path* via temp file + ``os.replace`` so readers
    (and crash recovery) only ever see the old content or the new —
    never a truncated hybrid."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(data)
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
    text = json.dumps(document, indent=1, sort_keys=True)
    atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


# ----------------------------------------------------------------------
# WAL framing
# ----------------------------------------------------------------------


def encode_frame(entry: Dict[str, Any]) -> bytes:
    """One length-prefixed, CRC32-framed WAL record."""
    payload = json.dumps(entry, separators=(",", ":"), sort_keys=True).encode("utf-8")
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
            entry = json.loads(payload.decode("utf-8"))
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
    #: entries skipped because their kind is unknown (forward compat)
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
    hooks (called from inside Journal mutations), ``checkpoint`` and
    ``close`` assume the caller holds the journal's exclusive lock when
    shared between threads — the Journal Server's write lock provides
    it.  ``due()``, ``sync_wait()`` and ``fsyncs_on_append`` only read
    counters and may be called from anywhere.
    """

    CHECKPOINT_NAME = "checkpoint.json"
    EPOCH_NAME = "epoch.json"

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
        #: interval policy: records were appended since the last sync
        self._unsynced = False
        #: set by the Journal Server while its watchdog thread runs
        #: :meth:`sync_if_due`; the interval fsync then leaves the
        #: append path entirely
        self.background_sync = False
        self._ops_since_checkpoint = 0
        self._bytes_since_checkpoint = 0
        self._last_checkpoint_at = time.monotonic()
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
        from .journal import Journal

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
        self._replay_segments(journal, wal_start, report)
        # Continue appending on a segment none of the replayed ones
        # could be confused with, even if some were quarantined.
        segments = self._list_segments()
        self._segment_seq = (segments[-1][0] + 1) if segments else wal_start + 1
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
        self.last_recovery = report
        return journal

    def _load_checkpoint(self, path: str, clock):
        """Parse and verify one checkpoint file.  Raises ValueError on
        any damage (missing header, CRC mismatch, unknown format)."""
        from .journal import Journal

        with open(path, "rb") as handle:
            header_line = handle.readline()
            body = handle.read()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"unreadable header: {error}") from None
        if not isinstance(header, dict) or header.get("format") not in _CHECKPOINT_FORMATS:
            raise ValueError(f"unknown checkpoint format: {header!r:.80}")
        if zlib.crc32(body) != int(header.get("crc32", -1)):
            raise ValueError("body CRC mismatch (torn or bit-rotted snapshot)")
        try:
            data = json.loads(body.decode("utf-8"))
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
            applied_from_segment = 0
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
                self._apply_entry(journal, entry, report)
                last_seq = seq_no
                applied_from_segment += 1
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
        kind = entry.get("kind")
        if kind == "observe":
            observation = wire.observation_from_dict(entry.get("observation", {}))
            # Replay counts as a submission so the pipeline accounting
            # identity (submitted == applied + coalesced) survives.
            journal.count(observations_submitted=1)
            journal.observe_interface(observation, at=entry.get("at"))
            report.recovered_records += 1
        elif kind == "negative":
            journal._negative[(entry["neg"], entry["key"])] = entry["expiry"]
            report.recovered_records += 1
        else:
            # Unknown kinds are skipped, not fatal: a newer writer may
            # log entry types this reader predates.
            report.skipped_unknown += 1

    # -- appending -------------------------------------------------------

    def _open_segment(self, seq: int) -> None:
        handle = open(self._segment_path(seq), "ab")
        if handle.tell() == 0:
            handle.write(SEGMENT_MAGIC)
            handle.flush()
            if self.fsync == "always":
                os.fsync(handle.fileno())
        self._handle = handle

    def _fsync_wal(self) -> None:
        """fsync the open segment, timing it into the telemetry
        histogram (fsync is the durability layer's dominant cost; its
        latency distribution is the first thing to look at when ingest
        throughput drops)."""
        started = time.perf_counter()
        os.fsync(self._handle.fileno())
        if self._h_fsync is not None:
            self._h_fsync.observe(time.perf_counter() - started)
        self._last_sync = time.monotonic()
        self._unsynced = False

    @property
    def fsyncs_on_append(self) -> bool:
        """Can the next append fsync?  The Journal Server keeps writes
        off its event loop while this holds."""
        return self.fsync == "always" or (
            self.fsync == "interval" and not self.background_sync
        )

    def _append(self, entry: Dict[str, Any]) -> None:
        if self._handle is None:
            raise RuntimeError("JournalStore is closed (or recover() never ran)")
        entry["seq"] = self._next_seq
        self._next_seq += 1
        frame = encode_frame(entry)
        self._handle.write(frame)
        # Always push to the OS so a *process* crash loses nothing under
        # every policy; fsync (surviving an OS/power crash) is the
        # policy-controlled part.
        self._handle.flush()
        if self.fsync == "always":
            self._fsync_wal()
        elif self.fsync == "interval":
            self._unsynced = True
            if not self.background_sync:
                self.sync_if_due()
        self._ops_since_checkpoint += 1
        self._bytes_since_checkpoint += len(frame)
        if self.journal is not None:
            self.journal.count(wal_appends=1, wal_bytes=len(frame))

    def log_observation(self, observation, *, at: float) -> None:
        """WAL one applied observation (called by the Journal's ingest
        hook, inside the mutation — write-ahead of the acknowledgement,
        not of the in-memory apply)."""
        self._append(
            {
                "kind": "observe",
                "at": at,
                "observation": wire.observation_to_dict(observation),
            }
        )

    def log_negative(self, kind: str, key: str, *, expiry: float) -> None:
        """WAL one negative-cache put (absolute expiry, so replay does
        not restart the TTL)."""
        self._append({"kind": "negative", "neg": kind, "key": key, "expiry": expiry})

    def sync(self) -> None:
        """Force the WAL to disk now (a batch flush is a natural
        durability point regardless of policy — except ``never``, which
        callers chose precisely to skip fsyncs)."""
        if self._handle is not None and self.fsync != "never":
            self._handle.flush()
            self._fsync_wal()

    def sync_if_due(self) -> None:
        """Interval policy: fsync if records are unsynced and
        ``fsync_interval`` has passed since the last sync.  Same locking
        rule as the logging hooks."""
        if (
            self._unsynced
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
        if not self._unsynced:
            return self.fsync_interval
        return max(0.0, self._last_sync + self.fsync_interval - time.monotonic())

    # -- checkpoints -----------------------------------------------------

    def due(self) -> bool:
        """Has any checkpoint threshold tripped?  Cheap counter reads —
        safe to call without the journal lock."""
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
        if self.journal is None:
            raise RuntimeError("no journal attached; call recover() first")
        journal = self.journal
        started = time.perf_counter()
        with journal.telemetry.trace("checkpoint", revision=journal.revision):
            # Count the checkpoint before serialising so the snapshot's
            # own counters include it.
            journal.count(wal_checkpoints=1)
            body = json.dumps(
                journal.to_dict(), separators=(",", ":"), sort_keys=True
            ).encode("utf-8")
            next_segment = self._segment_seq + 1
            header = {
                "format": _CHECKPOINT_FORMAT,
                "crc32": zlib.crc32(body),
                "revision": journal.revision,
                "wal_seg": next_segment,
                "next_seq": self._next_seq,
            }
            header_line = json.dumps(header, separators=(",", ":"), sort_keys=True)
            atomic_write_bytes(
                self.checkpoint_path,
                header_line.encode("utf-8") + b"\n" + body,
                fsync=True,
            )
            # The snapshot is durable; rotate, then prune superseded
            # segments.
            retired = self._segment_seq
            self._handle.close()
            self._segment_seq = next_segment
            self._open_segment(next_segment)
            for seq, path in self._list_segments():
                if seq <= retired:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
        self._ops_since_checkpoint = 0
        self._bytes_since_checkpoint = 0
        self._last_checkpoint_at = time.monotonic()
        # The fsynced snapshot covers every record the old segment held.
        self._unsynced = False
        if self._h_checkpoint is not None:
            self._h_checkpoint.observe(time.perf_counter() - started)
        return self.checkpoint_path

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
