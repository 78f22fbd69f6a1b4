"""The Discovery Manager.

"The purpose of the Discovery Manager is to decide what information
needs to be collected and what Explorer Modules should be invoked to
collect those data. ... As the Discovery Manager runs the various
Explorer Modules, it updates the startup/history file, which is used to
determine what modules to run next.  For example, if the Discovery
Manager sees that 20 of 400 interfaces recorded in the Journal do not
have subnet masks recorded and that this was true before the 'subnet
mask' module was last invoked, then the Discovery Manager will not
shorten the interval until the next invocation of that module."

Scheduling policy: every module has a [min, max] invocation interval
(Table 4).  A *fruitful* run (one that changed the Journal) halves the
current interval toward the minimum; a fruitless one doubles it toward
the maximum — exactly the ensure-effort-is-fruitful behaviour quoted
above.  The startup/history file is a JSON document that survives
restarts.

Fault tolerance: the manager is built to run unattended for weeks, so a
single misbehaving module must never abort a campaign.  Every
``module.run()`` is crash-isolated — an exception becomes a synthetic
fruitless :class:`RunResult` carrying the error, retried with
exponential backoff (capped at the module's ``max_interval``).  After
``quarantine_threshold`` consecutive failures the module is
*quarantined*: it is skipped by the ordinary schedule and only re-probed
once per ``max_interval``; one clean re-probe run rehabilitates it.
Every run (clean or crashed) appends a structured ledger entry —
outcome ∈ {ok, error, timeout, quarantined}, retries, backoff, journal
reconnects — to the module's history in the startup/history file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..netsim.sim import Simulator
from . import wire
from .correlate import Correlator
from .durability import atomic_write_json
from .explorers.base import ExplorerModule, RunResult
from .journal import Journal
from .telemetry import telemetry_of

__all__ = ["DiscoveryManager", "ModuleEntry", "DEFAULT_INTERVALS"]

_HOUR = 3600.0
_DAY = 24 * _HOUR
_WEEK = 7 * _DAY

#: Table 4 "Min/Max Interval" per module name
DEFAULT_INTERVALS: Dict[str, Tuple[float, float]] = {
    "ARPwatch": (2 * _HOUR, _WEEK),
    "EtherHostProbe": (_DAY, _WEEK),
    "SeqPing": (2 * _DAY, 2 * _WEEK),
    "BrdcastPing": (_WEEK, 4 * _WEEK),
    "SubnetMasks": (_DAY, _WEEK),
    "Traceroute": (2 * _DAY, 2 * _WEEK),
    "RIPwatch": (2 * _HOUR, _WEEK),
    "DNS": (2 * _DAY, 2 * _WEEK),
    "RIPquery": (2 * _DAY, 2 * _WEEK),
    "AgentPoll": (_DAY, 2 * _WEEK),
}

#: default run-history retention per module (override per manager with
#: ``history_keep``); the cap is enforced on every append *and* on
#: restore, so a ledger bloated by an older build shrinks on load
HISTORY_KEEP = 20


@dataclass
class ModuleEntry:
    """One scheduled Explorer Module."""

    key: str
    module: ExplorerModule
    min_interval: float
    max_interval: float
    current_interval: float
    directive: Dict[str, Any] = field(default_factory=dict)
    last_run_at: Optional[float] = None
    next_due: float = 0.0
    history: List[Dict[str, Any]] = field(default_factory=list)
    #: run-ledger entries retained (last N)
    history_keep: int = HISTORY_KEEP
    #: crashes since the last clean run
    consecutive_failures: int = 0
    #: True once the failure threshold tripped; cleared by a clean run
    quarantined: bool = False
    #: backoff imposed after the most recent failure (0.0 when healthy)
    retry_backoff: float = 0.0

    def record_run(self, result: RunResult, *, reconnects: int = 0) -> None:
        self.history.append(
            wire.run_ledger_to_dict(
                result,
                retries=self.consecutive_failures,
                backoff=self.retry_backoff,
                reconnects=reconnects,
            )
        )
        del self.history[: -self.history_keep]


class DiscoveryManager:
    """Adaptive scheduler over a set of registered Explorer Modules."""

    #: consecutive crashes before a module is quarantined
    DEFAULT_QUARANTINE_THRESHOLD = 3
    #: first-retry delay after a crash; doubles per consecutive failure
    DEFAULT_RETRY_BASE = 60.0

    def __init__(
        self,
        sim: Simulator,
        journal,
        *,
        state_path: Optional[str] = None,
        correlate_after_each: bool = True,
        quarantine_threshold: Optional[int] = None,
        retry_base: Optional[float] = None,
        history_keep: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.journal = journal
        self.state_path = state_path
        self.correlate_after_each = correlate_after_each
        self.history_keep = (
            history_keep if history_keep is not None else HISTORY_KEEP
        )
        if self.history_keep < 1:
            raise ValueError("history_keep must be at least 1")
        self.quarantine_threshold = (
            quarantine_threshold
            if quarantine_threshold is not None
            else self.DEFAULT_QUARANTINE_THRESHOLD
        )
        if self.quarantine_threshold < 1:
            raise ValueError("quarantine_threshold must be at least 1")
        self.retry_base = (
            retry_base if retry_base is not None else self.DEFAULT_RETRY_BASE
        )
        if self.retry_base <= 0:
            raise ValueError("retry_base must be positive")
        self.entries: Dict[str, ModuleEntry] = {}
        self.runs_completed = 0
        #: crashed runs absorbed by the isolation layer
        self.failures_isolated = 0
        #: record campaign telemetry into the journal's registry (a
        #: remote client grows its own; see telemetry_of)
        self.telemetry = telemetry_of(journal)
        self._h_module_run = self.telemetry.histogram(
            "fremont_module_run_seconds",
            "Wall-clock duration of one Explorer Module run",
            labels=("module",),
        )
        self._c_module_runs = self.telemetry.counter(
            "fremont_module_runs_total",
            "Explorer Module runs by outcome (ok/error/timeout/quarantined)",
            labels=("module", "outcome"),
        )
        self._g_backoff = self.telemetry.gauge(
            "fremont_module_backoff_seconds",
            "Current retry backoff imposed on a module (0 when healthy)",
            labels=("module",),
        )
        self.telemetry.gauge(
            "fremont_modules_quarantined",
            "Modules currently quarantined by the fault-isolation layer",
            callback=lambda: sum(
                1 for e in self.entries.values() if e.quarantined
            ),
        )
        self._correlator: Optional[Correlator] = None
        #: the in-process Journal behind *journal* — itself, a local
        #: client's, or either behind a batching sink — or None when the
        #: Journal is remote: only an in-process one is correlated and
        #: checkpointed here
        target = getattr(journal, "target", journal)
        local = getattr(target, "journal", target)
        self._local_journal = local if isinstance(local, Journal) else None
        #: Journal revision covered by the most recent correlation pass
        self.last_correlated_revision = 0
        #: what that pass concluded (None until the first one runs)
        self.last_correlation_report = None
        if state_path is not None and os.path.exists(state_path):
            self._load_state()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        module: ExplorerModule,
        *,
        key: Optional[str] = None,
        min_interval: Optional[float] = None,
        max_interval: Optional[float] = None,
        directive: Optional[Dict[str, Any]] = None,
        first_due: Optional[float] = None,
    ) -> ModuleEntry:
        """Add a module to the schedule.  Intervals default to Table 4's
        values for the module's name."""
        key = key or module.name
        if key in self.entries:
            raise ValueError(f"module {key!r} already registered")
        defaults = DEFAULT_INTERVALS.get(module.name, (_DAY, _WEEK))
        minimum = min_interval if min_interval is not None else defaults[0]
        maximum = max_interval if max_interval is not None else defaults[1]
        if minimum > maximum:
            raise ValueError(f"min interval exceeds max for {key!r}")
        entry = ModuleEntry(
            key=key,
            module=module,
            min_interval=minimum,
            max_interval=maximum,
            current_interval=minimum,
            directive=dict(directive or {}),
            next_due=self.sim.now if first_due is None else first_due,
            history_keep=self.history_keep,
        )
        # Restore persisted schedule state if the history file had it.
        persisted = getattr(self, "_persisted", {}).get(key)
        if persisted:
            entry.current_interval = min(
                maximum, max(minimum, persisted.get("current_interval", minimum))
            )
            # Cap on restore too: the ledger must not grow without bound
            # across fremont-manager-2 round-trips (and a smaller
            # history_keep takes effect immediately on old files).
            entry.history = persisted.get("history", [])[-entry.history_keep :]
            entry.last_run_at = persisted.get("last_run_at")
            # The persisted due time keeps the fleet staggered across a
            # restart (without it every module fires at once at sim.now).
            # Clamp against the current clock: an overdue module runs
            # now, and a due time corrupted far into the future cannot
            # stall the module past one max_interval.
            persisted_due = persisted.get("next_due")
            if persisted_due is not None:
                entry.next_due = min(
                    max(float(persisted_due), self.sim.now),
                    self.sim.now + maximum,
                )
            entry.consecutive_failures = int(
                persisted.get("consecutive_failures", 0)
            )
            entry.quarantined = bool(persisted.get("quarantined", False))
            entry.retry_backoff = float(persisted.get("retry_backoff", 0.0))
        self.entries[key] = entry
        return entry

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def next_entry(self) -> Optional[ModuleEntry]:
        """The registered module that is due soonest.

        Quarantined modules are skipped until their ``max_interval``
        re-probe time arrives — they only surface when no healthy module
        is due sooner, so a broken module cannot crowd out the fleet.
        """
        if not self.entries:
            return None
        healthy = [e for e in self.entries.values() if not e.quarantined]
        quarantined = [e for e in self.entries.values() if e.quarantined]

        def order(e: ModuleEntry) -> Tuple[float, str]:
            return (e.next_due, e.key)

        best_healthy = min(healthy, key=order) if healthy else None
        best_quarantined = min(quarantined, key=order) if quarantined else None
        if best_healthy is None:
            return best_quarantined
        if best_quarantined is None:
            return best_healthy
        # Ties go to the healthy module: quarantine means "step aside".
        if best_quarantined.next_due < best_healthy.next_due:
            return best_quarantined
        return best_healthy

    def run_next(self) -> Tuple[str, RunResult]:
        """Advance the simulation to the next due module and run it.

        The run is crash-isolated: an exception from the module is
        captured as a synthetic fruitless result and scheduled for retry
        rather than aborting the campaign.
        """
        entry = self.next_entry()
        if entry is None:
            raise RuntimeError("no modules registered")
        if entry.next_due > self.sim.now:
            self.sim.run_until(entry.next_due)
        # Directive values may be callables evaluated at invocation time
        # ("the Discovery Manager interrogates the Journal ... to direct
        # further discovery") — e.g. traceroute targets computed from
        # the subnets RIPwatch has recorded by now.  A directive factory
        # is part of the run, so it crash-isolates with it.
        reconnects_before = self._client_reconnects()
        with self._h_module_run.labels(module=entry.key).time():
            with self.telemetry.trace("module_run", module=entry.key) as span:
                try:
                    directive = {
                        key: (value() if callable(value) else value)
                        for key, value in entry.directive.items()
                    }
                    result = entry.module.run(**directive)
                except Exception as error:
                    result = RunResult.failure(
                        entry.key,
                        self.sim.now,
                        error,
                        outcome="timeout"
                        if isinstance(error, TimeoutError)
                        else "error",
                    )
                    self._on_failure(entry, result)
                else:
                    self._on_success(entry, result)
                span.set_tag("outcome", result.outcome)
                span.set_tag("fruitful", result.fruitful)
        self._c_module_runs.labels(module=entry.key, outcome=result.outcome).inc()
        self._g_backoff.labels(module=entry.key).set(entry.retry_backoff)
        entry.last_run_at = result.started_at
        entry.record_run(
            result, reconnects=self._client_reconnects() - reconnects_before
        )
        self.runs_completed += 1
        if self.correlate_after_each:
            self._correlate()
        if self.state_path is not None:
            self.save_state()
        self._checkpoint_if_due()
        return entry.key, result

    def run_until(self, until: float) -> List[Tuple[str, RunResult]]:
        """Run every module invocation due before *until* (sim time)."""
        completed: List[Tuple[str, RunResult]] = []
        with self.telemetry.trace("campaign", until=until) as span:
            while True:
                entry = self.next_entry()
                if entry is None or entry.next_due > until:
                    break
                completed.append(self.run_next())
            span.set_tag("runs", len(completed))
        if until > self.sim.now:
            self.sim.run_until(until)
        return completed

    def _adapt(self, entry: ModuleEntry, result: RunResult) -> None:
        """Fruitful runs shorten the interval; fruitless ones lengthen it
        — "this ensures that the resulting exploration effort is as
        fruitful as possible"."""
        if result.fruitful:
            entry.current_interval = max(
                entry.min_interval, entry.current_interval / 2.0
            )
        else:
            entry.current_interval = min(
                entry.max_interval, entry.current_interval * 2.0
            )
        entry.next_due = self.sim.now + entry.current_interval

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------

    def _client_reconnects(self) -> int:
        """How many times the journal client has reconnected so far
        (0 for clients without a reconnect layer, e.g. LocalClient)."""
        return int(getattr(self.journal, "reconnects", 0))

    def _on_success(self, entry: ModuleEntry, result: RunResult) -> None:
        """A run that returned normally: rehabilitate and adapt."""
        if entry.quarantined:
            result.notes.append(
                f"rehabilitated after {entry.consecutive_failures} "
                f"consecutive failure(s)"
            )
        entry.quarantined = False
        entry.consecutive_failures = 0
        entry.retry_backoff = 0.0
        self._adapt(entry, result)

    def _on_failure(self, entry: ModuleEntry, result: RunResult) -> None:
        """A crashed run: back off exponentially, quarantine past the
        threshold.  The campaign itself keeps running either way."""
        self.failures_isolated += 1
        entry.consecutive_failures += 1
        if entry.consecutive_failures >= self.quarantine_threshold:
            # Quarantined: step out of the ordinary schedule, re-probe
            # once per max_interval in case the module recovered.
            entry.quarantined = True
            result.outcome = "quarantined"
            backoff = entry.max_interval
        else:
            backoff = min(
                entry.max_interval,
                self.retry_base * 2.0 ** (entry.consecutive_failures - 1),
            )
        entry.retry_backoff = backoff
        entry.next_due = self.sim.now + backoff

    def _correlate(self) -> None:
        journal = self._local_journal
        if journal is None:
            # Remote deployment: correlation runs against snapshots (or
            # at the Journal Server's site), not through the wire client.
            return
        if self._correlator is None:
            self._correlator = Correlator(journal)
        # The run's writes reach the feed's subscribers first.  The
        # persistent Correlator carries the last-correlated revision, so
        # after its first full scan every per-run correlation consumes
        # only the delta the module run just produced.
        journal.publish()
        self.last_correlation_report = self._correlator.correlate()
        self.last_correlated_revision = self._correlator.last_revision

    def _checkpoint_if_due(self) -> None:
        """Module-run boundary = checkpoint opportunity for an embedded
        (in-process) durable Journal; remote journals checkpoint at the
        server.  The correlation products this run derived land in the
        snapshot instead of waiting for the next server-side threshold."""
        store = getattr(self._local_journal, "durability", None)
        if store is not None and store.due():
            store.checkpoint()

    # ------------------------------------------------------------------
    # Startup/history file
    # ------------------------------------------------------------------

    def save_state(self) -> None:
        """Write the startup/history file (JSON)."""
        if self.state_path is None:
            raise ValueError("no state_path configured")
        state = {
            "format": "fremont-manager-2",
            "modules": {
                key: {
                    "min_interval": entry.min_interval,
                    "max_interval": entry.max_interval,
                    "current_interval": entry.current_interval,
                    "last_run_at": entry.last_run_at,
                    "next_due": entry.next_due,
                    "history": entry.history,
                    "consecutive_failures": entry.consecutive_failures,
                    "quarantined": entry.quarantined,
                    "retry_backoff": entry.retry_backoff,
                }
                for key, entry in self.entries.items()
            },
        }
        # Atomic: a crash mid-save must leave the previous history file
        # readable, or the next startup loses the whole schedule.
        atomic_write_json(self.state_path, state)

    def _load_state(self) -> None:
        with open(self.state_path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
        # -2 added the fault-tolerance ledger; -1 files (no quarantine
        # fields) still restore, with healthy defaults.
        if state.get("format") not in ("fremont-manager-1", "fremont-manager-2"):
            raise ValueError(f"unknown manager state format in {self.state_path}")
        self._persisted: Dict[str, Dict[str, Any]] = state.get("modules", {})
