"""Explorer Module framework.

"The Fremont system is based on an extensible suite of Explorer
Modules, each of which uses a commonly available, existing network
protocol or information source to uncover network information."

Every module runs *on* a node in the simulated network (it can only see
what that vantage point can see), reports findings to a journal client,
and returns a :class:`RunResult` with the accounting the Discovery
Manager and the Table 4/5/6 benchmarks need: packets sent, sim-time to
complete, observations, and whether anything new was learned.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ...netsim.nic import Nic
from ...netsim.node import Node
from ...netsim.segment import TapHandle
from ...netsim.sim import Simulator
from ..records import InterfaceRecord, Observation
from ..sink import BatchingSink

__all__ = ["ExplorerModule", "PassiveExplorerModule", "RunResult", "RUN_OUTCOMES"]


#: run-ledger outcome classifications (see the Discovery Manager's
#: fault-tolerance layer): "ok" is a run that returned normally,
#: "error"/"timeout" are isolated crashes, "quarantined" marks the run
#: whose failure tripped the quarantine threshold.
RUN_OUTCOMES = ("ok", "error", "timeout", "quarantined")


@dataclass
class RunResult:
    """Outcome of one Explorer Module invocation."""

    module: str
    started_at: float
    finished_at: float = 0.0
    packets_sent: int = 0
    replies_received: int = 0
    observations: int = 0
    changes: int = 0
    #: module-specific result counters (e.g. {"interfaces": 48})
    discovered: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: ledger outcome — one of :data:`RUN_OUTCOMES`
    outcome: str = "ok"
    #: ``"ExcType: message"`` when the run crashed, else None
    error: Optional[str] = None

    @classmethod
    def failure(
        cls, module: str, at: float, error: BaseException, *, outcome: str = "error"
    ) -> "RunResult":
        """A synthetic fruitless result standing in for a crashed run."""
        message = f"{type(error).__name__}: {error}"
        return cls(
            module=module,
            started_at=at,
            finished_at=at,
            outcome=outcome,
            error=message,
            notes=[message],
        )

    @property
    def duration(self) -> float:
        """Simulated seconds from start to completion."""
        return self.finished_at - self.started_at

    @property
    def fruitful(self) -> bool:
        """Did this run change the Journal?  Drives adaptive scheduling."""
        return self.changes > 0

    def packets_per_second(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.packets_sent / self.duration

    def summary(self) -> str:
        parts = [
            f"{self.module}: {self.duration:.1f}s",
            f"{self.packets_sent} pkts",
            f"{self.observations} obs ({self.changes} new)",
        ]
        parts.extend(f"{key}={value}" for key, value in sorted(self.discovered.items()))
        return ", ".join(parts)


class ExplorerModule(abc.ABC):
    """Base class for all Explorer Modules.

    Subclasses define the Table 3 metadata (``name``, ``source``,
    ``inputs``, ``outputs``) and implement :meth:`run`.
    """

    #: module name as it appears in the paper's tables
    name: str = "explorer"
    #: information source (ARP / ICMP / RIP / DNS / SNMP-like)
    source: str = ""
    #: Table 3 "Inputs" column
    inputs: str = ""
    #: Table 3 "Outputs" column
    outputs: str = ""
    #: does the module generate network traffic?
    active: bool = True
    #: does the module require system privileges (NIT tap)?
    requires_privilege: bool = False

    def __init__(self, node: Node, journal) -> None:
        self.node = node
        # *journal* is any ObservationSink: a Journal, a Local/Remote
        # client, or a BatchingSink wrapping one.  Observations go
        # through the sink; queries and gateway/subnet maintenance go to
        # the underlying client (``self.journal``), which is the sink's
        # target when the sink buffers.
        self.sink = journal
        self.journal = journal.target if isinstance(journal, BatchingSink) else journal
        self.last_result: Optional[RunResult] = None

    @property
    def sim(self) -> Simulator:
        return self.node.sim

    # ------------------------------------------------------------------
    # Journal reporting with accounting
    # ------------------------------------------------------------------

    def _begin(self) -> RunResult:
        return RunResult(module=self.name, started_at=self.sim.now)

    def _finish(self, result: RunResult) -> RunResult:
        take = getattr(self.sink, "take_changes", None)
        if take is not None:
            # Buffering sink: drain it so the run's sightings land
            # before the Discovery Manager correlates, and claim the
            # changes its flushes produced on this run's behalf.
            self.sink.flush()
            result.changes += take()
        result.finished_at = self.sim.now
        self.last_result = result
        return result

    def report(self, result: RunResult, observation: Observation) -> Optional[InterfaceRecord]:
        """Send one interface observation through the sink.  A buffering
        sink settles the outcome at flush time and returns None here;
        :meth:`_finish` folds those deferred changes into the result."""
        outcome = self.sink.submit(observation)
        result.observations += 1
        if outcome is None:
            return None
        record, changed = outcome
        if changed:
            result.changes += 1
        return record

    def report_resolved(self, result: RunResult, observation: Observation) -> InterfaceRecord:
        """Like :meth:`report`, but synchronous even through a buffering
        sink (queued observations flush first, preserving order) — for
        explorers that need the merged record's id."""
        record, changed = self.sink.resolve(observation)
        result.observations += 1
        if changed:
            result.changes += 1
        return record

    # ------------------------------------------------------------------
    # Simulation driving helpers
    # ------------------------------------------------------------------

    def wait_until(self, predicate, timeout: float) -> bool:
        """Drive the simulator until *predicate* is true or *timeout*
        simulated seconds elapse.  Returns the final predicate value.

        A sentinel event bounds the wait, so a sparse event heap (e.g. a
        RIP timer 30 s away) cannot overshoot the deadline.  The sentinel
        is cancelled when the predicate turns true early — otherwise a
        long campaign leaks one inert heap entry per early exit.
        """
        deadline = self.sim.now + timeout
        sentinel = self.sim.schedule(timeout, lambda: None)
        while not predicate() and self.sim.now < deadline:
            if not self.sim.step():
                break
        sentinel.cancel()
        return bool(predicate())

    @abc.abstractmethod
    def run(self, **directive: Any) -> RunResult:
        """Perform one exploration, driving the simulator as needed."""


class PassiveExplorerModule(ExplorerModule):
    """Modules that quietly observe one segment through a NIT tap
    (ARPwatch, RIPwatch, GDPwatch, TrafficWatch).

    They are started, left running while the simulation advances, and
    stopped; :meth:`run` provides the convenience "watch for N seconds"
    form the Discovery Manager uses.  A subclass decodes what the tap
    sees in ``_on_frame`` and reports its findings in ``_report``.
    """

    active = False
    requires_privilege = True  # NIT taps need system privileges

    def __init__(self, node: Node, journal, *, nic: Optional[Nic] = None) -> None:
        super().__init__(node, journal)
        self.nic = nic or node.primary_nic()
        self._tap: Optional[TapHandle] = None
        #: the watch in progress (None while stopped)
        self._result: Optional[RunResult] = None

    def start(self) -> None:
        """Open the tap and begin observing."""
        if self._tap is not None:
            raise RuntimeError(f"{self.name} already running")
        self._result = self._begin()
        self._reset()
        self._tap = self.nic.open_tap(self._on_frame)

    def stop(self) -> RunResult:
        """Close the tap and flush findings to the Journal."""
        if self._tap is None or self._result is None:
            raise RuntimeError(f"{self.name} not running")
        self._tap.close()
        self._tap = None
        result, self._result = self._result, None
        self._report(result)
        return self._finish(result)

    @abc.abstractmethod
    def _reset(self) -> None:
        """Forget the previous watch's findings."""

    @abc.abstractmethod
    def _report(self, result: RunResult) -> None:
        """Report the watch's findings to the Journal and into *result*."""

    def run(self, *, duration: float = 1800.0, **directive: Any) -> RunResult:
        """Watch the attached segment for *duration* simulated seconds."""
        self.start()
        self.sim.run_for(duration)
        return self.stop()
