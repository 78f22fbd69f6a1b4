#!/usr/bin/env python
"""Distributed deployment: Explorer Modules feeding a socket Journal
Server, exactly as Figure 1 draws it.

"Because all modules communicate via BSD sockets, there are no
restrictions about the physical location of individual modules."  This
demo starts a real TCP Journal Server, connects two RemoteClient
clients (one per monitoring vantage point), runs modules through them,
and finally interrogates the server from a third client — the inquiry
agent — to print the network picture and persist it to disk.

Run:  python examples/journal_server_demo.py
"""

import os
import tempfile

from repro.core import Journal, JournalServer, RemoteClient
from repro.core.analysis import run_all_analyses
from repro.core.correlate import Correlator
from repro.core.explorers import EtherHostProbe, RipWatch, TracerouteModule
from repro.core.presentation import render_report
from repro.netsim import build_campus


def main() -> None:
    campus = build_campus()
    campus.network.start_rip()
    campus.set_cs_uptime(0.9)

    # The Journal Server timestamps with the simulated clock and
    # persists on shutdown, as the paper's server does.
    journal = Journal(clock=lambda: campus.sim.now)
    server = JournalServer(journal)
    persist_path = os.path.join(tempfile.gettempdir(), "fremont-journal.json")
    server.persist_path = persist_path
    server.start()
    host, port = server.address
    print(f"journal server listening on {host}:{port}")

    # Vantage point 1: the backbone monitor watches RIP and traces.
    with RemoteClient(host, port) as backbone_client:
        rip = RipWatch(campus.monitor, backbone_client).run(duration=65.0)
        print(f"backbone vantage: {rip.summary()}")
        trace = TracerouteModule(campus.monitor, backbone_client).run()
        print(f"backbone vantage: {trace.summary()}")

    # Vantage point 2: the CS-subnet monitor probes its own wire.
    with RemoteClient(host, port) as cs_client:
        probe = EtherHostProbe(campus.cs_monitor, cs_client).run()
        print(f"CS vantage: {probe.summary()}")

    # The inquiry agent: snapshot, correlate, analyse, report.
    with RemoteClient(host, port) as inquiry:
        counts = inquiry.counts()
        print(f"\nserver now holds: {counts}")
        snapshot = inquiry.snapshot()

    Correlator(snapshot).correlate()
    findings = run_all_analyses(snapshot, stale_horizon=0.0)
    print(f"analysis findings: { {k: len(v) for k, v in findings.items()} }")
    print("\nfirst lines of the interface report:")
    for line in render_report(snapshot, "interfaces").splitlines()[:12]:
        print(f"  {line}")

    server.stop()
    print(f"\nserver stopped; journal persisted to {persist_path}")
    reloaded = Journal.load(persist_path)
    print(f"reloaded from disk: {reloaded.counts()}")


if __name__ == "__main__":
    main()
