#!/usr/bin/env python
"""Quickstart: discover a small network with three Explorer Modules.

Builds a two-subnet network (the kind of setup the paper's introduction
describes — a departmental subnet behind a workstation-gateway), runs a
passive ARP monitor, an active probe sweep, and a traceroute, and
prints what the Journal learned.

Run:  python examples/quickstart.py
"""

from repro.core import Journal, LocalClient
from repro.core.correlate import Correlator
from repro.core.explorers import ArpWatch, EtherHostProbe, TracerouteModule
from repro.core.presentation import render_report
from repro.netsim import Network, Subnet


def build_network() -> tuple:
    """Two /24 subnets joined by a Sun workstation-gateway."""
    net = Network(seed=42, domain="classics.colorado.edu")
    office = Subnet.parse("10.10.1.0/24")
    lab = Subnet.parse("10.10.2.0/24")
    net.add_subnet(office)
    net.add_subnet(lab)
    # The infamous coach's workstation: one station MAC, two interfaces.
    gateway = net.add_gateway("athdept", [(office, 1), (lab, 1)], shared_mac=True)
    for index in range(5):
        net.add_host(office, name=f"office{index}", index=10 + index)
    for index in range(3):
        net.add_host(lab, name=f"ancient-history{index}", index=10 + index)
    monitor = net.add_host(
        office, name="fremont", index=200, register_dns=False, activity_rate=0.0
    )
    net.compute_routes()
    return net, office, lab, gateway, monitor


def main() -> None:
    net, office, lab, gateway, monitor = build_network()

    # The Journal is timestamped by the simulated clock.
    journal = Journal(clock=lambda: net.sim.now)
    client = LocalClient(journal)

    # 1. Passive ARP monitoring while two office machines chat.
    watcher = ArpWatch(monitor, client)
    watcher.start()
    alice = net.node_by_name("office0")
    bob = net.node_by_name("office1")
    alice.send_udp(bob.primary_nic().ip, 9999, payload="hello")
    net.sim.run_for(10.0)
    arp_result = watcher.stop()
    print(f"ARPwatch: {arp_result.summary()}")

    # 2. Active sweep of the office subnet (4 pkts/sec budget).
    probe_result = EtherHostProbe(monitor, client).run(subnet=office)
    print(f"EtherHostProbe: {probe_result.summary()}")

    # 3. Traceroute toward the lab subnet finds the gateway and pins
    #    its attachment via the host-zero trick.
    trace_result = TracerouteModule(monitor, client).run(targets=[lab])
    print(f"Traceroute: {trace_result.summary()}")

    # Cross-correlate and show the picture.
    report = Correlator(journal).correlate()
    print(
        f"\ncorrelation: {report.gateways_inferred} gateway(s) inferred, "
        f"{report.subnet_links_added} subnet link(s) added"
    )
    print("\n--- interfaces discovered " + "-" * 34)
    print(render_report(journal, "interfaces"))
    print("\n--- journal dump " + "-" * 43)
    print(render_report(journal, "dump"))


if __name__ == "__main__":
    main()
