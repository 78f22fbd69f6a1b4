"""Figure 2 — "Discovering Subnets": the topology map.

The paper's figure is the SunNet Manager rendering of the subnet and
gateway relationships Fremont discovered for part of the University of
Colorado network — relationships SunNet Manager alone could not build
("the user must enter and maintain network relationship information
manually; Fremont supports this function automatically").

This benchmark runs the topology-discovery campaign, measures the
discovered graph against the built ground truth (edge precision and
recall over gateway-subnet attachments), and times the exporters.
"""

from __future__ import annotations

import pytest

from repro.core.correlate import Correlator
from repro.core.explorers import DnsExplorer, RipWatch, TracerouteModule
from repro.core.presentation import render_report

from . import paper


def _ground_truth_edges(campus):
    """(gateway name, subnet key) attachments that actually exist."""
    edges = set()
    for gateway in campus.network.gateways:
        for nic in gateway.nics:
            edges.add((gateway.name, str(nic.subnet)))
    return edges


def _discovered_edges(campus, journal):
    """Discovered attachments, mapped back to true gateway names via
    the interface addresses in each gateway record."""
    ip_to_gateway = {}
    for gateway in campus.network.gateways:
        for nic in gateway.nics:
            ip_to_gateway[str(nic.ip)] = gateway.name
    edges = set()
    unattributed = 0
    for record in journal.all_gateways():
        names = {
            ip_to_gateway.get(journal.interfaces[iface_id].ip)
            for iface_id in record.interface_ids
            if iface_id in journal.interfaces
        }
        names.discard(None)
        if len(names) != 1:
            unattributed += 1
            continue
        (name,) = names
        for subnet_key in record.connected_subnets:
            edges.add((name, subnet_key))
    return edges, unattributed


@pytest.fixture
def mapped_campus(campus, campus_journal):
    journal, client = campus_journal
    campus.network.start_rip()
    RipWatch(campus.monitor, client).run(duration=65.0)
    TracerouteModule(campus.monitor, client).run()
    nameserver = campus.network.dns.addresses_for(campus.network.dns.nameserver)[0]
    DnsExplorer(
        campus.monitor, client, nameserver=nameserver, domain="cs.colorado.edu"
    ).run()
    Correlator(journal).correlate()
    return campus, journal


class TestFigure2:
    def test_discovered_map_matches_ground_truth_shape(self, mapped_campus, benchmark):
        campus, journal = mapped_campus
        graph = benchmark.pedantic(
            lambda: journal.topology().graph(), rounds=1, iterations=1
        )

        truth = _ground_truth_edges(campus)
        discovered, unattributed = _discovered_edges(campus, journal)
        correct = discovered & truth
        precision = len(correct) / len(discovered) if discovered else 0.0
        # Recall over the *observable* world: a broken gateway never
        # answers anything, so both its subnets and its own backbone
        # attachment are invisible by construction (the paper's
        # "gateway software problems" row).
        visible_subnets = {str(s) for s in campus.traceroute_visible_subnets()}
        buggy_names = {g.name for g in campus.buggy_gateways}
        visible_truth = {
            (name, subnet)
            for name, subnet in truth
            if subnet in visible_subnets and name not in buggy_names
        }
        recall = len(correct & visible_truth) / len(visible_truth)

        paper.report(
            "Figure 2: discovered subnet/gateway map vs ground truth",
            [
                ("subnets on map", "(campus-wide)", len(graph.subnets)),
                ("gateway records on map", "(merged)", len(graph.gateways)),
                ("attachment edges discovered", len(truth), len(discovered)),
                ("edge precision", "(no false links)", f"{precision:.0%}"),
                ("edge recall (visible world)", "(complete)", f"{recall:.0%}"),
            ],
        )

        assert precision > 0.95, "the map must not invent attachments"
        assert recall > 0.85, "the visible world must be mapped"
        # The map is one connected campus around the backbone.
        components = graph.connected_components()
        assert len(components[0]) >= len(visible_subnets)

    def test_export_formats(self, mapped_campus, benchmark):
        campus, journal = mapped_campus

        def export_both():
            return render_report(journal, "sunnet"), render_report(journal, "dot")

        sunnet_text, dot_text = benchmark(export_both)
        graph = journal.topology().graph()
        # One component record per subnet and gateway, one connection
        # line per edge — the SunNet Manager feed of Figure 2.
        assert sunnet_text.count("component.subnet") == len(graph.subnets)
        assert sunnet_text.count("component.gateway") == len(graph.gateways)
        assert sunnet_text.count("\nconnection") == len(graph.edges())
        assert dot_text.count(" -- ") == len(graph.edges())
