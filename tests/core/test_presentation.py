"""Presentation tests: the report registry, viewers, exporters, and
the one-release deprecation shims."""

import pathlib

import pytest

from repro.core import Journal
from repro.core.correlate import Correlator
from repro.core.presentation import (
    BADGE_LEGEND,
    list_reports,
    render_impact,
    render_path,
    render_report,
)
from repro.core.records import Observation

from .test_topology import _apply_step

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _clock():
    state = {"now": 0.0}
    return (lambda: state["now"]), state


@pytest.fixture
def populated():
    clock, state = _clock()
    journal = Journal(clock=clock)
    state["now"] = 100.0
    journal.observe_interface(
        Observation(
            source="ARPwatch",
            ip="10.0.1.10",
            mac="08:00:20:00:00:11",
            dns_name="alpha.test",
        )
    )
    state["now"] = 200.0
    journal.observe_interface(
        Observation(source="SeqPing", ip="10.0.1.11")
    )
    journal.observe_interface(
        Observation(source="RIPwatch", ip="10.0.1.1", mac="08:00:20:00:00:01",
                    rip_source=True)
    )
    journal.observe_interface(
        Observation(source="ARPwatch", ip="10.0.2.1", mac="08:00:20:00:00:01")
    )
    state["now"] = 300.0
    Correlator(journal).correlate()
    return journal, state


def golden_journal():
    """The fixed journal behind the golden dot/svg files (regenerate
    them with ``python tests/core/make_goldens.py`` after intentional
    renderer changes)."""
    clock, state = _clock()
    journal = Journal(clock=clock)
    state["now"] = 50.0
    journal.observe_interface(
        Observation(source="ARPwatch", ip="10.0.1.5",
                    mac="08:00:20:00:00:05", dns_name="host-a.test")
    )
    state["now"] = 60.0
    journal.observe_interface(
        Observation(source="SeqPing", ip="10.0.3.7", mac="08:00:20:00:00:07")
    )
    state["now"] = 70.0
    a, _ = journal.ensure_gateway(source="RIPwatch", name="gw-a")
    for key in ("10.0.1.0/24", "10.0.2.0/24"):
        journal.link_gateway_subnet(a.record_id, key, source="RIPwatch")
    b, _ = journal.ensure_gateway(source="Traceroute", name="gw-b")
    for key in ("10.0.2.0/24", "10.0.3.0/24"):
        journal.link_gateway_subnet(b.record_id, key, source="Traceroute")
    # One questionable attachment: must render dashed.
    b.connected_subnets["10.0.3.0/24"].quality = "questionable"
    return journal


class TestRegistry:
    def test_catalogue_names_and_params(self):
        reports = {report.name: report for report in list_reports()}
        assert {
            "dump", "interfaces", "subnet", "interface",
            "sunnet", "dot", "svg", "topology", "path", "impact",
        } <= set(reports)
        assert reports["interfaces"].params == ("network",)
        assert reports["path"].params == ("a", "b")
        assert all(report.description for report in reports.values())

    def test_unknown_report_names_choices(self, populated):
        journal, _state = populated
        with pytest.raises(ValueError, match="unknown report 'nope'"):
            render_report(journal, "nope")

    def test_unknown_parameter_rejected(self, populated):
        journal, _state = populated
        with pytest.raises(ValueError, match="parameter"):
            render_report(journal, "dump", bogus=1)


class TestDump:
    def test_dump_lists_everything(self, populated):
        journal, state = populated
        text = render_report(journal, "dump")
        assert "interfaces" in text
        assert "10.0.1.10" in text
        assert "gateway" in text
        assert "subnet" in text


class TestInterfaceBrowser:
    def test_level1_all_interfaces(self, populated):
        journal, state = populated
        text = render_report(journal, "interfaces")
        assert "10.0.1.10" in text
        assert "alpha.test" in text
        assert "ADDRESS" in text

    def test_level1_network_filter(self, populated):
        journal, state = populated
        text = render_report(journal, "interfaces", network="10.0.2.")
        assert "10.0.2.1" in text
        assert "10.0.1.10" not in text

    def test_level1_shows_age_not_dns(self, populated):
        journal, state = populated
        state["now"] = 100.0 + 3 * 86400.0
        text = render_report(journal, "interfaces")
        line = next(l for l in text.splitlines() if "10.0.1.10" in l)
        assert line.split()[-1].endswith("d")  # rendered in days

    def test_level2_subnet_view(self, populated):
        journal, state = populated
        text = render_report(journal, "subnet", subnet="10.0.1.0/24")
        assert "10.0.1.1" in text
        assert "10.0.2.1" not in text
        gateway_line = next(l for l in text.splitlines() if "10.0.1.1 " in l)
        assert "yes" in gateway_line  # RIP source and gateway member

    def test_level2_bad_subnet_raises(self, populated):
        journal, state = populated
        with pytest.raises(ValueError):
            render_report(journal, "subnet", subnet="not-a-subnet")

    def test_level3_detail_shows_attributes_and_provenance(self, populated):
        journal, state = populated
        text = render_report(journal, "interface", ip="10.0.1.10")
        assert "mac" in text
        assert "ARPwatch" in text
        assert "quality=good" in text

    def test_level3_missing_interface(self, populated):
        journal, state = populated
        text = render_report(journal, "interface", ip="10.9.9.9")
        assert "no interface records" in text

    def test_level3_shows_history(self, populated):
        journal, state = populated
        record = journal.interfaces_by_ip("10.0.1.10")[0]
        record.attributes["dns_name"].change("beta.test", 400.0, "DNS")
        text = render_report(journal, "interface", ip="10.0.1.10")
        assert "previously alpha.test" in text


class TestExporters:
    def test_sunnet_export_structure(self, populated):
        journal, state = populated
        text = render_report(journal, "sunnet")
        assert text.startswith("!")
        assert 'component.subnet "10.0.1.0_24"' in text
        assert "component.gateway" in text
        assert 'connection' in text

    def test_dot_export_is_valid_graph(self, populated):
        journal, state = populated
        text = render_report(journal, "dot")
        assert text.startswith("graph fremont {")
        assert text.rstrip().endswith("}")
        assert '"10.0.1.0/24"' in text
        assert "--" in text

    def test_exports_cover_all_topology_edges(self, populated):
        journal, state = populated
        graph = journal.topology().graph()
        text = render_report(journal, "sunnet")
        assert text.count("connection") == len(graph.edges())

    def test_svg_export_is_wellformed(self, populated):
        import xml.etree.ElementTree as ElementTree

        journal, state = populated
        text = render_report(journal, "svg")
        root = ElementTree.fromstring(text)
        assert root.tag.endswith("svg")
        graph = journal.topology().graph()
        assert text.count("<ellipse") == len(graph.subnets)
        assert text.count("<rect") == len(graph.gateways)
        assert text.count("<line") == len(graph.edges())

    def test_svg_export_empty_journal(self):
        text = render_report(Journal(), "svg")
        assert "empty journal" in text


class TestGolden:
    """Byte-stable exports: the dot and svg renderings of a fixed
    journal must match the checked-in golden files exactly."""

    def test_dot_matches_golden(self):
        text = render_report(golden_journal(), "dot")
        assert text == (GOLDEN_DIR / "topology.dot").read_text()

    def test_svg_matches_golden(self):
        text = render_report(golden_journal(), "svg")
        assert text == (GOLDEN_DIR / "topology.svg").read_text()

    def test_renders_are_deterministic_across_runs(self):
        journal = golden_journal()
        for name in ("dot", "svg", "topology"):
            assert render_report(journal, name) == render_report(journal, name)

    def test_questionable_edges_render_dashed(self):
        journal = golden_journal()
        dot = render_report(journal, "dot")
        dashed = [line for line in dot.splitlines() if "style=dashed" in line]
        assert len(dashed) == 1
        assert '"gw:gw-b#2" -- "10.0.3.0/24"' in dashed[0]
        svg = render_report(journal, "svg")
        assert svg.count('class="link lowconf"') == 1


class TestTopologyReports:
    def test_topology_report_badges_and_legend(self):
        text = render_report(golden_journal(), "topology")
        assert "[+ RIPwatch]" in text
        assert "[? Traceroute]" in text
        assert BADGE_LEGEND in text

    def test_path_report(self):
        text = render_report(
            golden_journal(), "path", a="10.0.1.0/24", b="10.0.3.0/24"
        )
        assert "found" in text
        assert "gw-a" in text and "gw-b" in text
        assert "[? Traceroute]" in text

    def test_impact_report(self):
        text = render_report(golden_journal(), "impact", target="gw-b")
        assert "single point of failure" in text
        assert "10.0.3.0/24" in text

    def test_flap_history_reaches_the_report(self):
        """Reports share the Journal's topology store, so a link that
        went away and came back between renders shows its flap."""
        journal = golden_journal()
        first = render_report(journal, "topology")
        _apply_step(journal, ("unlink", "gw-a", "10.0.2.0/24"))
        second = render_report(journal, "topology")
        _apply_step(journal, ("link", "gw-a", ["10.0.2.0/24"], False))
        third = render_report(journal, "topology")
        assert "flaps" not in first and "flaps" not in second
        assert "gw-a --[+ test]-- 10.0.2.0/24  (flaps: 1)" in third

    def test_render_path_not_found(self):
        from repro.core.topology import TopologyPath

        text = render_path(TopologyPath("a", "b", False, reason="why not"))
        assert "why not" in text

    def test_render_impact_not_found(self):
        from repro.core.topology import TopologyImpact

        text = render_impact(TopologyImpact("x", False, reason="unknown node: x"))
        assert "unknown node" in text
