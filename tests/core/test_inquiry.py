"""Inquiry agent tests: the paper's opening scenario, answerable."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Journal
from repro.core.correlate import Correlator
from repro.core.inquiry import NetworkPicture
from repro.core.records import Observation

from .test_topology import _record_graph


def _clock():
    state = {"now": 0.0}
    return (lambda: state["now"]), state


@pytest.fixture
def picture():
    """A discovered two-hop campus fragment:

    classics-subnet --[ath-gw]-- backbone --[core-gw]-- office-subnet
    """
    clock, state = _clock()
    journal = Journal(clock=clock)
    state["now"] = 100.0

    def observe(**kwargs):
        source = kwargs.pop("source", "probe")
        record, _ = journal.observe_interface(Observation(source=source, **kwargs))
        return record

    # The Athletics workstation-gateway: one MAC, two interfaces.
    ath_backbone = observe(ip="10.50.0.7", mac="08:00:20:00:00:07",
                           subnet_mask="255.255.255.0")
    ath_classics = observe(ip="10.50.1.1", mac="08:00:20:00:00:07",
                           subnet_mask="255.255.255.0")
    core_backbone = observe(ip="10.50.0.1", mac="00:00:0c:00:00:01",
                            subnet_mask="255.255.255.0")
    core_office = observe(ip="10.50.2.1", mac="00:00:0c:00:00:02",
                          subnet_mask="255.255.255.0")
    server = observe(ip="10.50.1.10", dns_name="ancient-history.classics.edu",
                     subnet_mask="255.255.255.0")
    office_host = observe(ip="10.50.2.10", dns_name="boss.office.edu",
                          subnet_mask="255.255.255.0")
    ath, _ = journal.ensure_gateway(
        source="probe", name="athletics-ws",
        interface_ids=[ath_backbone.record_id, ath_classics.record_id],
    )
    core, _ = journal.ensure_gateway(
        source="probe", name="core-gw",
        interface_ids=[core_backbone.record_id, core_office.record_id],
    )
    Correlator(journal).correlate()
    state["now"] = 200.0
    return NetworkPicture(journal), journal, state, ath


class TestWhereIs:
    def test_by_name(self, picture):
        net_picture, journal, state, ath = picture
        records = net_picture.where_is("ancient-history.classics.edu")
        assert len(records) == 1
        assert records[0].ip == "10.50.1.10"

    def test_by_address(self, picture):
        net_picture, journal, state, ath = picture
        records = net_picture.where_is("10.50.2.10")
        assert records[0].dns_name == "boss.office.edu"

    def test_unknown(self, picture):
        net_picture, journal, state, ath = picture
        assert net_picture.where_is("nobody.nowhere.edu") == []

    def test_subnet_of(self, picture):
        net_picture, journal, state, ath = picture
        assert str(net_picture.subnet_of("10.50.1.10")) == "10.50.1.0/24"
        assert str(net_picture.subnet_of("ancient-history.classics.edu")) == (
            "10.50.1.0/24"
        )

    def test_last_seen(self, picture):
        net_picture, journal, state, ath = picture
        assert net_picture.last_seen("10.50.1.10") == pytest.approx(100.0)


class TestRouteBetween:
    def test_designed_route_found(self, picture):
        net_picture, journal, state, ath = picture
        route = net_picture.route_between("10.50.2.0/24", "10.50.1.0/24")
        assert route.reachable
        names = [hop.gateway_name for hop in route.hops]
        assert names == ["core-gw", "athletics-ws"]
        assert route.hops[0].from_subnet == "10.50.2.0/24"
        assert route.hops[-1].to_subnet == "10.50.1.0/24"

    def test_unreachable_pair(self, picture):
        net_picture, journal, state, ath = picture
        journal.ensure_subnet("10.99.0.0/24", source="RIPwatch")
        route = net_picture.route_between("10.50.2.0/24", "10.99.0.0/24")
        assert not route.reachable
        assert "no discovered route" in route.describe()

    def test_silent_gateway_is_the_suspect(self, picture):
        """The paper's scenario: the coach unplugged the workstation."""
        net_picture, journal, state, ath = picture
        # Time passes; only the core gateway is re-verified.
        state["now"] = 5000.0
        for interface_id in journal.gateways[
            next(g.record_id for g in journal.all_gateways() if g.name == "core-gw")
        ].interface_ids:
            record = journal.interfaces[interface_id]
            journal.observe_interface(
                Observation(source="SeqPing", ip=record.ip)
            )
        state["now"] = 5100.0
        route = net_picture.route_between("10.50.2.0/24", "10.50.1.0/24")
        suspects = route.suspects(silent_threshold=600.0)
        assert [hop.gateway_name for hop in suspects] == ["athletics-ws"]
        assert "SILENT" in route.describe()

    def test_describe_lists_every_hop(self, picture):
        net_picture, journal, state, ath = picture
        route = net_picture.route_between("10.50.2.0/24", "10.50.1.0/24")
        text = route.describe()
        assert "core-gw" in text
        assert "athletics-ws" in text


def _bfs_hops(journal, source, destination):
    """Gateways crossed on a fewest-hop route, or None when there is
    none: the BFS ``route_between`` ran before it read the topology
    store, kept as the reference."""
    graph = _record_graph(journal)
    if source not in graph.subnets or destination not in graph.subnets:
        return None
    hops = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for gateway_id in graph.subnets.get(current, []):
            _name, subnet_keys = graph.gateways.get(gateway_id, ("", []))
            for neighbour in subnet_keys:
                if neighbour not in hops:
                    hops[neighbour] = hops[current] + 1
                    queue.append(neighbour)
    return hops.get(destination)


_MESH_SUBNETS = [f"10.7.{index}.0/24" for index in range(8)]
_MESH_GATEWAYS = st.lists(
    st.lists(st.sampled_from(_MESH_SUBNETS), min_size=1, max_size=3, unique=True),
    max_size=8,
)


class TestRouteMatchesBfs:
    @settings(max_examples=60, deadline=None)
    @given(gateways=_MESH_GATEWAYS)
    def test_reachability_and_hop_count(self, gateways):
        """Over good-confidence links the store's path is a fewest-hop
        route, so reachability and hop count equal the BFS's (the
        gateways chosen may differ between equal-length routes)."""
        journal = Journal()
        journal.ensure_subnet(_MESH_SUBNETS[-1], source="RIPwatch")
        for index, keys in enumerate(gateways):
            record, _ = journal.ensure_gateway(source="probe", name=f"gw-{index}")
            for key in keys:
                journal.link_gateway_subnet(record.record_id, key, source="probe")
        picture = NetworkPicture(journal)
        for source in _MESH_SUBNETS:
            for destination in _MESH_SUBNETS:
                route = picture.route_between(source, destination)
                expected = _bfs_hops(journal, source, destination)
                assert route.reachable == (expected is not None)
                if not route.reachable:
                    continue
                assert len(route.hops) == expected
                at = source
                for hop in route.hops:
                    assert hop.from_subnet == at
                    links = journal.gateways[hop.gateway_id].connected_subnets
                    assert {hop.from_subnet, hop.to_subnet} <= set(links)
                    at = hop.to_subnet
                assert at == destination


class TestGatewaysFor:
    def test_local_gateways(self, picture):
        net_picture, journal, state, ath = picture
        gateways = net_picture.gateways_for("10.50.1.0/24")
        assert [g.name for g in gateways] == ["athletics-ws"]

    def test_unknown_subnet(self, picture):
        net_picture, journal, state, ath = picture
        assert net_picture.gateways_for("172.16.0.0/24") == []


class TestWhatChanged:
    def test_new_discoveries_listed(self, picture):
        net_picture, journal, state, ath = picture
        state["now"] = 300.0
        journal.observe_interface(
            Observation(source="ARPwatch", ip="10.50.1.77",
                        mac="aa:00:03:00:00:77")
        )
        changes = net_picture.what_changed_since(250.0)
        assert any("10.50.1.77" in change for change in changes)

    def test_value_changes_show_old_and_new(self, picture):
        net_picture, journal, state, ath = picture
        state["now"] = 400.0
        journal.observe_interface(
            Observation(source="DNS", ip="10.50.1.10",
                        dns_name="renamed.classics.edu")
        )
        changes = net_picture.what_changed_since(350.0)
        assert any(
            "ancient-history.classics.edu" in change
            and "renamed.classics.edu" in change
            for change in changes
        )

    def test_quiet_period_is_empty(self, picture):
        net_picture, journal, state, ath = picture
        assert net_picture.what_changed_since(state["now"]) == []
