"""Topology store tests: feed maintenance, path/impact, and the wire.

The central contract (mirrors PR 1's incremental-correlation contract):
after any refresh, an incrementally maintained store's :meth:`state`
is byte-identical to a freshly built store's over the same Journal.
Randomized campaigns drive both and compare after every batch.
"""

import heapq
import json
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Journal, JournalServer, LocalClient, RemoteClient
from repro.core import wire
from repro.core.analysis import (
    find_cut_gateways,
    find_partitioned_subnets,
    run_all_analyses,
)
from repro.core.correlate import Correlator, TopologyGraph
from repro.core.inquiry import NetworkPicture
from repro.core.presentation import render_report
from repro.core.records import Observation, Quality
from repro.core.topology import (
    CONFIDENCE_WEIGHTS,
    TopologyImpact,
    TopologyPath,
    TopologyStore,
)

SOURCE = "test"


@pytest.fixture
def clock_state():
    return {"now": 0.0}


@pytest.fixture
def journal(clock_state):
    return Journal(clock=lambda: clock_state["now"])


def _observe(journal, **fields):
    journal.observe_interface(Observation(source=SOURCE, **fields))


def _gateway(journal, name, subnets, *, source=SOURCE):
    record, _ = journal.ensure_gateway(source=source, name=name)
    for key in subnets:
        journal.link_gateway_subnet(record.record_id, key, source=source)
    return record


def _line(journal):
    """gw-a joins .1/.2, gw-b joins .2/.3: a three-subnet line."""
    _observe(journal, ip="10.0.1.5", mac="aa:00:00:00:00:05")
    _observe(journal, ip="10.0.3.7", mac="aa:00:00:00:00:07")
    a = _gateway(journal, "gw-a", ["10.0.1.0/24", "10.0.2.0/24"],
                 source="RIPwatch")
    b = _gateway(journal, "gw-b", ["10.0.2.0/24", "10.0.3.0/24"],
                 source="traceroute")
    return a, b


def _record_graph(journal):
    """The graph read straight off the gateway and subnet records (the
    derivation the Correlator used to keep), as the store's reference."""
    graph = TopologyGraph()
    for subnet in journal.all_subnets():
        if subnet.subnet is None:
            continue
        graph.subnets[subnet.subnet] = sorted(subnet.gateway_ids)
    for gateway in journal.all_gateways():
        name = gateway.name or f"gateway-{gateway.record_id}"
        subnet_keys = sorted(gateway.connected_subnets)
        graph.gateways[gateway.record_id] = (name, subnet_keys)
        for key in subnet_keys:
            graph.subnets.setdefault(key, [])
            if gateway.record_id not in graph.subnets[key]:
                graph.subnets[key].append(gateway.record_id)
    return graph


class TestEdges:
    def test_edges_carry_provenance(self, journal):
        _line(journal)
        store = TopologyStore(journal)
        edges = store.edges()
        assert len(edges) == 4
        methods = {(e.gateway_name, e.subnet): e.method for e in edges}
        assert methods[("gw-a", "10.0.1.0/24")] == "RIPwatch"
        assert methods[("gw-b", "10.0.3.0/24")] == "traceroute"
        assert all(e.confidence == Quality.GOOD for e in edges)
        assert all(e.present for e in edges)

    def test_graph_matches_correlator_topology(self, journal):
        _line(journal)
        Correlator(journal).correlate()
        store = TopologyStore(journal)
        graph = store.graph()
        reference = _record_graph(journal)
        assert graph.subnets.keys() == reference.subnets.keys()
        assert graph.gateways == reference.gateways

    def test_first_refresh_full_then_incremental(self, journal):
        store = TopologyStore(journal)
        assert store.refresh() == "full"
        _observe(journal, ip="10.0.1.9", mac="aa:00:00:00:00:09")
        assert store.refresh() == "incremental"
        assert store.full_refreshes == 1
        assert store.incremental_refreshes >= 1

    def test_edge_disappearance_is_history_not_amnesia(
        self, journal, clock_state
    ):
        a, _b = _line(journal)
        store = TopologyStore(journal)
        assert len(store.edges()) == 4
        clock_state["now"] += 60.0
        # The link evidence is withdrawn out from under the store; a
        # full refresh reconciles by diffing, keeping the edge record.
        a.connected_subnets.pop("10.0.2.0/24")
        store.refresh(full=True)
        present = {(e.gateway_name, e.subnet) for e in store.edges()}
        assert ("gw-a", "10.0.2.0/24") not in present
        retired = store._edges[(a.record_id, "10.0.2.0/24")]
        assert not retired.present
        assert retired.flaps == 1
        assert [kind for kind, _at in retired.history] == [
            "appear", "disappear"
        ]

    def test_flapping_link_counts_and_bounds_history(
        self, journal, clock_state
    ):
        a, _b = _line(journal)
        store = TopologyStore(journal, history_limit=6)
        store.refresh()
        for _flap in range(5):
            clock_state["now"] += 30.0
            a.connected_subnets.pop("10.0.2.0/24")
            store.refresh(full=True)
            clock_state["now"] += 30.0
            journal.link_gateway_subnet(
                a.record_id, "10.0.2.0/24", source=SOURCE
            )
            store.refresh()
        edge = store._edges[(a.record_id, "10.0.2.0/24")]
        assert len(edge.history) == 6  # bounded: oldest dropped
        assert edge.flaps >= 3
        assert edge.present

    def test_deleted_gateway_forgets_its_edges(self, journal):
        a, _b = _line(journal)
        store = TopologyStore(journal)
        store.refresh()
        del journal.gateways[a.record_id]
        store.refresh(full=True)
        assert all(e.gateway_id != a.record_id for e in store.edges())
        assert all(gid != a.record_id for gid, _k in store._edges)


class TestPath:
    def test_path_across_the_line(self, journal):
        _line(journal)
        store = TopologyStore(journal)
        path = store.path("10.0.1.0/24", "10.0.3.0/24")
        assert path.found
        assert path.cost == 4.0
        assert path.nodes == [
            "10.0.1.0/24", "gw-a", "10.0.2.0/24", "gw-b", "10.0.3.0/24",
        ]
        assert [hop["method"] for hop in path.hops] == [
            "RIPwatch", "RIPwatch", "traceroute", "traceroute",
        ]

    def test_endpoints_resolve_by_ip_and_gateway_name(self, journal):
        _line(journal)
        store = TopologyStore(journal)
        by_ip = store.path("10.0.1.5", "10.0.3.7")
        assert by_ip.found and by_ip.cost == 4.0
        to_gateway = store.path("10.0.1.0/24", "gw-b")
        assert to_gateway.found and to_gateway.cost == 3.0

    def test_an_id_form_names_its_gateway_before_a_same_named_one(self, journal):
        """A gateway *named* ``gateway-1`` does not shadow gateway id 1:
        the ``gateway-N`` and bare-id forms resolve to an existing
        gateway id first, and names are tried otherwise."""
        gw_a = _gateway(journal, "gw-a", ["10.0.1.0/24", "10.0.2.0/24"])
        assert gw_a.record_id == 1
        named = _gateway(journal, "gateway-1", ["10.0.3.0/24"])
        stray = _gateway(journal, "gateway-999", ["10.0.4.0/24"])
        store = TopologyStore(journal)
        for target in ("gateway-1", "1"):
            path = store.path(target, "10.0.2.0/24")
            assert path.found and path.nodes == ["gw-a", "10.0.2.0/24"]
            impact = store.impact(target)
            assert impact.articulation
            assert impact.component_subnets == ["10.0.1.0/24", "10.0.2.0/24"]
        # an id form naming no gateway id falls back to the names
        assert store.impact("gateway-999").component_subnets == ["10.0.4.0/24"]
        assert store.path(f"gateway-{named.record_id}", "10.0.3.0/24").found
        assert not store.path(f"gateway-{stray.record_id}", "10.0.3.0/24").found

    def test_questionable_edges_cost_more(self, journal):
        # Two routes .1 -> .3: direct via gw-direct (1 questionable
        # link) or around via gw-a/gw-b (4 good links).
        a, _b = _line(journal)
        direct = _gateway(journal, "gw-direct",
                          ["10.0.1.0/24", "10.0.3.0/24"])
        for attribute in direct.connected_subnets.values():
            attribute.quality = Quality.QUESTIONABLE
        store = TopologyStore(journal)
        path = store.path("10.0.1.0/24", "10.0.3.0/24")
        assert path.found
        # 2 questionable hops cost 6.0; the good detour costs 4.0.
        assert path.cost == 4.0
        assert "gw-direct" not in path.nodes
        weight = CONFIDENCE_WEIGHTS[Quality.QUESTIONABLE]
        assert weight > CONFIDENCE_WEIGHTS[Quality.GOOD]

    def test_path_symmetry(self, journal):
        _line(journal)
        store = TopologyStore(journal)
        there = store.path("10.0.1.0/24", "10.0.3.0/24")
        back = store.path("10.0.3.0/24", "10.0.1.0/24")
        assert there.found and back.found
        assert there.cost == back.cost
        assert there.nodes == list(reversed(back.nodes))

    def test_unknown_and_unreachable(self, journal):
        _line(journal)
        _observe(journal, ip="172.16.0.9", mac="aa:00:00:00:00:99")
        store = TopologyStore(journal)
        missing = store.path("10.0.1.0/24", "99.9.9.0/24")
        assert not missing.found
        assert "unknown node" in missing.reason
        island = store.path("10.0.1.0/24", "172.16.0.0/24")
        assert not island.found
        assert "no discovered route" in island.reason

    def test_same_node_is_a_zero_hop_path(self, journal):
        _line(journal)
        store = TopologyStore(journal)
        path = store.path("10.0.1.0/24", "10.0.1.0/24")
        assert path.found and path.cost == 0.0 and path.hops == []


class TestImpact:
    def test_cut_gateway_partitions(self, journal):
        _line(journal)
        store = TopologyStore(journal)
        impact = store.impact("gw-b")
        assert impact.found and impact.kind == "gateway"
        assert impact.articulation
        assert impact.cut_subnets == ["10.0.3.0/24"]
        assert impact.isolated_hosts == 1

    def test_redundant_gateway_is_no_articulation(self, journal):
        _line(journal)
        _gateway(journal, "gw-backup", ["10.0.2.0/24", "10.0.3.0/24"])
        store = TopologyStore(journal)
        impact = store.impact("gw-b")
        assert impact.found and not impact.articulation
        assert impact.cut_subnets == []

    def test_impact_subnets_subset_of_component(self, journal):
        _line(journal)
        store = TopologyStore(journal)
        for target in ("gw-a", "gw-b", "10.0.2.0/24"):
            impact = store.impact(target)
            assert impact.found
            assert set(impact.cut_subnets) <= set(impact.component_subnets)

    def test_unknown_target(self, journal):
        store = TopologyStore(journal)
        impact = store.impact("nothing-here")
        assert not impact.found
        assert "unknown node" in impact.reason


class _Campaign:
    """Randomized but seed-deterministic topology churn applied to one
    journal watched by several stores (mirrors the correlator tests)."""

    def __init__(self, seed, journal, clock_state):
        self.rng = random.Random(seed)
        self.journal = journal
        self.clock_state = clock_state
        self.gateways = {}
        self.subnets = 2
        self.serial = 0

    def _mac(self):
        self.serial += 1
        return f"08:00:20:00:{self.serial >> 8:02x}:{self.serial & 0xFF:02x}"

    def batch(self):
        rng = self.rng
        self.clock_state["now"] += 60.0
        if rng.random() < 0.3:
            self.subnets += 1
        for _ in range(rng.randint(1, 4)):
            subnet = rng.randint(1, self.subnets)
            _observe(
                self.journal,
                ip=f"10.0.{subnet}.{rng.randint(10, 250)}",
                mac=self._mac(),
                subnet_mask="255.255.255.0" if rng.random() < 0.5 else None,
            )
        if rng.random() < 0.6:
            # Attach (or re-verify) a gateway between two subnets.
            name = f"gw-{rng.randint(1, 5)}"
            a, b = rng.sample(range(1, self.subnets + 1), 2)
            record = _gateway(
                self.journal, name,
                [f"10.0.{a}.0/24", f"10.0.{b}.0/24"],
            )
            self.gateways[name] = record
        if self.gateways and rng.random() < 0.3:
            # A link flaps away.
            record = self.rng.choice(sorted(
                self.gateways.values(), key=lambda r: r.record_id
            ))
            if record.connected_subnets:
                key = rng.choice(sorted(record.connected_subnets))
                record.connected_subnets.pop(key)
                self.journal._touch("gateway", record)
        if self.gateways and rng.random() < 0.1:
            # A gateway record is withdrawn (as merge absorption does),
            # with the deletion marked so the feed carries it.
            name = rng.choice(sorted(self.gateways))
            record = self.gateways.pop(name)
            if self.journal.gateways.pop(record.record_id, None) is not None:
                self.journal._mark_deleted("gateway", record.record_id)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 42, 1993])
    def test_incremental_equals_rebuilt_after_every_batch(
        self, seed, journal, clock_state
    ):
        """A store maintained incrementally must stay byte-identical
        to a from-scratch store."""
        store = journal.topology()
        campaign = _Campaign(seed, journal, clock_state)
        for _round in range(25):
            campaign.batch()
            store.refresh()
            expected = TopologyStore(journal).canonical_text()
            assert store.canonical_text() == expected
        assert store.incremental_refreshes >= 20

    @pytest.mark.parametrize("seed", [3, 11])
    def test_forced_rebuild_changes_nothing(self, seed, journal, clock_state):
        store = TopologyStore(journal)
        campaign = _Campaign(seed, journal, clock_state)
        for _round in range(20):
            campaign.batch()
            store.refresh()
        before = store.canonical_text()
        store.refresh(full=True)
        assert store.canonical_text() == before

    @pytest.mark.parametrize("seed", [5])
    def test_path_symmetric_and_impact_contained_under_churn(
        self, seed, journal, clock_state
    ):
        store = TopologyStore(journal)
        campaign = _Campaign(seed, journal, clock_state)
        for _round in range(15):
            campaign.batch()
            subnets = sorted(store.graph().subnets)
            if len(subnets) < 2:
                continue
            rng = random.Random(seed + _round)
            a, b = rng.sample(subnets, 2)
            there = store.path(a, b)
            back = store.path(b, a)
            assert there.found == back.found
            if there.found:
                assert there.cost == pytest.approx(back.cost)
            impact = store.impact(a)
            assert impact.found
            assert set(impact.cut_subnets) <= set(impact.component_subnets)


_P_SUBNETS = [f"10.0.{index}.0/24" for index in range(1, 6)]
_P_NAMES = [f"gw-{index}" for index in range(1, 5)]
_P_STEPS = st.one_of(
    st.tuples(
        st.just("link"), st.sampled_from(_P_NAMES),
        st.lists(st.sampled_from(_P_SUBNETS), min_size=1, max_size=2, unique=True),
        st.booleans(),
    ),
    st.tuples(st.just("unlink"), st.sampled_from(_P_NAMES), st.sampled_from(_P_SUBNETS)),
    st.tuples(
        st.just("requalify"), st.sampled_from(_P_NAMES),
        st.sampled_from(_P_SUBNETS),
    ),
    st.tuples(st.just("rename"), st.sampled_from(_P_NAMES), st.sampled_from(_P_NAMES)),
    st.tuples(st.just("delete"), st.sampled_from(_P_NAMES)),
    st.tuples(st.just("host"), st.sampled_from(_P_SUBNETS), st.integers(10, 12)),
)
#: endpoints the answers are compared on: subnets, gateway names, a
#: host address, an id form and an unknown node
_P_TARGETS = [_P_SUBNETS[0], _P_SUBNETS[2], _P_SUBNETS[4], "gw-1", "gw-3",
              "10.0.2.11", "gateway-1", "99.9.9.0/24"]


def _answers(store, targets=_P_TARGETS):
    return (
        [store.path(a, b).to_dict() for a in targets for b in targets],
        [store.impact(target).to_dict() for target in targets],
    )


def _requalify(journal, record, key):
    """Flip one present link between good and questionable in place:
    the edge neither appears nor retires, only its weight changes."""
    attribute = record.connected_subnets.get(key)
    if attribute is None:
        return False
    attribute.quality = (
        Quality.GOOD if attribute.quality == Quality.QUESTIONABLE
        else Quality.QUESTIONABLE
    )
    journal._touch("gateway", record)
    return True


def _apply_step(journal, step):
    """One hypothesis step against *journal* (see ``_P_STEPS`` and
    ``_O_STEPS``); steps naming a missing gateway do nothing."""
    kind = step[0]
    named = (
        journal._gateways_named(step[1])
        if kind in ("link", "unlink", "requalify", "rename", "delete")
        else []
    )
    if kind == "link":
        # The first subnet's link is marked questionable on request.
        _kind, name, keys, questionable = step
        record = _gateway(journal, name, keys)
        if questionable:
            record.connected_subnets[keys[0]].quality = Quality.QUESTIONABLE
            journal._touch("gateway", record)
    elif kind == "unlink" and named:
        record = named[0]
        if record.connected_subnets.pop(step[2], None) is not None:
            journal._touch("gateway", record)
    elif kind == "requalify" and named:
        _requalify(journal, named[0], step[2])
    elif kind == "rename" and named:
        journal.rename_gateway(named[0].record_id, step[2], source=SOURCE)
    elif kind == "delete" and named:
        record_id = named[0].record_id
        del journal.gateways[record_id]
        journal._mark_deleted("gateway", record_id)
    elif kind == "subnet":
        journal.ensure_subnet(step[1], source=SOURCE)
    elif kind == "host":
        _kind, key, host = step
        _observe(journal, ip=key.replace(".0/24", f".{host}"))


def _findings(journal, store):
    """The two topology finders' findings, read through *store* in
    place of the Journal's own."""
    saved, journal._topology = journal._topology, store
    try:
        return find_cut_gateways(journal), find_partitioned_subnets(journal)
    finally:
        journal._topology = saved


class TestCachedAnswersProperty:
    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(_P_STEPS, min_size=1, max_size=20))
    def test_long_lived_store_answers_like_a_fresh_one(self, steps):
        """Links that retire and reappear, renames, deletes and
        questionable edges and requalified links: after every step the
        Journal's store, which has kept its graph index and gateway
        names across the whole history, answers path/impact and yields
        the topology findings exactly like a store built over the same
        journal."""
        clock = {"now": 0.0}
        journal = Journal(clock=lambda: clock["now"])
        store = journal.topology()
        for step in steps:
            clock["now"] += 10.0
            _apply_step(journal, step)
            fresh = TopologyStore(journal)
            expected = _answers(fresh)
            expected_findings = _findings(journal, fresh)
            assert _answers(store) == expected
            assert _findings(journal, store) == expected_findings


class TestIndexInvalidation:
    def test_requalified_link_reprices_path(self, journal):
        """A present edge flipping between good and questionable, with
        no edge appearing or retiring, must reprice ``path`` in
        a long-lived store; a fresh store is the reference."""
        a, _b = _line(journal)
        store = journal.topology()
        assert store.path("10.0.1.0/24", "10.0.2.0/24").cost == 2.0
        assert _requalify(journal, a, "10.0.1.0/24")
        assert store.path("10.0.1.0/24", "10.0.2.0/24").cost == 4.0
        assert _requalify(journal, a, "10.0.1.0/24")
        assert store.path("10.0.1.0/24", "10.0.2.0/24").cost == 2.0
        assert _requalify(journal, a, "10.0.2.0/24")
        fresh = TopologyStore(journal)
        expected = fresh.path("10.0.1.0/24", "10.0.3.0/24").to_dict()
        assert expected["cost"] == 6.0
        assert store.path("10.0.1.0/24", "10.0.3.0/24").to_dict() == expected

    def test_renames_and_sightings_keep_the_index(self, journal):
        a, _b = _line(journal)
        store = TopologyStore(journal)
        assert store.impact("gw-b").articulation
        index = store._index
        assert index is not None
        journal.rename_gateway(a.record_id, "gw-renamed", source=SOURCE)
        _observe(journal, ip="10.0.3.9", mac="aa:00:00:00:00:19")
        impact = store.impact("gw-b")
        assert store._index is index
        assert impact.isolated_hosts == 2
        assert store.path("10.0.1.0/24", "gw-b").nodes[1] == "gw-renamed"
        journal.link_gateway_subnet(a.record_id, "10.0.3.0/24", source=SOURCE)
        assert not store.impact("gw-b").articulation
        assert store._index is not index


def _order(node):
    kind, value = node
    return (kind, value if kind == "subnet" else f"{value:012d}")


class _Reference:
    """The search as it was before the graph index, kept as a
    brute-force oracle: per-query Dijkstra keyed on order tuples, and
    one BFS per piece for ``impact``, over adjacency read from a
    freshly built store's present edges."""

    def __init__(self, journal):
        self.store = TopologyStore(journal)
        self.adjacency = {}
        for edge in self.store.edges():
            gateway = ("gateway", edge.gateway_id)
            subnet = ("subnet", edge.subnet)
            self.adjacency.setdefault(gateway, []).append((subnet, edge))
            self.adjacency.setdefault(subnet, []).append((gateway, edge))
        for links in self.adjacency.values():
            links.sort(key=lambda link: link[0][1])

    def _label(self, node):
        return self.store._label(node)

    def _component(self, start, without):
        component = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbour, _edge in self.adjacency.get(node, ()):
                if neighbour == without or neighbour in component:
                    continue
                component.add(neighbour)
                frontier.append(neighbour)
        return component

    def path(self, a, b):
        source = self.store._resolve(a)
        if source is None:
            return TopologyPath(a, b, False, reason=f"unknown node: {a}")
        destination = self.store._resolve(b)
        if destination is None:
            return TopologyPath(a, b, False, reason=f"unknown node: {b}")
        if source == destination:
            return TopologyPath(a, b, True, nodes=[self._label(source)])
        distances = {source: 0.0}
        previous = {}
        queue = [(0.0, _order(source), source)]
        visited = set()
        while queue:
            cost, _key, node = heapq.heappop(queue)
            if node in visited:
                continue
            visited.add(node)
            if node == destination:
                break
            for neighbour, edge in self.adjacency.get(node, ()):
                candidate = cost + CONFIDENCE_WEIGHTS.get(edge.confidence, 3.0)
                known = distances.get(neighbour)
                if known is None or candidate < known:
                    distances[neighbour] = candidate
                    previous[neighbour] = (node, edge)
                    heapq.heappush(
                        queue, (candidate, _order(neighbour), neighbour)
                    )
        if destination not in visited:
            return TopologyPath(
                a, b, False,
                reason=(
                    f"no discovered route between {self._label(source)} "
                    f"and {self._label(destination)}"
                ),
            )
        nodes, hops = [], []
        node = destination
        while node != source:
            parent, edge = previous[node]
            nodes.append(self._label(node))
            hops.append(edge.evidence())
            node = parent
        nodes.append(self._label(source))
        return TopologyPath(
            a, b, True, cost=distances[destination],
            nodes=nodes[::-1], hops=hops[::-1],
        )

    def impact(self, target):
        resolved = self.store._resolve(target)
        if resolved is None:
            return TopologyImpact(target, False, reason=f"unknown node: {target}")
        component = self._component(resolved, None)
        pieces = []
        seen = {resolved}
        for node in sorted(component, key=_order):
            if node not in seen:
                piece = self._component(node, resolved)
                seen |= piece
                pieces.append(piece)
        pieces.sort(key=lambda piece: (
            -sum(1 for kind, _v in piece if kind == "subnet"),
            min(_order(node) for node in piece),
        ))
        cut = set().union(*pieces[1:])
        cut_subnets = sorted(value for kind, value in cut if kind == "subnet")
        return TopologyImpact(
            target, True,
            kind=resolved[0],
            articulation=bool(cut),
            component_subnets=sorted(
                value for kind, value in component if kind == "subnet"
            ),
            cut_subnets=cut_subnets,
            cut_gateways=sorted(
                self._label(node) for node in cut if node[0] == "gateway"
            ),
            isolated_hosts=sum(
                len(self.store._subnet_nodes[key].interfaces)
                for key in cut_subnets
            ),
        )


_O_SUBNETS = [f"10.0.{index}.0/24" for index in range(1, 7)]
_O_NAMES = [f"gw-{index}" for index in range(1, 5)]
_O_LINK = st.tuples(
    st.just("link"), st.sampled_from(_O_NAMES),
    st.lists(st.sampled_from(_O_SUBNETS), min_size=1, max_size=3, unique=True),
    st.booleans(),
)
_O_STEPS = st.one_of(
    # Links are drawn three times as often so that cycles, bridges and
    # side components form within a short step list.
    _O_LINK, _O_LINK, _O_LINK,
    st.tuples(st.just("unlink"), st.sampled_from(_O_NAMES), st.sampled_from(_O_SUBNETS)),
    st.tuples(
        st.just("requalify"), st.sampled_from(_O_NAMES),
        st.sampled_from(_O_SUBNETS),
    ),
    st.tuples(st.just("rename"), st.sampled_from(_O_NAMES), st.sampled_from(_O_NAMES)),
    st.tuples(st.just("delete"), st.sampled_from(_O_NAMES)),
    st.tuples(st.just("subnet"), st.sampled_from(_O_SUBNETS)),
    st.tuples(st.just("host"), st.sampled_from(_O_SUBNETS), st.integers(10, 12)),
)


def _oracle_targets(journal):
    """Every endpoint form: subnet keys, names, ``gateway-N`` and bare
    ids of the live gateways, member IPs, and unknown targets."""
    targets = list(_O_SUBNETS) + list(_O_NAMES)
    for gid in sorted(journal.gateways):
        targets += [f"gateway-{gid}", str(gid)]
    return targets + ["10.0.2.10", "10.0.6.11", "99.9.9.0/24", "nothing-here"]


def _oracle_answers(store, targets):
    """``impact`` of every target; ``path`` between every pair of the
    subnets, two names, one id form, one member IP and one unknown."""
    ends = list(_O_SUBNETS) + ["gw-1", "gw-2", "10.0.2.10", "nothing-here"]
    ends += [target for target in targets if target.startswith("gateway-")][:1]
    return (
        [store.impact(target).to_dict() for target in targets],
        [store.path(a, b).to_dict() for a in ends for b in ends],
    )


def _assert_matches_reference(journal, stores, targets=None):
    targets = targets or _oracle_targets(journal)
    expected = _oracle_answers(_Reference(journal), targets)
    for store in stores:
        assert _oracle_answers(store, targets) == expected


class TestIndexOracle:
    """The graph index against the brute-force reference."""

    @settings(max_examples=80, deadline=None)
    @given(steps=st.lists(_O_STEPS, min_size=3, max_size=24))
    def test_answers_equal_the_reference(self, steps):
        clock = {"now": 0.0}
        journal = Journal(clock=lambda: clock["now"])
        store = journal.topology()
        for step in steps:
            clock["now"] += 10.0
            _apply_step(journal, step)
            _assert_matches_reference(journal, (store,))

    def test_isolated_subnet_and_edgeless_gateway(self, journal):
        _line(journal)
        journal.ensure_subnet("10.0.6.0/24", source=SOURCE)
        _observe(journal, ip="10.0.5.11", mac="aa:00:00:00:00:11")
        lone = _gateway(journal, "gw-lone", ["10.0.4.0/24"])
        lone.connected_subnets.pop("10.0.4.0/24")
        journal._touch("gateway", lone)
        store = TopologyStore(journal)
        impact = store.impact("10.0.6.0/24")
        assert impact.found and impact.component_subnets == ["10.0.6.0/24"]
        edgeless = store.impact("gw-lone")
        assert edgeless.found and edgeless.component_subnets == []
        assert not store.path("gw-lone", "10.0.1.0/24").found
        _assert_matches_reference(
            journal, (store,),
            _oracle_targets(journal) + ["gw-lone", "10.0.5.11", "10.0.4.0/24"],
        )

    def test_pieces_tied_on_subnet_count(self, journal):
        """A hub over three leaf subnets: every piece holds one subnet,
        so the core is the piece with the lowest-ordered node."""
        _gateway(journal, "gw-hub", ["10.0.3.0/24", "10.0.1.0/24", "10.0.2.0/24"])
        store = TopologyStore(journal)
        impact = store.impact("gw-hub")
        assert impact.cut_subnets == ["10.0.2.0/24", "10.0.3.0/24"]
        _assert_matches_reference(journal, (store,))
        # A second subnet behind .2 breaks the tie: .2's piece survives.
        _gateway(journal, "gw-tail", ["10.0.2.0/24", "10.0.4.0/24"])
        impact = store.impact("gw-hub")
        assert impact.cut_subnets == ["10.0.1.0/24", "10.0.3.0/24"]
        _assert_matches_reference(journal, (store,))

    def test_target_at_the_dfs_root(self, journal):
        """Gateways order before subnets, so the lowest gateway id roots
        its component's DFS; its pieces are its children's subtrees."""
        first = _gateway(journal, "gw-first", ["10.0.1.0/24", "10.0.2.0/24"])
        _gateway(journal, "gw-second", ["10.0.2.0/24", "10.0.3.0/24"])
        _gateway(journal, "gw-third", ["10.0.1.0/24", "10.0.4.0/24"])
        store = TopologyStore(journal)
        impact = store.impact("gw-first")
        index = store._index
        assert index.rank[("gateway", first.record_id)] in index.roots
        assert impact.articulation
        assert impact.cut_subnets == ["10.0.1.0/24", "10.0.4.0/24"]
        _assert_matches_reference(journal, (store,))

    def test_cycle_back_to_a_non_root_target(self, journal):
        """A redundant pair hanging off one subnet: the DFS below it
        returns only to that subnet (low-link equal to its discovery
        index), so the pair is still cut off when the subnet fails."""
        _gateway(journal, "gw-root", ["10.0.1.0/24", "10.0.2.0/24"])
        _gateway(journal, "gw-x", ["10.0.2.0/24", "10.0.3.0/24"])
        _gateway(journal, "gw-y", ["10.0.2.0/24", "10.0.3.0/24"])
        store = TopologyStore(journal)
        impact = store.impact("10.0.2.0/24")
        assert impact.cut_gateways == ["gw-x", "gw-y"]
        assert impact.cut_subnets == ["10.0.3.0/24"]
        _assert_matches_reference(journal, (store,))

    def test_side_component(self, journal):
        _line(journal)
        _gateway(journal, "gw-side", ["10.0.5.0/24", "10.0.6.0/24"])
        store = TopologyStore(journal)
        side = store.impact("gw-side")
        assert side.component_subnets == ["10.0.5.0/24", "10.0.6.0/24"]
        assert side.cut_subnets == ["10.0.6.0/24"]
        assert len(store._index.roots) == 2
        _assert_matches_reference(journal, (store,))


#: a larger graph for the route oracle: a subnet count, whether every
#: gateway also joins the backbone ``10.0.0.0/24`` (so every pair of
#: gateways has equal-cost routes through it), and per gateway its
#: ``(subnet index, questionable)`` links; about 30% are questionable
_R_GRAPHS = st.integers(1, 20).flatmap(lambda subnets: st.tuples(
    st.just(subnets),
    st.booleans(),
    st.lists(
        st.lists(
            st.tuples(
                st.integers(1, subnets),
                st.integers(0, 9).map(lambda draw: draw < 3),
            ),
            min_size=1, max_size=4, unique_by=lambda link: link[0],
        ),
        min_size=1, max_size=12,
    ),
))


def _route_journal(graph):
    """The Journal of one ``_R_GRAPHS`` draw, plus a side component of
    two subnets that no route from the main graph reaches, and its
    endpoints: every subnet and gateway name, and an unknown name."""
    subnets, hub, gateways = graph
    journal = Journal(clock=lambda: 0.0)
    backbone = "10.0.0.0/24"
    for number, links in enumerate(gateways, 1):
        keys = [f"10.0.{index}.0/24" for index, _questionable in links]
        record = _gateway(journal, f"gw-{number}", keys + [backbone] * hub)
        for key, (_index, questionable) in zip(keys, links):
            if questionable:
                record.connected_subnets[key].quality = Quality.QUESTIONABLE
        journal._touch("gateway", record)
    _gateway(journal, "gw-side", ["10.9.1.0/24", "10.9.2.0/24"])
    ends = [f"10.0.{index}.0/24" for index in range(subnets + 1)]
    ends += [f"gw-{number}" for number in range(1, len(gateways) + 1)]
    return journal, ends + ["gw-side", "10.9.2.0/24", "nothing-here"]


class _CountingLinks(list):
    """``_GraphIndex.links`` that records which ranks' adjacency is read."""

    def __init__(self, links):
        super().__init__(links)
        self.read = set()

    def __getitem__(self, rank):
        self.read.add(rank)
        return super().__getitem__(rank)


def _hub_campus(journal, gateways=100):
    """Every gateway joins the backbone ``10.0.0.0/24`` and three leaf
    subnets of its own; returns each gateway's leaves."""
    leaves = []
    for number in range(gateways):
        keys = [f"10.{1 + number // 80}.{number % 80 * 3 + leaf}.0/24"
                for leaf in range(3)]
        _gateway(journal, f"gw-{number}", ["10.0.0.0/24"] + keys)
        leaves.append(keys)
    return leaves


class TestRouteOracle:
    """The goal-directed ``path`` search against the single-source
    Dijkstra of the brute-force reference, on graphs larger than
    ``TestIndexOracle`` draws."""

    def test_weights_sum_exactly(self):
        # The search compares route sums for equality.
        assert all(
            weight > 0 and float(weight).is_integer()
            for weight in CONFIDENCE_WEIGHTS.values()
        )

    @settings(max_examples=50, deadline=None)
    @given(graph=_R_GRAPHS)
    def test_every_pair_equals_the_reference(self, graph):
        journal, ends = _route_journal(graph)
        store = TopologyStore(journal)
        reference = _Reference(journal)
        for a in ends:
            for b in ends:
                assert store.path(a, b).to_dict() == reference.path(a, b).to_dict()

    @settings(max_examples=50, deadline=None)
    @given(graph=_R_GRAPHS)
    def test_cut_gateways_are_the_articulations(self, graph):
        """``cut_gateways`` lists exactly the gateways whose reference
        ``impact`` is an articulation, with that impact."""
        journal, _ends = _route_journal(graph)
        store = TopologyStore(journal)
        reference = _Reference(journal)
        expected = []
        for gid in sorted(journal.gateways):
            impact = reference.impact(f"gateway-{gid}")
            if impact.articulation:
                expected.append((gid, reference._label(("gateway", gid)), impact))
        assert store.cut_gateways() == expected

    def test_hub_path_reads_only_the_endpoints_neighbourhoods(self, journal):
        """Across a 100-gateway hub, a route between two leaves reads the
        adjacency of a few dozen nodes, not most of the component."""
        leaves = _hub_campus(journal)
        store = TopologyStore(journal)
        store.path(leaves[0][0], leaves[1][0])  # builds the index
        index = store._index
        links = index.links = _CountingLinks(index.links)
        reference = _Reference(journal)
        for first, second in ((0, 1), (7, 93), (99, 42), (50, 51)):
            a, b = leaves[first][1], leaves[second][2]
            links.read.clear()
            route = store.path(a, b)
            assert route.nodes == [
                a, f"gw-{first}", "10.0.0.0/24", f"gw-{second}", b,
            ]
            assert route.to_dict() == reference.path(a, b).to_dict()
            assert len(links.read) <= 36  # of the 401 ranked nodes
        assert store._index is index


def _union_find_components(graph):
    """The reference for ``TopologyStore.components``: a union-find over
    the graph's subnets, two subnets joined by each gateway holding
    both, largest piece first, ties to the lowest key."""
    parent = {}

    def find(item):
        while parent.setdefault(item, item) != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    for subnet in graph.subnets:
        find(subnet)
    for _name, subnet_keys in graph.gateways.values():
        for other in subnet_keys[1:]:
            parent[find(subnet_keys[0])] = find(other)
    groups = {}
    for subnet in graph.subnets:
        groups.setdefault(find(subnet), []).append(subnet)
    return sorted(
        (sorted(group) for group in groups.values()),
        key=lambda group: (-len(group), group[0]),
    )


def _random_step(rng):
    """One ``_O_STEPS``-shaped step drawn from *rng*."""
    kind = rng.choice(["link"] * 3 + ["unlink", "requalify", "rename",
                                      "delete", "subnet", "host"])
    name = rng.choice(_O_NAMES)
    if kind == "link":
        keys = rng.sample(_O_SUBNETS, rng.randint(1, 3))
        return (kind, name, keys, rng.random() < 0.5)
    if kind in ("unlink", "requalify"):
        return (kind, name, rng.choice(_O_SUBNETS))
    if kind == "rename":
        return (kind, name, rng.choice(_O_NAMES))
    if kind == "delete":
        return (kind, name)
    if kind == "subnet":
        return (kind, rng.choice(_O_SUBNETS))
    return (kind, rng.choice(_O_SUBNETS), rng.randint(10, 12))


class TestComponentsProperty:
    @pytest.mark.parametrize("seed", [2, 9, 77])
    def test_components_partition_the_subnets(self, seed):
        """Under seeded churn the store's components stay a partition:
        disjoint, covering, ordered largest-first, and consistent with
        the edge relation."""
        rng = random.Random(seed)
        clock = {"now": 0.0}
        journal = Journal(clock=lambda: clock["now"])
        store = journal.topology()
        for _round in range(30):
            clock["now"] += 10.0
            _apply_step(journal, _random_step(rng))
            graph = store.graph()
            components = store.components()
            seen = set()
            for component in components:
                assert component == sorted(component)
                assert not (set(component) & seen)
                seen |= set(component)
            assert seen == set(graph.subnets)
            sizes = [len(component) for component in components]
            assert sizes == sorted(sizes, reverse=True)
            for _name, attached in graph.gateways.values():
                owners = {
                    index
                    for index, component in enumerate(components)
                    if set(attached) & set(component)
                }
                # All subnets behind one gateway share one component.
                assert len(owners) <= 1

    @settings(max_examples=80, deadline=None)
    @given(steps=st.lists(_O_STEPS, min_size=1, max_size=24))
    def test_components_equal_the_union_find(self, steps):
        """After every churn step (links that retire and return, deleted
        gateways, edgeless subnets, equal-sized pieces) the store's
        components equal the union-find reference over its graph."""
        clock = {"now": 0.0}
        journal = Journal(clock=lambda: clock["now"])
        store = journal.topology()
        for step in steps:
            clock["now"] += 10.0
            _apply_step(journal, step)
            assert store.components() == _union_find_components(store.graph())

    def test_edgeless_subnets_and_ties(self, journal):
        journal.ensure_subnet("10.0.9.0/24", source=SOURCE)
        journal.ensure_subnet("10.0.8.0/24", source=SOURCE)
        _gateway(journal, "gw-b", ["10.0.5.0/24", "10.0.6.0/24"])
        _gateway(journal, "gw-a", ["10.0.3.0/24", "10.0.4.0/24"])
        assert journal.topology().components() == [
            ["10.0.3.0/24", "10.0.4.0/24"],
            ["10.0.5.0/24", "10.0.6.0/24"],
            ["10.0.8.0/24"],
            ["10.0.9.0/24"],
        ]


class TestWireSafety:
    def test_roundtrip(self, journal):
        _line(journal)
        store = TopologyStore(journal)
        path = store.path("10.0.1.0/24", "10.0.3.0/24")
        assert TopologyPath.from_dict(
            json.loads(json.dumps(path.to_dict()))
        ) == path
        impact = store.impact("gw-a")
        assert TopologyImpact.from_dict(
            json.loads(json.dumps(impact.to_dict()))
        ) == impact

    @pytest.mark.parametrize("payload", [
        None,
        [],
        "text",
        {},
        {"source": 1, "destination": "b", "found": True},
        {"source": "a", "destination": "b", "found": "yes"},
        {"source": "a", "destination": "b", "found": True, "cost": "x"},
        {"source": "a", "destination": "b", "found": True, "nodes": [1]},
        {"source": "a", "destination": "b", "found": True, "hops": [{}]},
        {"source": "a", "destination": "b", "found": True,
         "hops": [{"gateway": True, "gateway_name": "g", "subnet": "s",
                   "method": "m", "confidence": "good"}]},
    ])
    def test_hostile_path_payloads(self, payload):
        with pytest.raises(wire.WireError):
            wire.path_from_dict(payload)

    @pytest.mark.parametrize("payload", [
        None,
        7,
        {},
        {"target": "x", "found": True, "kind": 3},
        {"target": "x", "found": True, "articulation": "yes"},
        {"target": "x", "found": True, "cut_subnets": "10.0.0.0/24"},
        {"target": "x", "found": True, "isolated_hosts": "many"},
    ])
    def test_hostile_impact_payloads(self, payload):
        with pytest.raises(wire.WireError):
            wire.impact_from_dict(payload)

    def test_ops_are_read_locked(self):
        assert {"path", "impact"} <= wire.WIRE_OPS
        assert {"path", "impact"} <= wire.READ_OPS


@pytest.fixture
def constructions(monkeypatch):
    """Every TopologyStore built while the test runs; ``delay`` seconds
    are spent inside each construction."""
    built = []
    original = TopologyStore.__init__

    def counting_init(store, *args, **kwargs):
        built.append(store)
        time.sleep(counting_init.delay)
        original(store, *args, **kwargs)

    counting_init.delay = 0.0
    monkeypatch.setattr(TopologyStore, "__init__", counting_init)
    return counting_init, built


class TestOneStorePerJournal:
    def test_every_reader_shares_the_journal_store(self, journal, constructions):
        _init, built = constructions
        _line(journal)
        Correlator(journal).correlate()
        subscribers = journal.feed_subscribers
        store = journal.topology()
        assert journal.topology() is store
        client = LocalClient(journal)
        assert client.path("10.0.1.0/24", "10.0.3.0/24").found
        assert client.impact("gw-b").articulation
        client.close()
        for name, params in [
            ("dot", {}), ("svg", {}), ("sunnet", {}), ("topology", {}),
            ("path", {"a": "10.0.1.0/24", "b": "gw-b"}),
            ("impact", {"target": "gw-a"}),
        ]:
            assert render_report(journal, name, **params)
        findings = run_all_analyses(journal)
        assert [f.subject for f in findings["single-point-of-failure"]] == [
            "gw-a", "gw-b"
        ]
        route = NetworkPicture(journal).route_between("10.0.1.0/24", "10.0.3.0/24")
        assert [hop.gateway_name for hop in route.hops] == ["gw-a", "gw-b"]
        assert journal.topology() is store
        assert built == [store]
        assert journal.feed_subscribers == subscribers
        assert store.full_refreshes == 1

    def test_store_history_pins_the_change_log(self, journal):
        """The store's subscription clamps a Correlator's prune to the
        store's last refresh, so its next refresh stays incremental."""
        _line(journal)
        store = journal.topology()
        store.refresh()
        pinned = journal.revision
        _observe(journal, ip="10.0.2.9", mac="aa:00:00:00:00:29")
        Correlator(journal).correlate()
        assert journal.changes_since(pinned).complete
        assert store.refresh() == "incremental"

    def test_an_unread_store_does_not_pin_the_log_forever(self, journal, clock_state):
        """One early report must not stop every later prune: once the
        log since the store's last refresh outgrows the Journal, a
        Correlator's prune goes through and the store rebuilds."""
        _line(journal)
        hosts = [
            (f"10.0.{i // 50 + 4}.{i % 50 + 1}", f"aa:00:00:00:01:{i:02x}")
            for i in range(100)
        ]
        for i, (ip, mac) in enumerate(hosts):
            _observe(journal, ip=ip, mac=mac, dns_name=f"h{i}.a")
        correlator = Correlator(journal)
        correlator.correlate()
        render_report(journal, "topology")
        for n in range(3000):
            clock_state["now"] += 1.0
            ip, mac = hosts[n % 100]
            domain = "b" if (n // 100) % 2 == 0 else "a"
            _observe(journal, ip=ip, mac=mac, dns_name=f"h{n % 100}.{domain}")
            if n % 100 == 99:
                correlator.correlate()
        records = len(journal.interfaces) + len(journal.gateways) + len(journal.subnets)
        assert len(journal._change_log) < records
        assert len(journal._key_log) < 4 * records
        store = journal.topology()
        assert store.refresh() == "full"
        fresh = TopologyStore(journal)
        assert [(e.gateway_name, e.subnet, e.method) for e in store.edges()] == [
            (e.gateway_name, e.subnet, e.method) for e in fresh.edges()
        ]


class TestServer:
    @pytest.fixture
    def served(self, journal):
        _line(journal)
        server = JournalServer(journal).start()
        client = RemoteClient(*server.address)
        yield journal, client
        client.close()
        server.stop()

    def test_path_and_impact_over_the_wire(self, served, clock_state):
        journal, client = served
        path = client.path("10.0.1.0/24", "10.0.3.0/24")
        assert path.found and path.cost == 4.0
        assert path.hops[0]["method"] == "RIPwatch"
        impact = client.impact("gw-b")
        assert impact.articulation
        # The server-side store tracks later writes.
        clock_state["now"] += 10.0
        record, _ = journal.ensure_gateway(source=SOURCE, name="gw-backup")
        for key in ("10.0.2.0/24", "10.0.3.0/24"):
            journal.link_gateway_subnet(record.record_id, key, source=SOURCE)
        assert not client.impact("gw-b").articulation

    def test_malformed_requests_rejected(self, served):
        # The dispatcher turns the WireError into an error reply; the
        # client surfaces it without dropping the connection.
        _journal, client = served
        with pytest.raises(RuntimeError, match="path: 'a': expected a string"):
            client._call({"op": "path", "a": 5, "b": "10.0.1.0/24"})
        with pytest.raises(RuntimeError, match="impact: 'target': expected a string"):
            client._call({"op": "impact", "target": ["x"]})
        assert client.path("10.0.1.0/24", "10.0.3.0/24").found

    def test_concurrent_first_requests_build_one_store(
        self, journal, constructions
    ):
        """Two first ``path`` requests racing on the worker pool build
        one store: the construction is slowed so that the second
        request arrives while the first is still building."""
        init, built = constructions
        init.delay = 0.2
        _line(journal)
        server = JournalServer(journal).start()
        clients = [RemoteClient(*server.address) for _ in range(2)]
        barrier = threading.Barrier(len(clients))
        found = []

        def ask(client):
            barrier.wait(timeout=10.0)
            found.append(client.path("10.0.1.0/24", "10.0.3.0/24").found)

        threads = [threading.Thread(target=ask, args=(c,)) for c in clients]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            for client in clients:
                client.close()
            server.stop()
        assert found == [True, True]
        assert built == [journal.topology()]
