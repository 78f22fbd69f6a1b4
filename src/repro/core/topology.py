"""The persistent topology store: from correlated evidence to a map.

The Correlator leaves the discovered structure implicit in Journal
records — gateway ``connected_subnets`` attributes, subnet records,
interface masks.  The paper's promise, though, is an operator-facing
picture: "the network and gateway entries" as a *queryable* map a
troubleshooter can ask questions of.

:class:`TopologyStore` is that layer, and the only derivation of the
graph.  It follows the Journal's change log and maintains a persistent
graph of devices, interfaces, and subnets whose edges carry
*provenance*:

* ``method`` — which explorer or correlation rule produced the
  attachment (the ``source`` of the gateway's ``connected_subnets``
  attribute: ``correlator``, ``Traceroute``, ``RIPwatch``, ...);
* ``confidence`` — the attribute's quality (``good`` /
  ``questionable``), which weights path selection and drives the
  dashed-edge rendering in :mod:`~repro.core.presentation`;
* a bounded per-edge history of appear/disappear transitions, so a
  flapping link is visible *as history*, not just as current state.

On top of the graph sit the two operator queries:

* :meth:`~TopologyStore.path` — confidence-weighted shortest path over
  the subnet/gateway incidence structure, returning the edge evidence
  for every hop;
* :meth:`~TopologyStore.impact` — blast radius: the subnets and hosts
  cut off if the target fails (articulation analysis).

Both read a :class:`_GraphIndex` (ranked adjacency plus one DFS) that
the store builds at most once per structure change, so a query costs
its own answer, not a search of the whole graph.

Consistency contract (mirrors the PR 1 incremental-correlation
contract): after any refresh, the store's :meth:`state` is
byte-identical to a freshly built store's over the same Journal —
incremental maintenance is an optimisation, never a divergence.
Property-tested under randomized churn in
``tests/core/test_topology.py``.

One store per Journal: :meth:`Journal.topology` builds it on first use
and every reader — the Journal Server's ``path``/``impact`` ops, the
clients, the presentation reports, the analysis finders and the
inquiry agent — shares it, so edge history accumulates in one place.
The store pulls: deltas come from :meth:`Journal.changes_since` (a pure
read), and it never prunes the change log.  :meth:`Journal.prune_changes`
clamps to the Journal store's last refresh, so other consumers' prune
calls keep its next delta complete.
"""

from __future__ import annotations

import heapq
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from .correlate import TopologyGraph, subnet_containing
from .journal import Journal, JournalChanges

__all__ = [
    "TopologyStore",
    "TopologyEdge",
    "TopologyPath",
    "TopologyImpact",
    "CONFIDENCE_WEIGHTS",
    "HISTORY_LIMIT",
]

#: Path edge cost by confidence: a questionable link is traversable
#: but three confident hops are preferred over one shaky one.  Keep the
#: costs whole numbers: route sums are then exact, and the search
#: compares them for equality.
CONFIDENCE_WEIGHTS: Dict[str, float] = {"good": 1.0, "questionable": 3.0}

#: appear/disappear transitions retained per edge (oldest dropped)
HISTORY_LIMIT = 16


@dataclass
class TopologyEdge:
    """One gateway-subnet attachment with its provenance.

    The edge survives disappearance (``present=False``) so its
    transition history keeps telling the flap story; only *present*
    edges participate in :meth:`TopologyStore.state`, path finding,
    and impact analysis.
    """

    gateway_id: int
    gateway_name: str
    subnet: str
    #: explorer / correlation rule that produced the attachment
    method: str
    #: attribute quality backing the attachment: "good"/"questionable"
    confidence: str
    present: bool = True
    #: bounded ("appear"|"disappear", journal-time) transitions
    history: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def flaps(self) -> int:
        """Disappearances recorded in the retained history window."""
        return sum(1 for kind, _at in self.history if kind == "disappear")

    def evidence(self) -> Dict[str, Any]:
        """The wire/report form of this edge's provenance."""
        return {
            "gateway": self.gateway_id,
            "gateway_name": self.gateway_name,
            "subnet": self.subnet,
            "method": self.method,
            "confidence": self.confidence,
        }


@dataclass
class TopologyPath:
    """Result of :meth:`TopologyStore.path`: the route and its evidence."""

    source: str
    destination: str
    found: bool
    reason: Optional[str] = None
    #: summed confidence-weighted edge cost
    cost: float = 0.0
    #: display labels along the route (subnet keys and gateway names)
    nodes: List[str] = field(default_factory=list)
    #: one evidence dict (see :meth:`TopologyEdge.evidence`) per hop
    hops: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "destination": self.destination,
            "found": self.found,
            "reason": self.reason,
            "cost": self.cost,
            "nodes": list(self.nodes),
            "hops": [dict(hop) for hop in self.hops],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TopologyPath":
        if not isinstance(data, dict):
            raise ValueError("path payload must be an object")
        source = data.get("source")
        destination = data.get("destination")
        found = data.get("found")
        reason = data.get("reason")
        cost = data.get("cost", 0.0)
        nodes = data.get("nodes", [])
        hops = data.get("hops", [])
        if not isinstance(source, str) or not isinstance(destination, str):
            raise ValueError("path endpoints must be strings")
        if not isinstance(found, bool):
            raise ValueError("path 'found' must be a boolean")
        if reason is not None and not isinstance(reason, str):
            raise ValueError("path 'reason' must be a string")
        if isinstance(cost, bool) or not isinstance(cost, (int, float)):
            raise ValueError("path 'cost' must be a number")
        if not isinstance(nodes, list) or not all(
            isinstance(node, str) for node in nodes
        ):
            raise ValueError("path 'nodes' must be a list of strings")
        if not isinstance(hops, list) or not all(
            isinstance(hop, dict) for hop in hops
        ):
            raise ValueError("path 'hops' must be a list of objects")
        for hop in hops:
            for key in ("gateway_name", "subnet", "method", "confidence"):
                if not isinstance(hop.get(key), str):
                    raise ValueError(f"path hop needs string {key!r}")
            if isinstance(hop.get("gateway"), bool) or not isinstance(
                hop.get("gateway"), int
            ):
                raise ValueError("path hop needs integer 'gateway'")
        return cls(
            source=source,
            destination=destination,
            found=found,
            reason=reason,
            cost=float(cost),
            nodes=list(nodes),
            hops=[dict(hop) for hop in hops],
        )


@dataclass
class TopologyImpact:
    """Result of :meth:`TopologyStore.impact`: the blast radius."""

    target: str
    found: bool
    #: "subnet" or "gateway" once resolved
    kind: Optional[str] = None
    reason: Optional[str] = None
    #: True when removing the target disconnects part of its component
    articulation: bool = False
    #: every subnet in the target's connected component
    component_subnets: List[str] = field(default_factory=list)
    #: subnets cut off from the surviving core if the target fails
    cut_subnets: List[str] = field(default_factory=list)
    #: gateway names cut off alongside them
    cut_gateways: List[str] = field(default_factory=list)
    #: interface records on the cut-off subnets
    isolated_hosts: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "found": self.found,
            "kind": self.kind,
            "reason": self.reason,
            "articulation": self.articulation,
            "component_subnets": list(self.component_subnets),
            "cut_subnets": list(self.cut_subnets),
            "cut_gateways": list(self.cut_gateways),
            "isolated_hosts": self.isolated_hosts,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TopologyImpact":
        if not isinstance(data, dict):
            raise ValueError("impact payload must be an object")
        target = data.get("target")
        found = data.get("found")
        kind = data.get("kind")
        reason = data.get("reason")
        articulation = data.get("articulation", False)
        hosts = data.get("isolated_hosts", 0)
        if not isinstance(target, str):
            raise ValueError("impact 'target' must be a string")
        if not isinstance(found, bool):
            raise ValueError("impact 'found' must be a boolean")
        if kind is not None and kind not in ("subnet", "gateway"):
            raise ValueError("impact 'kind' must be 'subnet' or 'gateway'")
        if reason is not None and not isinstance(reason, str):
            raise ValueError("impact 'reason' must be a string")
        if not isinstance(articulation, bool):
            raise ValueError("impact 'articulation' must be a boolean")
        if isinstance(hosts, bool) or not isinstance(hosts, int) or hosts < 0:
            raise ValueError("impact 'isolated_hosts' must be a count")
        lists = {}
        for key in ("component_subnets", "cut_subnets", "cut_gateways"):
            value = data.get(key, [])
            if not isinstance(value, list) or not all(
                isinstance(item, str) for item in value
            ):
                raise ValueError(f"impact {key!r} must be a list of strings")
            lists[key] = list(value)
        return cls(
            target=target,
            found=found,
            kind=kind,
            reason=reason,
            articulation=articulation,
            isolated_hosts=hosts,
            **lists,
        )


@dataclass
class _SubnetNode:
    """Store-internal per-subnet bookkeeping."""

    #: ids of live subnet records claiming this key
    record_ids: Set[int] = field(default_factory=set)
    #: interface record ids whose computed subnet is this key
    interfaces: Set[int] = field(default_factory=set)
    #: gateway ids with a *present* edge to this key
    gateways: Set[int] = field(default_factory=set)

    @property
    def live(self) -> bool:
        return bool(self.record_ids or self.interfaces or self.gateways)


class TopologyStore:
    """Incrementally maintained topology graph with path and impact
    queries.

    One store lives as long as its Journal: obtain it through
    :meth:`Journal.topology` rather than constructing another.  Every
    public query refreshes first, so answers always reflect the Journal
    as of the call.  Thread-safe: one internal lock serialises
    refreshes and queries.
    """

    def __init__(
        self, journal: Journal, *, history_limit: int = HISTORY_LIMIT
    ) -> None:
        self.journal = journal
        self.history_limit = history_limit
        #: Journal revision covered by the last refresh; None = never
        self.last_revision: Optional[int] = None
        self.full_refreshes = 0
        self.incremental_refreshes = 0
        self._lock = threading.RLock()
        #: (gateway id, subnet key) -> edge (present and retired)
        self._edges: Dict[Tuple[int, str], TopologyEdge] = {}
        #: gateway id -> subnet keys of all its edges (present and retired)
        self._gateway_edges: Dict[int, Set[str]] = {}
        #: how many of the edges are present
        self._present_edges = 0
        #: gateway id -> display name, for every live gateway record
        self._gateway_names: Dict[int, str] = {}
        #: display name -> ids of the live gateways showing it
        self._gateway_ids: Dict[str, Set[int]] = {}
        #: gateway id -> present edge subnet keys
        self._gateway_subnets: Dict[int, Set[str]] = {}
        #: the search index over the present edges, built on first
        #: use; None once the structure changes (see _graph_index)
        self._index: Optional[_GraphIndex] = None
        #: subnet key -> node bookkeeping
        self._subnet_nodes: Dict[str, _SubnetNode] = {}
        #: interface record id -> computed subnet key
        self._iface_subnet: Dict[int, str] = {}
        #: subnet record id -> key (for delete handling)
        self._subnet_record_key: Dict[int, str] = {}
        self._c_refreshes = journal.telemetry.counter(
            "fremont_topology_refreshes_total",
            "Topology store refreshes by mode",
            labels=("mode",),
        )
        self._g_edges = journal.telemetry.gauge(
            "fremont_topology_edges",
            "Present gateway-subnet edges in the topology store",
        )

    # ------------------------------------------------------------------
    # Refresh: incremental by default, rebuild when history is gone
    # ------------------------------------------------------------------

    def refresh(self, *, full: bool = False) -> str:
        """Bring the graph up to the Journal's current revision.

        Returns the mode used: ``"full"`` or ``"incremental"``.
        """
        with self._lock:
            journal = self.journal
            changes: Optional[JournalChanges] = None
            if not full and self.last_revision is not None:
                changes = journal.changes_since(self.last_revision)
                if not changes.complete:
                    changes = None  # history pruned out from under us
            if changes is None:
                mode = "full"
                self.full_refreshes += 1
                self._rebuild()
            else:
                mode = "incremental"
                self.incremental_refreshes += 1
                self._apply(changes)
            self.last_revision = journal.revision
            self._c_refreshes.labels(mode=mode).inc()
            self._g_edges.set(self._present_edges)
            return mode

    def _rebuild(self) -> None:
        """Reconcile against the whole Journal (first refresh, or the
        delta was pruned away).  Existing edges keep their transition
        history: a rebuild diffs, it does not forget."""
        journal = self.journal
        for rid in sorted(set(self._iface_subnet) - set(journal.interfaces)):
            self._drop_interface(rid)
        for rid in sorted(journal.interfaces):
            self._sync_interface(rid)
        for rid in sorted(set(self._subnet_record_key) - set(journal.subnets)):
            self._drop_subnet_record(rid)
        for rid in sorted(journal.subnets):
            self._sync_subnet_record(rid)
        for gid in sorted(set(self._gateway_names) - set(journal.gateways)):
            self._drop_gateway(gid)
        for gid in sorted(journal.gateways):
            self._sync_gateway(gid)

    def _apply(self, changes: JournalChanges) -> None:
        """Fold one change-log delta into the graph."""
        for rid in sorted(changes.deleted_interfaces):
            self._drop_interface(rid)
        for rid in sorted(changes.interfaces):
            self._sync_interface(rid)
        for rid in sorted(changes.deleted_subnets):
            self._drop_subnet_record(rid)
        for rid in sorted(changes.subnets):
            self._sync_subnet_record(rid)
        for gid in sorted(changes.deleted_gateways):
            self._drop_gateway(gid)
        for gid in sorted(changes.gateways):
            self._sync_gateway(gid)

    # ------------------------------------------------------------------
    # Per-record reconciliation
    # ------------------------------------------------------------------

    def _node(self, key: str) -> _SubnetNode:
        node = self._subnet_nodes.get(key)
        if node is None:
            node = self._subnet_nodes[key] = _SubnetNode()
        return node

    def _gc_node(self, key: str) -> None:
        node = self._subnet_nodes.get(key)
        if node is not None and not node.live:
            del self._subnet_nodes[key]

    def _sync_interface(self, rid: int) -> None:
        record = self.journal.interfaces.get(rid)
        if record is None:
            self._drop_interface(rid)
            return
        subnet = subnet_containing(record.ip, record.subnet_mask)
        key = None if subnet is None else str(subnet)
        old = self._iface_subnet.get(rid)
        if old == key:
            return
        if old is not None:
            self._node(old).interfaces.discard(rid)
            self._gc_node(old)
        if key is None:
            self._iface_subnet.pop(rid, None)
        else:
            self._iface_subnet[rid] = key
            self._node(key).interfaces.add(rid)

    def _drop_interface(self, rid: int) -> None:
        key = self._iface_subnet.pop(rid, None)
        if key is not None:
            node = self._subnet_nodes.get(key)
            if node is not None:
                node.interfaces.discard(rid)
                self._gc_node(key)

    def _sync_subnet_record(self, rid: int) -> None:
        record = self.journal.subnets.get(rid)
        if record is None or record.subnet is None:
            self._drop_subnet_record(rid)
            return
        key = record.subnet
        old = self._subnet_record_key.get(rid)
        if old == key:
            return
        if old is not None:
            self._drop_subnet_record(rid)
        self._subnet_record_key[rid] = key
        self._node(key).record_ids.add(rid)

    def _drop_subnet_record(self, rid: int) -> None:
        key = self._subnet_record_key.pop(rid, None)
        if key is not None:
            node = self._subnet_nodes.get(key)
            if node is not None:
                node.record_ids.discard(rid)
                self._gc_node(key)

    def _sync_gateway(self, gid: int) -> None:
        record = self.journal.gateways.get(gid)
        if record is None:
            self._drop_gateway(gid)
            return
        name = record.name or f"gateway-{gid}"
        old_name = self._gateway_names.get(gid)
        if old_name != name:
            if old_name is not None:
                self._forget_name(gid, old_name)
            self._gateway_names[gid] = name
            self._gateway_ids.setdefault(name, set()).add(gid)
            # A rename must reach retired edges too: their history
            # lines are rendered under the gateway's current name.
            for key in self._gateway_edges.get(gid, ()):
                self._edges[(gid, key)].gateway_name = name
        now = self.journal.now
        wanted: Dict[str, Tuple[str, str]] = {}
        for key in sorted(record.connected_subnets):
            attribute = record.connected_subnets[key]
            wanted[key] = (
                attribute.source or "unknown",
                attribute.quality,
            )
        current = self._gateway_subnets.setdefault(gid, set())
        for key in sorted(set(current) - set(wanted)):
            self._retire_edge(gid, key, now)
        for key, (method, confidence) in wanted.items():
            edge = self._edges.get((gid, key))
            if edge is None:
                edge = TopologyEdge(
                    gateway_id=gid,
                    gateway_name=name,
                    subnet=key,
                    method=method,
                    confidence=confidence,
                    present=False,
                )
                self._edges[(gid, key)] = edge
                self._gateway_edges.setdefault(gid, set()).add(key)
            if not edge.present:
                edge.present = True
                self._present_edges += 1
                self._record_transition(edge, "appear", now)
                self._index = None
            elif edge.confidence != confidence:
                self._index = None  # the edge's path weight changed
            edge.method = method
            edge.confidence = confidence
            current.add(key)
            self._node(key).gateways.add(gid)

    def _forget_name(self, gid: int, name: str) -> None:
        ids = self._gateway_ids.get(name)
        if ids is not None:
            ids.discard(gid)
            if not ids:
                del self._gateway_ids[name]

    def _drop_gateway(self, gid: int) -> None:
        now = self.journal.now
        for key in sorted(self._gateway_subnets.get(gid, ())):
            self._retire_edge(gid, key, now)
        self._gateway_subnets.pop(gid, None)
        name = self._gateway_names.pop(gid, None)
        if name is not None:
            self._forget_name(gid, name)
        self._index = None
        # The record is gone: retired edges would render under a dead
        # id forever, so forget them with it.
        for key in self._gateway_edges.pop(gid, ()):
            del self._edges[(gid, key)]

    def _retire_edge(self, gid: int, key: str, now: float) -> None:
        edge = self._edges.get((gid, key))
        if edge is not None and edge.present:
            edge.present = False
            self._present_edges -= 1
            self._record_transition(edge, "disappear", now)
            self._index = None
        subnets = self._gateway_subnets.get(gid)
        if subnets is not None:
            subnets.discard(key)
        node = self._subnet_nodes.get(key)
        if node is not None:
            node.gateways.discard(gid)
            self._gc_node(key)

    def _record_transition(self, edge: TopologyEdge, kind: str, now: float) -> None:
        edge.history.append((kind, now))
        if len(edge.history) > self.history_limit:
            del edge.history[: len(edge.history) - self.history_limit]

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------

    def edges(self) -> List[TopologyEdge]:
        """Present edges, sorted by (gateway id, subnet key)."""
        with self._lock:
            self.refresh()
            return [
                self._edges[key]
                for key in sorted(self._edges)
                if self._edges[key].present
            ]

    def graph(self) -> TopologyGraph:
        """The store's current structure as the classic
        :class:`~repro.core.correlate.TopologyGraph` (what the
        exporters and Figure 2 consume)."""
        with self._lock:
            self.refresh()
            graph = TopologyGraph()
            for key in sorted(self._subnet_nodes):
                graph.subnets[key] = sorted(self._subnet_nodes[key].gateways)
            for gid in sorted(self._gateway_names):
                graph.gateways[gid] = (
                    self._gateway_names[gid],
                    sorted(self._gateway_subnets.get(gid, ())),
                )
            return graph

    def components(self) -> List[List[str]]:
        """The subnets in connected pieces (two subnets connect through
        a gateway with a present edge to each), each piece in key order:
        the graph index's components plus one piece per subnet with no
        gateway, largest first, ties to the lowest key."""
        with self._lock:
            self.refresh()
            components = [list(keys) for keys in self._graph_index().component_subnets]
            components.extend(
                [key] for key, node in self._subnet_nodes.items() if not node.gateways
            )
            components.sort(key=lambda keys: (-len(keys), keys[0]))
            return components

    def state(self) -> Dict[str, Any]:
        """Canonical JSON-able structure state (no history): the
        incremental ≡ rebuilt equivalence surface."""
        with self._lock:
            self.refresh()
            subnets = {
                key: {
                    "gateways": sorted(node.gateways),
                    "interfaces": len(node.interfaces),
                }
                for key, node in sorted(self._subnet_nodes.items())
            }
            gateways = {
                str(gid): {
                    "name": self._gateway_names[gid],
                    "subnets": sorted(self._gateway_subnets.get(gid, ())),
                }
                for gid in sorted(self._gateway_names)
            }
            edges = [
                self._edges[key].evidence()
                for key in sorted(self._edges)
                if self._edges[key].present
            ]
            return {"subnets": subnets, "gateways": gateways, "edges": edges}

    def canonical_text(self) -> str:
        """:meth:`state` as deterministic bytes-comparable JSON."""
        return json.dumps(self.state(), sort_keys=True, separators=(",", ":"))

    # ------------------------------------------------------------------
    # Endpoint resolution
    # ------------------------------------------------------------------

    def _resolve(self, target: str) -> Optional[Tuple[str, Any]]:
        """Resolve an operator-supplied endpoint to a graph node:
        a subnet key, a ``gateway-<id>`` / bare id naming an existing
        gateway id, a gateway name, or an interface IP (which lands on
        its subnet).  An id form comes before the names, so a gateway
        named ``gateway-1`` cannot shadow gateway 1."""
        if target in self._subnet_nodes:
            return ("subnet", target)
        digits = target[len("gateway-"):] if target.startswith("gateway-") else target
        if digits.isdigit() and int(digits) in self._gateway_names:
            return ("gateway", int(digits))
        named = self._gateway_ids.get(target)
        if named:
            return ("gateway", min(named))
        subnet = subnet_containing(target)
        if subnet is None:
            return None
        for record in self.journal.interfaces_by_ip(target):
            key = self._iface_subnet.get(record.record_id)
            if key is not None:
                return ("subnet", key)
        key = str(subnet)
        if key in self._subnet_nodes:
            return ("subnet", key)
        return None

    def _label(self, node: Tuple[str, Any]) -> str:
        kind, value = node
        if kind == "subnet":
            return value
        return self._gateway_names.get(value, f"gateway-{value}")

    @staticmethod
    def _order(node: Tuple[str, Any]) -> Tuple[str, str]:
        kind, value = node
        return (kind, value if kind == "subnet" else f"{value:012d}")

    def _graph_index(self) -> "_GraphIndex":
        """The search index over the present edges, built at most once
        per structure change: an edge appearing or retiring, a present
        edge's confidence changing, or a gateway being dropped.
        Labels, methods and host counts are read when a query runs, so
        renames and sightings keep the index."""
        index = self._index
        if index is None:
            index = self._index = _GraphIndex(self)
        return index

    # ------------------------------------------------------------------
    # path: confidence-weighted shortest route
    # ------------------------------------------------------------------

    def path(self, a: str, b: str) -> TopologyPath:
        """Confidence-weighted shortest path from *a* to *b* over the
        subnet/gateway incidence graph, with edge evidence per hop.

        Endpoints may be subnet keys (``10.0.1.0/24``), gateway names,
        or interface IPs.  Questionable edges cost
        ``CONFIDENCE_WEIGHTS["questionable"]`` per hop, so the route
        prefers confident evidence where one exists.  Among equal-cost
        routes, each node on the answer is reached from its optimal
        neighbour nearest the source, ties to the lowest
        :meth:`_order` (see :meth:`_GraphIndex.route`).
        """
        with self._lock:
            self.refresh()
            source = self._resolve(a)
            if source is None:
                return TopologyPath(a, b, False, reason=f"unknown node: {a}")
            destination = self._resolve(b)
            if destination is None:
                return TopologyPath(a, b, False, reason=f"unknown node: {b}")
            if source == destination:
                label = self._label(source)
                return TopologyPath(a, b, True, nodes=[label])
            index = self._graph_index()
            start = index.rank.get(source)
            goal = index.rank.get(destination)
            if (
                start is None
                or goal is None
                or index.component[start] != index.component[goal]
            ):
                return TopologyPath(
                    a, b, False,
                    reason=(
                        f"no discovered route between {self._label(source)} "
                        f"and {self._label(destination)}"
                    ),
                )
            cost, route = index.route(start, goal)
            nodes = [self._label(source)]
            nodes.extend(self._label(index.nodes[rank]) for rank, _edge in route)
            return TopologyPath(
                a, b, True,
                cost=cost,
                nodes=nodes,
                hops=[edge.evidence() for _rank, edge in route],
            )

    # ------------------------------------------------------------------
    # impact: blast radius via articulation analysis
    # ------------------------------------------------------------------

    def impact(self, target: str) -> TopologyImpact:
        """What fails with *target*: remove the node from its
        component; whatever is disconnected from the surviving core
        (the remaining piece with the most subnets, ties going to the
        piece holding the lowest-ordered node) is the blast radius."""
        with self._lock:
            self.refresh()
            resolved = self._resolve(target)
            if resolved is None:
                return TopologyImpact(
                    target, False, reason=f"unknown node: {target}"
                )
            return self._impact(target, resolved)

    def cut_gateways(self) -> List[Tuple[int, str, TopologyImpact]]:
        """``(id, name, impact)`` of every gateway whose failure splits
        its component (an articulation point), by id.  The index's DFS
        picks them out, so only these gateways pay for an ``impact``."""
        with self._lock:
            self.refresh()
            index = self._graph_index()
            found: List[Tuple[int, str, TopologyImpact]] = []
            for rank, node in enumerate(index.nodes):
                if node[0] != "gateway":
                    break  # gateways order before subnets
                if index.separates(rank):
                    gid = node[1]
                    found.append((
                        gid,
                        self._label(node),
                        self._impact(f"gateway-{gid}", node),
                    ))
            return found

    def _impact(self, target: str, resolved: Tuple[str, Any]) -> TopologyImpact:
        """:meth:`impact` of *target*, already resolved to the graph
        node *resolved*."""
        kind, value = resolved
        index = self._graph_index()
        rank = index.rank.get(resolved)
        if rank is None:
            # No present edge: the node is a component of its own.
            return TopologyImpact(
                target,
                True,
                kind=kind,
                component_subnets=[value] if kind == "subnet" else [],
            )
        cut = index.cut(rank)
        nodes = index.nodes
        cut_subnets = [nodes[r][1] for r in cut if index.is_subnet[r]]
        cut_gateways = sorted(
            self._label(nodes[r]) for r in cut if not index.is_subnet[r]
        )
        isolated = sum(
            len(self._subnet_nodes[key].interfaces) for key in cut_subnets
        )
        return TopologyImpact(
            target,
            True,
            kind=kind,
            articulation=bool(cut),
            component_subnets=list(
                index.component_subnets[index.component[rank]]
            ),
            cut_subnets=cut_subnets,
            cut_gateways=cut_gateways,
            isolated_hosts=isolated,
        )


class _GraphIndex:
    """The present edges of one :class:`TopologyStore` as a search
    structure, built in one pass and never mutated.

    Every node with a present edge gets a *rank*, its position in
    :meth:`TopologyStore._order`, so comparing ranks breaks ties
    exactly as comparing order keys does.  ``links[rank]`` lists
    ``(neighbour rank, path weight, edge)`` in the neighbour's order.
    One iterative DFS, started from each undiscovered rank in turn,
    roots every component at its minimum rank and records per rank:
    component id, preorder position (``disc``), low-link, the end of
    the subtree's preorder range, and the subtree's subnet count and
    minimum rank.  :meth:`cut` reads a node's blast radius off these.
    """

    __slots__ = (
        "nodes", "rank", "links", "is_subnet", "component", "roots",
        "component_subnets", "preorder", "disc", "low", "end", "parent",
        "subnets_below", "least_below",
    )

    def __init__(self, store: TopologyStore) -> None:
        nodes: List[Tuple[str, Any]] = [
            ("gateway", gid) for gid, keys in store._gateway_subnets.items()
            if keys
        ]
        nodes.extend(
            ("subnet", key) for key, node in store._subnet_nodes.items()
            if node.gateways
        )
        nodes.sort(key=store._order)
        rank = {node: position for position, node in enumerate(nodes)}
        edges = store._edges
        links: List[List[Tuple[int, float, TopologyEdge]]] = []
        for kind, value in nodes:
            if kind == "subnet":
                pairs = [
                    (("gateway", gid), edges[(gid, value)])
                    for gid in sorted(store._subnet_nodes[value].gateways)
                ]
            else:
                pairs = [
                    (("subnet", key), edges[(value, key)])
                    for key in sorted(store._gateway_subnets[value])
                ]
            links.append([
                (rank[other], CONFIDENCE_WEIGHTS.get(edge.confidence, 3.0), edge)
                for other, edge in pairs
            ])
        is_subnet = [kind == "subnet" for kind, _value in nodes]
        count = len(nodes)
        component = [-1] * count
        disc = [0] * count
        low = [0] * count
        end = [0] * count
        parent = [-1] * count
        subnets_below = [int(flag) for flag in is_subnet]
        least_below = list(range(count))
        preorder: List[int] = []
        roots: List[int] = []
        for root in range(count):
            if component[root] >= 0:
                continue
            cid = len(roots)
            roots.append(root)
            component[root] = cid
            disc[root] = low[root] = len(preorder)
            preorder.append(root)
            stack = [(root, iter(links[root]))]
            while stack:
                node, pending = stack[-1]
                for other, _weight, _edge in pending:
                    if component[other] < 0:
                        component[other] = cid
                        parent[other] = node
                        disc[other] = low[other] = len(preorder)
                        preorder.append(other)
                        stack.append((other, iter(links[other])))
                        break
                    if other != parent[node] and disc[other] < low[node]:
                        low[node] = disc[other]
                else:
                    stack.pop()
                    end[node] = len(preorder)
                    up = parent[node]
                    if up >= 0:
                        low[up] = min(low[up], low[node])
                        subnets_below[up] += subnets_below[node]
                        least_below[up] = min(least_below[up], least_below[node])
        component_subnets: List[List[str]] = [[] for _root in roots]
        for position, (kind, value) in enumerate(nodes):
            if kind == "subnet":  # ranks follow key order: lists come sorted
                component_subnets[component[position]].append(value)
        self.nodes = nodes
        self.rank = rank
        self.links = links
        self.is_subnet = is_subnet
        self.component = component
        self.roots = roots
        self.component_subnets = component_subnets
        self.preorder = preorder
        self.disc = disc
        self.low = low
        self.end = end
        self.parent = parent
        self.subnets_below = subnets_below
        self.least_below = least_below

    def _separated(self, target: int, root: int) -> List[int]:
        """The DFS children of *target* whose subtrees its failure cuts
        off from its parent's side: every child at the *root*, else
        each child whose subtree reaches no higher than *target*."""
        parent = self.parent
        low = self.low
        at = self.disc[target]
        return [
            other
            for other, _weight, _edge in self.links[target]
            if parent[other] == target and (target == root or low[other] >= at)
        ]

    def separates(self, target: int) -> bool:
        """Whether *target* is a cut vertex: its failure leaves two or
        more pieces of its component (exactly when :meth:`cut` is
        non-empty).  A root needs two separated children; any other
        rank needs one, the rest of the component being the other."""
        root = self.roots[self.component[target]]
        return len(self._separated(target, root)) + (target != root) >= 2

    def route(
        self, start: int, goal: int
    ) -> Tuple[float, List[Tuple[int, TopologyEdge]]]:
        """The least-cost route from *start* to *goal* (same component,
        distinct ranks): its cost and its ``(rank, edge)`` hops, each
        hop's rank being the node it enters.

        Ties follow one rule: every node on the route is entered from
        its *optimal* neighbour (one on a least-cost route to it) with
        the least ``(distance from start, rank)`` — the neighbour a
        single Dijkstra keyed ``(cost, rank)`` settles first.  Three
        phases search only around the two endpoints:

        1. A bidirectional Dijkstra bounds the cost ``D``: it stops
           once the two queue tops sum to at least the best meeting.
        2. An A* pass from *start*, resuming phase 1's forward search,
           settles every node on a least-cost route.  Its heuristic is
           a node's settled distance to *goal*, else the backward
           queue's floor; that is consistent, so each popped distance
           is exact, and nothing on a least-cost route has an estimate
           above ``D``.
        3. The route is read back from *goal* by the tie rule.

        Weights are whole numbers (see :data:`CONFIDENCE_WEIGHTS`), so
        the sums compared below are exact.
        """
        links = self.links
        heappop = heapq.heappop
        heappush = heapq.heappush
        reach = ({start: 0.0}, {goal: 0.0})
        done: Tuple[Dict[int, float], Dict[int, float]] = ({}, {})
        queues = ([(0.0, start)], [(0.0, goal)])
        ahead, behind = queues
        bound = float("inf")
        while ahead and behind and ahead[0][0] + behind[0][0] < bound:
            side = 0 if ahead[0][0] <= behind[0][0] else 1
            queue = queues[side]
            cost, node = heappop(queue)
            settled = done[side]
            if node in settled:
                continue
            settled[node] = cost
            mine = reach[side]
            theirs = reach[1 - side]
            for other, weight, _edge in links[node]:
                candidate = cost + weight
                across = theirs.get(other)
                if across is not None and candidate + across < bound:
                    bound = candidate + across
                known = mine.get(other)
                if known is None or candidate < known:
                    mine[other] = candidate
                    heappush(queue, (candidate, other))

        # The forward search's settled distances are exact already;
        # its frontier seeds the A* queue.
        to_goal = done[1]
        floor = behind[0][0] if behind else float("inf")
        distance, exact = reach[0], done[0]
        queue = []
        for node, cost in distance.items():
            if node not in exact:
                estimate = cost + to_goal.get(node, floor)
                if estimate <= bound:
                    queue.append((estimate, node))
        heapq.heapify(queue)
        while queue and queue[0][0] <= bound:
            _estimate, node = heappop(queue)
            if node in exact:
                continue
            cost = exact[node] = distance[node]
            for other, weight, _edge in links[node]:
                candidate = cost + weight
                known = distance.get(other)
                if known is None or candidate < known:
                    distance[other] = candidate
                    estimate = candidate + to_goal.get(other, floor)
                    if estimate <= bound:
                        heappush(queue, (estimate, other))

        route: List[Tuple[int, TopologyEdge]] = []
        node = goal
        while node != start:
            here = exact[node]
            best: Optional[Tuple[float, int, TopologyEdge]] = None
            for other, weight, edge in links[node]:
                there = exact.get(other)
                if there is not None and there + weight == here:
                    if best is None or (there, other) < best[:2]:
                        best = (there, other, edge)
            assert best is not None
            route.append((node, best[2]))
            node = best[1]
        route.reverse()
        return exact[goal], route

    def cut(self, target: int) -> List[int]:
        """Ranks cut off from the surviving core if *target* fails,
        ascending.

        Removing the target splits its component into pieces: the DFS
        subtree under each child the target separates (every child, at
        a root), plus — unless the target is the root — the rest of the
        component, whose minimum rank is the root.  The core is the
        piece with the most subnets, ties to the lowest minimum rank;
        every other piece is cut."""
        root = self.roots[self.component[target]]
        at = self.disc[target]
        separated = self._separated(target, root)
        pieces = [
            (-self.subnets_below[child], self.least_below[child], child)
            for child in separated
        ]
        if target != root:
            rest = (
                self.subnets_below[root]
                - self.is_subnet[target]
                - sum(self.subnets_below[child] for child in separated)
            )
            pieces.append((-rest, root, -1))
        pieces.sort()
        preorder = self.preorder
        cut: List[int] = []
        for _count, _least, child in pieces[1:]:
            if child >= 0:
                cut.extend(preorder[self.disc[child]:self.end[child]])
                continue
            # The root's side lost: it is the component less the target
            # and the subtrees it separates (disjoint preorder ranges).
            position = self.disc[root]
            spans = sorted(
                [(at, at + 1)]
                + [(self.disc[other], self.end[other]) for other in separated]
            )
            for start, stop in spans:
                cut.extend(preorder[position:start])
                position = stop
            cut.extend(preorder[position:self.end[root]])
        cut.sort()
        return cut
