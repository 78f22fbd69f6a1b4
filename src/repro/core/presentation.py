"""Presentation programs: viewing the data available in the Journal.

The paper built three viewers:

1. a flat dump of everything in the Journal (early debugging);
2. a three-level interface browser (network -> subnet -> interface),
   showing time-since-last-verification "ignoring time of last DNS
   verification";
3. a topology exporter feeding SunNet Manager ("the program retrieves
   the network and gateway entries from the Journal, and dumps the data
   in the format expected by SunNet Manager").

SunNet Manager is long gone; the exporter emits the same
element/connection structure as a documented text format, plus DOT and
SVG renderings for modern viewers — both reproduce Figure 2's content.

Report registry
---------------

Every viewer is registered as a named *report*:
``render_report(journal, name, **params)`` dispatches by name and
``list_reports()`` is the catalogue.  The topology-store renderings
(``topology``, ``path``, ``impact``) register exactly like the paper's
three viewers — one extension surface instead of a growing pile of
free functions.

Confidence badges: edge evidence renders as ``[+ method]`` for
``good``-quality attachments and ``[? method]`` for ``questionable``
ones; the DOT and SVG exports draw questionable edges dashed.

Determinism: every rendering, including the SVG map, is byte-stable
for a given journal state.  Node placement uses a seeded, pure-python
force embedding over *sorted* nodes and edges (golden-file tested) —
no dependence on dict insertion order or third-party layout engines.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..netsim.addresses import Ipv4Address, Subnet
from .journal import Journal
from .query import InSubnet
from .records import InterfaceRecord

__all__ = [
    "Report",
    "render_report",
    "list_reports",
    "render_path",
    "render_impact",
    "BADGE_LEGEND",
]

#: confidence -> badge used in text renderings
_BADGES = {"good": "+", "questionable": "?"}

BADGE_LEGEND = (
    "badges: [+ method] good confidence, [? method] questionable "
    "(dashed in dot/svg exports)"
)


def _badge(confidence: str, method: str) -> str:
    return f"[{_BADGES.get(confidence, '?')} {method}]"


# ----------------------------------------------------------------------
# The report registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    """One registered report: a named renderer over a Journal."""

    name: str
    description: str
    #: keyword parameters the renderer accepts
    params: Tuple[str, ...]
    render: Callable[..., str]


_REPORTS: Dict[str, Report] = {}


def _report(name: str, description: str, params: Tuple[str, ...] = ()):
    """Register a renderer under *name* (module-internal decorator;
    external reports register by calling :func:`register_report`)."""

    def register(func: Callable[..., str]) -> Callable[..., str]:
        _REPORTS[name] = Report(name, description, params, func)
        return func

    return register


def register_report(
    name: str,
    description: str,
    params: Tuple[str, ...] = (),
) -> Callable[[Callable[..., str]], Callable[..., str]]:
    """Public registration decorator for out-of-module reports."""
    return _report(name, description, params)


def list_reports() -> List[Report]:
    """The report catalogue, sorted by name."""
    return [_REPORTS[name] for name in sorted(_REPORTS)]


def render_report(journal: Journal, name: str, **params: Any) -> str:
    """Render the report *name* against *journal*.

    Unknown names and parameters raise :class:`ValueError` naming the
    valid choices — the CLI surfaces both directly.
    """
    report = _REPORTS.get(name)
    if report is None:
        known = ", ".join(sorted(_REPORTS))
        raise ValueError(f"unknown report {name!r} (known: {known})")
    unknown = sorted(set(params) - set(report.params))
    if unknown:
        allowed = ", ".join(report.params) or "none"
        raise ValueError(
            f"report {name!r} does not take {unknown} "
            f"(allowed parameters: {allowed})"
        )
    return report.render(journal, **params)


def _age(journal: Journal, when: Optional[float]) -> str:
    if when is None:
        return "never"
    delta = journal.now - when
    if delta < 120:
        return f"{delta:.0f}s"
    if delta < 7200:
        return f"{delta / 60:.0f}m"
    if delta < 172800:
        return f"{delta / 3600:.1f}h"
    return f"{delta / 86400:.1f}d"


def _last_non_dns_verification(record: InterfaceRecord) -> Optional[float]:
    times = [
        attribute.last_verified_live
        for attribute in record.attributes.values()
        if attribute.last_verified_live is not None
    ]
    return max(times) if times else None


# ----------------------------------------------------------------------
# Program 1: the flat dump
# ----------------------------------------------------------------------


@_report("dump", "everything in the Journal, one line per record")
def _render_dump(journal: Journal) -> str:
    lines = [f"# journal dump at t={journal.now:.1f}"]
    lines.append(f"# {journal.counts()}")
    lines.append("## interfaces (least recently modified first)")
    for record in journal.all_interfaces():
        lines.append("  " + record.describe())
    lines.append("## gateways")
    for gateway in journal.all_gateways():
        lines.append("  " + gateway.describe())
    lines.append("## subnets")
    for subnet in journal.all_subnets():
        lines.append("  " + subnet.describe())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Program 2: the three-level interface browser
# ----------------------------------------------------------------------


@_report(
    "interfaces",
    "level 1: interfaces with address, DNS name, last verification",
    params=("network",),
)
def _render_interfaces(
    journal: Journal, *, network: Optional[str] = None
) -> str:
    """``network`` in CIDR form (``a.b.c.d/len``) runs as an indexed
    ``InSubnet`` query — O(result), not O(journal); a bare prefix
    string falls back to the original prefix match over everything."""
    prefix = network
    records = None
    if network is not None and "/" in network:
        try:
            records = journal.query("interfaces", InSubnet(network))
            prefix = None
        except ValueError:
            records = None  # malformed CIDR: keep the prefix-match path
    if records is None:
        records = journal.all_interfaces()
    lines = [f"{'ADDRESS':<16} {'DNS NAME':<30} {'LAST SEEN':>10}"]
    for record in sorted(records, key=lambda r: _sort_ip(r.ip)):
        if record.ip is None:
            continue
        if prefix is not None and not record.ip.startswith(prefix):
            continue
        last = _last_non_dns_verification(record)
        lines.append(
            f"{record.ip:<16} {(record.dns_name or '-'):<30} "
            f"{_age(journal, last):>10}"
        )
    return "\n".join(lines)


@_report(
    "subnet",
    "level 2: one subnet's interfaces with MAC/RIP/gateway flags",
    params=("subnet",),
)
def _render_subnet(journal: Journal, *, subnet: str) -> str:
    try:
        target = Subnet.parse(subnet)
    except ValueError:
        raise ValueError(f"subnet must look like a.b.c.d/len, got {subnet!r}")
    header = (
        f"{'ADDRESS':<16} {'ETHERNET':<18} {'RIP':<4} {'GW':<4} "
        f"{'NAME':<28}"
    )
    lines = [f"subnet {target}", header]
    # Indexed query instead of scanning and parsing every interface:
    # membership filtering (including unparsable IPs) lives in InSubnet.
    members = journal.query("interfaces", InSubnet(str(target)))
    for record in sorted(members, key=lambda r: _sort_ip(r.ip)):
        lines.append(
            f"{record.ip:<16} {(record.mac or '-'):<18} "
            f"{'yes' if record.get('rip_source') else '-':<4} "
            f"{'yes' if record.gateway_id is not None else '-':<4} "
            f"{(record.dns_name or '-'):<28}"
        )
    return "\n".join(lines)


@_report(
    "interface",
    "level 3: one interface's attributes with provenance and history",
    params=("ip",),
)
def _render_interface(journal: Journal, *, ip: str) -> str:
    records = journal.interfaces_by_ip(ip)
    if not records:
        return f"no interface records for {ip}"
    lines = []
    for record in records:
        lines.append(f"interface record #{record.record_id} ({ip})")
        for name in sorted(record.attributes):
            attribute = record.attributes[name]
            lines.append(
                f"  {name:<14} = {attribute.value!s:<22} "
                f"[discovered {_age(journal, attribute.first_discovered)} ago, "
                f"changed {_age(journal, attribute.last_changed)} ago, "
                f"verified {_age(journal, attribute.last_verified)} ago "
                f"by {attribute.verified_by}, quality={attribute.quality}]"
            )
            for old_value, until in attribute.history:
                lines.append(
                    f"      previously {old_value!s} "
                    f"(until {_age(journal, until)} ago)"
                )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Program 3: topology exporters (Figure 2)
# ----------------------------------------------------------------------


@_report("sunnet", "SunNet-Manager-style element/connection export")
def _render_sunnet(journal: Journal) -> str:
    """One ``component`` record per subnet and gateway, one
    ``connection`` record per gateway-subnet attachment — the
    relationships SunNet Manager could not discover by itself ("Using
    SunNet Manager, the user must enter and maintain network
    relationship information manually.  Fremont supports this function
    automatically.")."""
    graph = journal.topology().graph()
    lines = ["! Fremont topology export (SunNet Manager element format)"]
    for subnet_key in sorted(graph.subnets):
        name = subnet_key.replace("/", "_")
        lines.append(f'component.subnet "{name}" address={subnet_key}')
    for gateway_id, (name, subnet_keys) in sorted(graph.gateways.items()):
        lines.append(
            f'component.gateway "{name}" id={gateway_id} '
            f"interfaces={len(journal.gateways[gateway_id].interface_ids)}"
            if gateway_id in journal.gateways
            else f'component.gateway "{name}" id={gateway_id}'
        )
    for gateway_name, subnet_key in graph.edges():
        lines.append(
            f'connection "{gateway_name}" "{subnet_key.replace("/", "_")}"'
        )
    return "\n".join(lines)


@_report("dot", "Graphviz DOT rendering (questionable edges dashed)")
def _render_dot(journal: Journal) -> str:
    store = journal.topology()
    graph = store.graph()
    edges = store.edges()
    lines = [
        "graph fremont {",
        "  layout=neato;",
        '  node [fontname="Helvetica"];',
    ]
    # Gateway ordinals, not record ids: ids number every record the
    # journal ever made, so embedding them would make the output
    # depend on allocation history rather than journal content.
    ordinal = _gateway_ordinals(graph)
    for subnet_key in sorted(graph.subnets):
        lines.append(
            f'  "{subnet_key}" [shape=ellipse, style=filled, '
            'fillcolor=lightblue];'
        )
    for gateway_id, (name, _subnets) in sorted(graph.gateways.items()):
        lines.append(
            f'  "gw:{name}#{ordinal[gateway_id]}" [shape=box, label="{name}"];'
        )
    for edge in edges:
        style = "" if edge.confidence == "good" else " [style=dashed]"
        lines.append(
            f'  "gw:{edge.gateway_name}#{ordinal[edge.gateway_id]}" -- '
            f'"{edge.subnet}"{style};'
        )
    lines.append("}")
    return "\n".join(lines)


def _gateway_ordinals(graph) -> Dict[int, int]:
    """Stable 1-based gateway numbering in record-id order."""
    return {gid: index for index, gid in enumerate(sorted(graph.gateways), 1)}


def _seeded_unit(seed: int, token: str) -> float:
    """A stable float in [0, 1) from (seed, token): md5, not ``hash()``
    (which is salted per process)."""
    digest = hashlib.md5(f"{seed}:{token}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def _spring_layout(
    nodes: List[Tuple[str, Any]],
    edges: List[Tuple[Tuple[str, Any], Tuple[str, Any]]],
    *,
    seed: int,
    iterations: int = 60,
) -> Dict[Tuple[str, Any], Tuple[float, float]]:
    """Deterministic Fruchterman-Reingold-style embedding in the unit
    square.  Pure python over *sorted* nodes/edges: identical input
    graphs place identically on every run, platform, and library
    version — the property the golden SVG tests pin down."""
    if not nodes:
        return {}
    positions = {
        node: (
            _seeded_unit(seed, f"x:{node[0]}:{node[1]}"),
            _seeded_unit(seed, f"y:{node[0]}:{node[1]}"),
        )
        for node in nodes
    }
    if len(nodes) == 1:
        return {nodes[0]: (0.5, 0.5)}
    k = math.sqrt(1.0 / len(nodes))
    temperature = 0.1
    cooling = temperature / (iterations + 1)
    for _step in range(iterations):
        forces = {node: [0.0, 0.0] for node in nodes}
        for i, a in enumerate(nodes):
            ax, ay = positions[a]
            for b in nodes[i + 1:]:
                bx, by = positions[b]
                dx, dy = ax - bx, ay - by
                distance = math.sqrt(dx * dx + dy * dy) or 1e-6
                repulse = (k * k) / distance
                fx, fy = dx / distance * repulse, dy / distance * repulse
                forces[a][0] += fx
                forces[a][1] += fy
                forces[b][0] -= fx
                forces[b][1] -= fy
        for a, b in edges:
            ax, ay = positions[a]
            bx, by = positions[b]
            dx, dy = ax - bx, ay - by
            distance = math.sqrt(dx * dx + dy * dy) or 1e-6
            attract = (distance * distance) / k
            fx, fy = dx / distance * attract, dy / distance * attract
            forces[a][0] -= fx
            forces[a][1] -= fy
            forces[b][0] += fx
            forces[b][1] += fy
        for node in nodes:
            fx, fy = forces[node]
            magnitude = math.sqrt(fx * fx + fy * fy) or 1e-6
            step = min(magnitude, temperature)
            x, y = positions[node]
            positions[node] = (
                min(1.0, max(0.0, x + fx / magnitude * step)),
                min(1.0, max(0.0, y + fy / magnitude * step)),
            )
        temperature -= cooling
    return positions


@_report(
    "svg",
    "standalone SVG map (deterministic layout, questionable edges dashed)",
    params=("width", "height", "seed"),
)
def _render_svg(
    journal: Journal,
    *,
    width: int = 1200,
    height: int = 900,
    seed: int = 7,
) -> str:
    """The discovered map rendered as a standalone SVG document — the
    self-contained replacement for the SunNet Manager window of
    Figure 2."""
    store = journal.topology()
    graph = store.graph()
    topo_edges = store.edges()
    # Layout keys use gateway ordinals (see _gateway_ordinals): the
    # embedding must depend on the journal's content, not on its
    # record-id allocation history.
    ordinal = _gateway_ordinals(graph)
    nodes: List[Tuple[str, Any]] = [
        ("subnet", key) for key in sorted(graph.subnets)
    ] + [("gateway", ordinal[gid]) for gid in sorted(graph.gateways)]
    if not nodes:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}"><text x="20" y="40">empty journal</text></svg>'
        )
    edge_pairs = [
        (("gateway", ordinal[edge.gateway_id]), ("subnet", edge.subnet))
        for edge in topo_edges
    ]
    positions = _spring_layout(nodes, edge_pairs, seed=seed)

    margin = 60.0
    xs = [p[0] for p in positions.values()]
    ys = [p[1] for p in positions.values()]
    span_x = (max(xs) - min(xs)) or 1.0
    span_y = (max(ys) - min(ys)) or 1.0

    def place(node):
        x, y = positions[node]
        px = margin + (x - min(xs)) / span_x * (width - 2 * margin)
        py = margin + (y - min(ys)) / span_y * (height - 2 * margin)
        return px, py

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        "<style>text{font-family:sans-serif;font-size:9px}"
        ".subnet{fill:#cfe8ff;stroke:#336}"
        ".gateway{fill:#ffe9b3;stroke:#863}"
        ".link{stroke:#999;stroke-width:1}"
        ".lowconf{stroke-dasharray:4 3}</style>",
        f'<text x="{margin}" y="28" style="font-size:15px">'
        "Fremont: discovered network map</text>",
    ]
    for edge in topo_edges:
        if ("subnet", edge.subnet) not in positions:
            continue
        gx, gy = place(("gateway", ordinal[edge.gateway_id]))
        sx, sy = place(("subnet", edge.subnet))
        css = "link" if edge.confidence == "good" else "link lowconf"
        lines.append(
            f'<line class="{css}" x1="{gx:.1f}" y1="{gy:.1f}" '
            f'x2="{sx:.1f}" y2="{sy:.1f}"/>'
        )
    for subnet_key in sorted(graph.subnets):
        x, y = place(("subnet", subnet_key))
        lines.append(
            f'<ellipse class="subnet" cx="{x:.1f}" cy="{y:.1f}" rx="34" ry="12"/>'
            f'<text x="{x:.1f}" y="{y + 3:.1f}" text-anchor="middle">'
            f"{subnet_key.split('/')[0]}</text>"
        )
    for gateway_id, (name, _subnets) in sorted(graph.gateways.items()):
        x, y = place(("gateway", ordinal[gateway_id]))
        label = name.split(".")[0]
        lines.append(
            f'<rect class="gateway" x="{x - 26:.1f}" y="{y - 9:.1f}" '
            f'width="52" height="18" rx="3"/>'
            f'<text x="{x:.1f}" y="{y + 3:.1f}" text-anchor="middle">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Topology-store reports: the operator troubleshooting surface
# ----------------------------------------------------------------------


@_report(
    "topology",
    "current topology edges with confidence badges and flap history",
)
def _render_topology(journal: Journal) -> str:
    store = journal.topology()
    edges = store.edges()
    graph = store.graph()
    components = store.components()
    lines = [
        f"# topology: {len(graph.subnets)} subnet(s), "
        f"{len(graph.gateways)} gateway(s), {len(edges)} link(s), "
        f"{len(components)} component(s)"
    ]
    for edge in edges:
        flaps = f"  (flaps: {edge.flaps})" if edge.flaps else ""
        lines.append(
            f"  {edge.gateway_name} --{_badge(edge.confidence, edge.method)}"
            f"-- {edge.subnet}{flaps}"
        )
    for index, component in enumerate(components):
        lines.append(
            f"component {index + 1}: " + " ".join(sorted(component))
        )
    lines.append(BADGE_LEGEND)
    return "\n".join(lines)


def render_path(path) -> str:
    """Human rendering of a :class:`~repro.core.topology.TopologyPath`
    (shared by the ``path`` report and the CLI subcommand, which also
    answers from remote/sharded clients)."""
    header = f"path {path.source} -> {path.destination}: "
    if not path.found:
        return header + (path.reason or "no route")
    if not path.hops:
        return header + f"same node ({path.nodes[0]})"
    lines = [header + f"found, cost {path.cost:g}, {len(path.hops)} hop(s)"]
    for index, hop in enumerate(path.hops):
        lines.append(
            f"  {index + 1}. {path.nodes[index]} "
            f"--{_badge(hop['confidence'], hop['method'])}-- "
            f"{path.nodes[index + 1]}"
        )
    lines.append(BADGE_LEGEND)
    return "\n".join(lines)


def render_impact(impact) -> str:
    """Human rendering of a
    :class:`~repro.core.topology.TopologyImpact`."""
    if not impact.found:
        return f"impact of {impact.target}: {impact.reason or 'unknown node'}"
    lines = [
        f"impact of {impact.target} ({impact.kind}): "
        f"component of {len(impact.component_subnets)} subnet(s)"
    ]
    if not impact.articulation:
        lines.append(
            "  no partition: the surviving component stays connected"
        )
        return "\n".join(lines)
    lines.append(
        f"  cut off: {len(impact.cut_subnets)} subnet(s), "
        f"{len(impact.cut_gateways)} gateway(s), "
        f"{impact.isolated_hosts} host interface(s)"
    )
    for subnet in impact.cut_subnets:
        lines.append(f"    subnet  {subnet}")
    for gateway in impact.cut_gateways:
        lines.append(f"    gateway {gateway}")
    lines.append("  verdict: single point of failure")
    return "\n".join(lines)


@_report(
    "path",
    "confidence-weighted route between two endpoints with evidence",
    params=("a", "b"),
)
def _render_path_report(journal: Journal, *, a: str, b: str) -> str:
    return render_path(journal.topology().path(a, b))


@_report(
    "impact",
    "blast radius if the target subnet/gateway fails",
    params=("target",),
)
def _render_impact_report(journal: Journal, *, target: str) -> str:
    return render_impact(journal.topology().impact(target))


def _sort_ip(ip: Optional[str]):
    if ip is None:
        return (1, 0)
    try:
        return (0, Ipv4Address.parse(ip).value)
    except ValueError:
        return (1, 0)
