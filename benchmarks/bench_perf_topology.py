"""Perf benchmark: incremental topology maintenance vs rebuild.

Every topology question — an operator's ``path``/``impact``, the dot
and SVG maps, the partitioned-subnet analysis — needs the discovered
graph, and before the :class:`~repro.core.topology.TopologyStore` each
consumer rebuilt it from the whole Journal.  The store follows the
Journal's change log instead and folds deltas into a persistent graph,
so a refresh after a discovery batch costs the *batch*, not the site.

This harness builds campus-scale Journals (2k and 10k interfaces, a
gateway backbone chaining the subnets), then drives discovery batches
through two consumers: the Journal's store (``journal.topology()``)
refreshed after every batch, and a from-scratch store built fresh each
time (what every pre-store consumer effectively did).  Both must agree byte-for-byte
on :meth:`~repro.core.topology.TopologyStore.canonical_text` after
every batch — the equivalence contract the property tests pin down —
so the comparison is between two ways of computing the *same* answer.
It also times the operator queries (``path``/``impact``) against the
warm store, and one warm ``find_cut_gateways`` pass on the Journal's
store against a pass on a store built for it alone (what the finder
did before it shared the Journal's store); the two must find the
same cut gateways.

The store answers ``impact`` from a graph index built once per
structure change.  :func:`naive_impact` keeps the search it replaced
(one BFS per piece over cached adjacency, every query), the way
ablation B keeps the paper's AVL tree: every sampled ``impact`` answer
must equal the reference's, and the two are timed on the same targets.
:func:`naive_path` likewise keeps the single-source Dijkstra that the
goal-directed ``path`` search replaced; every sampled ``path`` answer,
tie-breaks included, must equal it, timed on the same pairs.

``--check`` enforces all four equivalences always, and gates the largest
size's speedups: incremental refresh >= 5x a rebuild, and warm
``impact`` >= 5x the naive reference, in full runs (>= 3x each under
``--quick``, where the small Journal shrinks the work both are
beating).  ``path`` has no speed gate: on this chain-shaped site both
searches walk the chain between the endpoints.

Results land in ``BENCH_topology.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_topology.py
    PYTHONPATH=src python benchmarks/bench_perf_topology.py --quick --check

(Not a pytest module: run it directly.)
"""

from __future__ import annotations

import argparse
import heapq
import json
import random
import sys
import time
from typing import Any, Dict, List, Optional, Set, Tuple

import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.core import Journal, Observation  # noqa: E402
from repro.core.analysis import find_cut_gateways  # noqa: E402
from repro.core.topology import (  # noqa: E402
    TopologyImpact,
    TopologyPath,
    TopologyStore,
)

SOURCE = "bench-topo"


def _step_clock():
    state = {"now": 0.0}

    def clock() -> float:
        state["now"] += 1.0
        return state["now"]

    return clock


def _build_site(interfaces: int) -> Journal:
    """A connected campus: one /24 per ~50 interfaces, gateways
    chaining subnet ``i`` to ``i + 1``."""
    journal = Journal(clock=_step_clock())
    subnets = max(2, interfaces // 50)
    for index in range(interfaces):
        subnet = index % subnets
        journal.observe_interface(
            Observation(
                source=SOURCE,
                ip=f"10.{subnet // 200}.{subnet % 200}.{index // subnets % 200 + 1}",
                mac=f"08:00:2b:{index >> 16 & 0xFF:02x}:"
                f"{index >> 8 & 0xFF:02x}:{index & 0xFF:02x}",
                subnet_mask="255.255.255.0",
            )
        )
    for subnet in range(subnets - 1):
        gateway, _ = journal.ensure_gateway(
            source=SOURCE, name=f"gw-{subnet}"
        )
        for neighbour in (subnet, subnet + 1):
            journal.link_gateway_subnet(
                gateway.record_id,
                f"10.{neighbour // 200}.{neighbour % 200}.0/24",
                source=SOURCE,
            )
    return journal


def _discovery_batch(journal: Journal, rng: random.Random, subnets: int) -> None:
    """One explorer round: a few fresh hosts, some re-verifications,
    and an occasional gateway link change."""
    for _ in range(10):
        subnet = rng.randrange(subnets)
        journal.observe_interface(
            Observation(
                source=SOURCE,
                ip=f"10.{subnet // 200}.{subnet % 200}.{rng.randint(1, 250)}",
                mac=f"08:00:2b:ff:{rng.randint(0, 255):02x}:"
                f"{rng.randint(0, 255):02x}",
                subnet_mask="255.255.255.0",
            )
        )
    if rng.random() < 0.5:
        gateways = sorted(journal.gateways)
        if gateways:
            gid = rng.choice(gateways)
            subnet = rng.randrange(subnets)
            journal.link_gateway_subnet(
                gid,
                f"10.{subnet // 200}.{subnet % 200}.0/24",
                source=SOURCE,
            )


Node = Tuple[str, Any]


def naive_adjacency(store: TopologyStore) -> Dict[Node, List[Node]]:
    """Each node's neighbours over present edges, in the store's order
    (the per-node cache the naive search kept warm)."""
    adjacency: Dict[Node, List[Node]] = {}
    for edge in store.edges():
        gateway = ("gateway", edge.gateway_id)
        subnet = ("subnet", edge.subnet)
        adjacency.setdefault(gateway, []).append(subnet)
        adjacency.setdefault(subnet, []).append(gateway)
    for neighbours in adjacency.values():
        neighbours.sort(key=lambda node: node[1])
    return adjacency


def _naive_component(
    adjacency: Dict[Node, List[Node]], start: Node, without: Optional[Node]
) -> Set[Node]:
    component = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for neighbour in adjacency.get(node, ()):
            if neighbour != without and neighbour not in component:
                component.add(neighbour)
                frontier.append(neighbour)
    return component


def naive_impact(
    store: TopologyStore, adjacency: Dict[Node, List[Node]], target: str
) -> TopologyImpact:
    """The reference ``impact``: the whole-component BFS, then one BFS
    per piece with the target removed, on every query."""
    with store._lock:
        store.refresh()
        resolved = store._resolve(target)
        if resolved is None:
            return TopologyImpact(target, False, reason=f"unknown node: {target}")
        component = _naive_component(adjacency, resolved, None)
        pieces: List[Set[Node]] = []
        seen = {resolved}
        for node in sorted(component, key=store._order):
            if node not in seen:
                piece = _naive_component(adjacency, node, resolved)
                seen |= piece
                pieces.append(piece)
        pieces.sort(key=lambda piece: (
            -sum(1 for kind, _value in piece if kind == "subnet"),
            min(store._order(node) for node in piece),
        ))
        cut: Set[Node] = set().union(*pieces[1:])
        cut_subnets = sorted(value for kind, value in cut if kind == "subnet")
        return TopologyImpact(
            target,
            True,
            kind=resolved[0],
            articulation=bool(cut),
            component_subnets=sorted(
                value for kind, value in component if kind == "subnet"
            ),
            cut_subnets=cut_subnets,
            cut_gateways=sorted(
                store._label(node) for node in cut if node[0] == "gateway"
            ),
            isolated_hosts=sum(
                len(store._subnet_nodes[key].interfaces) for key in cut_subnets
            ),
        )


def naive_path(store: TopologyStore, a: str, b: str) -> TopologyPath:
    """The reference ``path``: the single-source Dijkstra the store ran
    before its goal-directed search, over the same graph index.  It
    settles nodes in ``(cost, rank)`` order until it pops the goal."""
    with store._lock:
        store.refresh()
        source = store._resolve(a)
        if source is None:
            return TopologyPath(a, b, False, reason=f"unknown node: {a}")
        destination = store._resolve(b)
        if destination is None:
            return TopologyPath(a, b, False, reason=f"unknown node: {b}")
        if source == destination:
            return TopologyPath(a, b, True, nodes=[store._label(source)])
        index = store._graph_index()
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
                    f"no discovered route between {store._label(source)} "
                    f"and {store._label(destination)}"
                ),
            )
        links = index.links
        distances: Dict[int, float] = {start: 0.0}
        previous: Dict[int, Tuple[int, Any]] = {}
        queue: List[Tuple[float, int]] = [(0.0, start)]
        visited: Set[int] = set()
        while queue:
            cost, node = heapq.heappop(queue)
            if node in visited:
                continue
            visited.add(node)
            if node == goal:
                break
            for neighbour, weight, edge in links[node]:
                candidate = cost + weight
                known = distances.get(neighbour)
                if known is None or candidate < known:
                    distances[neighbour] = candidate
                    previous[neighbour] = (node, edge)
                    heapq.heappush(queue, (candidate, neighbour))
        nodes: List[str] = []
        hops: List[Dict[str, Any]] = []
        node = goal
        while node != start:
            parent, edge = previous[node]
            nodes.append(store._label(index.nodes[node]))
            hops.append(edge.evidence())
            node = parent
        nodes.append(store._label(source))
        return TopologyPath(
            a, b, True,
            cost=distances[goal],
            nodes=nodes[::-1],
            hops=hops[::-1],
        )


def fresh_cut_gateways(journal: Journal) -> list:
    """The reference ``find_cut_gateways``: the same finder, reading a
    store built from scratch for this one pass."""
    shared, journal._topology = journal._topology, TopologyStore(journal)
    try:
        return find_cut_gateways(journal)
    finally:
        journal._topology = shared


def measure_size(
    interfaces: int, *, rounds: int, seed: int, check_every: int = 5
) -> Dict[str, object]:
    journal = _build_site(interfaces)
    subnets = max(2, interfaces // 50)
    rng = random.Random(seed + 1)

    store = journal.topology()
    build_started = time.perf_counter()
    store.refresh()  # first refresh: the one full build the store pays
    first_build_s = time.perf_counter() - build_started

    incremental_s = 0.0
    rebuild_s = 0.0
    mismatches = 0
    for round_index in range(rounds):
        _discovery_batch(journal, rng, subnets)

        started = time.perf_counter()
        mode = store.refresh()
        incremental_s += time.perf_counter() - started
        assert mode == "incremental", f"round {round_index} fell back to full"

        started = time.perf_counter()
        fresh = TopologyStore(journal)
        fresh.refresh()
        rebuild_s += time.perf_counter() - started

        if round_index % check_every == 0:
            if store.canonical_text() != fresh.canonical_text():
                mismatches += 1

    # Operator queries against the warm store.
    keys = sorted(store.graph().subnets)
    query_rng = random.Random(seed + 2)
    pairs = [query_rng.sample(keys, 2) for _ in range(50)]
    store._graph_index()  # both searches run on the same built index
    path_started = time.perf_counter()
    routes = [store.path(a, b) for a, b in pairs]
    path_s = time.perf_counter() - path_started
    assert all(route.found for route in routes)
    naive_started = time.perf_counter()
    expected_routes = [naive_path(store, a, b) for a, b in pairs]
    naive_path_s = time.perf_counter() - naive_started
    path_mismatches = sum(
        route.to_dict() != reference.to_dict()
        for route, reference in zip(routes, expected_routes)
    )
    # Subnets and gateways alike; the reference answers the same ones.
    targets = [
        query_rng.choice(keys) if index % 2 else f"gw-{query_rng.randrange(subnets - 1)}"
        for index in range(50)
    ]
    impact_started = time.perf_counter()
    answers = [store.impact(target) for target in targets]
    impact_s = time.perf_counter() - impact_started
    assert all(answer.found for answer in answers)
    adjacency = naive_adjacency(store)
    naive_started = time.perf_counter()
    expected = [naive_impact(store, adjacency, target) for target in targets]
    naive_impact_s = time.perf_counter() - naive_started
    impact_mismatches = sum(
        answer.to_dict() != reference.to_dict()
        for answer, reference in zip(answers, expected)
    )

    store._index = None
    index_started = time.perf_counter()
    store._graph_index()
    index_build_s = time.perf_counter() - index_started

    find_cut_gateways(journal)  # warm the Journal's lazy state
    cut_started = time.perf_counter()
    cut_findings = find_cut_gateways(journal)
    cut_gateways_s = time.perf_counter() - cut_started
    fresh_started = time.perf_counter()
    fresh_findings = fresh_cut_gateways(journal)
    fresh_cut_gateways_s = time.perf_counter() - fresh_started

    speedup = rebuild_s / incremental_s if incremental_s else None
    path_speedup = naive_path_s / path_s if path_s else None
    impact_speedup = naive_impact_s / impact_s if impact_s else None
    return {
        "interfaces": interfaces,
        "subnets": subnets,
        "rounds": rounds,
        "first_build_ms": round(first_build_s * 1000, 2),
        "incremental_ms_per_batch": round(incremental_s / rounds * 1000, 3),
        "rebuild_ms_per_batch": round(rebuild_s / rounds * 1000, 3),
        "incremental_speedup": round(speedup, 2) if speedup else None,
        "equivalence_mismatches": mismatches,
        "path_ms": round(path_s / len(pairs) * 1000, 3),
        "naive_path_ms": round(naive_path_s / len(pairs) * 1000, 3),
        "path_speedup": round(path_speedup, 2) if path_speedup else None,
        "path_mismatches": path_mismatches,
        "impact_ms": round(impact_s / len(targets) * 1000, 3),
        "naive_impact_ms": round(naive_impact_s / len(targets) * 1000, 3),
        "impact_speedup": round(impact_speedup, 2) if impact_speedup else None,
        "impact_mismatches": impact_mismatches,
        "index_build_ms": round(index_build_s * 1000, 3),
        "cut_gateways_ms": round(cut_gateways_s * 1000, 2),
        "fresh_cut_gateways_ms": round(fresh_cut_gateways_s * 1000, 2),
        "cut_gateway_findings": len(cut_findings),
        "cut_gateway_mismatch": cut_findings != fresh_findings,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small run for CI smoke testing")
    parser.add_argument("--sizes", type=int, nargs="+", default=[2000, 10000],
                        help="journal sizes (interfaces) to measure")
    parser.add_argument("--rounds", type=int, default=40,
                        help="discovery batches per size")
    parser.add_argument("--seed", type=int, default=1993)
    parser.add_argument(
        "--check", action="store_true",
        help="fail on any incremental/rebuild, path/reference, "
        "impact/reference or find_cut_gateways shared/fresh divergence "
        "(always) or if the largest size's incremental or warm-impact "
        "speedup falls below the gate (5x full, 3x --quick)",
    )
    parser.add_argument("--output", default="BENCH_topology.json",
                        help="result file path (default: %(default)s)")
    args = parser.parse_args(argv)

    if args.quick:
        args.sizes = [500, 2000]
        args.rounds = min(args.rounds, 15)

    levels: List[Dict[str, object]] = []
    for size in args.sizes:
        print(f"{size} interfaces x {args.rounds} batches ...",
              end=" ", flush=True)
        level = measure_size(size, rounds=args.rounds, seed=args.seed)
        levels.append(level)
        print(
            f"incremental {level['incremental_ms_per_batch']}ms vs rebuild "
            f"{level['rebuild_ms_per_batch']}ms per batch "
            f"({level['incremental_speedup']}x), path "
            f"{level['path_ms']}ms vs naive {level['naive_path_ms']}ms "
            f"({level['path_speedup']}x), impact {level['impact_ms']}ms vs naive "
            f"{level['naive_impact_ms']}ms ({level['impact_speedup']}x), "
            f"find_cut_gateways {level['cut_gateways_ms']}ms vs fresh "
            f"{level['fresh_cut_gateways_ms']}ms"
        )

    largest = max(levels, key=lambda level: level["interfaces"])
    gate = 3.0 if args.quick else 5.0
    result = {
        "benchmark": "incremental topology maintenance vs rebuild",
        "quick": args.quick,
        "levels": levels,
        "gate": {
            "largest_interfaces": largest["interfaces"],
            "speedup": largest["incremental_speedup"],
            "impact_speedup": largest["impact_speedup"],
            "required": gate,
        },
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.check:
        diverged = sum(level["equivalence_mismatches"] for level in levels)
        if diverged:
            raise SystemExit(
                f"FAIL: incremental store diverged from rebuild "
                f"{diverged} time(s)"
            )
        for query in ("path", "impact"):
            wrong = sum(level[f"{query}_mismatches"] for level in levels)
            if wrong:
                raise SystemExit(
                    f"FAIL: {wrong} {query} answer(s) differ from the naive "
                    f"reference"
                )
        if any(level["cut_gateway_mismatch"] for level in levels):
            raise SystemExit(
                "FAIL: find_cut_gateways on the Journal's store differs "
                "from a fresh store's"
            )
        for key, what in (
            ("incremental_speedup", "incremental"),
            ("impact_speedup", "warm impact"),
        ):
            speedup = largest[key]
            if speedup is None or speedup < gate:
                raise SystemExit(
                    f"FAIL: {what} speedup {speedup}x at "
                    f"{largest['interfaces']} interfaces below {gate}x"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
